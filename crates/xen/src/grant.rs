//! Map-once grant cache for the zero-copy datapath.
//!
//! The baseline I/O channel pays a `grant_map`/`grant_unmap` hypercall
//! pair (or a grant-copy) per packet. In zero-copy mode the guest grants
//! a pool of RX/TX buffer pages **once**; the twin driver maps each page
//! on first touch and keeps the mapping alive, recycling it through an
//! index ring. [`GrantCache`] is that mapping table: keyed by
//! `(domain, pool page)`, LRU-evicted at capacity.
//!
//! The cache is pure bookkeeping — the caller charges cycles and counts
//! the meter rows (`grant_cache_hit` on a hit, `grant_map` + `pin_page`
//! on a miss, `grant_unmap` and `grant_cache_evict` on an eviction), so
//! every cost stays attributed at the site that incurs it and the sweeps
//! see the per-packet map cost amortize to zero once the pool is warm.

use twin_machine::IntMap;

/// Counters of a [`GrantCache`] no meter row counts (hits, misses and
/// evictions are the caller's `GrantCacheHit`, `PinPage` and
/// `GrantCacheEvict` rows).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct GrantCacheStats {
    /// Mappings revoked by [`GrantCache::revoke_domain`] (the
    /// fault-isolation / quarantine path).
    pub revoked: u64,
}

/// Outcome of one [`GrantCache::access`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum GrantAccess {
    /// The page was already mapped: charge `grant_cache_hit` only.
    Hit,
    /// The page was mapped now (charge `grant_map` + `pin_page`); if a
    /// victim was evicted to make room, it must be unmapped (charge
    /// `grant_unmap`).
    Miss {
        /// `(domain, page)` evicted to make room, if the cache was full.
        evicted: Option<(u32, u64)>,
    },
}

/// An LRU table of live grant mappings, keyed `(domain, pool page)`.
#[derive(Debug, Clone)]
pub struct GrantCache {
    capacity: usize,
    /// page key → last-touch stamp (monotonic access counter). Hashed:
    /// no result depends on its order, since stamps are unique and the
    /// LRU victim is the entry with the smallest.
    entries: IntMap<(u32, u64), u64>,
    tick: u64,
    /// Counters.
    pub stats: GrantCacheStats,
}

impl GrantCache {
    /// Creates an empty cache holding at most `capacity` mappings.
    pub fn new(capacity: usize) -> GrantCache {
        GrantCache {
            capacity: capacity.max(1),
            entries: IntMap::default(),
            tick: 0,
            stats: GrantCacheStats::default(),
        }
    }

    /// Live mappings currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no mapping is live.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether `(dom, page)` is currently mapped (no LRU touch, no
    /// stats — observability only).
    pub fn contains(&self, dom: u32, page: u64) -> bool {
        self.entries.contains_key(&(dom, page))
    }

    /// Looks up `(dom, page)`, establishing the mapping on a miss and
    /// evicting the least-recently-used entry when at capacity. The
    /// caller charges cycles per the returned [`GrantAccess`].
    pub fn access(&mut self, dom: u32, page: u64) -> GrantAccess {
        self.tick += 1;
        if let Some(stamp) = self.entries.get_mut(&(dom, page)) {
            *stamp = self.tick;
            return GrantAccess::Hit;
        }
        let mut evicted = None;
        if self.entries.len() >= self.capacity {
            let lru = self.entries.iter().min_by_key(|(_, stamp)| **stamp);
            if let Some((&victim, _)) = lru {
                self.entries.remove(&victim);
                evicted = Some(victim);
            }
        }
        self.entries.insert((dom, page), self.tick);
        GrantAccess::Miss { evicted }
    }

    /// Tears down every mapping a domain owns and returns how many were
    /// revoked — the quarantine seam: when fault isolation suspects a
    /// guest (or the driver serving it), its cached grants must go so no
    /// stale mapping outlives the trust decision. Each revoked mapping
    /// owes one `grant_unmap`, charged by the caller.
    pub fn revoke_domain(&mut self, dom: u32) -> usize {
        let before = self.entries.len();
        self.entries.retain(|(d, _), _| *d != dom);
        let revoked = before - self.entries.len();
        self.stats.revoked += revoked as u64;
        revoked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_touch_misses_then_hits() {
        let mut c = GrantCache::new(8);
        assert_eq!(c.access(1, 100), GrantAccess::Miss { evicted: None });
        assert_eq!(c.access(1, 100), GrantAccess::Hit);
        assert_eq!(c.access(1, 100), GrantAccess::Hit);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn keys_are_per_domain() {
        let mut c = GrantCache::new(8);
        c.access(1, 100);
        assert_eq!(
            c.access(2, 100),
            GrantAccess::Miss { evicted: None },
            "same page, different domain: a distinct grant"
        );
        assert!(c.contains(1, 100) && c.contains(2, 100));
    }

    #[test]
    fn lru_eviction_at_capacity() {
        let mut c = GrantCache::new(2);
        c.access(1, 10);
        c.access(1, 20);
        c.access(1, 10); // 10 is now most-recent
        let r = c.access(1, 30);
        assert_eq!(
            r,
            GrantAccess::Miss {
                evicted: Some((1, 20))
            },
            "the least-recently-used entry goes"
        );
        assert_eq!(c.len(), 2);
        assert!(c.contains(1, 10) && c.contains(1, 30) && !c.contains(1, 20));
        // The evicted page faults back in on next touch.
        assert!(matches!(c.access(1, 20), GrantAccess::Miss { .. }));
    }

    #[test]
    fn revoke_domain_clears_only_that_domain() {
        let mut c = GrantCache::new(16);
        c.access(1, 10);
        c.access(1, 20);
        c.access(2, 10);
        assert_eq!(c.revoke_domain(1), 2);
        assert_eq!(c.stats.revoked, 2);
        assert!(!c.contains(1, 10) && !c.contains(1, 20));
        assert!(c.contains(2, 10), "other domains' grants survive");
        assert_eq!(c.revoke_domain(1), 0, "idempotent once empty");
    }

    #[test]
    fn capacity_floor_is_one() {
        let mut c = GrantCache::new(0);
        c.access(1, 10);
        let r = c.access(1, 20);
        assert_eq!(
            r,
            GrantAccess::Miss {
                evicted: Some((1, 10))
            }
        );
        assert_eq!(c.len(), 1);
    }
}
