//! IOMMU extension (paper §4.5).
//!
//! The paper notes that a buggy or malicious driver "can set up illegal
//! DMA transfers", a hole shared with the stock Xen driver-domain model,
//! and that "a complete solution to this problem requires the use of an
//! IOMMU that can be programmed to restrict the memory regions accessible
//! from the network card". The paper does not build one; this module
//! does, as the substitution-rule extension: a machine-frame allowlist
//! checked when the driver rings a doorbell (transmit **and** receive —
//! posted RX buffers are DMA targets too).
//!
//! The allowlist is range-aware: whole address spaces and pre-pinned
//! zero-copy pools coalesce into `[start, end)` pfn ranges, so the
//! per-descriptor check is a handful of range comparisons instead of a
//! per-frame set lookup that grows with every pinned pool page.

use std::collections::{BTreeMap, BTreeSet};
use twin_machine::{Fault, Machine, SpaceId, PAGE_SIZE};
use twin_nic::{regs, Nic, DESC_SIZE};

/// The maximal runs of consecutive pfns in `pfns`, in order, as
/// `(start, count)`.
pub(crate) fn runs(pfns: &[u64]) -> Vec<(u64, u64)> {
    let mut out: Vec<(u64, u64)> = Vec::new();
    for &pfn in pfns {
        match out.last_mut() {
            Some((start, n)) if *start + *n == pfn => *n += 1,
            _ => out.push((pfn, 1)),
        }
    }
    out
}

/// A simple IOMMU: machine frames the NIC is allowed to DMA to/from.
#[derive(Clone, Debug, Default)]
pub struct Iommu {
    /// Coalesced allowed ranges: start pfn → end pfn (exclusive).
    ranges: BTreeMap<u64, u64>,
    /// Stray single frames that did not coalesce into any range.
    allowed: BTreeSet<u64>,
    /// DMA attempts blocked.
    pub blocked: u64,
    /// Pool pages pinned up front ([`Iommu::pin_range`]).
    pub pinned_pages: u64,
}

impl Iommu {
    /// Creates an empty (deny-all) IOMMU.
    pub fn new() -> Iommu {
        Iommu::default()
    }

    /// Allows one machine frame.
    pub fn allow_frame(&mut self, pfn: u64) {
        self.allow_frame_range(pfn, 1);
    }

    /// Allows `count` consecutive machine frames starting at
    /// `start_pfn`, merging with any adjacent or overlapping range so
    /// the table stays small however many pool pages are pinned.
    pub fn allow_frame_range(&mut self, start_pfn: u64, count: u64) {
        if count == 0 {
            return;
        }
        let mut start = start_pfn;
        let mut end = start_pfn + count;
        // Absorb every existing range that touches [start, end).
        let touching: Vec<(u64, u64)> = self
            .ranges
            .range(..=end)
            .filter(|(_, &e)| e >= start)
            .map(|(&s, &e)| (s, e))
            .collect();
        for (s, e) in touching {
            self.ranges.remove(&s);
            start = start.min(s);
            end = end.max(e);
        }
        // Absorb stray singles the widened range now covers or abuts.
        while self.allowed.remove(&(end)) {
            end += 1;
        }
        while start > 0 && self.allowed.remove(&(start - 1)) {
            start -= 1;
        }
        let covered: Vec<u64> = self.allowed.range(start..end).copied().collect();
        for pfn in covered {
            self.allowed.remove(&pfn);
        }
        self.ranges.insert(start, end);
    }

    /// Allows every frame currently mapped by an address space (e.g. all
    /// of dom0's memory, or a guest's), coalescing consecutive pfns into
    /// ranges.
    pub fn allow_space_frames(&mut self, m: &Machine, space: SpaceId) {
        let mut pfns: Vec<u64> = m
            .space(space)
            .iter()
            .filter(|(_va, e)| matches!(e.kind, twin_machine::PageKind::Ram))
            .map(|(_va, e)| e.pfn)
            .collect();
        pfns.sort_unstable();
        pfns.dedup();
        for (start, count) in runs(&pfns) {
            self.allow_frame_range(start, count);
        }
    }

    /// Pre-pins a zero-copy pool: allows the range and records the pages
    /// as pinned, so the per-doorbell walk over pool-backed descriptors
    /// degenerates to one cached range comparison.
    pub fn pin_range(&mut self, start_pfn: u64, count: u64) {
        self.allow_frame_range(start_pfn, count);
        self.pinned_pages += count;
    }

    /// Number of coalesced ranges plus stray singles (observability: a
    /// pinned pool should add at most one range, not `pool_frames`
    /// entries).
    pub fn allowlist_entries(&self) -> usize {
        self.ranges.len() + self.allowed.len()
    }

    /// Whether a machine address may be DMA-targeted.
    pub fn frame_allowed(&self, machine_addr: u64) -> bool {
        let pfn = machine_addr / PAGE_SIZE;
        if let Some((_, &end)) = self.ranges.range(..=pfn).next_back() {
            if pfn < end {
                return true;
            }
        }
        self.allowed.contains(&pfn)
    }

    /// Validates every descriptor the driver just posted (TDH..new TDT)
    /// before the doorbell reaches the device.
    ///
    /// # Errors
    ///
    /// [`Fault::EnvFault`] when a descriptor points outside the allowed
    /// frames — the modeled IOMMU blocks the transfer.
    pub fn check_tx_ring(&mut self, m: &Machine, nic: &mut Nic, new_tdt: u32) -> Result<(), Fault> {
        let base = nic.mmio_read(regs::TDBAL) as u64;
        let n = nic.tx_ring_len();
        if n == 0 {
            return Ok(());
        }
        let mut i = nic.mmio_read(regs::TDH);
        while i != new_tdt % n {
            let daddr = base + i as u64 * DESC_SIZE;
            let buf = m.phys.read_u32(daddr) as u64;
            if !self.frame_allowed(buf) {
                self.blocked += 1;
                return Err(Fault::EnvFault(format!(
                    "iommu: DMA from disallowed machine address {buf:#x}"
                )));
            }
            i = (i + 1) % n;
        }
        Ok(())
    }

    /// Validates every receive buffer the driver just posted (old
    /// RDT..new RDT) before the doorbell reaches the device — posted RX
    /// buffers are DMA *write* targets, the more dangerous direction,
    /// and get the same doorbell-time walk transmit has.
    ///
    /// # Errors
    ///
    /// [`Fault::EnvFault`] when a posted buffer points outside the
    /// allowed frames.
    pub fn check_rx_ring(&mut self, m: &Machine, nic: &mut Nic, new_rdt: u32) -> Result<(), Fault> {
        let base = nic.mmio_read(regs::RDBAL) as u64;
        let n = nic.rx_ring_len();
        if n == 0 {
            return Ok(());
        }
        let mut i = nic.mmio_read(regs::RDT);
        while i != new_rdt % n {
            let daddr = base + i as u64 * DESC_SIZE;
            let buf = m.phys.read_u32(daddr) as u64;
            if !self.frame_allowed(buf) {
                self.blocked += 1;
                return Err(Fault::EnvFault(format!(
                    "iommu: RX DMA to disallowed machine address {buf:#x}"
                )));
            }
            i = (i + 1) % n;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twin_net::MacAddr;

    #[test]
    fn allowlist_by_space() {
        let mut m = Machine::new();
        let s = m.new_space();
        m.map_fresh(s, 0x2000_0000, 2).unwrap();
        let mut io = Iommu::new();
        io.allow_space_frames(&m, s);
        let t = m
            .translate(s, twin_machine::ExecMode::Guest, 0x2000_0000, false)
            .unwrap();
        assert!(io.frame_allowed(t.entry.pfn * PAGE_SIZE));
        assert!(!io.frame_allowed(0x3FFF_F000));
    }

    #[test]
    fn ranges_coalesce() {
        let mut io = Iommu::new();
        io.allow_frame_range(100, 10); // [100, 110)
        io.allow_frame_range(110, 10); // adjacent: one range [100, 120)
        io.allow_frame_range(105, 3); // inside: absorbed
        assert_eq!(io.allowlist_entries(), 1);
        io.allow_frame(120); // abuts the range end
        assert_eq!(io.allowlist_entries(), 1, "single absorbed into range");
        io.allow_frame(500); // genuinely disjoint
        assert_eq!(io.allowlist_entries(), 2);
        for pfn in [100u64, 119, 120, 500] {
            assert!(io.frame_allowed(pfn * PAGE_SIZE), "pfn {pfn}");
        }
        for pfn in [99u64, 121, 499, 501] {
            assert!(!io.frame_allowed(pfn * PAGE_SIZE), "pfn {pfn}");
        }
        // Bridging range: singles and both ranges merge into one.
        io.allow_frame_range(121, 379);
        assert_eq!(io.allowlist_entries(), 1);
        assert!(io.frame_allowed(300 * PAGE_SIZE));
    }

    #[test]
    fn pinned_pool_is_one_entry() {
        let mut io = Iommu::new();
        io.pin_range(0x4000, 64);
        assert_eq!(io.pinned_pages, 64);
        assert_eq!(io.allowlist_entries(), 1, "a pool pins as one range");
        assert!(io.frame_allowed(0x4000 * PAGE_SIZE));
        assert!(io.frame_allowed(0x403F * PAGE_SIZE));
        assert!(!io.frame_allowed(0x4040 * PAGE_SIZE));
    }

    #[test]
    fn blocks_rogue_descriptor() {
        let mut m = Machine::new();
        let mut nic = Nic::new(0, MacAddr::for_guest(0));
        // Build a TX ring at machine address 0x1000 with one descriptor
        // pointing at a disallowed frame.
        nic.mmio_write(&mut m.phys, regs::TDBAL, 0x1000);
        nic.mmio_write(&mut m.phys, regs::TDLEN, 4 * DESC_SIZE as u32);
        nic.mmio_write(&mut m.phys, regs::TCTL, 0x2);
        m.phys.write_u32(0x1000, 0x0066_6000); // rogue buffer address
        let mut io = Iommu::new();
        let e = io.check_tx_ring(&m, &mut nic, 1).unwrap_err();
        assert!(matches!(e, Fault::EnvFault(_)));
        assert_eq!(io.blocked, 1);
        // Allow it and the check passes.
        io.allow_frame(0x0066_6000 / PAGE_SIZE);
        assert!(io.check_tx_ring(&m, &mut nic, 1).is_ok());
    }

    #[test]
    fn blocks_rogue_rx_buffer() {
        let mut m = Machine::new();
        let mut nic = Nic::new(0, MacAddr::for_guest(0));
        // An RX ring at 0x2000 with one posted buffer at a disallowed
        // frame (descriptor 0; RDT still at 0 — the walk covers
        // old RDT..new RDT).
        nic.mmio_write(&mut m.phys, regs::RDBAL, 0x2000);
        nic.mmio_write(&mut m.phys, regs::RDLEN, 4 * DESC_SIZE as u32);
        m.phys.write_u32(0x2000, 0x0077_7000);
        let mut io = Iommu::new();
        let e = io.check_rx_ring(&m, &mut nic, 1).unwrap_err();
        assert!(matches!(e, Fault::EnvFault(_)));
        assert_eq!(io.blocked, 1);
        io.allow_frame(0x0077_7000 / PAGE_SIZE);
        assert!(io.check_rx_ring(&m, &mut nic, 1).is_ok());
    }
}
