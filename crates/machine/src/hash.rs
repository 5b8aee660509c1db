//! One deterministic hasher for the simulator's integer-keyed tables.
//!
//! The per-frame tables of the receive pipeline (the landing records,
//! zero-copy slot occupancy, the grant cache) are
//! keyed by small tuples of integers the simulator itself makes — flow
//! ids, sequence numbers, domain ids, pool pages — never by input an
//! adversary chooses, so they need no protection against crafted
//! collisions. What they do need is that nothing depends on the run:
//! `std`'s `RandomState` seeds every map differently, and an iteration
//! order that varies from run to run would let a table's order leak into
//! a simulated number. [`IntHasher`] has no seed; a map built by the same
//! operations iterates in the same order every time.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A multiply-rotate hasher for integer keys: each word is folded into
/// the state by a rotate, an xor and a multiplication by an odd constant
/// (the Fx scheme), and `finish` mixes the state's high bits back into
/// its low ones (MurmurHash3's 64-bit finaliser). Without that last step
/// a table would pick its bucket from low bits that only a key's low
/// bits reach: the grant cache's pool pages carry their flow above bit
/// 16, so every flow's slot `k` would land in one bucket.
#[derive(Copy, Clone, Debug, Default)]
pub struct IntHasher(u64);

const FOLD: u64 = 0x517c_c1b7_2722_0a95;
const MIX: u64 = 0xff51_afd7_ed55_8ccd;

impl IntHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(FOLD);
    }
}

impl Hasher for IntHasher {
    #[inline]
    fn finish(&self) -> u64 {
        let h = (self.0 ^ (self.0 >> 33)).wrapping_mul(MIX);
        h ^ (h >> 33)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }
}

/// A `HashMap` hashed by [`IntHasher`].
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// A `HashSet` hashed by [`IntHasher`].
pub type IntSet<K> = HashSet<K, BuildHasherDefault<IntHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_operations_iterate_in_the_same_order() {
        let build = || {
            let mut m: IntMap<(u32, u64), u64> = IntMap::default();
            for i in 0..1000u64 {
                m.insert(((i * 7919 % 101) as u32, i), i);
            }
            for i in (0..1000u64).step_by(3) {
                m.remove(&((i * 7919 % 101) as u32, i));
            }
            m.into_iter().collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }

    /// Tables pick a bucket from the low bits and a tag from the top
    /// seven: every bit of a key must move both.
    #[test]
    fn every_key_bit_moves_the_bucket_and_the_tag() {
        let hash = |k: u64| {
            let mut h = IntHasher::default();
            h.write_u64(k);
            h.finish()
        };
        for bit in 0..64 {
            let (a, b) = (hash(0), hash(1 << bit));
            assert_ne!(a & 0xffff, b & 0xffff, "bit {bit}: bucket");
            assert_ne!(a >> 57, b >> 57, "bit {bit}: tag");
        }
    }
}
