//! The benchmark's own seeded generator (SplitMix64): the same seed
//! always yields the same workload, on every host.

/// SplitMix64 — tiny, well-mixed and fully determined by its seed.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so each
    /// workload draws from its own sequence.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`), by multiply-shift.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// A draw from the unit-mean exponential distribution.
    pub fn exp_unit(&mut self) -> f64 {
        // 53 uniform bits mapped into (0, 1], so the logarithm is finite.
        let u = ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64;
        -u.ln()
    }
}
