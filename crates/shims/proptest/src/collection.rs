//! Collection strategies, mirroring `proptest::collection`.

use crate::strategy::Strategy;
use crate::test_runner::TestRng;
use std::ops::Range;

/// Strategy for a `Vec` whose length is drawn from `len`, like
/// `proptest::collection::vec`.
pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
    VecStrategy { element, len }
}

/// The backend of [`vec()`].
#[derive(Clone, Debug)]
pub struct VecStrategy<S> {
    element: S,
    len: Range<usize>,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let span = self.len.end.saturating_sub(self.len.start) as u64;
        let n = self.len.start + rng.below(span) as usize;
        (0..n).map(|_| self.element.generate(rng)).collect()
    }
}
