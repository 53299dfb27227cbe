//! Collection strategies (`prop::collection::vec`).

use crate::strategy::Strategy;
use crate::test_runner::TestRng;

/// Acceptable length specifications for [`vec()`].
pub trait SizeRange {
    /// Draws a length.
    fn pick(&self, rng: &mut TestRng) -> usize;
}

impl SizeRange for usize {
    fn pick(&self, _rng: &mut TestRng) -> usize {
        *self
    }
}

impl SizeRange for core::ops::Range<usize> {
    fn pick(&self, rng: &mut TestRng) -> usize {
        assert!(self.start < self.end, "cannot sample empty length range");
        self.start + rng.below((self.end - self.start) as u64) as usize
    }
}

impl SizeRange for core::ops::RangeInclusive<usize> {
    fn pick(&self, rng: &mut TestRng) -> usize {
        let (start, end) = (*self.start(), *self.end());
        assert!(start <= end, "cannot sample empty length range");
        start + rng.below((end - start + 1) as u64) as usize
    }
}

/// A strategy for `Vec<S::Value>` with a length drawn from `size`.
#[derive(Debug, Clone)]
pub struct VecStrategy<S, R> {
    element: S,
    size: R,
}

/// Generates vectors whose elements come from `element` and whose
/// length is drawn from `size` (a `usize` or a range thereof).
pub fn vec<S: Strategy, R: SizeRange>(element: S, size: R) -> VecStrategy<S, R> {
    VecStrategy { element, size }
}

impl<S: Strategy, R: SizeRange> Strategy for VecStrategy<S, R> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let len = self.size.pick(rng);
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}
