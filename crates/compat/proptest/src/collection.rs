//! Collection strategies.

use crate::strategy::Strategy;
use crate::test_runner::TestRng;
use std::ops::Range;

/// A strategy producing `Vec`s of `element` values with a length drawn from
/// `size`.
pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
    assert!(size.start < size.end, "empty vec size range");
    VecStrategy { element, size }
}

/// See [`vec()`].
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    element: S,
    size: Range<usize>,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn new_value(&self, rng: &mut TestRng) -> Self::Value {
        let len = rng.draw_int(self.size.start as i128, self.size.end as i128) as usize;
        (0..len).map(|_| self.element.new_value(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_respects_size_and_element_ranges() {
        let mut rng = TestRng::for_test("collection::vec");
        let strat = vec(0u32..10, 2..7);
        for _ in 0..200 {
            let v = strat.new_value(&mut rng);
            assert!((2..7).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 10));
        }
    }
}
