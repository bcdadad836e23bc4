//! Half-open round intervals.

use crate::ids::Round;
use std::fmt;

/// A half-open interval of rounds `[start, end)`.
///
/// Algorithm DISTILL's candidate refinement counts the votes an object
/// receives *in iteration t* (the shared variable `ℓ_t(i)` of Figure 1).
/// Iterations are contiguous blocks of rounds, so a `Window` plus the
/// billboard timestamps is exactly enough to compute `ℓ_t(i)` — the paper
/// notes these quantities are "computable from the shared billboard data".
///
/// ```
/// use distill_billboard::{Round, Window};
/// let w = Window::new(Round(4), Round(8));
/// assert!(w.contains(Round(4)));
/// assert!(!w.contains(Round(8)));
/// assert_eq!(w.len(), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Window {
    /// First round in the window (inclusive).
    pub start: Round,
    /// First round after the window (exclusive).
    pub end: Round,
}

impl Window {
    /// Creates the window `[start, end)`.
    ///
    /// # Panics
    /// Panics if `end < start`.
    pub fn new(start: Round, end: Round) -> Self {
        assert!(end >= start, "window end {end} before start {start}");
        Window { start, end }
    }

    /// An empty window anchored at `at`.
    pub fn empty(at: Round) -> Self {
        Window { start: at, end: at }
    }

    /// `true` iff `round` lies inside the window.
    #[inline]
    pub fn contains(&self, round: Round) -> bool {
        round >= self.start && round < self.end
    }

    /// Number of rounds covered.
    #[inline]
    pub fn len(&self) -> u64 {
        self.end.0 - self.start.0
    }

    /// `true` iff the window covers no rounds.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

impl fmt::Display for Window {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn containment_is_half_open() {
        let w = Window::new(Round(2), Round(5));
        assert!(!w.contains(Round(1)));
        assert!(w.contains(Round(2)));
        assert!(w.contains(Round(4)));
        assert!(!w.contains(Round(5)));
    }

    #[test]
    fn empty_window() {
        let w = Window::empty(Round(3));
        assert!(w.is_empty());
        assert_eq!(w.len(), 0);
        assert!(!w.contains(Round(3)));
    }

    #[test]
    #[should_panic(expected = "window end")]
    fn reversed_window_panics() {
        let _ = Window::new(Round(5), Round(2));
    }

    #[test]
    fn display() {
        assert_eq!(Window::new(Round(1), Round(3)).to_string(), "[r1, r3)");
    }
}
