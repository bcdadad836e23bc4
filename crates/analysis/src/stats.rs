//! Summary statistics over trial measurements.
//!
//! Every entry point here is total: empty samples yield `None` (not a
//! panic), singleton samples saturate (zero standard deviation), and
//! out-of-range quantile positions clamp into `[0, 1]`. The degradation
//! experiments aggregate per-fault-plan subsets that can legitimately be
//! empty (e.g. "survivors" when every player crashed), so a panicking
//! statistics layer would corrupt exactly the numbers those runs report.

/// Summary statistics of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample size.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Unbiased sample standard deviation (0 for n < 2).
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Median (interpolated).
    pub median: f64,
}

impl Summary {
    /// Computes summary statistics of `xs`.
    ///
    /// Returns `None` on an empty sample or when any value is non-finite —
    /// the two inputs for which no meaningful summary exists. A singleton
    /// sample saturates: its standard deviation is 0, and min, max, mean,
    /// and median all equal the one value.
    #[must_use]
    pub fn of(xs: &[f64]) -> Option<Summary> {
        if xs.is_empty() || xs.iter().any(|x| !x.is_finite()) {
            return None;
        }
        let count = xs.len();
        let mean = xs.iter().sum::<f64>() / count as f64;
        // `count - 1` is guarded: the branch only divides when count > 1.
        let var = if count > 1 {
            xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (count - 1) as f64
        } else {
            0.0
        };
        let mut sorted = xs.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(Summary {
            count,
            mean,
            std_dev: var.sqrt(),
            min: sorted[0],
            max: sorted[count - 1],
            median: quantile_sorted(&sorted, 0.5),
        })
    }

    /// Standard error of the mean.
    ///
    /// `None` when no meaningful error estimate exists: fewer than two
    /// observations (a sample standard deviation needs n ≥ 2; the old
    /// behavior let `n = 1` leak a misleading 0.0 and hand-built summaries
    /// with `n = 0`/NaN `std_dev` leak NaN into reports, violating the
    /// "no NaN out of stats" rule) or a non-finite `std_dev`.
    #[must_use]
    pub fn std_err(&self) -> Option<f64> {
        if self.count < 2 || !self.std_dev.is_finite() {
            return None;
        }
        Some(self.std_dev / (self.count as f64).sqrt())
    }
}

/// The `q`-quantile of a sample, with linear interpolation. `q` saturates
/// into `[0, 1]` (so `q = 1.5` is the maximum, not a panic); `NaN` `q` is
/// treated as the median.
///
/// Returns `None` on an empty sample.
#[must_use]
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(quantile_sorted(&sorted, q))
}

/// `sorted` must be non-empty and ascending; `q` is clamped into `[0, 1]`.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    let q = if q.is_nan() { 0.5 } else { q.clamp(0.0, 1.0) };
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q * (sorted.len() - 1) as f64;
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "q is clamped into [0, 1], so pos lies in [0, len - 1]"
    )]
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    let frac = pos - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// A fixed-width histogram over `[lo, hi)` with `bins` buckets; values
/// outside the range clamp into the end buckets.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Inclusive lower edge.
    pub lo: f64,
    /// Exclusive upper edge.
    pub hi: f64,
    /// Bucket counts.
    pub counts: Vec<u64>,
}

impl Histogram {
    /// Builds a histogram of `xs`.
    ///
    /// Returns `None` if `bins == 0` or `hi <= lo` — there is no bucket
    /// geometry to build.
    #[must_use]
    pub fn build(xs: &[f64], lo: f64, hi: f64, bins: usize) -> Option<Histogram> {
        if bins == 0 || hi <= lo {
            return None;
        }
        let mut counts = vec![0u64; bins];
        let width = (hi - lo) / bins as f64;
        for &x in xs {
            #[expect(
                clippy::cast_possible_truncation,
                clippy::cast_possible_wrap,
                clippy::cast_sign_loss,
                reason = "the bucket index is clamped into [0, bins - 1] before it becomes a usize"
            )]
            let idx = (((x - lo) / width).floor() as i64).clamp(0, bins as i64 - 1) as usize;
            counts[idx] += 1;
        }
        Some(Histogram { lo, hi, counts })
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Fraction of mass at or above `x`.
    pub fn tail_fraction(&self, x: f64) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let width = (self.hi - self.lo) / self.counts.len() as f64;
        #[expect(
            clippy::cast_possible_truncation,
            clippy::cast_possible_wrap,
            clippy::cast_sign_loss,
            reason = "the bucket index is clamped into [0, bins - 1] before it becomes a usize"
        )]
        let idx = (((x - self.lo) / width).floor() as i64).clamp(0, self.counts.len() as i64 - 1)
            as usize;
        self.counts[idx..].iter().sum::<u64>() as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_sample() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(s.count, 4);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert!((s.median - 2.5).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        // sample std dev of 1,2,3,4 = sqrt(5/3)
        assert!((s.std_dev - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert!((s.std_err().unwrap() - s.std_dev / 2.0).abs() < 1e-12);
    }

    #[test]
    fn singleton_sample_saturates() {
        let s = Summary::of(&[7.0]).unwrap();
        assert_eq!(s.count, 1);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.std_err(), None, "one observation has no error estimate");
        assert_eq!(s.median, 7.0);
        assert_eq!(s.min, 7.0);
        assert_eq!(s.max, 7.0);
    }

    /// Regression for the NaN leak: `std_err` on degenerate summaries
    /// (n < 2, or a hand-built summary whose `std_dev` is already NaN)
    /// must be `None`, never NaN — `ci95` and report formatting sit
    /// directly downstream.
    #[test]
    fn std_err_of_degenerate_summaries_is_none_not_nan() {
        let blank = Summary {
            count: 0,
            mean: f64::NAN,
            std_dev: f64::NAN,
            min: f64::NAN,
            max: f64::NAN,
            median: f64::NAN,
        };
        assert_eq!(blank.std_err(), None);
        let poisoned = Summary {
            count: 5,
            mean: 1.0,
            std_dev: f64::NAN,
            min: 0.0,
            max: 2.0,
            median: 1.0,
        };
        assert_eq!(poisoned.std_err(), None);
        let fine = Summary {
            count: 4,
            mean: 0.0,
            std_dev: 2.0,
            min: -2.0,
            max: 2.0,
            median: 0.0,
        };
        assert_eq!(fine.std_err(), Some(1.0));
    }

    #[test]
    fn empty_sample_is_none_not_a_panic() {
        // Regression: `Summary::of` used to assert on empty input, so an
        // all-crashed degradation run aborted instead of reporting.
        assert_eq!(Summary::of(&[]), None);
    }

    #[test]
    fn non_finite_sample_is_none() {
        assert_eq!(Summary::of(&[1.0, f64::NAN]), None);
        assert_eq!(Summary::of(&[f64::INFINITY]), None);
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [0.0, 10.0];
        assert_eq!(quantile(&xs, 0.0), Some(0.0));
        assert_eq!(quantile(&xs, 1.0), Some(10.0));
        assert_eq!(quantile(&xs, 0.25), Some(2.5));
        assert_eq!(quantile(&[5.0], 0.9), Some(5.0));
    }

    #[test]
    fn quantile_saturates_instead_of_panicking() {
        // Regression: out-of-range q used to assert; empty input too.
        let xs = [0.0, 10.0];
        assert_eq!(quantile(&xs, 1.5), Some(10.0));
        assert_eq!(quantile(&xs, -0.5), Some(0.0));
        assert_eq!(quantile(&xs, f64::NAN), Some(5.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn histogram_counts_and_tail() {
        let xs = [0.5, 1.5, 2.5, 3.5, 9.5, 42.0, -3.0];
        let h = Histogram::build(&xs, 0.0, 10.0, 10).unwrap();
        assert_eq!(h.total(), 7);
        assert_eq!(h.counts[0], 2); // 0.5 and the clamped -3.0
        assert_eq!(h.counts[9], 2); // 9.5 and the clamped 42.0
        assert!((h.tail_fraction(9.0) - 2.0 / 7.0).abs() < 1e-12);
        assert!((h.tail_fraction(0.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_histogram_geometry_is_none() {
        assert_eq!(Histogram::build(&[1.0], 0.0, 10.0, 0), None);
        assert_eq!(Histogram::build(&[1.0], 5.0, 5.0, 4), None);
        assert_eq!(Histogram::build(&[1.0], 9.0, 1.0, 4), None);
    }
}
