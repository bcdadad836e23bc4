//! Percentile-bootstrap confidence intervals.
//!
//! The normal-approximation CI ([`crate::ci95`]) is fine for well-behaved
//! means; termination-time distributions, however, are skewed (geometric
//! restart tails — see experiment E6), where the bootstrap is the safer
//! default. Deterministic: resampling uses an internal SplitMix64 stream, so
//! the same inputs always give the same interval.

use crate::ci::ConfidenceInterval;

fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Percentile-bootstrap CI for the mean of `xs` at the given confidence
/// level (e.g. `0.95`), using `resamples` bootstrap replicates and `seed`
/// for the deterministic resampling stream.
///
/// Returns `None` on an empty sample, a non-finite value, `resamples == 0`,
/// or a confidence level outside `(0, 1)` — inputs with no defined interval.
#[must_use]
pub fn bootstrap_ci_mean(
    xs: &[f64],
    resamples: usize,
    level: f64,
    seed: u64,
) -> Option<ConfidenceInterval> {
    if xs.is_empty()
        || xs.iter().any(|x| !x.is_finite())
        || resamples == 0
        || !(0.0 < level && level < 1.0)
    {
        return None;
    }

    let n = xs.len();
    let mean = xs.iter().sum::<f64>() / n as f64;
    let mut state = mix(seed ^ 0x5DEE_CE66_D1CE_CAFE);
    let mut means = Vec::with_capacity(resamples);
    for _ in 0..resamples {
        let mut sum = 0.0;
        for _ in 0..n {
            state = mix(state);
            #[expect(
                clippy::cast_possible_truncation,
                reason = "the remainder is below n, a usize"
            )]
            let idx = (state % n as u64) as usize;
            sum += xs[idx];
        }
        means.push(sum / n as f64);
    }
    means.sort_by(f64::total_cmp);
    let tail = (1.0 - level) / 2.0;
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "tail lies in (0, 0.5), so both bounds lie in [0, resamples] before the clamp to the last index"
    )]
    let (lo_idx, hi_idx) = (
        ((tail * resamples as f64).floor() as usize).min(resamples - 1),
        (((1.0 - tail) * resamples as f64).ceil() as usize)
            .saturating_sub(1)
            .min(resamples - 1),
    );
    Some(ConfidenceInterval {
        mean,
        lo: means[lo_idx],
        hi: means[hi_idx],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn brackets_the_sample_mean() {
        let xs: Vec<f64> = (0..60).map(|i| f64::from(i % 12)).collect();
        let ci = bootstrap_ci_mean(&xs, 500, 0.95, 7).unwrap();
        assert!(ci.lo <= ci.mean && ci.mean <= ci.hi);
        assert!(ci.half_width() > 0.0);
    }

    #[test]
    fn deterministic_in_seed() {
        let xs = [1.0, 5.0, 2.0, 9.0, 3.0, 3.0, 7.0];
        let a = bootstrap_ci_mean(&xs, 300, 0.9, 11).unwrap();
        let b = bootstrap_ci_mean(&xs, 300, 0.9, 11).unwrap();
        assert_eq!(a, b);
        let c = bootstrap_ci_mean(&xs, 300, 0.9, 12).unwrap();
        assert!(
            a.lo != c.lo || a.hi != c.hi,
            "different seeds should perturb the interval"
        );
    }

    #[test]
    fn constant_sample_collapses() {
        let ci = bootstrap_ci_mean(&[4.0; 20], 200, 0.95, 0).unwrap();
        assert_eq!(ci.lo, 4.0);
        assert_eq!(ci.hi, 4.0);
    }

    #[test]
    fn wider_level_wider_interval() {
        let xs: Vec<f64> = (0..40).map(f64::from).collect();
        let narrow = bootstrap_ci_mean(&xs, 800, 0.5, 3).unwrap();
        let wide = bootstrap_ci_mean(&xs, 800, 0.99, 3).unwrap();
        assert!(wide.half_width() >= narrow.half_width());
    }

    #[test]
    fn degenerate_inputs_are_none_not_a_panic() {
        // Regression: these four used to assert.
        assert_eq!(bootstrap_ci_mean(&[], 10, 0.95, 0), None);
        assert_eq!(bootstrap_ci_mean(&[1.0, f64::NAN], 10, 0.95, 0), None);
        assert_eq!(bootstrap_ci_mean(&[1.0], 0, 0.95, 0), None);
        assert_eq!(bootstrap_ci_mean(&[1.0], 10, 1.0, 0), None);
        assert_eq!(bootstrap_ci_mean(&[1.0], 10, 0.0, 0), None);
    }
}
