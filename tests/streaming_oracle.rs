//! Streaming aggregation vs the exact batch oracles: `RunningMoments` must
//! agree with [`Summary::of`] to floating-point tolerance on arbitrary
//! finite samples, and `GkSketch` quantiles must respect the Greenwald–
//! Khanna rank-error bound `ε·n` against the exact sorted sample — at a
//! sketch size that stays bounded while `n` grows, which is the whole point
//! of streaming sweeps.

use distill_analysis::{GkSketch, RunningMoments, StreamingSummary, Summary};
use proptest::prelude::*;

/// Rank of `v` in `sorted` as the closest-permissible 1-based position:
/// any index whose element equals `v` counts, so ties never inflate the
/// reported error.
fn rank_error(sorted: &[f64], v: f64, target: f64) -> f64 {
    let below = sorted.partition_point(|x| x.total_cmp(&v).is_lt());
    let through = sorted.partition_point(|x| x.total_cmp(&v).is_le());
    let lo = (below + 1) as f64;
    let hi = through.max(below + 1) as f64;
    if target < lo {
        lo - target
    } else if target > hi {
        target - hi
    } else {
        0.0
    }
}

fn check_sketch(values: &[f64], epsilon: f64) -> Result<(), TestCaseError> {
    let mut sketch = GkSketch::new(epsilon);
    for &v in values {
        sketch.push(v);
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = values.len() as f64;
    for q in [0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
        let est = sketch.quantile(q).expect("non-empty sketch");
        let target = 1.0 + q * (n - 1.0);
        let err = rank_error(&sorted, est, target);
        prop_assert!(
            err <= epsilon * n + 1.0,
            "q={q}: rank error {err} exceeds eps*n+1 = {} (n={n})",
            epsilon * n + 1.0
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Welford/Chan moments match the exact two-pass `Summary::of` on any
    /// finite sample: same count, and mean/std-dev/min/max within a
    /// floating-point tolerance scaled to the sample's magnitude.
    #[test]
    fn moments_match_the_exact_summary(
        values in proptest::collection::vec(-1e6f64..1e6, 1..300)
    ) {
        let mut moments = RunningMoments::new();
        for &v in &values {
            moments.push(v);
        }
        let exact = Summary::of(&values).expect("finite non-empty sample");
        prop_assert_eq!(moments.count(), values.len() as u64);
        let scale = 1.0 + values.iter().fold(0.0f64, |a, v| a.max(v.abs()));
        prop_assert!((moments.mean().unwrap() - exact.mean).abs() <= 1e-9 * scale);
        prop_assert!(
            (moments.std_dev().unwrap_or(0.0) - exact.std_dev).abs() <= 1e-7 * scale
        );
        prop_assert_eq!(moments.min().unwrap(), exact.min);
        prop_assert_eq!(moments.max().unwrap(), exact.max);
    }

    /// Splitting a stream at an arbitrary point and merging the two halves'
    /// moments is the same as one long stream, so per-worker partial
    /// aggregates can be combined by the coordinator.
    #[test]
    fn merged_moments_equal_the_unsplit_stream(
        values in proptest::collection::vec(-1e4f64..1e4, 2..200),
        cut in any::<usize>(),
    ) {
        let cut = cut % (values.len() + 1);
        let mut left = RunningMoments::new();
        let mut right = RunningMoments::new();
        for &v in &values[..cut] {
            left.push(v);
        }
        for &v in &values[cut..] {
            right.push(v);
        }
        left.merge(&right);
        let mut whole = RunningMoments::new();
        for &v in &values {
            whole.push(v);
        }
        prop_assert_eq!(left.count(), whole.count());
        let scale = 1.0 + values.iter().fold(0.0f64, |a, v| a.max(v.abs()));
        prop_assert!((left.mean().unwrap() - whole.mean().unwrap()).abs() <= 1e-9 * scale);
        prop_assert!(
            (left.std_dev().unwrap_or(0.0) - whole.std_dev().unwrap_or(0.0)).abs()
                <= 1e-7 * scale
        );
    }

    /// The GK sketch honours its ε rank-error contract on arbitrary finite
    /// samples, including heavy duplication and adversarial orderings.
    #[test]
    fn sketch_quantiles_respect_the_rank_bound(
        values in proptest::collection::vec(-1e3f64..1e3, 1..400),
        epsilon in 0.005f64..0.1,
    ) {
        check_sketch(&values, epsilon)?;
    }

    /// `StreamingSummary` agrees with `Summary::of` end to end: exact
    /// moments and a median within the sketch's rank-error window.
    #[test]
    fn streaming_summary_matches_the_batch_summary(
        values in proptest::collection::vec(-1e4f64..1e4, 2..300)
    ) {
        let mut streaming = StreamingSummary::new(0.01);
        for &v in &values {
            streaming.push(v);
        }
        let got = streaming.summary().expect("finite stream");
        let exact = Summary::of(&values).expect("finite non-empty sample");
        prop_assert_eq!(got.count, exact.count);
        let scale = 1.0 + values.iter().fold(0.0f64, |a, v| a.max(v.abs()));
        prop_assert!((got.mean - exact.mean).abs() <= 1e-9 * scale);
        prop_assert_eq!(got.min, exact.min);
        prop_assert_eq!(got.max, exact.max);
        let mut sorted = values.clone();
        sorted.sort_by(f64::total_cmp);
        let n = values.len() as f64;
        let err = rank_error(&sorted, got.median, 1.0 + 0.5 * (n - 1.0));
        prop_assert!(err <= 0.01 * n + 1.0, "median rank error {err} (n={n})");
    }
}

/// The acceptance-scale check: 10^5 values through the sweep-facing
/// ε = 0.005 sketch. Quantiles stay within the rank bound, moments match
/// the exact batch summary, and the sketch holds a bounded number of
/// tuples — O(1) memory evidence where a retained sweep would hold all
/// 10^5 results.
#[test]
fn hundred_thousand_trials_stream_within_bounds_at_bounded_size() {
    const N: usize = 100_000;
    const EPSILON: f64 = 0.005;
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut values = Vec::with_capacity(N);
    let mut streaming = StreamingSummary::new(EPSILON);
    let mut sketch = GkSketch::new(EPSILON);
    for _ in 0..N {
        // xorshift64* — deterministic, long-period, uneven (squared) scale.
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        let u = (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64;
        let v = u * u * 1_000.0;
        values.push(v);
        streaming.push(v);
        sketch.push(v);
    }

    let exact = Summary::of(&values).expect("finite sample");
    let got = streaming.summary().expect("finite stream");
    assert_eq!(got.count, N);
    assert!((got.mean - exact.mean).abs() <= 1e-6);
    assert!((got.std_dev - exact.std_dev).abs() <= 1e-6);
    assert_eq!(got.min, exact.min);
    assert_eq!(got.max, exact.max);

    let mut sorted = values;
    sorted.sort_by(f64::total_cmp);
    let n = N as f64;
    for q in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999] {
        let est = sketch.quantile(q).expect("non-empty");
        let err = rank_error(&sorted, est, 1.0 + q * (n - 1.0));
        assert!(
            err <= EPSILON * n + 1.0,
            "q={q}: rank error {err} > {}",
            EPSILON * n + 1.0
        );
    }
    // GK guarantees O((1/ε)·log(εn)) tuples; at ε=0.005, n=10^5 that is a
    // few hundred — far below n. A loose ceiling still proves boundedness.
    assert!(
        sketch.entries_len() < 4_000,
        "sketch grew to {} tuples on {N} inserts",
        sketch.entries_len()
    );
}

/// The same property through the harness: an unretained `run_sweep_with`
/// fold aggregates 2·10^4 trials into a `StreamingSummary` that matches the
/// retained sweep's exact batch summary — the sweep never needs the full
/// result vector.
#[test]
fn unretained_sweep_fold_matches_the_retained_summary() {
    use distill_harness::{run_sweep, run_sweep_with, SweepConfig, TrialSpec};
    use std::sync::Arc;

    struct SynthSpec;
    impl TrialSpec for SynthSpec {
        fn run_trial(&self, trial: u64) -> distill_sim::SimResult {
            let h = trial.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
            distill_sim::SimResult {
                rounds: (h % 97) + 1,
                all_satisfied: true,
                players: vec![],
                satisfied_per_round: vec![],
                posts_total: 0,
                forged_rejected: 0,
                notes: vec![],
                final_eval: None,
                faults: distill_sim::FaultCounters {
                    posts_dropped: 0,
                    crashes: 0,
                    recoveries: 0,
                },
                trace: None,
            }
        }
        fn seed(&self, trial: u64) -> u64 {
            trial
        }
        fn describe(&self) -> String {
            "streaming-oracle synth v1".into()
        }
    }

    const TRIALS: u64 = 20_000;
    let retained = run_sweep(Arc::new(SynthSpec), &SweepConfig::new(TRIALS)).unwrap();
    let costs: Vec<f64> = retained
        .results
        .iter()
        .map(|(_, r)| r.rounds as f64)
        .collect();
    let exact = Summary::of(&costs).expect("finite costs");

    let mut streaming = StreamingSummary::new(0.005);
    let mut fold = |_trial: u64, r: &distill_sim::SimResult| {
        streaming.push(r.rounds as f64);
    };
    let config = SweepConfig {
        retain_results: false,
        ..SweepConfig::new(TRIALS)
    };
    let report = run_sweep_with(Arc::new(SynthSpec), &config, Some(&mut fold)).unwrap();
    assert!(
        report.results.is_empty(),
        "unretained sweeps must not accumulate results"
    );
    assert_eq!(report.completed, TRIALS);

    let got = streaming.summary().expect("finite stream");
    assert_eq!(got.count, exact.count);
    assert!((got.mean - exact.mean).abs() <= 1e-9 * (1.0 + exact.mean.abs()));
    assert!((got.std_dev - exact.std_dev).abs() <= 1e-7);
    assert_eq!(got.min, exact.min);
    assert_eq!(got.max, exact.max);
    let mut sorted = costs;
    sorted.sort_by(f64::total_cmp);
    let n = TRIALS as f64;
    let err = rank_error(&sorted, got.median, 1.0 + 0.5 * (n - 1.0));
    assert!(err <= 0.005 * n + 1.0, "median rank error {err}");
}
