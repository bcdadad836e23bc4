//! Property tests for the Figure 1 schedule arithmetic.

use distill_core::{DistillParams, DEFAULT_K1, DEFAULT_K2};
use proptest::prelude::*;

#[expect(
    clippy::expect_used,
    reason = "test-only helper; `allow-expect-in-tests` does not reach strategy constructors outside `#[test]` functions"
)]
fn arb_params() -> impl Strategy<Value = DistillParams> {
    (
        1u32..100_000,
        1u32..100_000,
        0.001f64..1.0,
        0.0001f64..1.0,
        1.0f64..64.0,
        1.0f64..512.0,
    )
        .prop_map(|(n, m, alpha, beta, k1, k2)| {
            DistillParams::with_constants(n, m, alpha, beta, k1, k2).expect("in-range inputs")
        })
}

proptest! {
    /// Every phase always runs at least one invocation — the schedule can
    /// never stall.
    #[test]
    fn invocation_counts_are_positive(p in arb_params()) {
        prop_assert!(p.invocations_step11() >= 1);
        prop_assert!(p.invocations_step13() >= 1);
        prop_assert!(p.invocations_step2() >= 1);
        prop_assert!(p.step1_rounds() >= 4);
    }

    /// More honest players (larger α) never lengthen any phase.
    #[test]
    fn counts_monotone_in_alpha(p in arb_params(), bump in 1.01f64..4.0) {
        let better = DistillParams::with_constants(
            p.n, p.m, (p.alpha * bump).min(1.0), p.beta, p.k1, p.k2,
        ).unwrap();
        prop_assert!(better.invocations_step11() <= p.invocations_step11());
        prop_assert!(better.invocations_step13() <= p.invocations_step13());
        prop_assert!(better.invocations_step2() <= p.invocations_step2());
    }

    /// More good objects (larger β) never lengthen Step 1.1.
    #[test]
    fn step11_monotone_in_beta(p in arb_params(), bump in 1.01f64..8.0) {
        let richer = DistillParams::with_constants(
            p.n, p.m, p.alpha, (p.beta * bump).min(1.0), p.k1, p.k2,
        ).unwrap();
        prop_assert!(richer.invocations_step11() <= p.invocations_step11());
    }

    /// The Step 2 survival threshold shrinks as the candidate set grows
    /// (each survivor needs fewer votes when there are more candidates), and
    /// the thresholds match Figure 1 exactly.
    #[test]
    fn thresholds_match_figure_1(p in arb_params(), c in 1usize..10_000) {
        prop_assert!((p.c0_threshold() - p.k2 / 4.0).abs() < 1e-12);
        let t1 = p.survival_threshold(c);
        let t2 = p.survival_threshold(c + 1);
        prop_assert!(t2 < t1);
        prop_assert!((t1 - f64::from(p.n) / (4.0 * c as f64)).abs() < 1e-9);
    }

    /// Figure 1's counts are exact ceilings.
    #[test]
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "the oracle repeats the schedule's saturating float-to-integer ceilings"
    )]
    fn counts_are_exact_ceilings(p in arb_params()) {
        let expect11 = (p.k1 / (p.alpha * p.beta * f64::from(p.n))).ceil().max(1.0) as u64;
        let expect13 = (p.k2 / p.alpha).ceil().max(1.0) as u64;
        let expect2 = (1.0 / p.alpha).ceil().max(1.0) as u64;
        prop_assert_eq!(p.invocations_step11(), expect11);
        prop_assert_eq!(p.invocations_step13(), expect13);
        prop_assert_eq!(p.invocations_step2(), expect2);
    }

    /// High-probability parameters grow with n and never fall below the
    /// practical defaults.
    #[test]
    fn hp_parameters_dominate_defaults(n in 2u32..1_000_000, c in 0.1f64..4.0) {
        let p = DistillParams::high_probability(n, n, 0.5, 0.5, c).unwrap();
        prop_assert!(p.k1 >= DEFAULT_K1);
        prop_assert!(p.k2 >= DEFAULT_K2);
        let bigger = DistillParams::high_probability(n.saturating_mul(4).max(n), n, 0.5, 0.5, c).unwrap();
        prop_assert!(bigger.k1 >= p.k1);
    }
}
