//! Mean-field (deterministic large-`n`) dynamics of the baseline algorithms.
//!
//! For the two billboard strategies with no phase structure — random probing
//! and the balance rule — the satisfied fraction `s_t` evolves by a simple
//! recurrence when every player is honest:
//!
//! * **random probing**: each active player hits a good object w.p. `β`, so
//!   `s_{t+1} = s_t + (1−s_t)·β` (closed form `1 − (1−β)^{t+1}`);
//! * **balance** (explore w.p. `e`, else follow a uniformly random player's
//!   vote): a followed player holds a (good) vote w.p. `s_t`, and an
//!   adviceless pick falls back to exploration, so the per-step hit
//!   probability is `p_t = e·β + (1−e)·(s_t + (1−s_t)·β)` and
//!   `s_{t+1} = s_t + (1−s_t)·p_t`.
//!
//! The balance recurrence exhibits exactly the epidemic doubling the paper
//! invokes at the end of §3: `s` grows geometrically until it saturates, so
//! the expected individual cost `Σ_t (1−s_t)` is `Θ(log n)`-flavored when
//! `β = 1/n`. These curves cross-validate the simulator (see
//! `tests/meanfield_validation.rs`): a disagreement between the recurrence
//! and the measured satisfaction curve would indicate an engine bug.

/// The satisfied-fraction trajectory `s_0 = 0, s_1, …, s_T` for random
/// probing.
///
/// # Panics
/// Panics unless `0 < beta ≤ 1`.
pub fn random_probing_curve(beta: f64, rounds: usize) -> Vec<f64> {
    assert!(0.0 < beta && beta <= 1.0, "beta {beta} out of (0, 1]");
    let mut curve = Vec::with_capacity(rounds + 1);
    let mut s = 0.0f64;
    curve.push(s);
    for _ in 0..rounds {
        s += (1.0 - s) * beta;
        curve.push(s);
    }
    curve
}

/// The satisfied-fraction trajectory for the balance rule with exploration
/// probability `explore`.
///
/// # Panics
/// Panics unless `0 < beta ≤ 1` and `0 ≤ explore ≤ 1`.
pub fn balance_curve(beta: f64, explore: f64, rounds: usize) -> Vec<f64> {
    assert!(0.0 < beta && beta <= 1.0, "beta {beta} out of (0, 1]");
    assert!(
        (0.0..=1.0).contains(&explore),
        "explore {explore} out of [0, 1]"
    );
    let mut curve = Vec::with_capacity(rounds + 1);
    let mut s = 0.0f64;
    curve.push(s);
    for _ in 0..rounds {
        let p = explore * beta + (1.0 - explore) * (s + (1.0 - s) * beta);
        s += (1.0 - s) * p;
        curve.push(s);
    }
    curve
}

/// Expected individual cost implied by a trajectory: each player stays
/// active with probability `1 − s_t`, probing once per active round, so the
/// expectation is `Σ_t (1 − s_t)` (truncated at the trajectory's horizon).
pub fn expected_individual_cost(curve: &[f64]) -> f64 {
    curve.iter().map(|&s| 1.0 - s).sum()
}

/// The first round at which the trajectory reaches fraction `q`, if it does.
///
/// # Panics
/// Panics unless `0 ≤ q ≤ 1`.
pub fn rounds_to_fraction(curve: &[f64], q: f64) -> Option<usize> {
    assert!((0.0..=1.0).contains(&q), "fraction {q} out of [0, 1]");
    curve.iter().position(|&s| s >= q)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_probing_matches_closed_form() {
        let beta = 0.05;
        let curve = random_probing_curve(beta, 50);
        for (t, &s) in curve.iter().enumerate() {
            let expect = 1.0 - (1.0 - beta).powi(i32::try_from(t).unwrap());
            assert!((s - expect).abs() < 1e-12, "round {t}: {s} vs {expect}");
        }
        // expected cost ≈ 1/beta for a long enough horizon
        let cost = expected_individual_cost(&random_probing_curve(beta, 2_000));
        assert!((cost - 1.0 / beta).abs() < 0.5, "cost {cost} ≈ 1/beta");
    }

    #[test]
    fn curves_are_monotone_and_bounded() {
        for curve in [
            random_probing_curve(0.01, 200),
            balance_curve(0.01, 0.5, 200),
            balance_curve(1.0 / 1024.0, 0.5, 400),
        ] {
            assert!(curve.windows(2).all(|w| w[0] <= w[1] + 1e-15));
            assert!(curve.iter().all(|&s| (0.0..=1.0).contains(&s)));
        }
    }

    #[test]
    fn balance_beats_random_probing() {
        let beta = 1.0 / 1024.0;
        let random = expected_individual_cost(&random_probing_curve(beta, 20_000));
        let balance = expected_individual_cost(&balance_curve(beta, 0.5, 20_000));
        assert!(
            balance < random / 20.0,
            "epidemic spreading must crush 1/beta: {balance} vs {random}"
        );
    }

    #[test]
    fn balance_cost_is_log_flavored() {
        // with beta = 1/n, the mean-field balance cost should grow like log n
        let cost_at = |n: f64| expected_individual_cost(&balance_curve(1.0 / n, 0.5, 100_000));
        let c1 = cost_at(1024.0);
        let c2 = cost_at(1024.0 * 1024.0);
        // doubling log n should roughly double the cost (within generous slack)
        assert!(c2 > 1.5 * c1 && c2 < 3.0 * c1, "c1={c1}, c2={c2}");
    }

    #[test]
    fn rounds_to_fraction_finds_thresholds() {
        let curve = balance_curve(0.01, 0.5, 2_000);
        let half = rounds_to_fraction(&curve, 0.5).expect("reaches half");
        let most = rounds_to_fraction(&curve, 0.99).expect("reaches 99%");
        assert!(half < most);
        assert_eq!(rounds_to_fraction(&curve, 0.0), Some(0));
        let short = balance_curve(0.0001, 0.5, 3);
        assert_eq!(rounds_to_fraction(&short, 0.99), None);
    }

    #[test]
    #[should_panic(expected = "out of (0, 1]")]
    fn beta_validated() {
        let _ = random_probing_curve(0.0, 10);
    }
}
