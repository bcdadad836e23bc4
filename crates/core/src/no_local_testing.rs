//! §5.3 / Theorem 13: search **without** local testing.

use crate::distill::Distill;
use crate::error::CoreError;
use crate::params::DistillParams;

/// The prescribed horizon for a no-local-testing run:
/// `⌈k₃ · (ln n/(αβn) + ln n/α)⌉` rounds (the Theorem 13 bound).
///
/// Without local testing no player can detect success, so everyone stops at
/// a prescribed time (which depends on `β`, assumed to be part of the input
/// in this case); with high probability all honest players have probed a
/// good (top-`β`) object by then.
///
/// ```
/// use distill_core::no_local_testing::prescribed_horizon;
/// let r = prescribed_horizon(1024, 0.9, 0.01, 4.0);
/// assert!(r > 0);
/// ```
pub fn prescribed_horizon(n: u32, alpha: f64, beta: f64, k3: f64) -> u64 {
    let ln_n = f64::from(n.max(2)).ln();
    let rounds = k3 * (ln_n / (alpha * beta * f64::from(n)) + ln_n / alpha);
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "rounds is positive for valid inputs; `as` saturates, so a huge horizon clamps to u64::MAX"
    )]
    let rounds = rounds.ceil() as u64;
    rounds.max(1)
}

/// The cohort for Theorem 13: DISTILL^HP run unchanged, with the *vote*
/// reinterpreted as each player's highest-value probed object so far (the
/// [`VotePolicy::best_value`](distill_billboard::VotePolicy::best_value)
/// reader policy). The schedule logic of Figure 1 — the voted set `S`, the
/// thresholds, the refinement loop — applies verbatim to the reinterpreted
/// votes, which is exactly the paper's "straightforward tweak".
///
/// Pair this cohort with a [`StopRule::Horizon`](distill_sim::StopRule) of
/// [`prescribed_horizon`] rounds and a top-β world.
///
/// # Errors
/// Returns [`CoreError::InvalidParams`] on out-of-range parameters.
pub fn cohort(n: u32, m: u32, alpha: f64, beta: f64, hp_c: f64) -> Result<Distill, CoreError> {
    let params = DistillParams::high_probability(n, m, alpha, beta, hp_c)?;
    Ok(Distill::new(params))
}

/// The **best-object search** of §2.2/§5: find the maximum-value object when
/// the maximum is not known in advance — "a search algorithm without local
/// testing must be applied, using β = 1/m". Returns the cohort plus the
/// prescribed horizon for that β.
///
/// # Errors
/// Returns [`CoreError::InvalidParams`] on out-of-range parameters.
pub fn best_object_search(
    n: u32,
    m: u32,
    alpha: f64,
    hp_c: f64,
    k3: f64,
) -> Result<(Distill, u64), CoreError> {
    if m == 0 {
        return Err(CoreError::InvalidParams("m must be positive".into()));
    }
    let beta = 1.0 / f64::from(m);
    let cohort = self::cohort(n, m, alpha, beta, hp_c)?;
    Ok((cohort, prescribed_horizon(n, alpha, beta, k3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_object_uses_beta_one_over_m() {
        let (cohort, horizon) = best_object_search(256, 512, 0.75, 0.5, 6.0).unwrap();
        assert!((cohort.params().beta - 1.0 / 512.0).abs() < 1e-12);
        assert_eq!(horizon, prescribed_horizon(256, 0.75, 1.0 / 512.0, 6.0));
        assert!(best_object_search(0, 512, 0.75, 0.5, 6.0).is_err());
    }

    #[test]
    fn horizon_is_positive_and_monotone() {
        let base = prescribed_horizon(1024, 0.9, 0.01, 4.0);
        assert!(base >= 1);
        // lower alpha ⇒ longer horizon
        assert!(prescribed_horizon(1024, 0.45, 0.01, 4.0) > base);
        // lower beta ⇒ longer horizon
        assert!(prescribed_horizon(1024, 0.9, 0.0001, 4.0) > base);
        // bigger k3 ⇒ longer horizon
        assert!(prescribed_horizon(1024, 0.9, 0.01, 8.0) > base);
        // degenerate n is clamped, not panicking
        assert!(prescribed_horizon(1, 1.0, 1.0, 1.0) >= 1);
    }

    #[test]
    fn cohort_is_hp_distill() {
        let c = cohort(256, 256, 0.5, 1.0 / 256.0, 1.5).unwrap();
        let expect_k = (1.5 * f64::from(256u32).ln()).ceil();
        assert_eq!(c.params().k2, expect_k.max(crate::params::DEFAULT_K2));
        assert!(cohort(0, 256, 0.5, 0.1, 1.5).is_err());
    }
}
