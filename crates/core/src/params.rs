//! DISTILL parameters and the schedule arithmetic of Figure 1.

use crate::error::CoreError;

/// The parameters of Algorithm DISTILL (Figure 1).
///
/// * `n`, `m` — players and objects;
/// * `alpha` — the (assumed) fraction of honest players. The base algorithm
///   requires knowing α (§1.3); the §5.1 halving wrapper
///   ([`GuessAlpha`](crate::GuessAlpha)) removes this;
/// * `beta` — the (assumed) fraction of good objects;
/// * `k1`, `k2` — the repetition constants of Steps 1.1 and 1.3. The paper's
///   proof uses `k₁ ≥ 1`, `k₂ ≥ 192` to make each ATTEMPT succeed with
///   probability ≥ 4/5 (Theorem 4); far smaller constants work well in
///   practice, and the high-probability variant (Theorem 11) sets both to
///   `Θ(log n)`.
///
/// ```
/// use distill_core::DistillParams;
/// # fn main() -> Result<(), distill_core::CoreError> {
/// let p = DistillParams::new(1000, 1000, 0.9, 0.001)?;
/// assert_eq!(p.invocations_step11(), 2);   // ⌈k₁ / (α β n)⌉ = ⌈1 / 0.9⌉
/// assert_eq!(p.invocations_step2(), 2);    // ⌈1 / α⌉
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistillParams {
    /// Number of players `n`.
    pub n: u32,
    /// Number of objects `m`.
    pub m: u32,
    /// Assumed honest fraction `α ∈ (0, 1]`.
    pub alpha: f64,
    /// Assumed good-object fraction `β ∈ (0, 1]`.
    pub beta: f64,
    /// Step 1.1 repetition constant `k₁ ≥ 1`.
    pub k1: f64,
    /// Step 1.3 repetition constant `k₂ ≥ 1`.
    pub k2: f64,
}

/// Practical default for `k₁` (the paper's proof wants `k₁ ≥ 1`).
pub const DEFAULT_K1: f64 = 1.0;
/// Practical default for `k₂`. The paper's proof uses `k₂ ≥ 192` to make
/// its Chernoff constants work out; empirically each ATTEMPT already
/// succeeds with high probability at `k₂ = 4` for experimental sizes, and
/// the smaller constant keeps DISTILL's (constant) schedule short enough
/// that the crossover against the `Θ(log n)` baseline is visible at
/// laptop-scale `n`.
pub const DEFAULT_K2: f64 = 4.0;

impl DistillParams {
    /// Parameters with the practical default constants
    /// [`DEFAULT_K1`]/[`DEFAULT_K2`].
    ///
    /// # Errors
    /// Returns [`CoreError::InvalidParams`] if `n` or `m` is zero or `alpha`
    /// or `beta` is outside `(0, 1]`.
    pub fn new(n: u32, m: u32, alpha: f64, beta: f64) -> Result<Self, CoreError> {
        Self::with_constants(n, m, alpha, beta, DEFAULT_K1, DEFAULT_K2)
    }

    /// Parameters with explicit `k₁`, `k₂`.
    ///
    /// # Errors
    /// Returns [`CoreError::InvalidParams`] on out-of-range inputs
    /// (`k₁, k₂ ≥ 1` required).
    pub fn with_constants(
        n: u32,
        m: u32,
        alpha: f64,
        beta: f64,
        k1: f64,
        k2: f64,
    ) -> Result<Self, CoreError> {
        if n == 0 || m == 0 {
            return Err(CoreError::InvalidParams(format!(
                "n={n} and m={m} must be positive"
            )));
        }
        if !(0.0 < alpha && alpha <= 1.0 && alpha.is_finite()) {
            return Err(CoreError::InvalidParams(format!(
                "alpha {alpha} out of (0, 1]"
            )));
        }
        if !(0.0 < beta && beta <= 1.0 && beta.is_finite()) {
            return Err(CoreError::InvalidParams(format!(
                "beta {beta} out of (0, 1]"
            )));
        }
        if !(k1 >= 1.0 && k2 >= 1.0) {
            return Err(CoreError::InvalidParams(format!(
                "k1={k1}, k2={k2} must both be at least 1"
            )));
        }
        Ok(DistillParams {
            n,
            m,
            alpha,
            beta,
            k1,
            k2,
        })
    }

    /// The **high-probability** parameters of Theorem 11:
    /// `k₁ = k₂ = ⌈c·ln n⌉` (at least the practical defaults).
    ///
    /// # Errors
    /// Returns [`CoreError::InvalidParams`] on out-of-range inputs.
    pub fn high_probability(
        n: u32,
        m: u32,
        alpha: f64,
        beta: f64,
        c: f64,
    ) -> Result<Self, CoreError> {
        if c.is_nan() || c <= 0.0 {
            return Err(CoreError::InvalidParams(format!(
                "hp constant c={c} must be positive"
            )));
        }
        let k = (c * f64::from(n.max(2)).ln()).ceil();
        Self::with_constants(n, m, alpha, beta, k.max(DEFAULT_K1), k.max(DEFAULT_K2))
    }

    /// Number of `PROBE&SEEKADVICE` invocations in Step 1.1:
    /// `⌈k₁ / (α β n)⌉`, at least 1. Each invocation is two rounds.
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "validated parameters make the ratio positive; `as` saturates, so a huge count clamps to u64::MAX"
    )]
    pub fn invocations_step11(&self) -> u64 {
        ((self.k1 / (self.alpha * self.beta * f64::from(self.n))).ceil() as u64).max(1)
    }

    /// Number of invocations in Step 1.3: `⌈k₂ / α⌉`, at least 1.
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "validated parameters make the ratio positive; `as` saturates, so a huge count clamps to u64::MAX"
    )]
    pub fn invocations_step13(&self) -> u64 {
        ((self.k2 / self.alpha).ceil() as u64).max(1)
    }

    /// Number of invocations per Step 2 iteration: `⌈1 / α⌉`, at least 1.
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "validated parameters make the ratio positive; `as` saturates, so a huge count clamps to u64::MAX"
    )]
    pub fn invocations_step2(&self) -> u64 {
        ((1.0 / self.alpha).ceil() as u64).max(1)
    }

    /// The Step 1.4 admission threshold: an object joins `C₀` iff it got at
    /// least `k₂/4` votes during Step 1.3.
    pub fn c0_threshold(&self) -> f64 {
        self.k2 / 4.0
    }

    /// The Step 2.2 survival threshold for a candidate set of size `c_t`: an
    /// object survives iff it received **more than** `n / (4·c_t)` votes in
    /// iteration `t`.
    ///
    /// # Panics
    /// Panics if `c_t == 0` (the while loop never runs on an empty set).
    pub fn survival_threshold(&self, c_t: usize) -> f64 {
        assert!(
            c_t > 0,
            "survival threshold undefined for empty candidate set"
        );
        f64::from(self.n) / (4.0 * c_t as f64)
    }

    /// Rounds for one full pass of Step 1 (Steps 1.1 + 1.3), two rounds per
    /// invocation.
    pub fn step1_rounds(&self) -> u64 {
        2 * (self.invocations_step11() + self.invocations_step13())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(DistillParams::new(0, 10, 0.5, 0.1).is_err());
        assert!(DistillParams::new(10, 0, 0.5, 0.1).is_err());
        assert!(DistillParams::new(10, 10, 0.0, 0.1).is_err());
        assert!(DistillParams::new(10, 10, 1.5, 0.1).is_err());
        assert!(DistillParams::new(10, 10, 0.5, 0.0).is_err());
        assert!(DistillParams::new(10, 10, 0.5, 1.01).is_err());
        assert!(DistillParams::with_constants(10, 10, 0.5, 0.1, 0.5, 8.0).is_err());
        assert!(DistillParams::with_constants(10, 10, 0.5, 0.1, 2.0, 0.0).is_err());
        assert!(DistillParams::new(10, 10, 1.0, 1.0).is_ok());
        assert!(DistillParams::high_probability(10, 10, 0.5, 0.1, 0.0).is_err());
    }

    #[test]
    fn invocation_counts_match_figure_1() {
        // m = n = 1000, β = 1/n (single good object), α = 1/2:
        let p = DistillParams::with_constants(1000, 1000, 0.5, 0.001, 2.0, 8.0).unwrap();
        // k1/(αβn) = 2 / (0.5 · 1) = 4
        assert_eq!(p.invocations_step11(), 4);
        // k2/α = 16
        assert_eq!(p.invocations_step13(), 16);
        // 1/α = 2
        assert_eq!(p.invocations_step2(), 2);
        assert_eq!(p.step1_rounds(), 2 * (4 + 16));
        assert_eq!(p.c0_threshold(), 2.0);
        assert_eq!(p.survival_threshold(10), 25.0);
    }

    #[test]
    fn counts_never_drop_below_one() {
        // β n huge ⇒ step 1.1 would be < 1 invocation; clamp to 1.
        let p = DistillParams::new(1_000_000, 1_000_000, 1.0, 1.0).unwrap();
        assert_eq!(p.invocations_step11(), 1);
        assert_eq!(p.invocations_step13() as f64, DEFAULT_K2.ceil());
        assert_eq!(p.invocations_step2(), 1);
    }

    #[test]
    fn hp_parameters_scale_with_log_n() {
        let p = DistillParams::high_probability(1024, 1024, 0.5, 0.001, 1.0).unwrap();
        let expected = (f64::from(1024u32).ln()).ceil(); // ≈ 7
        assert_eq!(p.k1, expected.max(DEFAULT_K1));
        assert_eq!(p.k2, expected.max(DEFAULT_K2));
        let p_big = DistillParams::high_probability(1 << 20, 1 << 20, 0.5, 1e-6, 1.0).unwrap();
        assert!(p_big.k2 > p.k2);
    }

    #[test]
    #[should_panic(expected = "empty candidate set")]
    fn survival_threshold_rejects_empty() {
        let p = DistillParams::new(10, 10, 0.5, 0.1).unwrap();
        let _ = p.survival_threshold(0);
    }
}
