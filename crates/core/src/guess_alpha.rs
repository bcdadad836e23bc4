//! §5.1: guessing α by halving.

use crate::distill::Distill;
use crate::error::CoreError;
use crate::params::DistillParams;
use distill_billboard::BoardView;
use distill_sim::{Cohort, Directive, PhaseInfo};

/// The §5.1 doubling (halving) wrapper: DISTILL without knowing α.
///
/// For `i = 0, 1, 2, … log n`, run the high-probability algorithm
/// (DISTILL^HP, Theorem 11) with `α̂ = 2^{−i}` hard-wired, for exactly
/// `2^i · k₃ · log n · (1/(βn) + 1)` rounds. Once `2^{−i}` drops to the true
/// honest fraction `α₀`, that epoch succeeds with high probability; the only
/// after-effects of earlier epochs are previously-satisfied honest players
/// (helpful) and previously-spent dishonest votes (also helpful). Total time
/// is dominated by the last epoch, i.e. `O(log n/(α₀βn) + log n/α₀)`.
///
/// After the `⌊log₂ n⌋`-th epoch the guess is pinned at `α̂ = 1/n` (every
/// epoch from there is sound), and epochs keep repeating at that setting.
#[derive(Debug)]
pub struct GuessAlpha {
    n: u32,
    m: u32,
    beta: f64,
    k3: f64,
    hp_c: f64,
    epoch: Option<u32>,
    inner: Option<Distill>,
    epoch_rounds_left: u64,
    epochs_started: u64,
    max_epoch: u32,
}

impl GuessAlpha {
    /// Creates the wrapper for `n` players, `m` objects, good fraction
    /// `beta`; `k3` scales the per-epoch round budget and `hp_c` is the
    /// Theorem 11 constant for the inner DISTILL^HP instances.
    ///
    /// # Errors
    /// Returns [`CoreError::InvalidParams`] on out-of-range inputs.
    pub fn new(n: u32, m: u32, beta: f64, k3: f64, hp_c: f64) -> Result<Self, CoreError> {
        // Validate via a throw-away parameter set at α̂ = 1.
        DistillParams::high_probability(n, m, 1.0, beta, hp_c)?;
        if k3.is_nan() || k3 <= 0.0 {
            return Err(CoreError::InvalidParams(format!(
                "k3 {k3} must be positive"
            )));
        }
        #[expect(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "floor(log2(n)) of a u32 lies in [0, 32] and is exact in f64"
        )]
        let max_epoch = (f64::from(n)).log2().floor().max(0.0) as u32;
        Ok(GuessAlpha {
            n,
            m,
            beta,
            k3,
            hp_c,
            epoch: None,
            inner: None,
            epoch_rounds_left: 0,
            epochs_started: 0,
            max_epoch,
        })
    }

    /// The round budget of epoch `i`: `⌈2^i · k₃ · ln n · (1/(βn) + 1)⌉`.
    pub fn epoch_rounds(&self, i: u32) -> u64 {
        let ln_n = f64::from(self.n.max(2)).ln();
        let base = self.k3 * ln_n * (1.0 / (self.beta * f64::from(self.n)) + 1.0);
        #[expect(
            clippy::cast_possible_truncation,
            clippy::cast_possible_wrap,
            clippy::cast_sign_loss,
            reason = "the epoch index is capped at max_epoch ≤ 32 by the §5.1 ladder, far inside i32 range"
        )]
        let rounds = (2f64.powi(i as i32) * base).ceil() as u64;
        rounds.max(2)
    }

    /// The α̂ used in epoch `i`.
    #[expect(
        clippy::cast_possible_wrap,
        reason = "min with max_epoch ≤ 32 keeps the exponent inside i32 range"
    )]
    pub fn alpha_hat(&self, i: u32) -> f64 {
        2f64.powi(-(i.min(self.max_epoch) as i32))
    }

    /// Number of epochs started so far.
    pub fn epochs_started(&self) -> u64 {
        self.epochs_started
    }

    fn next_epoch(&mut self) {
        let next = match self.epoch {
            None => 0,
            Some(i) => (i + 1).min(self.max_epoch),
        };
        self.epoch = Some(next);
        self.epochs_started += 1;
        let alpha_hat = self.alpha_hat(next);
        // α̂ ∈ (0, 1] by construction and the remaining inputs were validated
        // in `new`, so this cannot fail; if the invariant is ever broken the
        // wrapper keeps its previous epoch instead of panicking mid-run.
        match DistillParams::high_probability(self.n, self.m, alpha_hat, self.beta, self.hp_c) {
            Ok(params) => {
                self.inner = Some(Distill::new(params));
                self.epoch_rounds_left = self.epoch_rounds(next);
            }
            Err(_) => {
                debug_assert!(false, "epoch parameters validated at construction");
                self.epoch_rounds_left = self.epoch_rounds(next);
            }
        }
    }
}

impl Cohort for GuessAlpha {
    fn directive(&mut self, view: &BoardView<'_>) -> Directive {
        if self.inner.is_none() || self.epoch_rounds_left == 0 {
            self.next_epoch();
        }
        self.epoch_rounds_left -= 1;
        let Some(inner) = self.inner.as_mut() else {
            debug_assert!(false, "next_epoch always sets an inner cohort");
            return Directive::Idle;
        };
        inner.directive(view)
    }

    fn phase_info(&self) -> PhaseInfo {
        match &self.inner {
            None => PhaseInfo::plain("guess-alpha.init"),
            Some(inner) => inner.phase_info(),
        }
    }

    fn name(&self) -> &'static str {
        "guess-alpha"
    }

    fn notes(&self) -> Vec<(String, f64)> {
        let mut notes = vec![
            ("guess_alpha.epochs".into(), self.epochs_started as f64),
            (
                "guess_alpha.alpha_hat".into(),
                self.epoch.map_or(1.0, |i| self.alpha_hat(i)),
            ),
        ];
        if let Some(inner) = &self.inner {
            notes.extend(inner.notes());
        }
        notes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distill_billboard::{Billboard, Round, VotePolicy, VoteTracker};

    #[test]
    fn construction_validates() {
        assert!(GuessAlpha::new(16, 16, 1.0 / 16.0, 1.0, 1.0).is_ok());
        assert!(GuessAlpha::new(0, 16, 0.5, 1.0, 1.0).is_err());
        assert!(GuessAlpha::new(16, 16, 0.0, 1.0, 1.0).is_err());
        assert!(GuessAlpha::new(16, 16, 0.5, 0.0, 1.0).is_err());
    }

    #[test]
    fn epoch_budgets_double() {
        let g = GuessAlpha::new(64, 64, 1.0 / 64.0, 1.0, 1.0).unwrap();
        let r0 = g.epoch_rounds(0);
        let r1 = g.epoch_rounds(1);
        let r3 = g.epoch_rounds(3);
        assert!(
            r1 >= 2 * r0 - 1,
            "epoch budgets roughly double: {r0} -> {r1}"
        );
        assert!(r3 >= 4 * r1 - 3);
    }

    #[test]
    fn alpha_hat_halves_and_clamps() {
        let g = GuessAlpha::new(16, 16, 1.0 / 16.0, 1.0, 1.0).unwrap();
        assert_eq!(g.alpha_hat(0), 1.0);
        assert_eq!(g.alpha_hat(1), 0.5);
        assert_eq!(g.alpha_hat(2), 0.25);
        // max epoch = log2(16) = 4 ⇒ α̂ bottoms out at 1/16
        assert_eq!(g.alpha_hat(4), 1.0 / 16.0);
        assert_eq!(g.alpha_hat(99), 1.0 / 16.0);
    }

    #[test]
    fn epochs_advance_after_budget() {
        let mut g = GuessAlpha::new(16, 16, 1.0 / 16.0, 1.0, 1.0).unwrap();
        let board = Billboard::new(16, 16);
        let mut tracker = VoteTracker::new(16, 16, VotePolicy::single_vote());
        tracker.ingest(&board);
        let e0 = g.epoch_rounds(0);
        for r in 0..e0 {
            let view = BoardView::new(&board, &tracker, Round(r));
            let _ = g.directive(&view);
            assert_eq!(g.epochs_started(), 1, "round {r} still in epoch 0");
        }
        let view = BoardView::new(&board, &tracker, Round(e0));
        let _ = g.directive(&view);
        assert_eq!(g.epochs_started(), 2);
        let notes = g.notes();
        assert!(notes
            .iter()
            .any(|(k, v)| k == "guess_alpha.alpha_hat" && (*v - 0.5).abs() < 1e-12));
        assert_eq!(g.name(), "guess-alpha");
        assert!(g.phase_info().label.starts_with("distill"));
    }
}
