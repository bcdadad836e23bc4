//! The Equation-1 budget-optimal adaptive attack.

use distill_billboard::{ObjectId, Round};
use distill_sim::{Adversary, AdversaryCtx, DishonestPost};

/// The canonical adaptive attack against DISTILL's candidate refinement.
///
/// Lemma 7's accounting (Equation 1) charges the adversary `⌈n/(4·c_{t−1})⌉`
/// fresh votes per bad object kept alive per iteration, against a total
/// budget of `(1−α)n` votes. `ThresholdMatcher` spends that budget with
/// maximal efficiency: whenever the public phase enters a new tally window
/// with a survival threshold (Step 1.3's `k₂/4` admission to `C₀`, or Step
/// 2's `n/(4·c_t)`), it immediately posts *just enough* fresh votes —
/// threshold-matching, hence the name — for as many bad candidates as the
/// remaining budget covers.
///
/// This is exactly the extremal behaviour the upper-bound proof budgets for,
/// so it is the right adversary for measuring Theorem 4's worst-case shape
/// and Lemma 7's iteration count.
#[derive(Debug, Clone)]
pub struct ThresholdMatcher {
    /// Fraction of currently-fresh voters the matcher is willing to spend in
    /// a single window (1.0 = everything, the default).
    aggressiveness: f64,
    /// Fraction of the *initial* budget seeded as distinct bad votes during
    /// the first Step 1.1 window, polluting the voted set `S` before it is
    /// frozen at Step 1.2.
    seed_fraction: f64,
    seeded: bool,
    last_window: Option<(&'static str, Round)>,
}

impl ThresholdMatcher {
    /// A matcher that spends its whole remaining budget whenever useful,
    /// seeding half of it into `S` up front.
    pub fn new() -> Self {
        Self::with_tuning(1.0, 0.5)
    }

    /// A matcher spending at most a fraction of its fresh voters per window
    /// (for pacing ablations). No up-front seeding.
    ///
    /// # Panics
    /// Panics unless `0 < aggressiveness ≤ 1`.
    pub fn with_aggressiveness(aggressiveness: f64) -> Self {
        Self::with_tuning(aggressiveness, 0.0)
    }

    /// Full tuning: per-window spend fraction and up-front `S`-seeding
    /// fraction.
    ///
    /// # Panics
    /// Panics unless `0 < aggressiveness ≤ 1` and `0 ≤ seed_fraction ≤ 1`.
    pub fn with_tuning(aggressiveness: f64, seed_fraction: f64) -> Self {
        assert!(
            0.0 < aggressiveness && aggressiveness <= 1.0,
            "aggressiveness {aggressiveness} out of (0, 1]"
        );
        assert!(
            (0.0..=1.0).contains(&seed_fraction),
            "seed_fraction {seed_fraction} out of [0, 1]"
        );
        ThresholdMatcher {
            aggressiveness,
            seed_fraction,
            seeded: false,
            last_window: None,
        }
    }
}

impl Default for ThresholdMatcher {
    fn default() -> Self {
        ThresholdMatcher::new()
    }
}

impl Adversary for ThresholdMatcher {
    fn on_round(&mut self, ctx: &mut AdversaryCtx<'_, '_>) -> Vec<DishonestPost> {
        // Per-player remaining vote budgets under the reader policy (the
        // only currency the honest readers will honor).
        let f_cap = ctx.view.tracker().policy().votes_per_player;
        let mut remaining: Vec<(distill_billboard::PlayerId, usize)> = ctx
            .dishonest
            .iter()
            .map(|&p| (p, f_cap.saturating_sub(ctx.view.votes_of(p).len())))
            .filter(|&(_, r)| r > 0)
            .collect();
        let total_budget: usize = remaining.iter().map(|&(_, r)| r).sum();
        if total_budget == 0 {
            return Vec::new();
        }

        let Some(threshold) = ctx.phase.survival_threshold else {
            // An un-thresholded window: Step 1.1. Seed distinct bad votes
            // once so the voted set S of Step 1.2 is polluted before the
            // honest readers freeze it.
            if !self.seeded && self.seed_fraction > 0.0 && ctx.phase.label == "distill.step1.1" {
                self.seeded = true;
                let bad = ctx.world.bad_objects();
                if bad.is_empty() {
                    return Vec::new();
                }
                #[expect(
                    clippy::cast_possible_truncation,
                    clippy::cast_sign_loss,
                    reason = "seed_fraction lies in [0, 1], so the floor lies in [0, total_budget]"
                )]
                let spend = ((total_budget as f64) * self.seed_fraction).floor() as usize;
                let mut posts = Vec::with_capacity(spend);
                let mut slot = 0usize;
                'seed: loop {
                    let mut progressed = false;
                    for entry in remaining.iter_mut() {
                        if posts.len() >= spend {
                            break 'seed;
                        }
                        if entry.1 > 0 {
                            entry.1 -= 1;
                            progressed = true;
                            posts.push(DishonestPost::vote(entry.0, bad[slot % bad.len()]));
                            slot += 1;
                        }
                    }
                    if !progressed {
                        break;
                    }
                }
                return posts;
            }
            return Vec::new();
        };
        let key = (ctx.phase.label, ctx.phase.window_start);
        if self.last_window == Some(key) {
            return Vec::new(); // already serviced this window
        }
        self.last_window = Some(key);

        // Votes needed per object: "at least k₂/4" at Step 1.4 (admission),
        // "strictly more than n/(4c_t)" at Step 2.2 (survival). Matching the
        // stricter of the two (⌊thr⌋+1) satisfies both. Each of those votes
        // must come from a *distinct* player — honest readers count an
        // author's repeat votes for the same object once.
        #[expect(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "the survival threshold is a non-negative vote count; `as` saturates anything larger than usize"
        )]
        let needed = (threshold.floor() as usize) + 1;
        #[expect(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "aggressiveness lies in (0, 1], so the ceiling lies in [0, total_budget]"
        )]
        let spend_cap = (((total_budget as f64) * self.aggressiveness).ceil() as usize).max(needed);

        // Targets: bad objects in the current candidate set (during Step 2),
        // or any bad objects (during Step 1.3 — C₀ admission counts votes
        // for arbitrary objects).
        let m = ctx.m();
        let targets: Vec<ObjectId> = if ctx.phase.label == "distill.refine" {
            ctx.phase
                .candidates
                .to_vec(m)
                .into_iter()
                .filter(|&o| !ctx.world.is_good(o))
                .collect()
        } else {
            ctx.world.bad_objects()
        };
        if targets.is_empty() {
            return Vec::new();
        }

        let mut posts = Vec::new();
        let mut spent = 0usize;
        let mut rotate = 0usize;
        for &target in &targets {
            if spent + needed > spend_cap {
                break;
            }
            // `needed` distinct players, rotating the start index so budget
            // drains evenly across the dishonest population.
            let len = remaining.len();
            let mut got = 0usize;
            let mut picked = Vec::with_capacity(needed);
            for k in 0..len {
                if got == needed {
                    break;
                }
                let idx = (rotate + k) % len;
                if remaining[idx].1 > 0 {
                    picked.push(idx);
                    got += 1;
                }
            }
            if got < needed {
                break; // not enough distinct players left
            }
            rotate = (rotate + needed) % len.max(1);
            for idx in picked {
                remaining[idx].1 -= 1;
                posts.push(DishonestPost::vote(remaining[idx].0, target));
                spent += 1;
            }
        }
        posts
    }

    fn name(&self) -> &'static str {
        "threshold-matcher"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distill_core::{Distill, DistillParams};
    use distill_sim::{Engine, SimConfig, StopRule, World};

    #[test]
    fn distill_still_terminates_under_matcher() {
        let n = 64;
        let world = World::binary(n, 1, 3).unwrap();
        let params = DistillParams::new(n, n, 0.75, world.beta()).unwrap();
        let config = SimConfig::new(n, 48, 11).with_stop(StopRule::all_satisfied(200_000));
        let result = Engine::new(
            config,
            &world,
            Box::new(Distill::new(params)),
            Box::new(ThresholdMatcher::new()),
        )
        .unwrap()
        .run()
        .unwrap();
        assert!(result.all_satisfied, "DISTILL must beat the matcher");
        assert_eq!(result.forged_rejected, 0);
    }

    #[test]
    fn matcher_spends_votes() {
        let n = 64;
        let world = World::binary(n, 1, 3).unwrap();
        let params = DistillParams::new(n, n, 0.75, world.beta()).unwrap();
        let config = SimConfig::new(n, 48, 11).with_stop(StopRule::all_satisfied(200_000));
        let result = Engine::new(
            config,
            &world,
            Box::new(Distill::new(params)),
            Box::new(ThresholdMatcher::new()),
        )
        .unwrap()
        .run()
        .unwrap();
        // The matcher should have produced posts beyond the honest ones:
        // honest posts ≤ total probes + pre-seeded votes.
        assert!(result.posts_total as u64 > result.total_probes() / 2);
    }

    #[test]
    fn pacing_variant_works() {
        let n = 32;
        let world = World::binary(n, 1, 9).unwrap();
        let params = DistillParams::new(n, n, 0.5, world.beta()).unwrap();
        let config = SimConfig::new(n, 16, 4).with_stop(StopRule::all_satisfied(400_000));
        let result = Engine::new(
            config,
            &world,
            Box::new(Distill::new(params)),
            Box::new(ThresholdMatcher::with_aggressiveness(0.25)),
        )
        .unwrap()
        .run()
        .unwrap();
        assert!(result.all_satisfied);
    }

    #[test]
    #[should_panic(expected = "out of (0, 1]")]
    fn aggressiveness_validated() {
        let _ = ThresholdMatcher::with_aggressiveness(0.0);
    }
}
