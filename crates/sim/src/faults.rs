//! Deterministic fault injection for the simulation engines.
//!
//! The paper's model (Thm 4, Cor 5) assumes a perfectly reliable synchronous
//! billboard: every honest post lands, every read is fresh, and honest
//! players never leave. A [`FaultPlan`] relaxes each assumption
//! independently so degradation becomes *measurable* rather than assumed:
//!
//! * **Dropped posts** (`drop_rate`): an honest probe happens and the player
//!   learns the outcome locally, but the resulting post never lands on the
//!   billboard — the vote is lost to everyone else.
//! * **Stale reads** (`view_lag`): honest players read a
//!   [`BoardView`](distill_billboard::BoardView) that lags `L` rounds behind
//!   the billboard's true contents.
//! * **Crash churn** (`crash_rate`/`crash_window`/`recovery_rate`): an
//!   honest player crash-stops at a predetermined round (chosen uniformly in
//!   `[0, crash_window)`), stops probing, and — if `recovery_rate > 0` —
//!   rejoins later with its pre-crash votes intact. `crash_rate` is the
//!   probability a player *ever* crashes, so the effective honest fraction
//!   shrinks to α′ = α·(1 − `crash_rate`) when recovery is disabled.
//!
//! Every random draw comes from the dedicated
//! [`Stream::Faults`](crate::rng::Stream::Faults) RNG stream, so a plan with
//! all faults disabled (the [`Default`]) leaves no-fault executions
//! bit-identical to an engine without the fault layer, and per-player
//! probe/error streams stay independent of the fault schedule.
//!
//! This module is the only code that knows the layer's mechanics, and both
//! [`Engine`](crate::Engine) (time in rounds) and
//! [`AsyncEngine`](crate::async_engine::AsyncEngine) (time in steps) drive
//! it: `Churn` draws the crash schedule and runs the crash/recovery merge,
//! [`FaultPlan`] owns the drop coin, and `DishonestPost` the admission check
//! for adversary posts. Each engine keeps only its reaction to a crash or
//! recovery: `Engine` its stop rule's count of unsatisfied crashed players,
//! `crash_round` and the trace; `AsyncEngine` its schedulable `active` list.

use crate::adversary::DishonestPost;
use distill_billboard::BitSet;
use rand::rngs::SmallRng;
use rand::Rng;

/// Configuration of the fault layer, carried on
/// [`SimConfig`](crate::config::SimConfig).
///
/// The default plan disables every fault and is guaranteed not to perturb
/// the execution (property-tested in `tests/trace_consistency.rs`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Probability in `[0, 1]` that an individual honest post is dropped
    /// before reaching the billboard. `0.0` disables post drops.
    pub drop_rate: f64,
    /// How many rounds behind the billboard honest reads lag. `0` means
    /// fresh reads. Adversaries always read fresh state (worst case).
    pub view_lag: u64,
    /// Probability in `[0, 1]` that an honest player ever crashes. `0.0`
    /// disables churn.
    pub crash_rate: f64,
    /// Crash rounds are drawn uniformly from `[0, crash_window)`. Must be
    /// positive when `crash_rate > 0`. Defaults to 64.
    pub crash_window: u64,
    /// Per-round probability in `[0, 1]` that a crashed player recovers and
    /// rejoins. `0.0` means crash-stop (the player is gone for good).
    pub recovery_rate: f64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            drop_rate: 0.0,
            view_lag: 0,
            crash_rate: 0.0,
            crash_window: 64,
            recovery_rate: 0.0,
        }
    }
}

impl FaultPlan {
    /// A plan with every fault disabled (same as [`Default`]).
    #[must_use]
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Sets the per-post drop probability.
    #[must_use]
    pub fn with_drop_rate(mut self, rate: f64) -> Self {
        self.drop_rate = rate;
        self
    }

    /// Sets the honest read lag in rounds.
    #[must_use]
    pub fn with_view_lag(mut self, lag: u64) -> Self {
        self.view_lag = lag;
        self
    }

    /// Sets the probability that a player ever crashes.
    #[must_use]
    pub fn with_crash_rate(mut self, rate: f64) -> Self {
        self.crash_rate = rate;
        self
    }

    /// Sets the window `[0, w)` from which crash rounds are drawn.
    #[must_use]
    pub fn with_crash_window(mut self, window: u64) -> Self {
        self.crash_window = window;
        self
    }

    /// Sets the per-round recovery probability for crashed players.
    #[must_use]
    pub fn with_recovery_rate(mut self, rate: f64) -> Self {
        self.recovery_rate = rate;
        self
    }

    /// True when the plan cannot perturb an execution: no drops, no lag,
    /// no churn. The engines take the exact unfaulted code path in this
    /// case, which is what makes default-plan runs bit-identical.
    #[must_use]
    pub fn is_noop(&self) -> bool {
        self.drop_rate == 0.0 && self.view_lag == 0 && self.crash_rate == 0.0
    }

    /// Validates the plan's parameters.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field: probabilities
    /// outside `[0, 1]` (or non-finite), or a zero `crash_window` while
    /// `crash_rate > 0`.
    pub fn validate(&self) -> Result<(), String> {
        let probabilities = [
            ("drop_rate", self.drop_rate),
            ("crash_rate", self.crash_rate),
            ("recovery_rate", self.recovery_rate),
        ];
        for (name, value) in probabilities {
            if !value.is_finite() || !(0.0..=1.0).contains(&value) {
                return Err(format!("{name} must be in [0, 1], got {value}"));
            }
        }
        if self.crash_rate > 0.0 && self.crash_window == 0 {
            return Err("crash_window must be positive when crash_rate > 0".to_string());
        }
        Ok(())
    }

    /// The drop coin for one honest post: `true` when the post is lost in
    /// transit. Draws from `rng` only when `drop_rate > 0`, so a plan
    /// without drops leaves the fault stream untouched.
    pub(crate) fn drops_post(&self, rng: &mut SmallRng) -> bool {
        self.drop_rate > 0.0 && rng.gen::<f64>() < self.drop_rate
    }
}

impl DishonestPost {
    /// Transport-level admission of an adversary post: its author must be
    /// one of the dishonest players `n_honest..n_players`, its object must
    /// lie in the universe of `m` objects, and its value must be finite.
    /// Anything else is a forgery, and the engines reject it.
    pub(crate) fn is_admissible(&self, n_honest: u32, n_players: u32, m: u32) -> bool {
        (n_honest..n_players).contains(&self.author.0)
            && self.object.0 < m
            && self.value.is_finite()
    }
}

/// One crash-churn event, as [`Churn::advance`] applies it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ChurnEvent {
    /// The honest player crash-stops.
    Crashed(u32),
    /// The crashed honest player rejoins, its pre-crash votes intact.
    Recovered(u32),
}

/// The crash-churn plane that both engines drive: each honest player's
/// crash time is drawn when an execution starts, and
/// [`advance`](Churn::advance) fires the due crashes and draws the crashed
/// players' recovery coins at O(crashed + due) per call, allocation-free in
/// the steady state.
#[derive(Debug)]
pub(crate) struct Churn {
    /// Predetermined crash events `(time, player)`, sorted ascending;
    /// `cursor` marks the first event that has not fired. Each event fires
    /// exactly once, so a recovered player never crashes again.
    schedule: Vec<(u64, u32)>,
    cursor: usize,
    /// Whether each honest player is currently crashed (`crashed` as a set).
    is_crashed: BitSet,
    /// Currently crashed players, ascending — the recovery-coin draw order.
    crashed: Vec<u32>,
    /// Reused output buffer for rebuilding `crashed`.
    scratch: Vec<u32>,
}

impl Churn {
    /// An empty plane for `n_honest` players: nobody crashed, nothing
    /// scheduled.
    pub(crate) fn new(n_honest: u32) -> Self {
        Churn {
            schedule: Vec::new(),
            cursor: 0,
            is_crashed: BitSet::new(n_honest as usize),
            crashed: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// Starts a fresh execution: forgets the previous one's crashes (at
    /// O(crashed), not O(n)) and draws the crash schedule from `rng`. Coins
    /// go in ascending player order — one per player, plus a time draw only
    /// for crashers — and nothing is drawn when `crash_rate` is 0. A crash
    /// time is uniform over `[0, crash_window)`, which is what makes the
    /// effective honest fraction α′ = α·(1 − crash_rate) once it has passed.
    pub(crate) fn start(&mut self, plan: &FaultPlan, rng: &mut SmallRng, n_honest: u32) {
        for &p in &self.crashed {
            self.is_crashed.remove(p as usize);
        }
        self.crashed.clear();
        self.schedule.clear();
        self.cursor = 0;
        if plan.crash_rate <= 0.0 {
            return;
        }
        for p in 0..n_honest {
            if rng.gen::<f64>() < plan.crash_rate {
                self.schedule.push((rng.gen_range(0..plan.crash_window), p));
            }
        }
        self.schedule.sort_unstable();
    }

    /// Whether `player` is currently crashed.
    pub(crate) fn is_crashed(&self, player: u32) -> bool {
        self.is_crashed.contains(player as usize)
    }

    /// The currently crashed players, ascending.
    pub(crate) fn crashed(&self) -> &[u32] {
        &self.crashed
    }

    /// Applies the churn due at time `now`: counts each crash and recovery
    /// in `counters` and reports it to `on_event` in the order it is
    /// applied.
    ///
    /// Crashes fire once their time is reached (`<=`, so a schedule that
    /// starts before a pre-seeded run's first round still fires). Recovery
    /// is geometric: one `recovery_rate` coin per crashed player per call.
    /// The merge walks the crashed players (coins) and the due crashes (no
    /// coins) together in ascending player order, so coins and events come
    /// in the order a walk over every player gives, at O(crashed + due).
    // lint: hot
    pub(crate) fn advance(
        &mut self,
        now: u64,
        plan: &FaultPlan,
        rng: &mut SmallRng,
        counters: &mut FaultCounters,
        mut on_event: impl FnMut(ChurnEvent),
    ) {
        let start = self.cursor;
        let mut end = start;
        while end < self.schedule.len() && self.schedule[end].0 <= now {
            end += 1;
        }
        self.cursor = end;
        if end - start > 1 {
            // A batch due at one time is already player-sorted; one that
            // spans several (only on a pre-seeded run's first call, which
            // starts past time 0) needs the player order restored.
            self.schedule[start..end].sort_unstable_by_key(|&(_, p)| p);
        }
        if end == start && self.crashed.is_empty() {
            return;
        }
        let mut next = std::mem::take(&mut self.scratch);
        next.clear();
        let (mut ci, mut di) = (0, start);
        while ci < self.crashed.len() || di < end {
            // The lower player id goes first; a due player is never one
            // that is already crashed, since each event fires once.
            let crash_now = match self.crashed.get(ci) {
                Some(&c) => di < end && self.schedule[di].1 < c,
                None => true,
            };
            if crash_now {
                let p = self.schedule[di].1;
                di += 1;
                self.is_crashed.insert(p as usize);
                next.push(p);
                counters.crashes += 1;
                on_event(ChurnEvent::Crashed(p));
            } else {
                let p = self.crashed[ci];
                ci += 1;
                if plan.recovery_rate > 0.0 && rng.gen::<f64>() < plan.recovery_rate {
                    self.is_crashed.remove(p as usize);
                    counters.recoveries += 1;
                    on_event(ChurnEvent::Recovered(p));
                } else {
                    next.push(p);
                }
            }
        }
        self.scratch = std::mem::replace(&mut self.crashed, next);
    }
}

/// Per-fault event counters, reported on
/// [`SimResult`](crate::metrics::SimResult) and
/// [`AsyncResult`](crate::async_engine::AsyncResult).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Honest posts suppressed before reaching the billboard.
    pub posts_dropped: u64,
    /// Crash events (each player crashes at most once).
    pub crashes: u64,
    /// Recovery events (crashed players that rejoined).
    pub recoveries: u64,
}

impl FaultCounters {
    /// True when no fault event occurred during the execution.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.posts_dropped == 0 && self.crashes == 0 && self.recoveries == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_noop_and_valid() {
        let plan = FaultPlan::default();
        assert!(plan.is_noop());
        assert!(plan.validate().is_ok());
        assert_eq!(plan, FaultPlan::none());
    }

    #[test]
    fn builders_set_fields_and_flip_noop() {
        let plan = FaultPlan::none()
            .with_drop_rate(0.25)
            .with_view_lag(3)
            .with_crash_rate(0.1)
            .with_crash_window(16)
            .with_recovery_rate(0.5);
        assert!(!plan.is_noop());
        assert!(plan.validate().is_ok());
        assert_eq!(plan.drop_rate, 0.25);
        assert_eq!(plan.view_lag, 3);
        assert_eq!(plan.crash_rate, 0.1);
        assert_eq!(plan.crash_window, 16);
        assert_eq!(plan.recovery_rate, 0.5);
    }

    #[test]
    fn out_of_range_probabilities_are_rejected() {
        assert!(FaultPlan::none().with_drop_rate(1.5).validate().is_err());
        assert!(FaultPlan::none().with_drop_rate(-0.1).validate().is_err());
        assert!(FaultPlan::none()
            .with_crash_rate(f64::NAN)
            .validate()
            .is_err());
        assert!(FaultPlan::none()
            .with_recovery_rate(2.0)
            .validate()
            .is_err());
    }

    #[test]
    fn zero_crash_window_requires_zero_crash_rate() {
        let plan = FaultPlan::none().with_crash_rate(0.5).with_crash_window(0);
        assert!(plan.validate().is_err());
        // window irrelevant while churn is off
        let idle = FaultPlan::none().with_crash_window(0);
        assert!(idle.validate().is_ok());
        assert!(idle.is_noop());
    }

    #[test]
    fn counters_default_empty() {
        let c = FaultCounters::default();
        assert!(c.is_empty());
        let c = FaultCounters {
            posts_dropped: 1,
            ..FaultCounters::default()
        };
        assert!(!c.is_empty());
    }

    #[test]
    fn drop_coin_draws_nothing_without_drops() {
        let mut rng = crate::rng::stream_rng(5, crate::rng::Stream::Faults);
        let untouched = rng.clone();
        assert!(!FaultPlan::none().drops_post(&mut rng));
        assert_eq!(rng, untouched);
        assert!(FaultPlan::none().with_drop_rate(1.0).drops_post(&mut rng));
        assert_ne!(rng, untouched);
    }

    mod props {
        use super::*;
        use crate::rng::{stream_rng, Stream};
        use proptest::prelude::*;

        proptest! {
            /// The merge in `Churn::advance` against the walk it replaces:
            /// a table of crash times and crashed flags visited in
            /// ascending player order on every call, drawing a recovery
            /// coin for each crashed player and crashing each player that
            /// is due. Rates are clamped so that 0 and 1 occur often.
            #[test]
            fn churn_matches_a_naive_walk_over_every_player(
                n_honest in 1u32..64,
                crash_rate in -0.25f64..1.25,
                crash_window in 1u64..16,
                recovery_rate in -0.25f64..1.25,
                first in 1u64..24,
                calls in 1u64..40,
                seed in any::<u64>(),
            ) {
                let plan = FaultPlan::none()
                    .with_crash_rate(crash_rate.clamp(0.0, 1.0))
                    .with_crash_window(crash_window)
                    .with_recovery_rate(recovery_rate.clamp(0.0, 1.0));
                let n = n_honest as usize;
                let mut rng = stream_rng(seed, Stream::Faults);
                let mut naive_rng = rng.clone();
                let mut churn = Churn::new(n_honest);
                churn.start(&plan, &mut rng, n_honest);
                let mut crash_at = vec![None; n];
                if plan.crash_rate > 0.0 {
                    for slot in &mut crash_at {
                        if naive_rng.gen::<f64>() < plan.crash_rate {
                            *slot = Some(naive_rng.gen_range(0..plan.crash_window));
                        }
                    }
                }
                let mut crashed = vec![false; n];
                let mut counters = FaultCounters::default();
                let (mut crashes, mut recoveries) = (0, 0);
                for now in first..first + calls {
                    let mut events = Vec::new();
                    churn.advance(now, &plan, &mut rng, &mut counters, |e| events.push(e));
                    let mut expected = Vec::new();
                    for p in 0..n_honest {
                        let i = p as usize;
                        if crashed[i] {
                            if plan.recovery_rate > 0.0
                                && naive_rng.gen::<f64>() < plan.recovery_rate
                            {
                                crashed[i] = false;
                                recoveries += 1;
                                expected.push(ChurnEvent::Recovered(p));
                            }
                        } else if crash_at[i].is_some_and(|at| at <= now) {
                            crash_at[i] = None;
                            crashed[i] = true;
                            crashes += 1;
                            expected.push(ChurnEvent::Crashed(p));
                        }
                    }
                    prop_assert_eq!(&events, &expected, "events at time {}", now);
                    let crashed_set: Vec<u32> =
                        (0..n_honest).filter(|&p| crashed[p as usize]).collect();
                    prop_assert_eq!(churn.crashed(), &crashed_set[..]);
                    for p in 0..n_honest {
                        prop_assert_eq!(churn.is_crashed(p), crashed[p as usize]);
                    }
                    prop_assert_eq!(rng.clone().gen::<u64>(), naive_rng.clone().gen::<u64>());
                }
                prop_assert_eq!(counters.crashes, crashes);
                prop_assert_eq!(counters.recoveries, recoveries);
                // A restart forgets every crash without a pass over the
                // players that are not crashed.
                churn.start(&FaultPlan::none(), &mut rng, n_honest);
                prop_assert!(churn.crashed().is_empty());
                prop_assert!((0..n_honest).all(|p| !churn.is_crashed(p)));
            }
        }
    }
}
