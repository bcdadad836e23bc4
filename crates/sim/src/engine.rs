//! The synchronous round loop.

use crate::adversary::{Adversary, AdversaryCtx, InfoModel};
use crate::cohort::{CandidateSet, Cohort, Directive};
use crate::config::{Participation, SimConfig, StopRule};
use crate::error::SimError;
use crate::faults::{Churn, ChurnEvent, FaultCounters, FaultPlan};
use crate::metrics::{FinalEval, PlayerOutcome, SimResult};
use crate::object_model::ObjectModel;
use crate::rng::{stream_rng, Stream};
use crate::trace::TraceEvent;
use crate::world::World;
use distill_billboard::{
    Billboard, BitSet, BoardView, ObjectId, PlayerId, ReportKind, Round, VoteMode, VoteTracker,
};
use rand::rngs::SmallRng;
use rand::Rng;

/// An honest probe's post, settled in the round's probe pass and appended
/// once the posting order allows (after a non-strongly-adaptive adversary's
/// turn).
#[derive(Clone, Copy)]
struct HonestPost {
    player: PlayerId,
    object: ObjectId,
    kind: ReportKind,
}

/// One round's probe pass: the settings every probe reads, copied out of
/// the config and the world, and the engine planes the pass writes, each
/// borrowed on its own so that the directive's draw can hold the round's
/// board view beside them.
struct ProbePass<'a> {
    round: Round,
    m: u32,
    local_testing: bool,
    participation: Participation,
    honest_error_rate: f64,
    post_negative_reports: bool,
    /// The fault plan, for its post-drop coin.
    drops: FaultPlan,
    /// The crash plane, when churn is on.
    churn: Option<&'a Churn>,
    /// The world's one shared cost, when it has one.
    unit_cost: Option<f64>,
    world: &'a World,
    active: &'a mut Vec<u32>,
    rngs: &'a mut [SmallRng],
    outcomes: &'a mut [PlayerOutcome],
    best_probe: &'a mut [Option<(ObjectId, f64)>],
    posts: &'a mut Vec<HonestPost>,
    satisfied: &'a mut BitSet,
    n_satisfied: &'a mut u32,
    trace: Option<&'a mut Vec<TraceEvent>>,
    faults_rng: &'a mut SmallRng,
    fault_counters: &'a mut FaultCounters,
}

impl ProbePass<'_> {
    /// Settles every active player's probe. `draw` resolves the round's
    /// directive from the player's stream into the object to probe and
    /// whether advice named it, or `None` when the directive is idle. The
    /// plain instantiation runs when the config leaves off every feature
    /// that needs a coin, a trace event or a per-player test.
    fn run(
        self,
        draw: impl FnMut(&mut SmallRng) -> Option<(ObjectId, bool)>,
    ) -> Result<(), SimError> {
        let plain = self.churn.is_none()
            && matches!(self.participation, Participation::Full)
            && self.trace.is_none()
            && self.local_testing
            && self.honest_error_rate == 0.0
            && self.drops.drop_rate == 0.0;
        if plain {
            self.settle::<true>(draw)
        } else {
            self.settle::<false>(draw)
        }
    }

    /// The probe pass. Per active player, ascending: the crash test, the
    /// participation coin, `draw`, the range check, the charges, the §4.1
    /// error coin, the drop coin, the trace events and satisfaction, in
    /// that order; a write cursor keeps the unsatisfied players in place.
    // lint: hot
    fn settle<const PLAIN: bool>(
        self,
        mut draw: impl FnMut(&mut SmallRng) -> Option<(ObjectId, bool)>,
    ) -> Result<(), SimError> {
        let ProbePass {
            round,
            m,
            local_testing,
            participation,
            honest_error_rate,
            post_negative_reports,
            drops,
            churn,
            unit_cost,
            world,
            active,
            rngs,
            outcomes,
            best_probe,
            posts,
            satisfied,
            n_satisfied,
            trace,
            faults_rng,
            fault_counters,
        } = self;
        // The plain instantiation pins the settings `run` checked, so every
        // test below that reads one folds to a constant and compiles out.
        let churn = if PLAIN { None } else { churn };
        let participation = if PLAIN {
            Participation::Full
        } else {
            participation
        };
        let mut trace = if PLAIN { None } else { trace };
        let local_testing = PLAIN || local_testing;
        let honest_error_rate = if PLAIN { 0.0 } else { honest_error_rate };
        let drops = if PLAIN { FaultPlan::none() } else { drops };
        let mut kept = 0;
        for idx in 0..active.len() {
            let p = active[idx];
            // Kept unless its probe satisfies it (`kept -= 1` below).
            active[kept] = p;
            kept += 1;
            if churn.is_some_and(|c| c.is_crashed(p)) {
                continue;
            }
            let rng = &mut rngs[p as usize];
            let participates = match participation {
                Participation::Full => true,
                Participation::RandomSubset { p: prob } => rng.gen::<f64>() < prob,
                Participation::RoundRobin { groups } => {
                    (round.as_u64() + u64::from(p)).is_multiple_of(u64::from(groups))
                }
                Participation::Straggler {
                    player,
                    until_round,
                } => player.0 != p || round.as_u64() >= until_round,
            };
            if !participates {
                continue;
            }
            let Some((object, via_advice)) = draw(rng) else {
                continue;
            };
            // A hostile (or buggy) cohort can hand back a Subset with
            // out-of-range ids; indexing the world with one would panic, so
            // reject the directive instead. The round is abandoned: none of
            // its honest posts reach the board, and the active list keeps
            // exactly the unsatisfied players.
            if object.0 >= m {
                active.drain(kept..=idx);
                // lint: allow(alloc) — error path that aborts the
                // run; never taken on the per-round fast path
                return Err(SimError::InvalidDirective(format!(
                    "cohort produced object {} outside universe of {m} objects",
                    object.0
                )));
            }
            let player = PlayerId(p);
            let outcome = &mut outcomes[p as usize];
            outcome.probes += 1;
            outcome.cost_paid += match unit_cost {
                Some(cost) => cost,
                None => world.cost(object),
            };
            if via_advice {
                outcome.advice_probes += 1;
            } else {
                outcome.explore_probes += 1;
            }
            if !local_testing {
                // Only the §5.3 final evaluation reads this; skipping it
                // for local-testing worlds keeps the plane out of the
                // hot loop.
                let value = world.value(object);
                match best_probe[p as usize] {
                    Some((_, best)) if best >= value => {}
                    _ => best_probe[p as usize] = Some((object, value)),
                }
            }
            // The value plane is read in step 4a only for a probe that
            // posts, so a local-testing probe of a bad object that posts
            // nothing reads just the good bitset and the cost.
            let good = world.is_good(object);
            if let Some(t) = trace.as_mut() {
                t.push(TraceEvent::Probe {
                    round,
                    player,
                    object,
                    via_advice,
                    good,
                });
            }
            let kind = if !local_testing {
                // §5.3: no local testing — every probe's true value is
                // posted; the tracker derives best-value votes from it.
                Some(ReportKind::Negative)
            } else if good || (honest_error_rate > 0.0 && rng.gen::<f64>() < honest_error_rate) {
                // §4.1: an honest player occasionally submits an
                // erroneous (positive) vote for a bad object by mistake.
                Some(ReportKind::Positive)
            } else {
                post_negative_reports.then_some(ReportKind::Negative)
            };
            if let Some(kind) = kind {
                // Fault injection may lose the post in transit; the probe
                // (and any satisfaction) already happened locally.
                if drops.drops_post(faults_rng) {
                    fault_counters.posts_dropped += 1;
                    if let Some(t) = trace.as_mut() {
                        t.push(TraceEvent::PostDropped {
                            round,
                            player,
                            object,
                        });
                    }
                } else {
                    posts.push(HonestPost {
                        player,
                        object,
                        kind,
                    });
                }
            }
            if local_testing && good {
                satisfied.insert(p as usize);
                *n_satisfied += 1;
                outcomes[p as usize].satisfied_round = Some(round);
                if let Some(t) = trace.as_mut() {
                    t.push(TraceEvent::Satisfied {
                        round,
                        player,
                        object,
                    });
                }
                kept -= 1;
            }
        }
        active.truncate(kept);
        Ok(())
    }
}

/// The synchronous execution engine (§1.2, §2.1).
///
/// One `Engine` runs one execution: in every round each *active* honest
/// player resolves the cohort's [`Directive`] with its own private coins,
/// probes one object, and posts the result; the adversary then posts whatever
/// it likes through its own players; the round's posts land on the billboard
/// and the vote tracker ingests them. A player that probes a good object
/// (under local testing) becomes *satisfied* and halts.
///
/// Ordering per round `r`:
///
/// 1. the cohort reads the end-of-round-`r−1` billboard and emits this
///    round's directive;
/// 2. one ascending pass over the active honest players settles every
///    probe against the same view (synchronous model — everyone acts on the
///    same snapshot). The directive is matched once, and its arm's draw
///    runs inside the pass: per player, the participation coin, the
///    directive's draws, the probe's charges, the §4.1 error coin, the drop
///    coin, the trace events and satisfaction, in that order; satisfied
///    players leave the active list in the same pass. The pass has two
///    instantiations: a plain one, for a config with no crash churn, full
///    participation, no trace, local testing and no error or drop coins,
///    from which those tests compile out, and a general one for any other;
/// 3. the adversary acts: under [`InfoModel::StronglyAdaptive`] it first sees
///    the honest round-`r` posts; otherwise it sees only rounds `< r`;
/// 4. all round-`r` posts are appended and ingested — the honest ones after
///    a non-strongly-adaptive adversary has acted, in player order.
///
/// When the config carries a non-noop [`FaultPlan`](crate::FaultPlan), the
/// engine additionally processes crash/recovery churn at each round start,
/// serves honest reads from a lagged view, and may drop honest posts — all
/// decided by `sim::faults` from the dedicated [`Stream::Faults`] RNG, so
/// the no-fault path is bit-identical to an engine without the fault layer.
pub struct Engine<'w> {
    config: SimConfig,
    world: &'w World,
    cohort: Box<dyn Cohort>,
    adversary: Box<dyn Adversary>,
    board: Billboard,
    tracker: VoteTracker,
    /// Satisfaction flags, one bit per honest player (struct-of-arrays: the
    /// flag planes are packed `u64` bitmaps, the hot per-player payloads live
    /// in their own dense arrays).
    satisfied: BitSet,
    /// Running count of set bits in `satisfied` — keeps the stop rules and
    /// the per-round satisfaction curve O(1) instead of an O(n) rescan.
    n_satisfied: u32,
    /// Unsatisfied honest players, ascending. Ascending order matters: it is
    /// the board append order, which advice probes observe.
    active_players: Vec<u32>,
    outcomes: Vec<PlayerOutcome>,
    /// Best value seen per player — only consulted by the no-local-testing
    /// final evaluation, so it is left empty (never touched in the round
    /// loop) for local-testing worlds.
    best_probe: Vec<Option<(ObjectId, f64)>>,
    player_rngs: Vec<SmallRng>,
    adv_rng: SmallRng,
    dishonest: Vec<PlayerId>,
    satisfied_per_round: Vec<u32>,
    forged_rejected: u64,
    trace: Option<Vec<TraceEvent>>,
    round: Round,
    rounds_executed: u64,
    /// The round's honest posts, held back until the adversary's turn;
    /// reused across rounds to avoid a per-round allocation.
    post_buf: Vec<HonestPost>,
    /// Start of the tally window currently registered with the tracker
    /// (mirrors the cohort's `PhaseInfo::window_start`).
    open_window_start: Option<Round>,
    /// Fault-injection coins (dedicated stream; never touched by the
    /// no-fault path).
    faults_rng: SmallRng,
    /// The crash schedule and the currently crashed players.
    churn: Churn,
    /// Crashed players that are not satisfied — with recovery disabled these
    /// are terminal, and the all-satisfied stop rule treats them as such.
    n_crashed_unsatisfied: u32,
    fault_counters: FaultCounters,
    /// Vote state as seen by a reader `view_lag` rounds behind; `None` when
    /// reads are fresh. Fed exclusively through `ingest_until`.
    lagged_tracker: Option<VoteTracker>,
}

impl std::fmt::Debug for Engine<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("round", &self.round)
            .field("cohort", &self.cohort.name())
            .field("adversary", &self.adversary.name())
            .field("satisfied", &self.satisfied_count())
            .finish()
    }
}

impl<'w> Engine<'w> {
    /// Builds an engine for one execution: allocates the arena (board,
    /// tracker, per-player planes) for `config` and `world`, then starts the
    /// execution exactly as [`reset_with_world`](Engine::reset_with_world)
    /// does on a reused arena.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if the config fails
    /// [`SimConfig::validate`], if the vote policy's mode disagrees with the
    /// world's object model (local-testing worlds need local-testing votes,
    /// top-β worlds need best-value votes and a [`StopRule::Horizon`]), or if
    /// a pre-satisfied player's seeded vote is not actually a good object.
    pub fn new(
        config: SimConfig,
        world: &'w World,
        cohort: Box<dyn Cohort>,
        adversary: Box<dyn Adversary>,
    ) -> Result<Self, SimError> {
        config.validate()?;
        let m = world.m();
        Self::check_world(&config, world, m)?;
        let n = config.n_players;
        let n_honest = config.n_honest as usize;
        let best_probe = if world.model().has_local_testing() {
            Vec::new()
        } else {
            vec![None; n_honest]
        };
        let seed = config.seed;
        let mut engine = Engine {
            world,
            cohort,
            adversary,
            board: Billboard::new(n, m),
            tracker: VoteTracker::new(n, m, config.policy),
            satisfied: BitSet::new(n_honest),
            n_satisfied: 0,
            active_players: Vec::new(),
            outcomes: vec![PlayerOutcome::new(); n_honest],
            best_probe,
            player_rngs: Vec::with_capacity(n_honest),
            adv_rng: stream_rng(seed, Stream::Adversary),
            dishonest: config.dishonest_players(),
            satisfied_per_round: Vec::new(),
            forged_rejected: 0,
            trace: None,
            round: Round(0),
            rounds_executed: 0,
            post_buf: Vec::with_capacity(n_honest),
            open_window_start: None,
            faults_rng: stream_rng(seed, Stream::Faults),
            churn: Churn::new(config.n_honest),
            n_crashed_unsatisfied: 0,
            fault_counters: FaultCounters::default(),
            lagged_tracker: (config.faults.view_lag > 0)
                .then(|| VoteTracker::new(n, m, config.policy)),
            config,
        };
        engine.start(seed)?;
        Ok(engine)
    }

    /// Checks `world` against `config` for an arena built for `m` objects:
    /// the universe size, the object model against the vote mode (a top-β
    /// world also needs a fixed horizon), and the pre-satisfied votes (an
    /// honest author, and a good object inside the universe).
    fn check_world(config: &SimConfig, world: &World, m: u32) -> Result<(), SimError> {
        if world.m() != m {
            return Err(SimError::InvalidConfig(format!(
                "world has {} objects, engine arena was built for {m}",
                world.m()
            )));
        }
        match (world.model(), config.policy.mode) {
            (ObjectModel::LocalTesting { .. }, VoteMode::LocalTesting) => {}
            (ObjectModel::TopBeta { .. }, VoteMode::BestValue) => {
                if !matches!(config.stop, StopRule::Horizon { .. }) {
                    return Err(SimError::InvalidConfig(
                        "a top-beta world needs a fixed horizon: players cannot detect \
                         satisfaction without local testing (§5.3)"
                            .into(),
                    ));
                }
            }
            (model, mode) => {
                return Err(SimError::InvalidConfig(format!(
                    "object model {model} is incompatible with vote mode {mode:?}"
                )));
            }
        }
        for &(p, o) in &config.pre_satisfied {
            if p.0 >= config.n_honest {
                return Err(SimError::InvalidConfig(format!(
                    "pre-satisfied player {p} out of range (honest players are p0..p{})",
                    config.n_honest
                )));
            }
            if o.0 >= m {
                return Err(SimError::InvalidConfig(format!(
                    "pre-satisfied vote {o} out of range"
                )));
            }
            if !world.is_good(o) {
                return Err(SimError::InvalidConfig(format!(
                    "pre-satisfied player {p} holds vote for bad object {o}; honest votes are \
                     truthful"
                )));
            }
        }
        Ok(())
    }

    /// Starts an execution with `seed` on a clean arena: derives the RNG
    /// streams, draws the crash schedule, seeds the pre-satisfied votes,
    /// builds the active list and zeroes the run's counters.
    fn start(&mut self, seed: u64) -> Result<(), SimError> {
        let n_honest = self.config.n_honest;
        self.config.seed = seed;
        self.player_rngs.clear();
        self.player_rngs
            .extend((0..n_honest).map(|p| stream_rng(seed, Stream::Player(p))));
        self.adv_rng = stream_rng(seed, Stream::Adversary);
        self.faults_rng = stream_rng(seed, Stream::Faults);
        self.churn
            .start(&self.config.faults, &mut self.faults_rng, n_honest);
        self.round = Round(0);
        if !self.config.pre_satisfied.is_empty() {
            for &(p, o) in &self.config.pre_satisfied {
                self.board
                    .append(Round(0), p, o, self.world.value(o), ReportKind::Positive)?;
                self.satisfied.insert(p.index());
                self.outcomes[p.index()].satisfied_round = Some(Round(0));
            }
            self.tracker.ingest(&self.board);
            self.round = Round(1);
        }
        #[expect(
            clippy::cast_possible_truncation,
            reason = "count_ones over an n_honest-bit set, and n_honest is u32 by the id-space contract"
        )]
        let n_satisfied = self.satisfied.count_ones() as u32;
        self.n_satisfied = n_satisfied;
        let satisfied = &self.satisfied;
        self.active_players.clear();
        self.active_players
            .extend((0..n_honest).filter(|&p| !satisfied.contains(p as usize)));
        self.satisfied_per_round.clear();
        if self.config.record_satisfaction_curve {
            self.satisfied_per_round
                .reserve(Self::curve_capacity(&self.config.stop));
        }
        self.n_crashed_unsatisfied = 0;
        self.fault_counters = FaultCounters::default();
        self.forged_rejected = 0;
        self.trace = self.config.record_trace.then(Vec::new);
        self.rounds_executed = 0;
        self.post_buf.clear();
        self.open_window_start = None;
        Ok(())
    }

    /// Capacity reserved up front for the per-round satisfaction curve, so a
    /// steady-state round's `push` never reallocates. Bounded so degenerate
    /// round caps don't pre-allocate megabytes; runs longer than the bound
    /// fall back to amortized growth.
    fn curve_capacity(stop: &StopRule) -> usize {
        const CURVE_RESERVE_CAP: usize = 4096;
        usize::try_from(stop.round_cap())
            .unwrap_or(CURVE_RESERVE_CAP)
            .min(CURVE_RESERVE_CAP)
    }

    /// The current round.
    pub fn round(&self) -> Round {
        self.round
    }

    /// Number of satisfied honest players so far. O(1): maintained as a
    /// running counter rather than rescanning the satisfaction flags.
    pub fn satisfied_count(&self) -> usize {
        debug_assert_eq!(
            self.n_satisfied as usize,
            self.satisfied.count_ones(),
            "running satisfied counter diverged from the bitmap popcount"
        );
        self.n_satisfied as usize
    }

    /// The billboard (read-only).
    pub fn board(&self) -> &Billboard {
        &self.board
    }

    /// The vote tracker (read-only).
    pub fn tracker(&self) -> &VoteTracker {
        &self.tracker
    }

    fn should_stop(&self) -> bool {
        match self.config.stop {
            StopRule::AllSatisfied { max_rounds } => {
                // A crashed player with recovery disabled can never probe
                // again: treating it as terminal is what lets crash-stop
                // runs finish instead of spinning to the round cap. Without
                // faults `n_crashed_unsatisfied` is always 0, so the rule is
                // unchanged.
                let terminal = if self.config.faults.recovery_rate == 0.0 {
                    self.n_satisfied + self.n_crashed_unsatisfied
                } else {
                    self.n_satisfied
                };
                terminal == self.config.n_honest || self.rounds_executed >= max_rounds
            }
            StopRule::Horizon { rounds } => self.rounds_executed >= rounds,
            StopRule::AnySatisfied { max_rounds } => {
                self.n_satisfied > 0 || self.rounds_executed >= max_rounds
            }
        }
    }

    /// Runs the execution to completion and returns the measurements.
    ///
    /// # Errors
    /// Returns [`SimError::InvalidDirective`] if the cohort emits a directive
    /// the engine cannot execute (e.g. a candidate set naming an object
    /// outside the universe), or [`SimError::Billboard`] if a post violates
    /// the billboard's append discipline (an engine bug guard).
    pub fn run(mut self) -> Result<SimResult, SimError> {
        self.run_mut()
    }

    /// [`run`](Engine::run) by mutable reference: runs the execution to
    /// completion and drains the measurements out of the engine, leaving the
    /// arena (board, tracker, per-player buffers) allocated for reuse.
    ///
    /// After this returns the engine is *spent* — call
    /// [`reset`](Engine::reset) before running it again.
    ///
    /// # Errors
    /// See [`Engine::run`].
    pub fn run_mut(&mut self) -> Result<SimResult, SimError> {
        while !self.should_stop() {
            self.step()?;
        }
        Ok(self.finalize())
    }

    /// Rewinds the engine to the start of a fresh execution with a new seed,
    /// **reusing every heap buffer** (billboard log, tracker state, probe and
    /// curve buffers, per-player RNG table) instead of reconstructing them.
    ///
    /// The cohort and adversary carry protocol state, so fresh boxes must be
    /// supplied; everything else — config (except the seed) and world — is
    /// kept. The resulting execution is bit-identical to one from a freshly
    /// constructed engine with the same arguments (property-tested in
    /// `tests/engine_props.rs`).
    ///
    /// # Errors
    /// Propagates [`SimError::Billboard`] if re-seeding the pre-satisfied
    /// votes fails (unreachable for a config that passed [`Engine::new`]).
    pub fn reset(
        &mut self,
        seed: u64,
        cohort: Box<dyn Cohort>,
        adversary: Box<dyn Adversary>,
    ) -> Result<(), SimError> {
        self.reset_with_world(seed, self.world, cohort, adversary)
    }

    /// [`reset`](Engine::reset), additionally swapping in a different world
    /// of the same universe size (per-trial worlds in a multi-trial sweep).
    ///
    /// The world is checked against the config by the same function
    /// [`new`](Engine::new) uses; the arena is then cleared in place and the
    /// execution started by the same function as `new`'s.
    ///
    /// # Errors
    /// Returns [`SimError::InvalidConfig`] if the new world's size or object
    /// model is incompatible with the engine's config, or if a pre-satisfied
    /// vote is not good in the new world.
    pub fn reset_with_world(
        &mut self,
        seed: u64,
        world: &'w World,
        cohort: Box<dyn Cohort>,
        adversary: Box<dyn Adversary>,
    ) -> Result<(), SimError> {
        Self::check_world(&self.config, world, self.world.m())?;
        self.world = world;
        self.cohort = cohort;
        self.adversary = adversary;
        self.board.reset();
        self.tracker.reset();
        if let Some(lt) = self.lagged_tracker.as_mut() {
            lt.reset();
        }
        let n_honest = self.config.n_honest as usize;
        self.satisfied.reset(n_honest);
        self.outcomes.clear();
        self.outcomes.resize(n_honest, PlayerOutcome::new());
        self.best_probe.clear();
        if !world.model().has_local_testing() {
            self.best_probe.resize(n_honest, None);
        }
        self.start(seed)
    }

    /// Executes a single round. Public for fine-grained tests.
    ///
    /// # Errors
    /// See [`Engine::run`].
    // lint: hot
    pub fn step(&mut self) -> Result<(), SimError> {
        let round = self.round;
        let n = self.config.n_players;
        let m = self.world.m();

        if let Some(t) = self.trace.as_mut() {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "the active list holds at most n_honest (u32) player ids"
            )]
            let active_honest = self.active_players.len() as u32;
            t.push(TraceEvent::RoundStart {
                round,
                active_honest,
            });
        }

        // Fault churn first: crashes and recoveries take effect at the start
        // of the round, before anyone probes.
        let churn = self.config.faults.crash_rate > 0.0;
        if churn {
            self.churn.advance(
                round.as_u64(),
                &self.config.faults,
                &mut self.faults_rng,
                &mut self.fault_counters,
                |event| match event {
                    ChurnEvent::Crashed(p) => {
                        // Satisfied players can crash too (the machine dies
                        // either way), but only unsatisfied crashes count
                        // toward the terminal players of the stop rule.
                        if !self.satisfied.contains(p as usize) {
                            self.n_crashed_unsatisfied += 1;
                        }
                        let outcome = &mut self.outcomes[p as usize];
                        if outcome.crash_round.is_none() {
                            outcome.crash_round = Some(round);
                        }
                        if let Some(t) = self.trace.as_mut() {
                            t.push(TraceEvent::PlayerCrashed {
                                round,
                                player: PlayerId(p),
                            });
                        }
                    }
                    ChurnEvent::Recovered(p) => {
                        if !self.satisfied.contains(p as usize) {
                            self.n_crashed_unsatisfied -= 1;
                        }
                        if let Some(t) = self.trace.as_mut() {
                            t.push(TraceEvent::PlayerRecovered {
                                round,
                                player: PlayerId(p),
                            });
                        }
                    }
                },
            );
        }

        // Honest reads may lag behind the billboard: bring the lagged vote
        // state up to the visibility cutoff for this round. No posts are
        // uncovered in the steady state, so this is allocation-free there.
        let lag = self.config.faults.view_lag;
        let lag_cutoff = Round(round.as_u64().saturating_sub(lag));
        if lag > 0 {
            if let Some(lt) = self.lagged_tracker.as_mut() {
                lt.ingest_until(&self.board, lag_cutoff);
            }
        }

        // 1+2: the cohort's directive, then one ascending pass that settles
        // every active player's probe, both against the same snapshot (built
        // once per round): the end-of-previous-round board when reads are
        // fresh, or the stale prefix under view lag. The directive is
        // matched once, here, and each arm hands the pass its own draw;
        // only the posts wait, in `post_buf`, for step 4a.
        self.post_buf.clear();
        {
            let view = match self.lagged_tracker.as_ref() {
                Some(lt) if lag > 0 => BoardView::new_lagged(&self.board, lt, round, lag_cutoff),
                _ => BoardView::new(&self.board, &self.tracker, round),
            };
            let directive = self.cohort.directive(&view);
            let pass = ProbePass {
                round,
                m,
                local_testing: self.world.model().has_local_testing(),
                participation: self.config.participation,
                honest_error_rate: self.config.honest_error_rate,
                post_negative_reports: self.config.post_negative_reports,
                drops: self.config.faults,
                churn: churn.then_some(&self.churn),
                unit_cost: self.world.uniform_cost(),
                world: self.world,
                active: &mut self.active_players,
                rngs: &mut self.player_rngs,
                outcomes: &mut self.outcomes,
                best_probe: &mut self.best_probe,
                posts: &mut self.post_buf,
                satisfied: &mut self.satisfied,
                n_satisfied: &mut self.n_satisfied,
                trace: self.trace.as_mut(),
                faults_rng: &mut self.faults_rng,
                fault_counters: &mut self.fault_counters,
            };
            match &directive {
                Directive::ProbeUniform(CandidateSet::Subset(v)) if !v.is_empty() => {
                    let v = v.as_slice();
                    pass.run(|rng| Some((v[rng.gen_range(0..v.len())], false)))
                }
                // `CandidateSet::sample`: an empty subset means the universe.
                Directive::ProbeUniform(_) => {
                    pass.run(|rng| Some((ObjectId(rng.gen_range(0..m)), false)))
                }
                Directive::SeekAdvice { fallback } => {
                    pass.run(|rng| Some(Self::advice_probe(&view, fallback, n, m, rng)))
                }
                Directive::Mixed { explore, set } => pass.run(|rng| {
                    Some(if rng.gen::<f64>() < *explore {
                        (set.sample(m, rng), false)
                    } else {
                        Self::advice_probe(&view, set, n, m, rng)
                    })
                }),
                Directive::Idle => pass.run(|_| None),
            }?;
        }
        let phase = self.cohort.phase_info();

        // Keep the tracker's registered tally window in lock-step with the
        // protocol's: cohorts only hold read-only views, so the engine opens
        // each segment's window on their behalf, making the `ℓ_t(i)` queries
        // at the next segment boundary O(1)/O(result).
        if self.config.register_tally_windows && self.open_window_start != Some(phase.window_start)
        {
            self.tracker.open_window(phase.window_start);
            if let Some(lt) = self.lagged_tracker.as_mut() {
                lt.open_window(phase.window_start);
            }
            self.open_window_start = Some(phase.window_start);
        }

        // 3a: non-strongly-adaptive adversaries act before honest posts land.
        let strongly = self.config.info == InfoModel::StronglyAdaptive;
        let mut adv_posts = if !strongly {
            self.call_adversary(round, &phase)
        } else {
            // lint: allow(alloc) — capacity-0 Vec::new never touches the heap
            Vec::new()
        };

        // 4a: honest posts, in player order.
        for post in &self.post_buf {
            let value = self.world.value(post.object);
            self.board
                .append(round, post.player, post.object, value, post.kind)?;
        }

        // 3b: strongly-adaptive adversaries see the honest posts first.
        if strongly {
            self.tracker.ingest(&self.board);
            adv_posts = self.call_adversary(round, &phase);
        }

        // 4b: adversary posts, with transport-level author validation.
        let mut accepted = 0u32;
        for post in adv_posts {
            if !post.is_admissible(self.config.n_honest, self.config.n_players, m) {
                self.forged_rejected += 1;
                continue;
            }
            self.board
                .append(round, post.author, post.object, post.value, post.kind)?;
            accepted += 1;
        }
        if let Some(t) = self.trace.as_mut() {
            t.push(TraceEvent::AdversaryPosts {
                round,
                count: accepted,
            });
        }

        self.tracker.ingest(&self.board);
        if self.config.record_satisfaction_curve {
            self.satisfied_per_round.push(self.n_satisfied);
        }
        self.round = round.next();
        self.rounds_executed += 1;
        Ok(())
    }

    fn advice_probe(
        view: &BoardView<'_>,
        fallback: &crate::cohort::CandidateSet,
        n: u32,
        m: u32,
        rng: &mut SmallRng,
    ) -> (ObjectId, bool) {
        // "Pick a random player j, and probe the object j votes for, if
        // exists." — j ranges over all n players, honest or not.
        let j = PlayerId(rng.gen_range(0..n));
        let votes = view.votes_of(j);
        if votes.is_empty() {
            (fallback.sample(m, rng), false)
        } else {
            let pick = rng.gen_range(0..votes.len());
            (votes[pick].object, true)
        }
    }

    fn call_adversary(
        &mut self,
        round: Round,
        phase: &crate::cohort::PhaseInfo,
    ) -> Vec<crate::adversary::DishonestPost> {
        let view = BoardView::new(&self.board, &self.tracker, round);
        let mut ctx = AdversaryCtx {
            round,
            view: &view,
            dishonest: &self.dishonest,
            phase,
            world: self.world,
            info: self.config.info,
            rng: &mut self.adv_rng,
        };
        self.adversary.on_round(&mut ctx)
    }

    /// Drains the measurements into a [`SimResult`]. Buffers that escape into
    /// the result (`outcomes`, `satisfied_per_round`, `trace`) are taken;
    /// [`reset`](Engine::reset) re-establishes them.
    fn finalize(&mut self) -> SimResult {
        let final_eval = if self.world.model().has_local_testing() {
            None
        } else {
            let found_good: Vec<bool> = self
                .best_probe
                .iter()
                .map(|bp| bp.is_some_and(|(o, _)| self.world.is_good(o)))
                .collect();
            let success_fraction = if found_good.is_empty() {
                0.0
            } else {
                found_good.iter().filter(|&&g| g).count() as f64 / found_good.len() as f64
            };
            Some(FinalEval {
                found_good,
                success_fraction,
            })
        };
        SimResult {
            rounds: self.rounds_executed,
            all_satisfied: self.n_satisfied == self.config.n_honest,
            players: std::mem::take(&mut self.outcomes),
            satisfied_per_round: std::mem::take(&mut self.satisfied_per_round),
            posts_total: self.board.len(),
            forged_rejected: self.forged_rejected,
            notes: self.cohort.notes(),
            final_eval,
            faults: self.fault_counters,
            trace: self.trace.take(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{DishonestPost, NullAdversary};
    use crate::cohort::{CandidateSet, PhaseInfo};
    use crate::faults::FaultPlan;
    use distill_billboard::VotePolicy;

    /// Probe uniformly at random every round.
    #[derive(Debug)]
    struct Trivial;
    impl Cohort for Trivial {
        fn directive(&mut self, _view: &BoardView<'_>) -> Directive {
            Directive::ProbeUniform(CandidateSet::All)
        }
        fn phase_info(&self) -> PhaseInfo {
            PhaseInfo::plain("trivial")
        }
        fn name(&self) -> &'static str {
            "trivial"
        }
        fn notes(&self) -> Vec<(String, f64)> {
            vec![("marker".into(), 1.0)]
        }
    }

    /// Always follow advice (fallback: uniform).
    #[derive(Debug)]
    struct AdviceOnly;
    impl Cohort for AdviceOnly {
        fn directive(&mut self, _view: &BoardView<'_>) -> Directive {
            Directive::SeekAdvice {
                fallback: CandidateSet::All,
            }
        }
        fn phase_info(&self) -> PhaseInfo {
            PhaseInfo::plain("advice")
        }
        fn name(&self) -> &'static str {
            "advice-only"
        }
    }

    /// An adversary that tries to forge an honest author every round.
    #[derive(Debug)]
    struct Forger;
    impl Adversary for Forger {
        fn on_round(&mut self, _ctx: &mut AdversaryCtx<'_, '_>) -> Vec<DishonestPost> {
            vec![DishonestPost::vote(PlayerId(0), ObjectId(0))] // player 0 is honest
        }
        fn name(&self) -> &'static str {
            "forger"
        }
    }

    fn small_world() -> World {
        World::binary(16, 2, 11).unwrap()
    }

    #[test]
    fn trivial_cohort_satisfies_everyone() {
        let world = small_world();
        let config = SimConfig::new(8, 8, 3).with_stop(StopRule::all_satisfied(100_000));
        let engine =
            Engine::new(config, &world, Box::new(Trivial), Box::new(NullAdversary)).unwrap();
        let result = engine.run().unwrap();
        assert!(result.all_satisfied);
        assert_eq!(result.satisfied_count(), 8);
        assert!(result.mean_probes() >= 1.0);
        assert_eq!(result.note("marker"), Some(1.0));
        assert!(result.final_eval.is_none());
    }

    #[test]
    fn runs_are_deterministic_in_seed() {
        let world = small_world();
        let mk = |seed| {
            let config = SimConfig::new(8, 6, seed);
            Engine::new(config, &world, Box::new(Trivial), Box::new(NullAdversary))
                .unwrap()
                .run()
                .unwrap()
        };
        let a = mk(5);
        let b = mk(5);
        let c = mk(6);
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.mean_probes(), b.mean_probes());
        assert_eq!(a.satisfied_per_round, b.satisfied_per_round);
        // different seeds almost surely diverge in some statistic
        assert!(
            a.rounds != c.rounds
                || a.mean_probes() != c.mean_probes()
                || a.posts_total != c.posts_total
        );
    }

    #[test]
    fn advice_spreads_satisfaction() {
        // With one pre-satisfied player holding a good vote, advice-following
        // players should converge quickly.
        let world = small_world();
        let good = world.good_objects()[0];
        let config = SimConfig::new(8, 8, 9)
            .with_pre_satisfied(vec![(PlayerId(0), good)])
            .with_stop(StopRule::all_satisfied(10_000));
        let engine = Engine::new(
            config,
            &world,
            Box::new(AdviceOnly),
            Box::new(NullAdversary),
        )
        .unwrap();
        let result = engine.run().unwrap();
        assert!(result.all_satisfied);
        // player 0 never probed
        assert_eq!(result.players[0].probes, 0);
        assert_eq!(result.players[0].satisfied_round, Some(Round(0)));
        // advice probes dominate
        let advice: u64 = result.players.iter().map(|p| p.advice_probes).sum();
        assert!(advice > 0);
    }

    #[test]
    fn forged_posts_are_rejected() {
        let world = small_world();
        let config = SimConfig::new(8, 6, 1).with_stop(StopRule::all_satisfied(1_000));
        let engine = Engine::new(config, &world, Box::new(Trivial), Box::new(Forger)).unwrap();
        let result = engine.run().unwrap();
        assert!(result.forged_rejected > 0);
        assert!(result.all_satisfied);
    }

    #[test]
    fn horizon_runs_stop_on_time() {
        let world = World::uniform_top_beta(32, 0.1, 3).unwrap();
        let config = SimConfig::new(8, 8, 2)
            .with_policy(VotePolicy::best_value())
            .with_stop(StopRule::horizon(50));
        let engine =
            Engine::new(config, &world, Box::new(Trivial), Box::new(NullAdversary)).unwrap();
        let result = engine.run().unwrap();
        assert_eq!(result.rounds, 50);
        let eval = result.final_eval.expect("no-LT runs produce a final eval");
        assert_eq!(eval.found_good.len(), 8);
        // with 50 uniform probes over 32 objects, nearly everyone has seen a
        // top-decile object
        assert!(eval.success_fraction > 0.5);
    }

    #[test]
    fn config_world_mismatch_is_rejected() {
        let lt_world = small_world();
        let err = Engine::new(
            SimConfig::new(4, 4, 0).with_policy(VotePolicy::best_value()),
            &lt_world,
            Box::new(Trivial),
            Box::new(NullAdversary),
        )
        .err()
        .unwrap();
        assert!(matches!(err, SimError::InvalidConfig(_)));

        let nolt_world = World::uniform_top_beta(16, 0.2, 0).unwrap();
        // best-value policy but no horizon:
        let err = Engine::new(
            SimConfig::new(4, 4, 0).with_policy(VotePolicy::best_value()),
            &nolt_world,
            Box::new(Trivial),
            Box::new(NullAdversary),
        )
        .err()
        .unwrap();
        assert!(matches!(err, SimError::InvalidConfig(_)));
    }

    #[test]
    fn pre_satisfied_vote_must_be_good() {
        let world = small_world();
        let bad = world.bad_objects()[0];
        let err = Engine::new(
            SimConfig::new(4, 4, 0).with_pre_satisfied(vec![(PlayerId(0), bad)]),
            &world,
            Box::new(Trivial),
            Box::new(NullAdversary),
        )
        .err()
        .unwrap();
        assert!(matches!(err, SimError::InvalidConfig(_)));
    }

    #[test]
    fn pre_satisfied_player_must_be_honest() {
        // Regression: a pre-satisfied entry naming a player id ≥ n_honest
        // used to panic with index-out-of-bounds when seeding the
        // satisfaction flags; it must be an InvalidConfig error like the
        // object-side checks above.
        let world = small_world();
        let good = world.good_objects()[0];
        for player in [PlayerId(4), PlayerId(7), PlayerId(99)] {
            let err = Engine::new(
                SimConfig::new(8, 4, 0).with_pre_satisfied(vec![(player, good)]),
                &world,
                Box::new(Trivial),
                Box::new(NullAdversary),
            )
            .err()
            .unwrap_or_else(|| panic!("pre-satisfied {player} must be rejected"));
            assert!(matches!(err, SimError::InvalidConfig(_)));
        }
        // Boundary: the last honest player is fine.
        assert!(Engine::new(
            SimConfig::new(8, 4, 0).with_pre_satisfied(vec![(PlayerId(3), good)]),
            &world,
            Box::new(Trivial),
            Box::new(NullAdversary),
        )
        .is_ok());
    }

    #[test]
    fn max_rounds_safety_valve() {
        // A world where the only good object exists but the cohort idles:
        #[derive(Debug)]
        struct Idler;
        impl Cohort for Idler {
            fn directive(&mut self, _v: &BoardView<'_>) -> Directive {
                Directive::Idle
            }
            fn phase_info(&self) -> PhaseInfo {
                PhaseInfo::plain("idle")
            }
            fn name(&self) -> &'static str {
                "idler"
            }
        }
        let world = small_world();
        let config = SimConfig::new(4, 4, 0).with_stop(StopRule::all_satisfied(25));
        let result = Engine::new(config, &world, Box::new(Idler), Box::new(NullAdversary))
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(result.rounds, 25);
        assert!(!result.all_satisfied);
        assert_eq!(result.total_probes(), 0);
    }

    #[test]
    fn trace_records_events() {
        let world = small_world();
        let config = SimConfig::new(4, 4, 7)
            .with_trace(true)
            .with_stop(StopRule::all_satisfied(10_000));
        let result = Engine::new(config, &world, Box::new(Trivial), Box::new(NullAdversary))
            .unwrap()
            .run()
            .unwrap();
        let trace = result.trace.as_ref().expect("trace requested");
        assert!(trace
            .iter()
            .any(|e| matches!(e, TraceEvent::RoundStart { .. })));
        assert!(trace.iter().any(|e| matches!(e, TraceEvent::Probe { .. })));
        assert!(trace
            .iter()
            .any(|e| matches!(e, TraceEvent::Satisfied { .. })));
        let probes = trace
            .iter()
            .filter(|e| matches!(e, TraceEvent::Probe { .. }))
            .count() as u64;
        assert_eq!(probes, result.total_probes());
    }

    #[test]
    fn negative_reports_can_be_disabled() {
        let world = small_world();
        let on = Engine::new(
            SimConfig::new(8, 8, 4),
            &world,
            Box::new(Trivial),
            Box::new(NullAdversary),
        )
        .unwrap()
        .run()
        .unwrap();
        let off = Engine::new(
            SimConfig::new(8, 8, 4).with_negative_reports(false),
            &world,
            Box::new(Trivial),
            Box::new(NullAdversary),
        )
        .unwrap()
        .run()
        .unwrap();
        // Identical executions (same seeds, negatives never change votes),
        // but fewer posts without negatives.
        assert_eq!(on.rounds, off.rounds);
        assert!(off.posts_total <= on.posts_total);
    }

    /// Records how many posts were visible on each adversary call.
    #[derive(Debug, Default)]
    struct ViewProbe {
        seen: std::sync::Arc<std::sync::Mutex<Vec<usize>>>,
    }
    impl Adversary for ViewProbe {
        fn on_round(&mut self, ctx: &mut AdversaryCtx<'_, '_>) -> Vec<DishonestPost> {
            self.seen.lock().unwrap().push(ctx.view.posts().len());
            Vec::new()
        }
        fn name(&self) -> &'static str {
            "view-probe"
        }
    }

    #[test]
    fn info_models_control_what_the_adversary_sees() {
        use crate::adversary::InfoModel;
        let world = small_world();
        let run = |info: InfoModel| {
            let probe = ViewProbe::default();
            let seen = std::sync::Arc::clone(&probe.seen);
            let config = SimConfig::new(8, 6, 7)
                .with_info(info)
                .with_negative_reports(true)
                .with_stop(StopRule::all_satisfied(50));
            let result = Engine::new(config, &world, Box::new(Trivial), Box::new(probe))
                .unwrap()
                .run()
                .unwrap();
            (
                result,
                std::sync::Arc::try_unwrap(seen)
                    .unwrap()
                    .into_inner()
                    .unwrap(),
            )
        };
        let (res_a, seen_adaptive) = run(InfoModel::Adaptive);
        let (res_s, seen_strong) = run(InfoModel::StronglyAdaptive);
        // Adaptive: in round 0 the adversary sees an empty board (honest
        // round-0 posts land after its call).
        assert_eq!(
            seen_adaptive[0], 0,
            "adaptive must not see round-0 honest posts"
        );
        // Strongly adaptive: round 0's honest posts are already visible.
        assert!(
            seen_strong[0] >= 6,
            "strongly-adaptive must see the current round's honest posts, saw {}",
            seen_strong[0]
        );
        // In both models, by the second call the first round's posts are in.
        assert!(seen_adaptive.len() > 1 && seen_adaptive[1] >= 6);
        assert!(res_a.all_satisfied && res_s.all_satisfied);
    }

    #[test]
    fn straggler_sleeps_then_joins() {
        use crate::config::Participation;
        let world = small_world();
        let config = SimConfig::new(8, 8, 6)
            .with_participation(Participation::Straggler {
                player: PlayerId(0),
                until_round: 10,
            })
            .with_stop(StopRule::all_satisfied(10_000));
        let result = Engine::new(
            config,
            &world,
            Box::new(AdviceOnly),
            Box::new(NullAdversary),
        )
        .unwrap()
        .run()
        .unwrap();
        assert!(result.all_satisfied);
        // Player 0 did nothing for its first 10 rounds.
        if let Some(r) = result.players[0].satisfied_round {
            assert!(r >= Round(10));
        }
        assert!(result.players[0].probes <= result.rounds.saturating_sub(10));
    }

    #[test]
    fn round_robin_quarters_the_probe_rate() {
        use crate::config::Participation;
        let world = small_world();
        let horizonful = |participation| {
            let config = SimConfig::new(4, 4, 6)
                .with_participation(participation)
                .with_stop(StopRule::all_satisfied(40));
            // Idle-proof cohort that never finds anything: probe only bad
            // objects is impossible to guarantee, so just compare totals with
            // a generous margin.
            Engine::new(config, &world, Box::new(Trivial), Box::new(NullAdversary))
                .unwrap()
                .run()
                .unwrap()
        };
        let full = horizonful(Participation::Full);
        let quartered = horizonful(Participation::RoundRobin { groups: 4 });
        // Per executed round, round-robin makes ~1/4 the probes.
        let full_rate = full.total_probes() as f64 / full.rounds as f64;
        let quarter_rate = quartered.total_probes() as f64 / quartered.rounds as f64;
        assert!(
            quarter_rate < full_rate,
            "round-robin must slow the probe rate ({quarter_rate} vs {full_rate})"
        );
    }

    #[test]
    fn random_subset_participation_still_terminates() {
        use crate::config::Participation;
        let world = small_world();
        let config = SimConfig::new(8, 8, 16)
            .with_participation(Participation::RandomSubset { p: 0.3 })
            .with_stop(StopRule::all_satisfied(100_000));
        let result = Engine::new(config, &world, Box::new(Trivial), Box::new(NullAdversary))
            .unwrap()
            .run()
            .unwrap();
        assert!(result.all_satisfied);
    }

    #[test]
    fn out_of_range_candidate_set_is_an_error_not_a_panic() {
        // Regression: a hostile (or buggy) cohort handing back a Subset with
        // an object id outside the universe used to crash the engine with an
        // index-out-of-bounds panic when the world was consulted for the
        // probe's value; it must surface as SimError::InvalidDirective.
        #[derive(Debug)]
        struct Rogue(Vec<ObjectId>);
        impl Cohort for Rogue {
            fn directive(&mut self, _v: &BoardView<'_>) -> Directive {
                Directive::ProbeUniform(CandidateSet::subset(self.0.clone()))
            }
            fn phase_info(&self) -> PhaseInfo {
                PhaseInfo::plain("rogue")
            }
            fn name(&self) -> &'static str {
                "rogue"
            }
        }
        let world = small_world();
        let config = SimConfig::new(4, 4, 0).with_stop(StopRule::all_satisfied(25));
        let rogue = Box::new(Rogue(vec![ObjectId(999)]));
        let err = Engine::new(config, &world, rogue, Box::new(NullAdversary))
            .unwrap()
            .run()
            .unwrap_err();
        assert!(
            matches!(err, SimError::InvalidDirective(ref msg) if msg.contains("999")),
            "expected InvalidDirective, got {err:?}"
        );

        // Mixed with the good object, the rogue id comes up only after some
        // players have probed, been charged and been satisfied; none of the
        // failing round's honest posts may reach the board.
        let good = world.good_objects()[0];
        let config = SimConfig::new(64, 64, 1).with_stop(StopRule::all_satisfied(25));
        let rogue = Box::new(Rogue(vec![good, good, good, ObjectId(999)]));
        let mut engine = Engine::new(config, &world, rogue, Box::new(NullAdversary)).unwrap();
        let err = engine.step().unwrap_err();
        assert!(
            matches!(err, SimError::InvalidDirective(ref msg) if msg.contains("999")),
            "expected InvalidDirective, got {err:?}"
        );
        assert!(
            engine.satisfied_count() > 0,
            "players ahead of the rogue draw probed the good object"
        );
        assert!(
            engine.board().is_empty(),
            "an honest post of the failing round reached the board"
        );
    }

    #[test]
    fn dropped_posts_never_reach_the_board_but_probes_still_count() {
        let world = small_world();
        let config = SimConfig::new(8, 8, 21)
            .with_faults(FaultPlan::none().with_drop_rate(1.0))
            .with_trace(true)
            .with_stop(StopRule::all_satisfied(10_000));
        let result = Engine::new(config, &world, Box::new(Trivial), Box::new(NullAdversary))
            .unwrap()
            .run()
            .unwrap();
        // Local testing is local: everyone still satisfies themselves …
        assert!(result.all_satisfied);
        assert!(result.total_probes() > 0);
        // … but with every post dropped, nothing ever lands on the board.
        assert_eq!(result.posts_total, 0);
        assert_eq!(result.faults.posts_dropped, result.total_probes());
        let trace = result.trace.as_ref().expect("trace requested");
        let dropped = trace
            .iter()
            .filter(|e| matches!(e, TraceEvent::PostDropped { .. }))
            .count() as u64;
        assert_eq!(dropped, result.faults.posts_dropped);
    }

    #[test]
    fn crash_stop_shrinks_the_cohort_and_still_terminates() {
        let world = small_world();
        let config = SimConfig::new(8, 8, 13)
            .with_faults(
                FaultPlan::none()
                    .with_crash_rate(1.0)
                    .with_crash_window(1)
                    .with_recovery_rate(0.0),
            )
            .with_trace(true)
            .with_stop(StopRule::all_satisfied(10_000));
        let result = Engine::new(config, &world, Box::new(Trivial), Box::new(NullAdversary))
            .unwrap()
            .run()
            .unwrap();
        // Everyone crashes in round 0 and never probes: the run must stop
        // immediately (terminal players) instead of spinning to the cap.
        assert!(!result.all_satisfied);
        assert_eq!(result.faults.crashes, 8);
        assert_eq!(result.total_probes(), 0);
        assert!(result.rounds <= 1);
        for p in &result.players {
            assert_eq!(p.crash_round, Some(Round(0)));
        }
        assert!(result
            .trace
            .as_ref()
            .unwrap()
            .iter()
            .any(|e| matches!(e, TraceEvent::PlayerCrashed { .. })));
    }

    #[test]
    fn crash_recovery_rejoins_with_votes_intact() {
        let world = small_world();
        let config = SimConfig::new(8, 8, 17)
            .with_faults(
                FaultPlan::none()
                    .with_crash_rate(1.0)
                    .with_crash_window(2)
                    .with_recovery_rate(1.0),
            )
            .with_trace(true)
            .with_stop(StopRule::all_satisfied(100_000));
        let result = Engine::new(config, &world, Box::new(Trivial), Box::new(NullAdversary))
            .unwrap()
            .run()
            .unwrap();
        // With certain recovery the whole cohort eventually satisfies.
        assert!(result.all_satisfied);
        assert!(result.faults.crashes > 0);
        assert!(result.faults.recoveries > 0);
        assert!(result
            .trace
            .as_ref()
            .unwrap()
            .iter()
            .any(|e| matches!(e, TraceEvent::PlayerRecovered { .. })));
    }

    /// Records the number of visible posts on every directive call.
    #[derive(Debug, Default)]
    struct LenRecorder {
        seen: std::sync::Arc<std::sync::Mutex<Vec<usize>>>,
    }
    impl Cohort for LenRecorder {
        fn directive(&mut self, view: &BoardView<'_>) -> Directive {
            self.seen.lock().unwrap().push(view.posts().len());
            Directive::ProbeUniform(CandidateSet::All)
        }
        fn phase_info(&self) -> PhaseInfo {
            PhaseInfo::plain("len-recorder")
        }
        fn name(&self) -> &'static str {
            "len-recorder"
        }
    }

    #[test]
    fn lagged_views_trail_fresh_views_by_exactly_the_lag() {
        // The recorder ignores what it sees, so the lagged and fresh runs
        // execute identically and their per-round visible-post counts are
        // directly comparable: lagged round r sees what fresh round r − L saw.
        let world = small_world();
        const LAG: u64 = 2;
        let record = |lag: u64| {
            let recorder = LenRecorder::default();
            let seen = std::sync::Arc::clone(&recorder.seen);
            let config = SimConfig::new(8, 8, 19)
                .with_faults(FaultPlan::none().with_view_lag(lag))
                .with_stop(StopRule::all_satisfied(10_000));
            let result = Engine::new(config, &world, Box::new(recorder), Box::new(NullAdversary))
                .unwrap()
                .run()
                .unwrap();
            let seen = std::sync::Arc::try_unwrap(seen)
                .unwrap()
                .into_inner()
                .unwrap();
            (result, seen)
        };
        let (fresh_result, fresh_seen) = record(0);
        let (lagged_result, lagged_seen) = record(LAG);
        // identical executions (the view is never consulted)
        assert_eq!(fresh_result.rounds, lagged_result.rounds);
        assert_eq!(fresh_result.posts_total, lagged_result.posts_total);
        for (r, &len) in lagged_seen.iter().enumerate() {
            let expected = if (r as u64) < LAG {
                0
            } else {
                fresh_seen[r - usize::try_from(LAG).unwrap()]
            };
            assert_eq!(len, expected, "lagged view at round {r}");
        }
    }

    #[test]
    fn noop_fault_plan_is_bit_identical_to_no_plan() {
        let world = small_world();
        let run = |config: SimConfig| {
            Engine::new(config, &world, Box::new(Trivial), Box::new(NullAdversary))
                .unwrap()
                .run()
                .unwrap()
        };
        let plain = run(SimConfig::new(8, 6, 23).with_trace(true));
        let with_noop_plan = run(SimConfig::new(8, 6, 23)
            .with_trace(true)
            .with_faults(FaultPlan::none()));
        assert_eq!(plain, with_noop_plan);
        assert!(plain.faults.is_empty());
    }

    #[test]
    fn faulted_runs_are_deterministic_in_seed() {
        let world = small_world();
        let run = |seed: u64| {
            let config = SimConfig::new(8, 6, seed)
                .with_faults(
                    FaultPlan::none()
                        .with_drop_rate(0.3)
                        .with_view_lag(1)
                        .with_crash_rate(0.25)
                        .with_crash_window(8)
                        .with_recovery_rate(0.2),
                )
                .with_trace(true)
                .with_stop(StopRule::all_satisfied(50_000));
            Engine::new(config, &world, Box::new(Trivial), Box::new(NullAdversary))
                .unwrap()
                .run()
                .unwrap()
        };
        let a = run(31);
        let b = run(31);
        assert_eq!(a, b);
    }

    #[test]
    fn faulted_reset_rerun_matches_fresh() {
        let world = small_world();
        let plan = FaultPlan::none()
            .with_drop_rate(0.2)
            .with_view_lag(2)
            .with_crash_rate(0.5)
            .with_crash_window(4)
            .with_recovery_rate(0.5);
        let config = |seed: u64| {
            SimConfig::new(8, 8, seed)
                .with_faults(plan)
                .with_stop(StopRule::all_satisfied(50_000))
        };
        let fresh = Engine::new(
            config(41),
            &world,
            Box::new(Trivial),
            Box::new(NullAdversary),
        )
        .unwrap()
        .run()
        .unwrap();
        let mut engine = Engine::new(
            config(40),
            &world,
            Box::new(Trivial),
            Box::new(NullAdversary),
        )
        .unwrap();
        engine.run_mut().unwrap();
        engine
            .reset(41, Box::new(Trivial), Box::new(NullAdversary))
            .unwrap();
        let rerun = engine.run_mut().unwrap();
        assert_eq!(fresh, rerun);
    }

    #[test]
    fn honest_error_rate_produces_bad_votes() {
        let world = small_world();
        let config = SimConfig::new(8, 8, 5)
            .with_honest_error_rate(1.0) // always err on bad probes
            .with_policy(VotePolicy::multi_vote(4))
            .with_stop(StopRule::all_satisfied(10_000));
        let engine =
            Engine::new(config, &world, Box::new(Trivial), Box::new(NullAdversary)).unwrap();
        let result = engine.run().unwrap();
        assert!(result.all_satisfied);
        // With error rate 1.0 every bad probe posted a positive report, so
        // there must be more posts than probes-of-good-objects.
        assert!(result.posts_total as u64 >= result.total_probes());
    }
}
