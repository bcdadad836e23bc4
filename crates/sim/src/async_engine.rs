//! The **asynchronous** execution model of the paper's prior work.
//!
//! §1.1: "We considered an asynchronous model, where a basic step is a
//! single player reading the billboard, probing an object, and updating the
//! billboard; the player schedule is assumed to be under the control of the
//! adversary."
//!
//! §1.2 then argues this model cannot support individual-cost bounds: "A
//! schedule that runs a single player by itself forces that player to find
//! the good object on its own without any assistance from any other player."
//! This module makes both halves measurable: an [`AsyncEngine`] executes
//! single-player steps under a pluggable (adversarial) [`Schedule`], with
//! per-step policies for the honest players. Experiment E16 uses it to
//! reproduce the total-cost bound of \[1\] quoted in §1.1
//! (`O(1/β + n·log n)`) and the §1.2 isolation argument.

use crate::adversary::{Adversary, AdversaryCtx, InfoModel};
use crate::cohort::PhaseInfo;
use crate::config::ServicePlan;
use crate::error::SimError;
use crate::faults::{Churn, ChurnEvent, FaultCounters, FaultPlan};
use crate::rng::{stream_rng, Stream};
use crate::world::World;
use distill_billboard::{
    BatchStager, Billboard, BitSet, BoardView, ObjectId, PlayerId, Post, ReportKind, Round, Seq,
    StagedBatch, VotePolicy, VoteTracker,
};
use rand::rngs::SmallRng;
use rand::Rng;

/// Chooses which active honest player takes each step — the adversarially
/// controlled schedule of the asynchronous model.
pub trait Schedule {
    /// Picks the player for step `step` among the still-active honest
    /// players.
    ///
    /// Contract (upheld by [`AsyncEngine`], relied upon by implementations):
    /// `active` is **non-empty** — the engine halts before scheduling an
    /// empty population — and **ascending by player id**, so membership
    /// checks may binary-search.
    fn next(&mut self, step: u64, active: &[PlayerId], rng: &mut SmallRng) -> PlayerId;

    /// A short stable name for reporting.
    fn name(&self) -> &'static str;
}

impl std::fmt::Debug for dyn Schedule + '_ {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Schedule({})", self.name())
    }
}

/// Fair rotation over the active players — the "synchronous-like" schedule
/// under which the paper evaluates the prior algorithm (§1.2 "say, round
/// robin").
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundRobin {
    cursor: usize,
}

impl Schedule for RoundRobin {
    fn next(&mut self, _step: u64, active: &[PlayerId], _rng: &mut SmallRng) -> PlayerId {
        // Invariant (documented on the trait): `active` is non-empty — the
        // engine stops before scheduling an empty population.
        debug_assert!(
            !active.is_empty(),
            "RoundRobin scheduled with no active players"
        );
        // Wrap explicitly *before* indexing: `active` may have shrunk since
        // the last call, which previously made the `cursor % len` position
        // drift arbitrarily (and carried a dead `.max(1)` guard — the index
        // on the line above it would already have panicked on empty input).
        if self.cursor >= active.len() {
            self.cursor = 0;
        }
        let p = active[self.cursor];
        self.cursor += 1;
        p
    }

    fn name(&self) -> &'static str {
        "round-robin"
    }
}

/// A uniformly random active player each step.
#[derive(Debug, Clone, Copy, Default)]
pub struct RandomSchedule;

impl Schedule for RandomSchedule {
    fn next(&mut self, _step: u64, active: &[PlayerId], rng: &mut SmallRng) -> PlayerId {
        active[rng.gen_range(0..active.len())]
    }

    fn name(&self) -> &'static str {
        "random"
    }
}

/// The §1.2 adversarial schedule: run the victim **by itself** until it is
/// satisfied, then fall back to round robin for everyone else. The victim
/// gets zero assistance — its individual cost is forced to `Θ(1/β)`.
#[derive(Debug, Clone, Copy)]
pub struct Isolate {
    victim: PlayerId,
    fallback: RoundRobin,
}

impl Isolate {
    /// Isolates `victim`.
    pub fn new(victim: PlayerId) -> Self {
        Isolate {
            victim,
            fallback: RoundRobin::default(),
        }
    }
}

impl Schedule for Isolate {
    fn next(&mut self, step: u64, active: &[PlayerId], rng: &mut SmallRng) -> PlayerId {
        // `active` is ascending (trait contract), so victim membership is a
        // binary search, not a linear scan per step.
        if active.binary_search(&self.victim).is_ok() {
            self.victim
        } else {
            self.fallback.next(step, active, rng)
        }
    }

    fn name(&self) -> &'static str {
        "isolate"
    }
}

/// The complementary adversarial schedule: starve the victim until every
/// other player is done, then run only the victim. The victim arrives to a
/// billboard full of votes — with a collaboration-aware policy it finishes
/// almost immediately, which is why *starving* is a much weaker attack than
/// *isolating* (timestamped billboards let latecomers catch up, §1.2).
#[derive(Debug, Clone)]
pub struct Starve {
    victim: PlayerId,
    fallback: RoundRobin,
    /// Scratch: the active set minus the victim, rebuilt in place each step
    /// so starving allocates nothing after the first call.
    others: Vec<PlayerId>,
}

impl Starve {
    /// Starves `victim`.
    pub fn new(victim: PlayerId) -> Self {
        Starve {
            victim,
            fallback: RoundRobin::default(),
            others: Vec::new(),
        }
    }
}

impl Schedule for Starve {
    fn next(&mut self, step: u64, active: &[PlayerId], rng: &mut SmallRng) -> PlayerId {
        self.others.clear();
        self.others
            .extend(active.iter().copied().filter(|&p| p != self.victim));
        if self.others.is_empty() {
            self.victim
        } else {
            self.fallback.next(step, &self.others, rng)
        }
    }

    fn name(&self) -> &'static str {
        "starve"
    }
}

/// What one honest player does on its step: read the billboard, pick one
/// object to probe.
pub trait StepPolicy {
    /// Chooses the object to probe.
    fn probe(&mut self, player: PlayerId, view: &BoardView<'_>, rng: &mut SmallRng) -> ObjectId;

    /// A short stable name for reporting.
    fn name(&self) -> &'static str;
}

impl std::fmt::Debug for dyn StepPolicy + '_ {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "StepPolicy({})", self.name())
    }
}

/// The asynchronous rendition of the balance rule of \[1\]: flip a fair coin —
/// probe a uniformly random object, or follow the vote of a uniformly random
/// player (falling back to a random object if that player has none).
#[derive(Debug, Clone, Copy)]
pub struct BalanceStep {
    explore: f64,
}

impl BalanceStep {
    /// The fair-coin rule.
    pub fn new() -> Self {
        BalanceStep { explore: 0.5 }
    }
}

impl Default for BalanceStep {
    fn default() -> Self {
        BalanceStep::new()
    }
}

impl StepPolicy for BalanceStep {
    fn probe(&mut self, _player: PlayerId, view: &BoardView<'_>, rng: &mut SmallRng) -> ObjectId {
        let m = view.n_objects();
        if rng.gen::<f64>() < self.explore {
            ObjectId(rng.gen_range(0..m))
        } else {
            let j = PlayerId(rng.gen_range(0..view.n_players()));
            view.vote_of(j)
                .unwrap_or_else(|| ObjectId(rng.gen_range(0..m)))
        }
    }

    fn name(&self) -> &'static str {
        "balance"
    }
}

/// Pure random probing (the §3 trivial algorithm, asynchronously).
#[derive(Debug, Clone, Copy, Default)]
pub struct RandomStep;

impl StepPolicy for RandomStep {
    fn probe(&mut self, _player: PlayerId, view: &BoardView<'_>, rng: &mut SmallRng) -> ObjectId {
        ObjectId(rng.gen_range(0..view.n_objects()))
    }

    fn name(&self) -> &'static str {
        "random"
    }
}

/// Per-player outcome of an asynchronous run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AsyncPlayerOutcome {
    /// Probes (= scheduled steps while active).
    pub probes: u64,
    /// Total cost paid.
    pub cost_paid: f64,
    /// The global step at which the player got satisfied.
    pub satisfied_step: Option<u64>,
}

/// Transport statistics of a service-mode run (see
/// [`AsyncEngine::with_service`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceCounters {
    /// Batches flushed out of the staging buffers.
    pub batches_submitted: u64,
    /// Batches released by the reorder buffer onto the board.
    pub batches_applied: u64,
    /// Posts routed through the service transport.
    pub posts_submitted: u64,
    /// Batches that arrived ahead of a sequence gap and had to wait.
    pub held_out_of_order: u64,
    /// High-water mark of batches parked in the reorder buffer.
    pub max_pending: usize,
    /// Partial batches force-flushed by the end-of-run drain.
    pub shutdown_flushes: u64,
}

/// A post waiting in a producer's staging buffer (no seq/round yet — both
/// are stamped at flush time, so submission order is sequence order).
#[derive(Debug, Clone, Copy)]
struct PendingDraft {
    author: PlayerId,
    object: ObjectId,
    value: f64,
    kind: ReportKind,
}

/// The in-simulation service transport: sharded staging buffers, delayed
/// in-flight batches, and the reorder buffer that restores sequence order.
#[derive(Debug)]
struct ServiceState {
    plan: ServicePlan,
    /// One staging buffer per simulated producer, sharded by author id.
    buffers: Vec<Vec<PendingDraft>>,
    /// Next sequence number to allocate at flush time.
    next_seq: u64,
    stager: BatchStager,
    /// Submitted batches awaiting delivery: `(deliver_at_step, batch)`.
    in_flight: Vec<(u64, StagedBatch)>,
    /// Reused drain buffer for due deliveries.
    due_scratch: Vec<StagedBatch>,
    batches_submitted: u64,
    posts_submitted: u64,
    shutdown_flushes: u64,
}

/// Outcome of an asynchronous run.
#[derive(Debug, Clone)]
pub struct AsyncResult {
    /// Total steps executed.
    pub steps: u64,
    /// `true` iff every honest player found a good object.
    pub all_satisfied: bool,
    /// Per honest player.
    pub players: Vec<AsyncPlayerOutcome>,
    /// Fault-injection event counts (all zero in fault-free runs).
    pub faults: FaultCounters,
    /// Service-transport statistics; `None` for direct-mode runs.
    pub service: Option<ServiceCounters>,
}

impl AsyncResult {
    /// Total probes by honest players — the *total cost* measure of \[1\].
    pub fn total_probes(&self) -> u64 {
        self.players.iter().map(|p| p.probes).sum()
    }

    /// Probes of one player (the individual cost under this schedule).
    pub fn probes_of(&self, player: PlayerId) -> u64 {
        self.players[player.index()].probes
    }
}

/// The asynchronous engine: repeatedly schedules a single honest player for
/// a read-probe-post step; the adversary may post after every step.
pub struct AsyncEngine<'w> {
    world: &'w World,
    n: u32,
    n_honest: u32,
    board: Billboard,
    tracker: VoteTracker,
    /// Satisfaction flags, one bit per honest player (packed `u64` words,
    /// matching the synchronous engine's struct-of-arrays layout).
    satisfied: BitSet,
    /// Unsatisfied honest players, ascending — maintained incrementally on
    /// satisfaction instead of being re-collected every step (the dominant
    /// cost of the old per-step `active()` scan at large `n`).
    active: Vec<PlayerId>,
    outcomes: Vec<AsyncPlayerOutcome>,
    player_rngs: Vec<SmallRng>,
    sched_rng: SmallRng,
    adv_rng: SmallRng,
    policy: Box<dyn StepPolicy>,
    schedule: Box<dyn Schedule>,
    adversary: Box<dyn Adversary>,
    dishonest: Vec<PlayerId>,
    step: u64,
    max_steps: u64,
    faults: FaultPlan,
    faults_rng: SmallRng,
    /// The crash schedule (in steps) and the currently crashed players.
    churn: Churn,
    fault_counters: FaultCounters,
    /// Stale-read tracker, fed via `ingest_until` at the lag cutoff; present
    /// only when the plan sets `view_lag > 0`.
    lagged_tracker: Option<VoteTracker>,
    /// Service-transport state; `None` in direct mode.
    service: Option<ServiceState>,
    /// Delivery-delay draws for service mode. Built unconditionally (like
    /// `faults_rng`) but consumed only by plans with a positive
    /// `max_delivery_delay`, so delay-free runs stay bit-identical to
    /// direct mode.
    service_rng: SmallRng,
}

impl std::fmt::Debug for AsyncEngine<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AsyncEngine")
            .field("step", &self.step)
            .field("policy", &self.policy.name())
            .field("schedule", &self.schedule.name())
            .finish()
    }
}

impl<'w> AsyncEngine<'w> {
    /// Builds an asynchronous execution.
    ///
    /// # Errors
    /// Returns [`SimError::InvalidConfig`] for empty populations or a
    /// non-local-testing world (the asynchronous model of \[1\] assumes
    /// players recognize good objects).
    #[expect(
        clippy::too_many_arguments,
        reason = "the population, seed, step cap, world, step policy, schedule and adversary are independent inputs of the asynchronous model"
    )]
    pub fn new(
        n: u32,
        n_honest: u32,
        seed: u64,
        max_steps: u64,
        world: &'w World,
        policy: Box<dyn StepPolicy>,
        schedule: Box<dyn Schedule>,
        adversary: Box<dyn Adversary>,
    ) -> Result<Self, SimError> {
        if n == 0 || n_honest == 0 || n_honest > n {
            return Err(SimError::InvalidConfig(format!(
                "need 1 ≤ n_honest ({n_honest}) ≤ n ({n})"
            )));
        }
        if !world.model().has_local_testing() {
            return Err(SimError::InvalidConfig(
                "the asynchronous model requires local testing".into(),
            ));
        }
        Ok(AsyncEngine {
            world,
            n,
            n_honest,
            board: Billboard::new(n, world.m()),
            tracker: VoteTracker::new(n, world.m(), VotePolicy::single_vote()),
            satisfied: BitSet::new(n_honest as usize),
            active: (0..n_honest).map(PlayerId).collect(),
            outcomes: vec![
                AsyncPlayerOutcome {
                    probes: 0,
                    cost_paid: 0.0,
                    satisfied_step: None,
                };
                n_honest as usize
            ],
            player_rngs: (0..n_honest)
                .map(|p| stream_rng(seed, Stream::Player(p)))
                .collect(),
            sched_rng: stream_rng(seed, Stream::Aux(1)),
            adv_rng: stream_rng(seed, Stream::Adversary),
            policy,
            schedule,
            adversary,
            dishonest: (n_honest..n).map(PlayerId).collect(),
            step: 0,
            max_steps,
            faults: FaultPlan::default(),
            faults_rng: stream_rng(seed, Stream::Faults),
            churn: Churn::new(n_honest),
            fault_counters: FaultCounters::default(),
            lagged_tracker: None,
            service: None,
            service_rng: stream_rng(seed, Stream::Aux(2)),
        })
    }

    /// Installs a fault plan (asynchronous semantics: `crash_window` and
    /// `view_lag` are measured in *steps* rather than rounds; drop and
    /// recovery probabilities are per step).
    ///
    /// Crash schedules are drawn here from the dedicated fault stream, so an
    /// engine built without `with_faults` — or with a no-op plan — consumes
    /// nothing from it and executes bit-identically to the pre-fault engine.
    ///
    /// # Errors
    /// Returns [`SimError::InvalidConfig`] when the plan's probabilities are
    /// out of range.
    pub fn with_faults(mut self, plan: FaultPlan) -> Result<Self, SimError> {
        plan.validate()
            .map_err(|msg| SimError::InvalidConfig(format!("fault plan: {msg}")))?;
        self.faults = plan;
        self.churn.start(&plan, &mut self.faults_rng, self.n_honest);
        self.lagged_tracker = (plan.view_lag > 0)
            .then(|| VoteTracker::new(self.n, self.world.m(), VotePolicy::single_vote()));
        Ok(self)
    }

    /// Routes all posts (honest and adversarial) through the service
    /// transport: sharded staging buffers, explicit-sequence batch flushes,
    /// adversarially delayed delivery, and a reorder buffer that restores
    /// sequence order before anything reaches the board. The degenerate
    /// plan ([`ServicePlan::is_passthrough`]) is bit-identical to direct
    /// mode; delay draws come from the dedicated `Stream::Aux(2)` stream,
    /// so delay-free plans consume nothing from it.
    ///
    /// # Errors
    /// Returns [`SimError::InvalidConfig`] when the plan is invalid.
    pub fn with_service(mut self, plan: ServicePlan) -> Result<Self, SimError> {
        plan.validate()
            .map_err(|msg| SimError::InvalidConfig(format!("service plan: {msg}")))?;
        let start = Seq(self.board.len() as u64);
        self.service = Some(ServiceState {
            buffers: vec![Vec::new(); plan.producers as usize],
            next_seq: start.0,
            stager: BatchStager::starting_at(start),
            in_flight: Vec::new(),
            due_scratch: Vec::new(),
            batches_submitted: 0,
            posts_submitted: 0,
            shutdown_flushes: 0,
            plan,
        });
        Ok(self)
    }

    /// One post enters the system. Direct mode appends to the board
    /// immediately; service mode stages the draft in its author's shard and
    /// flushes when the shard buffer is full. Returns whether the board
    /// changed (direct appends always do; service submissions only via a
    /// synchronous flush-and-deliver).
    fn submit_post(
        &mut self,
        round: Round,
        author: PlayerId,
        object: ObjectId,
        value: f64,
        kind: ReportKind,
    ) -> Result<bool, SimError> {
        let Some(svc) = self.service.as_mut() else {
            self.board.append(round, author, object, value, kind)?;
            return Ok(true);
        };
        let shard = author.index() % svc.buffers.len();
        svc.buffers[shard].push(PendingDraft {
            author,
            object,
            value,
            kind,
        });
        if svc.buffers[shard].len() >= svc.plan.batch_posts {
            self.flush_shard(shard)
        } else {
            Ok(false)
        }
    }

    /// Flushes one shard's staged drafts as a batch: sequence numbers are
    /// allocated and rounds stamped **now** (submission time), so the
    /// merged log's seq order is submission order and rounds stay monotone
    /// no matter how delivery scrambles. Delivery is immediate when the
    /// plan's delay is zero, otherwise the batch goes in flight until a
    /// step drawn from `[step, step + delay]`.
    fn flush_shard(&mut self, shard: usize) -> Result<bool, SimError> {
        let step = self.step;
        let Some(svc) = self.service.as_mut() else {
            return Ok(false);
        };
        if svc.buffers[shard].is_empty() {
            return Ok(false);
        }
        let round = Round(step);
        let first = svc.next_seq;
        let drafts = &mut svc.buffers[shard];
        let mut posts = Vec::with_capacity(drafts.len());
        for (i, d) in drafts.drain(..).enumerate() {
            posts.push(Post {
                seq: Seq(first + i as u64),
                round,
                author: d.author,
                object: d.object,
                value: d.value,
                kind: d.kind,
            });
        }
        svc.next_seq = first + posts.len() as u64;
        svc.batches_submitted += 1;
        svc.posts_submitted += posts.len() as u64;
        let producer = u32::try_from(shard).unwrap_or(u32::MAX);
        let batch = StagedBatch::new(producer, posts)?;
        let delay = if svc.plan.max_delivery_delay > 0 {
            self.service_rng.gen_range(0..=svc.plan.max_delivery_delay)
        } else {
            0
        };
        if delay == 0 {
            svc.stager.stage(batch)?;
            self.service_apply_ready()
        } else {
            svc.in_flight.push((step.saturating_add(delay), batch));
            Ok(false)
        }
    }

    /// Drains every batch the reorder buffer can release in sequence order
    /// onto the board, then ingests once. Returns whether anything landed.
    fn service_apply_ready(&mut self) -> Result<bool, SimError> {
        let mut applied = false;
        while let Some(batch) = self.service.as_mut().and_then(|svc| svc.stager.pop_ready()) {
            self.board.ingest_batch(batch.posts())?;
            applied = true;
        }
        if applied {
            self.tracker.ingest(&self.board);
        }
        Ok(applied)
    }

    /// Delivers every in-flight batch whose delay has elapsed, in flight
    /// order, then lets the reorder buffer release what became contiguous.
    fn service_deliver_due(&mut self) -> Result<(), SimError> {
        let step = self.step;
        let Some(svc) = self.service.as_mut() else {
            return Ok(());
        };
        if svc.in_flight.is_empty() {
            return Ok(());
        }
        let mut due = std::mem::take(&mut svc.due_scratch);
        due.clear();
        let mut i = 0;
        while i < svc.in_flight.len() {
            if svc.in_flight[i].0 <= step {
                due.push(svc.in_flight.remove(i).1);
            } else {
                i += 1;
            }
        }
        let delivered = !due.is_empty();
        for batch in due.drain(..) {
            svc.stager.stage(batch)?;
        }
        svc.due_scratch = due;
        if delivered {
            self.service_apply_ready()?;
        }
        Ok(())
    }

    /// End-of-run drain: flushes every shard's residue (in shard order),
    /// delivers everything still in flight regardless of delay, and applies
    /// it all, so the final board contains every submitted post.
    fn service_shutdown(&mut self) -> Result<(), SimError> {
        let shards = self.service.as_ref().map_or(0, |svc| svc.buffers.len());
        let mut flushes = 0u64;
        for shard in 0..shards {
            let pending = self
                .service
                .as_ref()
                .is_some_and(|svc| !svc.buffers[shard].is_empty());
            if pending {
                self.flush_shard(shard)?;
                flushes += 1;
            }
        }
        if let Some(svc) = self.service.as_mut() {
            svc.shutdown_flushes = flushes;
            let mut due = std::mem::take(&mut svc.due_scratch);
            due.clear();
            due.extend(svc.in_flight.drain(..).map(|(_, batch)| batch));
            for batch in due.drain(..) {
                svc.stager.stage(batch)?;
            }
            svc.due_scratch = due;
        }
        self.service_apply_ready()?;
        if let Some(svc) = self.service.as_ref() {
            debug_assert!(
                svc.stager.is_drained(),
                "service shutdown left batches in the reorder buffer"
            );
            debug_assert_eq!(
                svc.stager.next_seq().0,
                svc.next_seq,
                "allocated sequence range was not fully applied"
            );
        }
        Ok(())
    }

    /// Snapshot of the transport counters for the result.
    fn service_counters(&self) -> Option<ServiceCounters> {
        self.service.as_ref().map(|svc| {
            let stats = svc.stager.stats();
            ServiceCounters {
                batches_submitted: svc.batches_submitted,
                batches_applied: stats.released,
                posts_submitted: svc.posts_submitted,
                held_out_of_order: stats.held_out_of_order,
                max_pending: stats.max_pending,
                shutdown_flushes: svc.shutdown_flushes,
            }
        })
    }

    /// Crash/recovery bookkeeping for the step that is about to execute:
    /// the shared churn plane decides, and this engine only keeps its
    /// schedulable `active` list in step with it.
    // lint: hot
    fn process_churn(&mut self) {
        self.churn.advance(
            self.step,
            &self.faults,
            &mut self.faults_rng,
            &mut self.fault_counters,
            |event| match event {
                ChurnEvent::Crashed(p) => {
                    if let Ok(pos) = self.active.binary_search(&PlayerId(p)) {
                        self.active.remove(pos);
                    }
                }
                ChurnEvent::Recovered(p) => {
                    // Rejoin with pre-crash votes intact: the billboard kept
                    // every post, so only schedulability changes.
                    if !self.satisfied.contains(p as usize) {
                        let player = PlayerId(p);
                        if let Err(pos) = self.active.binary_search(&player) {
                            self.active.insert(pos, player);
                        }
                    }
                }
            },
        );
    }

    /// `true` while some crashed player could still rejoin and probe.
    fn awaiting_recovery(&self) -> bool {
        self.faults.recovery_rate > 0.0
            && self
                .churn
                .crashed()
                .iter()
                .any(|&p| !self.satisfied.contains(p as usize))
    }

    /// The incrementally-maintained active list's oracle: a from-scratch
    /// rescan of the satisfaction flags.
    fn active_scan(&self) -> Vec<PlayerId> {
        (0..self.n_honest)
            .filter(|&p| !self.satisfied.contains(p as usize) && !self.churn.is_crashed(p))
            .map(PlayerId)
            .collect()
    }

    /// Runs to completion.
    ///
    /// # Errors
    /// Returns [`SimError::InvalidDirective`] if a step policy probes an
    /// object outside the universe, or [`SimError::Billboard`] if a post
    /// violates the billboard's append discipline (an engine bug guard).
    pub fn run(mut self) -> Result<AsyncResult, SimError> {
        self.run_mut()
    }

    /// Runs to completion and additionally hands back the final board and
    /// tracker, so callers (equivalence tests, the service bench) can
    /// compare end states across transports byte for byte.
    ///
    /// # Errors
    /// Same as [`run`](AsyncEngine::run).
    pub fn run_into_parts(mut self) -> Result<(AsyncResult, Billboard, VoteTracker), SimError> {
        let result = self.run_mut()?;
        Ok((result, self.board, self.tracker))
    }

    // lint: hot
    fn run_mut(&mut self) -> Result<AsyncResult, SimError> {
        loop {
            if self.step >= self.max_steps {
                break;
            }
            if self.service.is_some() {
                self.service_deliver_due()?;
            }
            if self.faults.crash_rate > 0.0 {
                self.process_churn();
            }
            if self.active.is_empty() {
                // With recoverable crashed players outstanding the clock
                // keeps ticking (an idle step) until someone rejoins;
                // otherwise the population is terminal and the run ends.
                if self.awaiting_recovery() {
                    self.step += 1;
                    continue;
                }
                break;
            }
            debug_assert_eq!(
                self.active,
                self.active_scan(),
                "incrementally-maintained active list diverged from the flag scan"
            );
            let player = self
                .schedule
                .next(self.step, &self.active, &mut self.sched_rng);
            debug_assert!(
                self.active.binary_search(&player).is_ok(),
                "schedule must pick an active player"
            );
            let round = Round(self.step);

            // the player's read-probe-post step (through a lagged view when
            // the fault plan delays reads)
            let lag_cutoff = Round(self.step.saturating_sub(self.faults.view_lag));
            if let Some(lt) = self.lagged_tracker.as_mut() {
                lt.ingest_until(&self.board, lag_cutoff);
            }
            let object = {
                let view = match self.lagged_tracker.as_ref() {
                    Some(lt) => BoardView::new_lagged(&self.board, lt, round, lag_cutoff),
                    None => BoardView::new(&self.board, &self.tracker, round),
                };
                self.policy
                    .probe(player, &view, &mut self.player_rngs[player.index()])
            };
            if object.0 >= self.world.m() {
                // lint: allow(alloc) — error path that aborts the run; never
                // taken on the per-step fast path
                return Err(SimError::InvalidDirective(format!(
                    "step policy probed object {} outside universe of {} objects",
                    object.0,
                    self.world.m()
                )));
            }
            {
                let outcome = &mut self.outcomes[player.index()];
                outcome.probes += 1;
                outcome.cost_paid += self.world.cost(object);
            }
            let good = self.world.is_good(object);
            let kind = if good {
                ReportKind::Positive
            } else {
                ReportKind::Negative
            };
            // Drop faults suppress the *post*, never the probe: testing is
            // local, so the player still learns the object's goodness.
            if self.faults.drops_post(&mut self.faults_rng) {
                self.fault_counters.posts_dropped += 1;
            } else {
                self.submit_post(round, player, object, self.world.value(object), kind)?;
            }
            if good {
                self.satisfied.insert(player.index());
                self.outcomes[player.index()].satisfied_step = Some(self.step);
                if let Ok(pos) = self.active.binary_search(&player) {
                    self.active.remove(pos);
                }
            }
            self.tracker.ingest(&self.board);

            // the adversary may interleave after every step
            let phase = PhaseInfo::plain("async");
            let posts = {
                let view = BoardView::new(&self.board, &self.tracker, round);
                let mut ctx = AdversaryCtx {
                    round,
                    view: &view,
                    dishonest: &self.dishonest,
                    phase: &phase,
                    world: self.world,
                    info: InfoModel::Adaptive,
                    rng: &mut self.adv_rng,
                };
                self.adversary.on_round(&mut ctx)
            };
            let mut appended = false;
            for post in posts {
                if post.is_admissible(self.n_honest, self.n, self.world.m()) {
                    appended |=
                        self.submit_post(round, post.author, post.object, post.value, post.kind)?;
                }
            }
            if appended {
                self.tracker.ingest(&self.board);
            }
            self.step += 1;
        }
        if self.service.is_some() {
            self.service_shutdown()?;
        }
        Ok(AsyncResult {
            steps: self.step,
            all_satisfied: self.satisfied.count_ones() == self.n_honest as usize,
            players: std::mem::take(&mut self.outcomes),
            faults: self.fault_counters,
            service: self.service_counters(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::NullAdversary;

    fn world() -> World {
        World::binary(64, 4, 3).unwrap()
    }

    fn run(schedule: Box<dyn Schedule>, policy: Box<dyn StepPolicy>, seed: u64) -> AsyncResult {
        let w = world();
        AsyncEngine::new(
            16,
            16,
            seed,
            2_000_000,
            &w,
            policy,
            schedule,
            Box::new(NullAdversary),
        )
        .unwrap()
        .run()
        .unwrap()
    }

    #[test]
    fn round_robin_finishes_everyone() {
        let r = run(
            Box::new(RoundRobin::default()),
            Box::new(BalanceStep::new()),
            1,
        );
        assert!(r.all_satisfied);
        assert!(r.total_probes() >= 16);
        assert_eq!(r.steps, r.total_probes(), "every step is one probe");
    }

    #[test]
    fn random_schedule_finishes_everyone() {
        let r = run(Box::new(RandomSchedule), Box::new(RandomStep), 2);
        assert!(r.all_satisfied);
    }

    #[test]
    fn isolation_forces_solo_search() {
        // The victim is scheduled alone until satisfied: its probes must be
        // ≈ geometric(beta) with no help, i.e. it satisfies before anyone
        // else even takes a step.
        let r = run(
            Box::new(Isolate::new(PlayerId(0))),
            Box::new(BalanceStep::new()),
            3,
        );
        assert!(r.all_satisfied);
        let victim_done = r.players[0].satisfied_step.unwrap();
        for p in 1..16usize {
            if let Some(s) = r.players[p].satisfied_step {
                assert!(
                    s > victim_done,
                    "nobody may finish before the isolated victim"
                );
            }
        }
        assert_eq!(
            r.players[0].probes,
            victim_done + 1,
            "every step until the victim finished belonged to the victim"
        );
    }

    #[test]
    fn starved_player_catches_up_cheaply() {
        let r = run(
            Box::new(Starve::new(PlayerId(0))),
            Box::new(BalanceStep::new()),
            4,
        );
        assert!(r.all_satisfied);
        let victim = r.players[0].probes;
        let mean_other: f64 = r.players[1..].iter().map(|p| p.probes as f64).sum::<f64>() / 15.0;
        assert!(
            (victim as f64) < mean_other * 2.0 + 8.0,
            "a starved-then-released player reads the full billboard and \
             finishes cheaply (victim {victim} vs mean {mean_other})"
        );
    }

    #[test]
    fn async_engine_validates() {
        let w = world();
        assert!(AsyncEngine::new(
            0,
            0,
            0,
            10,
            &w,
            Box::new(RandomStep),
            Box::new(RandomSchedule),
            Box::new(NullAdversary)
        )
        .is_err());
        let topbeta = World::uniform_top_beta(16, 0.25, 0).unwrap();
        assert!(AsyncEngine::new(
            4,
            4,
            0,
            10,
            &topbeta,
            Box::new(RandomStep),
            Box::new(RandomSchedule),
            Box::new(NullAdversary)
        )
        .is_err());
    }

    #[test]
    fn service_passthrough_is_bit_identical_to_direct() {
        let w = world();
        let build = || {
            AsyncEngine::new(
                16,
                16,
                7,
                2_000_000,
                &w,
                Box::new(BalanceStep::new()),
                Box::new(RoundRobin::default()),
                Box::new(NullAdversary),
            )
            .unwrap()
        };
        let (direct, direct_board, direct_tracker) = build().run_into_parts().unwrap();
        // Passthrough plans (batch 1, delay 0) must not perturb anything,
        // for any producer count: same steps, same per-player outcomes,
        // same board posts, same tracker events.
        for producers in [1, 4] {
            let plan = ServicePlan::new(producers);
            assert!(plan.is_passthrough());
            let (result, board, tracker) = build()
                .with_service(plan)
                .unwrap()
                .run_into_parts()
                .unwrap();
            assert_eq!(result.steps, direct.steps);
            assert_eq!(result.players, direct.players);
            assert_eq!(board.posts(), direct_board.posts());
            assert_eq!(tracker.events(), direct_tracker.events());
            let counters = result.service.expect("service mode reports counters");
            assert_eq!(counters.posts_submitted, board.len() as u64);
            assert_eq!(counters.batches_applied, counters.batches_submitted);
            assert_eq!(counters.held_out_of_order, 0);
            assert_eq!(counters.shutdown_flushes, 0);
        }
        assert!(direct.service.is_none(), "direct mode has no counters");
    }

    #[test]
    fn service_mode_with_delays_applies_every_post() {
        let w = world();
        let plan = ServicePlan::new(3)
            .with_batch_posts(4)
            .with_max_delivery_delay(6);
        let build = || {
            AsyncEngine::new(
                16,
                16,
                11,
                2_000_000,
                &w,
                Box::new(BalanceStep::new()),
                Box::new(RoundRobin::default()),
                Box::new(NullAdversary),
            )
            .unwrap()
            .with_service(plan)
            .unwrap()
        };
        let (a, board_a, tracker_a) = build().run_into_parts().unwrap();
        let counters = a.service.expect("service counters present");
        // The shutdown drain must land every allocated sequence number on
        // the board, and the merged log must be seq-ordered and gap-free.
        assert_eq!(counters.posts_submitted, board_a.len() as u64);
        assert_eq!(counters.batches_applied, counters.batches_submitted);
        for (i, post) in board_a.posts().iter().enumerate() {
            assert_eq!(post.seq.0, i as u64, "merged log has a seq gap");
        }
        // The tracker saw exactly the board: re-ingesting the final board
        // into a fresh tracker reproduces the same event log.
        let mut oracle = VoteTracker::new(16, w.m(), VotePolicy::single_vote());
        oracle.ingest(&board_a);
        assert_eq!(tracker_a.events(), oracle.events());
        // Deterministic in seed despite delivery delays.
        let (b, board_b, _) = build().run_into_parts().unwrap();
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.players, b.players);
        assert_eq!(board_a.posts(), board_b.posts());
        assert_eq!(b.service, Some(counters));
    }

    #[test]
    fn service_plan_is_validated() {
        let w = world();
        let engine = AsyncEngine::new(
            4,
            4,
            0,
            10,
            &w,
            Box::new(RandomStep),
            Box::new(RandomSchedule),
            Box::new(NullAdversary),
        )
        .unwrap();
        assert!(engine.with_service(ServicePlan::new(0)).is_err());
    }

    #[test]
    fn deterministic_in_seed() {
        let a = run(Box::new(RandomSchedule), Box::new(BalanceStep::new()), 9);
        let b = run(Box::new(RandomSchedule), Box::new(BalanceStep::new()), 9);
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.total_probes(), b.total_probes());
    }

    #[test]
    fn schedule_names() {
        assert_eq!(RoundRobin::default().name(), "round-robin");
        assert_eq!(RandomSchedule.name(), "random");
        assert_eq!(Isolate::new(PlayerId(0)).name(), "isolate");
        assert_eq!(Starve::new(PlayerId(0)).name(), "starve");
        assert_eq!(BalanceStep::new().name(), "balance");
        assert_eq!(RandomStep.name(), "random");
    }
}
