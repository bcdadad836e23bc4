//! The sweep workloads: `e1_sweep` and `e18_sweep_1m` run DISTILL trials
//! through the in-process streaming sweep, `e1_fabric` runs the `e1_sweep`
//! trials through the on-disk lease fabric.

use crate::trace::{self, TracedAdversary, TracedCohort};
use crate::{for_duration, Opts, Run, Unit, THREADS};
use distill_adversary::UniformBad;
use distill_analysis::{bounds, RunningMoments};
use distill_billboard::{Billboard, VoteTracker};
use distill_core::{Distill, DistillParams};
use distill_harness::{
    fingerprint_of, fnv1a64, merge_checkpoints, run_sweep_with, run_worker, worker_checkpoint_path,
    Checkpoint, LeaseQueue, SweepConfig, SweepReport, TrialSpec, WorkerConfig,
};
use distill_sim::{Engine, ResultFold, SimConfig, SimResult, StopRule, World};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// One paper experiment's configuration: `m = n` objects of which `goods`
/// are good, `round(√n)` dishonest players driving `UniformBad`, negative
/// reports off. Trial `t` of a spec uses world seed `world_base + key` and
/// engine seed `config_base + key`, where `key` folds the run seed into `t`.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub n: u32,
    pub goods: u32,
    pub world_base: u64,
    pub config_base: u64,
    pub max_rounds: u64,
    pub satisfaction_curve: bool,
}

/// `exp_e1_headline.rs` `measure("distill")`.
pub fn e1_shape(n: u32) -> Shape {
    Shape {
        n,
        goods: 1,
        world_base: 9_000,
        config_base: 100,
        max_rounds: 500_000,
        satisfaction_curve: true,
    }
}

/// `exp_e18_scale_cost.rs` at β = 0.1.
pub fn e18_shape(n: u32) -> Shape {
    Shape {
        n,
        goods: n / 10,
        world_base: 18_000,
        config_base: 1_800,
        max_rounds: 100_000,
        satisfaction_curve: false,
    }
}

/// DISTILL trials of one [`Shape`], deterministic in the trial index.
pub struct DistillSpec {
    shape: Shape,
    honest: u32,
    alpha: f64,
    seed: u64,
    traced: bool,
    /// Traced runs replay every this-many-th trial's billboard.
    replay_every: u64,
    /// Nanoseconds spent in billboard replays, so the trace overhead can
    /// leave them out.
    replay_ns: AtomicU64,
    panic_at: Option<u64>,
    /// When the first trial began: the end of a unit's set-up.
    first_trial: OnceLock<Instant>,
}

impl DistillSpec {
    /// Builds and validates the spec once, so no trial can fail on its
    /// configuration.
    pub fn new(
        shape: Shape,
        seed: u64,
        traced: bool,
        replay_every: u64,
        panic_at: Option<u64>,
    ) -> Result<Self, String> {
        let n = shape.n;
        let dishonest = f64::from(n).sqrt().round() as u32;
        let honest = n - dishonest;
        let alpha = f64::from(honest) / f64::from(n);
        let beta = f64::from(shape.goods) / f64::from(n);
        DistillParams::new(n, n, alpha, beta).map_err(|e| format!("distill params: {e}"))?;
        let spec = DistillSpec {
            shape,
            honest,
            alpha,
            seed,
            traced,
            replay_every: replay_every.max(1),
            replay_ns: AtomicU64::new(0),
            panic_at,
            first_trial: OnceLock::new(),
        };
        spec.config(0)
            .validate()
            .map_err(|e| format!("sim config: {e}"))?;
        Ok(spec)
    }

    fn key(&self, trial: u64) -> u64 {
        (self.seed << 32).wrapping_add(trial)
    }

    fn config(&self, key: u64) -> SimConfig {
        SimConfig::new(
            self.shape.n,
            self.honest,
            self.shape.config_base.wrapping_add(key),
        )
        .with_stop(StopRule::all_satisfied(self.shape.max_rounds))
        .with_negative_reports(false)
        .with_satisfaction_curve(self.shape.satisfaction_curve)
    }

    fn world(&self, key: u64) -> World {
        World::binary(
            self.shape.n,
            self.shape.goods,
            self.shape.world_base.wrapping_add(key),
        )
        .expect("the shapes' good counts never exceed n")
    }

    fn cohort(&self, world: &World) -> Box<Distill> {
        let n = self.shape.n;
        Box::new(Distill::new(
            DistillParams::new(n, n, self.alpha, world.beta())
                .expect("parameters validated in DistillSpec::new"),
        ))
    }

    /// The trial as `exp_*` runs it: build, run to the stop rule.
    fn run_plain(&self, key: u64) -> SimResult {
        let world = self.world(key);
        Engine::new(
            self.config(key),
            &world,
            self.cohort(&world),
            Box::new(UniformBad::new()),
        )
        .expect("config validated in DistillSpec::new")
        .run()
        .expect("DISTILL trials never fail")
    }

    /// The same trial, stepped round by round under spans, with the
    /// cohort and adversary wrapped so their calls are timed. The trial
    /// span closes last, after the engine and world are dropped, because the
    /// untraced trial pays for that teardown too.
    fn run_traced(&self, trial: u64, key: u64) -> SimResult {
        let _trial = trace::enter("sim.trial", key);
        let world = {
            let _span = trace::enter("sim.world_build", key);
            self.world(key)
        };
        let mut engine = {
            let _span = trace::enter("sim.engine_new", key);
            Engine::new(
                self.config(key),
                &world,
                Box::new(TracedCohort::new(self.cohort(&world), key)),
                Box::new(TracedAdversary::new(Box::new(UniformBad::new()), key)),
            )
            .expect("config validated in DistillSpec::new")
        };
        // The engine's all-satisfied stop rule, checked from outside; the
        // final `run_mut` re-checks it and only finalizes.
        while engine.satisfied_count() < self.honest as usize
            && engine.round().as_u64() < self.shape.max_rounds
        {
            let _span = trace::enter("sim.step", key);
            engine.step().expect("DISTILL trials never fail");
        }
        let result = {
            let _span = trace::enter("sim.finalize", key);
            engine.run_mut().expect("DISTILL trials never fail")
        };
        if trial % self.replay_every == 0 {
            let start = Instant::now();
            replay_board(engine.board(), engine.tracker().policy(), key);
            self.replay_ns
                .fetch_add(duration_ns(start.elapsed()), Ordering::Relaxed);
        }
        result
    }
}

impl TrialSpec for DistillSpec {
    fn run_trial(&self, trial: u64) -> SimResult {
        self.first_trial.get_or_init(Instant::now);
        assert!(
            self.panic_at != Some(trial),
            "injected panic at trial {trial}"
        );
        let key = self.key(trial);
        if self.traced {
            self.run_traced(trial, key)
        } else {
            self.run_plain(key)
        }
    }

    fn seed(&self, trial: u64) -> u64 {
        self.shape.config_base.wrapping_add(self.key(trial))
    }

    fn describe(&self) -> String {
        let s = &self.shape;
        format!(
            "benchmark distill n={} goods={} honest={} max_rounds={} curve={} seed={}",
            s.n, s.goods, self.honest, s.max_rounds, s.satisfaction_curve, self.seed
        )
    }
}

/// Replays a finished trial's billboard into a fresh `Billboard` and
/// `VoteTracker`, one round at a time, the way the engine appends and
/// ingests. This times the billboard layer outside the engine.
fn replay_board(board: &Billboard, policy: distill_billboard::VotePolicy, key: u64) {
    let _replay = trace::enter("billboard.replay", key);
    let mut fresh = Billboard::new(board.n_players(), board.n_objects());
    let mut tracker = VoteTracker::new(board.n_players(), board.n_objects(), policy);
    let mut posts = board.posts();
    while let Some(first) = posts.first() {
        let len = posts.partition_point(|p| p.round == first.round);
        let (round, rest) = posts.split_at(len);
        {
            let mut span = trace::enter("billboard.append", key);
            for p in round {
                fresh
                    .append(p.round, p.author, p.object, p.value, p.kind)
                    .expect("replaying a valid log in order");
            }
            span.count(len as u64);
        }
        let mut span = trace::enter("billboard.ingest", key);
        tracker.ingest(&fresh);
        span.count(len as u64);
        posts = rest;
    }
}

fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A compact fingerprint of one trial's outcome.
fn fingerprint(trial: u64, r: &SimResult) -> u64 {
    let (probes, satisfied) = r.players.iter().fold((0u64, 0u64), |(probes, sat), p| {
        (probes + p.probes, sat + u64::from(p.is_satisfied()))
    });
    let words = [
        trial,
        r.rounds,
        probes,
        satisfied,
        r.mean_probes().to_bits(),
        r.posts_total as u64,
    ];
    let mut bytes = [0u8; 48];
    for (chunk, word) in bytes.chunks_exact_mut(8).zip(words) {
        chunk.copy_from_slice(&word.to_le_bytes());
    }
    fnv1a64(&bytes)
}

/// The streaming fold on the sweep coordinator: per-trial fingerprints,
/// their chained digest, and the mean-cost moments.
pub struct SweepFold {
    traced: bool,
    pub fingerprints: Vec<(u64, u64)>,
    pub digest: u64,
    pub cost: RunningMoments,
    pub unsatisfied: u64,
}

impl SweepFold {
    pub fn new(traced: bool) -> Self {
        SweepFold {
            traced,
            fingerprints: Vec::new(),
            digest: 0xcbf2_9ce4_8422_2325,
            cost: RunningMoments::new(),
            unsatisfied: 0,
        }
    }
}

impl ResultFold for SweepFold {
    fn fold(&mut self, trial: u64, result: &SimResult) {
        let _span = trace::enter_if(self.traced, "analysis.fold", trial);
        let fp = fingerprint(trial, result);
        self.fingerprints.push((trial, fp));
        self.digest = (self.digest ^ fp).wrapping_mul(FNV_PRIME);
        self.cost.push(result.mean_probes());
        self.unsatisfied += u64::from(!result.all_satisfied);
    }
}

fn sweep_config(trials: u64) -> SweepConfig {
    let mut config = SweepConfig::new(trials);
    config.threads = THREADS;
    config.retain_results = false;
    config
}

/// One streaming sweep of a fresh spec built at `start`.
struct Swept {
    report: SweepReport,
    fold: SweepFold,
    /// From `start` to the first trial's start: building the spec,
    /// `run_sweep_with` fingerprinting it and starting its workers.
    setup_s: f64,
    /// From the first trial's start to the last result.
    wall_s: f64,
}

fn sweep(spec: Arc<DistillSpec>, start: Instant, trials: u64) -> Result<Swept, String> {
    let mut fold = SweepFold::new(spec.traced);
    let config = sweep_config(trials);
    let report =
        run_sweep_with(Arc::clone(&spec), &config, Some(&mut fold)).map_err(|e| e.to_string())?;
    let end = Instant::now();
    let first = spec.first_trial.get().copied().unwrap_or(end);
    Ok(Swept {
        report,
        fold,
        setup_s: (first - start).as_secs_f64(),
        wall_s: (end - first).as_secs_f64(),
    })
}

/// Fails the run when a completed trial left an honest player unsatisfied.
fn check_fold(run: &mut Run, fold: &SweepFold, what: &str) {
    run.check(fold.unsatisfied == 0, || {
        format!(
            "{what}: {} trials ended with unsatisfied players",
            fold.unsatisfied
        )
    });
}

/// A sweep workload: the same `batch` trials, swept again and again until
/// the run's time is up.
pub struct SweepPlan {
    pub shape: Shape,
    pub batch: u64,
    pub replay_every: u64,
    /// Check the mean cost against Theorem 4's bound.
    pub check_bound: bool,
}

pub fn run_sweeps(plan: &SweepPlan, opts: &Opts, run: &mut Run) -> Result<(), String> {
    let mut first: Option<SweepFold> = None;
    for_duration(opts.seconds, run, |k, run| {
        let start = Instant::now();
        let spec = Arc::new(DistillSpec::new(
            plan.shape,
            opts.seed,
            false,
            plan.replay_every,
            opts.inject_panic,
        )?);
        let swept = sweep(spec, start, plan.batch)?;
        let fold = swept.fold;
        run.attempted += plan.batch;
        run.failed += swept.report.quarantined.len() as u64;
        check_fold(run, &fold, "sweep");
        if opts.trace {
            let start = Instant::now();
            let traced = Arc::new(DistillSpec::new(
                plan.shape,
                opts.seed,
                true,
                plan.replay_every,
                opts.inject_panic,
            )?);
            let traced_swept = {
                let _span = trace::enter("harness.batch", k);
                sweep(Arc::clone(&traced), start, plan.batch)?
            };
            run.check(traced_swept.fold.digest == fold.digest, || {
                format!("batch {k}: traced digest differs from the untraced one")
            });
            let replay_s = traced.replay_ns.load(Ordering::Relaxed) as f64 / 1e9;
            run.overhead
                .push((traced_swept.wall_s - replay_s / THREADS as f64) / swept.wall_s - 1.0);
            trace::record(
                "harness.quarantined",
                traced_swept.report.quarantined.len() as f64,
            );
        }
        match &first {
            None => {
                run.note(format!("digest batch {:#018x}", fold.digest));
                first = Some(fold);
            }
            Some(first) => run.check(fold.digest == first.digest, || {
                format!("batch {k}: digest differs from the first batch's")
            }),
        }
        Ok(Unit {
            ops: swept.report.completed,
            wall_s: swept.wall_s,
            setup_s: swept.setup_s,
        })
    })?;
    let first = first.expect("for_duration runs at least once");

    // Two trials of the batch, re-run on this thread, must reproduce the
    // fingerprints the sweep folded.
    let spec = DistillSpec::new(
        plan.shape,
        opts.seed,
        false,
        plan.replay_every,
        opts.inject_panic,
    )?;
    for trial in [0, plan.batch - 1] {
        if let Some(&(_, fp)) = first.fingerprints.iter().find(|(t, _)| *t == trial) {
            let again = fingerprint(trial, &spec.run_trial(trial));
            run.check(again == fp, || {
                format!("trial {trial} re-run on the main thread gave another result")
            });
        }
    }
    if plan.check_bound {
        // `distill_upper` is Theorem 4's shape with its hidden constant at
        // 1; EXPERIMENTS.md E18 measures 1.32x it at n = 10^6.
        let n = f64::from(plan.shape.n);
        let shape = bounds::distill_upper(n, spec.alpha, f64::from(plan.shape.goods) / n);
        let mean = first.cost.mean().unwrap_or(f64::INFINITY);
        run.note(format!(
            "mean cost {mean:.4} probes, Theorem 4 shape {shape:.4}"
        ));
        run.check(mean < 1.5 * shape, || {
            format!("mean cost {mean} is not under 1.5x the Theorem 4 shape {shape}")
        });
    }
    Ok(())
}

/// The lease-fabric workload: repeated sweeps of `trials` trials by
/// `THREADS` workers over one on-disk queue, each merged at the end.
pub struct FabricPlan {
    pub shape: Shape,
    pub trials: u64,
    pub chunk: u64,
    pub checkpoint_every: u64,
    pub replay_every: u64,
}

/// The production claim budget (`WorkerConfig::new`'s default).
const MAX_CLAIMS: u32 = 2;

struct FabricOut {
    /// From the start of `fabric_once` to the first trial's start: the
    /// spec, the queue file, starting the workers and the first claim.
    setup_s: f64,
    /// From the first trial's start to the end of the merge.
    wall_s: f64,
    replay_s: f64,
    completed: u64,
    quarantined: u64,
    fold: SweepFold,
}

fn fabric_files(queue: &Path) -> Vec<PathBuf> {
    let mut lock = queue.as_os_str().to_owned();
    lock.push(".lock");
    let mut files = vec![queue.to_path_buf(), PathBuf::from(lock)];
    files.extend((0..THREADS as u64).map(|id| worker_checkpoint_path(queue, id)));
    files
}

fn remove_fabric_files(queue: &Path) -> Result<(), String> {
    for file in fabric_files(queue) {
        match std::fs::remove_file(&file) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(format!("{}: {e}", file.display())),
        }
    }
    Ok(())
}

fn fabric_once(
    plan: &FabricPlan,
    opts: &Opts,
    dir: &Path,
    traced: bool,
) -> Result<FabricOut, String> {
    let io = |e: std::io::Error| format!("{}: {e}", dir.display());
    let start = Instant::now();
    let spec = Arc::new(DistillSpec::new(
        plan.shape,
        opts.seed,
        traced,
        plan.replay_every,
        opts.inject_panic,
    )?);
    std::fs::create_dir_all(dir).map_err(io)?;
    let queue = dir.join("sweep.queue");
    LeaseQueue::new(
        fingerprint_of(spec.as_ref()),
        plan.trials,
        plan.chunk,
        MAX_CLAIMS,
    )
    .and_then(|q| q.write_atomic(&queue))
    .map_err(|e| e.to_string())?;

    let batch_span = trace::enter_if(traced, "harness.batch", 0);
    let reports = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS as u64)
            .map(|id| {
                let mut config = WorkerConfig::new(queue.clone(), id, plan.trials);
                config.chunk_size = plan.chunk;
                config.checkpoint_every = plan.checkpoint_every;
                config.max_claims = MAX_CLAIMS;
                // The production 50 ms poll would quantise the end of every
                // sweep (an idle worker waits out the other's last chunk).
                config.poll = Duration::from_millis(5);
                let spec = Arc::clone(&spec);
                scope.spawn(move || run_worker(spec, &config))
            })
            .collect();
        workers
            .into_iter()
            .map(|w| {
                w.join()
                    .map_err(|_| "a fabric worker panicked".to_string())?
                    .map_err(|e| e.to_string())
            })
            .collect::<Result<Vec<_>, String>>()
    })?;
    let (parts, merged) = {
        let _span = trace::enter_if(traced, "harness.merge", 0);
        let parts = (0..THREADS as u64)
            .map(|id| worker_checkpoint_path(&queue, id))
            .filter(|path| path.exists())
            .map(|path| Checkpoint::load(&path).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, String>>()?;
        let merged = merge_checkpoints(&parts).map_err(|e| e.to_string())?;
        (parts, merged)
    };
    let end = Instant::now();
    drop(batch_span);
    let first = spec.first_trial.get().copied().unwrap_or(end);

    let mut fold = SweepFold::new(false);
    for (trial, result) in &merged.completed {
        fold.fold(*trial, result);
    }
    let quarantined = reports.iter().map(|r| r.quarantined.len() as u64).sum();
    if traced {
        let sum = |f: fn(&distill_harness::WorkerReport) -> u64| {
            reports.iter().map(f).sum::<u64>() as f64
        };
        trace::record("harness.chunks_claimed", sum(|r| r.chunks_claimed));
        trace::record("harness.leases_lost", sum(|r| r.leases_lost));
        trace::record("harness.queue_rebuilt", sum(|r| r.queue_rebuilt));
        trace::record("harness.quarantined", quarantined as f64);
        probe_persistence(&parts, &queue, dir)?;
    }
    remove_fabric_files(&queue)?;
    Ok(FabricOut {
        setup_s: (first - start).as_secs_f64(),
        wall_s: (end - first).as_secs_f64(),
        replay_s: spec.replay_ns.load(Ordering::Relaxed) as f64 / 1e9,
        completed: merged.completed.len() as u64,
        quarantined,
        fold,
    })
}

/// Times the persistence calls the fabric makes, on its final state: the
/// encode and atomic write of each worker's last checkpoint, and 50 queue
/// read-modify-write cycles (`LeaseQueue::load`, `claim`, `write_atomic`)
/// on a copy of the final queue.
fn probe_persistence(parts: &[Checkpoint], queue: &Path, dir: &Path) -> Result<(), String> {
    let probe = dir.join("probe.ckpt");
    for part in parts {
        {
            let mut span = trace::enter("harness.ckpt_encode", 0);
            let bytes = part.encode();
            span.count(bytes.len() as u64);
        }
        let _span = trace::enter("harness.ckpt_write", 0);
        part.write_atomic(&probe).map_err(|e| e.to_string())?;
    }
    std::fs::remove_file(&probe).map_err(|e| format!("{}: {e}", probe.display()))?;
    let copy = dir.join("probe.queue");
    std::fs::copy(queue, &copy).map_err(|e| format!("{}: {e}", copy.display()))?;
    for i in 0..50 {
        let _span = trace::enter("harness.lease_rmw", i);
        let mut q = LeaseQueue::load(&copy).map_err(|e| e.to_string())?;
        q.claim(u64::MAX, i, 30_000);
        q.write_atomic(&copy).map_err(|e| e.to_string())?;
    }
    std::fs::remove_file(&copy).map_err(|e| format!("{}: {e}", copy.display()))
}

pub fn run_fabric(plan: &FabricPlan, opts: &Opts, run: &mut Run) -> Result<(), String> {
    let dir = opts.scratch.join("fabric");
    remove_fabric_files(&dir.join("sweep.queue"))?;
    let mut digests = Vec::new();
    for_duration(opts.seconds, run, |k, run| {
        let out = fabric_once(plan, opts, &dir, false)?;
        run.attempted += plan.trials;
        run.failed += out.quarantined;
        check_fold(run, &out.fold, "fabric");
        if opts.trace {
            let traced = fabric_once(plan, opts, &dir, true)?;
            run.check(traced.fold.digest == out.fold.digest, || {
                format!("sweep {k}: traced merged digest differs from the untraced one")
            });
            run.overhead
                .push((traced.wall_s - traced.replay_s / THREADS as f64) / out.wall_s - 1.0);
        }
        digests.push(out.fold.digest);
        Ok(Unit {
            ops: out.completed,
            wall_s: out.wall_s,
            setup_s: out.setup_s,
        })
    })?;

    // Every merged checkpoint must equal an in-process sweep of the same
    // spec.
    let spec = Arc::new(DistillSpec::new(
        plan.shape,
        opts.seed,
        false,
        plan.replay_every,
        opts.inject_panic,
    )?);
    let reference = sweep(spec, Instant::now(), plan.trials)?.fold;
    run.note(format!("digest merged {:#018x}", reference.digest));
    for (k, digest) in digests.iter().enumerate() {
        run.check(*digest == reference.digest, || {
            format!("sweep {k}: merged digest differs from the in-process sweep's")
        });
    }
    Ok(())
}
