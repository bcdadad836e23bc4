//! CLI commands. Each command builds its output as a `String` so the whole
//! surface is unit-testable without capturing stdout.

use crate::args::{ArgError, Args};
use distill_adversary::{
    gauntlet, AdviceBait, BallotStuffer, Collusive, Flooder, Slander, ThresholdMatcher, UniformBad,
};
use distill_analysis::{bounds, fmt_f, lemma9, Summary, Table};
use distill_core::{Balance, Distill, DistillParams, GuessAlpha, RandomProbing, ThreePhase};
use distill_harness::TrialSpec;
use distill_sim::{
    player_count, run_trials_scoped, run_trials_threaded, Adversary, Cohort, Engine, FaultPlan,
    NullAdversary, SimConfig, StopRule, World,
};

/// A command failure, rendered to the user.
#[derive(Debug)]
pub enum CliError {
    /// Argument problems.
    Args(ArgError),
    /// Anything else (bad parameter combinations, engine setup failures).
    Message(String),
    /// The sweep finished but quarantined trials; `main` prints the report
    /// and exits with a distinct nonzero code so CI catches partial sweeps.
    Quarantined {
        /// The full sweep report (printed to stdout before the error).
        output: String,
        /// How many trials ended quarantined.
        count: usize,
    },
    /// `bench-store diff` found perf regressions; `main` prints the full
    /// verdict table and exits with a distinct nonzero code so the CI
    /// perf-trend job fails visibly but distinguishably from hard errors.
    Regression {
        /// The full diff report (printed to stdout before the error).
        output: String,
        /// How many benches regressed past the tolerance band.
        count: usize,
    },
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Args(e) => write!(f, "{e}"),
            CliError::Message(m) => f.write_str(m),
            CliError::Quarantined { count, .. } => {
                write!(
                    f,
                    "{count} trial(s) quarantined (replay records in the quarantine file)"
                )
            }
            CliError::Regression { count, .. } => {
                write!(
                    f,
                    "{count} bench(es) regressed past the tolerance band vs the stored baseline"
                )
            }
        }
    }
}

impl std::error::Error for CliError {}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Args(e)
    }
}

/// Summary for CLI tables, total over empty inputs: a sample with no data
/// yields all-NaN fields, which `fmt_f` renders as `-` (missing cells)
/// instead of aborting the command.
fn summary_or_blank(xs: &[f64]) -> Summary {
    Summary::of(xs).unwrap_or(Summary {
        count: 0,
        mean: f64::NAN,
        std_dev: f64::NAN,
        min: f64::NAN,
        max: f64::NAN,
        median: f64::NAN,
    })
}

fn err(msg: impl Into<String>) -> CliError {
    CliError::Message(msg.into())
}

/// The help text.
pub fn help() -> String {
    "\
distill — reproduction of 'Adaptive Collaboration in Peer-to-Peer Systems' (ICDCS 2005)

USAGE:
    distill <command> [flags]

COMMANDS:
    run        simulate one configuration over several trials
    sweep      crash-safe supervised `run`: checkpoint/resume, panic
               quarantine, retries, watchdog timeouts; --stream for
               O(1)-memory aggregation of huge sweeps
    sweep-worker
               one multi-process fabric worker: claim chunked trial ranges
               from the shared --queue under heartbeat-renewed leases
    sweep-supervise
               dumb supervisor loop: spawn --workers sweep-worker processes
               on one --queue, restart dead ones, merge their checkpoints
               by set-union when the queue drains (all state in files —
               kill -9 anything and re-run to resume)
    gauntlet   run one algorithm against every adversary strategy
    bounds     evaluate the paper's bound formulas for given parameters
    lemma9     check Lemma 9 (original and corrected) on a sequence
    meanfield  predicted satisfaction dynamics of the baselines
    async      run the asynchronous model of [1] under a chosen schedule
               (--schedule round-robin|random|isolate|starve)
    service-stress
               drive the concurrent billboard service: producer threads,
               one applier, epoch-snapshot readers
    bench-store
               persistent experiment store: append BENCH_*.json runs,
               query history, diff against the per-bench baseline
    help       this text

RUN FLAGS (defaults in parentheses):
    --n <u64>            players (256; ids are u32, so at most 4294967295)
    --m <u32>            objects (= n)
    --honest <u32>       honest players (90% of n)
    --goods <u32>        good objects (1)
    --algorithm <name>   distill | distill-hp | guess-alpha | balance |
                         random | three-phase   (distill)
    --adversary <name>   null | uniform-bad | collusive | threshold-matcher |
                         slander | ballot-stuffer | advice-bait | flooder  (uniform-bad)
    --trials <usize>     independent trials (10)
    --seed <u64>         master seed (0)
    --f <usize>          votes per player (1)
    --error-rate <f64>   honest erroneous-vote probability (0)
    --max-rounds <u64>   safety cap (1000000)
    --drop-rate <f64>    fault injection: honest-post drop probability (0)
    --view-lag <u64>     fault injection: honest read staleness in rounds (0)
    --crash-rate <f64>   fault injection: P(player ever crash-stops) (0)
    --crash-window <u64> fault injection: crash rounds drawn from [0, w) (64)
    --recovery-rate <f64> fault injection: per-round rejoin probability (0)

SWEEP FLAGS (all RUN FLAGS, plus):
    --checkpoint <path>      checksummed progress log, one frame per write
    --checkpoint-every <k>   append a frame after every k completed trials (8)
    --resume                 skip trials already in the checkpoint
    --trial-timeout <secs>   watchdog per-attempt wall-clock limit (0 = off)
    --max-retries <u32>      retries per trial after a failure (2)
    --quarantine <path>      failure records (default <checkpoint>.quarantine.jsonl)
    --threads <usize>        worker threads (available parallelism)
    --out <path>             per-trial result digests, for diffing runs
    --stream                 O(1)-memory streaming aggregation (Welford
                             moments + GK quantile sketch, rank error 0.5%)
                             instead of retaining every result; excludes
                             --out; --resume still loads the whole log
    exits 3 when any trial ends quarantined

SWEEP-WORKER FLAGS (all RUN FLAGS, plus):
    --queue <path>           the shared on-disk lease queue (required)
    --worker-id <u64>        this worker's identity in leases (0)
    --chunk <u64>            trials per leased chunk (16)
    --lease-ttl <secs>       lease time-to-live; renewed at half-life (30)
    --max-claims <u32>       cross-process claim budget per chunk (2)
    --max-retries / --trial-timeout / --checkpoint-every as in sweep
    --quarantine <path>      failure records (<queue>.worker<id>.quarantine.jsonl)
    --poll-ms <u64>          idle backoff while the queue is busy (50)
    exits 0 even with quarantined trials: the supervisor's merge decides

SWEEP-SUPERVISE FLAGS (all SWEEP-WORKER FLAGS except --worker-id, plus):
    --workers <u64>          worker processes to keep alive (3)
    --max-restarts <u64>     total restart budget across the fleet (16)
    --out <path>             merged per-trial digests, diffable against a
                             single-process `sweep --out` reference
    --merged <path>          write the merged checkpoint itself
    exits 3 when the merged result set is missing trials

SERVICE-STRESS FLAGS (defaults in parentheses):
    --producers <u32>       concurrent submitting threads (8)
    --posts <u64>           total posts across all producers (1000000)
    --batch <usize>         drafts per submitted batch (1024)
    --readers <u32>         concurrent epoch-snapshot readers (2)
    --n <u32>               players in the universe (256)
    --m <u32>               objects in the universe (1024)
    --posts-per-round <u64> service timestamp granularity (256)
    --channel <usize>       bounded-channel capacity in batches (256)
    --publish-every <u64>   epochs published every k applied batches (8)
    --verify                replay the merged log sequentially and fail
                            unless the concurrent end state is identical

BENCH-STORE (append | query | diff; all take --store <path>, --format table|json):
    append --json <f[,f...]> --commit <label> [--timestamp <secs>]
               set-union the runs into the store (atomic, idempotent)
    query  [--bench <id>]
               list stored records plus per-bench min-history statistics
    diff   --json <f[,f...]> [--tolerance <frac>] [--inject-regression <x>]
               gate the run against the stored per-bench best: regressed
               iff BOTH min_ns and median_ns exceed baseline*(1+tolerance)
               (0.5); value rows are never compared in ns terms; exits 4
               on regression. --inject-regression scales timed rows by x
               (CI self-test hook, like sweep's --inject-panic)

BOUNDS FLAGS: --n --m --alpha --beta --q0 --eps
LEMMA9:       distill lemma9 <c0,c1,c2,...> --a <f64 in (0,1)>
"
    .to_string()
}

fn make_cohort(
    name: &str,
    n: u32,
    m: u32,
    alpha: f64,
    beta: f64,
) -> Result<Box<dyn Cohort>, CliError> {
    Ok(match name {
        "distill" => Box::new(Distill::new(
            DistillParams::new(n, m, alpha, beta).map_err(|e| err(e.to_string()))?,
        )),
        "distill-hp" => Box::new(Distill::new(
            DistillParams::high_probability(n, m, alpha, beta, 1.0)
                .map_err(|e| err(e.to_string()))?,
        )),
        "guess-alpha" => {
            Box::new(GuessAlpha::new(n, m, beta, 0.5, 0.5).map_err(|e| err(e.to_string()))?)
        }
        "balance" => Box::new(Balance::new()),
        "random" => Box::new(RandomProbing::new()),
        "three-phase" => Box::new(ThreePhase::new(n)),
        other => {
            return Err(err(format!(
                "unknown algorithm {other:?} (try `distill help`)"
            )))
        }
    })
}

fn make_adversary(name: &str) -> Result<Box<dyn Adversary>, CliError> {
    Ok(match name {
        "null" => Box::new(NullAdversary),
        "uniform-bad" => Box::new(UniformBad::new()),
        "collusive" => Box::<Collusive>::default(),
        "threshold-matcher" => Box::new(ThresholdMatcher::new()),
        "slander" => Box::new(Slander::new()),
        "ballot-stuffer" => Box::<BallotStuffer>::default(),
        "advice-bait" => Box::new(AdviceBait::new()),
        "flooder" => Box::<Flooder>::default(),
        other => {
            return Err(err(format!(
                "unknown adversary {other:?} (try `distill help`)"
            )))
        }
    })
}

/// The simulation-spec flags that `run`, `sweep`, `sweep-worker` and
/// `sweep-supervise` all take; [`parse_sweep_spec`] reads every one.
const SPEC_FLAGS: &[&str] = &[
    "n",
    "m",
    "honest",
    "goods",
    "algorithm",
    "adversary",
    "trials",
    "seed",
    "f",
    "error-rate",
    "max-rounds",
    "drop-rate",
    "view-lag",
    "crash-rate",
    "crash-window",
    "recovery-rate",
];

/// Rejects any flag outside [`SPEC_FLAGS`] and the command's own `extra`.
fn ensure_spec_flags(args: &Args, extra: &[&str]) -> Result<(), CliError> {
    let allowed: Vec<&str> = SPEC_FLAGS.iter().chain(extra).copied().collect();
    Ok(args.ensure_known(&allowed)?)
}

/// `--n` (default 256) through the one sanctioned id-space check, so an
/// oversize population fails with the typed message instead of a parse
/// error (or a silent truncation).
fn parse_n(args: &Args) -> Result<u32, CliError> {
    player_count(args.get_or("n", 256)?).map_err(|e| err(e.to_string()))
}

/// `--trials`, refusing zero: a command that ran no trial has nothing to
/// report.
fn parse_trials<T: std::str::FromStr + From<u8> + PartialEq>(
    args: &Args,
    default: T,
) -> Result<T, CliError> {
    let trials = args.get_or("trials", default)?;
    if trials == T::from(0) {
        return Err(err("--trials must be at least 1"));
    }
    Ok(trials)
}

/// `run`'s trials of `spec` on `threads` workers. Each worker keeps one
/// engine arena for its whole share (`Engine::reset_with_world` swaps each
/// trial's world in without reallocating the board and tracker), built from
/// the same `SweepSpec` parts as `SweepSpec::run_trial`, so trial `t` here
/// equals trial `t` of a sweep.
fn run_spec_trials(spec: &SweepSpec, trials: u64, threads: usize) -> Vec<distill_sim::SimResult> {
    // The worlds outlive every worker's engine, which borrows them.
    let worlds: Vec<World> = (0..trials).map(|t| spec.world(t)).collect();
    run_trials_scoped(
        worlds.len(),
        threads,
        || None,
        |slot: &mut Option<Engine<'_>>, t| {
            let world = &worlds[t as usize];
            let (cohort, adversary) = spec.players(world);
            let engine = match slot {
                Some(engine) => {
                    engine
                        .reset_with_world(spec.seed(t), world, cohort, adversary)
                        .expect("validated configuration");
                    engine
                }
                None => slot.insert(
                    Engine::new(spec.config(t), world, cohort, adversary)
                        .expect("validated configuration"),
                ),
            };
            engine.run_mut().expect("engine run on validated inputs")
        },
    )
}

/// `distill run` — simulate one configuration.
pub fn run(args: &Args) -> Result<String, CliError> {
    ensure_spec_flags(args, &[])?;
    let (spec, trials) = parse_sweep_spec(args)?;
    let results = run_spec_trials(&spec, trials, num_threads());
    let SweepSpec {
        n,
        m,
        honest,
        goods,
        f,
        faults,
        ref algorithm,
        adversary: ref adversary_name,
        ..
    } = spec;
    let alpha = f64::from(honest) / f64::from(n);

    let costs: Vec<f64> = results.iter().map(|r| r.mean_probes()).collect();
    let rounds: Vec<f64> = results.iter().map(|r| r.rounds as f64).collect();
    let done = results.iter().filter(|r| r.all_satisfied).count();
    let cost = summary_or_blank(&costs);
    let rds = summary_or_blank(&rounds);

    let mut table = Table::new(
        format!(
            "{algorithm} vs {adversary_name} — n={n} m={m} honest={honest} (alpha={alpha:.3}) \
             goods={goods} f={f} trials={trials}"
        ),
        &["metric", "mean", "min", "max"],
    );
    table.row_owned(vec![
        "individual cost (probes)".into(),
        fmt_f(cost.mean),
        fmt_f(cost.min),
        fmt_f(cost.max),
    ]);
    table.row_owned(vec![
        "rounds".into(),
        fmt_f(rds.mean),
        fmt_f(rds.min),
        fmt_f(rds.max),
    ]);
    table.row_owned(vec![
        "trials fully satisfied".into(),
        format!("{done}/{trials}"),
        "-".into(),
        "-".into(),
    ]);
    if !faults.is_noop() {
        let survivor = summary_or_blank(
            &results
                .iter()
                .map(|r| r.mean_probes_survivors())
                .collect::<Vec<f64>>(),
        );
        table.row_owned(vec![
            "survivor cost (probes)".into(),
            fmt_f(survivor.mean),
            fmt_f(survivor.min),
            fmt_f(survivor.max),
        ]);
        type CounterGet = fn(&distill_sim::FaultCounters) -> u64;
        let counter_rows: [(&str, CounterGet); 3] = [
            ("posts dropped", |c| c.posts_dropped),
            ("crashes", |c| c.crashes),
            ("recoveries", |c| c.recoveries),
        ];
        for (label, get) in counter_rows {
            let xs: Vec<f64> = results.iter().map(|r| get(&r.faults) as f64).collect();
            let s = summary_or_blank(&xs);
            table.row_owned(vec![
                label.into(),
                fmt_f(s.mean),
                fmt_f(s.min),
                fmt_f(s.max),
            ]);
        }
    }
    let beta = f64::from(goods) / f64::from(m);
    let bound = bounds::distill_upper(f64::from(n), alpha, beta);
    let mut out = format!(
        "{table}\nTheorem 4 shape for these parameters: {} (measured/bound = {})\n",
        fmt_f(bound),
        fmt_f(cost.mean / bound)
    );
    // Crash-stop churn shrinks the honest fraction to α′ = α(1 − crash):
    // the degradation experiments compare survivor cost to the bound there.
    if faults.crash_rate > 0.0 && faults.recovery_rate == 0.0 {
        let alpha_eff = alpha * (1.0 - faults.crash_rate);
        if alpha_eff > 0.0 {
            let bound_eff = bounds::distill_upper(f64::from(n), alpha_eff, beta);
            out.push_str(&format!(
                "Theorem 4 shape at effective alpha' = {alpha_eff:.3}: {}\n",
                fmt_f(bound_eff)
            ));
        }
    }
    Ok(out)
}

/// Rank-error target for `sweep --stream`'s quantile sketch: every reported
/// percentile is within 0.5% of the trial count of the exact rank
/// (documented in EXPERIMENTS.md P5).
const STREAM_EPSILON: f64 = 0.005;

/// `sweep`'s flags beyond [`SPEC_FLAGS`]: the crash-safety surface.
const SWEEP_FLAGS: &[&str] = &[
    "checkpoint",
    "checkpoint-every",
    "trial-timeout",
    "max-retries",
    "quarantine",
    "threads",
    "out",
    "inject-panic",
    "resume",
    "stream",
];

/// `sweep-worker`'s flags beyond [`SPEC_FLAGS`] (the spec must match the
/// supervisor's exactly — it is hashed into the queue fingerprint).
const SWEEP_WORKER_FLAGS: &[&str] = &[
    "inject-panic",
    // …plus the fabric surface
    "queue",
    "worker-id",
    "chunk",
    "lease-ttl",
    "max-claims",
    "max-retries",
    "trial-timeout",
    "quarantine",
    "checkpoint-every",
    "poll-ms",
    "stop-after-chunks",
    "fail-after-trials",
];

/// `sweep-supervise`'s flags beyond [`SPEC_FLAGS`] (the spec is forwarded
/// verbatim to every worker).
const SWEEP_SUPERVISE_FLAGS: &[&str] = &[
    "inject-panic",
    // …worker passthrough…
    "queue",
    "chunk",
    "lease-ttl",
    "max-claims",
    "max-retries",
    "trial-timeout",
    "checkpoint-every",
    // …and the fleet surface
    "workers",
    "max-restarts",
    "poll-ms",
    "out",
    "merged",
    // test/CI hooks, forwarded to every worker (mirrors --inject-panic)
    "stop-after-chunks",
    "fail-after-trials",
];

/// A fully-validated, owned trial spec for the supervised sweep runner:
/// everything `run` does per trial, as a pure function of the trial index.
struct SweepSpec {
    n: u32,
    m: u32,
    honest: u32,
    goods: u32,
    algorithm: String,
    adversary: String,
    seed: u64,
    f: usize,
    error_rate: f64,
    max_rounds: u64,
    faults: FaultPlan,
    /// Deliberately panic on this trial index (testing/CI hook).
    inject_panic: Option<u64>,
}

/// The parts of one trial, shared by `SweepSpec::run_trial` and `run`'s
/// engine arenas so that both build trial `t` the same way.
impl SweepSpec {
    /// Trial `trial`'s world.
    fn world(&self, trial: u64) -> World {
        World::binary(
            self.m,
            self.goods,
            self.seed.wrapping_add(1_000_003).wrapping_add(trial),
        )
        .expect("validated world")
    }

    /// Fresh protocol state for one trial in `world`: the honest cohort and
    /// the adversary.
    fn players(&self, world: &World) -> (Box<dyn Cohort>, Box<dyn Adversary>) {
        let alpha = f64::from(self.honest) / f64::from(self.n);
        (
            make_cohort(&self.algorithm, self.n, self.m, alpha, world.beta())
                .expect("validated algorithm"),
            make_adversary(&self.adversary).expect("validated adversary"),
        )
    }

    /// Trial `trial`'s engine config.
    fn config(&self, trial: u64) -> SimConfig {
        SimConfig::new(self.n, self.honest, self.seed(trial))
            .with_policy(distill_billboard::VotePolicy::multi_vote(self.f))
            .with_honest_error_rate(self.error_rate)
            .with_faults(self.faults)
            .with_stop(StopRule::all_satisfied(self.max_rounds))
    }
}

impl TrialSpec for SweepSpec {
    fn run_trial(&self, trial: u64) -> distill_sim::SimResult {
        assert!(
            self.inject_panic != Some(trial),
            "injected panic at trial {trial} (--inject-panic)"
        );
        let world = self.world(trial);
        let (cohort, adversary) = self.players(&world);
        Engine::new(self.config(trial), &world, cohort, adversary)
            .expect("validated configuration")
            .run()
            .expect("engine run on validated inputs")
    }

    fn seed(&self, trial: u64) -> u64 {
        self.seed.wrapping_add(trial)
    }

    fn describe(&self) -> String {
        // Canonical config string: its hash is the checkpoint fingerprint,
        // so every parameter that changes trial results must appear here.
        format!(
            "sweep v1 n={} m={} honest={} goods={} algorithm={} adversary={} seed={} f={} \
             error-rate={} max-rounds={} faults={:?} inject-panic={:?}",
            self.n,
            self.m,
            self.honest,
            self.goods,
            self.algorithm,
            self.adversary,
            self.seed,
            self.f,
            self.error_rate,
            self.max_rounds,
            self.faults,
            self.inject_panic,
        )
    }
}

/// Parses the simulation-spec surface ([`SPEC_FLAGS`]) shared by `run`,
/// `sweep`, `sweep-worker`, and `sweep-supervise` into a fully-validated
/// [`SweepSpec`] plus the trial count. Everything that changes trial
/// results flows through here, so all four entry points agree on the
/// fingerprint by construction.
fn parse_sweep_spec(args: &Args) -> Result<(SweepSpec, u64), CliError> {
    let n = parse_n(args)?;
    let m: u32 = args.get_or("m", n)?;
    let default_honest = ((f64::from(n)) * 0.9).round() as u32;
    let honest: u32 = args.get_or("honest", default_honest)?;
    let goods: u32 = args.get_or("goods", 1)?;
    let trials: u64 = parse_trials(args, 10)?;
    let seed: u64 = args.get_or("seed", 0)?;
    let f: usize = args.get_or("f", 1)?;
    let error_rate: f64 = args.get_or("error-rate", 0.0)?;
    let max_rounds: u64 = args.get_or("max-rounds", 1_000_000)?;
    let faults = FaultPlan::none()
        .with_drop_rate(args.get_or("drop-rate", 0.0)?)
        .with_view_lag(args.get_or("view-lag", 0)?)
        .with_crash_rate(args.get_or("crash-rate", 0.0)?)
        .with_crash_window(args.get_or("crash-window", 64)?)
        .with_recovery_rate(args.get_or("recovery-rate", 0.0)?);
    faults
        .validate()
        .map_err(|msg| err(format!("fault plan: {msg}")))?;
    let algorithm = args.str_or("algorithm", "distill");
    let adversary_name = args.str_or("adversary", "uniform-bad");
    if honest == 0 || honest > n {
        return Err(err(format!("--honest {honest} must be in 1..={n}")));
    }
    if goods == 0 || goods > m {
        return Err(err(format!("--goods {goods} must be in 1..={m}")));
    }
    let alpha = f64::from(honest) / f64::from(n);
    // Validate names and parameters once, up front, so trial workers can't
    // hit a construction failure mid-run (`SweepSpec::run_trial` relies on
    // this when it `expect`s).
    make_cohort(&algorithm, n, m, alpha, f64::from(goods) / f64::from(m))?;
    make_adversary(&adversary_name)?;
    let inject_panic = match args.flags.get("inject-panic") {
        None => None,
        Some(_) => Some(args.get_or("inject-panic", 0u64)?),
    };
    Ok((
        SweepSpec {
            n,
            m,
            honest,
            goods,
            algorithm,
            adversary: adversary_name,
            seed,
            f,
            error_rate,
            max_rounds,
            faults,
            inject_panic,
        },
        trials,
    ))
}

/// The `--out` digest file: one line per completed trial with the FNV-1a
/// hash of its encoded `SimResult`, so CI can diff a resumed or fabric
/// sweep against an uninterrupted reference byte-for-byte.
fn digest_lines<'a>(
    results: impl IntoIterator<Item = (u64, &'a distill_sim::SimResult)>,
) -> String {
    let mut text = String::new();
    for (trial, result) in results {
        let mut w = distill_harness::Writer::new();
        distill_harness::checkpoint::encode_sim_result(&mut w, result);
        let digest = distill_harness::fnv1a64(&w.into_bytes());
        text.push_str(&format!("trial {trial} {digest:016x}\n"));
    }
    text
}

/// `distill sweep` — the crash-safe supervised variant of `run`:
/// checkpoint/resume, per-trial panic isolation with quarantine, retries,
/// and watchdog timeouts. `--stream` trades the retained per-trial results
/// for O(1)-memory streaming aggregation.
pub fn sweep(args: &Args) -> Result<String, CliError> {
    ensure_spec_flags(args, SWEEP_FLAGS)?;
    let (spec, trials) = parse_sweep_spec(args)?;
    let n = spec.n;
    let m = spec.m;
    let honest = spec.honest;
    let goods = spec.goods;
    let f = spec.f;
    let algorithm = spec.algorithm.clone();
    let adversary_name = spec.adversary.clone();
    let alpha = f64::from(honest) / f64::from(n);

    let checkpoint = args.flags.get("checkpoint").map(std::path::PathBuf::from);
    let resume = args.has("resume");
    if resume && checkpoint.is_none() {
        return Err(err("--resume requires --checkpoint <path>"));
    }
    let trial_timeout_secs: f64 = args.get_or("trial-timeout", 0.0)?;
    if trial_timeout_secs < 0.0 || !trial_timeout_secs.is_finite() {
        return Err(err(
            "--trial-timeout must be a finite number of seconds >= 0",
        ));
    }
    let quarantine = args
        .flags
        .get("quarantine")
        .map(std::path::PathBuf::from)
        .or_else(|| {
            checkpoint.as_ref().map(|p| {
                let mut q = p.as_os_str().to_owned();
                q.push(".quarantine.jsonl");
                std::path::PathBuf::from(q)
            })
        });
    let out_path = args.flags.get("out").map(std::path::PathBuf::from);
    let stream = args.has("stream");
    if stream && out_path.is_some() {
        return Err(err(
            "--stream keeps no per-trial results, so --out digests are unavailable",
        ));
    }

    let spec = std::sync::Arc::new(spec);
    let config = distill_harness::SweepConfig {
        trials,
        threads: args.get_or("threads", num_threads())?,
        checkpoint,
        checkpoint_every: args.get_or("checkpoint-every", 8)?,
        resume,
        quarantine: quarantine.clone(),
        policy: distill_harness::SupervisorPolicy {
            max_retries: args.get_or("max-retries", 2)?,
            trial_timeout: (trial_timeout_secs > 0.0)
                .then(|| std::time::Duration::from_secs_f64(trial_timeout_secs)),
            ..distill_harness::SupervisorPolicy::default()
        },
        stop_after: None,
        retain_results: !stream,
    };
    // Streaming mode folds each trial's individual cost into O(1)-memory
    // aggregates (Welford moments + a GK quantile sketch at rank error
    // STREAM_EPSILON) instead of retaining every `SimResult`.
    let mut streamed = distill_analysis::StreamingSummary::new(STREAM_EPSILON);
    let mut satisfied = 0u64;
    let report = if stream {
        let mut fold = |_trial: u64, r: &distill_sim::SimResult| {
            streamed.push(r.mean_probes());
            if r.all_satisfied {
                satisfied += 1;
            }
        };
        distill_harness::run_sweep_with(spec, &config, Some(&mut fold))
            .map_err(|e| err(e.to_string()))?
    } else {
        distill_harness::run_sweep(spec, &config).map_err(|e| err(e.to_string()))?
    };

    if let Some(path) = &out_path {
        let results = report.results.iter().map(|(trial, r)| (*trial, r));
        std::fs::write(path, digest_lines(results))
            .map_err(|e| err(format!("--out {}: {e}", path.display())))?;
    }

    let mut table = Table::new(
        format!(
            "sweep{}: {algorithm} vs {adversary_name} — n={n} m={m} honest={honest} \
             (alpha={alpha:.3}) goods={goods} f={f} trials={trials}",
            if stream { " (streaming)" } else { "" }
        ),
        &["metric", "value"],
    );
    table.row_owned(vec![
        "completed".into(),
        format!("{}/{trials}", report.completed),
    ]);
    table.row_owned(vec![
        "resumed from checkpoint".into(),
        report.resumed.to_string(),
    ]);
    table.row_owned(vec![
        "checkpoints written".into(),
        report.checkpoints_written.to_string(),
    ]);
    table.row_owned(vec![
        "quarantined".into(),
        report.quarantined.len().to_string(),
    ]);
    if stream {
        let m = streamed.moments();
        let p = |q: f64| fmt_f(streamed.quantile(q).unwrap_or(f64::NAN));
        table.row_owned(vec![
            "mean individual cost".into(),
            fmt_f(m.mean().unwrap_or(f64::NAN)),
        ]);
        table.row_owned(vec![
            "cost std dev".into(),
            fmt_f(m.std_dev().unwrap_or(f64::NAN)),
        ]);
        table.row_owned(vec![
            "cost min / max".into(),
            format!(
                "{} / {}",
                fmt_f(m.min().unwrap_or(f64::NAN)),
                fmt_f(m.max().unwrap_or(f64::NAN))
            ),
        ]);
        table.row_owned(vec![
            format!("cost p50/p90/p99 (rank err <= {STREAM_EPSILON}n)"),
            format!("{} / {} / {}", p(0.5), p(0.9), p(0.99)),
        ]);
        table.row_owned(vec![
            "sketch tuples held".into(),
            streamed.sketch().entries_len().to_string(),
        ]);
        table.row_owned(vec![
            "trials fully satisfied".into(),
            format!("{satisfied}/{}", report.completed),
        ]);
    } else {
        let costs: Vec<f64> = report
            .results
            .iter()
            .map(|(_, r)| r.mean_probes())
            .collect();
        let cost = summary_or_blank(&costs);
        let done = report
            .results
            .iter()
            .filter(|(_, r)| r.all_satisfied)
            .count();
        table.row_owned(vec!["mean individual cost".into(), fmt_f(cost.mean)]);
        table.row_owned(vec![
            "trials fully satisfied".into(),
            format!("{done}/{}", report.results.len()),
        ]);
    }
    let mut output = table.render();
    for q in &report.quarantined {
        output.push_str(&format!(
            "\nquarantined trial {} (seed {}): {} after {} attempt(s)",
            q.trial, q.seed, q.failure, q.attempts
        ));
    }
    if !report.quarantined.is_empty() {
        if let Some(qpath) = &quarantine {
            output.push_str(&format!("\nreplay records: {}", qpath.display()));
        }
        return Err(CliError::Quarantined {
            output,
            count: report.quarantined.len(),
        });
    }
    Ok(output)
}

/// The `--chunk` / `--lease-ttl` / retry / poll surface shared by the two
/// fabric entry points, parsed and validated once.
struct FabricFlags {
    chunk: u64,
    max_claims: u32,
    lease_ttl_secs: f64,
    lease_ttl_ms: u64,
    checkpoint_every: u64,
    trial_timeout_secs: f64,
    policy: distill_harness::SupervisorPolicy,
    poll: std::time::Duration,
}

fn parse_fabric_flags(args: &Args) -> Result<FabricFlags, CliError> {
    let chunk: u64 = args.get_or("chunk", 16)?;
    if chunk == 0 {
        return Err(err("--chunk must be at least 1 trial"));
    }
    let max_claims: u32 = args.get_or("max-claims", 2)?;
    if max_claims == 0 {
        return Err(err("--max-claims must be at least 1"));
    }
    let lease_ttl_secs: f64 = args.get_or("lease-ttl", 30.0)?;
    if !lease_ttl_secs.is_finite() || lease_ttl_secs <= 0.0 {
        return Err(err("--lease-ttl must be a finite number of seconds > 0"));
    }
    let lease_ttl_ms = u64::try_from(
        std::time::Duration::from_secs_f64(lease_ttl_secs)
            .as_millis()
            .max(1),
    )
    .unwrap_or(u64::MAX);
    let checkpoint_every: u64 = args.get_or("checkpoint-every", 8)?;
    let trial_timeout_secs: f64 = args.get_or("trial-timeout", 0.0)?;
    if trial_timeout_secs < 0.0 || !trial_timeout_secs.is_finite() {
        return Err(err(
            "--trial-timeout must be a finite number of seconds >= 0",
        ));
    }
    let policy = distill_harness::SupervisorPolicy {
        max_retries: args.get_or("max-retries", 2)?,
        trial_timeout: (trial_timeout_secs > 0.0)
            .then(|| std::time::Duration::from_secs_f64(trial_timeout_secs)),
        ..distill_harness::SupervisorPolicy::default()
    };
    let poll = std::time::Duration::from_millis(args.get_or("poll-ms", 50)?);
    Ok(FabricFlags {
        chunk,
        max_claims,
        lease_ttl_secs,
        lease_ttl_ms,
        checkpoint_every,
        trial_timeout_secs,
        policy,
        poll,
    })
}

/// `distill sweep-worker` — one fabric worker process: claims chunked trial
/// ranges from the shared on-disk lease queue under a heartbeat-renewed
/// lease, runs them supervised, and checkpoints its own results. Safe to
/// run any number of these concurrently on the same `--queue`; kill -9 at
/// any point never loses or double-counts a trial (an expired lease is
/// reclaimed and re-run, and the set-union merge deduplicates bit-exact
/// duplicates).
pub fn sweep_worker(args: &Args) -> Result<String, CliError> {
    ensure_spec_flags(args, SWEEP_WORKER_FLAGS)?;
    let (spec, trials) = parse_sweep_spec(args)?;
    let queue = args
        .flags
        .get("queue")
        .map(std::path::PathBuf::from)
        .ok_or_else(|| err("sweep-worker: needs --queue <path>"))?;
    let worker_id: u64 = args.get_or("worker-id", 0)?;
    let fabric = parse_fabric_flags(args)?;

    let mut config = distill_harness::WorkerConfig::new(queue.clone(), worker_id, trials);
    config.chunk_size = fabric.chunk;
    config.max_claims = fabric.max_claims;
    config.lease_ttl_ms = fabric.lease_ttl_ms;
    config.checkpoint_every = fabric.checkpoint_every;
    config.policy = fabric.policy;
    config.poll = fabric.poll;
    // Per-worker quarantine file by default: concurrent processes never
    // interleave writes into one JSONL.
    config.quarantine = Some(
        args.flags
            .get("quarantine")
            .map(std::path::PathBuf::from)
            .unwrap_or_else(|| {
                let mut q = queue.as_os_str().to_owned();
                q.push(format!(".worker{worker_id}.quarantine.jsonl"));
                std::path::PathBuf::from(q)
            }),
    );
    // Test/CI hooks mirroring sweep's --inject-panic: stop early or "crash"
    // (exit without completing the leased chunk).
    config.stop_after_chunks = match args.flags.get("stop-after-chunks") {
        None => None,
        Some(_) => Some(args.get_or("stop-after-chunks", 0u64)?),
    };
    config.fail_after_trials = match args.flags.get("fail-after-trials") {
        None => None,
        Some(_) => Some(args.get_or("fail-after-trials", 0u64)?),
    };

    let report = distill_harness::run_worker(std::sync::Arc::new(spec), &config)
        .map_err(|e| err(e.to_string()))?;
    let mut table = Table::new(
        format!(
            "sweep-worker {} — queue {} ({} trials, chunk {})",
            report.worker_id,
            queue.display(),
            trials,
            fabric.chunk
        ),
        &["metric", "value"],
    );
    table.row_owned(vec![
        "chunks claimed / completed / released".into(),
        format!(
            "{} / {} / {}",
            report.chunks_claimed, report.chunks_completed, report.chunks_released
        ),
    ]);
    table.row_owned(vec![
        "trials run / skipped".into(),
        format!("{} / {}", report.trials_run, report.trials_skipped),
    ]);
    table.row_owned(vec!["leases lost".into(), report.leases_lost.to_string()]);
    table.row_owned(vec![
        "quarantined".into(),
        report.quarantined.len().to_string(),
    ]);
    table.row_owned(vec![
        "queue rebuilt".into(),
        report.queue_rebuilt.to_string(),
    ]);
    table.row_owned(vec![
        "own checkpoint rebuilt".into(),
        report.checkpoint_rebuilt.to_string(),
    ]);
    table.row_owned(vec!["queue fully done".into(), report.finished.to_string()]);
    let mut output = table.render();
    for q in &report.quarantined {
        output.push_str(&format!(
            "\nquarantined trial {} (seed {}): {} after {} attempt(s)",
            q.trial, q.seed, q.failure, q.attempts
        ));
    }
    // Quarantined trials are NOT an error exit here: the cross-process
    // claim budget decides chunk fate, and the supervisor's merge reports
    // the sweep-level verdict. A worker that ran at all did its job.
    Ok(output)
}

/// `distill sweep-supervise` — the `loopr`-style dumb supervisor: spawn
/// `--workers` `sweep-worker` processes on one `--queue`, restart dead ones
/// (up to `--max-restarts`), and when the queue says every chunk is done,
/// merge the per-worker checkpoints by set-union into the final result set.
/// All state lives in files: kill -9 this supervisor (or any worker) and a
/// fresh invocation resumes exactly where the fabric left off.
pub fn sweep_supervise(args: &Args) -> Result<String, CliError> {
    ensure_spec_flags(args, SWEEP_SUPERVISE_FLAGS)?;
    let (spec, trials) = parse_sweep_spec(args)?;
    let queue = args
        .flags
        .get("queue")
        .map(std::path::PathBuf::from)
        .ok_or_else(|| err("sweep-supervise: needs --queue <path>"))?;
    let workers: u64 = args.get_or("workers", 3)?;
    if workers == 0 {
        return Err(err("--workers must be at least 1"));
    }
    let max_restarts: u64 = args.get_or("max-restarts", 16)?;
    let fabric = parse_fabric_flags(args)?;
    let out_path = args.flags.get("out").map(std::path::PathBuf::from);
    let merged_path = args.flags.get("merged").map(std::path::PathBuf::from);

    // Workers get the spec re-serialized from the parsed values (not the
    // raw argv), so supervisor and workers agree on the fingerprint by
    // construction.
    let mut worker_argv: Vec<String> = vec!["sweep-worker".into()];
    let mut push = |flag: &str, value: String| {
        worker_argv.push(format!("--{flag}"));
        worker_argv.push(value);
    };
    push("n", spec.n.to_string());
    push("m", spec.m.to_string());
    push("honest", spec.honest.to_string());
    push("goods", spec.goods.to_string());
    push("algorithm", spec.algorithm.clone());
    push("adversary", spec.adversary.clone());
    push("trials", trials.to_string());
    push("seed", spec.seed.to_string());
    push("f", spec.f.to_string());
    push("error-rate", spec.error_rate.to_string());
    push("max-rounds", spec.max_rounds.to_string());
    push("drop-rate", spec.faults.drop_rate.to_string());
    push("view-lag", spec.faults.view_lag.to_string());
    push("crash-rate", spec.faults.crash_rate.to_string());
    push("crash-window", spec.faults.crash_window.to_string());
    push("recovery-rate", spec.faults.recovery_rate.to_string());
    if let Some(t) = spec.inject_panic {
        push("inject-panic", t.to_string());
    }
    push("queue", queue.display().to_string());
    push("chunk", fabric.chunk.to_string());
    push("max-claims", fabric.max_claims.to_string());
    push("lease-ttl", fabric.lease_ttl_secs.to_string());
    push("checkpoint-every", fabric.checkpoint_every.to_string());
    push("max-retries", fabric.policy.max_retries.to_string());
    push("trial-timeout", fabric.trial_timeout_secs.to_string());
    for hook in ["stop-after-chunks", "fail-after-trials"] {
        if args.flags.contains_key(hook) {
            push(hook, args.get_or(hook, 0u64)?.to_string());
        }
    }

    let exe = std::env::current_exe().map_err(|e| {
        err(format!(
            "cannot locate the distill binary to spawn workers: {e}"
        ))
    })?;
    let fleet = distill_harness::FleetConfig {
        workers,
        max_restarts,
        poll: fabric.poll,
    };
    let fleet_report = distill_harness::supervise_workers(
        &fleet,
        |slot| {
            std::process::Command::new(&exe)
                .args(&worker_argv)
                .arg("--worker-id")
                .arg(slot.to_string())
                .stdout(std::process::Stdio::null())
                .spawn()
        },
        // Lock-free done probe: the queue file is atomically renamed into
        // place, so a plain read sees a consistent snapshot; any error
        // (missing, mid-rebuild) just means "not done yet". Read + decode
        // rather than `LeaseQueue::load`: load sweeps `.tmp` siblings, and
        // an unlocked sweeper would delete a live worker's scratch file
        // out from under its rename.
        || {
            std::fs::read(&queue)
                .ok()
                .and_then(|bytes| distill_harness::LeaseQueue::decode(&bytes).ok())
                .map(|q| q.all_done())
                .unwrap_or(false)
        },
    )
    .map_err(|e| err(e.to_string()))?;

    // Set-union merge of every worker checkpoint of the queue, whichever
    // fleet or lone `sweep-worker` wrote it: the queue marks their chunks
    // done. Racing or duplicated workers are fine: duplicated trials must
    // be bit-identical (determinism), and `merge_checkpoints` hard-errors
    // if they are not. A worker killed mid-append, and not restarted
    // since, leaves a torn last frame; it holds no trial of a chunk marked
    // done, so the merge drops it. Any other damage is an error.
    let logs = distill_harness::worker_checkpoint_paths(&queue).map_err(|e| {
        err(format!(
            "listing the worker checkpoints of {}: {e}",
            queue.display()
        ))
    })?;
    let mut parts = Vec::new();
    for (id, path) in logs {
        let part = distill_harness::Checkpoint::load_after_crash(&path)
            .map_err(|e| err(format!("worker {id} checkpoint: {e}")))?;
        parts.extend(part);
    }
    if parts.is_empty() {
        return Err(err(
            "sweep-supervise: no worker checkpoints were written (did every spawn fail?)",
        ));
    }
    let merged = distill_harness::merge_checkpoints(&parts).map_err(|e| err(e.to_string()))?;

    if let Some(path) = &out_path {
        let results = merged.completed.iter().map(|(trial, r)| (*trial, &**r));
        std::fs::write(path, digest_lines(results))
            .map_err(|e| err(format!("--out {}: {e}", path.display())))?;
    }
    if let Some(path) = &merged_path {
        merged
            .write_atomic(path)
            .map_err(|e| err(format!("--merged {}: {e}", path.display())))?;
    }

    let completed = merged.completed.len();
    let costs: Vec<f64> = merged
        .completed
        .iter()
        .map(|(_, r)| r.mean_probes())
        .collect();
    let mut table = Table::new(
        format!(
            "sweep-supervise — queue {} ({workers} workers, {trials} trials)",
            queue.display()
        ),
        &["metric", "value"],
    );
    table.row_owned(vec![
        "completed (merged)".into(),
        format!("{completed}/{trials}"),
    ]);
    table.row_owned(vec![
        "worker restarts".into(),
        fleet_report.restarts.to_string(),
    ]);
    table.row_owned(vec![
        "queue fully done".into(),
        fleet_report.done.to_string(),
    ]);
    table.row_owned(vec![
        "worker checkpoints merged".into(),
        parts.len().to_string(),
    ]);
    table.row_owned(vec![
        "mean individual cost".into(),
        fmt_f(summary_or_blank(&costs).mean),
    ]);
    let output = table.render();
    let missing = usize::try_from(trials)
        .unwrap_or(usize::MAX)
        .saturating_sub(completed);
    if missing > 0 || !fleet_report.done {
        // Same exit-3 semantics as `sweep`: the fabric finished what it
        // could, but trials are missing (quarantined chunks, or the restart
        // budget ran out before the queue drained).
        return Err(CliError::Quarantined {
            output,
            count: missing,
        });
    }
    Ok(output)
}

const GAUNTLET_FLAGS: &[&str] = &["n", "honest", "goods", "trials", "seed", "algorithm"];

/// `distill gauntlet` — one algorithm against every strategy.
pub fn run_gauntlet(args: &Args) -> Result<String, CliError> {
    args.ensure_known(GAUNTLET_FLAGS)?;
    let n = parse_n(args)?;
    let default_honest = ((f64::from(n)) * 0.75).round() as u32;
    let honest: u32 = args.get_or("honest", default_honest)?;
    let goods: u32 = args.get_or("goods", 1)?;
    let trials: usize = parse_trials(args, 5)?;
    let seed: u64 = args.get_or("seed", 0)?;
    let algorithm = args.str_or("algorithm", "distill");
    if honest == 0 || honest > n {
        return Err(err(format!("--honest {honest} must be in 1..={n}")));
    }
    let alpha = f64::from(honest) / f64::from(n);
    make_cohort(
        &algorithm,
        n,
        n,
        alpha,
        f64::from(goods.max(1)) / f64::from(n),
    )?;

    let mut table = Table::new(
        format!("{algorithm} gauntlet — n=m={n} honest={honest} trials={trials}"),
        &["adversary", "mean cost", "mean rounds", "all satisfied"],
    );
    for entry in gauntlet() {
        let results = run_trials_threaded(trials, num_threads(), |t| {
            let world = World::binary(n, goods, seed.wrapping_add(7_000).wrapping_add(t))
                .expect("validated world");
            let cohort =
                make_cohort(&algorithm, n, n, alpha, world.beta()).expect("validated algorithm");
            let config = SimConfig::new(n, honest, seed.wrapping_add(t))
                .with_stop(StopRule::all_satisfied(1_000_000));
            Engine::new(config, &world, cohort, (entry.make)())
                .expect("validated configuration")
                .run()
                .expect("engine run on validated inputs")
        });
        let cost = results.iter().map(|r| r.mean_probes()).sum::<f64>() / results.len() as f64;
        let rounds = results.iter().map(|r| r.rounds as f64).sum::<f64>() / results.len() as f64;
        let ok = results.iter().all(|r| r.all_satisfied);
        table.row_owned(vec![
            entry.name.to_string(),
            fmt_f(cost),
            fmt_f(rounds),
            if ok { "yes" } else { "NO" }.into(),
        ]);
    }
    Ok(table.render())
}

const BOUNDS_FLAGS: &[&str] = &["n", "m", "alpha", "beta", "q0", "eps"];

/// `distill bounds` — evaluate the paper's formulas.
pub fn run_bounds(args: &Args) -> Result<String, CliError> {
    args.ensure_known(BOUNDS_FLAGS)?;
    let n: f64 = args.get_or("n", 1024.0)?;
    let m: f64 = args.get_or("m", n)?;
    let alpha: f64 = args.get_or("alpha", 0.9)?;
    let beta: f64 = args.get_or("beta", 1.0 / m)?;
    let q0: f64 = args.get_or("q0", 1.0)?;
    let eps: f64 = args.get_or("eps", 0.5)?;
    if !(0.0 < alpha && alpha <= 1.0 && 0.0 < beta && beta <= 1.0) {
        return Err(err("alpha and beta must be in (0, 1]"));
    }

    let mut table = Table::new(
        format!("paper bounds at n={n} m={m} alpha={alpha} beta={beta}"),
        &["quantity", "value"],
    );
    table.row_owned(vec![
        "Delta = log(1/(1-a) + log n)".into(),
        fmt_f(bounds::delta(alpha, n)),
    ]);
    table.row_owned(vec![
        "Thm 4 upper (DISTILL individual cost)".into(),
        fmt_f(bounds::distill_upper(n, alpha, beta)),
    ]);
    table.row_owned(vec![
        "baseline upper (prior algorithm [1])".into(),
        fmt_f(bounds::baseline_upper(n, alpha, beta)),
    ]);
    table.row_owned(vec![
        "Thm 1 lower (collective work)".into(),
        fmt_f(bounds::theorem1_lower(n, alpha, beta)),
    ]);
    table.row_owned(vec![
        "Thm 2 lower (symmetry)".into(),
        fmt_f(bounds::theorem2_lower(alpha, beta)),
    ]);
    table.row_owned(vec![
        format!("Cor 5 upper at eps={eps}"),
        fmt_f(bounds::corollary5_upper(eps)),
    ]);
    table.row_owned(vec![
        format!("Thm 12 payment upper at q0={q0}"),
        fmt_f(bounds::theorem12_upper(n, m, alpha, q0)),
    ]);
    table.row_owned(vec![
        "random probing expectation (1/beta)".into(),
        fmt_f(bounds::random_probing_expected(beta)),
    ]);
    Ok(table.render())
}

const MEANFIELD_FLAGS: &[&str] = &["n", "beta", "explore", "rounds"];

/// `distill meanfield` — predicted satisfaction dynamics of the baselines.
pub fn run_meanfield(args: &Args) -> Result<String, CliError> {
    use distill_analysis::meanfield;
    args.ensure_known(MEANFIELD_FLAGS)?;
    let n: f64 = args.get_or("n", 1024.0)?;
    let beta: f64 = args.get_or("beta", 1.0 / n)?;
    let explore: f64 = args.get_or("explore", 0.5)?;
    let rounds: usize = args.get_or("rounds", 200)?;
    if !(0.0 < beta && beta <= 1.0 && (0.0..=1.0).contains(&explore)) {
        return Err(err("need beta in (0,1] and explore in [0,1]"));
    }
    let random = meanfield::random_probing_curve(beta, rounds);
    let balance = meanfield::balance_curve(beta, explore, rounds);
    let mut table = Table::new(
        format!("mean-field satisfied fraction — beta={beta}, explore={explore}"),
        &["round", "random probing", "balance"],
    );
    let mut r = 1usize;
    while r <= rounds {
        table.row_owned(vec![r.to_string(), fmt_f(random[r]), fmt_f(balance[r])]);
        r = (r * 2).max(r + 1);
    }
    Ok(format!(
        "{table}\nexpected individual cost: random {} vs balance {}\n",
        fmt_f(meanfield::expected_individual_cost(&random)),
        fmt_f(meanfield::expected_individual_cost(&balance)),
    ))
}

const ASYNC_FLAGS: &[&str] = &["n", "goods", "schedule", "trials", "seed"];

/// `distill async` — run the asynchronous model of \[1\].
pub fn run_async(args: &Args) -> Result<String, CliError> {
    use distill_sim::async_engine::{
        AsyncEngine, BalanceStep, Isolate, RandomSchedule, RoundRobin, Schedule, Starve,
    };
    use distill_sim::PlayerId;
    args.ensure_known(ASYNC_FLAGS)?;
    let n = parse_n(args)?;
    let goods: u32 = args.get_or("goods", 1)?;
    let trials: u64 = parse_trials(args, 5)?;
    let seed: u64 = args.get_or("seed", 0)?;
    let schedule_name = args.str_or("schedule", "round-robin");
    match schedule_name.as_str() {
        "round-robin" | "random" | "isolate" | "starve" => {}
        other => return Err(err(format!("unknown schedule {other:?}"))),
    }
    let mut totals = Vec::new();
    let mut p0s = Vec::new();
    for t in 0..trials {
        let world = World::binary(n, goods, seed.wrapping_add(500).wrapping_add(t))
            .map_err(|e| err(e.to_string()))?;
        let schedule: Box<dyn Schedule> = match schedule_name.as_str() {
            "round-robin" => Box::new(RoundRobin::default()),
            "random" => Box::new(RandomSchedule),
            "isolate" => Box::new(Isolate::new(PlayerId(0))),
            _ => Box::new(Starve::new(PlayerId(0))),
        };
        let result = AsyncEngine::new(
            n,
            n,
            seed.wrapping_add(t),
            100_000_000,
            &world,
            Box::new(BalanceStep::new()),
            schedule,
            Box::new(NullAdversary),
        )
        .map_err(|e| err(e.to_string()))?
        .run()
        .map_err(|e| err(e.to_string()))?;
        totals.push(result.total_probes() as f64);
        p0s.push(result.probes_of(PlayerId(0)) as f64);
    }
    let mut table = Table::new(
        format!("async model — n=m={n} goods={goods} schedule={schedule_name} trials={trials}"),
        &["metric", "mean"],
    );
    table.row_owned(vec![
        "total probes (all players)".into(),
        fmt_f(summary_or_blank(&totals).mean),
    ]);
    table.row_owned(vec![
        "player-0 probes".into(),
        fmt_f(summary_or_blank(&p0s).mean),
    ]);
    Ok(table.render())
}

const SERVICE_STRESS_FLAGS: &[&str] = &[
    "producers",
    "posts",
    "batch",
    "readers",
    "n",
    "m",
    "posts-per-round",
    "channel",
    "publish-every",
    "verify",
];

/// `distill service-stress` — drive the concurrent billboard service:
/// `--producers` threads submit `--posts` drafts in `--batch`-sized batches
/// through the bounded channel to the single applier, while `--readers`
/// epoch readers sync and tally concurrently. `--verify` replays the merged
/// log sequentially afterwards and fails (nonzero exit) unless the
/// concurrent end state is byte-identical.
pub fn run_service_stress(args: &Args) -> Result<String, CliError> {
    use distill_service::{run_stress, verify_linearization, StressConfig};
    args.ensure_known(SERVICE_STRESS_FLAGS)?;
    let producers: u32 = args.get_or("producers", 8)?;
    let posts: u64 = args.get_or("posts", 1_000_000)?;
    let batch: usize = args.get_or("batch", 1024)?;
    let readers: u32 = args.get_or("readers", 2)?;
    let n: u32 = args.get_or("n", 256)?;
    let m: u32 = args.get_or("m", 1024)?;
    let posts_per_round: u64 = args.get_or("posts-per-round", 256)?;
    let channel: usize = args.get_or("channel", 256)?;
    let publish_every: u64 = args.get_or("publish-every", 8)?;
    let config = StressConfig::new(producers, posts)
        .with_batch_posts(batch)
        .with_universe(n, m)
        .with_readers(readers)
        .with_posts_per_round(posts_per_round)
        .with_channel_batches(channel)
        .with_publish_every(publish_every);
    let policy = config.policy;
    let (outcome, snapshot) = run_stress(config).map_err(|e| err(e.to_string()))?;
    let mut table = Table::new(
        format!(
            "billboard service — {producers} producers × {posts} posts \
             (batch {batch}, {readers} readers, n={n}, m={m})"
        ),
        &["metric", "value"],
    );
    let ns_cell = |ns: Option<u64>| ns.map_or("-".into(), |v| format!("{v}"));
    table.row_owned(vec!["posts applied".into(), outcome.posts.to_string()]);
    table.row_owned(vec![
        "elapsed (ms)".into(),
        format!("{:.1}", outcome.elapsed_ns as f64 / 1e6),
    ]);
    table.row_owned(vec![
        "posts/sec".into(),
        format!("{:.0}", outcome.posts_per_sec),
    ]);
    table.row_owned(vec!["batches".into(), outcome.batches.to_string()]);
    table.row_owned(vec![
        "held out of order".into(),
        outcome.held_out_of_order.to_string(),
    ]);
    table.row_owned(vec![
        "max pending batches".into(),
        outcome.max_pending.to_string(),
    ]);
    table.row_owned(vec![
        "epochs published".into(),
        outcome.epochs_published.to_string(),
    ]);
    table.row_owned(vec!["reader samples".into(), outcome.reads.to_string()]);
    table.row_owned(vec![
        "tally p50/p99 (ns)".into(),
        format!(
            "{} / {}",
            ns_cell(outcome.tally_p50_ns),
            ns_cell(outcome.tally_p99_ns)
        ),
    ]);
    table.row_owned(vec![
        "sync p50/p99 (ns)".into(),
        format!(
            "{} / {}",
            ns_cell(outcome.sync_p50_ns),
            ns_cell(outcome.sync_p99_ns)
        ),
    ]);
    table.row_owned(vec![
        "tally digest".into(),
        format!("{:016x}", outcome.tally_digest),
    ]);
    if args.has("verify") {
        let ok = verify_linearization(&snapshot, policy);
        table.row_owned(vec![
            "linearization vs sequential replay".into(),
            if ok { "ok" } else { "FAILED" }.into(),
        ]);
        if !ok {
            return Err(err(format!(
                "linearization check failed: the concurrent end state diverges \
                 from a sequential replay of the merged log\n{}",
                table.render()
            )));
        }
    }
    Ok(table.render())
}

const LEMMA9_FLAGS: &[&str] = &["a"];

/// `distill lemma9 <c0,c1,...> --a <f64>` — check the inequality.
pub fn run_lemma9(args: &Args) -> Result<String, CliError> {
    args.ensure_known(LEMMA9_FLAGS)?;
    let seq_raw = args
        .positional
        .first()
        .ok_or_else(|| err("lemma9 needs a sequence, e.g. `distill lemma9 25,23,22,18,14,7`"))?;
    let seq: Vec<u64> = seq_raw
        .split(',')
        .map(|s| s.trim().parse::<u64>())
        .collect::<Result<_, _>>()
        .map_err(|_| err(format!("cannot parse sequence {seq_raw:?}")))?;
    if seq.is_empty() || seq.contains(&0) {
        return Err(err("sequence must be non-empty positive integers"));
    }
    if seq.windows(2).any(|w| w[1] > w[0]) {
        return Err(err("lemma 9 applies to non-increasing sequences"));
    }
    let a: f64 = args.get_or("a", 0.1)?;
    if !(0.0 < a && a < 1.0) {
        return Err(err("--a must be in (0, 1)"));
    }
    let g = lemma9::g_a(&seq, a);
    let rhs = lemma9::lemma9_rhs(&seq, a);
    let rhs_corr = lemma9::lemma9_corrected_rhs(&seq, a);
    let mut table = Table::new(
        format!("Lemma 9 check — sigma={seq:?}, a={a}"),
        &["quantity", "value", "holds?"],
    );
    table.row_owned(vec![
        "f(sigma)".into(),
        fmt_f(lemma9::f_ratio_sum(&seq)),
        "-".into(),
    ]);
    table.row_owned(vec!["g_a(sigma)".into(), fmt_f(g), "-".into()]);
    table.row_owned(vec![
        "paper rhs (ceil(f)+1)·a^(1/c0)".into(),
        fmt_f(rhs),
        if g <= rhs + 1e-9 { "yes" } else { "VIOLATED" }.into(),
    ]);
    table.row_owned(vec![
        "corrected rhs (2f+log2(c0)+1)·a^(1/c0)".into(),
        fmt_f(rhs_corr),
        if g <= rhs_corr + 1e-9 {
            "yes"
        } else {
            "VIOLATED"
        }
        .into(),
    ]);
    Ok(table.render())
}

const BENCH_STORE_FLAGS: &[&str] = &[
    "store",
    "json",
    "commit",
    "timestamp",
    "bench",
    "tolerance",
    "format",
    "inject-regression",
];

/// Escapes a string for the deterministic JSON output (same convention as
/// distill-lint's report writer).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A float as a JSON token: finite values print their shortest round-trip
/// form, everything else (NaN, ±inf, absent) is `null` — strict parsers
/// reject bare non-finite literals.
fn json_num(v: Option<f64>) -> String {
    match v {
        Some(x) if x.is_finite() => format!("{x}"),
        _ => "null".to_string(),
    }
}

/// Reads and parses every `--json` bench dump (comma-separated paths).
fn load_bench_rows(args: &Args) -> Result<Vec<distill_harness::BenchRow>, CliError> {
    let list = args
        .flags
        .get("json")
        .ok_or_else(|| err("bench-store: needs --json <file[,file...]>"))?;
    let mut rows = Vec::new();
    for path in list.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        let text = std::fs::read_to_string(path).map_err(|e| err(format!("--json {path}: {e}")))?;
        rows.extend(
            distill_harness::parse_bench_json(&text).map_err(|e| err(format!("{path}: {e}")))?,
        );
    }
    if rows.is_empty() {
        return Err(err("bench-store: no bench rows in the --json input"));
    }
    Ok(rows)
}

/// `distill bench-store` — the persistent experiment store and trend gate.
pub fn run_bench_store(args: &Args) -> Result<String, CliError> {
    args.ensure_known(BENCH_STORE_FLAGS)?;
    let format = args.str_or("format", "table");
    if format != "table" && format != "json" {
        return Err(err(format!(
            "--format {format:?} not recognized (table | json)"
        )));
    }
    let store_path = args
        .flags
        .get("store")
        .map(std::path::PathBuf::from)
        .ok_or_else(|| err("bench-store: needs --store <path>"))?;
    match args.positional.first().map(String::as_str) {
        Some("append") => bench_store_append(args, &store_path, &format),
        Some("query") => bench_store_query(args, &store_path, &format),
        Some("diff") => bench_store_diff(args, &store_path, &format),
        other => Err(err(format!(
            "bench-store: unknown action {:?} (append | query | diff)",
            other.unwrap_or("<none>")
        ))),
    }
}

fn bench_store_append(
    args: &Args,
    store_path: &std::path::Path,
    format: &str,
) -> Result<String, CliError> {
    let commit = args
        .flags
        .get("commit")
        .ok_or_else(|| err("bench-store append: needs --commit <label>"))?;
    // Deterministic by default: the caller supplies the timestamp (CI passes
    // a fixed one), so re-running an append never invents wall-clock state.
    let timestamp: u64 = args.get_or("timestamp", 0)?;
    let records: Vec<_> = load_bench_rows(args)?
        .into_iter()
        .map(|row| row.into_record(commit, timestamp))
        .collect();
    let outcome = distill_harness::ExperimentStore::append(store_path, &records)
        .map_err(|e| err(e.to_string()))?;
    if format == "json" {
        return Ok(format!(
            "{{\n  \"tool\": \"distill-bench-store\",\n  \"version\": 1,\n  \
             \"store\": \"{}\",\n  \"existing\": {},\n  \"added\": {},\n  \"total\": {}\n}}",
            json_escape(&store_path.display().to_string()),
            outcome.existing,
            outcome.added,
            outcome.store.len(),
        ));
    }
    let mut table = Table::new(
        format!("bench-store append — {}", store_path.display()),
        &["metric", "value"],
    );
    table.row_owned(vec!["records before".into(), outcome.existing.to_string()]);
    table.row_owned(vec!["records added".into(), outcome.added.to_string()]);
    table.row_owned(vec![
        "records total".into(),
        outcome.store.len().to_string(),
    ]);
    table.row_owned(vec!["commit".into(), commit.clone()]);
    table.row_owned(vec!["timestamp".into(), timestamp.to_string()]);
    Ok(table.render())
}

fn bench_store_query(
    args: &Args,
    store_path: &std::path::Path,
    format: &str,
) -> Result<String, CliError> {
    let store =
        distill_harness::ExperimentStore::load(store_path).map_err(|e| err(e.to_string()))?;
    let filter = args.flags.get("bench");
    let records: Vec<_> = store
        .records()
        .iter()
        .filter(|r| filter.map_or(true, |f| &r.bench_id == f))
        .collect();
    if format == "json" {
        let mut out = String::from(
            "{\n  \"tool\": \"distill-bench-store\",\n  \"version\": 1,\n  \"records\": [",
        );
        for (i, r) in records.iter().enumerate() {
            out.push_str(&format!(
                "\n    {{\"bench_id\": \"{}\", \"commit\": \"{}\", \"timestamp\": {}, \
                 \"kind\": \"{}\", \"unit\": \"{}\", \"mean\": {}, \"median\": {}, \
                 \"min\": {}, \"samples\": {}}}{}",
                json_escape(&r.bench_id),
                json_escape(&r.commit),
                r.timestamp,
                r.kind,
                json_escape(&r.unit),
                json_num(Some(r.mean)),
                json_num(Some(r.median)),
                json_num(Some(r.min)),
                r.samples,
                if i + 1 < records.len() { "," } else { "" },
            ));
        }
        out.push_str(if records.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        out.push_str(&format!("  \"total\": {}\n}}", records.len()));
        return Ok(out);
    }
    let mut table = Table::new(
        format!(
            "bench-store query — {} ({} record(s))",
            store_path.display(),
            records.len()
        ),
        &[
            "bench", "commit", "ts", "kind", "unit", "min", "median", "mean", "samples",
        ],
    );
    for r in &records {
        table.row_owned(vec![
            r.bench_id.clone(),
            r.commit.clone(),
            r.timestamp.to_string(),
            r.kind.to_string(),
            r.unit.clone(),
            fmt_f(r.min),
            fmt_f(r.median),
            fmt_f(r.mean),
            r.samples.to_string(),
        ]);
    }
    let mut output = table.render();

    // Per-bench history statistics over the timed `min` series, routed
    // through the Option-returning `analysis` stats: empty or non-finite
    // series (a single degenerate record) come back `None` and render as
    // `-` cells instead of NaN verdicts.
    let mut by_bench: std::collections::BTreeMap<&str, Vec<f64>> =
        std::collections::BTreeMap::new();
    for r in &records {
        if r.kind == distill_harness::RowKind::Timed {
            by_bench.entry(&r.bench_id).or_default().push(r.min);
        }
    }
    if !by_bench.is_empty() {
        let mut stats = Table::new(
            "per-bench min_ns history (timed rows)",
            &["bench", "points", "best", "mean", "ci95 half-width"],
        );
        for (bench, mins) in &by_bench {
            let summary = Summary::of(mins);
            let ci = distill_analysis::ci95(mins);
            stats.row_owned(vec![
                (*bench).to_string(),
                mins.len().to_string(),
                fmt_f(summary.map_or(f64::NAN, |s| s.min)),
                fmt_f(summary.map_or(f64::NAN, |s| s.mean)),
                fmt_f(ci.map_or(f64::NAN, |c| c.half_width())),
            ]);
        }
        output.push('\n');
        output.push_str(&stats.render());
    }
    Ok(output)
}

fn bench_store_diff(
    args: &Args,
    store_path: &std::path::Path,
    format: &str,
) -> Result<String, CliError> {
    let tolerance: f64 = args.get_or("tolerance", 0.5)?;
    if !tolerance.is_finite() || tolerance < 0.0 {
        return Err(err("--tolerance must be a finite fraction >= 0"));
    }
    // CI self-test hook (mirrors sweep's --inject-panic): scale the current
    // timed rows so the gate demonstrably fails on a known-bad run.
    let inject: f64 = args.get_or("inject-regression", 1.0)?;
    if !inject.is_finite() || inject <= 0.0 {
        return Err(err("--inject-regression must be a finite factor > 0"));
    }
    let commit = args.str_or("commit", "current");
    let store =
        distill_harness::ExperimentStore::load(store_path).map_err(|e| err(e.to_string()))?;
    let mut current: Vec<_> = load_bench_rows(args)?
        .into_iter()
        .map(|row| row.into_record(&commit, 0))
        .collect();
    if inject != 1.0 {
        for r in &mut current {
            if r.kind == distill_harness::RowKind::Timed {
                r.mean *= inject;
                r.median *= inject;
                r.min *= inject;
            }
        }
    }
    let gate = distill_harness::TrendGate { tolerance };
    let verdicts = gate.evaluate(&store, &current);
    let regressed = verdicts
        .iter()
        .filter(|v| v.status == distill_harness::TrendStatus::Regressed)
        .count();

    let output = if format == "json" {
        let mut out = format!(
            "{{\n  \"tool\": \"distill-bench-store\",\n  \"version\": 1,\n  \
             \"tolerance\": {},\n  \"regressed\": {regressed},\n  \"verdicts\": [",
            json_num(Some(tolerance)),
        );
        for (i, v) in verdicts.iter().enumerate() {
            out.push_str(&format!(
                "\n    {{\"bench_id\": \"{}\", \"kind\": \"{}\", \"unit\": \"{}\", \
                 \"baseline_points\": {}, \"baseline_min\": {}, \"baseline_median\": {}, \
                 \"current_min\": {}, \"current_median\": {}, \"min_ratio\": {}, \
                 \"status\": \"{}\"}}{}",
                json_escape(&v.bench_id),
                v.kind,
                json_escape(&v.unit),
                v.baseline_points,
                json_num(v.baseline_min),
                json_num(v.baseline_median),
                json_num(Some(v.current_min)),
                json_num(Some(v.current_median)),
                json_num(v.min_ratio),
                v.status,
                if i + 1 < verdicts.len() { "," } else { "" },
            ));
        }
        out.push_str(if verdicts.is_empty() {
            "]\n}"
        } else {
            "\n  ]\n}"
        });
        out
    } else {
        let mut table = Table::new(
            format!(
                "bench-store diff — {} vs {} (tolerance {:.0}%)",
                commit,
                store_path.display(),
                tolerance * 100.0
            ),
            &[
                "bench", "kind", "pts", "base min", "cur min", "ratio", "status",
            ],
        );
        for v in &verdicts {
            table.row_owned(vec![
                v.bench_id.clone(),
                v.kind.to_string(),
                v.baseline_points.to_string(),
                fmt_f(v.baseline_min.unwrap_or(f64::NAN)),
                fmt_f(v.current_min),
                fmt_f(v.min_ratio.unwrap_or(f64::NAN)),
                v.status.to_string(),
            ]);
        }
        table.render()
    };
    if regressed > 0 {
        return Err(CliError::Regression {
            output,
            count: regressed,
        });
    }
    Ok(output)
}

fn num_threads() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
}

/// Dispatches a parsed command line.
pub fn dispatch(args: &Args) -> Result<String, CliError> {
    match args.command.as_str() {
        "run" => run(args),
        "sweep" => sweep(args),
        "sweep-worker" => sweep_worker(args),
        "sweep-supervise" => sweep_supervise(args),
        "gauntlet" => run_gauntlet(args),
        "bounds" => run_bounds(args),
        "lemma9" => run_lemma9(args),
        "meanfield" => run_meanfield(args),
        "async" => run_async(args),
        "service-stress" => run_service_stress(args),
        "bench-store" => run_bench_store(args),
        "help" | "--help" | "-h" => Ok(help()),
        other => Err(err(format!(
            "unknown command {other:?} (try `distill help`)"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &[&str]) -> Args {
        Args::parse(line.iter().copied(), &[]).unwrap()
    }

    #[test]
    fn help_lists_commands() {
        let h = help();
        for cmd in [
            "run",
            "sweep",
            "sweep-worker",
            "sweep-supervise",
            "gauntlet",
            "bounds",
            "lemma9",
            "service-stress",
            "bench-store",
        ] {
            assert!(h.contains(cmd), "help must mention {cmd}");
        }
        for flag in [
            "--checkpoint",
            "--resume",
            "--trial-timeout",
            "--max-retries",
            "--stream",
            "--queue",
            "--lease-ttl",
            "--max-claims",
            "--workers",
            "--max-restarts",
        ] {
            assert!(h.contains(flag), "help must mention {flag}");
        }
    }

    #[test]
    fn service_stress_runs_and_verifies() {
        let args = Args::parse(
            [
                "service-stress",
                "--producers",
                "4",
                "--posts",
                "20000",
                "--batch",
                "256",
                "--readers",
                "1",
                "--verify",
            ]
            .iter()
            .copied(),
            &["verify"],
        )
        .unwrap();
        let out = run_service_stress(&args).unwrap();
        assert!(out.contains("posts applied"));
        assert!(out.contains("20000"));
        assert!(out.contains("linearization"));
        assert!(out.contains("ok"));
        // unknown flags are rejected
        let bad = Args::parse(["service-stress", "--bogus", "1"].iter().copied(), &[]).unwrap();
        assert!(run_service_stress(&bad).is_err());
    }

    fn sweep_tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("distill-cli-sweep-{}-{name}", std::process::id()))
    }

    fn parse_with_switches(line: &[&str]) -> Args {
        Args::parse(line.iter().copied(), &["resume"]).unwrap()
    }

    #[test]
    fn sweep_small_simulation() {
        let out = dispatch(&parse(&[
            "sweep", "--n", "16", "--m", "16", "--honest", "14", "--trials", "3", "--seed", "5",
        ]))
        .unwrap();
        assert!(out.contains("completed"));
        assert!(out.contains("3/3"));
        assert!(out.contains("quarantined"));
    }

    #[test]
    fn sweep_checkpoint_resume_digests_match() {
        let ckpt = sweep_tmp("resume.ckpt");
        let out_a = sweep_tmp("a.txt");
        let out_b = sweep_tmp("b.txt");
        for p in [&ckpt, &out_a, &out_b] {
            std::fs::remove_file(p).ok();
        }
        let base = [
            "sweep", "--n", "16", "--honest", "14", "--trials", "4", "--seed", "9",
        ];
        // Uninterrupted reference.
        let mut args_a: Vec<String> = base.iter().map(|s| s.to_string()).collect();
        args_a.extend(["--out".into(), out_a.display().to_string()]);
        dispatch(&Args::parse(args_a, &["resume"]).unwrap()).unwrap();
        // Checkpointed run, then a redundant resume; digests must match.
        let mut args_b: Vec<String> = base.iter().map(|s| s.to_string()).collect();
        args_b.extend([
            "--checkpoint".into(),
            ckpt.display().to_string(),
            "--checkpoint-every".into(),
            "1".into(),
        ]);
        dispatch(&Args::parse(args_b.clone(), &["resume"]).unwrap()).unwrap();
        args_b.extend([
            "--resume".into(),
            "--out".into(),
            out_b.display().to_string(),
        ]);
        let out = dispatch(&Args::parse(args_b, &["resume"]).unwrap()).unwrap();
        assert!(out.contains("resumed from checkpoint"));
        let a = std::fs::read_to_string(&out_a).unwrap();
        let b = std::fs::read_to_string(&out_b).unwrap();
        assert!(!a.is_empty());
        assert_eq!(a, b, "resumed sweep must reproduce the reference digests");
        for p in [&ckpt, &out_a, &out_b] {
            std::fs::remove_file(p).ok();
        }
        let mut q = ckpt.as_os_str().to_owned();
        q.push(".quarantine.jsonl");
        std::fs::remove_file(std::path::PathBuf::from(q)).ok();
    }

    #[test]
    fn sweep_inject_panic_quarantines() {
        let quarantine = sweep_tmp("q.jsonl");
        std::fs::remove_file(&quarantine).ok();
        let err = dispatch(&parse(&[
            "sweep",
            "--n",
            "16",
            "--honest",
            "14",
            "--trials",
            "3",
            "--inject-panic",
            "1",
            "--max-retries",
            "0",
            "--quarantine",
            quarantine.to_str().unwrap(),
        ]))
        .unwrap_err();
        match err {
            CliError::Quarantined { output, count } => {
                assert_eq!(count, 1);
                assert!(output.contains("2/3"));
                assert!(output.contains("quarantined trial 1"));
            }
            other => panic!("expected Quarantined, got {other:?}"),
        }
        let text = std::fs::read_to_string(&quarantine).unwrap();
        assert!(text.contains("\"trial\":1"));
        assert!(text.contains("injected panic"));
        std::fs::remove_file(&quarantine).ok();
    }

    #[test]
    fn sweep_rejects_bad_flags() {
        assert!(dispatch(&parse_with_switches(&["sweep", "--resume"])).is_err()); // no checkpoint
        assert!(dispatch(&parse(&["sweep", "--trials", "0"])).is_err());
        assert!(dispatch(&parse(&["sweep", "--trial-timeout", "-1"])).is_err());
        assert!(dispatch(&parse(&["sweep", "--algorithm", "nope"])).is_err());
        assert!(dispatch(&parse(&["sweep", "--bogus", "1"])).is_err());
    }

    fn parse_stream(line: &[&str]) -> Args {
        Args::parse(line.iter().copied(), &["resume", "stream"]).unwrap()
    }

    /// `sweep --stream` must report the same mean cost (to rounding) and
    /// satisfied count as the retained sweep of the same spec, also when
    /// resumed from its checkpoint, while refusing `--out`.
    #[test]
    fn sweep_stream_matches_retained_aggregates() {
        let base = [
            "sweep", "--n", "16", "--honest", "14", "--trials", "6", "--seed", "3",
        ];
        let retained = dispatch(&parse(&base)).unwrap();
        let mut with_stream: Vec<&str> = base.to_vec();
        with_stream.push("--stream");
        let streamed = dispatch(&parse_stream(&with_stream)).unwrap();
        let grab = |out: &str, label: &str| -> String {
            out.lines()
                .find(|l| l.contains(label))
                .unwrap_or_else(|| panic!("no {label:?} row in:\n{out}"))
                .split_whitespace()
                .last()
                .unwrap()
                .to_string()
        };
        assert_eq!(
            grab(&retained, "mean individual cost"),
            grab(&streamed, "mean individual cost"),
            "streaming must not change the mean"
        );
        assert_eq!(
            grab(&retained, "trials fully satisfied"),
            grab(&streamed, "trials fully satisfied"),
        );
        assert!(streamed.contains("completed"));
        assert!(streamed.contains("6/6"));
        assert!(streamed.contains("p50/p90/p99"));

        // Streaming keeps no per-trial results, so `--out` is refused.
        let bad = ["sweep", "--stream", "--out", "/tmp/x.digests"];
        assert!(dispatch(&parse_stream(&bad)).is_err(), "{bad:?} must fail");

        // It checkpoints like a retained sweep, and a resume that finds
        // every trial in the log folds them all.
        let ckpt = sweep_tmp("stream.ckpt");
        let ckpt_s = ckpt.display().to_string();
        std::fs::remove_file(&ckpt).ok();
        let mut checkpointed = with_stream.clone();
        checkpointed.extend_from_slice(&["--checkpoint", &ckpt_s]);
        dispatch(&parse_stream(&checkpointed)).unwrap();
        checkpointed.push("--resume");
        let resumed = dispatch(&parse_stream(&checkpointed)).unwrap();
        assert_eq!(grab(&resumed, "resumed from checkpoint"), "6");
        assert_eq!(
            grab(&resumed, "mean individual cost"),
            grab(&retained, "mean individual cost"),
        );
        std::fs::remove_file(&ckpt).ok();
        std::fs::remove_file(format!("{ckpt_s}.quarantine.jsonl")).ok();
    }

    /// Two in-process fabric workers on one queue: disjoint leased chunks,
    /// and the merged checkpoints reproduce the single-process sweep's
    /// digests bit-for-bit.
    #[test]
    fn sweep_workers_share_a_queue_and_merge_matches_reference() {
        let dir = std::env::temp_dir().join(format!("distill-cli-fabric-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let queue = dir.join("sweep.queue");
        let queue_s = queue.display().to_string();
        let out_ref = dir.join("reference.digests");

        let spec = [
            "--n", "16", "--honest", "14", "--trials", "6", "--seed", "11",
        ];
        // Single-process reference digests.
        let mut ref_args: Vec<&str> = vec!["sweep"];
        ref_args.extend_from_slice(&spec);
        let out_ref_s = out_ref.display().to_string();
        ref_args.extend_from_slice(&["--out", &out_ref_s]);
        dispatch(&parse(&ref_args)).unwrap();

        // Worker 0 claims one chunk then stops (simulating a short-lived
        // process); worker 1 drains the rest.
        let worker = |id: &str, extra: &[&str]| {
            let mut argv: Vec<&str> = vec![
                "sweep-worker",
                "--queue",
                &queue_s,
                "--worker-id",
                id,
                "--chunk",
                "2",
            ];
            argv.extend_from_slice(&spec);
            argv.extend_from_slice(extra);
            dispatch(&parse(&argv)).unwrap()
        };
        let out0 = worker("0", &["--stop-after-chunks", "1"]);
        assert!(out0.contains("chunks claimed"));
        let out1 = worker("1", &[]);
        assert!(out1.contains("queue fully done"), "{out1}");
        assert!(
            out1.contains("true"),
            "worker 1 must drain the queue: {out1}"
        );

        // Merge the per-worker checkpoints exactly as sweep-supervise does.
        let parts: Vec<_> = (0..2)
            .map(|id| {
                distill_harness::Checkpoint::load(&distill_harness::worker_checkpoint_path(
                    &queue, id,
                ))
                .unwrap()
            })
            .collect();
        let merged = distill_harness::merge_checkpoints(&parts).unwrap();
        assert_eq!(merged.completed.len(), 6);
        assert_eq!(
            digest_lines(merged.completed.iter().map(|(t, r)| (*t, &**r))),
            std::fs::read_to_string(&out_ref).unwrap(),
            "fabric merge must be bit-identical to the single-process sweep"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A worker killed mid-append and never restarted leaves a torn last
    /// frame behind a queue the other workers finished. `sweep-supervise`
    /// spawns nothing for a finished queue, merges past the torn frame, and
    /// still reproduces the single-process digests; other damage is an
    /// error.
    #[test]
    fn sweep_supervise_merges_past_a_torn_worker_log() {
        let dir = std::env::temp_dir().join(format!("distill-cli-torn-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let queue = dir.join("sweep.queue");
        let queue_s = queue.display().to_string();
        let out_ref_s = dir.join("reference.digests").display().to_string();
        let out_s = dir.join("fabric.digests").display().to_string();
        let spec = [
            "--n", "16", "--honest", "14", "--trials", "6", "--seed", "13",
        ];
        let run = |head: &[&str], tail: &[&str]| {
            let argv: Vec<&str> = head.iter().chain(&spec).chain(tail).copied().collect();
            dispatch(&parse(&argv))
        };
        run(&["sweep"], &["--out", &out_ref_s]).unwrap();
        let worker = [
            "sweep-worker",
            "--queue",
            &queue_s,
            "--chunk",
            "2",
            "--worker-id",
        ];
        run(
            &[&worker[..], &["0"]].concat(),
            &["--stop-after-chunks", "1"],
        )
        .unwrap();
        run(&[&worker[..], &["1"]].concat(), &[]).unwrap();

        // The torn frame: the opening bytes of a frame, cut short.
        let log = distill_harness::worker_checkpoint_path(&queue, 1);
        let whole = std::fs::read(&log).unwrap();
        std::fs::write(&log, [&whole[..], &whole[..100]].concat()).unwrap();
        let supervise = [
            "sweep-supervise",
            "--queue",
            &queue_s,
            "--chunk",
            "2",
            "--workers",
            "2",
        ];
        let report = run(&supervise, &["--out", &out_s]).unwrap();
        assert!(report.contains("6/6"), "{report}");
        assert_eq!(
            std::fs::read_to_string(&out_s).unwrap(),
            std::fs::read_to_string(&out_ref_s).unwrap()
        );

        let mut flipped = whole.clone();
        flipped[whole.len() / 2] ^= 1;
        std::fs::write(&log, &flipped).unwrap();
        assert!(run(&supervise, &[]).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fabric_commands_validate_flags() {
        // Both fabric commands refuse to run without a queue.
        assert!(dispatch(&parse(&["sweep-worker"])).is_err());
        assert!(dispatch(&parse(&["sweep-supervise"])).is_err());
        for (flag, bad) in [
            ("--chunk", "0"),
            ("--max-claims", "0"),
            ("--lease-ttl", "0"),
            ("--lease-ttl", "-3"),
            ("--trial-timeout", "-1"),
        ] {
            let argv = ["sweep-worker", "--queue", "/tmp/q", flag, bad];
            assert!(dispatch(&parse(&argv)).is_err(), "{flag} {bad} must fail");
        }
        assert!(dispatch(&parse(&[
            "sweep-supervise",
            "--queue",
            "/tmp/q",
            "--workers",
            "0"
        ]))
        .is_err());
        // Unknown flags rejected on both.
        assert!(dispatch(&parse(&[
            "sweep-worker",
            "--queue",
            "/tmp/q",
            "--bogus",
            "1"
        ]))
        .is_err());
        assert!(dispatch(&parse(&[
            "sweep-supervise",
            "--queue",
            "/tmp/q",
            "--bogus",
            "1"
        ]))
        .is_err());
        // The spec surface is validated identically to sweep's.
        assert!(dispatch(&parse(&[
            "sweep-worker",
            "--queue",
            "/tmp/q",
            "--algorithm",
            "nope"
        ]))
        .is_err());
    }

    #[test]
    fn run_small_simulation() {
        let out = dispatch(&parse(&[
            "run",
            "--n",
            "32",
            "--honest",
            "24",
            "--trials",
            "3",
            "--algorithm",
            "distill",
            "--adversary",
            "uniform-bad",
        ]))
        .unwrap();
        assert!(out.contains("individual cost"));
        assert!(out.contains("3/3"), "all trials should satisfy: {out}");
        assert!(out.contains("Theorem 4"));
    }

    #[test]
    fn run_with_faults_reports_counters_and_alpha_eff() {
        let out = dispatch(&parse(&[
            "run",
            "--n",
            "32",
            "--honest",
            "28",
            "--trials",
            "3",
            "--drop-rate",
            "0.2",
            "--crash-rate",
            "0.25",
            "--view-lag",
            "1",
        ]))
        .unwrap();
        assert!(out.contains("posts dropped"), "fault rows missing: {out}");
        assert!(out.contains("survivor cost"));
        assert!(out.contains("effective alpha'"), "no alpha' line: {out}");
    }

    #[test]
    fn noop_fault_flags_print_no_fault_rows() {
        let out = dispatch(&parse(&[
            "run", "--n", "32", "--honest", "24", "--trials", "2",
        ]))
        .unwrap();
        assert!(!out.contains("posts dropped"));
        assert!(!out.contains("effective alpha'"));
    }

    #[test]
    fn run_rejects_nonsense() {
        assert!(dispatch(&parse(&["run", "--algorithm", "nope"])).is_err());
        assert!(dispatch(&parse(&["run", "--adversary", "nope"])).is_err());
        assert!(dispatch(&parse(&["run", "--honest", "0"])).is_err());
        assert!(dispatch(&parse(&["run", "--drop-rate", "1.5"])).is_err());
        assert!(dispatch(&parse(&[
            "run",
            "--crash-rate",
            "0.5",
            "--crash-window",
            "0"
        ]))
        .is_err());
        assert!(dispatch(&parse(&["run", "--bogus-flag", "1"])).is_err());
        assert!(dispatch(&parse(&["frobnicate"])).is_err());
    }

    /// A population past the u32 id space must fail with the typed id-space
    /// message (on both entry points), not a parse error or a truncated run.
    #[test]
    fn oversize_population_reports_the_id_space_limit() {
        let over = (u64::from(u32::MAX) + 1).to_string();
        for cmd in ["run", "sweep", "gauntlet", "async"] {
            let e = dispatch(&parse(&[cmd, "--n", &over])).unwrap_err();
            assert!(
                format!("{e}").contains("u32 id space"),
                "{cmd}: expected the id-space error, got: {e}"
            );
        }
    }

    #[test]
    fn zero_trials_are_refused_by_every_command() {
        for cmd in [
            "run",
            "sweep",
            "sweep-worker",
            "sweep-supervise",
            "gauntlet",
            "async",
        ] {
            let e = dispatch(&parse(&[cmd, "--n", "16", "--trials", "0"])).unwrap_err();
            assert!(
                format!("{e}").contains("--trials must be at least 1"),
                "{cmd}: expected the zero-trials error, got: {e}"
            );
        }
    }

    #[test]
    fn run_trials_equal_the_sweep_of_the_same_spec() {
        // A faulted spec, so the arena reuse covers the churn plane too.
        let (spec, trials) = parse_sweep_spec(&parse(&[
            "sweep",
            "--n",
            "24",
            "--honest",
            "20",
            "--goods",
            "2",
            "--trials",
            "6",
            "--seed",
            "31",
            "--f",
            "2",
            "--drop-rate",
            "0.2",
            "--view-lag",
            "1",
            "--crash-rate",
            "0.3",
            "--crash-window",
            "8",
            "--recovery-rate",
            "0.2",
        ]))
        .unwrap();
        // Two workers over six trials: at least one reuses its arena.
        let run: Vec<_> = (0..).zip(run_spec_trials(&spec, trials, 2)).collect();
        let config = distill_harness::SweepConfig {
            threads: 2,
            ..distill_harness::SweepConfig::new(trials)
        };
        let sweep = distill_harness::run_sweep(std::sync::Arc::new(spec), &config).unwrap();
        assert_eq!(run.len(), 6);
        let digests = |results: &[(u64, distill_sim::SimResult)]| {
            digest_lines(results.iter().map(|(t, r)| (*t, r)))
        };
        assert_eq!(digests(&run), digests(&sweep.results));
    }

    #[test]
    fn gauntlet_reports_every_strategy() {
        let out = dispatch(&parse(&["gauntlet", "--n", "32", "--trials", "2"])).unwrap();
        for entry in gauntlet() {
            assert!(out.contains(entry.name), "missing {} in {out}", entry.name);
        }
        assert!(
            !out.contains("NO"),
            "all strategies must be survived: {out}"
        );
    }

    #[test]
    fn bounds_table_renders() {
        let out = dispatch(&parse(&["bounds", "--n", "1024", "--alpha", "0.9"])).unwrap();
        assert!(out.contains("Thm 4"));
        assert!(out.contains("Thm 12"));
        assert!(dispatch(&parse(&["bounds", "--alpha", "1.5"])).is_err());
    }

    #[test]
    fn lemma9_detects_the_counterexample() {
        let out = dispatch(
            &Args::parse(
                ["lemma9", "25,23,22,18,14,7", "--a", "0.0019304541362277093"],
                &[],
            )
            .unwrap(),
        )
        .unwrap();
        assert!(
            out.contains("VIOLATED"),
            "the documented counterexample: {out}"
        );
        assert!(
            out.matches("yes").count() >= 1,
            "corrected bound holds: {out}"
        );
    }

    #[test]
    fn meanfield_prints_dynamics() {
        let out = dispatch(&parse(&["meanfield", "--n", "1024", "--rounds", "64"])).unwrap();
        assert!(out.contains("balance"));
        assert!(out.contains("expected individual cost"));
        assert!(dispatch(&parse(&["meanfield", "--beta", "2.0"])).is_err());
    }

    #[test]
    fn async_runs_schedules() {
        for sched in ["round-robin", "isolate", "starve"] {
            let out = dispatch(&parse(&[
                "async",
                "--n",
                "32",
                "--trials",
                "2",
                "--schedule",
                sched,
            ]))
            .unwrap();
            assert!(out.contains("player-0 probes"), "{sched}: {out}");
        }
        assert!(dispatch(&parse(&["async", "--schedule", "nope"])).is_err());
    }

    #[test]
    fn isolate_costs_player_zero_more() {
        let grab = |sched: &str| -> f64 {
            let out = dispatch(&parse(&[
                "async",
                "--n",
                "64",
                "--trials",
                "3",
                "--schedule",
                sched,
            ]))
            .unwrap();
            let line = out
                .lines()
                .find(|l| l.contains("player-0 probes"))
                .expect("metric line")
                .to_string();
            line.split_whitespace().last().unwrap().parse().unwrap()
        };
        assert!(
            grab("isolate") > grab("starve"),
            "isolation must dominate starvation"
        );
    }

    #[test]
    fn lemma9_validates_input() {
        assert!(dispatch(&parse(&["lemma9"])).is_err());
        assert!(dispatch(&parse(&["lemma9", "3,5"])).is_err()); // increasing
        assert!(dispatch(&parse(&["lemma9", "abc"])).is_err());
        assert!(dispatch(&Args::parse(["lemma9", "4,2", "--a", "1.5"], &[]).unwrap()).is_err());
        // a valid, holding case
        let out =
            dispatch(&Args::parse(["lemma9", "8,4,2,1", "--a", "0.01"], &[]).unwrap()).unwrap();
        assert!(!out.contains("VIOLATED"));
    }

    // ---- bench-store --------------------------------------------------

    fn bench_store_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "distill-cli-bench-store-{name}-{}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_bench_json(dir: &std::path::Path, name: &str, min: f64, median: f64) -> String {
        let path = dir.join(name);
        let text = format!(
            "{{\"benches\": [\
             {{\"id\": \"engine/round\", \"kind\": \"timed\", \"unit\": \"ns\", \
              \"mean_ns\": {mean}, \"median_ns\": {median}, \"min_ns\": {min}, \
              \"samples\": 10, \"throughput_per_sec\": 1.0}},\
             {{\"id\": \"alloc/per_round\", \"kind\": \"value\", \"unit\": \"allocs/round\", \
              \"mean_ns\": 0.0, \"median_ns\": 0.0, \"min_ns\": 0.0, \
              \"samples\": 1, \"throughput_per_sec\": 0.0}}\
             ]}}",
            mean = (min + median) / 2.0,
        );
        std::fs::write(&path, text).unwrap();
        path.display().to_string()
    }

    #[test]
    fn bench_store_append_twice_is_bit_identical_and_diff_passes() {
        let dir = bench_store_dir("idempotent");
        let store = dir.join("history.store").display().to_string();
        let json = write_bench_json(&dir, "run.json", 100.0, 120.0);
        let append = |_: ()| {
            dispatch(&parse(&[
                "bench-store",
                "append",
                "--store",
                &store,
                "--json",
                &json,
                "--commit",
                "seed",
            ]))
            .unwrap()
        };
        let out = append(());
        assert!(out.contains("records added"));
        let bytes_once = std::fs::read(&store).unwrap();
        append(());
        assert_eq!(
            std::fs::read(&store).unwrap(),
            bytes_once,
            "second append of the same run must leave the store bit-identical"
        );
        // Re-run of the same commit passes the gate: no regression.
        let out = dispatch(&parse(&[
            "bench-store",
            "diff",
            "--store",
            &store,
            "--json",
            &json,
        ]))
        .unwrap();
        assert!(out.contains("pass"));
        assert!(out.contains("value (not gated)"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bench_store_diff_fails_on_injected_regression_with_exit_code_4_semantics() {
        let dir = bench_store_dir("inject");
        let store = dir.join("history.store").display().to_string();
        let json = write_bench_json(&dir, "run.json", 100.0, 120.0);
        dispatch(&parse(&[
            "bench-store",
            "append",
            "--store",
            &store,
            "--json",
            &json,
            "--commit",
            "seed",
        ]))
        .unwrap();
        // 3x slower on min and median: past the 50% band.
        let result = dispatch(&parse(&[
            "bench-store",
            "diff",
            "--store",
            &store,
            "--json",
            &json,
            "--inject-regression",
            "3.0",
        ]));
        match result {
            Err(CliError::Regression { output, count }) => {
                assert_eq!(count, 1, "only the timed row regresses");
                assert!(output.contains("REGRESSED"));
                // The injected factor must never push the value row through
                // the gate in ns terms.
                assert!(output.contains("value (not gated)"));
            }
            other => panic!("expected Regression, got {other:?}"),
        }
        // A wider tolerance absorbs the same injection.
        assert!(dispatch(&parse(&[
            "bench-store",
            "diff",
            "--store",
            &store,
            "--json",
            &json,
            "--inject-regression",
            "3.0",
            "--tolerance",
            "5.0",
        ]))
        .is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Satellite regression test: a single-sample, zero-variance, or
    /// degenerate (zero / non-finite) series must render `-` cells and an
    /// `indeterminate` verdict — never NaN — in both query and diff output.
    #[test]
    fn bench_store_degenerate_series_render_dashes_not_nan() {
        let dir = bench_store_dir("degenerate");
        let store = dir.join("history.store").display().to_string();
        // Healthy single-sample history for two benches (zero variance)...
        let seed = dir.join("seed.json");
        std::fs::write(
            &seed,
            "{\"benches\": [\
             {\"id\": \"degenerate/zero\", \"kind\": \"timed\", \"unit\": \"ns\", \
              \"mean_ns\": 10.0, \"median_ns\": 10.0, \"min_ns\": 10.0, \
              \"samples\": 1, \"throughput_per_sec\": 1.0},\
             {\"id\": \"healthy/one\", \"kind\": \"timed\", \"unit\": \"ns\", \
              \"mean_ns\": 50.0, \"median_ns\": 50.0, \"min_ns\": 50.0, \
              \"samples\": 1, \"throughput_per_sec\": 1.0}\
             ]}",
        )
        .unwrap();
        let seed = seed.display().to_string();
        // ...and a current run where one bench's timer collapsed to 0 ns.
        let path = dir.join("run.json");
        std::fs::write(
            &path,
            "{\"benches\": [\
             {\"id\": \"degenerate/zero\", \"kind\": \"timed\", \"unit\": \"ns\", \
              \"mean_ns\": 0.0, \"median_ns\": 0.0, \"min_ns\": 0.0, \
              \"samples\": 1, \"throughput_per_sec\": 0.0},\
             {\"id\": \"healthy/one\", \"kind\": \"timed\", \"unit\": \"ns\", \
              \"mean_ns\": 50.0, \"median_ns\": 50.0, \"min_ns\": 50.0, \
              \"samples\": 1, \"throughput_per_sec\": 1.0}\
             ]}",
        )
        .unwrap();
        let json = path.display().to_string();
        dispatch(&parse(&[
            "bench-store",
            "append",
            "--store",
            &store,
            "--json",
            &seed,
            "--commit",
            "seed",
        ]))
        .unwrap();
        // The degenerate run itself also lands in the store, so the query
        // path sees a series containing a zero (Summary still finite) and a
        // bench history of one point (ci95 half-width 0, never NaN).
        dispatch(&parse(&[
            "bench-store",
            "append",
            "--store",
            &store,
            "--json",
            &json,
            "--commit",
            "zeroed",
        ]))
        .unwrap();
        let query = dispatch(&parse(&["bench-store", "query", "--store", &store])).unwrap();
        assert!(
            !query.contains("NaN"),
            "query must never print NaN:\n{query}"
        );
        let diff = dispatch(&parse(&[
            "bench-store",
            "diff",
            "--store",
            &store,
            "--json",
            &json,
        ]))
        .unwrap();
        assert!(!diff.contains("NaN"), "diff must never print NaN:\n{diff}");
        assert!(diff.contains("indeterminate"));
        assert!(diff.contains("pass"), "the healthy bench still passes");
        // JSON output: degenerate ratios are null, not NaN.
        let diff_json = dispatch(&parse(&[
            "bench-store",
            "diff",
            "--store",
            &store,
            "--json",
            &json,
            "--format",
            "json",
        ]))
        .unwrap();
        assert!(!diff_json.contains("NaN"));
        assert!(diff_json.contains("\"min_ratio\": null"));
        assert!(diff_json.contains("\"status\": \"indeterminate\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bench_store_query_lists_history_and_filters() {
        let dir = bench_store_dir("query");
        let store = dir.join("history.store").display().to_string();
        let a = write_bench_json(&dir, "a.json", 100.0, 120.0);
        let b = write_bench_json(&dir, "b.json", 90.0, 110.0);
        for (json, commit) in [(&a, "c1"), (&b, "c2")] {
            dispatch(&parse(&[
                "bench-store",
                "append",
                "--store",
                &store,
                "--json",
                json,
                "--commit",
                commit,
            ]))
            .unwrap();
        }
        let out = dispatch(&parse(&["bench-store", "query", "--store", &store])).unwrap();
        assert!(out.contains("4 record(s)"));
        assert!(out.contains("per-bench min_ns history"));
        let filtered = dispatch(&parse(&[
            "bench-store",
            "query",
            "--store",
            &store,
            "--bench",
            "engine/round",
            "--format",
            "json",
        ]))
        .unwrap();
        assert!(filtered.contains("\"total\": 2"));
        assert!(filtered.contains("\"commit\": \"c1\""));
        assert!(filtered.contains("\"commit\": \"c2\""));
        assert!(!filtered.contains("alloc/per_round"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bench_store_validates_input() {
        let dir = bench_store_dir("validate");
        let store = dir.join("history.store").display().to_string();
        // No action / unknown action / missing flags.
        assert!(dispatch(&parse(&["bench-store"])).is_err());
        assert!(dispatch(&parse(&["bench-store", "frobnicate", "--store", &store])).is_err());
        assert!(dispatch(&parse(&["bench-store", "append", "--store", &store])).is_err());
        // Append without --commit.
        let json = write_bench_json(&dir, "run.json", 100.0, 120.0);
        assert!(dispatch(&parse(&[
            "bench-store",
            "append",
            "--store",
            &store,
            "--json",
            &json
        ]))
        .is_err());
        // Pre-schema JSON (no kind/unit) is refused with the typed message.
        let legacy = dir.join("legacy.json");
        std::fs::write(
            &legacy,
            "{\"benches\": [{\"id\": \"x\", \"mean_ns\": 1.0, \"median_ns\": 1.0, \
             \"min_ns\": 1.0, \"samples\": 1, \"throughput_per_sec\": 1.0}]}",
        )
        .unwrap();
        let legacy = legacy.display().to_string();
        let e = dispatch(&parse(&[
            "bench-store",
            "append",
            "--store",
            &store,
            "--json",
            &legacy,
            "--commit",
            "seed",
        ]))
        .unwrap_err();
        assert!(e.to_string().contains("kind"));
        // Diff against a missing store is a hard error, bad tolerance too.
        assert!(dispatch(&parse(&[
            "bench-store",
            "diff",
            "--store",
            &store,
            "--json",
            &json
        ]))
        .is_err());
        assert!(dispatch(&parse(&[
            "bench-store",
            "diff",
            "--store",
            &store,
            "--json",
            &json,
            "--tolerance",
            "-1"
        ]))
        .is_err());
        // Unknown flags and formats are rejected.
        assert!(dispatch(&parse(&[
            "bench-store",
            "query",
            "--store",
            &store,
            "--bogus",
            "1"
        ]))
        .is_err());
        assert!(dispatch(&parse(&[
            "bench-store",
            "query",
            "--store",
            &store,
            "--format",
            "xml"
        ]))
        .is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
