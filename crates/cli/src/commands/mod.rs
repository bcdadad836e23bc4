//! CLI commands. Each command builds its output as a `String` so the whole
//! surface is unit-testable without capturing stdout.

mod bench_store;
mod models;
mod run;
mod spec;
mod sweep;

use crate::args::{ArgError, Args};
use bench_store::run_bench_store;
use distill_analysis::Summary;
use distill_sim::player_count;
use models::{run_async, run_bounds, run_lemma9, run_meanfield, run_service_stress};
use run::{run, run_gauntlet};
use sweep::{sweep, sweep_supervise, sweep_worker};

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
               quarantine, retries, watchdog timeouts; streams each
               trial into O(1)-memory aggregates
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
                         slander | ballot-stuffer | advice-bait | lull |
                         flooder  (uniform-bad)
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
    --inject-panic <u64>     test hook: panic in this trial
    keeps no result: each trial's cost goes into Welford moments and a GK
    quantile sketch (rank error 0.5%), though --resume loads the whole log;
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
    --inject-panic <u64>     as in sweep
    --stop-after-chunks <k>  test hook: claim no chunk after the k-th
    --fail-after-trials <k>  test hook: exit mid-lease after k trials, as a
                             kill -9 would
    exits 0 even with quarantined trials: the supervisor's merge decides

SWEEP-SUPERVISE FLAGS (all SWEEP-WORKER FLAGS but --worker-id and --quarantine,
passed on to every worker verbatim except --poll-ms; plus):
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
MEANFIELD FLAGS: --n --beta --explore <f64 in [0,1]> --rounds <usize>
LEMMA9:       distill lemma9 <c0,c1,c2,...> --a <f64 in (0,1)>
"
    .to_string()
}

/// `--n` (default 256, at least 1) through the one sanctioned id-space
/// check, so an oversize population fails with the typed message instead
/// of a parse error (or a silent truncation).
fn parse_n(args: &Args) -> Result<u32, CliError> {
    player_count(parse_positive(args, "n", 256)?).map_err(|e| err(e.to_string()))
}

/// `--<flag>`, or `default` when it is absent, refusing zero: a zero count
/// would run nothing, or be blamed on a flag that derives from it.
fn parse_positive<T: std::str::FromStr + From<u8> + PartialEq>(
    args: &Args,
    flag: &str,
    default: T,
) -> Result<T, CliError> {
    let value = args.get_or(flag, default)?;
    if value == T::from(0) {
        return Err(err(format!("--{flag} must be at least 1")));
    }
    Ok(value)
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

    pub(super) fn parse(line: &[&str]) -> Args {
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
            "--queue",
            "--lease-ttl",
            "--max-claims",
            "--workers",
            "--max-restarts",
        ] {
            assert!(h.contains(flag), "help must mention {flag}");
        }
    }

    /// Every entry of every command's flag list is named in `help()`, as
    /// a whole flag (`--a` does not count as named by `--alpha`).
    #[test]
    fn help_documents_every_flag() {
        let h = help();
        let lists = [
            spec::SPEC_FLAGS,
            sweep::SWEEP_FLAGS,
            sweep::FORWARDED_FLAGS,
            sweep::SWEEP_WORKER_FLAGS,
            sweep::SWEEP_SUPERVISE_FLAGS,
            run::GAUNTLET_FLAGS,
            models::BOUNDS_FLAGS,
            models::MEANFIELD_FLAGS,
            models::ASYNC_FLAGS,
            models::SERVICE_STRESS_FLAGS,
            models::LEMMA9_FLAGS,
            bench_store::BENCH_STORE_FLAGS,
        ];
        for flag in lists.concat() {
            let name = format!("--{flag}");
            let named = h.match_indices(&name).any(|(i, _)| {
                !h[i + name.len()..].starts_with(|c: char| c.is_ascii_alphanumeric() || c == '-')
            });
            assert!(named, "help must document {name}");
        }
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
}
