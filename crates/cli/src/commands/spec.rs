//! The simulation spec that `run`, `sweep` and the fabric share.

use super::{err, num_threads, parse_n, parse_positive, CliError};
use crate::args::Args;
use distill_adversary::{gauntlet, GauntletEntry};
use distill_billboard::VotePolicy;
use distill_core::{Balance, Distill, DistillParams, GuessAlpha, RandomProbing, ThreePhase};
use distill_harness::{SupervisorPolicy, SweepConfig, TrialSpec};
use distill_sim::{Cohort, Engine, FaultPlan, SimConfig, SimResult, StopRule, World};

pub(super) fn make_cohort(
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

/// The [`gauntlet`] entry named `name`: the one registry of adversaries.
pub(super) fn find_adversary(name: &str) -> Result<GauntletEntry, CliError> {
    gauntlet()
        .into_iter()
        .find(|entry| entry.name == name)
        .ok_or_else(|| err(format!("unknown adversary {name:?} (try `distill help`)")))
}

/// The simulation-spec flags that `run`, `sweep`, `sweep-worker` and
/// `sweep-supervise` all take; [`parse_sweep_spec`] reads every one.
pub(super) const SPEC_FLAGS: &[&str] = &[
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
pub(super) fn ensure_spec_flags(args: &Args, extra: &[&str]) -> Result<(), CliError> {
    let allowed: Vec<&str> = SPEC_FLAGS.iter().chain(extra).copied().collect();
    Ok(args.ensure_known(&allowed)?)
}

/// Runs trials `0..trials` of `spec` through the sweep, in streaming mode
/// on every core, and hands each result to `fold` in trial order, on the
/// worker thread that settles it. The trials are the program's own, so a
/// failed trial is a bug: it is neither retried nor skipped, and the
/// command fails naming it.
pub(super) fn run_spec<S: TrialSpec>(
    spec: S,
    trials: u64,
    mut fold: impl FnMut(u64, &SimResult) + Send,
) -> Result<(), CliError> {
    let config = SweepConfig {
        threads: num_threads(),
        policy: SupervisorPolicy {
            max_retries: 0,
            ..SupervisorPolicy::default()
        },
        retain_results: false,
        ..SweepConfig::new(trials)
    };
    let report =
        distill_harness::run_sweep_with(std::sync::Arc::new(spec), &config, Some(&mut fold))
            .map_err(|e| err(e.to_string()))?;
    match report.quarantined.first() {
        Some(q) => Err(err(format!(
            "trial {} (seed {}) {}",
            q.trial, q.seed, q.failure
        ))),
        None => Ok(()),
    }
}

/// A fully-validated, owned trial spec: trial `t` of `run`, `sweep` and the
/// fabric, as a pure function of the trial index.
pub(super) struct SweepSpec {
    pub(super) n: u32,
    pub(super) m: u32,
    pub(super) honest: u32,
    pub(super) goods: u32,
    pub(super) algorithm: String,
    pub(super) adversary: GauntletEntry,
    pub(super) seed: u64,
    pub(super) f: usize,
    pub(super) error_rate: f64,
    pub(super) max_rounds: u64,
    pub(super) faults: FaultPlan,
    /// Deliberately panic on this trial index (testing/CI hook).
    pub(super) inject_panic: Option<u64>,
}

impl SweepSpec {
    /// Trial `trial`'s engine configuration.
    fn config(&self, trial: u64) -> SimConfig {
        SimConfig::new(self.n, self.honest, self.seed(trial))
            .with_policy(VotePolicy::multi_vote(self.f))
            .with_honest_error_rate(self.error_rate)
            .with_faults(self.faults)
            .with_stop(StopRule::all_satisfied(self.max_rounds))
    }
}

impl TrialSpec for SweepSpec {
    fn run_trial(&self, trial: u64) -> SimResult {
        assert!(
            self.inject_panic != Some(trial),
            "injected panic at trial {trial} (--inject-panic)"
        );
        let world = World::binary(
            self.m,
            self.goods,
            self.seed.wrapping_add(1_000_003).wrapping_add(trial),
        )
        .expect("validated world");
        let alpha = f64::from(self.honest) / f64::from(self.n);
        let cohort = make_cohort(&self.algorithm, self.n, self.m, alpha, world.beta())
            .expect("validated algorithm");
        Engine::new(self.config(trial), &world, cohort, (self.adversary.make)())
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
            self.adversary.name,
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
pub(super) fn parse_sweep_spec(args: &Args) -> Result<(SweepSpec, u64), CliError> {
    let n = parse_n(args)?;
    let m: u32 = parse_positive(args, "m", n)?;
    let default_honest = ((f64::from(n)) * 0.9).round() as u32;
    let honest: u32 = args.get_or("honest", default_honest)?;
    let goods: u32 = args.get_or("goods", 1)?;
    let trials: u64 = parse_positive(args, "trials", 10)?;
    let seed: u64 = args.get_or("seed", 0)?;
    let f: usize = parse_positive(args, "f", 1)?;
    let error_rate: f64 = args.get_or("error-rate", 0.0)?;
    let max_rounds: u64 = parse_positive(args, "max-rounds", 1_000_000)?;
    let faults = FaultPlan::none()
        .with_drop_rate(args.get_or("drop-rate", 0.0)?)
        .with_view_lag(args.get_or("view-lag", 0)?)
        .with_crash_rate(args.get_or("crash-rate", 0.0)?)
        .with_crash_window(args.get_or("crash-window", 64)?)
        .with_recovery_rate(args.get_or("recovery-rate", 0.0)?);
    let algorithm = args.str_or("algorithm", "distill");
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
    let adversary = find_adversary(&args.str_or("adversary", "uniform-bad"))?;
    let spec = SweepSpec {
        n,
        m,
        honest,
        goods,
        algorithm,
        adversary,
        seed,
        f,
        error_rate,
        max_rounds,
        faults,
        inject_panic: args.get_opt("inject-panic")?,
    };
    // Trials differ only in their seeds, so trial 0's engine config stands
    // for every trial's.
    spec.config(0).validate().map_err(|e| err(e.to_string()))?;
    Ok((spec, trials))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::dispatch;
    use crate::commands::tests::parse;

    /// A trial that panics fails `run`'s and `gauntlet`'s sweep, naming
    /// the trial and its seed, without a retry.
    #[test]
    fn run_spec_fails_naming_a_panicking_trial() {
        let argv = ["run", "--n", "16", "--trials", "3", "--seed", "40"];
        let (spec, trials) =
            parse_sweep_spec(&parse(&[&argv[..], &["--inject-panic", "1"]].concat())).unwrap();
        let mut folded = 0;
        let e = run_spec(spec, trials, |_, _| folded += 1).unwrap_err();
        assert_eq!(
            e.to_string(),
            "trial 1 (seed 41) panicked: injected panic at trial 1 (--inject-panic)"
        );
        assert_eq!(folded, 2);
    }

    /// Spec values the engine refuses fail all four spec commands with the
    /// config's own message, before any trial runs or any worker is
    /// spawned: no file is written, not even a quarantine record.
    #[test]
    fn engine_rejected_spec_values_fail_before_any_trial() {
        let dir = std::env::temp_dir().join(format!("distill-cli-bad-spec-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("sweep.ckpt").display().to_string();
        let queue = dir.join("sweep.queue").display().to_string();
        let commands: [&[&str]; 4] = [
            &["run"],
            &["sweep", "--checkpoint", &ckpt, "--max-retries", "0"],
            &[
                "sweep-worker",
                "--queue",
                &queue,
                "--chunk",
                "2",
                "--max-retries",
                "0",
            ],
            &[
                "sweep-supervise",
                "--queue",
                &queue,
                "--chunk",
                "2",
                "--workers",
                "1",
            ],
        ];
        for (flag, bad, message) in [
            (
                "--error-rate",
                "2",
                "invalid simulation config: honest_error_rate 2 out of [0, 1]",
            ),
            (
                "--error-rate",
                "NaN",
                "invalid simulation config: honest_error_rate NaN out of [0, 1]",
            ),
            ("--f", "0", "--f must be at least 1"),
        ] {
            for head in commands {
                let argv = [head, &["--n", "16", "--trials", "4", flag, bad]].concat();
                match dispatch(&parse(&argv)) {
                    Err(CliError::Message(m)) => assert_eq!(m, message, "{argv:?}"),
                    other => panic!("{argv:?}: expected a usage error, got {other:?}"),
                }
                let written = std::fs::read_dir(&dir).unwrap().count();
                assert_eq!(written, 0, "{argv:?} wrote a file");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
