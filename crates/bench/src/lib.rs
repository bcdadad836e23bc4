//! Shared plumbing for the experiment harnesses.
//!
//! Every paper claim has a bench target (`benches/exp_*.rs`, `harness =
//! false`) that prints a paper-vs-measured table; this crate holds the
//! pieces they share: trial execution (through `distill-harness`'s sweep),
//! seed discipline, and environment knobs.
//!
//! Environment variables:
//!
//! * `DISTILL_TRIALS` — override the per-experiment trial count (e.g. set to
//!   5 for a smoke run, 200 for tighter confidence intervals).
//! * `DISTILL_THREADS` — override worker-thread count (defaults to available
//!   parallelism).

#![forbid(unsafe_code)]

use distill_harness::{run_sweep, SupervisorPolicy, SweepConfig, TrialSpec};
use distill_sim::{Adversary, Cohort, SimConfig, SimResult, World};
use std::sync::Arc;

/// The per-experiment default trial count, overridable via `DISTILL_TRIALS`.
pub fn trials(default: usize) -> usize {
    std::env::var("DISTILL_TRIALS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Worker threads for trial execution, overridable via `DISTILL_THREADS`.
pub fn threads() -> usize {
    std::env::var("DISTILL_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(4)
        })
}

/// [`run_experiment`]'s four closures as a sweep's trial spec.
struct Experiment<W, C, A, F> {
    world: W,
    cohort: C,
    adversary: A,
    config: F,
}

impl<W, C, A, F> TrialSpec for Experiment<W, C, A, F>
where
    W: Fn(u64) -> World + Send + Sync + 'static,
    C: Fn(&World, u64) -> Box<dyn Cohort> + Send + Sync + 'static,
    A: Fn(u64) -> Box<dyn Adversary> + Send + Sync + 'static,
    F: Fn(u64) -> SimConfig + Send + Sync + 'static,
{
    fn run_trial(&self, t: u64) -> SimResult {
        let w = (self.world)(t);
        let c = (self.cohort)(&w, t);
        let a = (self.adversary)(t);
        distill_sim::Engine::new((self.config)(t), &w, c, a)
            .expect("experiment setup must be valid")
            .run()
            .expect("experiment run must succeed")
    }

    fn seed(&self, t: u64) -> u64 {
        (self.config)(t).seed
    }

    fn describe(&self) -> String {
        "distill-bench experiment".to_string()
    }
}

/// Runs `n_trials` independent simulations in parallel, through the sweep
/// harness. Each trial `t` gets its own world (via `world(t)`), cohort,
/// adversary, and a config derived from `config(t)`; results return in
/// trial order, deterministically.
///
/// # Panics
/// Panics, naming the trial, if any trial's engine construction or
/// execution fails — experiment setups are programmer-controlled, so a
/// failure is a bug in the harness. Such a trial is not retried.
pub fn run_experiment<W, C, A, F>(
    n_trials: usize,
    world: W,
    cohort: C,
    adversary: A,
    config: F,
) -> Vec<SimResult>
where
    W: Fn(u64) -> World + Send + Sync + 'static,
    C: Fn(&World, u64) -> Box<dyn Cohort> + Send + Sync + 'static,
    A: Fn(u64) -> Box<dyn Adversary> + Send + Sync + 'static,
    F: Fn(u64) -> SimConfig + Send + Sync + 'static,
{
    let spec = Experiment {
        world,
        cohort,
        adversary,
        config,
    };
    let config = SweepConfig {
        threads: threads(),
        policy: SupervisorPolicy {
            max_retries: 0,
            ..SupervisorPolicy::default()
        },
        ..SweepConfig::new(n_trials as u64)
    };
    let report = run_sweep(Arc::new(spec), &config).expect("a sweep without files cannot fail");
    if let Some(q) = report.quarantined.first() {
        panic!(
            "experiment trial {} (seed {}) {}",
            q.trial, q.seed, q.failure
        );
    }
    report.results.into_iter().map(|(_, r)| r).collect()
}

/// Mean of a per-trial statistic.
pub fn mean_of<F: Fn(&SimResult) -> f64>(results: &[SimResult], f: F) -> f64 {
    if results.is_empty() {
        return 0.0;
    }
    results.iter().map(f).sum::<f64>() / results.len() as f64
}

/// Maximum of a per-trial statistic.
pub fn max_of<F: Fn(&SimResult) -> f64>(results: &[SimResult], f: F) -> f64 {
    results.iter().map(f).fold(f64::NEG_INFINITY, f64::max)
}

/// Extracts a per-trial vector of a statistic.
pub fn collect<F: Fn(&SimResult) -> f64>(results: &[SimResult], f: F) -> Vec<f64> {
    results.iter().map(f).collect()
}

/// The per-trial *last satisfaction round* (worst honest player), treating
/// non-terminating trials as the full round count.
pub fn last_round(r: &SimResult) -> f64 {
    r.last_satisfaction_round()
        .map_or(r.rounds as f64, |x| x.as_u64() as f64 + 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use distill_core::RandomProbing;
    use distill_sim::NullAdversary;

    #[test]
    fn knobs_parse_defaults() {
        assert!(threads() >= 1);
        assert_eq!(trials(7), 7);
    }

    #[test]
    fn a_panicking_trial_panics_run_experiment_naming_it() {
        let caught = std::panic::catch_unwind(|| {
            run_experiment(
                4,
                |t| World::binary(16, 2, t).unwrap(),
                |_w, _t| Box::new(RandomProbing::new()) as Box<dyn Cohort>,
                |t| {
                    assert!(t != 2, "no adversary for trial {t}");
                    Box::new(NullAdversary) as Box<dyn Adversary>
                },
                |t| SimConfig::new(8, 8, 100 + t),
            )
        });
        let payload = caught.expect_err("trial 2 panics");
        let message = payload.downcast_ref::<String>().expect("a formatted panic");
        assert_eq!(
            message,
            "experiment trial 2 (seed 102) panicked: no adversary for trial 2"
        );
    }

    #[test]
    fn run_experiment_is_deterministic() {
        let go = || {
            run_experiment(
                4,
                |t| World::binary(16, 2, t).unwrap(),
                |_w, _t| Box::new(RandomProbing::new()) as Box<dyn Cohort>,
                |_t| Box::new(NullAdversary) as Box<dyn Adversary>,
                |t| SimConfig::new(8, 8, 100 + t),
            )
        };
        let a = go();
        let b = go();
        let ra: Vec<u64> = a.iter().map(|r| r.rounds).collect();
        let rb: Vec<u64> = b.iter().map(|r| r.rounds).collect();
        assert_eq!(ra, rb);
        assert!(mean_of(&a, |r| r.mean_probes()) > 0.0);
        assert!(max_of(&a, last_round) >= 1.0);
        assert_eq!(collect(&a, |r| r.rounds as f64).len(), 4);
    }
}
