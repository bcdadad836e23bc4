//! Full-stack determinism: a simulation is a pure function of its seeds.

use distill::prelude::*;
use distill_harness::{run_sweep, SweepConfig, TrialSpec};
use std::sync::Arc;

fn run_once(seed: u64, world_seed: u64) -> SimResult {
    let n = 128;
    let world = World::binary(n, 1, world_seed).expect("world");
    let params = DistillParams::new(n, n, 0.75, world.beta()).expect("params");
    let config = SimConfig::new(n, 96, seed)
        .with_stop(StopRule::all_satisfied(200_000))
        .with_trace(true);
    Engine::new(
        config,
        &world,
        Box::new(Distill::new(params)),
        Box::new(ThresholdMatcher::new()),
    )
    .expect("engine")
    .run()
    .unwrap()
}

#[test]
fn identical_seeds_identical_everything() {
    let a = run_once(42, 7);
    let b = run_once(42, 7);
    assert_eq!(a.rounds, b.rounds);
    assert_eq!(a.posts_total, b.posts_total);
    assert_eq!(a.satisfied_per_round, b.satisfied_per_round);
    assert_eq!(a.notes, b.notes);
    assert_eq!(
        a.trace.as_deref().map(<[_]>::len),
        b.trace.as_deref().map(<[_]>::len)
    );
    for (pa, pb) in a.players.iter().zip(&b.players) {
        assert_eq!(pa, pb);
    }
    // The whole result — every field, every trace event — must be
    // bit-identical: the billboard's ordered containers leave no room for
    // iteration-order drift.
    assert_eq!(a, b);
}

#[test]
fn different_player_seed_diverges() {
    let a = run_once(42, 7);
    let c = run_once(43, 7);
    let same = a.rounds == c.rounds
        && a.posts_total == c.posts_total
        && a.satisfied_per_round == c.satisfied_per_round;
    assert!(
        !same,
        "independent coin flips must (a.s.) change the execution"
    );
}

#[test]
fn different_world_seed_diverges() {
    let a = run_once(42, 7);
    let c = run_once(42, 8);
    let same = a.rounds == c.rounds && a.satisfied_per_round == c.satisfied_per_round;
    assert!(
        !same,
        "a different good-object placement must change the execution"
    );
}

/// Trial `t` is `run_once(100 + t, t)`.
struct SeededTrials;

impl TrialSpec for SeededTrials {
    fn run_trial(&self, t: u64) -> SimResult {
        run_once(self.seed(t), t)
    }

    fn seed(&self, t: u64) -> u64 {
        100 + t
    }

    fn describe(&self) -> String {
        "determinism: run_once(100 + t, t)".to_string()
    }
}

#[test]
fn threaded_runner_matches_sequential() {
    let sweep = |threads: usize| {
        let config = SweepConfig {
            threads,
            ..SweepConfig::new(8)
        };
        let report = run_sweep(Arc::new(SeededTrials), &config).expect("sweep");
        assert_eq!(report.results.len(), 8, "{:?}", report.quarantined);
        report.results
    };
    let seq = sweep(1);
    let par = sweep(4);
    for ((_, a), (_, b)) in seq.iter().zip(&par) {
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.mean_probes(), b.mean_probes());
    }
}
