//! Property tests over randomized small simulation configurations.

use distill::prelude::*;
use distill::sim::Participation;
use distill_harness::{run_sweep, SweepConfig, TrialSpec};
use proptest::prelude::*;
use std::sync::Arc;

/// A small random scenario: population mix, world size, seeds, strategy mix.
#[derive(Debug, Clone)]
struct Scenario {
    n: u32,
    honest: u32,
    m: u32,
    goods: u32,
    seed: u64,
    world_seed: u64,
    adversary: u8,
    f: usize,
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (
        4u32..32,
        1u32..32,
        4u32..48,
        1u32..4,
        any::<u64>(),
        any::<u64>(),
        0u8..5,
        1usize..3,
    )
        .prop_map(
            |(n, honest_raw, m, goods_raw, seed, world_seed, adversary, f)| {
                let honest = honest_raw.min(n).max(1);
                let goods = goods_raw.min(m);
                Scenario {
                    n,
                    honest,
                    m,
                    goods,
                    seed,
                    world_seed,
                    adversary,
                    f,
                }
            },
        )
}

fn make_adversary(kind: u8) -> Box<dyn Adversary> {
    match kind {
        0 => Box::new(NullAdversary),
        1 => Box::new(UniformBad::new()),
        2 => Box::new(ThresholdMatcher::new()),
        3 => Box::new(BallotStuffer::new(3)),
        _ => Box::new(Slander::new()),
    }
}

fn run(s: &Scenario, cap: u64) -> SimResult {
    let world = World::binary(s.m, s.goods, s.world_seed).expect("world");
    let alpha = f64::from(s.honest) / f64::from(s.n);
    let params = DistillParams::new(s.n, s.m, alpha, world.beta()).expect("params");
    let config = SimConfig::new(s.n, s.honest, s.seed)
        .with_policy(VotePolicy::multi_vote(s.f))
        .with_stop(StopRule::all_satisfied(cap));
    Engine::new(
        config,
        &world,
        Box::new(Distill::new(params)),
        make_adversary(s.adversary),
    )
    .expect("engine")
    .run()
    .unwrap()
}

/// Trial `t` of a scenario as a sweep's trial spec: the scenario with its
/// seed advanced by `t`, under `faults`, with the satisfaction curve and
/// the tally-window path switched as given, capped at 50 000 rounds.
#[derive(Debug)]
struct ScenarioTrials {
    s: Scenario,
    faults: FaultPlan,
    curve: bool,
    register: bool,
}

impl ScenarioTrials {
    /// The scenario under the engine defaults: no faults, the curve
    /// recorded, the incremental tally path.
    fn plain(s: &Scenario) -> Self {
        ScenarioTrials {
            s: s.clone(),
            faults: FaultPlan::none(),
            curve: true,
            register: true,
        }
    }
}

impl TrialSpec for ScenarioTrials {
    fn run_trial(&self, t: u64) -> SimResult {
        let s = &self.s;
        let world = World::binary(s.m, s.goods, s.world_seed).expect("world");
        let alpha = f64::from(s.honest) / f64::from(s.n);
        let params = DistillParams::new(s.n, s.m, alpha, world.beta()).expect("params");
        let config = SimConfig::new(s.n, s.honest, self.seed(t))
            .with_policy(VotePolicy::multi_vote(s.f))
            .with_faults(self.faults)
            .with_satisfaction_curve(self.curve)
            .with_stop(StopRule::all_satisfied(50_000))
            .with_tally_window_registration(self.register);
        Engine::new(
            config,
            &world,
            Box::new(Distill::new(params)),
            make_adversary(s.adversary),
        )
        .expect("engine")
        .run()
        .unwrap()
    }

    fn seed(&self, t: u64) -> u64 {
        self.s.seed.wrapping_add(t)
    }

    fn describe(&self) -> String {
        format!("{self:?}")
    }
}

/// Trials `0..trials` of `spec` through the sweep on `threads` workers, in
/// trial order; every trial must complete.
fn sweep(spec: &Arc<ScenarioTrials>, trials: u64, threads: usize) -> Vec<SimResult> {
    let config = SweepConfig {
        threads,
        ..SweepConfig::new(trials)
    };
    let report = run_sweep(Arc::clone(spec), &config).expect("sweep");
    assert!(report.quarantined.is_empty(), "{:?}", report.quarantined);
    report.results.into_iter().map(|(_, r)| r).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// DISTILL terminates on every random scenario, and basic accounting
    /// invariants hold.
    #[test]
    fn random_scenarios_terminate_consistently(s in arb_scenario()) {
        let result = run(&s, 200_000);
        prop_assert!(result.all_satisfied, "unterminated: {s:?}");
        prop_assert_eq!(result.players.len(), s.honest as usize);
        for p in &result.players {
            prop_assert!(p.is_satisfied());
            prop_assert_eq!(p.explore_probes + p.advice_probes, p.probes);
            // a satisfied player probed at least once (nobody pre-satisfied)
            prop_assert!(p.probes >= 1);
            // probes never exceed rounds (one probe per round, then halt)
            prop_assert!(p.probes <= result.rounds);
            let sat = p.satisfied_round.expect("satisfied");
            prop_assert!(sat.as_u64() < result.rounds);
        }
        // satisfaction curve monotone, ends at the honest population
        prop_assert!(result
            .satisfied_per_round
            .windows(2)
            .all(|w| w[0] <= w[1]));
        prop_assert_eq!(
            *result.satisfied_per_round.last().expect("ran at least a round") as usize,
            s.honest as usize
        );
    }

    /// Same scenario twice ⇒ identical outcome (full-stack determinism under
    /// arbitrary parameters).
    #[test]
    fn random_scenarios_are_deterministic(s in arb_scenario()) {
        let a = run(&s, 50_000);
        let b = run(&s, 50_000);
        prop_assert_eq!(a.rounds, b.rounds);
        prop_assert_eq!(a.posts_total, b.posts_total);
        prop_assert_eq!(a.satisfied_per_round, b.satisfied_per_round);
    }

    /// Determinism oracle across tally paths: the incremental window
    /// counters and the from-scratch event scan drive bit-identical
    /// executions for fixed seeds — every field of the `SimResult`, probes,
    /// satisfaction curve, and post counts included.
    #[test]
    fn tally_paths_produce_identical_results(s in arb_scenario()) {
        let world = World::binary(s.m, s.goods, s.world_seed).expect("world");
        let alpha = f64::from(s.honest) / f64::from(s.n);
        let params = DistillParams::new(s.n, s.m, alpha, world.beta()).expect("params");
        let run_with = |register: bool| {
            let config = SimConfig::new(s.n, s.honest, s.seed)
                .with_policy(VotePolicy::multi_vote(s.f))
                .with_stop(StopRule::all_satisfied(50_000))
                .with_tally_window_registration(register);
            Engine::new(config, &world, Box::new(Distill::new(params)), make_adversary(s.adversary))
                .expect("engine")
                .run().unwrap()
        };
        let incremental = run_with(true);
        let scan = run_with(false);
        prop_assert_eq!(incremental, scan);
    }

    /// The probe pass's general instantiation agrees with the plain one
    /// wherever it must: recording a trace changes nothing but the trace,
    /// and round-robin participation in one group (every player acts every
    /// round, and no coin is drawn) runs exactly as full participation.
    #[test]
    fn general_probe_pass_matches_plain(s in arb_scenario()) {
        let world = World::binary(s.m, s.goods, s.world_seed).expect("world");
        let alpha = f64::from(s.honest) / f64::from(s.n);
        let params = DistillParams::new(s.n, s.m, alpha, world.beta()).expect("params");
        let run_with = |config: SimConfig| {
            let config = config
                .with_policy(VotePolicy::multi_vote(s.f))
                .with_stop(StopRule::all_satisfied(50_000));
            Engine::new(config, &world, Box::new(Distill::new(params)), make_adversary(s.adversary))
                .expect("engine")
                .run().unwrap()
        };
        let config = SimConfig::new(s.n, s.honest, s.seed);
        let plain = run_with(config.clone());
        let mut traced = run_with(config.clone().with_trace(true));
        prop_assert!(traced.trace.take().is_some());
        prop_assert_eq!(&traced, &plain);
        let rotated = run_with(config.with_participation(Participation::RoundRobin { groups: 1 }));
        prop_assert_eq!(&rotated, &plain);
    }

    /// The sweep returns byte-identical results to a sequential loop on
    /// real engine executions, independent of thread count (the
    /// work-stealing cursor changes which worker runs which trial, never
    /// what a trial computes or where it lands in the output).
    #[test]
    fn threaded_trials_match_sequential_on_real_runs(s in arb_scenario(), threads in 1usize..9) {
        let spec = Arc::new(ScenarioTrials::plain(&s));
        let sequential: Vec<SimResult> = (0..4).map(|t| spec.run_trial(t)).collect();
        let threaded = sweep(&spec, 4, threads);
        prop_assert_eq!(sequential, threaded);
    }

    /// `Engine::reset` + rerun is bit-identical (full `SimResult` equality)
    /// to a freshly constructed engine with the same seed — the arena reuse
    /// leaks no state between executions.
    #[test]
    fn reset_rerun_is_bit_identical_to_fresh(s in arb_scenario(), second_seed in any::<u64>()) {
        let world = World::binary(s.m, s.goods, s.world_seed).expect("world");
        let alpha = f64::from(s.honest) / f64::from(s.n);
        let params = DistillParams::new(s.n, s.m, alpha, world.beta()).expect("params");
        let config_with = |seed: u64| {
            SimConfig::new(s.n, s.honest, seed)
                .with_policy(VotePolicy::multi_vote(s.f))
                .with_stop(StopRule::all_satisfied(50_000))
        };
        let fresh = |seed: u64| {
            Engine::new(
                config_with(seed),
                &world,
                Box::new(Distill::new(params)),
                make_adversary(s.adversary),
            )
            .expect("engine")
            .run()
            .unwrap()
        };

        let mut engine = Engine::new(
            config_with(s.seed),
            &world,
            Box::new(Distill::new(params)),
            make_adversary(s.adversary),
        )
        .expect("engine");
        let first = engine.run_mut().unwrap();
        prop_assert_eq!(&first, &fresh(s.seed));

        // Rerun on the reused arena with a *different* seed: no bleed-through
        // from the first execution.
        engine
            .reset(second_seed, Box::new(Distill::new(params)), make_adversary(s.adversary))
            .expect("reset");
        let second = engine.run_mut().unwrap();
        prop_assert_eq!(&second, &fresh(second_seed));

        // And back to the original seed: reset is idempotent in effect.
        engine
            .reset(s.seed, Box::new(Distill::new(params)), make_adversary(s.adversary))
            .expect("reset");
        let third = engine.run_mut().unwrap();
        prop_assert_eq!(&third, &first);
    }

    /// One engine arena, created once and then `reset` for each of six
    /// trials, matches fresh-engine-per-trial output exactly.
    #[test]
    fn scoped_engine_reuse_matches_fresh_per_trial(s in arb_scenario()) {
        let world = World::binary(s.m, s.goods, s.world_seed).expect("world");
        let alpha = f64::from(s.honest) / f64::from(s.n);
        let params = DistillParams::new(s.n, s.m, alpha, world.beta()).expect("params");
        let config_with = |seed: u64| {
            SimConfig::new(s.n, s.honest, seed)
                .with_policy(VotePolicy::multi_vote(s.f))
                .with_stop(StopRule::all_satisfied(50_000))
        };
        let trial_seed = |t: u64| s.seed.wrapping_add(t);

        let fresh: Vec<SimResult> = (0..6)
            .map(|t| {
                Engine::new(
                    config_with(trial_seed(t)),
                    &world,
                    Box::new(Distill::new(params)),
                    make_adversary(s.adversary),
                )
                .expect("engine")
                .run()
                .unwrap()
            })
            .collect();
        let mut engine = Engine::new(
            config_with(trial_seed(0)),
            &world,
            Box::new(Distill::new(params)),
            make_adversary(s.adversary),
        )
        .expect("engine");
        let reused: Vec<SimResult> = (0..6)
            .map(|t| {
                if t > 0 {
                    engine
                        .reset(
                            trial_seed(t),
                            Box::new(Distill::new(params)),
                            make_adversary(s.adversary),
                        )
                        .expect("reset");
                }
                engine.run_mut().unwrap()
            })
            .collect();
        prop_assert_eq!(fresh, reused);
    }

    /// The sweep at the exact thread counts of the acceptance checklist
    /// ({1, 2, 3, 8}) stays byte-identical to sequential on one scenario per
    /// case (the random-threads property above covers the rest).
    #[test]
    fn thread_counts_one_two_three_eight_match_sequential(s in arb_scenario()) {
        let spec = Arc::new(ScenarioTrials::plain(&s));
        let sequential: Vec<SimResult> = (0..8).map(|t| spec.run_trial(t)).collect();
        for threads in [1usize, 2, 3, 8] {
            prop_assert_eq!(&sequential, &sweep(&spec, 8, threads));
        }
    }

    /// The adversary's counted votes never exceed `f·(n−honest)` in any
    /// random scenario (the Equation 1 budget).
    #[test]
    fn budget_invariant_over_random_scenarios(s in arb_scenario()) {
        let world = World::binary(s.m, s.goods, s.world_seed).expect("world");
        let alpha = f64::from(s.honest) / f64::from(s.n);
        let params = DistillParams::new(s.n, s.m, alpha, world.beta()).expect("params");
        let config = SimConfig::new(s.n, s.honest, s.seed)
            .with_policy(VotePolicy::multi_vote(s.f))
            .with_stop(StopRule::all_satisfied(50_000));
        let mut engine = Engine::new(
            config,
            &world,
            Box::new(Distill::new(params)),
            make_adversary(s.adversary),
        )
        .expect("engine");
        for _ in 0..60 {
            engine.step().unwrap();
        }
        let dishonest_votes = engine
            .tracker()
            .events()
            .iter()
            .filter(|e| e.player.0 >= s.honest)
            .count();
        prop_assert!(dishonest_votes <= s.f * (s.n - s.honest) as usize);
    }

    /// PR 6 oracle: the struct-of-arrays/bitset round loop against the
    /// from-scratch tally-scan path, across random seeds, fault axes
    /// (drops + stale reads + crash/recovery churn), the satisfaction-curve
    /// opt-out, and thread counts. Every pair of executions must be
    /// bit-identical (`SimResult` equality covers outcomes, curve, fault
    /// counters, and post totals) — the bitmap planes and event-list churn
    /// change the representation, never the execution.
    #[test]
    fn soa_engine_matches_tally_scan_oracle_under_faults(
        s in arb_scenario(),
        threads in 1usize..5,
        lag in 0u64..3,
        churn in any::<bool>(),
        curve in any::<bool>(),
    ) {
        let faults = if churn {
            FaultPlan::none()
                .with_drop_rate(0.2)
                .with_view_lag(lag)
                .with_crash_rate(0.3)
                .with_crash_window(8)
                .with_recovery_rate(0.25)
        } else {
            FaultPlan::none().with_view_lag(lag)
        };
        let run_path = |register: bool| {
            let spec = ScenarioTrials { s: s.clone(), faults, curve, register };
            sweep(&Arc::new(spec), 3, threads)
        };
        let incremental = run_path(true);
        let scan = run_path(false);
        for r in &incremental {
            // The curve opt-out must actually suppress per-round growth.
            prop_assert_eq!(r.satisfied_per_round.is_empty(), !curve || r.rounds == 0);
        }
        prop_assert_eq!(incremental, scan);
    }
}
