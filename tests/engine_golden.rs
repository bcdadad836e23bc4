//! Golden-pin bit-identity oracle for the engine round loop.
//!
//! Each scenario runs a full execution and folds the *entire* observable
//! result (every `SimResult` field, including per-player outcomes, the
//! satisfaction curve, fault counters, and the event trace) into an FNV-1a
//! digest. The digests below were recorded from the pre-SoA tally-scan
//! engine; the struct-of-arrays/bitset refactor must reproduce them bit for
//! bit. If a change is *supposed* to alter observable behaviour, re-record
//! with:
//!
//! ```text
//! GOLDEN_PRINT=1 cargo test --test engine_golden -- --nocapture
//! ```

use distill::prelude::*;
use distill::sim::async_engine::{
    AsyncEngine, BalanceStep, Isolate, RandomSchedule, RandomStep, RoundRobin, Schedule, StepPolicy,
};
use distill::sim::{
    Adversary, CandidateSet, Cohort, Directive, FaultPlan, InfoModel, Participation, PhaseInfo,
    ServicePlan, SimConfig, StopRule,
};

/// FNV-1a over the full `Debug` rendering of a result. `Debug` for these
/// types prints every field (f64s via the shortest-roundtrip formatter), so
/// two results digest equal iff they are observably identical. The
/// rendering is hashed as it is written, so a 2^17-player result is never
/// held as one string.
struct Fnv1a(u64);

impl std::fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for &b in s.as_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

fn digest<T: std::fmt::Debug>(value: &T) -> u64 {
    use std::fmt::Write;
    let mut h = Fnv1a(0xcbf2_9ce4_8422_2325);
    write!(h, "{value:?}").expect("hashing never fails");
    h.0
}

/// Probe uniformly at random every round (the §3 trivial algorithm); used
/// for the no-local-testing scenario where DISTILL does not apply.
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
}

/// Idles every other round and probes uniformly in between: the `Idle` arm
/// of the round loop, where a sampled player still draws its participation
/// coin and then probes nothing.
#[derive(Debug, Default)]
struct IdleEveryOther {
    rounds: u64,
}
impl Cohort for IdleEveryOther {
    fn directive(&mut self, _view: &BoardView<'_>) -> Directive {
        self.rounds += 1;
        if self.rounds % 2 == 1 {
            Directive::Idle
        } else {
            Directive::ProbeUniform(CandidateSet::All)
        }
    }
    fn phase_info(&self) -> PhaseInfo {
        PhaseInfo::plain("idle-every-other")
    }
    fn name(&self) -> &'static str {
        "idle-every-other"
    }
}

fn distill_engine<'w>(
    world: &'w World,
    config: SimConfig,
    adversary: Box<dyn Adversary>,
) -> Engine<'w> {
    let alpha = f64::from(config.n_honest) / f64::from(config.n_players);
    let params =
        DistillParams::new(config.n_players, world.m(), alpha, world.beta()).expect("params");
    Engine::new(config, world, Box::new(Distill::new(params)), adversary).expect("engine")
}

fn run_scenario(name: &str) -> u64 {
    match name {
        "plain_distill" => {
            let world = World::binary(48, 2, 11).expect("world");
            let config = SimConfig::new(48, 40, 101).with_stop(StopRule::all_satisfied(200_000));
            let result = distill_engine(&world, config, Box::new(UniformBad::new()))
                .run()
                .expect("run");
            digest(&result)
        }
        "tally_scan_path" => {
            // Must stay bit-identical to plain_distill: the event-stream
            // scan is the incremental window counters' oracle.
            let world = World::binary(48, 2, 11).expect("world");
            let config = SimConfig::new(48, 40, 101)
                .with_stop(StopRule::all_satisfied(200_000))
                .with_tally_window_registration(false);
            let result = distill_engine(&world, config, Box::new(UniformBad::new()))
                .run()
                .expect("run");
            digest(&result)
        }
        "faulted_traced" => {
            let world = World::binary(32, 2, 7).expect("world");
            let config = SimConfig::new(32, 28, 202)
                .with_faults(
                    FaultPlan::none()
                        .with_drop_rate(0.3)
                        .with_view_lag(2)
                        .with_crash_rate(0.4)
                        .with_crash_window(16)
                        .with_recovery_rate(0.15),
                )
                .with_trace(true)
                .with_stop(StopRule::all_satisfied(100_000));
            let result = distill_engine(&world, config, Box::new(Slander::new()))
                .run()
                .expect("run");
            digest(&result)
        }
        "pre_satisfied_advice" => {
            let world = World::binary(32, 2, 5).expect("world");
            let good = world.good_objects()[0];
            let config = SimConfig::new(32, 30, 303)
                .with_pre_satisfied(vec![(PlayerId(0), good), (PlayerId(3), good)])
                .with_stop(StopRule::all_satisfied(100_000));
            let result = distill_engine(&world, config, Box::new(NullAdversary))
                .run()
                .expect("run");
            digest(&result)
        }
        "pre_satisfied_churn_traced" => {
            // Crash schedule rounds can be `<` the first executed round when
            // pre-seeding skips round 0 — pins the multi-round due-crash
            // batch ordering in the churn pass.
            let world = World::binary(24, 2, 13).expect("world");
            let good = world.good_objects()[1];
            let config = SimConfig::new(24, 20, 313)
                .with_pre_satisfied(vec![(PlayerId(2), good)])
                .with_faults(
                    FaultPlan::none()
                        .with_crash_rate(0.8)
                        .with_crash_window(1)
                        .with_recovery_rate(0.3),
                )
                .with_trace(true)
                .with_stop(StopRule::all_satisfied(100_000));
            let result = distill_engine(&world, config, Box::new(NullAdversary))
                .run()
                .expect("run");
            digest(&result)
        }
        "round_robin_threshold_matcher" => {
            let world = World::binary(40, 2, 17).expect("world");
            let config = SimConfig::new(40, 32, 404)
                .with_participation(Participation::RoundRobin { groups: 3 })
                .with_stop(StopRule::all_satisfied(200_000));
            let result = distill_engine(&world, config, Box::new(ThresholdMatcher::new()))
                .run()
                .expect("run");
            digest(&result)
        }
        "random_subset_multivote_errors" => {
            let world = World::binary(40, 3, 19).expect("world");
            let config = SimConfig::new(40, 34, 505)
                .with_participation(Participation::RandomSubset { p: 0.6 })
                .with_policy(VotePolicy::multi_vote(3))
                .with_honest_error_rate(0.1)
                .with_stop(StopRule::all_satisfied(200_000));
            let result = distill_engine(&world, config, Box::new(BallotStuffer::new(3)))
                .run()
                .expect("run");
            digest(&result)
        }
        "straggler" => {
            let world = World::binary(32, 2, 23).expect("world");
            let config = SimConfig::new(32, 28, 808)
                .with_participation(Participation::Straggler {
                    player: PlayerId(1),
                    until_round: 12,
                })
                .with_stop(StopRule::all_satisfied(200_000));
            let result = distill_engine(&world, config, Box::new(UniformBad::new()))
                .run()
                .expect("run");
            digest(&result)
        }
        "strongly_adaptive" => {
            let world = World::binary(32, 2, 29).expect("world");
            let config = SimConfig::new(32, 26, 707)
                .with_info(InfoModel::StronglyAdaptive)
                .with_stop(StopRule::all_satisfied(200_000));
            let result = distill_engine(&world, config, Box::new(BallotStuffer::new(2)))
                .run()
                .expect("run");
            digest(&result)
        }
        "e18_distill_2e17" => {
            // E18's shape at n = m = 2^17: β = 0.1, round(√n) = 362
            // `UniformBad` players, negative reports and the curve off. The
            // only pin with more than 48 players: its good set spans 2,048
            // bitset words, and its advice rounds mix players with and
            // without votes.
            let n = 1 << 17;
            let world = World::binary(n, n / 10, 18_017).expect("world");
            let config = SimConfig::new(n, n - 362, 1_817)
                .with_negative_reports(false)
                .with_satisfaction_curve(false)
                .with_stop(StopRule::all_satisfied(100_000));
            let result = distill_engine(&world, config, Box::new(UniformBad::new()))
                .run()
                .expect("run");
            digest(&result)
        }
        "balance_mixed_errors_traced" => {
            // `Directive::Mixed` (Balance's fair explore/exploit coin) with
            // §4.1 erroneous votes: per player, the explore coin, the
            // advice draws and the error coin come from one stream.
            let world = World::binary(40, 2, 31).expect("world");
            let config = SimConfig::new(40, 34, 919)
                .with_honest_error_rate(0.1)
                .with_trace(true)
                .with_stop(StopRule::all_satisfied(200_000));
            let result = Engine::new(
                config,
                &world,
                Box::new(Balance::new()),
                Box::new(UniformBad::new()),
            )
            .expect("engine")
            .run()
            .expect("run");
            digest(&result)
        }
        "idle_every_other_random_subset" => {
            let world = World::binary(32, 2, 37).expect("world");
            let config = SimConfig::new(32, 28, 929)
                .with_participation(Participation::RandomSubset { p: 0.5 })
                .with_trace(true)
                .with_stop(StopRule::all_satisfied(200_000));
            let result = Engine::new(
                config,
                &world,
                Box::<IdleEveryOther>::default(),
                Box::new(UniformBad::new()),
            )
            .expect("engine")
            .run()
            .expect("run");
            digest(&result)
        }
        "balance_mixed_plain" => {
            // `Directive::Mixed` with every feature the probe pass can
            // switch off left off: the plain kernel's Mixed arm.
            let world = World::binary(40, 2, 31).expect("world");
            let config = SimConfig::new(40, 34, 919).with_stop(StopRule::all_satisfied(200_000));
            let result = Engine::new(
                config,
                &world,
                Box::new(Balance::new()),
                Box::new(UniformBad::new()),
            )
            .expect("engine")
            .run()
            .expect("run");
            digest(&result)
        }
        "idle_every_other_full" => {
            // The plain kernel's `Idle` arm: every player participates,
            // so an idle round draws nothing at all.
            let world = World::binary(32, 2, 37).expect("world");
            let config = SimConfig::new(32, 28, 929).with_stop(StopRule::all_satisfied(200_000));
            let result = Engine::new(
                config,
                &world,
                Box::<IdleEveryOther>::default(),
                Box::new(UniformBad::new()),
            )
            .expect("engine")
            .run()
            .expect("run");
            digest(&result)
        }
        "best_value_horizon" => {
            let world = World::uniform_top_beta(64, 0.1, 9).expect("world");
            let config = SimConfig::new(24, 20, 606)
                .with_policy(VotePolicy::best_value())
                .with_stop(StopRule::horizon(40));
            let result = Engine::new(
                config,
                &world,
                Box::new(Trivial),
                Box::new(UniformBad::new()),
            )
            .expect("engine")
            .run()
            .expect("run");
            digest(&result)
        }
        "async_round_robin_faulted" => digest(&run_async(
            Box::new(RoundRobin::default()),
            Box::new(BalanceStep::new()),
            909,
            FaultPlan::none()
                .with_drop_rate(0.2)
                .with_view_lag(3)
                .with_crash_rate(0.3)
                .with_crash_window(64)
                .with_recovery_rate(0.1),
            None,
        )),
        "async_round_robin_faulted_service" => {
            // The one fault combination no other pin covers: crash churn,
            // drops and lagged reads while every post travels through the
            // batched, delayed service transport.
            digest(&run_async(
                Box::new(RoundRobin::default()),
                Box::new(BalanceStep::new()),
                912,
                FaultPlan::none()
                    .with_drop_rate(0.2)
                    .with_view_lag(3)
                    .with_crash_rate(0.3)
                    .with_crash_window(64)
                    .with_recovery_rate(0.1),
                Some(
                    ServicePlan::new(3)
                        .with_batch_posts(4)
                        .with_max_delivery_delay(5),
                ),
            ))
        }
        "async_isolate_plain" => digest(&run_async(
            Box::new(Isolate::new(PlayerId(0))),
            Box::new(BalanceStep::new()),
            910,
            FaultPlan::none(),
            None,
        )),
        "async_random_faulted" => digest(&run_async(
            Box::new(RandomSchedule),
            Box::new(RandomStep),
            911,
            FaultPlan::none()
                .with_crash_rate(0.5)
                .with_crash_window(32)
                .with_recovery_rate(0.25),
            None,
        )),
        other => panic!("unknown scenario {other}"),
    }
}

fn run_async(
    schedule: Box<dyn Schedule>,
    policy: Box<dyn StepPolicy>,
    seed: u64,
    faults: FaultPlan,
    service: Option<ServicePlan>,
) -> distill::sim::async_engine::AsyncResult {
    let world = World::binary(64, 4, 3).expect("world");
    let engine = AsyncEngine::new(
        24,
        20,
        seed,
        2_000_000,
        &world,
        policy,
        schedule,
        Box::new(UniformBad::new()),
    )
    .expect("engine")
    .with_faults(faults)
    .expect("faults");
    match service {
        Some(plan) => engine.with_service(plan).expect("service"),
        None => engine,
    }
    .run()
    .expect("run")
}

/// Digests recorded from the pre-refactor engine (see module docs). The
/// three async pins were re-recorded when `AsyncResult` gained the
/// `service` counters field: the run itself is unchanged — stripping
/// `, service: None` from the new rendering reproduces the old digests
/// bit for bit — but `Debug` now prints the extra field. The
/// `async_round_robin_faulted_service` pin was recorded from the engines
/// that still kept one copy of the fault layer each, before they came to
/// share `sim::faults`. The `e18_distill_2e17` pin was recorded while the
/// world still kept goodness as one byte per object and a cost per object,
/// and the tracker a 4-byte vote count per player. The
/// `balance_mixed_errors_traced` and `idle_every_other_random_subset` pins
/// were recorded while the round loop still resolved every honest probe in
/// one pass and charged it in a second, and the `balance_mixed_plain` and
/// `idle_every_other_full` pins while the probe pass still matched the
/// directive for every probe, in one instantiation for every config.
const PINS: &[(&str, u64)] = &[
    ("plain_distill", 0xc76af13208f9fe6a),
    ("tally_scan_path", 0xc76af13208f9fe6a),
    ("faulted_traced", 0x9b6d75f5f329b1eb),
    ("pre_satisfied_advice", 0x0123fe6ef4b53303),
    ("pre_satisfied_churn_traced", 0xf23e88181f3da4b1),
    ("round_robin_threshold_matcher", 0xbf09db5eea77c4f5),
    ("random_subset_multivote_errors", 0x855f79c30bd57da2),
    ("straggler", 0xb0e4148d289851e1),
    ("strongly_adaptive", 0xbcae30ab42f2088a),
    ("best_value_horizon", 0x0b2f55a720753a71),
    ("async_round_robin_faulted", 0x1de2f618bdfe2335),
    ("async_round_robin_faulted_service", 0x07cfe72cdd27bae0),
    ("async_isolate_plain", 0xfbcd6a8be9046b3b),
    ("async_random_faulted", 0x3c4ac0f7a5af49e5),
    ("e18_distill_2e17", 0x2f5c611da36dd5fe),
    ("balance_mixed_errors_traced", 0xa9550c0a08472e1d),
    ("idle_every_other_random_subset", 0xb020534a5b228052),
    ("balance_mixed_plain", 0xf665c2e7f5fa8065),
    ("idle_every_other_full", 0xa2f44ba2c55844f5),
];

#[test]
fn golden_digests_are_stable() {
    let print = std::env::var_os("GOLDEN_PRINT").is_some();
    let mut failures = Vec::new();
    for &(name, expected) in PINS {
        let got = run_scenario(name);
        if print {
            println!("    (\"{name}\", 0x{got:016x}),");
        } else if got != expected {
            failures.push(format!(
                "{name}: expected 0x{expected:016x}, got 0x{got:016x}"
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "golden digests diverged:\n{}",
        failures.join("\n")
    );
}
