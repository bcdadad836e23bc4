//! P1 — Criterion microbenchmarks (not from the paper): substrate throughput.
//!
//! * `engine/distill_run` — a complete DISTILL execution (n = m = 512);
//! * `engine/flooded_run` — the same under a 256-posts/round flooder;
//! * `billboard/ingest` — tracker ingestion of a 100k-post board;
//! * `billboard/window_tally` — the `ℓ_t(i)` tally query;
//! * `window/...` — the incremental window counters against the event-stream
//!   scan at n ∈ {1024, 4096} (the perf-regression gate for the incremental
//!   tally layer: incremental must stay ≥ 2× the scan's throughput);
//! * `engine_round/...` — one E1-sized DISTILL round at n ∈ {1024, 4096};
//! * `trials/...` — multi-trial throughput on one thread: a fresh engine
//!   per trial vs one engine arena `reset` across the trials;
//! * `alloc/...` — steady-state round timing plus the *measured* heap
//!   acquisitions per round (reported via the stub's `report_value`; the
//!   tier-1 gate `tests/alloc_steady_state.rs` asserts the count is 0);
//! * `engine_scale/...` — the same steady-state round at n ∈ {10⁴, 10⁵,
//!   10⁶} with the satisfaction curve opted out, timing plus per-round
//!   allocation counts (the mega-scale tier of the SoA/bitset round loop).
//!
//! Results are also written to `BENCH_perf.json` at the repository root (see
//! EXPERIMENTS.md for the format). This binary runs under the counting
//! global allocator so the `alloc/` group can report real counts; the
//! counter is two thread-local `Cell` bumps per heap event, noise-level for
//! every timed group.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use distill_adversary::Flooder;
use distill_billboard::{
    Billboard, ObjectId, PlayerId, ReportKind, Round, VotePolicy, VoteTracker, Window,
};
use distill_core::{Distill, DistillParams};
use distill_sim::{Engine, NullAdversary, SimConfig, StopRule, World};

#[global_allocator]
static ALLOC: alloc_count::CountingAllocator = alloc_count::CountingAllocator;

fn bench_engine(c: &mut Criterion) {
    let n: u32 = 512;
    let world = World::binary(n, 1, 7).expect("world");
    let mut group = c.benchmark_group("engine");
    group.sample_size(20);

    group.bench_function("distill_run_n512", |b| {
        b.iter_batched(
            || {
                let params = DistillParams::new(n, n, 0.9, world.beta()).expect("params");
                let config = SimConfig::new(n, 460, 99)
                    .with_stop(StopRule::all_satisfied(100_000))
                    .with_negative_reports(false);
                Engine::new(
                    config,
                    &world,
                    Box::new(Distill::new(params)),
                    Box::new(NullAdversary),
                )
                .expect("engine")
            },
            |engine| engine.run().expect("run"),
            BatchSize::SmallInput,
        )
    });

    group.bench_function("flooded_run_n512", |b| {
        b.iter_batched(
            || {
                let params = DistillParams::new(n, n, 0.9, world.beta()).expect("params");
                let config = SimConfig::new(n, 460, 99)
                    .with_stop(StopRule::all_satisfied(100_000))
                    .with_negative_reports(false);
                Engine::new(
                    config,
                    &world,
                    Box::new(Distill::new(params)),
                    Box::new(Flooder::new(256)),
                )
                .expect("engine")
            },
            |engine| engine.run().expect("run"),
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn big_board(posts: u32) -> Billboard {
    let n = 256;
    let m = 1024;
    let mut board = Billboard::with_capacity(n, m, posts as usize);
    for i in 0..posts {
        let round = Round(u64::from(i / n));
        board
            .append(
                round,
                PlayerId(i % n),
                ObjectId(i % m),
                f64::from(i % 7),
                if i % 3 == 0 {
                    ReportKind::Positive
                } else {
                    ReportKind::Negative
                },
            )
            .expect("append");
    }
    board
}

fn bench_billboard(c: &mut Criterion) {
    let board = big_board(100_000);
    let mut group = c.benchmark_group("billboard");
    group.sample_size(20);

    // Steady state: one tracker arena reused across iterations —
    // `reset` retains every heap buffer, and a warm-up ingest grows them
    // to their high-water mark up front. The old fresh-tracker-per-
    // iteration setup made early iterations pay first-touch allocator
    // growth that later ones did not, skewing the mean to ~2× the median.
    let mut arena = VoteTracker::new(256, 1024, VotePolicy::multi_vote(4));
    arena.ingest(&board);
    group.bench_function("ingest_100k_posts", |b| {
        b.iter(|| {
            arena.reset();
            arena.ingest(&board)
        })
    });

    let mut tracker = VoteTracker::new(256, 1024, VotePolicy::multi_vote(4));
    tracker.ingest(&board);
    group.bench_function("window_tally", |b| {
        b.iter(|| {
            let w = Window::new(Round(10), Round(200));
            std::hint::black_box(tracker.window_tally(w))
        })
    });
    group.bench_function("window_votes_for", |b| {
        b.iter(|| {
            let w = Window::new(Round(10), Round(200));
            std::hint::black_box(tracker.window_votes_for(w, ObjectId(42)))
        })
    });
    group.finish();
}

fn bench_async(c: &mut Criterion) {
    use distill_sim::async_engine::{AsyncEngine, BalanceStep, RoundRobin};
    let n: u32 = 512;
    let world = World::binary(n, 1, 13).expect("world");
    let mut group = c.benchmark_group("async");
    group.sample_size(20);
    group.bench_function("balance_round_robin_n512", |b| {
        b.iter_batched(
            || {
                AsyncEngine::new(
                    n,
                    n,
                    7,
                    50_000_000,
                    &world,
                    Box::new(BalanceStep::new()),
                    Box::new(RoundRobin::default()),
                    Box::new(NullAdversary),
                )
                .expect("engine")
            },
            |engine| engine.run().expect("run"),
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

/// Builds a board where each of `n` players casts `votes_per_player` votes,
/// spread over one round per player batch and concentrated on `hot_objects`
/// distinct objects — the shape of a Step 1.3 / Step 2 tally window.
fn voting_board(n: u32, votes_per_player: u32, hot_objects: u32) -> Billboard {
    let m = n;
    let mut board = Billboard::new(n, m);
    for r in 0..votes_per_player {
        for p in 0..n {
            board
                .append(
                    Round(u64::from(r)),
                    PlayerId(p),
                    ObjectId((p.wrapping_mul(31).wrapping_add(r)) % hot_objects),
                    1.0,
                    ReportKind::Positive,
                )
                .expect("append");
        }
    }
    board
}

fn bench_window_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("window");
    group.sample_size(20);
    for &n in &[1024u32, 4096] {
        let board = voting_board(n, 4, 256);
        let mut tracker = VoteTracker::new(n, n, VotePolicy::multi_vote(4));
        tracker.ingest(&board);
        tracker.open_window(Round(0));
        let w = Window::new(Round(0), board.latest_round().next());

        group.bench_function(&format!("tally_incremental_n{n}"), |b| {
            b.iter(|| std::hint::black_box(tracker.window_tally(w)))
        });
        group.bench_function(&format!("tally_scan_n{n}"), |b| {
            b.iter(|| std::hint::black_box(tracker.window_tally_scan(w)))
        });
        group.bench_function(&format!("votes_for_incremental_n{n}"), |b| {
            b.iter(|| std::hint::black_box(tracker.window_votes_for(w, ObjectId(42))))
        });
        group.bench_function(&format!("votes_for_scan_n{n}"), |b| {
            b.iter(|| std::hint::black_box(tracker.window_votes_for_scan(w, ObjectId(42))))
        });

        // Ingest + one boundary tally, window registered up front — the
        // engine's per-segment access pattern end to end.
        group.bench_function(&format!("ingest_and_tally_n{n}"), |b| {
            b.iter_batched(
                || {
                    let mut t = VoteTracker::new(n, n, VotePolicy::multi_vote(4));
                    t.open_window(Round(0));
                    t
                },
                |mut t| {
                    t.ingest(&board);
                    std::hint::black_box(t.window_tally(w));
                    t
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn bench_engine_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_round");
    group.sample_size(10);
    for &n in &[1024u32, 4096] {
        let world = World::binary(n, 1, 7).expect("world");
        let honest = n * 9 / 10; // E1's α = 0.9, n = m
        group.bench_function(&format!("distill_step_n{n}"), |b| {
            b.iter_batched(
                || {
                    let params = DistillParams::new(n, n, 0.9, world.beta()).expect("params");
                    let config = SimConfig::new(n, honest, 99)
                        .with_stop(StopRule::all_satisfied(100_000))
                        .with_negative_reports(false);
                    let mut engine = Engine::new(
                        config,
                        &world,
                        Box::new(Distill::new(params)),
                        Box::new(NullAdversary),
                    )
                    .expect("engine");
                    // Warm the run past round 0 so the measured round carries
                    // a populated board and vote state.
                    for _ in 0..8 {
                        engine.step().expect("step");
                    }
                    engine
                },
                |mut engine| {
                    engine.step().expect("step");
                    engine
                },
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

fn bench_trials(c: &mut Criterion) {
    const TRIALS: usize = 8;
    let n: u32 = 128;
    let honest = n * 9 / 10;
    let world = World::binary(n, 1, 7).expect("world");
    let params = DistillParams::new(n, n, 0.9, world.beta()).expect("params");
    let config_with = |seed: u64| {
        SimConfig::new(n, honest, seed)
            .with_stop(StopRule::all_satisfied(100_000))
            .with_negative_reports(false)
    };
    let fresh_trial = |t: u64| {
        Engine::new(
            config_with(1000 + t),
            &world,
            Box::new(Distill::new(params)),
            Box::new(NullAdversary),
        )
        .expect("engine")
        .run()
        .expect("run")
    };
    let reused_trials = || {
        let mut engine = Engine::new(
            config_with(1000),
            &world,
            Box::new(Distill::new(params)),
            Box::new(NullAdversary),
        )
        .expect("engine");
        let mut results = vec![engine.run_mut().expect("run")];
        for t in 1..TRIALS as u64 {
            engine
                .reset(
                    1000 + t,
                    Box::new(Distill::new(params)),
                    Box::new(NullAdversary),
                )
                .expect("reset");
            results.push(engine.run_mut().expect("run"));
        }
        results
    };

    let mut group = c.benchmark_group("trials");
    group.sample_size(10);
    group.bench_function("sequential_fresh_8x_n128", |b| {
        b.iter(|| (0..TRIALS as u64).map(fresh_trial).collect::<Vec<_>>())
    });
    group.bench_function("sequential_reuse_8x_n128", |b| b.iter(reused_trials));
    group.finish();
}

fn bench_alloc(c: &mut Criterion) {
    // The never-satisfying configuration of tests/alloc_steady_state.rs:
    // every round past warm-up is pure steady state (no posts, no votes, no
    // satisfactions), so both the timing and the allocation count isolate
    // the round loop itself.
    let n: u32 = 256;
    let world = World::binary(n, 1, 2026).expect("world");
    let bad: Vec<ObjectId> = (0..world.m())
        .map(ObjectId)
        .filter(|&o| !world.is_good(o))
        .collect();
    let params = DistillParams::new(n, world.m(), 1.0, world.beta()).expect("params");
    let config = SimConfig::new(n, n, 0xA110C)
        .with_negative_reports(false)
        .with_stop(StopRule::all_satisfied(u64::MAX));
    let mut engine = Engine::new(
        config,
        &world,
        Box::new(Distill::new(params).with_universe(bad)),
        Box::new(NullAdversary),
    )
    .expect("engine");
    for _ in 0..64 {
        engine.step().expect("warm-up step");
    }

    let mut group = c.benchmark_group("alloc");
    group.sample_size(20);
    // Count first, while the satisfaction-curve buffer is far from its
    // reserve: the timing loop below runs thousands of rounds, and the
    // (amortized, off-path) curve growth past 4096 entries would otherwise
    // leak into an unlucky 32-round counting window.
    const MEASURED: u64 = 32;
    let (delta, ()) = alloc_count::measure(|| {
        for _ in 0..MEASURED {
            engine.step().expect("measured step");
        }
    });
    group.report_value(
        "steady_state_allocs_per_round_n256",
        delta.acquisitions() as f64 / MEASURED as f64,
        "allocs/round",
    );
    group.bench_function("steady_state_round_n256", |b| {
        b.iter(|| engine.step().expect("step"))
    });
    group.finish();
}

/// Builds the never-satisfying steady-state engine of `bench_alloc` at an
/// arbitrary population size, with the satisfaction curve opted out (the
/// mega-scale configuration of `tests/alloc_steady_state.rs`).
fn scale_engine(world: &World, n: u32) -> Engine<'_> {
    let bad: Vec<ObjectId> = (0..world.m())
        .map(ObjectId)
        .filter(|&o| !world.is_good(o))
        .collect();
    let params = DistillParams::new(n, world.m(), 1.0, world.beta()).expect("params");
    let config = SimConfig::new(n, n, 0xA110C)
        .with_negative_reports(false)
        .with_satisfaction_curve(false)
        .with_stop(StopRule::all_satisfied(u64::MAX));
    Engine::new(
        config,
        world,
        Box::new(Distill::new(params).with_universe(bad)),
        Box::new(NullAdversary),
    )
    .expect("engine")
}

fn bench_engine_scale(c: &mut Criterion) {
    // The PR 6 tentpole tier: the steady-state round must stay O(active +
    // votes) and allocation-free as n climbs to 10⁶. Same never-satisfying
    // shape as `alloc/` (every player probes a bad object each round), so the
    // timed loop is the pure SoA/bitset round path; the `report_value` rows
    // pin the measured acquisitions per round at each scale.
    let mut group = c.benchmark_group("engine_scale");
    group.sample_size(10);
    for &n in &[10_000u32, 100_000, 1_000_000] {
        let world = World::binary(n, 1, 2026).expect("world");
        let mut engine = scale_engine(&world, n);
        for _ in 0..8 {
            engine.step().expect("warm-up step");
        }
        const MEASURED: u64 = 4;
        let (delta, ()) = alloc_count::measure(|| {
            for _ in 0..MEASURED {
                engine.step().expect("measured step");
            }
        });
        group.report_value(
            &format!("steady_state_allocs_per_round_n{n}"),
            delta.acquisitions() as f64 / MEASURED as f64,
            "allocs/round",
        );
        group.bench_function(&format!("steady_state_round_n{n}"), |b| {
            b.iter(|| engine.step().expect("step"))
        });
    }
    group.finish();
}

/// Routes the run's measurements into `BENCH_perf.json` at the repository
/// root (a stub-criterion extension; see EXPERIMENTS.md for the schema).
fn configure_output(c: &mut Criterion) {
    c.set_json_output(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_perf.json"
    ));
}

criterion_group!(
    benches,
    configure_output,
    bench_engine,
    bench_billboard,
    bench_window_paths,
    bench_engine_round,
    bench_async,
    bench_trials,
    bench_alloc,
    bench_engine_scale
);
criterion_main!(benches);
