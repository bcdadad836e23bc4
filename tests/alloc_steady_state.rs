//! Allocation-regression gate for the steady-state round loop.
//!
//! Installs the counting global allocator (this file is its own test binary,
//! so the hook is invisible to every other test) and drives a DISTILL
//! execution that never satisfies anyone: the cohort's universe is restricted
//! to the bad objects and negative reports are disabled, so after warm-up no
//! posts, votes, satisfactions, or window events occur — every round exercises
//! exactly the steady-state path. The gate asserts that path performs **zero
//! heap acquisitions per round** (PR 3 tentpole; `cargo bench` reports the
//! same number under `alloc/steady_state_round`). Since no vote lands in that
//! shape, a tracker-level gate below also drives a voted set that changes on
//! every ingest. A gate holds the merge of worker checkpoints to sharing
//! their results rather than copying them, and the last two hold the
//! billboard service's write path to a snapshot that costs the same at any
//! log length and to one allocation per submitted batch.

use distill::billboard::{Post, SegmentLog, Seq};
use distill::prelude::*;
use distill::service::{BillboardService, Draft, ServiceConfig};
use distill::sim::PlayerOutcome;
use distill_harness::{merge_checkpoints, Checkpoint};
use std::sync::Arc;

#[global_allocator]
static ALLOC: alloc_count::CountingAllocator = alloc_count::CountingAllocator;

const N: u32 = 256;
const WARMUP_ROUNDS: u32 = 64;
const MEASURED_ROUNDS: u32 = 32;

/// An engine in the never-satisfying configuration: n honest players
/// distilling over the bad objects of an n-object binary world.
fn steady_state_engine(world: &World) -> Engine<'_> {
    steady_state_engine_with(world, N, FaultPlan::none(), true)
}

fn steady_state_engine_with(world: &World, n: u32, faults: FaultPlan, curve: bool) -> Engine<'_> {
    let bad: Vec<ObjectId> = (0..world.m())
        .map(ObjectId)
        .filter(|&o| !world.is_good(o))
        .collect();
    let params = DistillParams::new(n, world.m(), 1.0, world.beta()).expect("params");
    let config = SimConfig::new(n, n, 0xA110C)
        .with_negative_reports(false)
        .with_faults(faults)
        .with_satisfaction_curve(curve)
        .with_stop(StopRule::all_satisfied(1_000_000));
    Engine::new(
        config,
        world,
        Box::new(Distill::new(params).with_universe(bad)),
        Box::new(NullAdversary),
    )
    .expect("engine")
}

/// The allocator is actually installed and counting in this binary —
/// otherwise the zero-alloc assertion below would pass vacuously.
#[test]
fn counting_allocator_is_live() {
    let (delta, b) = alloc_count::measure(|| Box::new(42u64));
    assert!(
        delta.acquisitions() >= 1,
        "allocator not counting: {delta:?}"
    );
    assert_eq!(*b, 42);
}

/// After warm-up, a steady-state DISTILL round performs zero heap
/// acquisitions (no `alloc`, no `realloc`) on the synchronous engine.
#[test]
fn steady_state_round_is_allocation_free() {
    let world = World::binary(N, 1, 2026).expect("world");
    let mut engine = steady_state_engine(&world);
    for _ in 0..WARMUP_ROUNDS {
        engine.step().expect("warm-up step");
    }
    for round in 0..MEASURED_ROUNDS {
        let (delta, step) = alloc_count::measure(|| engine.step());
        step.expect("measured step");
        assert_eq!(
            delta.acquisitions(),
            0,
            "measured round {round} allocated: {delta:?}"
        );
    }
}

/// The fault layer must not cost the steady state its zero-allocation
/// guarantee: with drops, stale reads, and crash/recovery churn all
/// enabled, a post-warm-up round still performs zero heap acquisitions.
/// (All crash events land inside the warm-up window; recoveries keep
/// firing during the measured rounds and are alloc-free.)
#[test]
fn steady_state_round_is_allocation_free_with_faults() {
    let world = World::binary(N, 1, 2026).expect("world");
    let faults = FaultPlan::none()
        .with_drop_rate(0.5)
        .with_view_lag(2)
        .with_crash_rate(0.25)
        .with_crash_window(u64::from(WARMUP_ROUNDS) / 2)
        .with_recovery_rate(0.05);
    let mut engine = steady_state_engine_with(&world, N, faults, true);
    for _ in 0..WARMUP_ROUNDS {
        engine.step().expect("warm-up step");
    }
    for round in 0..MEASURED_ROUNDS {
        let (delta, step) = alloc_count::measure(|| engine.step());
        step.expect("measured step");
        assert_eq!(
            delta.acquisitions(),
            0,
            "measured faulted round {round} allocated: {delta:?}"
        );
    }
}

/// The mega-scale gate (PR 6 tentpole): at n = 10⁵ with **every** fault axis
/// enabled — drops, stale reads, crash/recovery churn — and the satisfaction
/// curve opted out, a post-warm-up round still performs zero heap
/// acquisitions. Fewer warm-up/measured rounds than the n=256 gates keep the
/// debug-profile runtime reasonable; the crash window sits inside the warm-up
/// so the measured rounds exercise the recovery-merge path of the event-list
/// churn, not its first-fire path.
#[test]
fn steady_state_round_is_allocation_free_at_mega_scale() {
    const BIG_N: u32 = 100_000;
    const BIG_WARMUP: u32 = 8;
    const BIG_MEASURED: u32 = 4;
    let world = World::binary(BIG_N, 1, 2026).expect("world");
    let faults = FaultPlan::none()
        .with_drop_rate(0.5)
        .with_view_lag(2)
        .with_crash_rate(0.25)
        .with_crash_window(u64::from(BIG_WARMUP) / 2)
        .with_recovery_rate(0.05);
    let mut engine = steady_state_engine_with(&world, BIG_N, faults, false);
    for _ in 0..BIG_WARMUP {
        engine.step().expect("warm-up step");
    }
    for round in 0..BIG_MEASURED {
        let (delta, step) = alloc_count::measure(|| engine.step());
        step.expect("measured step");
        assert_eq!(
            delta.acquisitions(),
            0,
            "measured mega-scale round {round} allocated: {delta:?}"
        );
    }
}

/// The voted-object set's settle step reuses its buffers: a best-value
/// tracker in which every Byzantine author alternates between its own two
/// objects at rising values, so each ingest revokes every voted object and
/// votes another one in. After warm-up, ingesting a round and reading
/// `objects_with_votes()` performs zero heap acquisitions.
#[test]
fn changing_voted_set_ingest_is_allocation_free() {
    const AUTHORS: u32 = 64;
    let rounds = WARMUP_ROUNDS + MEASURED_ROUNDS;
    let m = 2 * AUTHORS;
    let mut board = Billboard::with_capacity(AUTHORS, m, (AUTHORS * rounds) as usize);
    let mut tracker = VoteTracker::new(AUTHORS, m, VotePolicy::best_value());
    for round in 0..rounds {
        let side = round % 2;
        for author in 0..AUTHORS {
            board
                .append(
                    Round(u64::from(round)),
                    PlayerId(author),
                    ObjectId(2 * author + side),
                    f64::from(round),
                    ReportKind::Negative,
                )
                .expect("valid post");
        }
        let (delta, voted) = alloc_count::measure(|| {
            tracker.ingest(&board);
            tracker.objects_with_votes().first().copied()
        });
        assert_eq!(voted, Some(ObjectId(side)), "round {round}");
        assert_eq!(tracker.objects_with_votes().len(), AUTHORS as usize);
        if round >= WARMUP_ROUNDS {
            assert_eq!(
                delta.acquisitions(),
                0,
                "measured ingest {round} allocated: {delta:?}"
            );
        }
    }
}

/// Two disjoint 8-trial worker checkpoints, even and odd trials, whose
/// results each hold `players` player rows.
fn worker_parts(players: usize) -> [Checkpoint; 2] {
    let row = PlayerOutcome {
        probes: 3,
        cost_paid: 3.0,
        satisfied_round: Some(Round(2)),
        advice_probes: 1,
        explore_probes: 2,
        crash_round: None,
    };
    let part = |parity: u64| Checkpoint {
        fingerprint: 0xF00D,
        total_trials: 16,
        completed: (0..8)
            .map(|i| {
                let result = SimResult {
                    rounds: 3,
                    all_satisfied: true,
                    players: vec![row; players],
                    satisfied_per_round: Vec::new(),
                    posts_total: 0,
                    forged_rejected: 0,
                    notes: Vec::new(),
                    final_eval: None,
                    faults: FaultCounters::default(),
                    trace: None,
                };
                (2 * i + parity, Arc::new(result))
            })
            .collect(),
    };
    [part(0), part(1)]
}

/// The merge shares every result with the part it came from, so what it
/// allocates (the union's map and the merged list) does not grow with the
/// results: 16 player rows per result cost the same bytes as 4,096.
#[test]
fn checkpoint_merge_allocates_independently_of_result_size() {
    let merge_bytes = |players: usize| {
        let parts = worker_parts(players);
        let (delta, merged) = alloc_count::measure(|| merge_checkpoints(&parts));
        assert_eq!(merged.expect("merge").completed.len(), 16);
        delta.bytes
    };
    let (small, large) = (merge_bytes(16), merge_bytes(4_096));
    assert!(
        small > 0,
        "the merge allocated nothing: is the counter live?"
    );
    assert_eq!(small, large, "the merge copies results");
}

/// A log of `segments` one-post segments.
fn one_post_segments(segments: u64) -> SegmentLog {
    let mut log = SegmentLog::new(1, 1);
    for seq in 0..segments {
        let post = Post {
            seq: Seq(seq),
            round: Round(seq),
            author: PlayerId(0),
            object: ObjectId(0),
            value: 1.0,
            kind: ReportKind::Positive,
        };
        log.push_segment(Arc::from([post])).expect("segment");
    }
    log
}

/// Publishing an epoch clones the service's log. The clone shares the
/// sealed blocks and copies only the open tail, so a log of 65,541
/// segments costs the same bytes as one of 69 (every length here leaves a
/// tail of 5 segments).
#[test]
fn segment_log_clone_allocates_independently_of_length() {
    let clone_bytes = |segments: u64| {
        let log = one_post_segments(segments);
        let (delta, snapshot) = alloc_count::measure(|| log.clone());
        assert_eq!(snapshot.len(), segments);
        delta.bytes
    };
    let short = clone_bytes(69);
    assert!(
        short > 0,
        "the clone allocated nothing: is the counter live?"
    );
    assert_eq!(
        short,
        clone_bytes(1_029),
        "a snapshot copies the sealed blocks"
    );
    assert_eq!(
        short,
        clone_bytes(65_541),
        "a snapshot copies the sealed blocks"
    );
}

/// `submit` stamps a batch straight into the shared segment the log keeps:
/// one acquisition of one batch of posts (plus the `Arc`'s two counts).
#[test]
fn submit_allocates_one_segment_per_batch() {
    const BATCH: u32 = 1_024;
    let service = BillboardService::start(ServiceConfig::new(BATCH, BATCH)).expect("start");
    let handle = service.handle().expect("handle");
    let drafts: Vec<Draft> = (0..BATCH)
        .map(|i| Draft {
            author: PlayerId(i),
            object: ObjectId(BATCH - 1 - i),
            value: 1.0,
            kind: ReportKind::Positive,
        })
        .collect();
    let segment = std::mem::size_of::<Post>() * BATCH as usize + 2 * std::mem::size_of::<usize>();
    for batch in 0..4u64 {
        let (delta, first) = alloc_count::measure(|| handle.submit(&drafts));
        assert_eq!(first.expect("submit"), Seq(batch * u64::from(BATCH)));
        assert_eq!(
            delta.acquisitions(),
            1,
            "batch {batch} allocated: {delta:?}"
        );
        assert_eq!(
            delta.bytes, segment as u64,
            "batch {batch} allocated: {delta:?}"
        );
    }
    drop(handle);
    let report = service.shutdown().expect("shutdown");
    assert_eq!(report.stats.posts, 4 * u64::from(BATCH));
}
