//! P3 — the concurrent billboard service under load (not from the paper).
//!
//! The `billboard_service/` tier measures the `distill-service` crate end to
//! end, at 100× the `billboard/ingest_100k_posts` workload:
//!
//! * `baseline_single_thread_posts_per_sec` — the same 10M-post workload
//!   replayed through the direct `Billboard::append` + `VoteTracker::ingest`
//!   path on one thread: the honest floor the service path must not fall
//!   below (a 10M-post log is ~400 MB of posts, so nothing here is
//!   cache-hot);
//! * `ingest_10m_p{1,8,64}_posts_per_sec` — service-path throughput
//!   (submit → applier merge → shutdown drain) at 1, 8 and 64 producers;
//! * `tally_p50/p99_ns_under_ingest` — reader-side `window_tally` latency
//!   while 8 producers hammer the applier (readers sync epoch snapshots and
//!   tally on the incremental window path);
//! * `sync_p50/p99_ns_under_ingest` — reader catch-up cost per epoch;
//! * `linearization_ok` — 1.0 iff the concurrent run's final snapshot is
//!   byte-identical to a sequential replay of its merged log
//!   (`verify_linearization`).
//!
//! Results go to `BENCH_service.json` at the repository root (see
//! EXPERIMENTS.md P3 for the schema).

use criterion::{criterion_group, criterion_main, Criterion};
use distill_billboard::{
    Billboard, ObjectId, PlayerId, ReportKind, Round, VotePolicy, VoteTracker,
};
use distill_service::{run_stress, verify_linearization, StressConfig};

/// Total posts per run: 100× the `billboard/ingest_100k_posts` workload.
const POSTS: u64 = 10_000_000;
/// Drafts per submitted batch on the throughput runs.
const BATCH: usize = 16_384;
/// Universe shape shared with `StressConfig::new` (and `perf.rs::big_board`).
const N_PLAYERS: u32 = 256;
const N_OBJECTS: u32 = 1024;
const POSTS_PER_ROUND: u64 = 256;

/// Replays the exact `run_stress` draft workload (author `i % n`, object
/// `i % m`, value `i % 7`, positive iff `i % 3 == 0`, round
/// `i / posts_per_round`) through the direct single-threaded path.
fn baseline_single_thread_posts_per_sec() -> f64 {
    let start = std::time::Instant::now();
    let mut board = Billboard::with_capacity(
        N_PLAYERS,
        N_OBJECTS,
        usize::try_from(POSTS).unwrap_or(usize::MAX),
    );
    let mut tracker = VoteTracker::new(N_PLAYERS, N_OBJECTS, VotePolicy::multi_vote(4));
    for i in 0..POSTS {
        let round = Round(i / POSTS_PER_ROUND);
        let author = PlayerId(u32::try_from(i % u64::from(N_PLAYERS)).unwrap_or(0));
        let object = ObjectId(u32::try_from(i % u64::from(N_OBJECTS)).unwrap_or(0));
        let value = (i % 7) as f64;
        let kind = if i % 3 == 0 {
            ReportKind::Positive
        } else {
            ReportKind::Negative
        };
        board
            .append(round, author, object, value, kind)
            .expect("baseline append");
    }
    tracker.ingest(&board);
    let elapsed = start.elapsed().as_secs_f64();
    POSTS as f64 / elapsed
}

fn bench_service(c: &mut Criterion) {
    let mut group = c.benchmark_group("billboard_service");

    group.report_value(
        "baseline_single_thread_posts_per_sec",
        baseline_single_thread_posts_per_sec(),
        "posts/sec",
    );

    // Throughput tier: sustained service-path ingest at 1, 8, 64 producers.
    for &producers in &[1u32, 8, 64] {
        let config = StressConfig::new(producers, POSTS).with_batch_posts(BATCH);
        let (outcome, _snapshot) = run_stress(config).expect("stress run");
        assert_eq!(outcome.posts, POSTS, "every submitted post must land");
        group.report_value(
            &format!("ingest_10m_p{producers}_posts_per_sec"),
            outcome.posts_per_sec,
            "posts/sec",
        );
        group.report_value(
            &format!("ingest_10m_p{producers}_held_out_of_order"),
            outcome.held_out_of_order as f64,
            "posts",
        );
    }

    // Latency tier: reader-observed sync + tally while 8 producers ingest.
    let config = StressConfig::new(8, POSTS)
        .with_batch_posts(BATCH)
        .with_readers(2);
    let (outcome, snapshot) = run_stress(config).expect("stress run with readers");
    group.report_value(
        "ingest_10m_p8_r2_posts_per_sec",
        outcome.posts_per_sec,
        "posts/sec",
    );
    group.report_value(
        "epochs_published_p8_r2",
        outcome.epochs_published as f64,
        "epochs",
    );
    for (id, value) in [
        ("tally_p50_ns_under_ingest", outcome.tally_p50_ns),
        ("tally_p99_ns_under_ingest", outcome.tally_p99_ns),
        ("sync_p50_ns_under_ingest", outcome.sync_p50_ns),
        ("sync_p99_ns_under_ingest", outcome.sync_p99_ns),
    ] {
        group.report_value(id, value.map_or(-1.0, |ns| ns as f64), "ns");
    }

    // Post-hoc linearization: the concurrent snapshot must equal a
    // sequential replay of its own merged log, byte for byte.
    let ok = verify_linearization(&snapshot, VotePolicy::multi_vote(4));
    group.report_value("linearization_ok", if ok { 1.0 } else { 0.0 }, "bool");
    assert!(ok, "concurrent run failed linearization against the replay");

    group.finish();
}

/// Routes the run's measurements into `BENCH_service.json` at the
/// repository root (a stub-criterion extension, same as `perf.rs`).
fn configure_output(c: &mut Criterion) {
    c.set_json_output(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_service.json"
    ));
}

criterion_group!(benches, configure_output, bench_service);
criterion_main!(benches);
