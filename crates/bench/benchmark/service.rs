//! The `service_ingest` workload: one producer thread submits a seeded draft
//! stream to a `BillboardService` while one `EpochReader` thread polls for
//! published epochs and syncs and tallies each new one it finds. Each session
//! is a fresh service.

use crate::trace;
use crate::{for_duration, Opts, Run, Unit};
use distill_billboard::{ObjectId, PlayerId, ReportKind, Round, VotePolicy, Window};
use distill_service::{
    tally_digest, verify_linearization, BillboardService, Draft, EpochCell, EpochReader,
    EpochSnapshot, ProducerHandle, ServiceConfig,
};
use distill_sim::rng::splitmix64;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const N_PLAYERS: u32 = 256;
const N_OBJECTS: u32 = 1024;
const BATCH: u64 = 1024;

/// How long the reader waits before looking for a new epoch again. A reader
/// that spun instead would make three busy threads (producer, applier,
/// reader) on a 2-vCPU host, and the session's throughput would measure how
/// the scheduler shares the CPUs between them.
const READER_POLL: Duration = Duration::from_micros(250);

/// The service stress driver's reader and verification policy.
fn policy() -> VotePolicy {
    VotePolicy::multi_vote(4)
}

const FULL_WINDOW: Window = Window {
    start: Round(0),
    end: Round(u64::MAX),
};

/// Draft `i` of the stream for `seed`.
fn draft(seed: u64, i: u64) -> Draft {
    let h = splitmix64(seed.rotate_left(40) ^ i);
    Draft {
        author: PlayerId((h % u64::from(N_PLAYERS)) as u32),
        object: ObjectId(((h >> 16) % u64::from(N_OBJECTS)) as u32),
        value: ((h >> 32) % 7) as f64,
        kind: if (h >> 48) % 3 == 0 {
            ReportKind::Positive
        } else {
            ReportKind::Negative
        },
    }
}

/// `tally_digest`'s formula over a reader's final state.
fn reader_digest(reader: &EpochReader, posts: u64) -> u64 {
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |word: u64| digest = (digest ^ word).wrapping_mul(0x0000_0100_0000_01b3);
    for (object, count) in reader.window_tally(FULL_WINDOW) {
        mix(u64::from(object.0));
        mix(u64::from(count));
    }
    mix(posts);
    digest
}

/// Syncs and tallies the newest epoch the applier has published, every
/// [`READER_POLL`], until `done` is set and the last epoch is read. Returns
/// the final tally digest and the number of epochs read.
fn read_epochs(
    cell: &EpochCell,
    done: &AtomicBool,
    traced: bool,
    session: u64,
) -> Result<(u64, u64), String> {
    let mut reader = EpochReader::new(N_PLAYERS, N_OBJECTS, policy());
    reader.open_window(Round(0));
    let mut tally = Vec::new();
    let mut seen = 0;
    let mut posts = 0;
    let mut reads = 0;
    loop {
        let stop = done.load(Ordering::Acquire);
        let snapshot = cell.load();
        if snapshot.epoch() > seen {
            seen = snapshot.epoch();
            posts = snapshot.posts();
            reads += 1;
            {
                let _span = trace::enter_if(traced, "service.sync", session);
                reader.sync(&snapshot).map_err(|e| e.to_string())?;
            }
            let _span = trace::enter_if(traced, "service.tally", session);
            reader.window_tally_into(FULL_WINDOW, &mut tally);
        } else if stop {
            break;
        } else {
            std::thread::sleep(READER_POLL);
        }
    }
    Ok((reader_digest(&reader, posts), reads))
}

/// Submits `posts` drafts in `BATCH`-draft batches. Returns the instant of
/// the first submit and the posts whose submit failed.
fn produce(
    handle: &ProducerHandle,
    seed: u64,
    posts: u64,
    traced: bool,
    session: u64,
) -> (Instant, u64) {
    let mut drafts = Vec::with_capacity(BATCH as usize);
    let mut failed = 0;
    let first = Instant::now();
    let mut i = 0;
    while i < posts {
        let end = (i + BATCH).min(posts);
        drafts.clear();
        drafts.extend((i..end).map(|g| draft(seed, g)));
        let _span = trace::enter_if(traced, "service.submit", session);
        if handle.submit(&drafts).is_err() {
            failed += end - i;
        }
        i = end;
    }
    (first, failed)
}

struct Session {
    setup_s: f64,
    posts: u64,
    /// From the first `submit` to `shutdown` returning.
    wall_s: f64,
    failed: u64,
    digest: u64,
    snapshot: Arc<EpochSnapshot>,
}

fn session(opts: &Opts, posts: u64, traced: bool, k: u64) -> Result<Session, String> {
    let start = Instant::now();
    let service = BillboardService::start(ServiceConfig::new(N_PLAYERS, N_OBJECTS))
        .map_err(|e| e.to_string())?;
    let cell = service.epoch_cell();
    let done = Arc::new(AtomicBool::new(false));
    let reader = {
        let done = Arc::clone(&done);
        std::thread::spawn(move || read_epochs(&cell, &done, traced, k))
    };
    let handle = service.handle().map_err(|e| e.to_string())?;
    let setup_s = start.elapsed().as_secs_f64();

    let seed = opts.seed;
    let producer = std::thread::spawn(move || produce(&handle, seed, posts, traced, k));
    let produced = producer.join();
    let report = {
        let _span = trace::enter_if(traced, "service.shutdown_drain", k);
        service.shutdown()
    };
    let end = Instant::now();
    done.store(true, Ordering::Release);
    let (digest, reads) = reader
        .join()
        .map_err(|_| "the reader thread panicked".to_string())??;
    let (first, failed) = produced.map_err(|_| "the producer thread panicked".to_string())?;
    let report = report.map_err(|e| e.to_string())?;
    let stats = report.stats;
    if traced {
        trace::record("service.reads", reads as f64);
        trace::record("service.epochs_published", stats.epochs_published as f64);
        trace::record("service.held_out_of_order", stats.held_out_of_order as f64);
        trace::record("service.max_pending", stats.max_pending as f64);
    }
    Ok(Session {
        setup_s,
        posts: stats.posts,
        wall_s: (end - first).as_secs_f64(),
        failed,
        digest,
        snapshot: report.final_snapshot,
    })
}

pub fn run_service(posts: u64, opts: &Opts, run: &mut Run) -> Result<(), String> {
    let mut digests = Vec::new();
    let mut last = None;
    for_duration(opts.seconds, run, |k, run| {
        // Free the previous session's log before the next one starts.
        last = None;
        let s = session(opts, posts, false, k)?;
        run.attempted += posts;
        run.failed += s.failed;
        digests.push(s.digest);
        let mut keep = s.snapshot;
        if opts.trace {
            drop(keep);
            let traced = session(opts, posts, true, k)?;
            run.overhead.push(traced.wall_s / s.wall_s - 1.0);
            digests.push(traced.digest);
            keep = traced.snapshot;
        }
        last = Some(keep);
        Ok(Unit {
            ops: s.posts,
            wall_s: s.wall_s,
            setup_s: s.setup_s,
        })
    })?;

    // With one producer the merged log is the draft stream in order, so
    // every session must tally identically, and the last one must replay
    // sequentially to the same state.
    let snapshot = last.expect("for_duration runs at least once");
    let expected = tally_digest(&snapshot, policy());
    run.note(format!("digest tally {expected:#018x}"));
    run.check(snapshot.posts() == posts, || {
        format!(
            "the last session holds {} posts, not {posts}",
            snapshot.posts()
        )
    });
    run.check(digests.iter().all(|d| *d == expected), || {
        "sessions tallied differently".to_string()
    });
    run.check(verify_linearization(&snapshot, policy()), || {
        "the last session's log does not replay to its readers' state".to_string()
    });
    Ok(())
}
