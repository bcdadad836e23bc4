//! Multi-threaded stress driver for the billboard service.
//!
//! Drives `producers × batches` of deterministic workload through a
//! [`BillboardService`] while optional reader threads sample epoch-pinned
//! `window_tally` latencies, then verifies the linearization contract: the
//! reader-side interpretation of the merged log is bit-identical to
//! single-threaded sequential ingest of the same posts in sequence order.
//! Used by the `service-stress` CLI subcommand, the CI `service-smoke` job,
//! and the `billboard_service/` bench tier.
//!
//! Thread interleavings make the *merge order* of multi-producer runs
//! nondeterministic (the sequence allocator linearizes whatever race
//! happened), so the check is intentionally post-hoc: whatever log the race
//! produced, replaying it sequentially must reproduce the readers' state
//! byte for byte.

use crate::epoch::{EpochReader, EpochSnapshot};
use crate::error::ServiceError;
use crate::service::{BillboardService, Draft, ServiceConfig};
use distill_billboard::{
    Billboard, ObjectId, PlayerId, ReportKind, Round, Seq, VotePolicy, VoteTracker, Window,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
#[expect(
    clippy::disallowed_types,
    reason = "wall-clock throughput/latency measurement is the service layer's contract; simulation logic never touches this module."
)]
use std::time::Instant;

/// The full tally window (service rounds never reach `u64::MAX`).
const FULL_WINDOW: Window = Window {
    start: Round(0),
    end: Round(u64::MAX),
};

/// Configuration of one stress run.
#[derive(Debug, Clone, Copy)]
pub struct StressConfig {
    /// Producer threads.
    pub producers: u32,
    /// Total posts across all producers.
    pub posts: u64,
    /// Drafts per submitted batch.
    pub batch_posts: usize,
    /// Players in the universe.
    pub n_players: u32,
    /// Objects in the universe.
    pub n_objects: u32,
    /// Concurrent reader threads sampling `window_tally` latency.
    pub readers: u32,
    /// Vote interpretation policy for readers and the verification oracle.
    pub policy: VotePolicy,
    /// Submission-channel bound, in batches.
    pub channel_batches: usize,
    /// Epoch-publication cadence, in applied batches.
    pub publish_every: u64,
    /// Service timestamp granularity (posts per round).
    pub posts_per_round: u64,
}

impl StressConfig {
    /// `producers` threads pushing `posts` total posts through the
    /// `ingest_100k_posts` universe shape (256 players × 1024 objects, one
    /// round per 256 posts, `multi_vote(4)` readers), 1024-post batches.
    pub fn new(producers: u32, posts: u64) -> Self {
        StressConfig {
            producers,
            posts,
            batch_posts: 1024,
            n_players: 256,
            n_objects: 1024,
            readers: 0,
            policy: VotePolicy::multi_vote(4),
            channel_batches: 256,
            publish_every: 8,
            posts_per_round: 256,
        }
    }

    /// Sets the batch size (drafts per submission).
    #[must_use]
    pub fn with_batch_posts(mut self, batch_posts: usize) -> Self {
        self.batch_posts = batch_posts;
        self
    }

    /// Sets the universe shape (players × objects).
    #[must_use]
    pub fn with_universe(mut self, n_players: u32, n_objects: u32) -> Self {
        self.n_players = n_players;
        self.n_objects = n_objects;
        self
    }

    /// Sets the number of concurrent reader threads.
    #[must_use]
    pub fn with_readers(mut self, readers: u32) -> Self {
        self.readers = readers;
        self
    }

    /// Sets the reader/oracle vote policy.
    #[must_use]
    pub fn with_policy(mut self, policy: VotePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the submission-channel bound, in batches.
    #[must_use]
    pub fn with_channel_batches(mut self, batches: usize) -> Self {
        self.channel_batches = batches;
        self
    }

    /// Sets the epoch-publication cadence, in applied batches.
    #[must_use]
    pub fn with_publish_every(mut self, batches: u64) -> Self {
        self.publish_every = batches;
        self
    }

    /// Sets the timestamp granularity (posts per round).
    #[must_use]
    pub fn with_posts_per_round(mut self, posts: u64) -> Self {
        self.posts_per_round = posts;
        self
    }

    fn service_config(&self) -> ServiceConfig {
        ServiceConfig::new(self.n_players, self.n_objects)
            .with_posts_per_round(self.posts_per_round)
            .with_channel_batches(self.channel_batches)
            .with_publish_every(self.publish_every)
    }

    /// Checks the config is usable.
    ///
    /// # Errors
    ///
    /// [`ServiceError::InvalidConfig`] naming the offending field.
    pub fn validate(&self) -> Result<(), ServiceError> {
        if self.producers == 0 {
            return Err(ServiceError::InvalidConfig("producers must be at least 1"));
        }
        if self.posts == 0 {
            return Err(ServiceError::InvalidConfig("posts must be at least 1"));
        }
        if self.batch_posts == 0 {
            return Err(ServiceError::InvalidConfig(
                "batch_posts must be at least 1",
            ));
        }
        self.service_config().validate()
    }
}

/// What a stress run measured.
#[derive(Debug, Clone, Copy)]
pub struct StressOutcome {
    /// Posts ingested (== the merged log length).
    pub posts: u64,
    /// Wall-clock nanoseconds from first submission to applier drain.
    pub elapsed_ns: u64,
    /// End-to-end ingest throughput.
    pub posts_per_sec: f64,
    /// Batches merged.
    pub batches: u64,
    /// Batches the reorder buffer held for a missing predecessor.
    pub held_out_of_order: u64,
    /// High-water mark of simultaneously held batches.
    pub max_pending: usize,
    /// Epochs published.
    pub epochs_published: u64,
    /// `window_tally` samples taken by reader threads.
    pub reads: u64,
    /// Median tally latency under concurrent ingest (readers > 0).
    pub tally_p50_ns: Option<u64>,
    /// p99 tally latency under concurrent ingest (readers > 0).
    pub tally_p99_ns: Option<u64>,
    /// Median reader catch-up (epoch sync) latency (readers > 0).
    pub sync_p50_ns: Option<u64>,
    /// p99 reader catch-up latency (readers > 0).
    pub sync_p99_ns: Option<u64>,
    /// FNV-1a digest of the final full-window tally (for smoke-test logs;
    /// deterministic only for single-producer runs, where the merge order
    /// is fixed).
    pub tally_digest: u64,
}

/// The deterministic draft at global workload index `i` — the same shape as
/// the `ingest_100k_posts` bench workload, so service numbers compare
/// directly against the single-threaded baseline.
fn draft_at(i: u64, n_players: u32, n_objects: u32) -> Draft {
    let author = u32::try_from(i % u64::from(n_players)).unwrap_or(0);
    let object = u32::try_from(i % u64::from(n_objects)).unwrap_or(0);
    let value = f64::from(u32::try_from(i % 7).unwrap_or(0));
    Draft {
        author: PlayerId(author),
        object: ObjectId(object),
        value,
        kind: if i.is_multiple_of(3) {
            ReportKind::Positive
        } else {
            ReportKind::Negative
        },
    }
}

#[expect(
    clippy::disallowed_types,
    reason = "wall-clock helper for the stress driver's latency measurements; never on a simulation path"
)]
fn duration_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn percentile(sorted: &[u64], pct: usize) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let idx = ((sorted.len() - 1) * pct) / 100;
    sorted.get(idx).copied()
}

/// FNV-1a over the full-window tally of `snapshot` under `policy`.
pub fn tally_digest(snapshot: &EpochSnapshot, policy: VotePolicy) -> u64 {
    let mut reader = EpochReader::new(
        snapshot.log().n_players(),
        snapshot.log().n_objects(),
        policy,
    );
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |word: u64| {
        digest = (digest ^ word).wrapping_mul(0x0000_0100_0000_01b3);
    };
    if reader.sync(snapshot).is_err() {
        return 0;
    }
    for (object, count) in reader.window_tally(FULL_WINDOW) {
        mix(u64::from(object.0));
        mix(u64::from(count));
    }
    mix(snapshot.posts());
    digest
}

/// Runs the stress workload and returns the measurements plus the final
/// snapshot (for post-hoc verification via [`verify_linearization`]).
///
/// # Errors
///
/// [`ServiceError`] from config validation, the service, or a worker
/// thread.
pub fn run_stress(
    config: StressConfig,
) -> Result<(StressOutcome, Arc<EpochSnapshot>), ServiceError> {
    config.validate()?;
    let service = BillboardService::start(config.service_config())?;
    let cell = service.epoch_cell();
    let done = Arc::new(AtomicBool::new(false));

    // Readers: catch up on every new epoch, timing sync and tally apart.
    let mut readers = Vec::new();
    for _ in 0..config.readers {
        let cell = Arc::clone(&cell);
        let done = Arc::clone(&done);
        let policy = config.policy;
        let (n, m) = (config.n_players, config.n_objects);
        readers.push(std::thread::spawn(move || {
            let mut reader = EpochReader::new(n, m, policy);
            reader.open_window(Round(0));
            let mut tally = Vec::new();
            let mut sync_lat = Vec::new();
            let mut tally_lat = Vec::new();
            let mut seen = 0u64;
            loop {
                let stop = done.load(Ordering::Acquire);
                let snapshot = cell.load();
                if snapshot.epoch() > seen {
                    seen = snapshot.epoch();
                    #[expect(clippy::disallowed_types, reason = "reader-latency sample point")]
                    let t = Instant::now();
                    if reader.sync(&snapshot).is_err() {
                        break;
                    }
                    sync_lat.push(duration_ns(t));
                    #[expect(clippy::disallowed_types, reason = "reader-latency sample point")]
                    let t = Instant::now();
                    reader.window_tally_into(FULL_WINDOW, &mut tally);
                    tally_lat.push(duration_ns(t));
                } else if stop {
                    break;
                } else {
                    std::thread::yield_now();
                }
            }
            (sync_lat, tally_lat)
        }));
    }

    // Producers: contiguous split of the global workload.
    let chunk = config.posts.div_ceil(u64::from(config.producers));
    #[expect(clippy::disallowed_types, reason = "end-to-end throughput clock")]
    let t0 = Instant::now();
    let mut producers = Vec::new();
    for p in 0..u64::from(config.producers) {
        let handle = service.handle()?;
        let lo = (p * chunk).min(config.posts);
        let hi = ((p + 1) * chunk).min(config.posts);
        let (n, m) = (config.n_players, config.n_objects);
        let batch = config.batch_posts as u64;
        producers.push(std::thread::spawn(move || -> Result<(), ServiceError> {
            let mut drafts = Vec::with_capacity(config.batch_posts);
            let mut i = lo;
            while i < hi {
                drafts.clear();
                let end = (i + batch).min(hi);
                for g in i..end {
                    drafts.push(draft_at(g, n, m));
                }
                handle.submit(&drafts)?;
                i = end;
            }
            Ok(())
        }));
    }
    let mut worker_error = None;
    for worker in producers {
        match worker.join() {
            Ok(Ok(())) => {}
            Ok(Err(err)) => worker_error = Some(err),
            Err(_) => worker_error = Some(ServiceError::ApplierPanicked),
        }
    }
    // Shutdown drains the channel and the reorder buffer; the clock stops
    // only once every post is applied and the final epoch is published.
    let report = service.shutdown()?;
    let elapsed_ns = duration_ns(t0);
    done.store(true, Ordering::Release);
    let mut sync_lat = Vec::new();
    let mut tally_lat = Vec::new();
    for reader in readers {
        if let Ok((sync, tally)) = reader.join() {
            sync_lat.extend(sync);
            tally_lat.extend(tally);
        }
    }
    if let Some(err) = worker_error {
        return Err(err);
    }
    sync_lat.sort_unstable();
    tally_lat.sort_unstable();

    let posts = report.stats.posts;
    let secs = (elapsed_ns as f64) / 1e9;
    let outcome = StressOutcome {
        posts,
        elapsed_ns,
        posts_per_sec: if secs > 0.0 { posts as f64 / secs } else { 0.0 },
        batches: report.stats.batches,
        held_out_of_order: report.stats.held_out_of_order,
        max_pending: report.stats.max_pending,
        epochs_published: report.stats.epochs_published,
        reads: tally_lat.len() as u64,
        tally_p50_ns: percentile(&tally_lat, 50),
        tally_p99_ns: percentile(&tally_lat, 99),
        sync_p50_ns: percentile(&sync_lat, 50),
        sync_p99_ns: percentile(&sync_lat, 99),
        tally_digest: tally_digest(&report.final_snapshot, config.policy),
    };
    Ok((outcome, report.final_snapshot))
}

/// The linearization contract: replaying the merged log **sequentially**
/// (plain `Billboard::append` + `VoteTracker::ingest`, the exact sim path)
/// must reproduce the epoch reader's interpretation byte for byte — events,
/// tallies, vote sets, everything. Also checks the log itself is gap-free
/// and sequence-ordered.
pub fn verify_linearization(snapshot: &EpochSnapshot, policy: VotePolicy) -> bool {
    let log = snapshot.log();
    let (n, m) = (log.n_players(), log.n_objects());

    // The merged log must be exactly seq 0..len, in order.
    let mut expected = 0u64;
    for slice in log.slices_since(Seq(0)) {
        for post in slice {
            if post.seq.0 != expected {
                return false;
            }
            expected += 1;
        }
    }
    if expected != log.len() {
        return false;
    }

    // Service path: tracker fed from immutable segments.
    let mut reader = EpochReader::new(n, m, policy);
    if reader.sync(snapshot).is_err() {
        return false;
    }

    // Oracle path: single-threaded sequential ingest of the same posts.
    let mut board = Billboard::with_capacity(n, m, usize::try_from(log.len()).unwrap_or(0));
    for slice in log.slices_since(Seq(0)) {
        for post in slice {
            if board
                .append(post.round, post.author, post.object, post.value, post.kind)
                .is_err()
            {
                return false;
            }
        }
    }
    let mut oracle = VoteTracker::new(n, m, policy);
    oracle.ingest(&board);

    reader.tracker().events() == oracle.events()
        && reader.window_tally(FULL_WINDOW) == oracle.window_tally(FULL_WINDOW)
        && reader.objects_with_votes() == oracle.objects_with_votes()
        && reader.tracker().voters() == oracle.voters()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_producer_stress_is_deterministic_and_linearizable() {
        let config = StressConfig::new(1, 5_000)
            .with_batch_posts(128)
            .with_universe(64, 128);
        let (a, snap_a) = run_stress(config).unwrap();
        let (b, snap_b) = run_stress(config).unwrap();
        assert_eq!(a.posts, 5_000);
        assert_eq!(a.tally_digest, b.tally_digest, "P=1 merge order is fixed");
        assert!(verify_linearization(&snap_a, config.policy));
        assert!(verify_linearization(&snap_b, config.policy));
    }

    #[test]
    fn multi_producer_stress_with_readers_linearizes() {
        let config = StressConfig::new(4, 20_000)
            .with_batch_posts(256)
            .with_readers(2)
            .with_channel_batches(8);
        let (outcome, snapshot) = run_stress(config).unwrap();
        assert_eq!(outcome.posts, 20_000);
        // 4 producers × ceil(5000 / 256) batches each
        assert_eq!(outcome.batches, 80);
        assert!(verify_linearization(&snapshot, config.policy));
        // readers observed the final epoch eventually; latency fields are
        // populated iff any epochs were sampled
        if outcome.reads > 0 {
            assert!(outcome.tally_p50_ns.is_some());
            assert!(outcome.tally_p99_ns >= outcome.tally_p50_ns);
        }
    }

    #[test]
    fn invalid_stress_configs_are_rejected() {
        assert!(run_stress(StressConfig::new(0, 100)).is_err());
        assert!(run_stress(StressConfig::new(1, 0)).is_err());
        assert!(run_stress(StressConfig::new(1, 10).with_batch_posts(0)).is_err());
    }

    #[test]
    fn percentile_math() {
        assert_eq!(percentile(&[], 50), None);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50), Some(50));
        assert_eq!(percentile(&v, 99), Some(99));
        assert_eq!(percentile(&v, 100), Some(100));
        assert_eq!(percentile(&[7], 99), Some(7));
    }
}
