//! The multi-process sweep fabric: worker processes over a shared
//! [`LeaseQueue`], plus the `loopr`-style dumb
//! supervisor that restarts dead ones.
//!
//! One sweep, many processes. Each worker loops: claim a chunk from the
//! on-disk queue (reclaiming expired leases), run its trials under
//! [`supervise`](crate::supervise), append *its own* results
//! to the checkpoint log `<queue>.worker<id>.ckpt`, heartbeat-renew the
//! lease while working, and mark the chunk done once its results are
//! durably appended. Kill -9 a worker at any instant and its current lease
//! simply expires; any live worker reclaims the chunk and re-runs it. The
//! union of worker checkpoints (see [`crate::merge`]) is bit-identical to
//! an uninterrupted single-process sweep because trials are pure functions
//! of their index.
//!
//! ## The queue lock
//!
//! The queue file itself is written atomically, so it can never tear — but
//! claim/renew/complete are read-modify-write cycles, and two workers
//! interleaving them could lose an update (both "claim" the same chunk).
//! Each cycle holds [`frame::lock`] on the queue and writes through its
//! guard: the kernel's lock on the sibling `<queue>.lock`, which serialises
//! worker processes and the worker threads of one process alike. A reader
//! that only wants to know whether the sweep is done, as the supervisor
//! does, loads the queue without the lock. The kernel drops it when its holder exits,
//! `kill -9` included, so a dead worker never stalls the rest; the lock
//! file itself stays on disk. The lock guards work, not results: a lost
//! update would merely duplicate work, and duplicated trials produce
//! identical bytes that union cleanly.
//!
//! ## The dumb supervisor
//!
//! [`supervise_workers`] deliberately holds no state: it spawns N worker
//! processes, polls them, and respawns whichever died, until the queue
//! says done or the restart budget runs out. All sweep state lives in
//! files (queue, per-worker checkpoints, quarantine log), so the
//! supervisor itself can be killed and restarted freely — a fresh
//! supervisor run picks up exactly where the files say.

use crate::checkpoint::{CheckpointError, CheckpointLog};
use crate::frame::{self, FrameError};
use crate::lease::{LeaseError, LeaseOutcome, LeaseQueue};
use crate::quarantine::QuarantineRecord;
use crate::supervisor::SupervisorPolicy;
use crate::sweep::{fingerprint_of, run_supervised, TrialSpec};
use std::collections::BTreeSet;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::process::Child;
use std::sync::Arc;
use std::time::Duration;

/// A millisecond clock, injectable so lease expiry and reclaim are testable
/// without sleeping. Workers in production use [`system_clock`].
pub type ClockFn = Arc<dyn Fn() -> u64 + Send + Sync>;

/// The wall clock: milliseconds since the Unix epoch.
pub fn system_clock() -> ClockFn {
    Arc::new(|| {
        #[expect(
            clippy::disallowed_types,
            reason = "lease expiry across worker processes is wall-clock time by design; tests inject a clock instead"
        )]
        let now = std::time::SystemTime::now();
        now.duration_since(std::time::UNIX_EPOCH)
            .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
            .unwrap_or(0)
    })
}

/// Why a worker or the fleet supervisor could not run.
#[derive(Debug)]
pub enum WorkerError {
    /// The lease queue could not be loaded, validated, or written.
    Lease(LeaseError),
    /// This worker's own checkpoint failed to read or write, or an existing
    /// one belongs to a different sweep.
    Checkpoint(CheckpointError),
    /// Appending a quarantine record failed.
    Quarantine(String),
    /// The queue lock file could not be opened or locked.
    Lock(String),
    /// Spawning a worker process failed.
    Spawn(String),
}

impl fmt::Display for WorkerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkerError::Lease(e) => write!(f, "{e}"),
            WorkerError::Checkpoint(e) => write!(f, "{e}"),
            WorkerError::Quarantine(msg) => write!(f, "quarantine append failed: {msg}"),
            WorkerError::Lock(msg) => write!(f, "queue lock: {msg}"),
            WorkerError::Spawn(msg) => write!(f, "worker spawn failed: {msg}"),
        }
    }
}

impl std::error::Error for WorkerError {}

impl From<LeaseError> for WorkerError {
    fn from(e: LeaseError) -> Self {
        WorkerError::Lease(e)
    }
}

impl From<CheckpointError> for WorkerError {
    fn from(e: CheckpointError) -> Self {
        WorkerError::Checkpoint(e)
    }
}

/// This worker's private checkpoint next to the shared queue:
/// `<queue>.worker<id>.ckpt`.
pub fn worker_checkpoint_path(queue: &Path, worker_id: u64) -> PathBuf {
    let mut s = queue.as_os_str().to_owned();
    s.push(format!(".worker{worker_id}.ckpt"));
    PathBuf::from(s)
}

/// Every worker checkpoint log beside `queue`, whatever its worker id:
/// the files named `<queue>.worker<digits>.ckpt`, with their ids, in
/// ascending order. A log's lock file and scratch file (`<log>.lock`,
/// `<log>.tmp`) never match.
///
/// # Errors
/// The I/O error of listing the queue's directory.
pub fn worker_checkpoint_paths(queue: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let dir = queue
        .parent()
        .filter(|d| !d.as_os_str().is_empty())
        .unwrap_or(Path::new("."));
    let mut prefix = queue.file_name().unwrap_or_default().to_owned();
    prefix.push(".worker");
    let mut logs = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let id = path
            .file_name()
            .unwrap_or_default()
            .as_encoded_bytes()
            .strip_prefix(prefix.as_encoded_bytes())
            .and_then(|rest| rest.strip_suffix(b".ckpt"))
            .filter(|digits| digits.iter().all(u8::is_ascii_digit))
            .and_then(|digits| std::str::from_utf8(digits).ok()?.parse().ok());
        logs.extend(id.map(|id| (id, path)));
    }
    logs.sort_unstable();
    Ok(logs)
}

/// Options for one fabric worker.
#[derive(Clone)]
pub struct WorkerConfig {
    /// The shared lease-queue file; created on first touch.
    pub queue: PathBuf,
    /// This worker's id (attribution in leases, checkpoints, quarantine).
    pub worker_id: u64,
    /// Total trials in the sweep (must agree across all workers).
    pub trials: u64,
    /// Trials per lease chunk.
    pub chunk_size: u64,
    /// Per-chunk claim budget for quarantine retries across processes.
    pub max_claims: u32,
    /// Lease time-to-live; a worker silent this long is presumed dead.
    pub lease_ttl_ms: u64,
    /// Append this worker's new results to its checkpoint log after every
    /// this many completions (clamped to at least 1); always appended
    /// before a chunk is marked done.
    pub checkpoint_every: u64,
    /// Per-trial supervision policy (in-process retries).
    pub policy: SupervisorPolicy,
    /// Shared quarantine JSONL file; `None` keeps records in the report.
    pub quarantine: Option<PathBuf>,
    /// The clock leases are measured against.
    pub clock: ClockFn,
    /// Sleep between claim attempts when every chunk is validly leased by
    /// someone else.
    pub poll: Duration,
    /// Test hook: exit cleanly (without claiming further) after this many
    /// claims. `None` runs until the queue is done.
    pub stop_after_chunks: Option<u64>,
    /// Test hook simulating kill -9: return abruptly after this many
    /// successful trials, leaving the current lease dangling and the queue
    /// untouched.
    pub fail_after_trials: Option<u64>,
}

impl fmt::Debug for WorkerConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkerConfig")
            .field("queue", &self.queue)
            .field("worker_id", &self.worker_id)
            .field("trials", &self.trials)
            .field("chunk_size", &self.chunk_size)
            .field("max_claims", &self.max_claims)
            .field("lease_ttl_ms", &self.lease_ttl_ms)
            .field("checkpoint_every", &self.checkpoint_every)
            .field("policy", &self.policy)
            .field("quarantine", &self.quarantine)
            .field("poll", &self.poll)
            .field("stop_after_chunks", &self.stop_after_chunks)
            .field("fail_after_trials", &self.fail_after_trials)
            .finish_non_exhaustive()
    }
}

impl WorkerConfig {
    /// A worker on `queue` covering `trials` trials with production
    /// defaults: 16-trial chunks, claim budget 2, 30 s leases, the system
    /// clock.
    pub fn new(queue: PathBuf, worker_id: u64, trials: u64) -> Self {
        WorkerConfig {
            queue,
            worker_id,
            trials,
            chunk_size: 16,
            max_claims: 2,
            lease_ttl_ms: 30_000,
            checkpoint_every: 8,
            policy: SupervisorPolicy::default(),
            quarantine: None,
            clock: system_clock(),
            poll: Duration::from_millis(50),
            stop_after_chunks: None,
            fail_after_trials: None,
        }
    }
}

/// What one worker run did.
#[derive(Debug, Clone)]
pub struct WorkerReport {
    /// This worker's id.
    pub worker_id: u64,
    /// Chunks claimed (including reclaims of other workers' expired
    /// leases).
    pub chunks_claimed: u64,
    /// Chunks this worker marked done.
    pub chunks_completed: u64,
    /// Chunks released back for re-claim because they held quarantined
    /// trials and budget remained.
    pub chunks_released: u64,
    /// Leases lost to another worker's reclaim mid-chunk (the chunk was
    /// abandoned; own results kept).
    pub leases_lost: u64,
    /// Trials newly run to completion.
    pub trials_run: u64,
    /// Trials skipped because this worker had already finished them.
    pub trials_skipped: u64,
    /// Trials that exhausted the in-process retry budget this run.
    pub quarantined: Vec<QuarantineRecord>,
    /// Times the shared queue was rebuilt from scratch after corruption of
    /// the queue or of this worker's own checkpoint.
    pub queue_rebuilt: u64,
    /// True when this worker's own checkpoint log was damaged and cut back
    /// to its intact frames (which also resets the queue, so the lost
    /// trials run again). A torn last frame, which a kill mid-append
    /// leaves, is cut off without either.
    pub checkpoint_rebuilt: bool,
    /// True when the worker exited because the queue was fully done (as
    /// opposed to a test hook stopping it early).
    pub finished: bool,
}

// ---------------------------------------------------------------------------
// Locked queue read-modify-write.
// ---------------------------------------------------------------------------

/// The queue identity every read-modify-write revalidates against.
#[derive(Debug, Clone, Copy)]
struct QueueIdentity {
    fingerprint: u64,
    trials: u64,
    chunk_size: u64,
    max_claims: u32,
}

/// Under the queue lock ([`frame::lock`]): load the queue (initialising a
/// missing one, rebuilding a corrupt one — corruption only costs
/// re-execution, never results), apply `mutate`, write back atomically
/// through the lock's guard. Any other I/O failure is returned, never
/// mistaken for corruption.
fn update_queue<T>(
    path: &Path,
    id: QueueIdentity,
    rebuilds: &mut u64,
    mutate: impl FnOnce(&mut LeaseQueue) -> T,
) -> Result<T, WorkerError> {
    let lock = frame::lock(path).map_err(|e| WorkerError::Lock(e.to_string()))?;
    let mut queue = match LeaseQueue::load(path) {
        Ok(q) => {
            // A queue from a *different sweep* is a hard error — never
            // clobber someone else's state. A matching queue is used as-is.
            q.validate_for(id.fingerprint, id.trials, id.chunk_size, id.max_claims)?;
            q
        }
        Err(LeaseError::Frame(FrameError::Io {
            kind: io::ErrorKind::NotFound,
            ..
        })) => LeaseQueue::new(id.fingerprint, id.trials, id.chunk_size, id.max_claims)?,
        Err(e @ LeaseError::Frame(FrameError::Io { .. })) => return Err(e.into()),
        Err(_) => {
            // Corrupt queue file (truncation, bit rot): rebuild fresh. Done
            // markers are lost, so chunks may be re-executed — but results
            // live in worker checkpoints, and duplicated execution merges
            // bit-identically, so this salvage is always safe.
            *rebuilds += 1;
            LeaseQueue::new(id.fingerprint, id.trials, id.chunk_size, id.max_claims)?
        }
    };
    let out = mutate(&mut queue);
    lock.write(&queue.encode()).map_err(LeaseError::from)?;
    Ok(out)
}

// ---------------------------------------------------------------------------
// The worker loop.
// ---------------------------------------------------------------------------

enum Claim {
    AllDone,
    Busy,
    Chunk(u64, core::ops::Range<u64>),
}

/// Runs one fabric worker to completion: claim chunks, run trials,
/// checkpoint, heartbeat, mark done — until the queue reports every chunk
/// done (or a test hook stops it early).
///
/// # Errors
/// Queue, lock, checkpoint, and quarantine I/O failures abort the worker
/// with a [`WorkerError`]; trial panics and timeouts do *not* — they
/// quarantine, and a fully-quarantined chunk consumes claim budget.
pub fn run_worker<S: TrialSpec>(
    spec: Arc<S>,
    config: &WorkerConfig,
) -> Result<WorkerReport, WorkerError> {
    let fingerprint = fingerprint_of(spec.as_ref());
    let id = QueueIdentity {
        fingerprint,
        trials: config.trials,
        chunk_size: config.chunk_size,
        max_claims: config.max_claims,
    };
    let ckpt_path = worker_checkpoint_path(&config.queue, config.worker_id);
    let mut report = WorkerReport {
        worker_id: config.worker_id,
        chunks_claimed: 0,
        chunks_completed: 0,
        chunks_released: 0,
        leases_lost: 0,
        trials_run: 0,
        trials_skipped: 0,
        quarantined: Vec::new(),
        queue_rebuilt: 0,
        checkpoint_rebuilt: false,
        finished: false,
    };

    // This worker's own prior progress: only the indices are kept. A log
    // from a different sweep, or one that exists but cannot be read, is a
    // hard error. A torn last frame (a kill mid-append) held no trial of a
    // chunk marked done, and is just cut off. Any other damage keeps the
    // intact frames, but the lost trials are in no other file while the
    // queue may already mark their chunks done, so the queue is reset under
    // the lock — before the damaged frames are compacted away — and they
    // run again.
    let every = config.checkpoint_every;
    let (mut log, resumed) =
        CheckpointLog::resume(&ckpt_path, fingerprint, id.trials, every, |_| {
            report.checkpoint_rebuilt = true;
            let fresh = LeaseQueue::new(fingerprint, id.trials, id.chunk_size, id.max_claims)?;
            update_queue(&config.queue, id, &mut report.queue_rebuilt, |q| *q = fresh)?;
            report.queue_rebuilt += 1;
            Ok::<(), WorkerError>(())
        })?;
    let mut finished: BTreeSet<u64> = resumed.into_iter().map(|(trial, _)| trial).collect();

    loop {
        if config
            .stop_after_chunks
            .is_some_and(|n| report.chunks_claimed >= n)
        {
            break;
        }
        let worker = config.worker_id;
        let ttl = config.lease_ttl_ms;
        let now = (config.clock)();
        let claim = update_queue(&config.queue, id, &mut report.queue_rebuilt, |q| {
            if q.all_done() {
                Claim::AllDone
            } else {
                match q.claim(worker, now, ttl) {
                    Some(chunk) => Claim::Chunk(chunk, q.chunk_range(chunk)),
                    None => Claim::Busy,
                }
            }
        })?;
        let (chunk, range) = match claim {
            Claim::AllDone => {
                report.finished = true;
                break;
            }
            Claim::Busy => {
                std::thread::sleep(config.poll);
                continue;
            }
            Claim::Chunk(chunk, range) => (chunk, range),
        };
        report.chunks_claimed += 1;

        let mut deadline = now.saturating_add(ttl);
        let mut chunk_quarantined = 0u64;
        let mut lost = false;
        for trial in range {
            if finished.contains(&trial) {
                report.trials_skipped += 1;
                continue;
            }
            if config
                .fail_after_trials
                .is_some_and(|n| report.trials_run >= n)
            {
                // Simulated kill -9: vanish mid-chunk. The lease dangles
                // until it expires; whatever the checkpoint cadence saved
                // is saved, the rest will be re-run by a reclaimer.
                return Ok(report);
            }
            // Heartbeat: renew once less than half the ttl remains. Losing
            // the lease (another worker reclaimed after expiry) means
            // abandoning the chunk — but never the results already earned.
            let now = (config.clock)();
            if now.saturating_add(ttl / 2) >= deadline {
                let outcome = update_queue(&config.queue, id, &mut report.queue_rebuilt, |q| {
                    q.renew(chunk, worker, now, ttl)
                })?;
                if outcome == LeaseOutcome::Applied {
                    deadline = now.saturating_add(ttl);
                } else {
                    report.leases_lost += 1;
                    lost = true;
                    break;
                }
            }
            match run_supervised(&spec, &config.policy, fingerprint, trial) {
                Ok(result) => {
                    log.push(trial, &result)?;
                    finished.insert(trial);
                    report.trials_run += 1;
                }
                Err(mut record) => {
                    record.worker_id = Some(worker);
                    record.lease = Some(chunk);
                    if let Some(path) = &config.quarantine {
                        record.append_to(path).map_err(WorkerError::Quarantine)?;
                    }
                    report.quarantined.push(record);
                    chunk_quarantined += 1;
                }
            }
        }
        if lost {
            continue;
        }
        // Durability before visibility: the chunk's results must be in the
        // log before the queue says done, so a crash between the two
        // re-runs the chunk instead of losing it.
        log.append()?;
        if chunk_quarantined > 0 {
            // A chunk with quarantined trials: release it for another
            // claim (fresh cross-process retry budget) while budget
            // remains, otherwise accept the losses and mark it done.
            let released = update_queue(&config.queue, id, &mut report.queue_rebuilt, |q| {
                if q.claims_of(chunk) < q.max_claims {
                    q.release(chunk, worker) == LeaseOutcome::Applied
                } else {
                    q.complete(chunk, worker);
                    false
                }
            })?;
            if released {
                report.chunks_released += 1;
            } else {
                report.chunks_completed += 1;
            }
        } else {
            update_queue(&config.queue, id, &mut report.queue_rebuilt, |q| {
                q.complete(chunk, worker)
            })?;
            report.chunks_completed += 1;
        }
    }
    log.append()?;
    Ok(report)
}

// ---------------------------------------------------------------------------
// The dumb supervisor.
// ---------------------------------------------------------------------------

/// Fleet options for [`supervise_workers`].
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Worker slots to keep populated.
    pub workers: u64,
    /// Respawns allowed across the whole fleet (initial spawns are free).
    pub max_restarts: u64,
    /// Sleep between supervision polls.
    pub poll: Duration,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            workers: 3,
            max_restarts: 16,
            poll: Duration::from_millis(100),
        }
    }
}

/// What the fleet supervisor did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetReport {
    /// Worker respawns performed.
    pub restarts: u64,
    /// True when supervision ended because `is_done` reported completion;
    /// false when every slot was dead with the restart budget exhausted.
    pub done: bool,
}

/// The `loopr` pattern: keep `fleet.workers` worker processes alive until
/// `is_done()` or the restart budget is spent. `spawn(slot)` launches the
/// worker for a slot; `is_done()` is polled between rounds (typically: does
/// the queue file say all chunks are done?).
///
/// The supervisor holds no sweep state — kill it at any point and a fresh
/// invocation resumes from the files alone. When `is_done` fires, any
/// still-running workers are waited on (they exit on their own once they
/// observe the done queue).
///
/// # Errors
/// [`WorkerError::Spawn`] when a worker process cannot be launched at all.
pub fn supervise_workers(
    fleet: &FleetConfig,
    mut spawn: impl FnMut(u64) -> std::io::Result<Child>,
    mut is_done: impl FnMut() -> bool,
) -> Result<FleetReport, WorkerError> {
    let slots = usize::try_from(fleet.workers).unwrap_or(usize::MAX).max(1);
    let mut children: Vec<Option<Child>> = Vec::new();
    children.resize_with(slots, || None);
    let mut ever_spawned = vec![false; slots];
    let mut restarts = 0u64;
    loop {
        if is_done() {
            for child in children.iter_mut().flatten() {
                let _ = child.wait();
            }
            return Ok(FleetReport {
                restarts,
                done: true,
            });
        }
        for slot in 0..slots {
            match &mut children[slot] {
                Some(child) => {
                    // A child that exited (for any reason, any status) just
                    // empties the slot; the next round decides whether to
                    // respawn. An errored try_wait is treated the same.
                    if !matches!(child.try_wait(), Ok(None)) {
                        children[slot] = None;
                    }
                }
                None => {
                    if ever_spawned[slot] {
                        if restarts >= fleet.max_restarts {
                            continue;
                        }
                        restarts += 1;
                    }
                    let child =
                        spawn(slot as u64).map_err(|e| WorkerError::Spawn(e.to_string()))?;
                    children[slot] = Some(child);
                    ever_spawned[slot] = true;
                }
            }
        }
        if children.iter().all(Option::is_none) && restarts >= fleet.max_restarts {
            return Ok(FleetReport {
                restarts,
                done: false,
            });
        }
        std::thread::sleep(fleet.poll);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::Checkpoint;
    use crate::merge::merge_checkpoints;
    use crate::sweep::{run_sweep, SweepConfig};
    use distill_sim::SimResult;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A cheap, perfectly deterministic spec: no engine, just index math —
    /// the fabric tests exercise orchestration, not simulation.
    struct SynthSpec {
        tag: u64,
    }

    impl TrialSpec for SynthSpec {
        fn run_trial(&self, trial: u64) -> SimResult {
            SimResult {
                rounds: trial.wrapping_mul(0x9E37_79B9).rotate_left(7) ^ self.tag,
                all_satisfied: trial.is_multiple_of(3),
                players: vec![],
                satisfied_per_round: vec![],
                posts_total: 0,
                forged_rejected: 0,
                notes: vec![("trial".into(), trial as f64)],
                final_eval: None,
                faults: distill_sim::FaultCounters {
                    posts_dropped: 0,
                    crashes: 0,
                    recoveries: 0,
                },
                trace: None,
            }
        }

        fn seed(&self, trial: u64) -> u64 {
            self.tag.wrapping_add(trial)
        }

        fn describe(&self) -> String {
            format!("synth-fabric tag={}", self.tag)
        }
    }

    /// A spec that always panics on chosen trials.
    struct PanickySynth {
        inner: SynthSpec,
        panic_on: Vec<u64>,
    }

    impl TrialSpec for PanickySynth {
        fn run_trial(&self, trial: u64) -> SimResult {
            assert!(!self.panic_on.contains(&trial), "injected panic at {trial}");
            self.inner.run_trial(trial)
        }
        fn seed(&self, trial: u64) -> u64 {
            self.inner.seed(trial)
        }
        fn describe(&self) -> String {
            self.inner.describe()
        }
    }

    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("distill-worker-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn test_clock(start: u64) -> (Arc<AtomicU64>, ClockFn) {
        let t = Arc::new(AtomicU64::new(start));
        let t2 = Arc::clone(&t);
        (t, Arc::new(move || t2.load(Ordering::SeqCst)))
    }

    fn quick_policy() -> SupervisorPolicy {
        SupervisorPolicy {
            max_retries: 1,
            backoff_base: Duration::from_millis(1),
            ..SupervisorPolicy::default()
        }
    }

    fn config(queue: PathBuf, worker_id: u64, trials: u64, clock: ClockFn) -> WorkerConfig {
        let mut c = WorkerConfig::new(queue, worker_id, trials);
        c.chunk_size = 4;
        c.policy = quick_policy();
        c.clock = clock;
        c.poll = Duration::from_millis(1);
        c
    }

    fn reference_results(spec_tag: u64, trials: u64) -> Checkpoint {
        let spec = Arc::new(SynthSpec { tag: spec_tag });
        let mut cfg = SweepConfig::new(trials);
        cfg.policy = quick_policy();
        let report = run_sweep(Arc::clone(&spec), &cfg).unwrap();
        Checkpoint {
            fingerprint: report.fingerprint,
            total_trials: trials,
            completed: report
                .results
                .into_iter()
                .map(|(t, r)| (t, Arc::new(r)))
                .collect(),
        }
    }

    #[test]
    fn single_worker_completes_the_sweep() {
        let dir = scratch("solo");
        let queue = dir.join("sweep.queue");
        let (_, clock) = test_clock(1_000);
        let cfg = config(queue.clone(), 0, 10, clock);
        let report = run_worker(Arc::new(SynthSpec { tag: 7 }), &cfg).unwrap();
        assert!(report.finished);
        assert_eq!(report.trials_run, 10);
        assert_eq!(report.chunks_completed, 3);
        assert!(LeaseQueue::load(&queue).unwrap().all_done());
        // The worker checkpoint alone merges into the full reference set.
        let ck = Checkpoint::load(&worker_checkpoint_path(&queue, 0)).unwrap();
        let merged = merge_checkpoints(&[ck]).unwrap();
        assert_eq!(merged.encode(), reference_results(7, 10).encode());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The acceptance-criteria scenario in miniature: worker A dies (kill
    /// simulated by `fail_after_trials`) mid-chunk with a dangling lease;
    /// after the lease expires, worker B reclaims and finishes; the merged
    /// checkpoints are bit-identical to an uninterrupted single-process
    /// sweep.
    #[test]
    fn killed_worker_is_reclaimed_and_merge_is_bit_identical() {
        let dir = scratch("kill");
        let queue = dir.join("sweep.queue");
        let (time, clock) = test_clock(1_000);

        let mut a = config(queue.clone(), 1, 20, Arc::clone(&clock));
        a.checkpoint_every = 1; // save everything it managed to run
        a.fail_after_trials = Some(6); // dies mid-second-chunk
        let ra = run_worker(Arc::new(SynthSpec { tag: 9 }), &a).unwrap();
        assert!(!ra.finished);
        assert_eq!(ra.trials_run, 6);
        // Its second lease dangles: not done, not available.
        let q = LeaseQueue::load(&queue).unwrap();
        assert!(!q.all_done());
        assert_eq!(q.state_counts().1, 1, "one dangling lease");

        // Before the ttl passes, worker B cannot touch the dangling chunk…
        // (it claims the other available chunks instead and finishes them).
        time.fetch_add(a.lease_ttl_ms + 1, Ordering::SeqCst); // …so expire it.
        let b = config(queue.clone(), 2, 20, Arc::clone(&clock));
        let rb = run_worker(Arc::new(SynthSpec { tag: 9 }), &b).unwrap();
        assert!(rb.finished);
        assert!(LeaseQueue::load(&queue).unwrap().all_done());

        let parts = [
            Checkpoint::load(&worker_checkpoint_path(&queue, 1)).unwrap(),
            Checkpoint::load(&worker_checkpoint_path(&queue, 2)).unwrap(),
        ];
        // The dangling chunk's first trials were run by BOTH workers (A
        // checkpointed them, B re-ran the whole reclaimed chunk) — the
        // union must still be exact.
        let merged = merge_checkpoints(&parts).unwrap();
        assert_eq!(merged.encode(), reference_results(9, 20).encode());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn workers_share_the_queue_disjointly_when_all_live() {
        let dir = scratch("pair");
        let queue = dir.join("sweep.queue");
        let (_, clock) = test_clock(0);
        // Worker 1 takes some chunks and stops; worker 2 takes the rest.
        let mut a = config(queue.clone(), 1, 24, Arc::clone(&clock));
        a.stop_after_chunks = Some(3);
        let ra = run_worker(Arc::new(SynthSpec { tag: 3 }), &a).unwrap();
        assert_eq!(ra.chunks_claimed, 3);
        assert!(!ra.finished);
        let b = config(queue.clone(), 2, 24, clock);
        let rb = run_worker(Arc::new(SynthSpec { tag: 3 }), &b).unwrap();
        assert!(rb.finished);
        // Live leases were respected: no trial ran twice.
        assert_eq!(ra.trials_run + rb.trials_run, 24);
        let parts = [
            Checkpoint::load(&worker_checkpoint_path(&queue, 1)).unwrap(),
            Checkpoint::load(&worker_checkpoint_path(&queue, 2)).unwrap(),
        ];
        let merged = merge_checkpoints(&parts).unwrap();
        assert_eq!(merged.encode(), reference_results(3, 24).encode());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Satellite: the cross-process retry budget. A chunk whose trial
    /// always panics is released once (fresh budget for another process)
    /// and completed-with-losses when `max_claims` is exhausted; both
    /// quarantine records carry distinct worker ids and the lease chunk.
    #[test]
    fn quarantined_chunk_consumes_cross_process_claim_budget() {
        let dir = scratch("budget");
        let queue = dir.join("sweep.queue");
        let qfile = dir.join("quarantine.jsonl");
        let (_, clock) = test_clock(0);
        let spec = || {
            Arc::new(PanickySynth {
                inner: SynthSpec { tag: 5 },
                panic_on: vec![2],
            })
        };

        // Worker 1: hits the poisoned chunk, quarantines trial 2, releases
        // the chunk (claims 1 < max_claims 2), then stops.
        let mut a = config(queue.clone(), 1, 8, Arc::clone(&clock));
        a.quarantine = Some(qfile.clone());
        a.stop_after_chunks = Some(1);
        let ra = run_worker(spec(), &a).unwrap();
        assert_eq!(ra.chunks_released, 1);
        assert_eq!(ra.quarantined.len(), 1);
        assert_eq!(ra.quarantined[0].attempts, 2); // in-process budget spent
        let q = LeaseQueue::load(&queue).unwrap();
        assert_eq!(q.claims_of(0), 1);

        // Worker 2: re-claims the poisoned chunk with a fresh in-process
        // retry budget, fails again, and — budget exhausted — completes
        // the chunk with the loss recorded.
        let mut b = config(queue.clone(), 2, 8, clock);
        b.quarantine = Some(qfile.clone());
        let rb = run_worker(spec(), &b).unwrap();
        assert!(rb.finished);
        assert_eq!(rb.quarantined.len(), 1);
        assert!(LeaseQueue::load(&queue).unwrap().all_done());

        // The quarantine log shows both processes' attempts, attributed.
        let text = std::fs::read_to_string(&qfile).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"worker_id\":1"));
        assert!(lines[1].contains("\"worker_id\":2"));
        assert!(lines.iter().all(|l| l.contains("\"lease\":0")));
        assert!(lines.iter().all(|l| l.contains("\"attempts\":2")));

        // Every trial except the poisoned one completed exactly once.
        let parts = [
            Checkpoint::load(&worker_checkpoint_path(&queue, 1)).unwrap(),
            Checkpoint::load(&worker_checkpoint_path(&queue, 2)).unwrap(),
        ];
        let merged = merge_checkpoints(&parts).unwrap();
        let trials: Vec<u64> = merged.completed.iter().map(|(t, _)| *t).collect();
        assert_eq!(trials, vec![0, 1, 3, 4, 5, 6, 7]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_queue_is_rebuilt_and_sweep_still_converges() {
        let dir = scratch("rebuild");
        let queue = dir.join("sweep.queue");
        let (_, clock) = test_clock(0);
        let mut a = config(queue.clone(), 1, 12, Arc::clone(&clock));
        a.stop_after_chunks = Some(2);
        run_worker(Arc::new(SynthSpec { tag: 11 }), &a).unwrap();

        // Vandalise the queue file mid-sweep.
        let mut bytes = std::fs::read(&queue).unwrap();
        let mid = bytes.len() / 2;
        bytes.truncate(mid);
        std::fs::write(&queue, &bytes).unwrap();
        assert!(LeaseQueue::load(&queue).is_err());

        // The next worker rebuilds the queue (losing Done markers — some
        // chunks re-run) and still converges to the exact reference set.
        let b = config(queue.clone(), 2, 12, clock);
        let rb = run_worker(Arc::new(SynthSpec { tag: 11 }), &b).unwrap();
        assert!(rb.finished);
        assert!(rb.queue_rebuilt >= 1);
        let parts = [
            Checkpoint::load(&worker_checkpoint_path(&queue, 1)).unwrap(),
            Checkpoint::load(&worker_checkpoint_path(&queue, 2)).unwrap(),
        ];
        let merged = merge_checkpoints(&parts).unwrap();
        assert_eq!(merged.encode(), reference_results(11, 12).encode());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn queue_from_a_different_sweep_is_refused_not_clobbered() {
        let dir = scratch("foreign");
        let queue = dir.join("sweep.queue");
        let (_, clock) = test_clock(0);
        let a = config(queue.clone(), 1, 8, Arc::clone(&clock));
        run_worker(Arc::new(SynthSpec { tag: 1 }), &a).unwrap();
        let before = std::fs::read(&queue).unwrap();
        // Different spec ⇒ different fingerprint ⇒ hard error.
        let b = config(queue.clone(), 2, 8, clock);
        let err = run_worker(Arc::new(SynthSpec { tag: 2 }), &b).unwrap_err();
        assert!(matches!(
            err,
            WorkerError::Lease(LeaseError::ConfigMismatch { .. })
        ));
        assert_eq!(std::fs::read(&queue).unwrap(), before, "queue untouched");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The lock file a holder killed mid-update leaves behind stalls no
    /// worker, whatever it holds (here a pid that no process has and an
    /// acquisition time equal to the frozen clock): the kernel released the
    /// lock with the process.
    #[test]
    fn a_dead_holders_lock_file_does_not_stall_a_worker() {
        let dir = scratch("dead-holder");
        let queue = dir.join("sweep.queue");
        let mut lock_file = queue.as_os_str().to_owned();
        lock_file.push(".lock");
        std::fs::write(&lock_file, b"4294967295 1000 0").unwrap();
        let (_, clock) = test_clock(1_000);
        let cfg = config(queue.clone(), 0, 8, clock);
        let report = run_worker(Arc::new(SynthSpec { tag: 31 }), &cfg).unwrap();
        assert!(report.finished);
        assert!(LeaseQueue::load(&queue).unwrap().all_done());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A leftover lock file never blocks a queue update, while a held lock
    /// stalls a contender thread of the same process until it is dropped.
    #[test]
    fn only_a_held_lock_stalls_a_queue_update() {
        let dir = scratch("lock");
        let queue = dir.join("sweep.queue");
        let id = QueueIdentity {
            fingerprint: 1,
            trials: 8,
            chunk_size: 4,
            max_claims: 2,
        };
        // The lock file that a released lock leaves behind.
        drop(frame::lock(&queue).unwrap());
        update_queue(&queue, id, &mut 0, |_| ()).unwrap();

        let held = frame::lock(&queue).unwrap();
        let started = Arc::new(std::sync::Barrier::new(2));
        let contender = {
            let (queue, started) = (queue.clone(), Arc::clone(&started));
            std::thread::spawn(move || {
                started.wait();
                update_queue(&queue, id, &mut 0, |q| q.claim(7, 0, 1))
            })
        };
        started.wait();
        std::thread::sleep(Duration::from_millis(50));
        assert!(!contender.is_finished(), "must wait for the held lock");
        assert_eq!(LeaseQueue::load(&queue).unwrap().state_counts().1, 0);
        drop(held);
        assert_eq!(contender.join().unwrap().unwrap(), Some(0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dumb_supervisor_restarts_dead_workers_until_done() {
        // Stand-in "workers": /bin/true processes that exit immediately;
        // done flips after a few polls. The supervisor must keep slots
        // populated, count restarts, and stop when done.
        let fleet = FleetConfig {
            workers: 2,
            max_restarts: 64,
            poll: Duration::from_millis(5),
        };
        let spawned = Arc::new(AtomicU64::new(0));
        let spawned2 = Arc::clone(&spawned);
        let polls = Arc::new(AtomicU64::new(0));
        let polls2 = Arc::clone(&polls);
        let report = supervise_workers(
            &fleet,
            move |_slot| {
                spawned2.fetch_add(1, Ordering::SeqCst);
                std::process::Command::new("true").spawn()
            },
            move || polls2.fetch_add(1, Ordering::SeqCst) >= 4,
        )
        .unwrap();
        assert!(report.done);
        assert!(spawned.load(Ordering::SeqCst) >= 2, "both slots populated");
        assert!(report.restarts <= fleet.max_restarts);
    }

    #[test]
    fn dumb_supervisor_gives_up_when_budget_is_spent() {
        let fleet = FleetConfig {
            workers: 1,
            max_restarts: 3,
            poll: Duration::from_millis(2),
        };
        let report = supervise_workers(
            &fleet,
            |_slot| std::process::Command::new("true").spawn(),
            || false,
        )
        .unwrap();
        assert!(!report.done);
        assert_eq!(report.restarts, 3);
    }

    #[test]
    fn corrupt_own_checkpoint_is_discarded_and_rebuilt() {
        let dir = scratch("ownckpt");
        let queue = dir.join("sweep.queue");
        let (_, clock) = test_clock(0);
        let cfg = config(queue.clone(), 4, 8, Arc::clone(&clock));
        run_worker(Arc::new(SynthSpec { tag: 13 }), &cfg).unwrap();
        // Bit-flip the worker's own checkpoint…
        let path = worker_checkpoint_path(&queue, 4);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        // …and vandalise the queue too, so there is work to redo.
        std::fs::write(&queue, b"junk").unwrap();
        let report = run_worker(Arc::new(SynthSpec { tag: 13 }), &cfg).unwrap();
        assert!(report.checkpoint_rebuilt);
        assert!(report.finished);
        let merged = merge_checkpoints(&[Checkpoint::load(&path).unwrap()]).unwrap();
        assert_eq!(merged.encode(), reference_results(13, 8).encode());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A worker whose own checkpoint is corrupted after it finished a chunk
    /// must not lose that chunk: the queue already says done, and no other
    /// file holds the results, so the discard resets the queue.
    #[test]
    fn corrupt_own_checkpoint_after_a_done_chunk_loses_no_trial() {
        let dir = scratch("ownloss");
        let queue = dir.join("sweep.queue");
        let (_, clock) = test_clock(0);
        let mut cfg = config(queue.clone(), 4, 8, Arc::clone(&clock));
        cfg.stop_after_chunks = Some(1);
        run_worker(Arc::new(SynthSpec { tag: 17 }), &cfg).unwrap();
        let path = worker_checkpoint_path(&queue, 4);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        cfg.stop_after_chunks = None;
        let report = run_worker(Arc::new(SynthSpec { tag: 17 }), &cfg).unwrap();
        assert!(report.checkpoint_rebuilt);
        assert!(report.finished);
        let merged = merge_checkpoints(&[Checkpoint::load(&path).unwrap()]).unwrap();
        assert_eq!(merged.encode(), reference_results(17, 8).encode());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A kill -9 mid-append leaves a torn last frame, whose trials belong
    /// to a chunk the queue does not mark done. The restarted worker keeps
    /// every trial in front of it, cuts the torn frame off without resetting
    /// the queue, and the sweep still merges bit-identically.
    #[test]
    fn torn_last_frame_resumes_without_losing_a_trial() {
        let dir = scratch("torn");
        let queue = dir.join("sweep.queue");
        let (_, clock) = test_clock(0);
        let mut cfg = config(queue.clone(), 6, 12, Arc::clone(&clock));
        cfg.checkpoint_every = 2;
        cfg.stop_after_chunks = Some(2);
        let first = run_worker(Arc::new(SynthSpec { tag: 23 }), &cfg).unwrap();
        assert_eq!(first.trials_run, 8);
        // Half of the frame a killed worker was appending for trial 8.
        let path = worker_checkpoint_path(&queue, 6);
        let torn = Checkpoint {
            completed: vec![(8, Arc::new(SynthSpec { tag: 23 }.run_trial(8)))],
            ..reference_results(23, 12)
        }
        .encode();
        let mut log = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        std::io::Write::write_all(&mut log, &torn[..torn.len() / 2]).unwrap();
        drop(log);
        assert!(Checkpoint::load(&path).is_err());

        cfg.stop_after_chunks = None;
        let report = run_worker(Arc::new(SynthSpec { tag: 23 }), &cfg).unwrap();
        assert!(!report.checkpoint_rebuilt);
        assert_eq!(report.queue_rebuilt, 0);
        assert!(report.finished);
        assert_eq!(
            report.trials_skipped, 0,
            "done chunks are not claimed again"
        );
        assert_eq!(report.trials_run, 4);
        let merged = merge_checkpoints(&[Checkpoint::load(&path).unwrap()]).unwrap();
        assert_eq!(merged.encode(), reference_results(23, 12).encode());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A worker appends one frame per cadence, never the whole result set
    /// again: its log is the one-frame encoding of all its trials plus one
    /// 52-byte frame head (28-byte header, then fingerprint, trial count
    /// and entry count) for every further frame — O(T) bytes for T trials.
    #[test]
    fn log_bytes_grow_by_one_frame_head_per_cadence() {
        let dir = scratch("bytes");
        let queue = dir.join("sweep.queue");
        let (_, clock) = test_clock(0);
        let (trials, every) = (24, 2);
        let mut cfg = config(queue.clone(), 7, trials, clock);
        cfg.checkpoint_every = every;
        run_worker(Arc::new(SynthSpec { tag: 29 }), &cfg).unwrap();
        let one_frame = reference_results(29, trials).encode().len() as u64;
        let frames = trials / every;
        let log = std::fs::metadata(worker_checkpoint_path(&queue, 7)).unwrap();
        assert_eq!(log.len(), one_frame + (frames - 1) * 52);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// An own checkpoint that exists but cannot be read is not mistaken for
    /// a missing one: the worker stops before claiming anything.
    #[test]
    fn unreadable_own_checkpoint_is_a_hard_error() {
        let dir = scratch("unreadable");
        let queue = dir.join("sweep.queue");
        let (_, clock) = test_clock(0);
        std::fs::create_dir(worker_checkpoint_path(&queue, 5)).unwrap();
        let cfg = config(queue.clone(), 5, 8, clock);
        let err = run_worker(Arc::new(SynthSpec { tag: 19 }), &cfg).unwrap_err();
        assert!(matches!(
            err,
            WorkerError::Checkpoint(CheckpointError::Frame(FrameError::Io { .. }))
        ));
        assert!(!queue.exists(), "no chunk may be claimed");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Only decode errors rebuild the queue; an unreadable queue file is an
    /// I/O error, returned as such.
    #[test]
    fn unreadable_queue_is_returned_not_rebuilt() {
        let dir = scratch("unreadable-queue");
        let queue = dir.join("sweep.queue");
        std::fs::create_dir(&queue).unwrap();
        let id = QueueIdentity {
            fingerprint: 1,
            trials: 8,
            chunk_size: 4,
            max_claims: 2,
        };
        let mut rebuilds = 0;
        let err = update_queue(&queue, id, &mut rebuilds, |_| ()).unwrap_err();
        assert!(matches!(
            err,
            WorkerError::Lease(LeaseError::Frame(FrameError::Io { .. }))
        ));
        assert_eq!(rebuilds, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The listing finds every id's log, however many workers a fleet had,
    /// and nothing else: not scratch or lock files, other queues' logs, or
    /// names without a worker id.
    #[test]
    fn worker_checkpoint_paths_lists_every_log_of_the_queue() {
        let dir = scratch("listing");
        let queue = dir.join("sweep.queue");
        assert_eq!(worker_checkpoint_paths(&queue).unwrap(), []);
        for name in [
            "sweep.queue.worker0.ckpt",
            "sweep.queue.worker12.ckpt",
            "sweep.queue.worker5.ckpt",
            "sweep.queue.worker5.ckpt.tmp.4242",
            "sweep.queue.worker3.ckpt.tmp",
            "sweep.queue.worker3.ckpt.lock",
            "sweep.queue.worker+8.ckpt",
            "sweep.queue.worker.ckpt",
            "sweep.queue.workerx.ckpt",
            "other.queue.worker1.ckpt",
            "sweep.queue",
        ] {
            std::fs::write(dir.join(name), b"").unwrap();
        }
        let logs = worker_checkpoint_paths(&queue).unwrap();
        assert_eq!(
            logs,
            [0, 5, 12].map(|id| (id, worker_checkpoint_path(&queue, id)))
        );
        assert!(worker_checkpoint_paths(&dir.join("missing").join("q")).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn errors_render() {
        for e in [
            WorkerError::Lease(LeaseError::Frame(FrameError::BadMagic { at: 0 })),
            WorkerError::Checkpoint(CheckpointError::Frame(FrameError::BadMagic { at: 0 })),
            WorkerError::Quarantine("x".into()),
            WorkerError::Lock("y".into()),
            WorkerError::Spawn("z".into()),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
