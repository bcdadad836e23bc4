//! The multi-process sweep fabric's headline guarantee, pinned at the root
//! test tier: kill any subset of workers mid-lease (or the supervisor
//! itself — it holds no state) and resuming on the same files produces a
//! merged result set **bit-identical** to an uninterrupted single-process
//! `run_sweep` — no lost trials, no double-counted trials.
//!
//! Workers here run in-process with an injected clock, so lease expiry and
//! reclamation are deterministic; `crates/cli/tests/fabric_process.rs` and
//! the CI `cluster-crash` job replay the same scenario across real OS
//! process boundaries.

use distill_harness::{
    fingerprint_of, merge_checkpoints, run_sweep, run_worker, Checkpoint, ClockFn, LeaseQueue,
    SupervisorPolicy, SweepConfig, TrialSpec, WorkerConfig,
};
use distill_sim::SimResult;
use std::borrow::Borrow;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A cheap, pure, deterministic spec: results depend only on the trial
/// index, so any two executions of the same trial are bit-identical — the
/// property the whole merge-by-set-union design rests on.
struct SynthSpec;

impl TrialSpec for SynthSpec {
    fn run_trial(&self, trial: u64) -> SimResult {
        SimResult {
            rounds: trial.wrapping_mul(0x9E37_79B9).rotate_left(11) | 1,
            all_satisfied: trial.is_multiple_of(2),
            players: vec![],
            satisfied_per_round: vec![],
            posts_total: 0,
            forged_rejected: 0,
            // A NaN-bearing note exercises the bit-level (not PartialEq)
            // equality the merge layer uses.
            notes: vec![("trial".into(), trial as f64), ("nan".into(), f64::NAN)],
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
        trial
    }

    fn describe(&self) -> String {
        "cluster-fabric synth v1".into()
    }
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "distill-cluster-fabric-{name}-{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn test_clock(start: u64) -> (Arc<AtomicU64>, ClockFn) {
    let t = Arc::new(AtomicU64::new(start));
    let t2 = Arc::clone(&t);
    (t, Arc::new(move || t2.load(Ordering::SeqCst)))
}

fn worker_config(queue: &Path, worker_id: u64, trials: u64, clock: ClockFn) -> WorkerConfig {
    let mut config = WorkerConfig::new(queue.to_path_buf(), worker_id, trials);
    config.chunk_size = 4;
    config.lease_ttl_ms = 1_000;
    config.checkpoint_every = 1;
    config.poll = Duration::from_millis(1);
    config.policy = SupervisorPolicy {
        max_retries: 0,
        backoff_base: Duration::from_millis(1),
        ..SupervisorPolicy::default()
    };
    config.clock = clock;
    config
}

/// The uninterrupted single-process reference result set.
fn reference(trials: u64) -> Vec<(u64, SimResult)> {
    let report = run_sweep(
        Arc::new(SynthSpec),
        &SweepConfig {
            threads: 2,
            ..SweepConfig::new(trials)
        },
    )
    .unwrap();
    report.results
}

fn digest_of<R: Borrow<SimResult>>(results: &[(u64, R)]) -> Vec<(u64, u64)> {
    results
        .iter()
        .map(|(t, r)| {
            let mut w = distill_harness::Writer::new();
            distill_harness::checkpoint::encode_sim_result(&mut w, r.borrow());
            (*t, distill_harness::fnv1a64(&w.into_bytes()))
        })
        .collect()
}

/// Kill -9 of a worker mid-lease, then recovery by a second worker and a
/// "restarted" third pass of the first identity: the merge is bit-identical
/// to the uninterrupted reference, with every trial exactly once.
#[test]
fn killed_worker_recovery_merges_bit_identically_to_reference() {
    let dir = scratch("kill");
    let queue = dir.join("sweep.queue");
    let trials = 24u64;
    let (time, clock) = test_clock(1_000);

    // Worker 0 "dies" (returns abruptly, exactly like SIGKILL: no chunk
    // completion, no release — a dangling lease) after 2 trials of its
    // first chunk.
    let mut config0 = worker_config(&queue, 0, trials, Arc::clone(&clock));
    config0.fail_after_trials = Some(2);
    let dead = run_worker(Arc::new(SynthSpec), &config0).unwrap();
    assert!(!dead.finished, "worker 0 must die mid-sweep");
    assert_eq!(dead.trials_run, 2);
    let (_, leased, _) = LeaseQueue::load(&queue).unwrap().state_counts();
    assert_eq!(leased, 1, "the dead worker leaves a dangling lease");

    // Worker 1 drains everything it can; the dangling lease is unclaimable
    // until it expires, so advance the injected clock past the TTL.
    time.fetch_add(10_000, Ordering::SeqCst);
    let survivor = run_worker(
        Arc::new(SynthSpec),
        &worker_config(&queue, 1, trials, Arc::clone(&clock)),
    )
    .unwrap();
    assert!(survivor.finished, "worker 1 must drain the queue");
    assert!(LeaseQueue::load(&queue).unwrap().all_done());

    // The supervisor holds no state: "restarting" it is just merging the
    // worker checkpoints found on disk. Worker 0's partial checkpoint
    // overlaps the reclaimed chunk — set-union must deduplicate it.
    let parts: Vec<Checkpoint> = (0..2)
        .map(|id| Checkpoint::load(&distill_harness::worker_checkpoint_path(&queue, id)).unwrap())
        .collect();
    assert!(
        !parts[0].completed.is_empty(),
        "the dead worker's partial progress must survive on disk"
    );
    let merged = merge_checkpoints(&parts).unwrap();
    assert_eq!(merged.fingerprint, fingerprint_of(&SynthSpec));

    let expected = reference(trials);
    assert_eq!(
        merged.completed.len(),
        expected.len(),
        "every trial exactly once"
    );
    assert_eq!(
        digest_of(&merged.completed),
        digest_of(&expected),
        "fabric recovery must be bit-identical to the uninterrupted sweep"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Three workers racing on one queue from OS threads (real interleaving,
/// shared file): disjoint coverage, union bit-identical to the reference.
#[test]
fn concurrent_workers_on_one_queue_converge_bit_identically() {
    let dir = scratch("race");
    let queue = dir.join("sweep.queue");
    let trials = 40u64;
    let (_, clock) = test_clock(5_000);

    let handles: Vec<_> = (0..3)
        .map(|id| {
            let config = worker_config(&queue, id, trials, Arc::clone(&clock));
            std::thread::spawn(move || run_worker(Arc::new(SynthSpec), &config).unwrap())
        })
        .collect();
    let reports: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert!(reports.iter().all(|r| r.finished));
    let total_run: u64 = reports.iter().map(|r| r.trials_run).sum();
    assert_eq!(
        total_run, trials,
        "live workers with valid leases never duplicate work"
    );

    let parts: Vec<Checkpoint> = (0..3)
        .filter_map(|id| {
            Checkpoint::load(&distill_harness::worker_checkpoint_path(&queue, id)).ok()
        })
        .collect();
    let merged = merge_checkpoints(&parts).unwrap();
    assert_eq!(
        digest_of(&merged.completed),
        digest_of(&reference(trials)),
        "racing workers must union to the reference, bit for bit"
    );
    std::fs::remove_dir_all(&dir).ok();
}
