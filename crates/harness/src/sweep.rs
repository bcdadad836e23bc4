//! The crash-safe supervised sweep runner.
//!
//! Composes the other three modules: scoped workers run trials under
//! [`supervise`] (panic isolation + retries + watchdog) and settle each one
//! under the sweep's one lock — its result joins the checkpoint log, which
//! appends one frame per `checkpoint_every` new completions, or its
//! exhausted failure becomes a [`QuarantineRecord`] line — and results
//! reach the fold (and, retained, the report) in trial order.
//!
//! ## Why resume preserves determinism
//!
//! Each trial is a pure function of its index (the spec derives the seed
//! from the index), and the work-stealing workers tag every result with
//! that index. The final result set is therefore a *set keyed by index* —
//! independent of scheduling, thread count, and of which subset came from a
//! checkpoint versus live execution. Resume = set union; bit-identity with
//! an uninterrupted run follows, and `tests/sweep_resume.rs` property-tests
//! it across thread counts.

use crate::checkpoint::{CheckpointError, CheckpointLog};
use crate::codec::fnv1a64;
use crate::quarantine::QuarantineRecord;
use crate::supervisor::{supervise, SupervisorPolicy};
use distill_sim::{ResultFold, SimResult};
use std::collections::BTreeMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// A sweep's trial generator: a pure, thread-safe function from trial index
/// to result, plus the metadata that makes checkpoints and quarantine
/// records self-describing.
pub trait TrialSpec: Send + Sync + 'static {
    /// Runs trial `trial`. Must be deterministic in `trial` — retries and
    /// resume both rely on re-running an index yielding identical bytes.
    fn run_trial(&self, trial: u64) -> SimResult;

    /// The RNG seed trial `trial` runs with (recorded for replay).
    fn seed(&self, trial: u64) -> u64;

    /// Canonical config description; its FNV-1a hash is the checkpoint
    /// fingerprint, so two sweeps resume-compatible iff descriptions match.
    fn describe(&self) -> String;
}

/// The sweep fingerprint: FNV-1a over the spec's canonical description.
pub fn fingerprint_of(spec: &dyn TrialSpec) -> u64 {
    fnv1a64(spec.describe().as_bytes())
}

/// Sweep orchestration options.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Total trials (indices `0..trials`).
    pub trials: u64,
    /// Worker threads (clamped to `1..=trials`).
    pub threads: usize,
    /// Checkpoint log file; `None` disables checkpointing.
    pub checkpoint: Option<PathBuf>,
    /// Append the new results to the checkpoint log after every this many
    /// new completions (clamped to at least 1). A final frame is always
    /// appended when unsaved results exist, so the cadence only bounds
    /// *loss*, not completeness.
    pub checkpoint_every: u64,
    /// Load the checkpoint log (if the file exists), skip its trials, and
    /// append to it. A torn last frame — what a crash mid-append leaves —
    /// is cut off before the first append; any other damage, or a log from
    /// another sweep, is an error, not a silent restart, and leaves the
    /// file as it was. Without `resume`, any existing file is removed.
    pub resume: bool,
    /// Quarantine JSONL file for exhausted failures; `None` keeps records
    /// in the report only.
    pub quarantine: Option<PathBuf>,
    /// Per-trial supervision policy.
    pub policy: SupervisorPolicy,
    /// Test hook simulating a crash: stop the sweep after this many *new*
    /// completions — append the unsaved results, abandon the rest, and mark
    /// the report aborted. The fold and the report then stop at the first
    /// trial still missing. `None` runs to completion.
    pub stop_after: Option<u64>,
    /// Keep every completed [`SimResult`] in [`SweepReport::results`]
    /// (the historical behavior). Either way, each result reaches the
    /// [`ResultFold`] passed to [`run_sweep_with`] as soon as trial order
    /// allows; setting this to `false` (*streaming* mode) then drops it, so
    /// sweep memory is O(1) in the trial count. A streaming sweep
    /// checkpoints like a retained one: the log holds each result, encoded,
    /// only until its frame is appended. Resuming is the exception: it
    /// decodes the whole log at once, so it costs memory in proportion to
    /// the trials already in the log.
    pub retain_results: bool,
}

impl SweepConfig {
    /// A config that runs `trials` trials to completion on one thread with
    /// no checkpointing.
    pub fn new(trials: u64) -> Self {
        SweepConfig {
            trials,
            threads: 1,
            checkpoint: None,
            checkpoint_every: 8,
            resume: false,
            quarantine: None,
            policy: SupervisorPolicy::default(),
            stop_after: None,
            retain_results: true,
        }
    }
}

/// What a sweep produced.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Completed `(trial, result)` pairs, ascending by trial. Keyed by
    /// index, so the set is independent of scheduling and of resume. Empty
    /// in streaming mode ([`SweepConfig::retain_results`] = false), where
    /// results go to the fold instead.
    pub results: Vec<(u64, SimResult)>,
    /// Total completed trials (resumed + newly run). Equals
    /// `results.len()` when results are retained; in streaming mode this
    /// is the only completion count there is.
    pub completed: u64,
    /// Trials that exhausted their retry budget.
    pub quarantined: Vec<QuarantineRecord>,
    /// Trials skipped because the checkpoint already held them.
    pub resumed: u64,
    /// Checkpoint frames appended this run.
    pub checkpoints_written: u64,
    /// True when `stop_after` cut the sweep short.
    pub aborted: bool,
    /// The sweep's config fingerprint.
    pub fingerprint: u64,
}

/// Why a sweep could not run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SweepError {
    /// Checkpoint load/validate/write failed.
    Checkpoint(CheckpointError),
    /// Appending a quarantine record failed.
    Quarantine(String),
    /// `resume` was requested without a checkpoint path.
    ResumeWithoutCheckpoint,
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::Checkpoint(e) => write!(f, "{e}"),
            SweepError::Quarantine(msg) => write!(f, "quarantine append failed: {msg}"),
            SweepError::ResumeWithoutCheckpoint => {
                f.write_str("--resume requires a checkpoint path")
            }
        }
    }
}

impl std::error::Error for SweepError {}

impl From<CheckpointError> for SweepError {
    fn from(e: CheckpointError) -> Self {
        SweepError::Checkpoint(e)
    }
}

/// Runs the sweep described by `config` over `spec`.
///
/// Workers pull trial indices work-stealing style (a shared atomic cursor
/// over the pending list), run each trial, and settle it under the sweep's
/// one lock — checkpoints and quarantine appends never race.
///
/// # Errors
/// Checkpoint and quarantine I/O failures stop the sweep with a
/// [`SweepError`]; trial panics and timeouts do *not* — they quarantine.
pub fn run_sweep<S: TrialSpec>(
    spec: Arc<S>,
    config: &SweepConfig,
) -> Result<SweepReport, SweepError> {
    run_sweep_with(spec, config, None)
}

/// [`run_sweep`] with an optional streaming consumer.
///
/// `fold` sees every completed trial exactly once, in ascending trial
/// order, resumed trials included — so a fold over a resumed sweep equals a
/// fold over an uninterrupted one. Each result is folded, on the worker
/// that completes its turn, as soon as trial order allows, so the sweep
/// holds only the out-of-order reorder window besides the results it
/// retains. Quarantined trials are never folded (they have no result);
/// they simply close their gap in the trial order.
///
/// # Errors
/// As [`run_sweep`]. A panic in `fold` reaches the caller as that panic.
pub fn run_sweep_with<S: TrialSpec>(
    spec: Arc<S>,
    config: &SweepConfig,
    fold: Option<&mut (dyn ResultFold + Send)>,
) -> Result<SweepReport, SweepError> {
    let fingerprint = fingerprint_of(spec.as_ref());
    if config.resume && config.checkpoint.is_none() {
        return Err(SweepError::ResumeWithoutCheckpoint);
    }
    let (trials, every) = (config.trials, config.checkpoint_every);

    // Resume continues the log: a missing file is a fresh start, a torn
    // last frame (a crash mid-append) is cut off, and any other damage or a
    // log from another sweep is a hard error.
    let (log, resumed) = match &config.checkpoint {
        None => (None, Vec::new()),
        Some(path) if config.resume => {
            let (log, resumed) = CheckpointLog::resume(path, fingerprint, trials, every, |e| {
                Err(SweepError::from(e))
            })?;
            (Some(log), resumed)
        }
        Some(path) => (
            Some(CheckpointLog::create(path, fingerprint, trials, every)?),
            Vec::new(),
        ),
    };
    let mut sweep = Sweep {
        config,
        log,
        fold,
        report: SweepReport {
            results: Vec::new(),
            completed: 0,
            quarantined: Vec::new(),
            resumed: resumed.len() as u64,
            checkpoints_written: 0,
            aborted: false,
            fingerprint,
        },
        window: resumed
            .into_iter()
            .map(|(trial, result)| (trial, Some(result)))
            .collect(),
        next: 0,
        new_done: 0,
        error: None,
    };
    // Quarantined trials are deliberately absent from checkpoints, so a
    // resumed sweep retries them — a crash-then-resume gets a fresh retry
    // budget, which is the desired behavior for transient faults.
    let pending: Vec<u64> = (0..trials)
        .filter(|t| !sweep.window.contains_key(t))
        .collect();
    sweep.release();

    let sweep = Mutex::new(sweep);
    let cursor = AtomicUsize::new(0);
    let work = || {
        while let Some(&trial) = pending.get(cursor.fetch_add(1, Ordering::Relaxed)) {
            let outcome = run_supervised(&spec, &config.policy, fingerprint, trial);
            // A poisoned lock means a fold panicked on another worker, whose
            // join hands the panic on.
            let Ok(mut sweep) = sweep.lock() else { break };
            // A stopped sweep drops what its workers still finish.
            if !sweep.stopped() {
                sweep.error = sweep.settle(trial, outcome).err();
            }
            if sweep.stopped() {
                break;
            }
        }
    };
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..config.threads.max(1).min(pending.len()))
            .map(|_| scope.spawn(work))
            .collect();
        for worker in workers {
            if let Err(panic) = worker.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });

    // Only a fold's panic poisons the lock, and it was re-raised above.
    let mut sweep = sweep.into_inner().unwrap_or_else(PoisonError::into_inner);
    if let Some(e) = sweep.error {
        return Err(e);
    }
    if let Some(log) = &mut sweep.log {
        sweep.report.checkpoints_written += u64::from(log.append()?);
    }
    Ok(sweep.report)
}

/// Runs trial `trial` of `spec` (whose fingerprint is `fingerprint`) under
/// `policy`. A trial that exhausts its retries comes back as its quarantine
/// record, not yet attributed to a fabric worker or lease.
pub(crate) fn run_supervised<S: TrialSpec>(
    spec: &Arc<S>,
    policy: &SupervisorPolicy,
    fingerprint: u64,
    trial: u64,
) -> Result<SimResult, QuarantineRecord> {
    let spec_for_trial = Arc::clone(spec);
    let out = supervise(policy, move || spec_for_trial.run_trial(trial));
    out.result.map_err(|failure| QuarantineRecord {
        trial,
        seed: spec.seed(trial),
        fingerprint,
        config: spec.describe(),
        attempts: out.attempts,
        failure,
        worker_id: None,
        lease: None,
    })
}

/// What a sweep's workers share under its one lock.
struct Sweep<'c, 'f> {
    config: &'c SweepConfig,
    log: Option<CheckpointLog>,
    fold: Option<&'f mut (dyn ResultFold + Send)>,
    report: SweepReport,
    /// Trials waiting for an earlier one; a quarantined trial is `None`.
    window: BTreeMap<u64, Option<SimResult>>,
    /// The trial the release waits for.
    next: u64,
    /// Results settled by this run, resumed ones not counted.
    new_done: u64,
    /// The I/O error that stopped the sweep.
    error: Option<SweepError>,
}

impl Sweep<'_, '_> {
    /// Whether the sweep has stopped: at `stop_after`, or on an I/O error.
    fn stopped(&self) -> bool {
        self.report.aborted || self.error.is_some()
    }

    /// Settles one finished trial: pushes its result to the checkpoint log
    /// or appends its quarantine record (the append that fails is the
    /// error), parks it in the window, and releases every result whose turn
    /// has come.
    fn settle(
        &mut self,
        trial: u64,
        outcome: Result<SimResult, QuarantineRecord>,
    ) -> Result<(), SweepError> {
        let parked = match outcome {
            Ok(result) => {
                if let Some(log) = &mut self.log {
                    self.report.checkpoints_written += u64::from(log.push(trial, &result)?);
                }
                self.new_done += 1;
                Some(result)
            }
            Err(record) => {
                if let Some(path) = &self.config.quarantine {
                    record.append_to(path).map_err(SweepError::Quarantine)?;
                }
                self.report.quarantined.push(record);
                None
            }
        };
        self.window.insert(trial, parked);
        self.release();
        self.report.aborted = self.config.stop_after.is_some_and(|s| self.new_done >= s);
        Ok(())
    }

    /// Releases, in trial order, every parked result that no earlier trial
    /// is still missing for: the fold sees it, and a retaining sweep keeps
    /// it in the report.
    fn release(&mut self) {
        while let Some(entry) = self.window.first_entry().filter(|e| *e.key() == self.next) {
            if let Some(result) = entry.remove() {
                if let Some(fold) = &mut self.fold {
                    fold.fold(self.next, &result);
                }
                if self.config.retain_results {
                    self.report.results.push((self.next, result));
                }
                self.report.completed += 1;
            }
            self.next += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distill_core::RandomProbing;
    use distill_sim::{Engine, NullAdversary, SimConfig, StopRule, World};
    use std::path::Path;
    use std::sync::atomic::AtomicU64;
    use std::time::Duration;

    /// A real simulation spec: binary world, random-probing baseline.
    struct SimSpec {
        n: u32,
        honest: u32,
        m: u32,
        goods: u32,
        base_seed: u64,
        max_rounds: u64,
    }

    impl TrialSpec for SimSpec {
        fn run_trial(&self, trial: u64) -> SimResult {
            let world =
                World::binary(self.m, self.goods, self.base_seed ^ 0x5EED).expect("valid world");
            let config = SimConfig::new(self.n, self.honest, self.seed(trial))
                .with_stop(StopRule::all_satisfied(self.max_rounds));
            Engine::new(
                config,
                &world,
                Box::new(RandomProbing::new()),
                Box::new(NullAdversary),
            )
            .expect("valid engine")
            .run()
            .expect("engine run")
        }

        fn seed(&self, trial: u64) -> u64 {
            self.base_seed.wrapping_add(trial)
        }

        fn describe(&self) -> String {
            format!(
                "harness-test n={} honest={} m={} goods={} seed={} max_rounds={}",
                self.n, self.honest, self.m, self.goods, self.base_seed, self.max_rounds
            )
        }
    }

    /// A spec that panics on a chosen set of trials (every attempt).
    struct PanickySpec {
        inner: SimSpec,
        panic_on: Vec<u64>,
    }

    impl TrialSpec for PanickySpec {
        fn run_trial(&self, trial: u64) -> SimResult {
            assert!(
                !self.panic_on.contains(&trial),
                "injected panic at trial {trial}"
            );
            self.inner.run_trial(trial)
        }

        fn seed(&self, trial: u64) -> u64 {
            self.inner.seed(trial)
        }

        fn describe(&self) -> String {
            self.inner.describe()
        }
    }

    /// A spec that counts, across its workers, the attempts it started and
    /// the results that are finished but not yet folded (a fold takes them
    /// off), with the most of those there ever were. Trial `panic_on`
    /// panics on every attempt.
    struct CountingSpec {
        inner: SimSpec,
        panic_on: Option<u64>,
        started: AtomicU64,
        unfolded: AtomicU64,
        peak_unfolded: AtomicU64,
    }

    impl CountingSpec {
        fn new(panic_on: Option<u64>) -> Self {
            CountingSpec {
                inner: small_spec(),
                panic_on,
                started: AtomicU64::new(0),
                unfolded: AtomicU64::new(0),
                peak_unfolded: AtomicU64::new(0),
            }
        }
    }

    impl TrialSpec for CountingSpec {
        fn run_trial(&self, trial: u64) -> SimResult {
            self.started.fetch_add(1, Ordering::SeqCst);
            assert_ne!(Some(trial), self.panic_on, "injected panic");
            let result = self.inner.run_trial(trial);
            let unfolded = self.unfolded.fetch_add(1, Ordering::SeqCst) + 1;
            self.peak_unfolded.fetch_max(unfolded, Ordering::SeqCst);
            result
        }

        fn seed(&self, trial: u64) -> u64 {
            self.inner.seed(trial)
        }

        fn describe(&self) -> String {
            self.inner.describe()
        }
    }

    fn small_spec() -> SimSpec {
        SimSpec {
            n: 8,
            honest: 7,
            m: 20,
            goods: 5,
            base_seed: 0xA11CE,
            max_rounds: 40,
        }
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("distill-sweep-{}-{name}", std::process::id()))
    }

    fn quick_policy() -> SupervisorPolicy {
        SupervisorPolicy {
            max_retries: 1,
            backoff_base: Duration::from_millis(1),
            ..SupervisorPolicy::default()
        }
    }

    fn encode_results(results: &[(u64, SimResult)]) -> Vec<u8> {
        let mut w = crate::codec::Writer::new();
        for (t, r) in results {
            w.put_u64(*t);
            crate::checkpoint::encode_sim_result(&mut w, r);
        }
        w.into_bytes()
    }

    #[test]
    fn sweep_matches_plain_runner() {
        let spec = Arc::new(small_spec());
        let mut config = SweepConfig::new(6);
        config.policy = quick_policy();
        let report = run_sweep(Arc::clone(&spec), &config).unwrap();
        assert_eq!(report.results.len(), 6);
        assert!(report.quarantined.is_empty());
        assert!(!report.aborted);
        for (trial, result) in &report.results {
            let expected = spec.run_trial(*trial);
            // Bit-level comparison sidesteps NaN-unfriendly PartialEq.
            let mut a = crate::codec::Writer::new();
            crate::checkpoint::encode_sim_result(&mut a, result);
            let mut b = crate::codec::Writer::new();
            crate::checkpoint::encode_sim_result(&mut b, &expected);
            assert_eq!(a.into_bytes(), b.into_bytes(), "trial {trial}");
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let spec = Arc::new(small_spec());
        let mut config = SweepConfig::new(8);
        config.policy = quick_policy();
        let single = run_sweep(Arc::clone(&spec), &config).unwrap();
        // Zero threads run as one, and threads beyond the trial count idle.
        for threads in [0, 4, 8 + 3] {
            config.threads = threads;
            let multi = run_sweep(Arc::clone(&spec), &config).unwrap();
            assert_eq!(
                encode_results(&single.results),
                encode_results(&multi.results),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn panicking_trials_quarantine_and_rest_complete() {
        let quarantine = tmp("q.jsonl");
        std::fs::remove_file(&quarantine).ok();
        let spec = Arc::new(PanickySpec {
            inner: small_spec(),
            panic_on: vec![2, 5],
        });
        let mut config = SweepConfig::new(7);
        config.threads = 2;
        config.policy = quick_policy();
        config.quarantine = Some(quarantine.clone());
        let report = run_sweep(spec, &config).unwrap();
        assert_eq!(report.results.len(), 5);
        assert_eq!(report.quarantined.len(), 2);
        let mut bad: Vec<u64> = report.quarantined.iter().map(|q| q.trial).collect();
        bad.sort_unstable();
        assert_eq!(bad, vec![2, 5]);
        for q in &report.quarantined {
            assert_eq!(q.attempts, 2); // 1 + max_retries
            assert_eq!(q.seed, 0xA11CE + q.trial);
        }
        let text = std::fs::read_to_string(&quarantine).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("injected panic"));
        std::fs::remove_file(&quarantine).ok();
    }

    #[test]
    fn stop_after_then_resume_is_bit_identical() {
        let ckpt = tmp("resume.ckpt");
        std::fs::remove_file(&ckpt).ok();
        let spec = Arc::new(small_spec());

        let mut fresh_cfg = SweepConfig::new(10);
        fresh_cfg.policy = quick_policy();
        let fresh = run_sweep(Arc::clone(&spec), &fresh_cfg).unwrap();

        let mut first = SweepConfig::new(10);
        first.policy = quick_policy();
        first.checkpoint = Some(ckpt.clone());
        first.checkpoint_every = 2;
        first.stop_after = Some(4);
        let partial = run_sweep(Arc::clone(&spec), &first).unwrap();
        assert!(partial.aborted);
        assert!(partial.checkpoints_written >= 1);

        let mut second = first.clone();
        second.stop_after = None;
        second.resume = true;
        let resumed = run_sweep(Arc::clone(&spec), &second).unwrap();
        assert!(resumed.resumed >= 4);
        assert!(!resumed.aborted);
        assert_eq!(
            encode_results(&resumed.results),
            encode_results(&fresh.results)
        );
        std::fs::remove_file(&ckpt).ok();
    }

    #[test]
    fn resume_with_all_done_runs_nothing() {
        let ckpt = tmp("done.ckpt");
        std::fs::remove_file(&ckpt).ok();
        let spec = Arc::new(small_spec());
        let mut config = SweepConfig::new(4);
        config.policy = quick_policy();
        config.checkpoint = Some(ckpt.clone());
        let full = run_sweep(Arc::clone(&spec), &config).unwrap();
        config.resume = true;
        let again = run_sweep(Arc::clone(&spec), &config).unwrap();
        assert_eq!(again.resumed, 4);
        assert_eq!(
            encode_results(&again.results),
            encode_results(&full.results)
        );
        // Nothing new completed, so no extra checkpoint churn.
        assert_eq!(again.checkpoints_written, 0);
        std::fs::remove_file(&ckpt).ok();
    }

    #[test]
    fn resume_rejects_mismatched_config() {
        let ckpt = tmp("mismatch.ckpt");
        std::fs::remove_file(&ckpt).ok();
        let spec = Arc::new(small_spec());
        let mut config = SweepConfig::new(4);
        config.policy = quick_policy();
        config.checkpoint = Some(ckpt.clone());
        run_sweep(Arc::clone(&spec), &config).unwrap();

        let mut other_spec = small_spec();
        other_spec.base_seed = 999;
        let other = Arc::new(other_spec);
        config.resume = true;
        let err = run_sweep(other, &config).unwrap_err();
        assert!(matches!(
            err,
            SweepError::Checkpoint(CheckpointError::ConfigMismatch { .. })
        ));
        std::fs::remove_file(&ckpt).ok();
    }

    /// `resume` pointed at a file that is not this build's checkpoint (the
    /// lease queue, a checkpoint of a newer version), or at a log damaged in
    /// a way a crash mid-append cannot leave, fails and leaves the file's
    /// bytes unchanged.
    #[test]
    fn resume_refuses_foreign_or_corrupt_files_and_leaves_them_unchanged() {
        let ckpt = tmp("foreign.ckpt");
        let spec = Arc::new(small_spec());
        let mut config = SweepConfig::new(4);
        config.policy = quick_policy();
        config.checkpoint = Some(ckpt.clone());
        config.checkpoint_every = 1;
        let report = run_sweep(Arc::clone(&spec), &config).unwrap();
        let log = std::fs::read(&ckpt).unwrap();
        let queue = crate::lease::LeaseQueue::new(report.fingerprint, 4, 2, 3)
            .unwrap()
            .encode();
        let mut newer = log.clone();
        newer[8..12].copy_from_slice(&(crate::CHECKPOINT_VERSION + 1).to_le_bytes());
        let mut flipped = log.clone();
        *flipped.last_mut().unwrap() ^= 1;
        config.resume = true;
        for bytes in [queue, newer, flipped] {
            std::fs::write(&ckpt, &bytes).unwrap();
            let err = run_sweep(Arc::clone(&spec), &config).unwrap_err();
            assert!(matches!(err, SweepError::Checkpoint(_)), "{err:?}");
            assert_eq!(std::fs::read(&ckpt).unwrap(), bytes);
        }
        std::fs::remove_file(&ckpt).ok();
    }

    #[test]
    fn resume_without_checkpoint_path_is_an_error() {
        let spec = Arc::new(small_spec());
        let mut config = SweepConfig::new(2);
        config.resume = true;
        assert_eq!(
            run_sweep(spec, &config).unwrap_err(),
            SweepError::ResumeWithoutCheckpoint
        );
    }

    #[test]
    fn resume_from_missing_file_is_a_fresh_start() {
        let ckpt = tmp("missing.ckpt");
        std::fs::remove_file(&ckpt).ok();
        assert!(!Path::new(&ckpt).exists());
        let spec = Arc::new(small_spec());
        let mut config = SweepConfig::new(3);
        config.policy = quick_policy();
        config.checkpoint = Some(ckpt.clone());
        config.resume = true;
        let report = run_sweep(spec, &config).unwrap();
        assert_eq!(report.resumed, 0);
        assert_eq!(report.results.len(), 3);
        std::fs::remove_file(&ckpt).ok();
    }

    #[test]
    fn streaming_fold_matches_retained_results() {
        let spec = Arc::new(small_spec());
        let mut config = SweepConfig::new(8);
        config.policy = quick_policy();
        config.threads = 4;
        let retained = run_sweep(Arc::clone(&spec), &config).unwrap();
        assert_eq!(retained.completed, 8);

        config.retain_results = false;
        let mut seen: Vec<(u64, SimResult)> = Vec::new();
        let mut fold = |trial: u64, result: &SimResult| seen.push((trial, result.clone()));
        let streamed = run_sweep_with(Arc::clone(&spec), &config, Some(&mut fold)).unwrap();
        assert!(streamed.results.is_empty(), "streaming retains nothing");
        assert_eq!(streamed.completed, 8);
        // The fold saw the same set, in ascending order, bit-identically.
        assert_eq!(encode_results(&seen), encode_results(&retained.results));
    }

    #[test]
    fn streaming_fold_skips_quarantined_but_keeps_order() {
        let spec = Arc::new(PanickySpec {
            inner: small_spec(),
            panic_on: vec![0, 3],
        });
        let mut config = SweepConfig::new(6);
        config.threads = 3;
        config.policy = quick_policy();
        config.retain_results = false;
        let mut trials: Vec<u64> = Vec::new();
        let mut fold = |trial: u64, _: &SimResult| trials.push(trial);
        let report = run_sweep_with(spec, &config, Some(&mut fold)).unwrap();
        assert_eq!(trials, vec![1, 2, 4, 5]);
        assert_eq!(report.completed, 4);
        assert_eq!(report.quarantined.len(), 2);
    }

    /// A streaming sweep checkpoints like a retained one: stopped and then
    /// resumed, its fold sees the same trials, in the same order, with the
    /// same result bytes as an uninterrupted streaming sweep.
    #[test]
    fn streaming_sweep_stopped_and_resumed_folds_like_an_uninterrupted_one() {
        let ckpt = tmp("stream-resume.ckpt");
        std::fs::remove_file(&ckpt).ok();
        let spec = Arc::new(small_spec());
        let mut config = SweepConfig::new(10);
        config.policy = quick_policy();
        config.threads = 3;
        config.retain_results = false;
        let mut whole: Vec<(u64, SimResult)> = Vec::new();
        let mut fold = |trial: u64, result: &SimResult| whole.push((trial, result.clone()));
        run_sweep_with(Arc::clone(&spec), &config, Some(&mut fold)).unwrap();

        config.checkpoint = Some(ckpt.clone());
        config.checkpoint_every = 2;
        config.stop_after = Some(5);
        let partial = run_sweep_with(Arc::clone(&spec), &config, None).unwrap();
        assert!(partial.aborted);
        assert_eq!(partial.checkpoints_written, 3);

        config.stop_after = None;
        config.resume = true;
        let mut resumed: Vec<(u64, SimResult)> = Vec::new();
        let mut fold = |trial: u64, result: &SimResult| resumed.push((trial, result.clone()));
        let report = run_sweep_with(Arc::clone(&spec), &config, Some(&mut fold)).unwrap();
        assert_eq!(report.resumed, 5);
        assert_eq!(report.completed, 10);
        assert!(report.results.is_empty(), "streaming retains nothing");
        assert_eq!(encode_results(&resumed), encode_results(&whole));
        std::fs::remove_file(&ckpt).ok();
    }

    #[test]
    fn retained_fold_includes_resumed_trials() {
        let ckpt = tmp("fold-resume.ckpt");
        std::fs::remove_file(&ckpt).ok();
        let spec = Arc::new(small_spec());
        let mut first = SweepConfig::new(6);
        first.policy = quick_policy();
        first.checkpoint = Some(ckpt.clone());
        first.checkpoint_every = 1;
        first.stop_after = Some(3);
        run_sweep(Arc::clone(&spec), &first).unwrap();

        let mut second = first.clone();
        second.stop_after = None;
        second.resume = true;
        let mut trials: Vec<u64> = Vec::new();
        let mut fold = |trial: u64, _: &SimResult| trials.push(trial);
        let report = run_sweep_with(Arc::clone(&spec), &second, Some(&mut fold)).unwrap();
        // The fold saw all six trials exactly once, ascending — resumed
        // and freshly run alike.
        assert_eq!(trials, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(report.completed, 6);
        std::fs::remove_file(&ckpt).ok();
    }

    /// A worker settles and folds its own result before it starts another
    /// trial, so a one-worker sweep holds at most one finished result
    /// however slow its fold is.
    #[test]
    fn one_worker_holds_at_most_one_finished_result() {
        let spec = Arc::new(CountingSpec::new(None));
        let mut config = SweepConfig::new(64);
        config.policy = quick_policy();
        config.retain_results = false;
        let mut fold = |_: u64, _: &SimResult| {
            spec.unfolded.fetch_sub(1, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(2));
        };
        let report = run_sweep_with(Arc::clone(&spec), &config, Some(&mut fold)).unwrap();
        assert_eq!(report.completed, 64);
        assert_eq!(spec.peak_unfolded.load(Ordering::SeqCst), 1);
    }

    /// The fold runs on a worker; a panic in it stops the other workers
    /// and reaches the caller with the fold's own message.
    #[test]
    fn fold_panic_reaches_the_caller_with_its_message() {
        for threads in [1, 2] {
            let mut config = SweepConfig::new(8);
            config.threads = threads;
            config.policy = quick_policy();
            config.retain_results = false;
            let mut folded = Vec::new();
            let mut fold = |trial: u64, _: &SimResult| {
                assert_ne!(trial, 3, "the fold refuses trial 3");
                folded.push(trial);
            };
            #[expect(
                clippy::disallowed_methods,
                reason = "the test catches the fold's panic to read its message"
            )]
            let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_sweep_with(Arc::new(small_spec()), &config, Some(&mut fold))
            }))
            .unwrap_err();
            let message = panic.downcast_ref::<String>().expect("a formatted message");
            assert!(
                message.contains("the fold refuses trial 3"),
                "{threads} threads: {message}"
            );
            assert_eq!(folded, vec![0, 1, 2], "{threads} threads");
        }
    }

    /// A quarantine append that fails mid-sweep stops the workers: the
    /// sweep returns the error instead of running the trials left.
    #[test]
    fn failed_quarantine_append_stops_the_sweep() {
        let missing = tmp("missing-dir").join("q.jsonl");
        for threads in [1, 2] {
            let spec = Arc::new(CountingSpec::new(Some(2)));
            let mut config = SweepConfig::new(64);
            config.threads = threads;
            config.policy = quick_policy();
            config.quarantine = Some(missing.clone());
            let err = run_sweep(Arc::clone(&spec), &config).unwrap_err();
            assert!(
                matches!(&err, SweepError::Quarantine(msg) if msg.contains("missing-dir")),
                "{threads} threads: {err:?}"
            );
            if threads == 1 {
                // Trials 0 and 1, then trial 2's two attempts.
                assert_eq!(spec.started.load(Ordering::SeqCst), 4);
            }
        }
        assert!(!missing.exists());
    }

    #[test]
    fn fingerprint_tracks_description() {
        let a = Arc::new(small_spec());
        let mut spec_b = small_spec();
        spec_b.max_rounds = 41;
        let b = Arc::new(spec_b);
        assert_ne!(fingerprint_of(a.as_ref()), fingerprint_of(b.as_ref()));
        assert_eq!(fingerprint_of(a.as_ref()), {
            let a2 = Arc::new(small_spec());
            fingerprint_of(a2.as_ref())
        });
    }
}
