//! Kill-and-resume equivalence for the supervised sweep runner.
//!
//! The acceptance bar from the crash-safety design: a sweep stopped after k
//! of N trials and resumed from its checkpoint must produce a result set
//! bit-identical to an uninterrupted run, regardless of thread count on
//! either side of the interruption — also when the interruption tore the
//! checkpoint log's last frame — and quarantined trials must never take the
//! rest of the sweep down with them.

use distill::prelude::*;
use distill_harness::checkpoint::encode_sim_result;
use distill_harness::{
    run_sweep, Checkpoint, SupervisorPolicy, SweepConfig, TrialFailure, TrialSpec, Writer,
};
use proptest::prelude::*;
use std::borrow::Borrow;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A real simulation spec: binary world, DISTILL cohort, uniform-bad
/// adversary — the paper's standard configuration, shrunk for test speed.
struct DistillSpec {
    n: u32,
    honest: u32,
    m: u32,
    goods: u32,
    base_seed: u64,
}

impl TrialSpec for DistillSpec {
    fn run_trial(&self, trial: u64) -> SimResult {
        let world =
            World::binary(self.m, self.goods, self.base_seed ^ 0xB10B).expect("valid world");
        let alpha = f64::from(self.honest) / f64::from(self.n);
        let params = DistillParams::new(self.n, self.m, alpha, world.beta()).expect("valid params");
        let config = SimConfig::new(self.n, self.honest, self.seed(trial))
            .with_stop(StopRule::all_satisfied(50_000));
        Engine::new(
            config,
            &world,
            Box::new(Distill::new(params)),
            Box::new(UniformBad::new()),
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
            "resume-test n={} honest={} m={} goods={} seed={}",
            self.n, self.honest, self.m, self.goods, self.base_seed
        )
    }
}

fn spec(base_seed: u64) -> Arc<DistillSpec> {
    Arc::new(DistillSpec {
        n: 12,
        honest: 10,
        m: 24,
        goods: 3,
        base_seed,
    })
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("distill-resume-{}-{name}", std::process::id()))
}

fn quick_policy() -> SupervisorPolicy {
    SupervisorPolicy {
        max_retries: 1,
        backoff_base: Duration::from_millis(1),
        ..SupervisorPolicy::default()
    }
}

/// Byte-level digest of a full result set, owned or as a checkpoint
/// shares it: the bit-identity oracle.
fn digest<R: Borrow<SimResult>>(results: &[(u64, R)]) -> Vec<u8> {
    let mut w = Writer::new();
    for (t, r) in results {
        w.put_u64(*t);
        encode_sim_result(&mut w, r.borrow());
    }
    w.into_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Stop after k of N trials on one thread count, resume on another:
    /// the merged result set is bit-identical to a fresh uninterrupted run,
    /// for every pairing of thread counts from {1, 2, 8}.
    #[test]
    fn kill_and_resume_is_bit_identical_across_thread_counts(
        seed in 0u64..1_000,
        k in 1u64..7,
        first_threads_ix in 0usize..3,
        resume_threads_ix in 0usize..3,
    ) {
        const THREADS: [usize; 3] = [1, 2, 8];
        let trials = 8u64;
        let ckpt = tmp(&format!("prop-{seed}-{k}-{first_threads_ix}-{resume_threads_ix}.ckpt"));
        std::fs::remove_file(&ckpt).ok();

        let mut fresh_cfg = SweepConfig::new(trials);
        fresh_cfg.policy = quick_policy();
        fresh_cfg.threads = THREADS[resume_threads_ix];
        let fresh = run_sweep(spec(seed), &fresh_cfg).expect("fresh sweep");
        prop_assert_eq!(fresh.results.len() as u64, trials);

        // Phase 1: run with a checkpoint, stop after k new completions.
        let mut interrupted = SweepConfig::new(trials);
        interrupted.policy = quick_policy();
        interrupted.threads = THREADS[first_threads_ix];
        interrupted.checkpoint = Some(ckpt.clone());
        interrupted.checkpoint_every = 1;
        interrupted.stop_after = Some(k);
        let partial = run_sweep(spec(seed), &interrupted).expect("interrupted sweep");
        prop_assert!(partial.aborted);
        prop_assert!(partial.checkpoints_written >= 1);

        // Phase 2: resume on a possibly different thread count.
        let mut resumed_cfg = SweepConfig::new(trials);
        resumed_cfg.policy = quick_policy();
        resumed_cfg.threads = THREADS[resume_threads_ix];
        resumed_cfg.checkpoint = Some(ckpt.clone());
        resumed_cfg.resume = true;
        let resumed = run_sweep(spec(seed), &resumed_cfg).expect("resumed sweep");
        prop_assert!(resumed.resumed >= k);
        prop_assert_eq!(resumed.results.len() as u64, trials);
        prop_assert_eq!(digest(&resumed.results), digest(&fresh.results));

        std::fs::remove_file(&ckpt).ok();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// As above, but the interruption also tears the checkpoint log's last
    /// frame — what a kill -9 mid-append leaves. Resume keeps the intact
    /// frames, reruns the torn one's trial, and still matches a fresh run
    /// bit for bit, across thread counts.
    #[test]
    fn torn_last_frame_resumes_bit_identically_across_thread_counts(
        seed in 0u64..1_000,
        k in 1u64..7,
        first_threads_ix in 0usize..3,
        resume_threads_ix in 0usize..3,
        torn in 1u64..52,
    ) {
        const THREADS: [usize; 3] = [1, 2, 8];
        let trials = 8u64;
        let ckpt = tmp(&format!("torn-{seed}-{k}-{first_threads_ix}-{resume_threads_ix}.ckpt"));
        std::fs::remove_file(&ckpt).ok();

        let mut fresh_cfg = SweepConfig::new(trials);
        fresh_cfg.policy = quick_policy();
        fresh_cfg.threads = THREADS[resume_threads_ix];
        let fresh = run_sweep(spec(seed), &fresh_cfg).expect("fresh sweep");

        // One trial per frame, so the log holds k frames.
        let mut interrupted = SweepConfig::new(trials);
        interrupted.policy = quick_policy();
        interrupted.threads = THREADS[first_threads_ix];
        interrupted.checkpoint = Some(ckpt.clone());
        interrupted.checkpoint_every = 1;
        interrupted.stop_after = Some(k);
        let partial = run_sweep(spec(seed), &interrupted).expect("interrupted sweep");
        prop_assert_eq!(partial.checkpoints_written, k);

        // Every frame is longer than 52 bytes, so the cut stays inside the
        // last one.
        let len = std::fs::metadata(&ckpt).expect("log written").len();
        std::fs::File::options()
            .write(true)
            .open(&ckpt)
            .and_then(|f| f.set_len(len - torn))
            .expect("tear the last frame");
        prop_assert!(Checkpoint::load(&ckpt).is_err());

        let mut resumed_cfg = SweepConfig::new(trials);
        resumed_cfg.policy = quick_policy();
        resumed_cfg.threads = THREADS[resume_threads_ix];
        resumed_cfg.checkpoint = Some(ckpt.clone());
        resumed_cfg.resume = true;
        let resumed = run_sweep(spec(seed), &resumed_cfg).expect("resumed sweep");
        prop_assert_eq!(resumed.resumed, k - 1);
        prop_assert_eq!(digest(&resumed.results), digest(&fresh.results));
        // The resumed log was compacted, then appended to: it decodes
        // strictly to the full result set.
        let log = Checkpoint::load(&ckpt).expect("repaired log");
        prop_assert_eq!(digest(&log.completed), digest(&fresh.results));

        std::fs::remove_file(&ckpt).ok();
    }
}

/// A spec whose chosen trials panic deterministically on every attempt.
struct Poisoned {
    inner: DistillSpec,
    poison: Vec<u64>,
}

impl TrialSpec for Poisoned {
    fn run_trial(&self, trial: u64) -> SimResult {
        assert!(!self.poison.contains(&trial), "poisoned trial {trial}");
        self.inner.run_trial(trial)
    }
    fn seed(&self, trial: u64) -> u64 {
        self.inner.seed(trial)
    }
    fn describe(&self) -> String {
        format!("{} poison={:?}", self.inner.describe(), self.poison)
    }
}

#[test]
fn quarantined_trials_do_not_take_down_the_sweep() {
    let quarantine = tmp("quarantine.jsonl");
    std::fs::remove_file(&quarantine).ok();
    let base = spec(42);
    let poisoned = Arc::new(Poisoned {
        inner: DistillSpec {
            n: base.n,
            honest: base.honest,
            m: base.m,
            goods: base.goods,
            base_seed: base.base_seed,
        },
        poison: vec![1, 4],
    });
    let mut config = SweepConfig::new(6);
    config.threads = 2;
    config.policy = quick_policy();
    config.quarantine = Some(quarantine.clone());
    let report = run_sweep(poisoned, &config).expect("sweep itself must not fail");

    // The healthy trials all completed…
    let done: Vec<u64> = report.results.iter().map(|(t, _)| *t).collect();
    assert_eq!(done, vec![0, 2, 3, 5]);
    // …and the poisoned ones are quarantined with replayable records.
    assert_eq!(report.quarantined.len(), 2);
    for q in &report.quarantined {
        assert!(matches!(q.failure, TrialFailure::Panic(_)));
        assert_eq!(q.seed, 42 + q.trial, "seed must be replayable");
        assert!(
            q.config.contains("poison"),
            "config travels with the record"
        );
        assert_eq!(q.attempts, 2); // 1 + max_retries
    }
    let text = std::fs::read_to_string(&quarantine).expect("quarantine file exists");
    assert_eq!(text.lines().count(), 2);
    assert!(text.contains("poisoned trial"));
    std::fs::remove_file(&quarantine).ok();
}

/// A spec whose first attempt at one trial panics, then succeeds — the
/// supervisor's retry loop must converge to the same deterministic result.
struct FlakyOnce {
    inner: DistillSpec,
    flaky_trial: u64,
    attempts_seen: AtomicU64,
}

impl TrialSpec for FlakyOnce {
    fn run_trial(&self, trial: u64) -> SimResult {
        if trial == self.flaky_trial && self.attempts_seen.fetch_add(1, Ordering::SeqCst) == 0 {
            panic!("transient failure on first attempt");
        }
        self.inner.run_trial(trial)
    }
    fn seed(&self, trial: u64) -> u64 {
        self.inner.seed(trial)
    }
    fn describe(&self) -> String {
        self.inner.describe()
    }
}

#[test]
fn retried_trial_converges_to_the_deterministic_result() {
    let base = spec(77);
    let flaky = Arc::new(FlakyOnce {
        inner: DistillSpec {
            n: base.n,
            honest: base.honest,
            m: base.m,
            goods: base.goods,
            base_seed: base.base_seed,
        },
        flaky_trial: 2,
        attempts_seen: AtomicU64::new(0),
    });
    let mut config = SweepConfig::new(4);
    config.policy = quick_policy();
    let with_retry = run_sweep(flaky, &config).expect("sweep");
    assert!(
        with_retry.quarantined.is_empty(),
        "retry must absorb the panic"
    );

    let clean = run_sweep(spec(77), &config).expect("reference sweep");
    assert_eq!(digest(&with_retry.results), digest(&clean.results));
}

/// A spec that hangs forever on one trial: the watchdog must time it out
/// and quarantine it while the rest of the sweep completes.
struct Hanging {
    inner: DistillSpec,
    hang_trial: u64,
}

impl TrialSpec for Hanging {
    fn run_trial(&self, trial: u64) -> SimResult {
        if trial == self.hang_trial {
            // A deliberately hung trial for the watchdog test.
            std::thread::sleep(Duration::from_secs(3600));
        }
        self.inner.run_trial(trial)
    }
    fn seed(&self, trial: u64) -> u64 {
        self.inner.seed(trial)
    }
    fn describe(&self) -> String {
        format!("{} hang={}", self.inner.describe(), self.hang_trial)
    }
}

#[test]
fn watchdog_quarantines_hung_trials() {
    let base = spec(9);
    let hanging = Arc::new(Hanging {
        inner: DistillSpec {
            n: base.n,
            honest: base.honest,
            m: base.m,
            goods: base.goods,
            base_seed: base.base_seed,
        },
        hang_trial: 1,
    });
    let mut config = SweepConfig::new(3);
    config.policy = SupervisorPolicy {
        max_retries: 0,
        trial_timeout: Some(Duration::from_millis(50)),
        ..SupervisorPolicy::default()
    };
    let report = run_sweep(hanging, &config).expect("sweep");
    assert_eq!(report.results.len(), 2);
    assert_eq!(report.quarantined.len(), 1);
    assert_eq!(report.quarantined[0].trial, 1);
    assert!(matches!(
        report.quarantined[0].failure,
        TrialFailure::Timeout { .. }
    ));
}
