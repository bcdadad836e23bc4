//! Per-trial supervision: panic isolation, bounded deterministic retries
//! with exponential backoff, and a wall-clock watchdog for hung trials.
//!
//! Supervision inherently needs `catch_unwind` (rule D1 bans panic
//! machinery) and wall-clock time (rule D2 bans nondeterminism), so each of
//! those sites here carries an `#[expect(clippy::disallowed_…, reason)]`
//! and nothing else in the protected crates does — the simulation itself
//! stays panic-free and deterministic, and the *runner around it* absorbs
//! failures.
//!
//! Determinism note: retries re-run the same closure with the same trial
//! index, so a deterministic trial function yields the same `SimResult`
//! on every attempt; supervision changes *when* work happens, never *what*
//! the work computes.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;
#[expect(
    clippy::disallowed_types,
    reason = "the watchdog and retry backoff measure wall-clock time by design"
)]
use std::time::Instant;

/// How a supervised attempt failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrialFailure {
    /// The trial panicked; carries the rendered panic payload.
    Panic(String),
    /// The trial exceeded the watchdog timeout.
    Timeout {
        /// The configured limit that was exceeded.
        limit: Duration,
    },
}

impl fmt::Display for TrialFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrialFailure::Panic(msg) => write!(f, "panicked: {msg}"),
            TrialFailure::Timeout { limit } => {
                write!(f, "timed out after {:.3}s", limit.as_secs_f64())
            }
        }
    }
}

/// Retry/timeout policy for supervised trials.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupervisorPolicy {
    /// Retries after the first failed attempt (so a trial runs at most
    /// `max_retries + 1` times).
    pub max_retries: u32,
    /// Wall-clock limit per attempt; `None` disables the watchdog (the
    /// attempt runs inline on the calling thread).
    pub trial_timeout: Option<Duration>,
    /// Sleep before retry #n is `backoff_base * 2^(n-1)`, capped at
    /// [`SupervisorPolicy::backoff_cap`]. Deterministic — no jitter — so
    /// retry schedules are reproducible.
    pub backoff_base: Duration,
    /// Upper bound on a single backoff sleep.
    pub backoff_cap: Duration,
}

impl Default for SupervisorPolicy {
    fn default() -> Self {
        SupervisorPolicy {
            max_retries: 2,
            trial_timeout: None,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_secs(2),
        }
    }
}

impl SupervisorPolicy {
    /// The deterministic backoff before retry `n` (1-based): doubles each
    /// retry from [`SupervisorPolicy::backoff_base`], saturating at
    /// [`SupervisorPolicy::backoff_cap`].
    pub fn backoff_before_retry(&self, n: u32) -> Duration {
        if n == 0 {
            return Duration::ZERO;
        }
        let factor = 1u32 << (n - 1).min(16);
        self.backoff_base
            .saturating_mul(factor)
            .min(self.backoff_cap)
    }
}

/// Outcome of running one trial under supervision.
#[derive(Debug, Clone)]
pub struct Supervised<T> {
    /// The result, if any attempt succeeded.
    pub result: Result<T, TrialFailure>,
    /// Attempts actually made (1-based; `>= 1`).
    pub attempts: u32,
    /// Total wall-clock time across attempts and backoff sleeps.
    pub elapsed: Duration,
}

/// Runs one attempt with panic isolation; with a timeout, the attempt runs
/// on a dedicated thread so the watchdog can abandon it.
fn run_attempt<T, F>(f: &Arc<F>, timeout: Option<Duration>) -> Result<T, TrialFailure>
where
    F: Fn() -> T + Send + Sync + 'static,
    T: Send + 'static,
{
    match timeout {
        #[expect(
            clippy::disallowed_methods,
            reason = "supervision turns a trial's panic into a TrialFailure the sweep can retry or quarantine"
        )]
        None => catch_unwind(AssertUnwindSafe(|| f()))
            .map_err(|p| TrialFailure::Panic(render_panic(p.as_ref()))),
        Some(limit) => {
            let (tx, rx) = mpsc::channel::<Result<T, TrialFailure>>();
            let f = Arc::clone(f);
            // The watchdog cannot kill a Rust thread; on timeout the worker
            // is abandoned (detached) and its eventual send fails harmlessly
            // because the receiver is dropped. The builder-spawn error path
            // (resource exhaustion) is reported as a failure, not a panic.
            let spawned = std::thread::Builder::new()
                .name("distill-trial".into())
                .spawn(move || {
                    #[expect(
                        clippy::disallowed_methods,
                        reason = "the watchdog's trial thread reports a panic as a TrialFailure instead of dying with it"
                    )]
                    let out = catch_unwind(AssertUnwindSafe(|| f()))
                        .map_err(|p| TrialFailure::Panic(render_panic(p.as_ref())));
                    let _ = tx.send(out);
                });
            match spawned {
                Err(e) => Err(TrialFailure::Panic(format!(
                    "failed to spawn trial thread: {e}"
                ))),
                Ok(handle) => match rx.recv_timeout(limit) {
                    Ok(out) => {
                        // Worker finished; join is immediate and its panic
                        // (if any) was already captured by catch_unwind.
                        let _ = handle.join();
                        out
                    }
                    Err(_) => Err(TrialFailure::Timeout { limit }),
                },
            }
        }
    }
}

/// Renders a panic payload the way the default hook would.
fn render_panic(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Runs `f` under full supervision: panic isolation, up to
/// `policy.max_retries` deterministic retries with exponential backoff, and
/// (if configured) a per-attempt watchdog timeout.
///
/// `f` must be `'static` because a timed-out attempt's thread outlives this
/// call; wrap borrowed state in `Arc` at the call site.
pub fn supervise<T, F>(policy: &SupervisorPolicy, f: F) -> Supervised<T>
where
    F: Fn() -> T + Send + Sync + 'static,
    T: Send + 'static,
{
    let f = Arc::new(f);
    #[expect(
        clippy::disallowed_types,
        reason = "Supervised::elapsed reports wall-clock time across attempts and backoff sleeps"
    )]
    let start = Instant::now();
    let mut attempts = 0u32;
    loop {
        if attempts > 0 {
            std::thread::sleep(policy.backoff_before_retry(attempts));
        }
        attempts += 1;
        match run_attempt(&f, policy.trial_timeout) {
            Ok(v) => {
                return Supervised {
                    result: Ok(v),
                    attempts,
                    elapsed: start.elapsed(),
                }
            }
            Err(failure) => {
                if attempts > policy.max_retries {
                    return Supervised {
                        result: Err(failure),
                        attempts,
                        elapsed: start.elapsed(),
                    };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn success_passes_through() {
        let out = supervise(&SupervisorPolicy::default(), || 41 + 1);
        assert_eq!(out.result, Ok(42));
        assert_eq!(out.attempts, 1);
    }

    #[test]
    fn panic_is_captured_with_message() {
        let policy = SupervisorPolicy {
            max_retries: 0,
            ..SupervisorPolicy::default()
        };
        let out: Supervised<()> = supervise(&policy, || panic!("boom at seed 7"));
        assert_eq!(out.attempts, 1);
        assert_eq!(
            out.result,
            Err(TrialFailure::Panic("boom at seed 7".into()))
        );
    }

    #[test]
    fn flaky_trial_recovers_within_retry_budget() {
        let calls = Arc::new(AtomicU32::new(0));
        let calls2 = Arc::clone(&calls);
        let policy = SupervisorPolicy {
            max_retries: 3,
            backoff_base: Duration::from_millis(1),
            ..SupervisorPolicy::default()
        };
        let out = supervise(&policy, move || {
            if calls2.fetch_add(1, Ordering::SeqCst) < 2 {
                panic!("transient");
            }
            7u32
        });
        assert_eq!(out.result, Ok(7));
        assert_eq!(out.attempts, 3);
        assert_eq!(calls.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn retries_are_bounded() {
        let calls = Arc::new(AtomicU32::new(0));
        let calls2 = Arc::clone(&calls);
        let policy = SupervisorPolicy {
            max_retries: 2,
            backoff_base: Duration::from_millis(1),
            ..SupervisorPolicy::default()
        };
        let out: Supervised<()> = supervise(&policy, move || {
            calls2.fetch_add(1, Ordering::SeqCst);
            panic!("always");
        });
        assert!(matches!(out.result, Err(TrialFailure::Panic(_))));
        assert_eq!(out.attempts, 3); // 1 initial + 2 retries
        assert_eq!(calls.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn watchdog_times_out_hung_trial() {
        let policy = SupervisorPolicy {
            max_retries: 0,
            trial_timeout: Some(Duration::from_millis(30)),
            ..SupervisorPolicy::default()
        };
        let out: Supervised<u32> = supervise(&policy, || {
            std::thread::sleep(Duration::from_secs(60));
            1
        });
        assert!(matches!(out.result, Err(TrialFailure::Timeout { .. })));
    }

    #[test]
    fn watchdog_passes_fast_trials() {
        let policy = SupervisorPolicy {
            max_retries: 0,
            trial_timeout: Some(Duration::from_secs(30)),
            ..SupervisorPolicy::default()
        };
        let out = supervise(&policy, || 5u8);
        assert_eq!(out.result, Ok(5));
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let policy = SupervisorPolicy {
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(35),
            ..SupervisorPolicy::default()
        };
        assert_eq!(policy.backoff_before_retry(0), Duration::ZERO);
        assert_eq!(policy.backoff_before_retry(1), Duration::from_millis(10));
        assert_eq!(policy.backoff_before_retry(2), Duration::from_millis(20));
        assert_eq!(policy.backoff_before_retry(3), Duration::from_millis(35));
        assert_eq!(policy.backoff_before_retry(20), Duration::from_millis(35));
    }

    #[test]
    fn failures_render() {
        assert!(TrialFailure::Panic("x".into()).to_string().contains('x'));
        assert!(TrialFailure::Timeout {
            limit: Duration::from_secs(1)
        }
        .to_string()
        .contains("1.000"));
    }
}
