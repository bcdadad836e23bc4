//! `sweep`, `sweep-worker` and `sweep-supervise`.

use super::spec::{ensure_spec_flags, parse_sweep_spec, SPEC_FLAGS};
use super::{err, num_threads, summary_or_blank, CliError};
use crate::args::Args;
use distill_analysis::{fmt_f, StreamingSummary, Table};
use distill_harness::{QuarantineRecord, SupervisorPolicy, SweepConfig, WorkerConfig};
use distill_sim::SimResult;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Rank-error target for `sweep`'s quantile sketch: every reported
/// percentile is within 0.5% of the trial count of the exact rank
/// (documented in EXPERIMENTS.md P5).
const STREAM_EPSILON: f64 = 0.005;

/// `sweep`'s flags beyond [`SPEC_FLAGS`]: the crash-safety surface.
pub(super) const SWEEP_FLAGS: &[&str] = &[
    "checkpoint",
    "checkpoint-every",
    "trial-timeout",
    "max-retries",
    "quarantine",
    "threads",
    "out",
    "inject-panic",
    "resume",
];

/// The flags beyond [`SPEC_FLAGS`] that both fabric commands take.
/// `sweep-supervise` forwards them, with the spec, to every worker
/// ([`worker_argv`]).
pub(super) const FORWARDED_FLAGS: &[&str] = &[
    "inject-panic",
    "queue",
    "chunk",
    "lease-ttl",
    "max-claims",
    "max-retries",
    "trial-timeout",
    "checkpoint-every",
    // test/CI hooks (mirror --inject-panic)
    "stop-after-chunks",
    "fail-after-trials",
];

/// `sweep-worker`'s own flags beyond [`FORWARDED_FLAGS`].
pub(super) const SWEEP_WORKER_FLAGS: &[&str] = &["worker-id", "quarantine", "poll-ms"];

/// `sweep-supervise`'s own flags beyond [`FORWARDED_FLAGS`]: the fleet
/// surface, which workers never see.
pub(super) const SWEEP_SUPERVISE_FLAGS: &[&str] =
    &["workers", "max-restarts", "poll-ms", "out", "merged"];

/// One line of the `--out` digest file: the FNV-1a hash of the trial's
/// encoded `SimResult`, so CI can diff a resumed or fabric sweep against an
/// uninterrupted reference byte-for-byte.
fn digest_line(trial: u64, result: &SimResult) -> String {
    let mut w = distill_harness::Writer::new();
    distill_harness::checkpoint::encode_sim_result(&mut w, result);
    let digest = distill_harness::fnv1a64(&w.into_bytes());
    format!("trial {trial} {digest:016x}\n")
}

/// `--quarantine`, or else `<base><suffix>` when there is a `base` path.
fn quarantine_path(args: &Args, base: Option<&Path>, suffix: &str) -> Option<PathBuf> {
    args.flags.get("quarantine").map(PathBuf::from).or_else(|| {
        base.map(|p| {
            let mut q = p.as_os_str().to_owned();
            q.push(suffix);
            PathBuf::from(q)
        })
    })
}

/// The lines `sweep` and `sweep-worker` print after their table, one per
/// quarantined trial.
fn quarantine_lines(records: &[QuarantineRecord]) -> String {
    records
        .iter()
        .map(|q| {
            format!(
                "\nquarantined trial {} (seed {}): {} after {} attempt(s)",
                q.trial, q.seed, q.failure, q.attempts
            )
        })
        .collect()
}

/// `distill sweep` — the crash-safe supervised variant of `run`:
/// checkpoint/resume, per-trial panic isolation with quarantine, retries,
/// and watchdog timeouts. Results stream: each one is folded into
/// O(1)-memory aggregates (and, with `--out`, its digest line) in trial
/// order, then dropped.
pub fn sweep(args: &Args) -> Result<String, CliError> {
    ensure_spec_flags(args, SWEEP_FLAGS)?;
    let (spec, trials) = parse_sweep_spec(args)?;
    let alpha = f64::from(spec.honest) / f64::from(spec.n);
    let title = format!(
        "sweep: {} vs {} — n={} m={} honest={} (alpha={alpha:.3}) goods={} f={} trials={trials}",
        spec.algorithm, spec.adversary.name, spec.n, spec.m, spec.honest, spec.goods, spec.f
    );

    let checkpoint = args.flags.get("checkpoint").map(PathBuf::from);
    let resume = args.has("resume");
    if resume && checkpoint.is_none() {
        return Err(err("--resume requires --checkpoint <path>"));
    }
    let policy = parse_supervisor_policy(args)?;
    let quarantine = quarantine_path(args, checkpoint.as_deref(), ".quarantine.jsonl");
    let out_path = args.flags.get("out").map(PathBuf::from);
    let config = SweepConfig {
        trials,
        threads: args.get_or("threads", num_threads())?,
        checkpoint,
        checkpoint_every: args.get_or("checkpoint-every", 8)?,
        resume,
        quarantine: quarantine.clone(),
        policy,
        stop_after: None,
        retain_results: false,
    };
    // The fold sees each completed trial once, in ascending order, resumed
    // trials included and quarantined ones never: Welford moments, a GK
    // quantile sketch at rank error STREAM_EPSILON, and the digest lines.
    let mut streamed = StreamingSummary::new(STREAM_EPSILON);
    let mut satisfied = 0u64;
    let mut digests = out_path.as_ref().map(|_| String::new());
    let mut fold = |trial: u64, r: &SimResult| {
        streamed.push(r.mean_probes());
        satisfied += u64::from(r.all_satisfied);
        if let Some(text) = &mut digests {
            text.push_str(&digest_line(trial, r));
        }
    };
    let report = distill_harness::run_sweep_with(Arc::new(spec), &config, Some(&mut fold))
        .map_err(|e| err(e.to_string()))?;
    if let Some((path, text)) = out_path.zip(digests) {
        std::fs::write(&path, text).map_err(|e| err(format!("--out {}: {e}", path.display())))?;
    }

    let mut table = Table::new(title, &["metric", "value"]);
    table.row_owned(vec![
        "completed".into(),
        format!("{}/{trials}", report.completed),
    ]);
    table.row_owned(vec![
        "resumed from checkpoint".into(),
        report.resumed.to_string(),
    ]);
    table.row_owned(vec![
        "checkpoints written".into(),
        report.checkpoints_written.to_string(),
    ]);
    table.row_owned(vec![
        "quarantined".into(),
        report.quarantined.len().to_string(),
    ]);
    let m = streamed.moments();
    let p = |q: f64| fmt_f(streamed.quantile(q).unwrap_or(f64::NAN));
    table.row_owned(vec![
        "mean individual cost".into(),
        fmt_f(m.mean().unwrap_or(f64::NAN)),
    ]);
    table.row_owned(vec![
        "cost std dev".into(),
        fmt_f(m.std_dev().unwrap_or(f64::NAN)),
    ]);
    table.row_owned(vec![
        "cost min / max".into(),
        format!(
            "{} / {}",
            fmt_f(m.min().unwrap_or(f64::NAN)),
            fmt_f(m.max().unwrap_or(f64::NAN))
        ),
    ]);
    table.row_owned(vec![
        format!("cost p50/p90/p99 (rank err <= {STREAM_EPSILON}n)"),
        format!("{} / {} / {}", p(0.5), p(0.9), p(0.99)),
    ]);
    table.row_owned(vec![
        "sketch tuples held".into(),
        streamed.sketch().entries_len().to_string(),
    ]);
    table.row_owned(vec![
        "trials fully satisfied".into(),
        format!("{satisfied}/{}", report.completed),
    ]);
    let mut output = table.render();
    output.push_str(&quarantine_lines(&report.quarantined));
    if !report.quarantined.is_empty() {
        if let Some(qpath) = &quarantine {
            output.push_str(&format!("\nreplay records: {}", qpath.display()));
        }
        return Err(CliError::Quarantined {
            output,
            count: report.quarantined.len(),
        });
    }
    Ok(output)
}

/// `--max-retries` and `--trial-timeout`, the supervision flags of `sweep`
/// and both fabric commands.
fn parse_supervisor_policy(args: &Args) -> Result<SupervisorPolicy, CliError> {
    let timeout_secs: f64 = args.get_or("trial-timeout", 0.0)?;
    let timeout = Duration::try_from_secs_f64(timeout_secs)
        .map_err(|_| err("--trial-timeout must be a finite number of seconds >= 0"))?;
    Ok(SupervisorPolicy {
        max_retries: args.get_or("max-retries", 2)?,
        trial_timeout: (timeout_secs > 0.0).then_some(timeout),
        ..SupervisorPolicy::default()
    })
}

/// The fabric flags, parsed and validated into the configuration a
/// `sweep-worker` runs with; `sweep-supervise` parses them the same way
/// before it spawns any worker.
fn parse_worker_config(args: &Args, trials: u64) -> Result<WorkerConfig, CliError> {
    let queue = args
        .flags
        .get("queue")
        .map(PathBuf::from)
        .ok_or_else(|| err(format!("{}: needs --queue <path>", args.command)))?;
    let worker_id: u64 = args.get_or("worker-id", 0)?;
    let chunk_size: u64 = args.get_or("chunk", 16)?;
    if chunk_size == 0 {
        return Err(err("--chunk must be at least 1 trial"));
    }
    let max_claims: u32 = args.get_or("max-claims", 2)?;
    if max_claims == 0 {
        return Err(err("--max-claims must be at least 1"));
    }
    let lease_ttl_secs: f64 = args.get_or("lease-ttl", 30.0)?;
    let lease_ttl = Duration::try_from_secs_f64(lease_ttl_secs)
        .ok()
        .filter(|_| lease_ttl_secs > 0.0)
        .ok_or_else(|| err("--lease-ttl must be a finite number of seconds > 0"))?;
    // Per-worker quarantine file by default: concurrent processes never
    // interleave writes into one JSONL.
    let quarantine = quarantine_path(
        args,
        Some(&queue),
        &format!(".worker{worker_id}.quarantine.jsonl"),
    );
    Ok(WorkerConfig {
        chunk_size,
        max_claims,
        lease_ttl_ms: u64::try_from(lease_ttl.as_millis().max(1)).unwrap_or(u64::MAX),
        checkpoint_every: args.get_or("checkpoint-every", 8)?,
        policy: parse_supervisor_policy(args)?,
        quarantine,
        poll: Duration::from_millis(args.get_or("poll-ms", 50)?),
        // Test/CI hooks mirroring sweep's --inject-panic: stop early or
        // "crash" (exit without completing the leased chunk).
        stop_after_chunks: args.get_opt("stop-after-chunks")?,
        fail_after_trials: args.get_opt("fail-after-trials")?,
        ..WorkerConfig::new(queue, worker_id, trials)
    })
}

/// `distill sweep-worker` — one fabric worker process: claims chunked trial
/// ranges from the shared on-disk lease queue under a heartbeat-renewed
/// lease, runs them supervised, and checkpoints its own results. Safe to
/// run any number of these concurrently on the same `--queue`; kill -9 at
/// any point never loses or double-counts a trial (an expired lease is
/// reclaimed and re-run, and the set-union merge deduplicates bit-exact
/// duplicates).
pub fn sweep_worker(args: &Args) -> Result<String, CliError> {
    ensure_spec_flags(args, &[FORWARDED_FLAGS, SWEEP_WORKER_FLAGS].concat())?;
    let (spec, trials) = parse_sweep_spec(args)?;
    let config = parse_worker_config(args, trials)?;
    let report =
        distill_harness::run_worker(Arc::new(spec), &config).map_err(|e| err(e.to_string()))?;
    let mut table = Table::new(
        format!(
            "sweep-worker {} — queue {} ({} trials, chunk {})",
            report.worker_id,
            config.queue.display(),
            trials,
            config.chunk_size
        ),
        &["metric", "value"],
    );
    table.row_owned(vec![
        "chunks claimed / completed / released".into(),
        format!(
            "{} / {} / {}",
            report.chunks_claimed, report.chunks_completed, report.chunks_released
        ),
    ]);
    table.row_owned(vec![
        "trials run / skipped".into(),
        format!("{} / {}", report.trials_run, report.trials_skipped),
    ]);
    table.row_owned(vec!["leases lost".into(), report.leases_lost.to_string()]);
    table.row_owned(vec![
        "quarantined".into(),
        report.quarantined.len().to_string(),
    ]);
    table.row_owned(vec![
        "queue rebuilt".into(),
        report.queue_rebuilt.to_string(),
    ]);
    table.row_owned(vec![
        "own checkpoint rebuilt".into(),
        report.checkpoint_rebuilt.to_string(),
    ]);
    table.row_owned(vec!["queue fully done".into(), report.finished.to_string()]);
    let mut output = table.render();
    output.push_str(&quarantine_lines(&report.quarantined));
    // Quarantined trials are NOT an error exit here: the cross-process
    // claim budget decides chunk fate, and the supervisor's merge reports
    // the sweep-level verdict. A worker that ran at all did its job.
    Ok(output)
}

/// `distill sweep-supervise` — the `loopr`-style dumb supervisor: spawn
/// `--workers` `sweep-worker` processes on one `--queue`, restart dead ones
/// (up to `--max-restarts`), and when the queue says every chunk is done,
/// merge the per-worker checkpoints by set-union into the final result set.
/// All state lives in files: kill -9 this supervisor (or any worker) and a
/// fresh invocation resumes exactly where the fabric left off.
pub fn sweep_supervise(args: &Args) -> Result<String, CliError> {
    ensure_spec_flags(args, &[FORWARDED_FLAGS, SWEEP_SUPERVISE_FLAGS].concat())?;
    // Every flag a worker will parse is validated here first, by the same
    // functions, before any worker is spawned.
    let (_, trials) = parse_sweep_spec(args)?;
    let WorkerConfig { queue, poll, .. } = parse_worker_config(args, trials)?;
    let workers: u64 = args.get_or("workers", 3)?;
    if workers == 0 {
        return Err(err("--workers must be at least 1"));
    }
    let max_restarts: u64 = args.get_or("max-restarts", 16)?;
    let out_path = args.flags.get("out").map(PathBuf::from);
    let merged_path = args.flags.get("merged").map(PathBuf::from);
    let worker_argv = worker_argv(args);

    let exe = std::env::current_exe().map_err(|e| {
        err(format!(
            "cannot locate the distill binary to spawn workers: {e}"
        ))
    })?;
    let fleet = distill_harness::FleetConfig {
        workers,
        max_restarts,
        poll,
    };
    let fleet_report = distill_harness::supervise_workers(
        &fleet,
        |slot| {
            std::process::Command::new(&exe)
                .args(&worker_argv)
                .arg("--worker-id")
                .arg(slot.to_string())
                .stdout(std::process::Stdio::null())
                .spawn()
        },
        // Lock-free done probe: the queue file is atomically renamed into
        // place, so a plain read sees a consistent snapshot; any error
        // (missing, mid-rebuild) just means "not done yet". Read + decode
        // rather than `LeaseQueue::load`: load sweeps `.tmp` siblings, and
        // an unlocked sweeper would delete a live worker's scratch file
        // out from under its rename.
        || {
            std::fs::read(&queue)
                .ok()
                .and_then(|bytes| distill_harness::LeaseQueue::decode(&bytes).ok())
                .map(|q| q.all_done())
                .unwrap_or(false)
        },
    )
    .map_err(|e| err(e.to_string()))?;

    // Set-union merge of every worker checkpoint of the queue, whichever
    // fleet or lone `sweep-worker` wrote it: the queue marks their chunks
    // done. Racing or duplicated workers are fine: duplicated trials must
    // be bit-identical (determinism), and `merge_checkpoints` hard-errors
    // if they are not. A worker killed mid-append, and not restarted
    // since, leaves a torn last frame; it holds no trial of a chunk marked
    // done, so the merge drops it. Any other damage is an error.
    let logs = distill_harness::worker_checkpoint_paths(&queue).map_err(|e| {
        err(format!(
            "listing the worker checkpoints of {}: {e}",
            queue.display()
        ))
    })?;
    let mut parts = Vec::new();
    for (id, path) in logs {
        let part = distill_harness::Checkpoint::load_after_crash(&path)
            .map_err(|e| err(format!("worker {id} checkpoint: {e}")))?;
        parts.extend(part);
    }
    if parts.is_empty() {
        return Err(err(
            "sweep-supervise: no worker checkpoints were written (did every spawn fail?)",
        ));
    }
    let merged = distill_harness::merge_checkpoints(&parts).map_err(|e| err(e.to_string()))?;

    if let Some(path) = &out_path {
        let text: String = merged
            .completed
            .iter()
            .map(|(trial, r)| digest_line(*trial, r))
            .collect();
        std::fs::write(path, text).map_err(|e| err(format!("--out {}: {e}", path.display())))?;
    }
    if let Some(path) = &merged_path {
        merged
            .write_atomic(path)
            .map_err(|e| err(format!("--merged {}: {e}", path.display())))?;
    }

    let completed = merged.completed.len();
    let costs: Vec<f64> = merged
        .completed
        .iter()
        .map(|(_, r)| r.mean_probes())
        .collect();
    let mut table = Table::new(
        format!(
            "sweep-supervise — queue {} ({workers} workers, {trials} trials)",
            queue.display()
        ),
        &["metric", "value"],
    );
    table.row_owned(vec![
        "completed (merged)".into(),
        format!("{completed}/{trials}"),
    ]);
    table.row_owned(vec![
        "worker restarts".into(),
        fleet_report.restarts.to_string(),
    ]);
    table.row_owned(vec![
        "queue fully done".into(),
        fleet_report.done.to_string(),
    ]);
    table.row_owned(vec![
        "worker checkpoints merged".into(),
        parts.len().to_string(),
    ]);
    table.row_owned(vec![
        "mean individual cost".into(),
        fmt_f(summary_or_blank(&costs).mean),
    ]);
    let output = table.render();
    let missing = usize::try_from(trials)
        .unwrap_or(usize::MAX)
        .saturating_sub(completed);
    if missing > 0 || !fleet_report.done {
        // Same exit-3 semantics as `sweep`: the fabric finished what it
        // could, but trials are missing (quarantined chunks, or the restart
        // budget ran out before the queue drained).
        return Err(CliError::Quarantined {
            output,
            count: missing,
        });
    }
    Ok(output)
}

/// The `sweep-worker` command line of `sweep-supervise`'s workers: each
/// spec or forwarded flag the supervisor was given, verbatim. A worker
/// parses them with the supervisor's own functions, so the two agree on
/// the spec and its fingerprint by construction. Each spawn appends its
/// `--worker-id`.
fn worker_argv(args: &Args) -> Vec<String> {
    let mut argv = vec!["sweep-worker".to_string()];
    for (flag, value) in &args.flags {
        if SPEC_FLAGS.contains(&flag.as_str()) || FORWARDED_FLAGS.contains(&flag.as_str()) {
            argv.push(format!("--{flag}"));
            argv.push(value.clone());
        }
    }
    argv
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::dispatch;
    use crate::commands::tests::parse;
    use distill_harness::TrialSpec;

    fn sweep_tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("distill-cli-sweep-{}-{name}", std::process::id()))
    }

    fn parse_with_switches(line: &[&str]) -> Args {
        Args::parse(line.iter().copied(), &["resume"]).unwrap()
    }

    #[test]
    fn sweep_small_simulation() {
        let out = dispatch(&parse(&[
            "sweep", "--n", "16", "--m", "16", "--honest", "14", "--trials", "3", "--seed", "5",
        ]))
        .unwrap();
        assert!(out.contains("completed"));
        assert!(out.contains("3/3"));
        assert!(out.contains("quarantined"));
    }

    #[test]
    fn sweep_checkpoint_resume_digests_match() {
        let ckpt = sweep_tmp("resume.ckpt");
        let out_a = sweep_tmp("a.txt");
        let out_b = sweep_tmp("b.txt");
        for p in [&ckpt, &out_a, &out_b] {
            std::fs::remove_file(p).ok();
        }
        let base = [
            "sweep", "--n", "16", "--honest", "14", "--trials", "4", "--seed", "9",
        ];
        // Uninterrupted reference.
        let mut args_a: Vec<String> = base.iter().map(|s| s.to_string()).collect();
        args_a.extend(["--out".into(), out_a.display().to_string()]);
        dispatch(&Args::parse(args_a, &["resume"]).unwrap()).unwrap();
        // Checkpointed run, then a redundant resume; digests must match.
        let mut args_b: Vec<String> = base.iter().map(|s| s.to_string()).collect();
        args_b.extend([
            "--checkpoint".into(),
            ckpt.display().to_string(),
            "--checkpoint-every".into(),
            "1".into(),
        ]);
        dispatch(&Args::parse(args_b.clone(), &["resume"]).unwrap()).unwrap();
        args_b.extend([
            "--resume".into(),
            "--out".into(),
            out_b.display().to_string(),
        ]);
        let out = dispatch(&Args::parse(args_b, &["resume"]).unwrap()).unwrap();
        assert!(out.contains("resumed from checkpoint"));
        let a = std::fs::read_to_string(&out_a).unwrap();
        let b = std::fs::read_to_string(&out_b).unwrap();
        assert!(!a.is_empty());
        assert_eq!(a, b, "resumed sweep must reproduce the reference digests");
        for p in [&ckpt, &out_a, &out_b] {
            std::fs::remove_file(p).ok();
        }
        let mut q = ckpt.as_os_str().to_owned();
        q.push(".quarantine.jsonl");
        std::fs::remove_file(std::path::PathBuf::from(q)).ok();
    }

    #[test]
    fn sweep_inject_panic_quarantines() {
        let quarantine = sweep_tmp("q.jsonl");
        std::fs::remove_file(&quarantine).ok();
        let err = dispatch(&parse(&[
            "sweep",
            "--n",
            "16",
            "--honest",
            "14",
            "--trials",
            "3",
            "--inject-panic",
            "1",
            "--max-retries",
            "0",
            "--quarantine",
            quarantine.to_str().unwrap(),
        ]))
        .unwrap_err();
        match err {
            CliError::Quarantined { output, count } => {
                assert_eq!(count, 1);
                assert!(output.contains("2/3"));
                assert!(output.contains("quarantined trial 1"));
            }
            other => panic!("expected Quarantined, got {other:?}"),
        }
        let text = std::fs::read_to_string(&quarantine).unwrap();
        assert!(text.contains("\"trial\":1"));
        assert!(text.contains("injected panic"));
        std::fs::remove_file(&quarantine).ok();
    }

    #[test]
    fn sweep_rejects_bad_flags() {
        assert!(dispatch(&parse_with_switches(&["sweep", "--resume"])).is_err()); // no checkpoint
        assert!(dispatch(&parse(&["sweep", "--trials", "0"])).is_err());
        assert!(dispatch(&parse(&["sweep", "--trial-timeout", "-1"])).is_err());
        assert!(dispatch(&parse(&["sweep", "--algorithm", "nope"])).is_err());
        assert!(dispatch(&parse(&["sweep", "--bogus", "1"])).is_err());
        assert!(dispatch(&parse(&["sweep", "--stream", "x"])).is_err());
        for (flag, bad) in [("--error-rate", "2"), ("--error-rate", "NaN"), ("--f", "0")] {
            assert!(
                dispatch(&parse(&["sweep", flag, bad])).is_err(),
                "{flag} {bad}"
            );
        }
    }

    /// `sweep`'s stdout on a plain and a faulted spec, pinned byte for byte
    /// (sha256 `4df4f9ce…a518` and `7777aa10…7ea0`).
    #[test]
    fn sweep_stdout_is_pinned() {
        let plain = dispatch(&parse(&[
            "sweep", "--n", "64", "--honest", "48", "--trials", "6", "--seed", "3",
        ]))
        .unwrap();
        let expected = r#"== sweep: distill vs uniform-bad — n=64 m=64 honest=48 (alpha=0.750) goods=1 f=1 trials=6 ==
                               metric                value
----------------------------------------------------------
                            completed                  6/6
              resumed from checkpoint                    0
                  checkpoints written                    0
                          quarantined                    0
                 mean individual cost                 14.0
                         cost std dev                8.477
                       cost min / max         8.104 / 25.5
cost p50/p90/p99 (rank err <= 0.005n)  8.646 / 24.4 / 24.4
                   sketch tuples held                    6
               trials fully satisfied                  6/6

"#;
        assert_eq!(format!("{plain}\n"), expected);
        let faulted = dispatch(&parse(&[
            "sweep",
            "--n",
            "24",
            "--honest",
            "20",
            "--goods",
            "2",
            "--trials",
            "6",
            "--seed",
            "31",
            "--f",
            "2",
            "--drop-rate",
            "0.2",
            "--view-lag",
            "1",
            "--crash-rate",
            "0.3",
            "--crash-window",
            "8",
            "--recovery-rate",
            "0.2",
        ]))
        .unwrap();
        let expected = r#"== sweep: distill vs uniform-bad — n=24 m=24 honest=20 (alpha=0.833) goods=2 f=2 trials=6 ==
                               metric                  value
------------------------------------------------------------
                            completed                    6/6
              resumed from checkpoint                      0
                  checkpoints written                      0
                          quarantined                      0
                 mean individual cost                  5.342
                         cost std dev                  2.116
                       cost min / max          3.300 / 8.400
cost p50/p90/p99 (rank err <= 0.005n)  3.950 / 7.400 / 7.400
                   sketch tuples held                      6
               trials fully satisfied                    6/6

"#;
        assert_eq!(format!("{faulted}\n"), expected);
    }

    /// Two in-process fabric workers on one queue: disjoint leased chunks,
    /// and the merged checkpoints reproduce the single-process sweep's
    /// digests bit-for-bit.
    #[test]
    fn sweep_workers_share_a_queue_and_merge_matches_reference() {
        let dir = std::env::temp_dir().join(format!("distill-cli-fabric-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let queue = dir.join("sweep.queue");
        let queue_s = queue.display().to_string();
        let out_ref = dir.join("reference.digests");

        let spec = [
            "--n", "16", "--honest", "14", "--trials", "6", "--seed", "11",
        ];
        // Single-process reference digests.
        let mut ref_args: Vec<&str> = vec!["sweep"];
        ref_args.extend_from_slice(&spec);
        let out_ref_s = out_ref.display().to_string();
        ref_args.extend_from_slice(&["--out", &out_ref_s]);
        dispatch(&parse(&ref_args)).unwrap();

        // Worker 0 claims one chunk then stops (simulating a short-lived
        // process); worker 1 drains the rest.
        let worker = |id: &str, extra: &[&str]| {
            let mut argv: Vec<&str> = vec![
                "sweep-worker",
                "--queue",
                &queue_s,
                "--worker-id",
                id,
                "--chunk",
                "2",
            ];
            argv.extend_from_slice(&spec);
            argv.extend_from_slice(extra);
            dispatch(&parse(&argv)).unwrap()
        };
        let out0 = worker("0", &["--stop-after-chunks", "1"]);
        assert!(out0.contains("chunks claimed"));
        let out1 = worker("1", &[]);
        assert!(out1.contains("queue fully done"), "{out1}");
        assert!(
            out1.contains("true"),
            "worker 1 must drain the queue: {out1}"
        );

        // Merge the per-worker checkpoints exactly as sweep-supervise does.
        let parts: Vec<_> = (0..2)
            .map(|id| {
                distill_harness::Checkpoint::load(&distill_harness::worker_checkpoint_path(
                    &queue, id,
                ))
                .unwrap()
            })
            .collect();
        let merged = distill_harness::merge_checkpoints(&parts).unwrap();
        assert_eq!(merged.completed.len(), 6);
        assert_eq!(
            merged
                .completed
                .iter()
                .map(|(t, r)| digest_line(*t, r))
                .collect::<String>(),
            std::fs::read_to_string(&out_ref).unwrap(),
            "fabric merge must be bit-identical to the single-process sweep"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A worker killed mid-append and never restarted leaves a torn last
    /// frame behind a queue the other workers finished. `sweep-supervise`
    /// spawns nothing for a finished queue, merges past the torn frame, and
    /// still reproduces the single-process digests; other damage is an
    /// error.
    #[test]
    fn sweep_supervise_merges_past_a_torn_worker_log() {
        let dir = std::env::temp_dir().join(format!("distill-cli-torn-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let queue = dir.join("sweep.queue");
        let queue_s = queue.display().to_string();
        let out_ref_s = dir.join("reference.digests").display().to_string();
        let out_s = dir.join("fabric.digests").display().to_string();
        let spec = [
            "--n", "16", "--honest", "14", "--trials", "6", "--seed", "13",
        ];
        let run = |head: &[&str], tail: &[&str]| {
            let argv: Vec<&str> = head.iter().chain(&spec).chain(tail).copied().collect();
            dispatch(&parse(&argv))
        };
        run(&["sweep"], &["--out", &out_ref_s]).unwrap();
        let worker = [
            "sweep-worker",
            "--queue",
            &queue_s,
            "--chunk",
            "2",
            "--worker-id",
        ];
        run(
            &[&worker[..], &["0"]].concat(),
            &["--stop-after-chunks", "1"],
        )
        .unwrap();
        run(&[&worker[..], &["1"]].concat(), &[]).unwrap();

        // The torn frame: the opening bytes of a frame, cut short.
        let log = distill_harness::worker_checkpoint_path(&queue, 1);
        let whole = std::fs::read(&log).unwrap();
        std::fs::write(&log, [&whole[..], &whole[..100]].concat()).unwrap();
        let supervise = [
            "sweep-supervise",
            "--queue",
            &queue_s,
            "--chunk",
            "2",
            "--workers",
            "2",
        ];
        let report = run(&supervise, &["--out", &out_s]).unwrap();
        assert!(report.contains("6/6"), "{report}");
        assert_eq!(
            std::fs::read_to_string(&out_s).unwrap(),
            std::fs::read_to_string(&out_ref_s).unwrap()
        );

        let mut flipped = whole.clone();
        flipped[whole.len() / 2] ^= 1;
        std::fs::write(&log, &flipped).unwrap();
        assert!(run(&supervise, &[]).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fabric_commands_validate_flags() {
        // Both fabric commands refuse to run without a queue.
        assert!(dispatch(&parse(&["sweep-worker"])).is_err());
        assert!(dispatch(&parse(&["sweep-supervise"])).is_err());
        for (flag, bad) in [
            ("--chunk", "0"),
            ("--max-claims", "0"),
            ("--lease-ttl", "0"),
            ("--lease-ttl", "-3"),
            ("--trial-timeout", "-1"),
        ] {
            let argv = ["sweep-worker", "--queue", "/tmp/q", flag, bad];
            assert!(dispatch(&parse(&argv)).is_err(), "{flag} {bad} must fail");
        }
        assert!(dispatch(&parse(&[
            "sweep-supervise",
            "--queue",
            "/tmp/q",
            "--workers",
            "0"
        ]))
        .is_err());
        // Unknown flags rejected on both.
        assert!(dispatch(&parse(&[
            "sweep-worker",
            "--queue",
            "/tmp/q",
            "--bogus",
            "1"
        ]))
        .is_err());
        assert!(dispatch(&parse(&[
            "sweep-supervise",
            "--queue",
            "/tmp/q",
            "--bogus",
            "1"
        ]))
        .is_err());
        // The spec surface is validated identically to sweep's.
        assert!(dispatch(&parse(&[
            "sweep-worker",
            "--queue",
            "/tmp/q",
            "--algorithm",
            "nope"
        ]))
        .is_err());
    }

    /// `sweep` and both fabric commands read `--trial-timeout` through one
    /// parser, so they refuse a negative timeout, or one too long for a
    /// `Duration`, with one message. The fabric commands refuse such a
    /// `--lease-ttl` alike.
    #[test]
    fn negative_trial_timeout_is_refused_alike_by_every_sweep_command() {
        let fabric = |cmd| [cmd, "--queue", "/tmp/q"];
        for bad in ["-1", "1e300"] {
            for head in [
                &["sweep"][..],
                &fabric("sweep-worker"),
                &fabric("sweep-supervise"),
            ] {
                let argv = [head, &["--trial-timeout", bad]].concat();
                assert_eq!(
                    dispatch(&parse(&argv)).unwrap_err().to_string(),
                    "--trial-timeout must be a finite number of seconds >= 0",
                    "{argv:?}"
                );
            }
        }
        for cmd in ["sweep-worker", "sweep-supervise"] {
            let argv = [&fabric(cmd)[..], &["--lease-ttl", "1e300"]].concat();
            assert_eq!(
                dispatch(&parse(&argv)).unwrap_err().to_string(),
                "--lease-ttl must be a finite number of seconds > 0",
                "{argv:?}"
            );
        }
    }

    /// The worker command line carries the supervisor's spec and fabric
    /// flags: parsed as a worker parses it, it gives the supervisor's spec
    /// and worker configuration, with every spec flag set and with none.
    #[test]
    fn supervisor_forwards_the_spec_to_its_workers() {
        let spec = [
            "--n",
            "40",
            "--m",
            "48",
            "--honest",
            "30",
            "--goods",
            "3",
            "--algorithm",
            "random",
            "--adversary",
            "collusive",
            "--trials",
            "12",
            "--seed",
            "9",
            "--f",
            "2",
            "--error-rate",
            "0.125",
            "--max-rounds",
            "5000",
            "--drop-rate",
            "0.2",
            "--view-lag",
            "1",
            "--crash-rate",
            "0.3",
            "--crash-window",
            "8",
            "--recovery-rate",
            "0.25",
        ];
        let fabric = [
            "--queue",
            "/tmp/q",
            "--inject-panic",
            "5",
            "--chunk",
            "3",
            "--lease-ttl",
            "2.5",
            "--max-claims",
            "4",
            "--max-retries",
            "1",
            "--trial-timeout",
            "9",
            "--checkpoint-every",
            "2",
            "--stop-after-chunks",
            "1",
            "--fail-after-trials",
            "7",
        ];
        let fleet = [
            "--workers",
            "2",
            "--max-restarts",
            "3",
            "--out",
            "/tmp/o",
            "--merged",
            "/tmp/m",
        ];
        let given = |argv: &[&str], flags: &[&str]| {
            flags
                .iter()
                .all(|f| argv.contains(&format!("--{f}").as_str()))
        };
        assert!(given(&spec, SPEC_FLAGS) && given(&fabric, FORWARDED_FLAGS));
        for spec in [&spec[..], &[]] {
            let supervisor = parse(&[&["sweep-supervise"][..], spec, &fabric, &fleet].concat());
            let mut argv = worker_argv(&supervisor);
            argv.extend(["--worker-id".to_string(), "0".to_string()]);
            let worker = Args::parse(argv, &[]).unwrap();
            ensure_spec_flags(&worker, &[FORWARDED_FLAGS, SWEEP_WORKER_FLAGS].concat()).unwrap();
            let parsed = |args: &Args| {
                let (spec, trials) = parse_sweep_spec(args).unwrap();
                let config = parse_worker_config(args, trials).unwrap();
                format!("{} trials={trials} {config:?}", spec.describe())
            };
            assert_eq!(parsed(&worker), parsed(&supervisor));
        }
    }
}
