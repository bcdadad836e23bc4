//! Process-level tests of the multi-process sweep fabric: real `distill-cli`
//! binaries sharing one on-disk lease queue across OS process boundaries.
//!
//! These complement the in-crate worker tests (which use an injected clock)
//! and the CI `cluster-crash` job (which uses literal `kill -9`): here,
//! worker loss is injected deterministically with `--fail-after-trials`, a
//! hook that makes the worker process exit mid-lease exactly as a SIGKILL
//! would — no checkpoint of the in-flight chunk, a dangling lease left in
//! the queue.

use std::path::{Path, PathBuf};
use std::process::Command;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_distill-cli")
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "distill-fabric-process-{name}-{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const SPEC: &[&str] = &[
    "--n", "16", "--honest", "14", "--trials", "10", "--seed", "21",
];

fn run_ok(args: &[&str]) -> String {
    let out = Command::new(bin()).args(args).output().unwrap();
    assert!(
        out.status.success(),
        "{args:?} failed ({}):\n{}{}",
        out.status,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn reference_digests(dir: &Path) -> String {
    let out = dir.join("reference.digests");
    let mut args = vec!["sweep"];
    args.extend_from_slice(SPEC);
    let out_s = out.display().to_string();
    args.extend_from_slice(&["--out", &out_s]);
    run_ok(&args);
    std::fs::read_to_string(&out).unwrap()
}

/// The headline robustness property, across real process boundaries: every
/// worker of the first fleet dies mid-lease, the supervisor's restart
/// budget is already spent (so it exits incomplete, like a killed
/// supervisor would), and a second supervisor invocation resumes from the
/// files alone to a merged result set bit-identical to the uninterrupted
/// single-process reference.
#[test]
fn killed_workers_and_supervisor_restart_converge_bit_identically() {
    let dir = tmp_dir("crash");
    let reference = reference_digests(&dir);
    let queue = dir.join("sweep.queue");
    let queue_s = queue.display().to_string();
    let digests = dir.join("cluster.digests");
    let digests_s = digests.display().to_string();

    let supervise = |extra: &[&str]| -> std::process::Output {
        let mut args = vec!["sweep-supervise", "--queue", &queue_s];
        args.extend_from_slice(SPEC);
        args.extend_from_slice(&[
            "--workers",
            "2",
            "--chunk",
            "2",
            "--lease-ttl",
            "1",
            "--poll-ms",
            "10",
        ]);
        args.extend_from_slice(extra);
        Command::new(bin()).args(&args).output().unwrap()
    };

    // Round 1: every worker dies after 3 trials (mid-lease, no final
    // checkpoint for the in-flight chunk), and the zero restart budget
    // forces the supervisor to give up — the fabric is now a pile of
    // files: a queue with dangling leases and partial worker checkpoints.
    let round1 = supervise(&["--fail-after-trials", "3", "--max-restarts", "0"]);
    assert_eq!(
        round1.status.code(),
        Some(3),
        "an incomplete fabric must exit 3:\n{}{}",
        String::from_utf8_lossy(&round1.stdout),
        String::from_utf8_lossy(&round1.stderr)
    );

    // Round 2: a fresh supervisor (the "restarted" one) resumes from the
    // files. Workers wait out the ~1s dangling leases, reclaim, and drain
    // the queue.
    let round2 = supervise(&["--out", &digests_s]);
    assert!(
        round2.status.success(),
        "the resumed fabric must complete:\n{}{}",
        String::from_utf8_lossy(&round2.stdout),
        String::from_utf8_lossy(&round2.stderr)
    );
    let stdout = String::from_utf8_lossy(&round2.stdout);
    assert!(stdout.contains("10/10"), "all trials merged: {stdout}");

    assert_eq!(
        std::fs::read_to_string(&digests).unwrap(),
        reference,
        "kill + resume must reproduce the single-process digests bit-for-bit"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A healthy fleet (no injected failures) completes in one supervise call
/// and also matches the reference digests.
#[test]
fn healthy_fleet_matches_reference() {
    let dir = tmp_dir("healthy");
    let reference = reference_digests(&dir);
    let queue = dir.join("sweep.queue");
    let queue_s = queue.display().to_string();
    let digests = dir.join("cluster.digests");
    let digests_s = digests.display().to_string();
    let mut args = vec!["sweep-supervise", "--queue", &queue_s];
    args.extend_from_slice(SPEC);
    args.extend_from_slice(&[
        "--workers",
        "3",
        "--chunk",
        "2",
        "--poll-ms",
        "10",
        "--out",
        &digests_s,
    ]);
    let out = run_ok(&args);
    assert!(out.contains("10/10"), "{out}");
    assert_eq!(std::fs::read_to_string(&digests).unwrap(), reference);
    std::fs::remove_dir_all(&dir).ok();
}

/// A lone `sweep-worker` process on a fresh queue drains it end to end —
/// the fabric degrades gracefully to single-process operation.
#[test]
fn single_worker_process_drains_the_queue() {
    let dir = tmp_dir("solo");
    let queue = dir.join("sweep.queue");
    let queue_s = queue.display().to_string();
    let mut args = vec!["sweep-worker", "--queue", &queue_s];
    args.extend_from_slice(SPEC);
    args.extend_from_slice(&["--chunk", "4"]);
    let out = run_ok(&args);
    assert!(out.contains("queue fully done"), "{out}");
    assert!(out.contains("true"), "{out}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `sweep-supervise` merges every worker log of its queue, not only those
/// of its own `--workers` slots: here a lone `sweep-worker --worker-id 5`
/// drained the queue, so a 2-slot supervisor spawns nothing and must still
/// find worker 5's log to complete the sweep.
#[test]
fn supervisor_merges_logs_of_worker_ids_beyond_its_fleet() {
    let dir = tmp_dir("foreign-id");
    let reference = reference_digests(&dir);
    let queue = dir.join("sweep.queue");
    let queue_s = queue.display().to_string();
    let digests = dir.join("cluster.digests");
    let digests_s = digests.display().to_string();

    let mut args = vec!["sweep-worker", "--queue", &queue_s, "--worker-id", "5"];
    args.extend_from_slice(SPEC);
    args.extend_from_slice(&["--chunk", "2"]);
    let out = run_ok(&args);
    assert!(out.contains("true"), "worker 5 must drain the queue: {out}");

    let mut args = vec!["sweep-supervise", "--queue", &queue_s];
    args.extend_from_slice(SPEC);
    args.extend_from_slice(&[
        "--workers",
        "2",
        "--chunk",
        "2",
        "--poll-ms",
        "10",
        "--out",
        &digests_s,
    ]);
    let out = run_ok(&args);
    assert!(out.contains("10/10"), "{out}");
    assert_eq!(std::fs::read_to_string(&digests).unwrap(), reference);
    std::fs::remove_dir_all(&dir).ok();
}

/// An `--out` path that cannot be written fails both sweep commands before
/// any work, as does a `--merged` path `sweep-supervise` cannot write and a
/// `--checkpoint` path `sweep` cannot write, resuming or not: exit 1 naming
/// the flag and path, and nothing written beside it. `sweep` leaves no
/// checkpoint (it would write one after the first trial) and
/// `sweep-supervise` no queue or worker log (its workers would write both).
#[test]
fn unwritable_out_fails_before_any_trial_or_worker() {
    let dir = tmp_dir("unwritable-out");
    let out_s = dir.join("missing").join("d").display().to_string();
    let merged_s = dir.join("missing").join("m.ckpt").display().to_string();
    let missing_ckpt_s = dir.join("missing").join("c.ckpt").display().to_string();
    let ckpt_s = dir.join("sweep.ckpt").display().to_string();
    let queue_s = dir.join("sweep.queue").display().to_string();
    let sweep: &[&str] = &["sweep", "--checkpoint", &ckpt_s, "--checkpoint-every", "1"];
    let supervise: &[&str] = &["sweep-supervise", "--queue", &queue_s, "--workers", "1"];
    // A cadence past the trial count: the first append would come only
    // after every trial had run.
    let late: &[&str] = &["sweep", "--checkpoint-every", "1000"];
    let resume: &[&str] = &["sweep", "--resume", "--checkpoint-every", "1000"];
    let cases = [
        (sweep, "--out", out_s.as_str()),
        (supervise, "--out", &out_s),
        (supervise, "--merged", &merged_s),
        (late, "--checkpoint", &missing_ckpt_s),
        (resume, "--checkpoint", &missing_ckpt_s),
    ];
    for (head, flag, path) in cases {
        let args = [head, SPEC, &[flag, path]].concat();
        let run = Command::new(bin()).args(&args).output().unwrap();
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("{flag} {path}: ")),
            "{args:?}: {stderr}"
        );
        let written: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert!(written.is_empty(), "{args:?} wrote {written:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
