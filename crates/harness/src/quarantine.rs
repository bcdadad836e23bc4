//! Quarantine records for failed trials.
//!
//! When a trial exhausts its retry budget, the sweep appends one JSON line
//! describing the failure — trial index, seed, config fingerprint, the
//! canonical config description, attempt count, and the failure reason — to
//! a `quarantine.jsonl` file. Each line is self-contained and appended (and
//! flushed) immediately, so even a sweep that crashes right after a failure
//! leaves a replayable record behind. Replaying is `run_trial(seed)` with
//! the recorded config; nothing else is needed.
//!
//! The JSON is hand-rolled (the workspace has no JSON dependency); strings
//! go through [`json_escape`], the escaper beside the store's JSON reader.

use crate::store::json_escape;
use crate::supervisor::TrialFailure;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

/// One quarantined trial: everything needed to replay the failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineRecord {
    /// Trial index within the sweep.
    pub trial: u64,
    /// The RNG seed the trial ran with (replay key).
    pub seed: u64,
    /// Fingerprint of the sweep config (matches the checkpoint's).
    pub fingerprint: u64,
    /// Canonical human-readable config description.
    pub config: String,
    /// Attempts made before giving up.
    pub attempts: u32,
    /// The final failure.
    pub failure: TrialFailure,
    /// The sweep-fabric worker that quarantined the trial; `None` for
    /// single-process sweeps. Keeping the field optional keeps old readers
    /// of the JSONL (which ignore unknown keys) and old records (which
    /// simply lack the key) both valid.
    pub worker_id: Option<u64>,
    /// The lease-queue chunk the trial belonged to; `None` outside the
    /// multi-process fabric.
    pub lease: Option<u64>,
}

impl QuarantineRecord {
    /// Renders the record as one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let (kind, detail) = match &self.failure {
            TrialFailure::Panic(msg) => ("panic", json_escape(msg)),
            TrialFailure::Timeout { limit } => ("timeout", format!("{:.3}s", limit.as_secs_f64())),
        };
        // The fabric attribution fields are appended only when present, so
        // single-process records keep the exact pre-fabric line shape.
        let mut attribution = String::new();
        if let Some(worker) = self.worker_id {
            let _ = write!(attribution, ",\"worker_id\":{worker}");
        }
        if let Some(lease) = self.lease {
            let _ = write!(attribution, ",\"lease\":{lease}");
        }
        format!(
            "{{\"trial\":{},\"seed\":{},\"fingerprint\":\"{:#018x}\",\"config\":\"{}\",\"attempts\":{},\"failure\":\"{kind}\",\"detail\":\"{detail}\"{attribution}}}",
            self.trial,
            self.seed,
            self.fingerprint,
            json_escape(&self.config),
            self.attempts,
        )
    }

    /// Appends the record (plus newline) to `path`, creating the file if
    /// needed, and flushes before returning so the record survives a
    /// subsequent crash.
    ///
    /// # Errors
    /// Returns the rendered I/O error with the failing path.
    pub fn append_to(&self, path: &Path) -> Result<(), String> {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let mut line = self.to_json_line();
        line.push('\n');
        file.write_all(line.as_bytes())
            .and_then(|()| file.flush())
            .map_err(|e| format!("{}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn record() -> QuarantineRecord {
        QuarantineRecord {
            trial: 3,
            seed: 0xDEAD,
            fingerprint: 0x1234_5678_9ABC_DEF0,
            config: "m=40 n_good=10 players=8 policy=\"quorum\"".into(),
            attempts: 3,
            failure: TrialFailure::Panic("index out of bounds\nat line 3".into()),
            worker_id: None,
            lease: None,
        }
    }

    #[test]
    fn json_line_is_well_formed() {
        let line = record().to_json_line();
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"trial\":3"));
        assert!(line.contains("\"seed\":57005"));
        assert!(line.contains("\"fingerprint\":\"0x123456789abcdef0\""));
        assert!(line.contains("\\\"quorum\\\""));
        assert!(line.contains("\\n"));
        assert!(!line.contains('\n'));
        assert!(line.contains("\"failure\":\"panic\""));
        // Single-process records omit the fabric attribution keys entirely
        // (backward-readable: the line shape is exactly the pre-fabric one).
        assert!(!line.contains("worker_id"));
        assert!(!line.contains("lease"));
    }

    #[test]
    fn fabric_records_carry_worker_and_lease() {
        let mut r = record();
        r.worker_id = Some(2);
        r.lease = Some(7);
        let line = r.to_json_line();
        assert!(line.ends_with(",\"worker_id\":2,\"lease\":7}"));
        // And partial attribution renders only what is known.
        r.lease = None;
        let line = r.to_json_line();
        assert!(line.contains("\"worker_id\":2"));
        assert!(!line.contains("lease"));
    }

    #[test]
    fn timeout_failures_record_the_limit() {
        let mut r = record();
        r.failure = TrialFailure::Timeout {
            limit: Duration::from_millis(1500),
        };
        let line = r.to_json_line();
        assert!(line.contains("\"failure\":\"timeout\""));
        assert!(line.contains("1.500s"));
    }

    #[test]
    fn append_accumulates_lines() {
        let path = std::env::temp_dir().join(format!(
            "distill-quarantine-test-{}.jsonl",
            std::process::id()
        ));
        std::fs::remove_file(&path).ok();
        record().append_to(&path).unwrap();
        let mut second = record();
        second.trial = 9;
        second.append_to(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"trial\":3"));
        assert!(lines[1].contains("\"trial\":9"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn append_to_bad_path_is_typed() {
        let err = record()
            .append_to(Path::new("/nonexistent/dir/q.jsonl"))
            .unwrap_err();
        assert!(err.contains("nonexistent"));
    }
}
