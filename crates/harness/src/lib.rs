//! # distill-harness — crash-safe supervised sweeps
//!
//! The experiment *harness* around the deterministic simulation: long
//! sweeps survive process crashes (checkpoint/resume), trial panics
//! (catch_unwind + quarantine), and hung trials (watchdog timeouts),
//! without touching the simulation's own panic-freedom or determinism
//! guarantees.
//!
//! Module map:
//! - [`codec`] — little-endian binary primitives with total decoding and
//!   the FNV-1a checksum/fingerprint hash.
//! - [`frame`] — the one on-disk envelope (`magic | version | len |
//!   fnv1a64 | payload`) of every harness file, its typed [`FrameError`],
//!   a load that only reads, and the file lock whose guard is the only
//!   tmp/fsync/rename write.
//! - [`checkpoint`] — the sweep checkpoint ([`Checkpoint`]), an
//!   append-only log of frames: its payload schema, strict and salvage
//!   decodes, and the writer that appends one frame per cadence.
//! - [`store`] — the append-only experiment-results store
//!   ([`ExperimentStore`]): perf measurements keyed by
//!   `(bench id, commit, timestamp)` in one canonical frame that appends
//!   set-union under the store's lock, plus the
//!   noise-aware perf [`TrendGate`] CI uses instead of hardcoded
//!   thresholds, and the hand-written JSON reader and [`json_escape`].
//! - [`supervisor`] — per-trial panic isolation, bounded deterministic
//!   retries with exponential backoff, and the wall-clock watchdog.
//! - [`quarantine`] — replayable `(seed, config)` JSONL records for trials
//!   that exhaust their retry budget.
//! - [`sweep`] — the in-process sweep ([`run_sweep`]) tying the above
//!   together: its workers settle their own trials under one lock.
//! - [`lease`] — the shared on-disk lease queue ([`LeaseQueue`]) that
//!   multi-process sweeps claim chunked trial ranges from under
//!   time-bounded, heartbeat-renewed leases; expired leases are reclaimed
//!   by any live worker.
//! - [`merge`] — set-union merge of per-worker checkpoints
//!   ([`merge_checkpoints`]), verifying that duplicated trials produced
//!   bit-identical results.
//! - [`worker`] — the fabric process layer: the worker loop
//!   ([`run_worker`]) and the `loopr`-style dumb supervisor
//!   ([`supervise_workers`]) that restarts dead workers with all state in
//!   files.
//!
//! ## Lint posture
//!
//! This crate is deliberately **not** on the distill-lint protected list:
//! rule D1 bans `catch_unwind` and rule D2 bans wall-clock reads precisely
//! so that panic absorption and timing live *here*, in the supervision
//! layer, and nowhere in the simulation crates. See DESIGN.md §12. The
//! persistence modules ([`frame`], [`checkpoint`], [`store`], [`codec`],
//! [`lease`], [`merge`]) need neither escape hatch, so they are
//! individually file-protected under rules D1–D7 via
//! `xtask::LintConfig::protected_files` (DESIGN.md §16); [`lease`] in
//! particular takes the clock as an explicit argument so it stays
//! deterministic, leaving wall-clock reads to [`worker`].

#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod codec;
pub mod frame;
pub mod lease;
pub mod merge;
pub mod quarantine;
pub mod store;
pub mod supervisor;
pub mod sweep;
pub mod worker;

pub use checkpoint::{Checkpoint, CheckpointError, CHECKPOINT_MAGIC, CHECKPOINT_VERSION};
pub use codec::{fnv1a64, CodecError, Reader, Writer};
pub use frame::FrameError;
pub use lease::{
    ChunkEntry, ChunkState, LeaseError, LeaseOutcome, LeaseQueue, LEASE_MAGIC, LEASE_VERSION,
};
pub use merge::{merge_checkpoints, MergeError};
pub use quarantine::QuarantineRecord;
pub use store::{
    json_escape, parse_bench_json, BenchRow, ExperimentRecord, ExperimentStore, RowKind,
    StoreError, TrendGate, TrendStatus, TrendVerdict, STORE_MAGIC, STORE_VERSION,
};
pub use supervisor::{supervise, Supervised, SupervisorPolicy, TrialFailure};
pub use sweep::{
    fingerprint_of, run_sweep, run_sweep_with, SweepConfig, SweepError, SweepReport, TrialSpec,
};
pub use worker::{
    run_worker, supervise_workers, system_clock, worker_checkpoint_path, worker_checkpoint_paths,
    ClockFn, FleetConfig, FleetReport, WorkerConfig, WorkerError, WorkerReport,
};
