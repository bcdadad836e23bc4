//! Versioned, checksummed sweep checkpoints, kept as append-only logs.
//!
//! A checkpoint file is a log of [`crate::frame`]s with magic `DSTLCKPT`.
//! Each frame's payload is `fingerprint u64 | total_trials u64 | count u64
//! | count × (trial u64, SimResult)` with trials strictly ascending, and
//! holds the trials finished since the frame before it. The checkpoint is
//! the union of the frames, sorted by trial, and [`Checkpoint::encode`]
//! writes it as a one-frame log.
//!
//! Version 2 writes each honest player's [`PlayerOutcome`] row as one flags
//! byte followed by its fields in struct order: `probes` as a varint, the
//! raw bits of `cost_paid` unless flag bit 2 says they equal `probes as
//! f64`, `satisfied_round` as a varint if bit 0 is set, `advice_probes`
//! and `explore_probes` as varints, and `crash_round` as a varint if bit 1
//! is set. Bits 3–7 are zero. A typical E1 row (satisfied, cost equal to
//! its probes, every count below 128) takes 5 bytes rather than version
//! 1's 42. Version 1 files are refused with
//! [`FrameError::UnsupportedVersion`]; no older reader is kept.
//!
//! A decoded [`Checkpoint`] holds each result behind one [`Arc`], so the
//! merge of worker checkpoints shares results rather than copying them.
//!
//! Decoding is total: truncation, bit flips, version skew, and config
//! mismatches all yield a typed [`CheckpointError`] (property-tested in
//! `tests/checkpoint_corruption.rs`), never a panic and never a silently
//! wrong result — each frame's checksum is verified before any of its
//! payload bytes are interpreted.
//!
//! [`Checkpoint::decode`] is strict: any damage, a frame whose fingerprint
//! or trial count differs from the first frame's, and a trial in two
//! frames are all errors. [`Checkpoint::decode_salvage`] instead returns
//! the union of the intact leading frames and the first damage.
//! [`Checkpoint::load_after_crash`] sits between them: it drops a torn last
//! frame — what a process killed mid-append leaves — and refuses any other
//! damage.
//!
//! Sweeps and fabric workers write through a `CheckpointLog`, which
//! appends one frame per cadence with [`frame::append`], so a checkpoint
//! write costs bytes in proportion to the new trials only. The one whole-map
//! rewrite is compaction after damage: `CheckpointLog::resume` rewrites a
//! damaged log's intact prefix as one frame, under the log's
//! [`frame::lock`], before anything is appended behind the damage. That
//! and [`Checkpoint::write_atomic`] are the only writes that replace a
//! checkpoint file; loads only read it.

use crate::codec::{CodecError, Reader, Writer};
use crate::frame::{self, FrameError};
use distill_billboard::{ObjectId, PlayerId, Round};
use distill_sim::{FaultCounters, FinalEval, PlayerOutcome, SimResult, TraceEvent};
use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// File magic: identifies a distill sweep checkpoint.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"DSTLCKPT";

/// Current checkpoint format version. Bump on any layout change; old
/// versions are rejected with [`FrameError::UnsupportedVersion`] rather
/// than misread.
pub const CHECKPOINT_VERSION: u32 = 2;

/// The damage an empty checkpoint file reports: its first frame is missing.
const EMPTY: FrameError = FrameError::TooShort { at: 0, len: 0 };

/// Why a checkpoint could not be loaded or does not match the sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The file could not be read or written, or one of its frames is
    /// damaged.
    Frame(FrameError),
    /// Completed-trial indices are not strictly ascending within a frame,
    /// or a trial appears in two frames.
    OutOfOrder {
        /// The index that broke the order.
        trial: u64,
    },
    /// A completed-trial index is outside `0..total_trials`.
    TrialOutOfRange {
        /// The offending index.
        trial: u64,
        /// The sweep's trial count.
        total: u64,
    },
    /// The checkpoint, or one frame of it, was written by a sweep with a
    /// different configuration.
    ConfigMismatch {
        /// Fingerprint stored in the checkpoint or frame.
        stored: u64,
        /// Fingerprint of the sweep attempting to resume, or of the log's
        /// first frame.
        expected: u64,
    },
    /// The checkpoint, or one frame of it, was written for a different
    /// trial count.
    TrialCountMismatch {
        /// Count stored in the checkpoint or frame.
        stored: u64,
        /// Count of the sweep attempting to resume, or of the log's first
        /// frame.
        expected: u64,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Frame(e) => write!(f, "checkpoint: {e}"),
            CheckpointError::OutOfOrder { trial } => {
                write!(
                    f,
                    "checkpoint trial indices not strictly ascending at {trial}"
                )
            }
            CheckpointError::TrialOutOfRange { trial, total } => {
                write!(f, "checkpoint names trial {trial} outside 0..{total}")
            }
            CheckpointError::ConfigMismatch { stored, expected } => {
                write!(
                    f,
                    "checkpoint belongs to a different sweep configuration \
                     (fingerprint {stored:#018x}, this sweep is {expected:#018x})"
                )
            }
            CheckpointError::TrialCountMismatch { stored, expected } => {
                write!(
                    f,
                    "checkpoint covers {stored} trials, this sweep has {expected}"
                )
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<FrameError> for CheckpointError {
    fn from(e: FrameError) -> Self {
        CheckpointError::Frame(e)
    }
}

/// A snapshot of sweep progress.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// FNV-1a fingerprint of the sweep's canonical config description;
    /// resume refuses checkpoints from a different configuration.
    pub fingerprint: u64,
    /// The sweep's total trial count.
    pub total_trials: u64,
    /// Completed trials, strictly ascending by index. Each result is
    /// shared, so a merged checkpoint and its parts hold the same results.
    pub completed: Vec<(u64, Arc<SimResult>)>,
}

/// The one frame encoder: `put` writes each entry's result, from a
/// [`SimResult`] ([`Checkpoint::encode`]) or from bytes a [`CheckpointLog`]
/// encoded when the trial finished.
fn encode_frame<E>(
    fingerprint: u64,
    total_trials: u64,
    entries: impl ExactSizeIterator<Item = (u64, E)>,
    put: impl Fn(&mut Writer, E),
) -> Vec<u8> {
    frame::encode(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, |w| {
        w.put_u64(fingerprint);
        w.put_u64(total_trials);
        w.put_u64(entries.len() as u64);
        for (trial, result) in entries {
            w.put_u64(trial);
            put(w, result);
        }
    })
}

/// Reads one frame's payload.
fn read_frame(r: &mut Reader<'_>) -> Result<Checkpoint, CodecError> {
    let fingerprint = r.u64()?;
    let total_trials = r.u64()?;
    let count = r.seq_len(8)?;
    let mut completed = Vec::with_capacity(count);
    for _ in 0..count {
        completed.push((r.u64()?, Arc::new(decode_sim_result(r)?)));
    }
    Ok(Checkpoint {
        fingerprint,
        total_trials,
        completed,
    })
}

impl Checkpoint {
    /// Encodes the checkpoint as a one-frame log.
    pub fn encode(&self) -> Vec<u8> {
        let completed = self
            .completed
            .iter()
            .map(|(trial, result)| (*trial, &**result));
        encode_frame(
            self.fingerprint,
            self.total_trials,
            completed,
            encode_sim_result,
        )
    }

    /// Decodes a checkpoint log strictly: every frame must be intact and
    /// agree with the first on fingerprint and trial count, and no trial
    /// may appear twice. Each frame is verified before a single one of its
    /// payload bytes is interpreted.
    ///
    /// # Errors
    /// Every corruption mode maps to a [`CheckpointError`] variant — an
    /// empty file is [`FrameError::TooShort`] at byte 0 — and no input can
    /// cause a panic.
    pub fn decode(bytes: &[u8]) -> Result<Self, CheckpointError> {
        match Checkpoint::decode_salvage(bytes) {
            (Some(ck), None) => Ok(ck),
            (_, damage) => Err(damage.unwrap_or(CheckpointError::Frame(EMPTY))),
        }
    }

    /// Best-effort decode: the union of the longest run of leading frames
    /// that are intact and agree with each other (`None` when the first
    /// frame is not), and the first damage, if any. An empty file is
    /// damage. [`Checkpoint::decode`] succeeds exactly when this reports no
    /// damage.
    pub fn decode_salvage(bytes: &[u8]) -> (Option<Self>, Option<CheckpointError>) {
        let (frames, damage) =
            frame::decode_seq(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, bytes, read_frame);
        let mut damage = damage.map(CheckpointError::Frame);
        let Some(&Checkpoint {
            fingerprint,
            total_trials,
            ..
        }) = frames.first()
        else {
            // No intact frame: the first one is damaged, or the file is empty.
            return (None, Some(damage.unwrap_or(CheckpointError::Frame(EMPTY))));
        };
        let mut union = BTreeMap::new();
        let mut intact = 0usize;
        for frame in frames {
            if let Err(e) = frame.check_frame(fingerprint, total_trials, &union) {
                damage = Some(e);
                break;
            }
            union.extend(frame.completed);
            intact += 1;
        }
        let ck = (intact > 0).then(|| Checkpoint {
            fingerprint,
            total_trials,
            completed: union.into_iter().collect(),
        });
        (ck, damage)
    }

    /// Checks one frame of a log: it belongs to the log's sweep, and its
    /// trials are strictly ascending, in range, and not in an earlier
    /// frame.
    fn check_frame(
        &self,
        fingerprint: u64,
        total_trials: u64,
        earlier: &BTreeMap<u64, Arc<SimResult>>,
    ) -> Result<(), CheckpointError> {
        self.validate_for(fingerprint, total_trials)?;
        let mut prev: Option<u64> = None;
        for &(trial, _) in &self.completed {
            if prev.is_some_and(|p| trial <= p) || earlier.contains_key(&trial) {
                return Err(CheckpointError::OutOfOrder { trial });
            }
            if trial >= total_trials {
                return Err(CheckpointError::TrialOutOfRange {
                    trial,
                    total: total_trials,
                });
            }
            prev = Some(trial);
        }
        Ok(())
    }

    /// Verifies the checkpoint belongs to the sweep described by
    /// `fingerprint` over `total_trials` trials.
    ///
    /// # Errors
    /// [`CheckpointError::ConfigMismatch`] or
    /// [`CheckpointError::TrialCountMismatch`].
    pub fn validate_for(&self, fingerprint: u64, total_trials: u64) -> Result<(), CheckpointError> {
        if self.fingerprint != fingerprint {
            return Err(CheckpointError::ConfigMismatch {
                stored: self.fingerprint,
                expected: fingerprint,
            });
        }
        if self.total_trials != total_trials {
            return Err(CheckpointError::TrialCountMismatch {
                stored: self.total_trials,
                expected: total_trials,
            });
        }
        Ok(())
    }

    /// Loads and strictly decodes a checkpoint log. A plain read (see
    /// [`frame::load`]).
    ///
    /// # Errors
    /// I/O failures surface as [`FrameError::Io`] (kind `NotFound` for a
    /// missing file); corrupt contents as the corresponding decode variant.
    pub fn load(path: &Path) -> Result<Self, CheckpointError> {
        Checkpoint::decode(&frame::load(path)?)
    }

    /// Loads a log whose writer may have been killed mid-append: as
    /// [`Checkpoint::load`], except that a torn last frame is dropped. A
    /// writer reports no trial finished before the append holding it has
    /// returned, so the torn frame holds nothing another file relies on.
    /// `None` when no frame is whole (the writer died in its first append).
    ///
    /// # Errors
    /// As [`Checkpoint::load`], for every damage but a torn last frame.
    pub fn load_after_crash(path: &Path) -> Result<Option<Self>, CheckpointError> {
        let bytes = frame::load(path)?;
        match Checkpoint::decode_salvage(&bytes) {
            (_, Some(damage)) if !is_torn(&bytes, &damage) => Err(damage),
            (intact, _) => Ok(intact),
        }
    }

    /// Writes the checkpoint atomically as a one-frame log, under the
    /// file's [`frame::lock`]: a crash at any point leaves either the old
    /// or the new complete file, never a torn one.
    ///
    /// # Errors
    /// [`CheckpointError::Frame`] with the failing path and OS error.
    pub fn write_atomic(&self, path: &Path) -> Result<(), CheckpointError> {
        Ok(frame::lock(path)?.write(&self.encode())?)
    }
}

/// Whether `damage`, found in the log `bytes`, is a torn last frame — what
/// a writer killed mid-append leaves — rather than corruption.
fn is_torn(bytes: &[u8], damage: &CheckpointError) -> bool {
    match damage {
        CheckpointError::Frame(
            FrameError::TooShort { at, .. } | FrameError::Truncated { at, .. },
        ) => frame::is_torn(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, bytes, *at),
        _ => false,
    }
}

/// The writing end of a sweep's or worker's checkpoint log. It holds only
/// the results finished since its last frame, already encoded, and appends
/// them as one new frame every `checkpoint_every` results.
#[derive(Debug)]
pub(crate) struct CheckpointLog {
    path: PathBuf,
    fingerprint: u64,
    total_trials: u64,
    /// The cadence: pending results that trigger an append.
    every: usize,
    /// Finished since the last frame: trial and encoded result, in
    /// completion order.
    pending: Vec<(u64, Vec<u8>)>,
}

impl CheckpointLog {
    fn new(path: &Path, fingerprint: u64, total_trials: u64, checkpoint_every: u64) -> Self {
        CheckpointLog {
            path: path.to_path_buf(),
            fingerprint,
            total_trials,
            every: usize::try_from(checkpoint_every.max(1)).unwrap_or(usize::MAX),
            pending: Vec::new(),
        }
    }

    /// A new, empty log at `path` for a sweep that is not resuming,
    /// appending after every `checkpoint_every` results (at least 1). Any
    /// old file at `path` is removed.
    ///
    /// # Errors
    /// [`CheckpointError::Frame`] when an old file cannot be removed.
    pub(crate) fn create(
        path: &Path,
        fingerprint: u64,
        total_trials: u64,
        checkpoint_every: u64,
    ) -> Result<Self, CheckpointError> {
        let log = CheckpointLog::new(path, fingerprint, total_trials, checkpoint_every);
        match std::fs::remove_file(path) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => Err(FrameError::io(path, &e).into()),
            _ => Ok(log),
        }
    }

    /// Continues the log at `path` (a missing file is an empty log) at the
    /// same cadence as [`CheckpointLog::create`], and returns it with the
    /// trials it already holds, ascending.
    ///
    /// A damaged log keeps its intact frames, which are rewritten as one
    /// frame before anything is appended behind the damage. A torn last
    /// frame is simply cut off: its trials were never reported finished.
    /// Any other damage goes to `on_damage` first, which may refuse it or
    /// undo what the lost frames' trials let another file record (a fabric
    /// worker resets its queue), before they are gone for good.
    ///
    /// # Errors
    /// An unreadable file, a file whose first frame is not a checkpoint
    /// frame of this version, a log (or one frame of it) from another
    /// sweep, `on_damage`'s error, or the compaction write. A refused file
    /// is left as it was.
    pub(crate) fn resume<E: From<CheckpointError>>(
        path: &Path,
        fingerprint: u64,
        total_trials: u64,
        checkpoint_every: u64,
        on_damage: impl FnOnce(CheckpointError) -> Result<(), E>,
    ) -> Result<(Self, Vec<(u64, SimResult)>), E> {
        let log = CheckpointLog::new(path, fingerprint, total_trials, checkpoint_every);
        let bytes = match frame::load(path) {
            Ok(bytes) => bytes,
            Err(FrameError::Io {
                kind: io::ErrorKind::NotFound,
                ..
            }) => return Ok((log, Vec::new())),
            Err(e) => return Err(CheckpointError::from(e).into()),
        };
        let (intact, damage) = Checkpoint::decode_salvage(&bytes);
        if let Some(ck) = &intact {
            ck.validate_for(fingerprint, total_trials)?;
        }
        // Decoding gave each result its only reference, so each moves out
        // of its `Arc` without a copy.
        let completed: Vec<(u64, SimResult)> = intact
            .into_iter()
            .flat_map(|ck| ck.completed)
            .filter_map(|(trial, result)| Some((trial, Arc::into_inner(result)?)))
            .collect();
        match damage {
            None => return Ok((log, completed)),
            Some(e) if is_torn(&bytes, &e) => {}
            Some(
                e @ (CheckpointError::ConfigMismatch { .. }
                | CheckpointError::TrialCountMismatch { .. }
                | CheckpointError::Frame(
                    FrameError::BadMagic { at: 0 }
                    | FrameError::UnsupportedVersion { at: 0, .. }
                    | FrameError::TooShort { at: 0, .. },
                )),
            ) => return Err(e.into()),
            Some(e) => on_damage(e)?,
        }
        drop(bytes);
        let entries = completed.iter().map(|(trial, result)| (*trial, result));
        let bytes = encode_frame(fingerprint, total_trials, entries, encode_sim_result);
        frame::lock(path)
            .and_then(|lock| lock.write(&bytes))
            .map_err(CheckpointError::from)?;
        Ok((log, completed))
    }

    /// Records a finished trial for the next frame, and appends that frame
    /// once the cadence is reached. Returns whether it appended.
    ///
    /// # Errors
    /// As [`CheckpointLog::append`].
    pub(crate) fn push(&mut self, trial: u64, result: &SimResult) -> Result<bool, CheckpointError> {
        let mut w = Writer::new();
        encode_sim_result(&mut w, result);
        self.pending.push((trial, w.into_bytes()));
        if self.pending.len() < self.every {
            return Ok(false);
        }
        self.append()
    }

    /// Writes the recorded trials as one frame, in trial order, and fsyncs
    /// it. Returns whether there was anything to write.
    ///
    /// # Errors
    /// [`CheckpointError::Frame`] with the failing path and OS error.
    pub(crate) fn append(&mut self) -> Result<bool, CheckpointError> {
        if self.pending.is_empty() {
            return Ok(false);
        }
        self.pending.sort_unstable_by_key(|&(trial, _)| trial);
        let entries = self
            .pending
            .iter()
            .map(|(trial, bytes)| (*trial, &bytes[..]));
        let bytes = encode_frame(
            self.fingerprint,
            self.total_trials,
            entries,
            Writer::put_bytes,
        );
        frame::append(&self.path, &bytes)?;
        self.pending.clear();
        Ok(true)
    }
}

// ---------------------------------------------------------------------------
// SimResult codec.
// ---------------------------------------------------------------------------

/// Player-row flag: `satisfied_round` is present.
const SATISFIED: u8 = 1;
/// Player-row flag: `crash_round` is present.
const CRASHED: u8 = 1 << 1;
/// Player-row flag: `cost_paid` is `probes as f64`, bit for bit, and is not
/// written.
const COST_IS_PROBES: u8 = 1 << 2;

/// Writes one player row: flags, then the fields in struct order, each
/// optional one only when its flag is set (see the module docs).
fn put_player(w: &mut Writer, p: &PlayerOutcome) {
    let cost_is_probes = p.cost_paid.to_bits() == (p.probes as f64).to_bits();
    let flags = (u8::from(p.satisfied_round.is_some()) * SATISFIED)
        | (u8::from(p.crash_round.is_some()) * CRASHED)
        | (u8::from(cost_is_probes) * COST_IS_PROBES);
    w.put_u8(flags);
    w.put_varint(p.probes);
    if !cost_is_probes {
        w.put_f64(p.cost_paid);
    }
    if let Some(Round(round)) = p.satisfied_round {
        w.put_varint(round);
    }
    w.put_varint(p.advice_probes);
    w.put_varint(p.explore_probes);
    if let Some(Round(round)) = p.crash_round {
        w.put_varint(round);
    }
}

/// Reads a row written by [`put_player`], accepting only the encoding it
/// writes.
fn read_player(r: &mut Reader<'_>) -> Result<PlayerOutcome, CodecError> {
    let at = r.position();
    let flags = r.u8()?;
    if flags & !(SATISFIED | CRASHED | COST_IS_PROBES) != 0 {
        return Err(CodecError::BadTag {
            at,
            tag: flags,
            what: "player flags",
        });
    }
    let probes = r.varint()?;
    let probes_cost = probes as f64;
    let cost_paid = if flags & COST_IS_PROBES != 0 {
        probes_cost
    } else {
        let at = r.position();
        let cost = r.f64()?;
        if cost.to_bits() == probes_cost.to_bits() {
            return Err(CodecError::NonCanonical {
                at,
                what: "cost_paid",
            });
        }
        cost
    };
    let satisfied_round = (flags & SATISFIED != 0)
        .then(|| r.varint().map(Round))
        .transpose()?;
    let advice_probes = r.varint()?;
    let explore_probes = r.varint()?;
    let crash_round = (flags & CRASHED != 0)
        .then(|| r.varint().map(Round))
        .transpose()?;
    Ok(PlayerOutcome {
        probes,
        cost_paid,
        satisfied_round,
        advice_probes,
        explore_probes,
        crash_round,
    })
}

/// Encodes one [`SimResult`] field-for-field (every field, including the
/// optional trace — the determinism oracles compare full results, so the
/// checkpoint must preserve everything `PartialEq` sees, and every `f64`
/// bit for bit). Each player row is a flags byte and varints, as the
/// module docs lay out; every other field is fixed-width.
pub fn encode_sim_result(w: &mut Writer, r: &SimResult) {
    w.put_u64(r.rounds);
    w.put_bool(r.all_satisfied);
    w.put_u64(r.players.len() as u64);
    for p in &r.players {
        put_player(w, p);
    }
    w.put_u64(r.satisfied_per_round.len() as u64);
    for &s in &r.satisfied_per_round {
        w.put_u32(s);
    }
    w.put_u64(r.posts_total as u64);
    w.put_u64(r.forged_rejected);
    w.put_u64(r.notes.len() as u64);
    for (key, value) in &r.notes {
        w.put_str(key);
        w.put_f64(*value);
    }
    match &r.final_eval {
        None => w.put_u8(0),
        Some(eval) => {
            w.put_u8(1);
            w.put_u64(eval.found_good.len() as u64);
            for &g in &eval.found_good {
                w.put_bool(g);
            }
            w.put_f64(eval.success_fraction);
        }
    }
    w.put_u64(r.faults.posts_dropped);
    w.put_u64(r.faults.crashes);
    w.put_u64(r.faults.recoveries);
    match &r.trace {
        None => w.put_u8(0),
        Some(trace) => {
            w.put_u8(1);
            w.put_u64(trace.len() as u64);
            for event in trace {
                encode_trace_event(w, event);
            }
        }
    }
}

fn encode_trace_event(w: &mut Writer, e: &TraceEvent) {
    match *e {
        TraceEvent::RoundStart {
            round,
            active_honest,
        } => {
            w.put_u8(0);
            w.put_u64(round.0);
            w.put_u32(active_honest);
        }
        TraceEvent::Probe {
            round,
            player,
            object,
            via_advice,
            good,
        } => {
            w.put_u8(1);
            w.put_u64(round.0);
            w.put_u32(player.0);
            w.put_u32(object.0);
            w.put_bool(via_advice);
            w.put_bool(good);
        }
        TraceEvent::Satisfied {
            round,
            player,
            object,
        } => {
            w.put_u8(2);
            w.put_u64(round.0);
            w.put_u32(player.0);
            w.put_u32(object.0);
        }
        TraceEvent::AdversaryPosts { round, count } => {
            w.put_u8(3);
            w.put_u64(round.0);
            w.put_u32(count);
        }
        TraceEvent::PostDropped {
            round,
            player,
            object,
        } => {
            w.put_u8(4);
            w.put_u64(round.0);
            w.put_u32(player.0);
            w.put_u32(object.0);
        }
        TraceEvent::PlayerCrashed { round, player } => {
            w.put_u8(5);
            w.put_u64(round.0);
            w.put_u32(player.0);
        }
        TraceEvent::PlayerRecovered { round, player } => {
            w.put_u8(6);
            w.put_u64(round.0);
            w.put_u32(player.0);
        }
    }
}

/// Decodes one [`SimResult`] written by [`encode_sim_result`].
///
/// # Errors
/// [`CodecError`] on any malformed byte, including a player row that is
/// not in its canonical encoding; total over arbitrary input.
pub fn decode_sim_result(r: &mut Reader<'_>) -> Result<SimResult, CodecError> {
    let rounds = r.u64()?;
    let all_satisfied = r.bool()?;
    // A row is at least its flags byte and three one-byte varints.
    let n_players = r.seq_len(4)?;
    let mut players = Vec::with_capacity(n_players);
    for _ in 0..n_players {
        players.push(read_player(r)?);
    }
    let n_rounds = r.seq_len(4)?;
    let mut satisfied_per_round = Vec::with_capacity(n_rounds);
    for _ in 0..n_rounds {
        satisfied_per_round.push(r.u32()?);
    }
    let posts_total = usize::try_from(r.u64()?).map_err(|_| CodecError::LengthOverflow {
        at: r.position(),
        len: u64::MAX,
    })?;
    let forged_rejected = r.u64()?;
    let n_notes = r.seq_len(8 + 8)?;
    let mut notes = Vec::with_capacity(n_notes);
    for _ in 0..n_notes {
        let key = r.str()?;
        let value = r.f64()?;
        notes.push((key, value));
    }
    let final_eval = {
        let at = r.position();
        match r.u8()? {
            0 => None,
            1 => {
                let n = r.seq_len(1)?;
                let mut found_good = Vec::with_capacity(n);
                for _ in 0..n {
                    found_good.push(r.bool()?);
                }
                let success_fraction = r.f64()?;
                Some(FinalEval {
                    found_good,
                    success_fraction,
                })
            }
            tag => {
                return Err(CodecError::BadTag {
                    at,
                    tag,
                    what: "final_eval option",
                })
            }
        }
    };
    let faults = FaultCounters {
        posts_dropped: r.u64()?,
        crashes: r.u64()?,
        recoveries: r.u64()?,
    };
    let trace = {
        let at = r.position();
        match r.u8()? {
            0 => None,
            1 => {
                let n = r.seq_len(1 + 8)?;
                let mut events = Vec::with_capacity(n);
                for _ in 0..n {
                    events.push(decode_trace_event(r)?);
                }
                Some(events)
            }
            tag => {
                return Err(CodecError::BadTag {
                    at,
                    tag,
                    what: "trace option",
                })
            }
        }
    };
    Ok(SimResult {
        rounds,
        all_satisfied,
        players,
        satisfied_per_round,
        posts_total,
        forged_rejected,
        notes,
        final_eval,
        faults,
        trace,
    })
}

fn decode_trace_event(r: &mut Reader<'_>) -> Result<TraceEvent, CodecError> {
    let at = r.position();
    Ok(match r.u8()? {
        0 => TraceEvent::RoundStart {
            round: Round(r.u64()?),
            active_honest: r.u32()?,
        },
        1 => TraceEvent::Probe {
            round: Round(r.u64()?),
            player: PlayerId(r.u32()?),
            object: ObjectId(r.u32()?),
            via_advice: r.bool()?,
            good: r.bool()?,
        },
        2 => TraceEvent::Satisfied {
            round: Round(r.u64()?),
            player: PlayerId(r.u32()?),
            object: ObjectId(r.u32()?),
        },
        3 => TraceEvent::AdversaryPosts {
            round: Round(r.u64()?),
            count: r.u32()?,
        },
        4 => TraceEvent::PostDropped {
            round: Round(r.u64()?),
            player: PlayerId(r.u32()?),
            object: ObjectId(r.u32()?),
        },
        5 => TraceEvent::PlayerCrashed {
            round: Round(r.u64()?),
            player: PlayerId(r.u32()?),
        },
        6 => TraceEvent::PlayerRecovered {
            round: Round(r.u64()?),
            player: PlayerId(r.u32()?),
        },
        tag => {
            return Err(CodecError::BadTag {
                at,
                tag,
                what: "trace event",
            })
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_result(seed: u64) -> SimResult {
        SimResult {
            rounds: 10 + seed,
            all_satisfied: seed.is_multiple_of(2),
            players: vec![
                PlayerOutcome {
                    probes: 3,
                    cost_paid: 3.5,
                    satisfied_round: Some(Round(2)),
                    advice_probes: 1,
                    explore_probes: 2,
                    crash_round: None,
                },
                PlayerOutcome {
                    probes: 7,
                    cost_paid: 0.25 * seed as f64,
                    satisfied_round: None,
                    advice_probes: 0,
                    explore_probes: 7,
                    crash_round: Some(Round(4)),
                },
            ],
            satisfied_per_round: vec![0, 1, 1, 2],
            posts_total: 19,
            forged_rejected: 2,
            notes: vec![("iterations".into(), 3.0), ("α-guess".into(), 0.5)],
            final_eval: Some(FinalEval {
                found_good: vec![true, false],
                success_fraction: 0.5,
            }),
            faults: FaultCounters {
                posts_dropped: 1,
                crashes: 1,
                recoveries: 0,
            },
            trace: Some(vec![
                TraceEvent::RoundStart {
                    round: Round(0),
                    active_honest: 2,
                },
                TraceEvent::Probe {
                    round: Round(0),
                    player: PlayerId(0),
                    object: ObjectId(5),
                    via_advice: true,
                    good: false,
                },
                TraceEvent::Satisfied {
                    round: Round(2),
                    player: PlayerId(0),
                    object: ObjectId(1),
                },
                TraceEvent::AdversaryPosts {
                    round: Round(1),
                    count: 4,
                },
                TraceEvent::PostDropped {
                    round: Round(1),
                    player: PlayerId(1),
                    object: ObjectId(3),
                },
                TraceEvent::PlayerCrashed {
                    round: Round(4),
                    player: PlayerId(1),
                },
                TraceEvent::PlayerRecovered {
                    round: Round(5),
                    player: PlayerId(1),
                },
            ]),
        }
    }

    fn sample_checkpoint() -> Checkpoint {
        Checkpoint {
            fingerprint: 0xFEED_FACE_CAFE_BEEF,
            total_trials: 8,
            completed: vec![
                (0, Arc::new(sample_result(0))),
                (2, Arc::new(sample_result(2))),
                (5, Arc::new(sample_result(5))),
            ],
        }
    }

    /// Results a log resumed, as a checkpoint holds them.
    fn shared(results: Vec<(u64, SimResult)>) -> Vec<(u64, Arc<SimResult>)> {
        results.into_iter().map(|(t, r)| (t, Arc::new(r))).collect()
    }

    #[test]
    fn round_trip_is_identity() {
        let ck = sample_checkpoint();
        let decoded = Checkpoint::decode(&ck.encode()).unwrap();
        assert_eq!(decoded, ck);
    }

    #[test]
    fn nan_costs_round_trip_bit_identically() {
        let mut ck = sample_checkpoint();
        Arc::make_mut(&mut ck.completed[0].1).players[0].cost_paid = f64::NAN;
        let bytes = ck.encode();
        let decoded = Checkpoint::decode(&bytes).unwrap();
        // NaN != NaN defeats PartialEq; compare at the bit level via re-encode.
        assert_eq!(decoded.encode(), bytes);
        assert!(decoded.completed[0].1.players[0].cost_paid.is_nan());
    }

    /// A player row decodes only from the bytes its encoder writes: unknown
    /// flag bits, and raw cost bits that flag bit 2 stands for, are typed
    /// errors.
    #[test]
    fn non_canonical_player_rows_are_typed_errors() {
        // probes 3, advice 1, explore 2; raw cost bits when given.
        let row = |flags: u8, cost: Option<f64>| {
            let mut w = Writer::new();
            w.put_u8(flags);
            w.put_varint(3);
            if let Some(cost) = cost {
                w.put_f64(cost);
            }
            w.put_varint(1);
            w.put_varint(2);
            w.into_bytes()
        };
        let read = |bytes: &[u8]| read_player(&mut Reader::new(bytes));
        assert_eq!(read(&row(COST_IS_PROBES, None)).unwrap().cost_paid, 3.0);
        assert_eq!(read(&row(0, Some(3.5))).unwrap().cost_paid, 3.5);
        for bit in 3..8 {
            let flags = COST_IS_PROBES | 1 << bit;
            assert_eq!(
                read(&row(flags, None)),
                Err(CodecError::BadTag {
                    at: 0,
                    tag: flags,
                    what: "player flags",
                })
            );
        }
        assert_eq!(
            read(&row(0, Some(3.0))),
            Err(CodecError::NonCanonical {
                at: 2,
                what: "cost_paid",
            })
        );
    }

    #[test]
    fn semantic_corruption_is_typed() {
        // Out-of-order and out-of-range trials are rebuilt with a correct
        // checksum so decode reaches the semantic checks.
        let mut ck = sample_checkpoint();
        ck.completed.swap(0, 1);
        assert!(matches!(
            Checkpoint::decode(&ck.encode()),
            Err(CheckpointError::OutOfOrder { .. })
        ));

        let mut ck = sample_checkpoint();
        ck.completed[2].0 = 8; // == total_trials
        assert!(matches!(
            Checkpoint::decode(&ck.encode()),
            Err(CheckpointError::TrialOutOfRange { trial: 8, total: 8 })
        ));
    }

    #[test]
    fn validate_for_checks_fingerprint_and_count() {
        let ck = sample_checkpoint();
        assert!(ck.validate_for(ck.fingerprint, ck.total_trials).is_ok());
        assert!(matches!(
            ck.validate_for(1, ck.total_trials),
            Err(CheckpointError::ConfigMismatch { .. })
        ));
        assert!(matches!(
            ck.validate_for(ck.fingerprint, 9),
            Err(CheckpointError::TrialCountMismatch {
                stored: 8,
                expected: 9
            })
        ));
    }

    #[test]
    fn atomic_write_then_load() {
        let dir = std::env::temp_dir().join(format!("distill-ckpt-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep.ckpt");
        let ck = sample_checkpoint();
        ck.write_atomic(&path).unwrap();
        // No scratch file may survive the rename; the lock file stays.
        assert!(path.exists() && dir.join("sweep.ckpt.lock").exists());
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 2);
        let loaded = Checkpoint::load(&path).unwrap();
        assert_eq!(loaded, ck);
        // Overwrite with different contents; load sees the new snapshot.
        let mut ck2 = ck.clone();
        ck2.completed.pop();
        ck2.write_atomic(&path).unwrap();
        assert_eq!(Checkpoint::load(&path).unwrap(), ck2);
        std::fs::remove_dir_all(&dir).ok();
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("distill-ckpt-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A log appends one sorted frame per cadence and holds exactly the
    /// checkpoint's trials; creating a log removes a stale file.
    #[test]
    fn log_appends_one_frame_per_write() {
        let dir = scratch("log");
        let path = dir.join("sweep.ckpt");
        std::fs::write(&path, b"stale").unwrap();
        let ck = sample_checkpoint();
        let mut log = CheckpointLog::create(&path, ck.fingerprint, ck.total_trials, 2).unwrap();
        assert!(!path.exists());
        assert!(!log.append().unwrap(), "nothing pending, nothing written");
        let push = |log: &mut CheckpointLog, i: usize| {
            let (trial, result) = &ck.completed[i];
            log.push(*trial, result).unwrap()
        };
        assert!(!push(&mut log, 2), "below the cadence");
        assert!(push(&mut log, 0), "the cadence appends");
        assert!(!push(&mut log, 1));
        assert!(log.append().unwrap());
        let frame = |completed: Vec<(u64, Arc<SimResult>)>| {
            Checkpoint {
                completed,
                ..ck.clone()
            }
            .encode()
        };
        let expected = [
            frame(vec![ck.completed[0].clone(), ck.completed[2].clone()]),
            frame(vec![ck.completed[1].clone()]),
        ]
        .concat();
        assert_eq!(std::fs::read(&path).unwrap(), expected);
        assert_eq!(Checkpoint::load(&path).unwrap(), ck);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Writes `ck` as a log of one frame per trial and returns its bytes.
    fn write_log(path: &Path, ck: &Checkpoint) -> Vec<u8> {
        let mut log = CheckpointLog::create(path, ck.fingerprint, ck.total_trials, 1).unwrap();
        for (trial, result) in &ck.completed {
            assert!(log.push(*trial, result).unwrap());
        }
        std::fs::read(path).unwrap()
    }

    /// `on_damage` for damage that must not reach it.
    fn unreachable(e: CheckpointError) -> Result<(), CheckpointError> {
        panic!("on_damage called for {e:?}")
    }

    /// Resuming a log whose last frame a crash tore keeps the whole frames,
    /// compacts them into one without calling `on_damage`, and appends
    /// after it; `load_after_crash` reads the torn log the same way.
    #[test]
    fn resume_cuts_off_a_torn_last_frame() {
        let dir = scratch("torn");
        let path = dir.join("sweep.ckpt");
        let ck = sample_checkpoint();
        let (fp, total) = (ck.fingerprint, ck.total_trials);
        let whole = write_log(&path, &ck);
        std::fs::write(&path, &whole[..whole.len() - 7]).unwrap();
        let kept = Checkpoint {
            completed: ck.completed[..2].to_vec(),
            ..ck.clone()
        };
        assert_eq!(
            Checkpoint::load_after_crash(&path).unwrap(),
            Some(kept.clone())
        );

        let (mut log, resumed) = CheckpointLog::resume(&path, fp, total, 1, unreachable).unwrap();
        assert_eq!(shared(resumed), kept.completed);
        assert_eq!(std::fs::read(&path).unwrap(), kept.encode());
        assert!(log.push(ck.completed[2].0, &ck.completed[2].1).unwrap());
        assert_eq!(Checkpoint::load(&path).unwrap(), ck);

        // An intact log resumes as it is.
        let (_, resumed) = CheckpointLog::resume(&path, fp, total, 1, unreachable).unwrap();
        assert_eq!(shared(resumed), ck.completed);

        // A writer that died in its first append leaves no whole frame.
        for torn in [&whole[..0], &whole[..10], &whole[..40]] {
            std::fs::write(&path, torn).unwrap();
            assert_eq!(Checkpoint::load_after_crash(&path).unwrap(), None);
            let (_, resumed) = CheckpointLog::resume(&path, fp, total, 1, unreachable).unwrap();
            assert!(resumed.is_empty());
            assert_eq!(Checkpoint::load(&path).unwrap().completed, []);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Damage a crash cannot leave goes to `on_damage` while the damaged
    /// frames are still on disk, and is compacted only if it agrees; a file
    /// that is not this version's checkpoint, or a log of another sweep, is
    /// refused without a call. A refused file keeps its bytes.
    #[test]
    fn resume_hands_other_damage_to_on_damage_and_refuses_foreign_files() {
        let dir = scratch("damage");
        let path = dir.join("sweep.ckpt");
        let ck = sample_checkpoint();
        let (fp, total) = (ck.fingerprint, ck.total_trials);
        let whole = write_log(&path, &ck);
        let frame0 = Checkpoint {
            completed: ck.completed[..1].to_vec(),
            ..ck.clone()
        }
        .encode();

        // A bit flip in the last frame, and the first frame's length field
        // raised so that it runs past the end of the file: both whole frames
        // that were damaged, not torn ones.
        let mut flipped = whole.clone();
        *flipped.last_mut().unwrap() ^= 1;
        let mut raised = whole.clone();
        raised[16] ^= 1;
        for (damaged, kept) in [(flipped, &ck.completed[..2]), (raised, &[][..])] {
            std::fs::write(&path, &damaged).unwrap();
            assert!(Checkpoint::load_after_crash(&path).is_err());
            let err = CheckpointLog::resume(&path, fp, total, 1, Err).unwrap_err();
            assert!(matches!(err, CheckpointError::Frame(_)), "{err:?}");
            assert_eq!(std::fs::read(&path).unwrap(), damaged);
            let mut seen = None;
            let (_, resumed) = CheckpointLog::resume(&path, fp, total, 1, |e| {
                assert_eq!(std::fs::read(&path).unwrap(), damaged);
                seen = Some(e);
                Ok::<(), CheckpointError>(())
            })
            .unwrap();
            assert!(seen.is_some());
            assert_eq!(shared(resumed), kept);
            assert_eq!(Checkpoint::load(&path).unwrap().completed, kept);
        }

        let mut newer = frame0.clone();
        newer[8..12].copy_from_slice(&(CHECKPOINT_VERSION + 1).to_le_bytes());
        let mut foreign_frame = whole.clone();
        foreign_frame.extend(
            Checkpoint {
                fingerprint: fp ^ 1,
                ..ck.clone()
            }
            .encode(),
        );
        for foreign in [
            b"junk".to_vec(),
            [b"DSTLLEAS".as_slice(), &frame0[8..]].concat(),
            newer,
            foreign_frame,
        ] {
            std::fs::write(&path, &foreign).unwrap();
            assert!(CheckpointLog::resume(&path, fp, total, 1, unreachable).is_err());
            assert_eq!(std::fs::read(&path).unwrap(), foreign);
        }
        std::fs::write(&path, &whole[..whole.len() - 1]).unwrap();
        let err = CheckpointLog::resume(&path, fp ^ 1, total, 1, unreachable).unwrap_err();
        assert!(matches!(err, CheckpointError::ConfigMismatch { .. }));
        assert_eq!(std::fs::read(&path).unwrap().len(), whole.len() - 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_missing_file_is_io_error() {
        let err = Checkpoint::load(Path::new("/nonexistent/distill.ckpt")).unwrap_err();
        assert!(matches!(
            err,
            CheckpointError::Frame(FrameError::Io {
                kind: std::io::ErrorKind::NotFound,
                ..
            })
        ));
        assert!(err.to_string().contains("nonexistent"));
    }

    #[test]
    fn errors_render() {
        for e in [
            CheckpointError::Frame(FrameError::BadMagic { at: 0 }),
            CheckpointError::OutOfOrder { trial: 3 },
            CheckpointError::TrialOutOfRange { trial: 9, total: 8 },
            CheckpointError::ConfigMismatch {
                stored: 1,
                expected: 2,
            },
            CheckpointError::TrialCountMismatch {
                stored: 1,
                expected: 2,
            },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
