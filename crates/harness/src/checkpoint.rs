//! Versioned, checksummed sweep checkpoints with atomic writes.
//!
//! A checkpoint is a binary snapshot of sweep progress: the config
//! fingerprint, the total trial count, and every completed `(trial index,
//! SimResult)` pair. It is one [`crate::frame`] with magic `DSTLCKPT`,
//! whose payload is `fingerprint u64 | total_trials u64 | count u64 |
//! count × (trial u64, SimResult)` with trials strictly ascending. Decoding
//! is total: truncation, bit flips, version skew, and config mismatches all
//! yield a typed [`CheckpointError`] (property-tested in
//! `tests/checkpoint_corruption.rs`), never a panic and never a silently
//! wrong result — the checksum is verified before any payload byte is
//! interpreted.
//!
//! Writes are atomic (tmp, fsync, rename), so a process killed at any
//! instant leaves either the previous complete checkpoint or the new one on
//! disk, never a torn hybrid — at worst an orphaned scratch file, which
//! [`Checkpoint::load`] sweeps before reading.

use crate::codec::{CodecError, Reader, Writer};
use crate::frame::{self, FrameError};
use distill_billboard::{ObjectId, PlayerId, Round};
use distill_sim::{FaultCounters, FinalEval, PlayerOutcome, SimResult, TraceEvent};
use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

/// File magic: identifies a distill sweep checkpoint.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"DSTLCKPT";

/// Current checkpoint format version. Bump on any layout change; old
/// versions are rejected with [`FrameError::UnsupportedVersion`] rather
/// than misread.
pub const CHECKPOINT_VERSION: u32 = 1;

/// Why a checkpoint could not be loaded or does not match the sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The file could not be read or written, or its frame is damaged.
    Frame(FrameError),
    /// Completed-trial indices are not strictly ascending.
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
    /// The checkpoint was written by a sweep with a different configuration.
    ConfigMismatch {
        /// Fingerprint stored in the checkpoint.
        stored: u64,
        /// Fingerprint of the sweep attempting to resume.
        expected: u64,
    },
    /// The checkpoint was written for a different trial count.
    TrialCountMismatch {
        /// Count stored in the checkpoint.
        stored: u64,
        /// Count of the sweep attempting to resume.
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
    /// Completed trials, strictly ascending by index.
    pub completed: Vec<(u64, SimResult)>,
}

/// The one checkpoint encoder: [`Checkpoint::encode`] and
/// [`write_completed`] both go through it, so a sweep's live result map is
/// written without first cloning it into a [`Checkpoint`].
fn encode_completed<'a>(
    fingerprint: u64,
    total_trials: u64,
    completed: impl ExactSizeIterator<Item = (&'a u64, &'a SimResult)>,
) -> Vec<u8> {
    frame::encode(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, |w| {
        w.put_u64(fingerprint);
        w.put_u64(total_trials);
        w.put_u64(completed.len() as u64);
        for (trial, result) in completed {
            w.put_u64(*trial);
            encode_sim_result(w, result);
        }
    })
}

/// Writes the checkpoint of a sweep's completed-result map atomically —
/// the same bytes as [`Checkpoint::write_atomic`] on the equivalent
/// [`Checkpoint`], without copying a result.
///
/// # Errors
/// [`CheckpointError::Frame`] with the failing path and OS error.
pub fn write_completed(
    path: &Path,
    fingerprint: u64,
    total_trials: u64,
    completed: &BTreeMap<u64, SimResult>,
) -> Result<(), CheckpointError> {
    let bytes = encode_completed(fingerprint, total_trials, completed.iter());
    Ok(frame::write_atomic(path, &bytes)?)
}

impl Checkpoint {
    /// Encodes the checkpoint to its on-disk byte layout.
    pub fn encode(&self) -> Vec<u8> {
        let completed = self.completed.iter().map(|(trial, result)| (trial, result));
        encode_completed(self.fingerprint, self.total_trials, completed)
    }

    /// Decodes a checkpoint; the frame is verified before a single payload
    /// byte is interpreted.
    ///
    /// # Errors
    /// Every corruption mode maps to a [`CheckpointError`] variant; no input
    /// can cause a panic.
    pub fn decode(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let ck = frame::decode_one(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, bytes, |r| {
            let fingerprint = r.u64()?;
            let total_trials = r.u64()?;
            let count = r.seq_len(8)?;
            let mut completed = Vec::with_capacity(count);
            for _ in 0..count {
                completed.push((r.u64()?, decode_sim_result(r)?));
            }
            Ok(Checkpoint {
                fingerprint,
                total_trials,
                completed,
            })
        })?;
        let mut prev: Option<u64> = None;
        for &(trial, _) in &ck.completed {
            if prev.is_some_and(|p| trial <= p) {
                return Err(CheckpointError::OutOfOrder { trial });
            }
            if trial >= ck.total_trials {
                return Err(CheckpointError::TrialOutOfRange {
                    trial,
                    total: ck.total_trials,
                });
            }
            prev = Some(trial);
        }
        Ok(ck)
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

    /// Loads and decodes a checkpoint file after sweeping a killed writer's
    /// scratch files (see [`frame::load`]).
    ///
    /// # Errors
    /// I/O failures surface as [`FrameError::Io`] (kind `NotFound` for a
    /// missing file); corrupt contents as the corresponding decode variant.
    pub fn load(path: &Path) -> Result<Self, CheckpointError> {
        Checkpoint::decode(&frame::load(path)?)
    }

    /// Writes the checkpoint atomically: a crash at any point leaves either
    /// the old or the new complete file, never a torn one.
    ///
    /// # Errors
    /// [`CheckpointError::Frame`] with the failing path and OS error.
    pub fn write_atomic(&self, path: &Path) -> Result<(), CheckpointError> {
        Ok(frame::write_atomic(path, &self.encode())?)
    }
}

// ---------------------------------------------------------------------------
// SimResult codec.
// ---------------------------------------------------------------------------

fn put_opt_u64(w: &mut Writer, v: Option<u64>) {
    match v {
        None => w.put_u8(0),
        Some(x) => {
            w.put_u8(1);
            w.put_u64(x);
        }
    }
}

fn get_opt_u64(r: &mut Reader<'_>) -> Result<Option<u64>, CodecError> {
    let at = r.position();
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.u64()?)),
        tag => Err(CodecError::BadTag {
            at,
            tag,
            what: "option",
        }),
    }
}

/// Encodes one [`SimResult`] field-for-field (every field, including the
/// optional trace — the determinism oracles compare full results, so the
/// checkpoint must preserve everything `PartialEq` sees).
pub fn encode_sim_result(w: &mut Writer, r: &SimResult) {
    w.put_u64(r.rounds);
    w.put_bool(r.all_satisfied);
    w.put_u64(r.players.len() as u64);
    for p in &r.players {
        w.put_u64(p.probes);
        w.put_f64(p.cost_paid);
        put_opt_u64(w, p.satisfied_round.map(|r| r.0));
        w.put_u64(p.advice_probes);
        w.put_u64(p.explore_probes);
        put_opt_u64(w, p.crash_round.map(|r| r.0));
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

/// Decodes one [`SimResult`].
///
/// # Errors
/// [`CodecError`] on any malformed byte; total over arbitrary input.
pub fn decode_sim_result(r: &mut Reader<'_>) -> Result<SimResult, CodecError> {
    let rounds = r.u64()?;
    let all_satisfied = r.bool()?;
    let n_players = r.seq_len(8 + 8 + 1 + 8 + 8 + 1)?;
    let mut players = Vec::with_capacity(n_players);
    for _ in 0..n_players {
        let probes = r.u64()?;
        let cost_paid = r.f64()?;
        let satisfied_round = get_opt_u64(r)?.map(Round);
        let advice_probes = r.u64()?;
        let explore_probes = r.u64()?;
        let crash_round = get_opt_u64(r)?.map(Round);
        players.push(PlayerOutcome {
            probes,
            cost_paid,
            satisfied_round,
            advice_probes,
            explore_probes,
            crash_round,
        });
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
            all_satisfied: seed % 2 == 0,
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
                (0, sample_result(0)),
                (2, sample_result(2)),
                (5, sample_result(5)),
            ],
        }
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
        ck.completed[0].1.players[0].cost_paid = f64::NAN;
        let bytes = ck.encode();
        let decoded = Checkpoint::decode(&bytes).unwrap();
        // NaN != NaN defeats PartialEq; compare at the bit level via re-encode.
        assert_eq!(decoded.encode(), bytes);
        assert!(decoded.completed[0].1.players[0].cost_paid.is_nan());
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
        // No scratch file may survive the rename.
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        let loaded = Checkpoint::load(&path).unwrap();
        assert_eq!(loaded, ck);
        // Overwrite with different contents; load sees the new snapshot.
        let mut ck2 = ck.clone();
        ck2.completed.pop();
        ck2.write_atomic(&path).unwrap();
        assert_eq!(Checkpoint::load(&path).unwrap(), ck2);
        // The result-map writer emits exactly the bytes of `encode`.
        let map: BTreeMap<u64, SimResult> = ck.completed.iter().cloned().collect();
        write_completed(&path, ck.fingerprint, ck.total_trials, &map).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), ck.encode());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A writer killed between creating its scratch file and renaming it
    /// leaves an orphan; the next load reclaims it and still reads the
    /// intact previous checkpoint.
    #[test]
    fn load_sweeps_orphaned_tmp_from_killed_writer() {
        let dir = std::env::temp_dir().join(format!("distill-ckpt-orphan-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep.ckpt");
        let ck = sample_checkpoint();
        ck.write_atomic(&path).unwrap();
        // Crash debris: a dead writer's pid-suffixed scratch and a legacy
        // fixed-name one, both torn mid-write.
        let orphan_a = dir.join("sweep.ckpt.tmp.999999999");
        let orphan_b = dir.join("sweep.ckpt.tmp");
        std::fs::write(&orphan_a, &ck.encode()[..20]).unwrap();
        std::fs::write(&orphan_b, b"garbage").unwrap();
        assert_eq!(Checkpoint::load(&path).unwrap(), ck);
        assert!(!orphan_a.exists(), "orphaned scratch must be reclaimed");
        assert!(!orphan_b.exists(), "legacy orphan must be reclaimed");
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
