//! Set-union merge of per-worker checkpoints.
//!
//! Each worker in a multi-process sweep checkpoints only the trials *it*
//! ran. The fabric's correctness story is that the union of those partial
//! checkpoints equals an uninterrupted single-process sweep: trials are
//! pure functions of their index, so a trial that two workers both ran
//! (a reclaimed lease whose original owner was not actually dead, or plain
//! duplicated work) contributes the same bits from either side and the
//! union is well defined. [`merge_checkpoints`] computes that union and
//! *verifies* the purity assumption: if two checkpoints disagree on a
//! trial's encoded result, the merge refuses with
//! [`MergeError::Conflict`] rather than silently picking a side — a
//! conflict means determinism is broken (or a checkpoint belongs to a
//! different sweep and slipped past the fingerprint check), which must
//! never be papered over.
//!
//! The output is canonical: completed trials sorted strictly ascending,
//! exactly the order [`Checkpoint::encode`] demands — so any set of
//! workers whose partial results cover the same trials produce
//! bit-identical merged files no matter the merge order. That is what the
//! cluster-crash CI job diffs against a single-process reference sweep.
//!
//! The output shares each result with the part it came from: the merge
//! clones an [`Arc`], never a [`SimResult`], so a merged checkpoint costs
//! one pointer per trial beside the parts that are still held.

use crate::checkpoint::{encode_sim_result, Checkpoint};
use crate::codec::Writer;
use distill_sim::SimResult;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Why per-worker checkpoints could not be merged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeError {
    /// No checkpoints were given — there is nothing to define the sweep.
    Empty,
    /// Two checkpoints carry different config fingerprints.
    ConfigMismatch {
        /// Fingerprint of the first checkpoint.
        first: u64,
        /// The disagreeing fingerprint.
        other: u64,
    },
    /// Two checkpoints cover different trial counts.
    TrialCountMismatch {
        /// Count in the first checkpoint.
        first: u64,
        /// The disagreeing count.
        other: u64,
    },
    /// Two checkpoints both completed a trial but with different results —
    /// the determinism guarantee is broken and the merge refuses to choose.
    Conflict {
        /// The trial whose results disagree.
        trial: u64,
    },
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::Empty => f.write_str("no checkpoints to merge"),
            MergeError::ConfigMismatch { first, other } => {
                write!(
                    f,
                    "checkpoints from different sweep configurations \
                     (fingerprints {first:#018x} and {other:#018x})"
                )
            }
            MergeError::TrialCountMismatch { first, other } => {
                write!(
                    f,
                    "checkpoints cover different trial counts ({first} and {other})"
                )
            }
            MergeError::Conflict { trial } => {
                write!(
                    f,
                    "trial {trial} has conflicting results across checkpoints \
                     (determinism violation)"
                )
            }
        }
    }
}

impl std::error::Error for MergeError {}

/// Canonical encoding of one result, used to compare racing writers'
/// contributions bit-for-bit (NaN-safe, unlike `PartialEq` on floats).
fn result_bytes(result: &SimResult) -> Vec<u8> {
    let mut w = Writer::new();
    encode_sim_result(&mut w, result);
    w.into_bytes()
}

/// Merges per-worker checkpoints by set-union on trial index.
///
/// All inputs must share one fingerprint and trial count. Duplicate trials
/// are verified bit-identical through the canonical result encoding, unless
/// both are the same shared result. The output checkpoint lists trials
/// strictly ascending, so the merge result is a pure function of the *set*
/// of completed trials — independent of input order, worker count, or how
/// the work was interleaved. Each output result is the first part's
/// [`Arc`] for that trial.
///
/// # Errors
/// [`MergeError::Empty`] with no inputs, the mismatch variants when inputs
/// belong to different sweeps, and [`MergeError::Conflict`] when duplicate
/// trials disagree.
pub fn merge_checkpoints(parts: &[Checkpoint]) -> Result<Checkpoint, MergeError> {
    let Some(first) = parts.first() else {
        return Err(MergeError::Empty);
    };
    for other in &parts[1..] {
        if other.fingerprint != first.fingerprint {
            return Err(MergeError::ConfigMismatch {
                first: first.fingerprint,
                other: other.fingerprint,
            });
        }
        if other.total_trials != first.total_trials {
            return Err(MergeError::TrialCountMismatch {
                first: first.total_trials,
                other: other.total_trials,
            });
        }
    }
    // The union borrows each trial's first occurrence; only a trial seen
    // again in another result is encoded.
    let mut union: BTreeMap<u64, &Arc<SimResult>> = BTreeMap::new();
    for part in parts {
        for (trial, result) in &part.completed {
            let first = *union.entry(*trial).or_insert(result);
            if !Arc::ptr_eq(first, result) && result_bytes(first) != result_bytes(result) {
                return Err(MergeError::Conflict { trial: *trial });
            }
        }
    }
    Ok(Checkpoint {
        fingerprint: first.fingerprint,
        total_trials: first.total_trials,
        completed: union.into_iter().map(|(t, r)| (t, Arc::clone(r))).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use distill_sim::{FaultCounters, SimResult};

    fn result(tag: u64) -> SimResult {
        SimResult {
            rounds: tag,
            all_satisfied: true,
            players: vec![],
            satisfied_per_round: vec![],
            posts_total: 0,
            forged_rejected: 0,
            notes: vec![("tag".into(), tag as f64)],
            final_eval: None,
            faults: FaultCounters {
                posts_dropped: 0,
                crashes: 0,
                recoveries: 0,
            },
            trace: None,
        }
    }

    fn part(trials: &[u64]) -> Checkpoint {
        Checkpoint {
            fingerprint: 0xABCD,
            total_trials: 10,
            completed: trials.iter().map(|&t| (t, Arc::new(result(t)))).collect(),
        }
    }

    /// Asserts that every merged result is the `Arc` of the first part
    /// holding its trial: the merge shared it rather than copying it.
    fn assert_shared(merged: &Checkpoint, parts: &[Checkpoint]) {
        for (trial, result) in &merged.completed {
            let (_, source) = parts
                .iter()
                .flat_map(|p| &p.completed)
                .find(|(t, _)| t == trial)
                .unwrap();
            assert!(Arc::ptr_eq(result, source), "trial {trial} was copied");
        }
    }

    #[test]
    fn union_of_disjoint_parts_is_canonical() {
        let a = part(&[0, 3, 7]);
        let b = part(&[1, 5]);
        let c = part(&[2, 9]);
        let parts = [a.clone(), b.clone(), c.clone()];
        let merged = merge_checkpoints(&parts).unwrap();
        assert_eq!(
            merged.completed.iter().map(|(t, _)| *t).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 5, 7, 9]
        );
        assert_shared(&merged, &parts);
        // Input order must not matter: byte-identical output either way.
        let reordered = merge_checkpoints(&[c, a, b]).unwrap();
        assert_eq!(merged.encode(), reordered.encode());
    }

    #[test]
    fn duplicates_with_identical_bits_union_cleanly() {
        let a = part(&[0, 1, 2]);
        let b = part(&[1, 2, 3]); // overlap from a reclaimed lease
        let parts = [a, b];
        let merged = merge_checkpoints(&parts).unwrap();
        assert_eq!(merged.completed.len(), 4);
        assert_shared(&merged, &parts);
    }

    #[test]
    fn nan_results_union_bit_identically() {
        let mut a = part(&[0]);
        Arc::make_mut(&mut a.completed[0].1).notes[0].1 = f64::NAN;
        let mut b = part(&[0, 1]);
        Arc::make_mut(&mut b.completed[0].1).notes[0].1 = f64::NAN;
        // PartialEq would say NaN != NaN; the canonical-bytes comparison
        // must recognise the results as identical.
        let parts = [a, b];
        let merged = merge_checkpoints(&parts).unwrap();
        assert_eq!(merged.completed.len(), 2);
        assert!(merged.completed[0].1.notes[0].1.is_nan());
        assert_shared(&merged, &parts);
    }

    #[test]
    fn conflicting_duplicates_are_refused() {
        let a = part(&[0, 1]);
        let mut b = part(&[1]);
        Arc::make_mut(&mut b.completed[0].1).rounds = 999; // determinism violation
        assert_eq!(
            merge_checkpoints(&[a, b]),
            Err(MergeError::Conflict { trial: 1 })
        );
    }

    #[test]
    fn mismatched_sweeps_are_refused() {
        assert_eq!(merge_checkpoints(&[]), Err(MergeError::Empty));
        let a = part(&[0]);
        let mut b = part(&[1]);
        b.fingerprint = 0x9999;
        assert!(matches!(
            merge_checkpoints(&[a.clone(), b]),
            Err(MergeError::ConfigMismatch { .. })
        ));
        let mut c = part(&[1]);
        c.total_trials = 11;
        assert!(matches!(
            merge_checkpoints(&[a, c]),
            Err(MergeError::TrialCountMismatch { .. })
        ));
    }

    #[test]
    fn single_part_round_trips() {
        let a = part(&[4, 6]);
        let merged = merge_checkpoints(std::slice::from_ref(&a)).unwrap();
        assert_eq!(merged, a);
        assert_shared(&merged, &[a]);
    }

    #[test]
    fn errors_render() {
        for e in [
            MergeError::Empty,
            MergeError::ConfigMismatch { first: 1, other: 2 },
            MergeError::TrialCountMismatch { first: 1, other: 2 },
            MergeError::Conflict { trial: 3 },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
