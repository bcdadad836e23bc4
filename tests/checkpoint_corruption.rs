//! Checkpoint files must never be trusted: truncated, bit-flipped,
//! wrong-version, and wrong-fingerprint inputs all have to produce a clean
//! typed [`CheckpointError`] — never a panic, never a silently-wrong
//! checkpoint. Property-tested over generated checkpoints and corruptions,
//! both as one frame and split into an appended log of frames. Beneath the
//! frame checksums, the result decoder accepts only canonical bytes.

use distill_billboard::{ObjectId, PlayerId, Round};
use distill_harness::checkpoint::{decode_sim_result, encode_sim_result};
use distill_harness::{
    Checkpoint, CheckpointError, FrameError, Reader, Writer, CHECKPOINT_VERSION,
};
use distill_sim::{FaultCounters, FinalEval, PlayerOutcome, SimResult, TraceEvent};
use proptest::prelude::*;
use std::sync::Arc;

/// A `u64` that is small (0..300, as most counts in a real sweep are), on a
/// varint length boundary, or anything, each about a third of the time.
fn arb_count() -> impl Strategy<Value = u64> {
    const EDGES: [u64; 5] = [127, 128, (1 << 63) - 1, 1 << 63, u64::MAX];
    (0u8..3, 0u64..300, 0usize..EDGES.len(), any::<u64>()).prop_map(|(kind, small, edge, v)| {
        match kind {
            0 => small,
            1 => EDGES[edge],
            _ => v,
        }
    })
}

/// `Some(v)` with probability ~1/2 (the vendored stub has no
/// `proptest::option::of`).
fn arb_opt_u64() -> impl Strategy<Value = Option<u64>> {
    (any::<bool>(), arb_count()).prop_map(|(some, v)| some.then_some(v))
}

/// An `f64` that is NaN about one draw in four, exercising the
/// bit-preserving float codec.
fn arb_f64_with_nan() -> impl Strategy<Value = f64> {
    (0u8..4, any::<f64>()).prop_map(|(k, v)| if k == 0 { f64::NAN } else { v * 100.0 - 50.0 })
}

/// A player row. Half the rows pay exactly their probe count (the cost the
/// row's flags byte stands in for), probe counts above 2^53 included; the
/// rest pay NaN, -0.0 with no probes (which is not `0 as f64` bit for bit),
/// or a random cost.
fn arb_player() -> impl Strategy<Value = PlayerOutcome> {
    (
        arb_count(),
        (0u8..6, any::<f64>()),
        arb_opt_u64(),
        arb_count(),
        arb_count(),
        arb_opt_u64(),
    )
        .prop_map(|(probes, (cost_kind, v), sat, advice, explore, crash)| {
            let (probes, cost_paid) = match cost_kind {
                0..=2 => (probes, probes as f64),
                3 => (probes, f64::NAN),
                4 => (0, -0.0),
                _ => (probes, v * 100.0 - 50.0),
            };
            PlayerOutcome {
                probes,
                cost_paid,
                satisfied_round: sat.map(Round),
                advice_probes: advice,
                explore_probes: explore,
                crash_round: crash.map(Round),
            }
        })
}

/// One of the seven trace-event variants, selected by tag (the vendored
/// stub has no `prop_oneof!`).
fn arb_trace_event() -> impl Strategy<Value = TraceEvent> {
    (
        0u8..7,
        any::<u64>(),
        any::<u32>(),
        any::<u32>(),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(tag, r, a, b, flag1, flag2)| {
            let round = Round(r);
            match tag {
                0 => TraceEvent::RoundStart {
                    round,
                    active_honest: a,
                },
                1 => TraceEvent::Probe {
                    round,
                    player: PlayerId(a),
                    object: ObjectId(b),
                    via_advice: flag1,
                    good: flag2,
                },
                2 => TraceEvent::Satisfied {
                    round,
                    player: PlayerId(a),
                    object: ObjectId(b),
                },
                3 => TraceEvent::AdversaryPosts { round, count: a },
                4 => TraceEvent::PostDropped {
                    round,
                    player: PlayerId(a),
                    object: ObjectId(b),
                },
                5 => TraceEvent::PlayerCrashed {
                    round,
                    player: PlayerId(a),
                },
                _ => TraceEvent::PlayerRecovered {
                    round,
                    player: PlayerId(a),
                },
            }
        })
}

fn arb_sim_result() -> impl Strategy<Value = SimResult> {
    (
        (
            any::<u64>(),
            any::<bool>(),
            proptest::collection::vec(arb_player(), 0..4),
            proptest::collection::vec(any::<u32>(), 0..6),
            any::<u64>(),
            any::<u64>(),
        ),
        (
            proptest::collection::vec((any::<u64>(), arb_f64_with_nan()), 0..3),
            (
                any::<bool>(),
                proptest::collection::vec(any::<bool>(), 0..5),
                any::<f64>(),
            ),
            (any::<u64>(), any::<u64>(), any::<u64>()),
            (
                any::<bool>(),
                proptest::collection::vec(arb_trace_event(), 0..5),
            ),
        ),
    )
        .prop_map(
            |(
                (rounds, all_satisfied, players, satisfied_per_round, posts_total, forged),
                (
                    raw_notes,
                    (has_eval, found_good, success_fraction),
                    counters,
                    (has_trace, events),
                ),
            )| SimResult {
                rounds,
                all_satisfied,
                players,
                satisfied_per_round,
                posts_total: posts_total as usize,
                forged_rejected: forged,
                notes: raw_notes
                    .into_iter()
                    .map(|(k, v)| (format!("note-β-{k:x}"), v))
                    .collect(),
                final_eval: has_eval.then_some(FinalEval {
                    found_good,
                    success_fraction,
                }),
                faults: FaultCounters {
                    posts_dropped: counters.0,
                    crashes: counters.1,
                    recoveries: counters.2,
                },
                trace: has_trace.then_some(events),
            },
        )
}

fn arb_checkpoint() -> impl Strategy<Value = Checkpoint> {
    (
        any::<u64>(),
        proptest::collection::vec(arb_sim_result(), 0..4),
        0u64..32,
    )
        .prop_map(|(fingerprint, results, extra)| {
            // Strictly ascending trial indices inside a valid total.
            let completed: Vec<(u64, Arc<SimResult>)> = results
                .into_iter()
                .enumerate()
                .map(|(i, r)| (2 * i as u64, Arc::new(r)))
                .collect();
            let max_trial = completed.last().map_or(0, |(t, _)| *t);
            Checkpoint {
                fingerprint,
                total_trials: max_trial + 1 + extra,
                completed,
            }
        })
}

/// Splits `ck` into a log of `frames` frames: entry `i` goes to frame
/// `assign[i] % frames`, so frames may be empty and may hold any subset in
/// any frame order.
fn split(ck: &Checkpoint, frames: usize, assign: &[u8]) -> Vec<Checkpoint> {
    let mut parts: Vec<Checkpoint> = (0..frames)
        .map(|_| Checkpoint {
            completed: Vec::new(),
            ..ck.clone()
        })
        .collect();
    for (i, entry) in ck.completed.iter().enumerate() {
        let j = usize::from(assign.get(i).copied().unwrap_or(0)) % frames;
        parts[j].completed.push(entry.clone());
    }
    parts
}

/// The appended log of `parts`, one frame each.
fn log_of(parts: &[Checkpoint]) -> Vec<u8> {
    parts.iter().flat_map(Checkpoint::encode).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Encode → decode is the identity at the byte level (NaN-safe: the
    /// comparison re-encodes rather than relying on `PartialEq`).
    #[test]
    fn round_trip_is_bit_identical(ck in arb_checkpoint()) {
        let bytes = ck.encode();
        let decoded = Checkpoint::decode(&bytes).expect("valid checkpoint must decode");
        prop_assert_eq!(decoded.encode(), bytes);
        prop_assert_eq!(decoded.fingerprint, ck.fingerprint);
        prop_assert_eq!(decoded.total_trials, ck.total_trials);
        prop_assert_eq!(decoded.completed.len(), ck.completed.len());
    }

    /// Any truncation yields a typed error, never a panic and never an Ok.
    #[test]
    fn truncation_is_a_typed_error(ck in arb_checkpoint(), frac in 0.0f64..1.0) {
        let bytes = ck.encode();
        let cut = ((bytes.len() as f64) * frac) as usize;
        prop_assume!(cut < bytes.len());
        let err = Checkpoint::decode(&bytes[..cut])
            .expect_err("truncated checkpoint must not decode");
        // Any variant is acceptable; the point is a clean typed error with
        // a human-readable rendering.
        prop_assert!(!err.to_string().is_empty());
    }

    /// Any single bit flip yields a typed error: header fields are
    /// validated and the payload is checksummed, so no flip can slip
    /// through as a silently different checkpoint.
    #[test]
    fn single_bit_flip_is_a_typed_error(ck in arb_checkpoint(), pos in any::<usize>(), bit in 0u8..8) {
        let mut bytes = ck.encode();
        let at = pos % bytes.len();
        bytes[at] ^= 1 << bit;
        let err = Checkpoint::decode(&bytes)
            .expect_err("bit-flipped checkpoint must not decode");
        prop_assert!(!err.to_string().is_empty());
    }

    /// Arbitrary bytes never panic the decoder.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = Checkpoint::decode(&bytes);
    }

    /// A checkpoint from a different config or trial count is rejected at
    /// validation, so `--resume` can never mix sweeps.
    #[test]
    fn wrong_fingerprint_or_count_is_rejected(ck in arb_checkpoint(), other in any::<u64>()) {
        prop_assume!(other != ck.fingerprint);
        let reloaded = Checkpoint::decode(&ck.encode()).expect("valid");
        // Bound to locals first: the vendored prop_assert! stringifies its
        // expression into a format string, where `{ .. }` is invalid.
        let config_mismatch = matches!(
            reloaded.validate_for(other, ck.total_trials),
            Err(CheckpointError::ConfigMismatch { .. })
        );
        prop_assert!(config_mismatch);
        let count_mismatch = matches!(
            reloaded.validate_for(ck.fingerprint, ck.total_trials + 1),
            Err(CheckpointError::TrialCountMismatch { .. })
        );
        prop_assert!(count_mismatch);
        prop_assert!(reloaded.validate_for(ck.fingerprint, ck.total_trials).is_ok());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any split of a checkpoint into appended frames, in any frame order,
    /// decodes to the same checkpoint: its one-frame encoding is the
    /// unsplit bytes.
    #[test]
    fn any_split_into_appended_frames_decodes_to_the_one_frame_checkpoint(
        ck in arb_checkpoint(),
        frames in 1usize..5,
        assign in proptest::collection::vec(any::<u8>(), 0..4),
    ) {
        let log = log_of(&split(&ck, frames, &assign));
        let decoded = Checkpoint::decode(&log).expect("an intact log must decode");
        prop_assert_eq!(decoded.encode(), ck.encode());
        let (salvaged, damage) = Checkpoint::decode_salvage(&log);
        prop_assert!(damage.is_none());
        prop_assert_eq!(salvaged.map(|ck| ck.encode()), Some(ck.encode()));
    }

    /// A frame from another sweep — another fingerprint or trial count — or
    /// a trial appended twice is a typed error naming the disagreement.
    #[test]
    fn disagreeing_or_repeated_frames_are_typed_errors(
        ck in arb_checkpoint(),
        other in any::<u64>(),
        at in any::<usize>(),
    ) {
        let first = ck.encode();
        let mut foreign = ck.clone();
        foreign.fingerprint = if other == ck.fingerprint { other ^ 1 } else { other };
        prop_assert_eq!(
            Checkpoint::decode(&[first.clone(), foreign.encode()].concat()),
            Err(CheckpointError::ConfigMismatch {
                stored: foreign.fingerprint,
                expected: ck.fingerprint,
            })
        );
        let mut resized = ck.clone();
        resized.total_trials += 1;
        prop_assert_eq!(
            Checkpoint::decode(&[first.clone(), resized.encode()].concat()),
            Err(CheckpointError::TrialCountMismatch {
                stored: resized.total_trials,
                expected: ck.total_trials,
            })
        );
        prop_assume!(!ck.completed.is_empty());
        let repeated = ck.completed[at % ck.completed.len()].clone();
        let again = Checkpoint {
            completed: vec![repeated.clone()],
            ..ck.clone()
        };
        prop_assert_eq!(
            Checkpoint::decode(&[first, again.encode()].concat()),
            Err(CheckpointError::OutOfOrder { trial: repeated.0 })
        );
    }

    /// Cutting a log inside frame k fails the strict decode, and the
    /// salvage decode returns exactly the union of frames 0..k, naming the
    /// torn frame's offset.
    #[test]
    fn cut_inside_frame_k_salvages_exactly_the_frames_before_it(
        ck in arb_checkpoint(),
        frames in 1usize..5,
        assign in proptest::collection::vec(any::<u8>(), 0..4),
        pick in any::<usize>(),
        cut in any::<usize>(),
    ) {
        let parts = split(&ck, frames, &assign);
        let k = pick % frames;
        let start = log_of(&parts[..k]).len();
        let len = parts[k].encode().len();
        let end = start + 1 + cut % (len - 1);
        let log = log_of(&parts);
        prop_assert!(Checkpoint::decode(&log[..end]).is_err());

        let (salvaged, damage) = Checkpoint::decode_salvage(&log[..end]);
        let torn_at = match damage {
            Some(CheckpointError::Frame(FrameError::TooShort { at, .. }))
            | Some(CheckpointError::Frame(FrameError::Truncated { at, .. })) => Some(at),
            _ => None,
        };
        prop_assert_eq!(torn_at, Some(start));
        let mut before: Vec<(u64, Arc<SimResult>)> =
            parts[..k].iter().flat_map(|p| p.completed.clone()).collect();
        before.sort_by_key(|&(trial, _)| trial);
        let expected = (k > 0).then(|| Checkpoint { completed: before, ..ck.clone() }.encode());
        prop_assert_eq!(salvaged.map(|ck| ck.encode()), expected);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The result decoder, which a frame's checksum otherwise shields from
    /// damage, is total and canonical: it never panics, and whenever it
    /// accepts a result, re-encoding that result gives exactly the bytes
    /// it consumed. It reads arbitrary bytes, and an encoded result with
    /// arbitrary bytes behind it and one to five of its bytes overwritten,
    /// mostly with bytes that end, continue or pad a varint or set a flag
    /// bit. Damage that sparse rarely lands on a varint's last byte, hence
    /// the larger case count.
    #[test]
    fn result_decoder_accepts_only_canonical_bytes(
        result in arb_sim_result(),
        edits in proptest::collection::vec((any::<usize>(), 0usize..8, any::<u8>()), 1..6),
        tail in proptest::collection::vec(any::<u8>(), 0..16),
        raw in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let mut w = Writer::new();
        encode_sim_result(&mut w, &result);
        let mut edited = w.into_bytes();
        const BYTES: [u8; 7] = [0x00, 0x01, 0x04, 0x08, 0x7F, 0x80, 0xFF];
        for (at, pick, byte) in edits {
            let at = at % edited.len();
            edited[at] = BYTES.get(pick).copied().unwrap_or(byte);
        }
        edited.extend(tail);
        for bytes in [edited, raw] {
            let mut r = Reader::new(&bytes);
            if let Ok(decoded) = decode_sim_result(&mut r) {
                let mut w = Writer::new();
                encode_sim_result(&mut w, &decoded);
                prop_assert_eq!(w.into_bytes(), bytes[..r.position()].to_vec());
            }
        }
    }
}

#[test]
fn wrong_version_is_rejected_before_payload() {
    let ck = Checkpoint {
        fingerprint: 7,
        total_trials: 1,
        completed: Vec::new(),
    };
    let mut bytes = ck.encode();
    let bad_version = CHECKPOINT_VERSION + 1;
    bytes[8..12].copy_from_slice(&bad_version.to_le_bytes());
    match Checkpoint::decode(&bytes) {
        Err(CheckpointError::Frame(FrameError::UnsupportedVersion {
            at: 0,
            found,
            supported,
        })) => {
            assert_eq!(found, bad_version);
            assert_eq!(supported, CHECKPOINT_VERSION);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

#[test]
fn nan_results_survive_a_checkpoint_round_trip() {
    let result = SimResult {
        rounds: 3,
        all_satisfied: false,
        players: vec![PlayerOutcome {
            probes: 1,
            cost_paid: f64::NAN,
            satisfied_round: None,
            advice_probes: 0,
            explore_probes: 1,
            crash_round: None,
        }],
        satisfied_per_round: vec![0],
        posts_total: 0,
        forged_rejected: 0,
        notes: vec![("nan-note".into(), f64::NAN)],
        final_eval: None,
        faults: FaultCounters::default(),
        trace: None,
    };
    let ck = Checkpoint {
        fingerprint: 1,
        total_trials: 1,
        completed: vec![(0, Arc::new(result))],
    };
    let decoded = Checkpoint::decode(&ck.encode()).expect("decodes");
    let (_, r) = &decoded.completed[0];
    assert!(r.players[0].cost_paid.is_nan());
    assert!(r.notes[0].1.is_nan());
    // And the bytes are exactly reproducible.
    let mut a = Writer::new();
    encode_sim_result(&mut a, &ck.completed[0].1);
    let mut b = Writer::new();
    encode_sim_result(&mut b, r);
    assert_eq!(a.into_bytes(), b.into_bytes());
}
