//! Experiment-store files must never be trusted: truncated, bit-flipped,
//! wrong-version, two-frame and garbage inputs all have to produce a clean
//! typed [`StoreError`] — never a panic, never a silently-wrong store.
//! Property-tested over generated stores and corruptions, in the style of
//! `tests/checkpoint_corruption.rs`.

use distill_harness::{
    ExperimentRecord, ExperimentStore, FrameError, RowKind, StoreError, STORE_VERSION,
};
use proptest::prelude::*;

/// An `f64` that is NaN about one draw in four, exercising the
/// bit-preserving float codec.
fn arb_f64_with_nan() -> impl Strategy<Value = f64> {
    (0u8..4, any::<f64>()).prop_map(|(k, v)| if k == 0 { f64::NAN } else { v * 1e6 - 5e5 })
}

/// A record with unicode-bearing ids, either kind, and NaN-capable stats
/// (the vendored stub has no `prop_oneof!`, so kind is selected by tag).
fn arb_record() -> impl Strategy<Value = ExperimentRecord> {
    (
        (any::<u32>(), any::<u32>(), any::<u64>(), any::<bool>()),
        (
            arb_f64_with_nan(),
            arb_f64_with_nan(),
            arb_f64_with_nan(),
            any::<u64>(),
        ),
    )
        .prop_map(
            |((id, commit, timestamp, timed), (mean, median, min, samples))| ExperimentRecord {
                bench_id: format!("group-β/bench-{id:x}"),
                commit: format!("c{commit:08x}"),
                timestamp,
                kind: if timed {
                    RowKind::Timed
                } else {
                    RowKind::Value
                },
                unit: if timed { "ns" } else { "allocs/round" }.to_string(),
                mean,
                median,
                min,
                samples,
            },
        )
}

fn arb_store() -> impl Strategy<Value = ExperimentStore> {
    proptest::collection::vec(arb_record(), 0..8).prop_map(ExperimentStore::from_records)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Encode → decode is the identity at the byte level (NaN-safe: the
    /// comparison re-encodes rather than relying on `PartialEq`).
    #[test]
    fn round_trip_is_bit_identical(store in arb_store()) {
        let bytes = store.encode();
        let decoded = ExperimentStore::decode(&bytes).expect("valid store must decode");
        prop_assert_eq!(decoded.encode(), bytes);
        prop_assert_eq!(decoded.len(), store.len());
    }

    /// Every truncation, down to the empty file, yields a typed error,
    /// never a panic and never an Ok.
    #[test]
    fn truncation_is_a_typed_error(store in arb_store()) {
        let bytes = store.encode();
        for cut in 0..bytes.len() {
            let err = ExperimentStore::decode(&bytes[..cut])
                .expect_err("truncated store must not decode");
            prop_assert!(!err.to_string().is_empty());
        }
    }

    /// Any single bit flip yields a typed error: header fields are
    /// validated and the payload is checksummed, so no flip can slip
    /// through as a silently different store.
    #[test]
    fn single_bit_flip_is_a_typed_error(store in arb_store(), pos in any::<usize>(), bit in 0u8..8) {
        let mut bytes = store.encode();
        let at = pos % bytes.len();
        bytes[at] ^= 1 << bit;
        let err = ExperimentStore::decode(&bytes)
            .expect_err("bit-flipped store must not decode");
        prop_assert!(!err.to_string().is_empty());
    }

    /// Arbitrary bytes never panic the decoder.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = ExperimentStore::decode(&bytes);
    }

    /// A store file is one frame: every write replaces the whole file, so
    /// a second frame behind the first, whole or torn, is damage, refused
    /// with the count of its bytes rather than merged in.
    #[test]
    fn a_second_frame_is_refused_with_trailing_bytes(a in arb_store(), b in arb_store()) {
        let first = a.encode();
        let second = b.encode();
        for extra in 1..=second.len() {
            let bytes = [&first[..], &second[..extra]].concat();
            prop_assert_eq!(
                ExperimentStore::decode(&bytes),
                Err(StoreError::Frame(FrameError::TrailingBytes { at: 0, extra }))
            );
        }
        prop_assert_eq!(ExperimentStore::decode(&first).map(|s| s.encode()), Ok(first));
    }
}

#[test]
fn wrong_version_is_rejected_before_payload() {
    let store = ExperimentStore::from_records(vec![ExperimentRecord {
        bench_id: "x/y".into(),
        commit: "c0".into(),
        timestamp: 1,
        kind: RowKind::Timed,
        unit: "ns".into(),
        mean: 2.0,
        median: 2.0,
        min: 1.0,
        samples: 3,
    }]);
    let mut bytes = store.encode();
    let bad_version = STORE_VERSION + 1;
    bytes[8..12].copy_from_slice(&bad_version.to_le_bytes());
    match ExperimentStore::decode(&bytes) {
        Err(StoreError::Frame(FrameError::UnsupportedVersion {
            at,
            found,
            supported,
        })) => {
            assert_eq!(at, 0);
            assert_eq!(found, bad_version);
            assert_eq!(supported, STORE_VERSION);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}
