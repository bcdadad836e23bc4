//! Lease-queue files must never be trusted: truncated, bit-flipped,
//! wrong-version, and garbage inputs all have to produce a clean typed
//! [`LeaseError`] — never a panic, never a silently-wrong queue — and a
//! corrupt queue must be salvageable (rebuild from geometry, reclaim, and
//! converge) rather than fatal. Mirrors `tests/store_corruption.rs` for the
//! `DSTLLEAS` format.

use distill_harness::{FrameError, LeaseError, LeaseOutcome, LeaseQueue, LEASE_VERSION};
use proptest::prelude::*;

/// A queue with arbitrary geometry, advanced through an arbitrary op
/// sequence so encoded files cover Available, Leased, and Done chunks with
/// varied claim counters.
fn arb_queue() -> impl Strategy<Value = LeaseQueue> {
    (
        any::<u64>(),
        1u64..500,
        1u64..32,
        1u32..4,
        proptest::collection::vec((any::<u64>(), any::<u64>(), 0u8..3), 0..24),
    )
        .prop_map(|(fingerprint, trials, chunk_size, max_claims, ops)| {
            let mut q = LeaseQueue::new(fingerprint, trials, chunk_size, max_claims)
                .expect("nonzero chunk size");
            let mut now = 0u64;
            for (worker, tick, op) in ops {
                now += tick % 1_000;
                match op {
                    0 => {
                        let _ = q.claim(worker, now, 100);
                    }
                    1 => {
                        if let Some(chunk) = q.claim(worker, now, 100) {
                            let _ = q.complete(chunk, worker);
                        }
                    }
                    _ => {
                        if let Some(chunk) = q.claim(worker, now, 100) {
                            let _ = q.renew(chunk, worker, now, 500);
                        }
                    }
                }
            }
            q
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Encode → decode is the identity at the byte level, whatever mix of
    /// chunk states the queue is in.
    #[test]
    fn round_trip_is_bit_identical(q in arb_queue()) {
        let bytes = q.encode();
        let decoded = LeaseQueue::decode(&bytes).expect("valid queue must decode");
        prop_assert_eq!(decoded.encode(), bytes);
        prop_assert_eq!(decoded.chunk_count(), q.chunk_count());
        prop_assert_eq!(decoded.state_counts(), q.state_counts());
    }

    /// Any truncation yields a typed error, never a panic and never an Ok.
    #[test]
    fn truncation_is_a_typed_error(q in arb_queue(), frac in 0.0f64..1.0) {
        let bytes = q.encode();
        let cut = ((bytes.len() as f64) * frac) as usize;
        prop_assume!(cut < bytes.len());
        let err = LeaseQueue::decode(&bytes[..cut])
            .expect_err("truncated queue must not decode");
        prop_assert!(!err.to_string().is_empty());
    }

    /// Any single bit flip yields a typed error: header fields are
    /// validated and the payload is checksummed, so no flip can slip
    /// through as a silently different lease state (which could
    /// double-assign or lose chunks).
    #[test]
    fn single_bit_flip_is_a_typed_error(q in arb_queue(), pos in any::<usize>(), bit in 0u8..8) {
        let mut bytes = q.encode();
        let at = pos % bytes.len();
        bytes[at] ^= 1 << bit;
        let err = LeaseQueue::decode(&bytes)
            .expect_err("bit-flipped queue must not decode");
        prop_assert!(!err.to_string().is_empty());
    }

    /// Arbitrary bytes never panic the decoder.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = LeaseQueue::decode(&bytes);
    }

    /// Trailing garbage after a valid frame is rejected, not ignored: a
    /// queue file is a single frame, so surplus bytes mean a torn or
    /// misdirected write.
    #[test]
    fn trailing_bytes_are_a_typed_error(q in arb_queue(), extra in 1usize..32) {
        let mut bytes = q.encode();
        bytes.extend(std::iter::repeat_n(0xAA, extra));
        match LeaseQueue::decode(&bytes) {
            Err(LeaseError::Frame(FrameError::TrailingBytes { at: 0, extra: got })) => {
                prop_assert_eq!(got, extra)
            }
            other => return Err(TestCaseError::fail(format!(
                "expected TrailingBytes, got {other:?}"
            ))),
        }
    }
}

#[test]
fn wrong_version_is_rejected_before_payload() {
    let q = LeaseQueue::new(7, 100, 16, 2).unwrap();
    let mut bytes = q.encode();
    let bad_version = LEASE_VERSION + 1;
    bytes[8..12].copy_from_slice(&bad_version.to_le_bytes());
    match LeaseQueue::decode(&bytes) {
        Err(LeaseError::Frame(FrameError::UnsupportedVersion {
            at: 0,
            found,
            supported,
        })) => {
            assert_eq!(found, bad_version);
            assert_eq!(supported, LEASE_VERSION);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

#[test]
fn foreign_queue_attachment_is_refused_with_the_specific_mismatch() {
    let q = LeaseQueue::new(7, 100, 16, 2).unwrap();
    assert!(q.validate_for(7, 100, 16, 2).is_ok());
    assert!(matches!(
        q.validate_for(8, 100, 16, 2),
        Err(LeaseError::ConfigMismatch {
            stored: 7,
            expected: 8
        })
    ));
    assert!(matches!(
        q.validate_for(7, 99, 16, 2),
        Err(LeaseError::TrialCountMismatch {
            stored: 100,
            expected: 99
        })
    ));
    assert!(matches!(
        q.validate_for(7, 100, 8, 2),
        Err(LeaseError::GeometryMismatch {
            stored: (16, 2),
            expected: (8, 2)
        })
    ));
    assert!(matches!(
        q.validate_for(7, 100, 16, 3),
        Err(LeaseError::GeometryMismatch {
            stored: (16, 2),
            expected: (16, 3)
        })
    ));
}

/// Loads only read: a scratch file a killed writer left beside the queue,
/// `<queue>.tmp`, and an older build's `<queue>.tmp.<pid>` both survive a
/// load. The next write reuses `<queue>.tmp`, so it survives no write; the
/// older name is nobody's to delete.
#[test]
fn stale_tmp_files_survive_load_and_the_next_write_reuses_its_own() {
    let dir = std::env::temp_dir().join(format!("distill-lease-tmp-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("sweep.queue");
    let q = LeaseQueue::new(42, 64, 8, 2).unwrap();
    q.write_atomic(&path).unwrap();
    let scratch = dir.join("sweep.queue.tmp");
    let stale = dir.join("sweep.queue.tmp.999999");
    for orphan in [&scratch, &stale] {
        std::fs::write(orphan, b"torn half-written frame").unwrap();
    }
    let loaded = LeaseQueue::load(&path).unwrap();
    assert!(loaded.validate_for(42, 64, 8, 2).is_ok());
    assert!(scratch.exists() && stale.exists(), "a load deleted a file");
    q.write_atomic(&path).unwrap();
    assert!(!scratch.exists(), "the write left its scratch file");
    assert!(stale.exists(), "the write deleted a foreign file");
    assert_eq!(LeaseQueue::load(&path).unwrap(), q);
    std::fs::remove_dir_all(&dir).ok();
}

/// Salvage path: a corrupt on-disk queue is a typed error, and rebuilding a
/// fresh queue from the sweep geometry lets the fabric drain every chunk —
/// corruption costs re-execution, never correctness (results merge by
/// set-union keyed on trial index, so re-run trials are deduplicated).
#[test]
fn corrupt_queue_is_detected_and_salvageable_by_rebuild() {
    let dir = std::env::temp_dir().join(format!("distill-lease-salvage-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("sweep.queue");
    let mut q = LeaseQueue::new(9, 40, 8, 2).unwrap();
    assert_eq!(q.claim(1, 0, 1_000), Some(0));
    q.write_atomic(&path).unwrap();

    // Scribble over the middle of the file: load must fail typed.
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&path, &bytes).unwrap();
    assert!(LeaseQueue::load(&path).is_err());

    // Rebuild from geometry (what the worker layer does under its lock) and
    // drain: every chunk is claimable and completable again.
    let mut rebuilt = LeaseQueue::new(9, 40, 8, 2).unwrap();
    rebuilt.write_atomic(&path).unwrap();
    let mut covered = 0u64;
    while let Some(chunk) = rebuilt.claim(2, 0, 1_000) {
        let range = rebuilt.chunk_range(chunk);
        covered += range.end - range.start;
        assert_eq!(rebuilt.complete(chunk, 2), LeaseOutcome::Applied);
    }
    assert!(rebuilt.all_done());
    assert_eq!(covered, 40, "the rebuilt queue must cover every trial");
    let reloaded = LeaseQueue::load(&path).unwrap();
    assert_eq!(reloaded.state_counts().0, 5, "on-disk copy is pre-drain");
    std::fs::remove_dir_all(&dir).ok();
}
