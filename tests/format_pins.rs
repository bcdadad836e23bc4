//! The on-disk bytes of the three harness formats are pinned: the
//! experiment store as first seeded, frozen in
//! `tests/fixtures/history_store_seed.store`, re-encodes to itself, and a
//! fixed checkpoint, the same checkpoint appended as a two-frame log, and a
//! fixed lease queue encode to recorded FNV-1a digests. The committed
//! store grows with every appended run, so it is only held to re-encoding
//! to itself and keeping every seed record. Any change to the shared
//! frame or to a payload schema that moves a byte fails here, so a format
//! change has to bump its version instead of silently rewriting old files.
//! The same checkpoint as checkpoint format version 1 wrote it is kept in
//! `tests/fixtures/checkpoint_v1.bin`, and must be refused, never misread.
//! The formats share one envelope, so each decoder must also refuse the
//! other two formats' files by their magic.

use distill_billboard::{ObjectId, PlayerId, Round};
use distill_harness::{
    fnv1a64, run_sweep, Checkpoint, CheckpointError, ExperimentStore, FrameError, LeaseError,
    LeaseQueue, StoreError, SweepConfig, SweepError, TrialSpec,
};
use distill_sim::{FaultCounters, FinalEval, PlayerOutcome, SimResult, TraceEvent};
use std::sync::Arc;

/// A result touching every field of the `SimResult` codec, NaN included.
fn fixed_result(seed: u64) -> SimResult {
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
                cost_paid: f64::NAN,
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

/// `BENCH_history.store` as first seeded, before any run was appended.
const HISTORY_STORE_SEED: &[u8] = include_bytes!("fixtures/history_store_seed.store");

#[test]
fn seed_history_store_re_encodes_to_its_own_bytes() {
    let bytes = HISTORY_STORE_SEED;
    assert_eq!(bytes.len(), 5_514);
    let store = ExperimentStore::decode(bytes).unwrap();
    assert_eq!(store.len(), 51);
    assert_eq!(store.encode(), bytes);
}

#[test]
fn committed_history_store_re_encodes_to_its_own_bytes() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_history.store");
    let bytes = std::fs::read(path).unwrap();
    let store = ExperimentStore::decode(&bytes).unwrap();
    assert_eq!(store.encode(), bytes);
    let seed = ExperimentStore::decode(HISTORY_STORE_SEED).unwrap();
    for record in seed.records() {
        assert!(
            store.records().iter().any(|r| r.cmp_full(record).is_eq()),
            "seed record {:?} is missing",
            record.key()
        );
    }
}

fn fixed_checkpoint() -> Checkpoint {
    Checkpoint {
        fingerprint: 0xFEED_FACE_CAFE_BEEF,
        total_trials: 8,
        completed: vec![
            (0, Arc::new(fixed_result(0))),
            (2, Arc::new(fixed_result(2))),
            (5, Arc::new(fixed_result(5))),
        ],
    }
}

#[test]
fn fixed_checkpoint_bytes_are_pinned() {
    let ck = fixed_checkpoint();
    let bytes = ck.encode();
    assert_eq!(
        (bytes.len(), fnv1a64(&bytes)),
        (970, 0xbd2e_1d6a_4038_5a4f),
        "checkpoint bytes moved"
    );
}

/// `fixed_checkpoint()` as version 1 encoded it: 42 fixed-width bytes per
/// player row.
const CHECKPOINT_V1: &[u8] = include_bytes!("fixtures/checkpoint_v1.bin");

/// A version-1 file is refused by its version, before its payload is read.
#[test]
fn version_1_checkpoint_is_refused() {
    assert_eq!(
        (CHECKPOINT_V1.len(), fnv1a64(CHECKPOINT_V1)),
        (1_144, 0x5301_5b85_42ef_e31f),
        "the version-1 fixture moved"
    );
    assert_eq!(
        Checkpoint::decode(CHECKPOINT_V1),
        Err(CheckpointError::Frame(FrameError::UnsupportedVersion {
            at: 0,
            found: 1,
            supported: 2,
        }))
    );
}

/// Replays `fixed_result`; never reached when resuming is refused.
struct FixedSpec;

impl TrialSpec for FixedSpec {
    fn run_trial(&self, trial: u64) -> SimResult {
        fixed_result(trial)
    }

    fn seed(&self, trial: u64) -> u64 {
        trial
    }

    fn describe(&self) -> String {
        "format-pins fixed results".into()
    }
}

/// A sweep resuming from a version-1 checkpoint fails and leaves the file
/// as it was.
#[test]
fn sweep_resuming_from_a_version_1_checkpoint_fails_and_keeps_its_bytes() {
    let path = std::env::temp_dir().join(format!(
        "distill-format-pins-{}-v1.ckpt",
        std::process::id()
    ));
    std::fs::write(&path, CHECKPOINT_V1).unwrap();
    let mut config = SweepConfig::new(8);
    config.checkpoint = Some(path.clone());
    config.resume = true;
    let err = run_sweep(Arc::new(FixedSpec), &config).unwrap_err();
    assert!(
        matches!(
            err,
            SweepError::Checkpoint(CheckpointError::Frame(FrameError::UnsupportedVersion {
                at: 0,
                found: 1,
                ..
            }))
        ),
        "{err:?}"
    );
    assert_eq!(std::fs::read(&path).unwrap(), CHECKPOINT_V1);
    std::fs::remove_file(&path).ok();
}

/// The fixed checkpoint's trials appended as two frames, 2 + 1: one more
/// 52-byte frame head than the one-frame file, and the same checkpoint.
#[test]
fn fixed_two_frame_checkpoint_log_is_pinned() {
    let ck = fixed_checkpoint();
    let (head, tail) = ck.completed.split_at(2);
    let frame = |completed: &[(u64, Arc<SimResult>)]| {
        Checkpoint {
            completed: completed.to_vec(),
            ..ck.clone()
        }
        .encode()
    };
    let log = [frame(head), frame(tail)].concat();
    assert_eq!(log.len(), ck.encode().len() + 52);
    assert_eq!(
        (log.len(), fnv1a64(&log)),
        (1_022, 0x9a27_b5e7_8556_a3c6),
        "checkpoint log bytes moved"
    );
    // NaN results defeat `PartialEq`; the re-encoding compares bits.
    assert_eq!(Checkpoint::decode(&log).unwrap().encode(), ck.encode());
}

#[test]
fn fixed_lease_queue_bytes_are_pinned() {
    let mut q = LeaseQueue::new(0xFEED, 10, 4, 2).unwrap();
    q.claim(7, 123, 456);
    q.claim(8, 124, 456);
    q.complete(1, 8);
    let bytes = q.encode();
    assert_eq!(
        (bytes.len(), fnv1a64(&bytes)),
        (95, 0xb31b_9363_087f_d388),
        "lease-queue bytes moved"
    );
}

#[test]
fn each_decoder_refuses_the_other_formats_by_magic() {
    let checkpoint = Checkpoint {
        fingerprint: 1,
        total_trials: 1,
        completed: Vec::new(),
    }
    .encode();
    let queue = LeaseQueue::new(1, 4, 2, 1).unwrap().encode();
    let store = ExperimentStore::new().encode();
    let bad_magic = FrameError::BadMagic { at: 0 };
    for bytes in [&queue, &store] {
        assert_eq!(
            Checkpoint::decode(bytes),
            Err(CheckpointError::Frame(bad_magic.clone()))
        );
    }
    for bytes in [&checkpoint, &store] {
        assert_eq!(
            LeaseQueue::decode(bytes),
            Err(LeaseError::Frame(bad_magic.clone()))
        );
    }
    for bytes in [&checkpoint, &queue] {
        assert_eq!(
            ExperimentStore::decode(bytes),
            Err(StoreError::Frame(bad_magic.clone()))
        );
    }
}
