//! The on-disk lease queue: shared work assignment for multi-process
//! sweeps.
//!
//! A sweep's trial range `0..total_trials` is cut into fixed-size chunks;
//! each chunk is either `Available`, `Leased` to a worker until a deadline,
//! or `Done`. Independent worker processes claim chunks under time-bounded
//! leases, renew them by heartbeat while working, and mark them done when
//! the chunk's results are safely in the worker's own checkpoint. A lease
//! whose deadline has passed is *expired* and may be reclaimed by any live
//! worker — that is the whole worker-loss story: a kill -9 mid-chunk leaves
//! an expired lease, and the next claim re-runs the chunk.
//!
//! The file is one [`crate::frame`] with magic `DSTLLEAS`, whose payload
//! is `fingerprint u64 | total_trials u64 | chunk_size u64 | max_claims
//! u32 | chunk_count u64 | chunk_count × entry` and each entry `claims u32
//! | tag u8 [| worker u64 | expires_ms u64]` (tag 0 available, 1 leased, 2
//! done). Decoding is total: truncation, bit flips, version skew, and
//! geometry mismatches all yield a typed [`LeaseError`] (property-tested in
//! `tests/lease_corruption.rs`), never a panic. Only the holder of the
//! queue's [`frame::lock`] writes the file; a load only reads it.
//!
//! ## Correctness versus performance
//!
//! The queue is deliberately *advisory*: every trial is a pure function of
//! its index, so two workers racing onto the same chunk at worst duplicate
//! work whose bit-identical results later set-union cleanly (see
//! [`crate::merge`]). Leases make the fabric *efficient* (disjoint ranges,
//! bounded re-execution after a loss); they are not what makes it
//! *correct*. That is why a corrupt queue file is salvageable by simply
//! rebuilding it fresh — see `crate::worker`.
//!
//! All state transitions take the caller's clock as an explicit `now_ms`
//! argument; this module never reads wall-clock time itself, which keeps it
//! deterministic (lint rule D2) and makes lease expiry testable without
//! sleeping.

use crate::codec::CodecError;
use crate::frame::{self, FrameError};
use std::fmt;
use std::path::Path;

/// File magic: identifies a distill lease-queue file.
pub const LEASE_MAGIC: [u8; 8] = *b"DSTLLEAS";

/// Current lease-queue format version. Bump on any layout change; old
/// versions are rejected with [`FrameError::UnsupportedVersion`] rather
/// than misread.
pub const LEASE_VERSION: u32 = 1;

/// Why a lease queue could not be built, loaded, or does not match the
/// sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LeaseError {
    /// The file could not be read or written, or its frame is damaged.
    Frame(FrameError),
    /// `chunk_size` was zero — there is no chunk geometry to build.
    BadGeometry,
    /// The stored chunk count disagrees with the stored geometry.
    ChunkCountMismatch {
        /// Chunk count stored in the file.
        stored: u64,
        /// `ceil(total_trials / chunk_size)` from the stored geometry.
        expected: u64,
    },
    /// The queue was written by a sweep with a different configuration.
    ConfigMismatch {
        /// Fingerprint stored in the queue.
        stored: u64,
        /// Fingerprint of the sweep attempting to attach.
        expected: u64,
    },
    /// The queue was written for a different trial count.
    TrialCountMismatch {
        /// Count stored in the queue.
        stored: u64,
        /// Count of the sweep attempting to attach.
        expected: u64,
    },
    /// The queue was written with a different chunk size or claim budget.
    GeometryMismatch {
        /// `(chunk_size, max_claims)` stored in the queue.
        stored: (u64, u32),
        /// `(chunk_size, max_claims)` of the sweep attempting to attach.
        expected: (u64, u32),
    },
}

impl fmt::Display for LeaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LeaseError::Frame(e) => write!(f, "lease queue: {e}"),
            LeaseError::BadGeometry => f.write_str("lease-queue chunk size must be at least 1"),
            LeaseError::ChunkCountMismatch { stored, expected } => {
                write!(
                    f,
                    "lease-queue stores {stored} chunks but its geometry implies {expected}"
                )
            }
            LeaseError::ConfigMismatch { stored, expected } => {
                write!(
                    f,
                    "lease queue belongs to a different sweep configuration \
                     (fingerprint {stored:#018x}, this sweep is {expected:#018x})"
                )
            }
            LeaseError::TrialCountMismatch { stored, expected } => {
                write!(
                    f,
                    "lease queue covers {stored} trials, this sweep has {expected}"
                )
            }
            LeaseError::GeometryMismatch { stored, expected } => {
                write!(
                    f,
                    "lease queue built with chunk_size={} max_claims={}, this sweep wants \
                     chunk_size={} max_claims={}",
                    stored.0, stored.1, expected.0, expected.1
                )
            }
        }
    }
}

impl std::error::Error for LeaseError {}

impl From<FrameError> for LeaseError {
    fn from(e: FrameError) -> Self {
        LeaseError::Frame(e)
    }
}

/// Ownership state of one chunk of the trial range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkState {
    /// Nobody owns the chunk; any worker may claim it.
    Available,
    /// A worker owns the chunk until the deadline passes.
    Leased {
        /// The claiming worker's id.
        worker: u64,
        /// The lease deadline (caller clock, milliseconds). At or past this
        /// instant the lease is expired and the chunk reclaimable.
        expires_ms: u64,
    },
    /// The chunk's results are safely in a worker checkpoint.
    Done,
}

/// One chunk's queue entry: its state plus how many times it has been
/// claimed (initial claims, expiry reclaims, and post-quarantine re-releases
/// all count — the claim counter is the cross-process retry budget).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkEntry {
    /// Total claims so far.
    pub claims: u32,
    /// Current ownership.
    pub state: ChunkState,
}

/// What a lease operation did. Operations on leases another worker holds
/// (or that are already done) are no-ops with a typed outcome, never errors:
/// losing a race is normal fabric life, not a failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeaseOutcome {
    /// The transition was applied.
    Applied,
    /// The chunk is not leased by this worker (lost to a reclaim, or
    /// released); the operation did nothing.
    NotHeld,
    /// The chunk was already marked done; the operation did nothing.
    AlreadyDone,
    /// The chunk index is outside the queue.
    OutOfRange,
}

/// The shared lease queue over a sweep's chunked trial range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeaseQueue {
    /// FNV-1a fingerprint of the sweep's canonical config description;
    /// attach refuses queues from a different configuration.
    pub fingerprint: u64,
    /// The sweep's total trial count.
    pub total_trials: u64,
    /// Trials per chunk (the last chunk may be short).
    pub chunk_size: u64,
    /// Claim budget per chunk: a chunk whose every claim ends in quarantined
    /// trials is released for re-claim only while `claims < max_claims`,
    /// giving each claiming process a fresh per-trial retry budget.
    pub max_claims: u32,
    chunks: Vec<ChunkEntry>,
}

impl LeaseQueue {
    /// Builds a fresh queue with every chunk available.
    ///
    /// # Errors
    /// [`LeaseError::BadGeometry`] when `chunk_size` is zero.
    pub fn new(
        fingerprint: u64,
        total_trials: u64,
        chunk_size: u64,
        max_claims: u32,
    ) -> Result<Self, LeaseError> {
        if chunk_size == 0 {
            return Err(LeaseError::BadGeometry);
        }
        let count = total_trials.div_ceil(chunk_size);
        let count_usize = usize::try_from(count).map_err(|_| LeaseError::BadGeometry)?;
        Ok(LeaseQueue {
            fingerprint,
            total_trials,
            chunk_size,
            max_claims,
            chunks: vec![
                ChunkEntry {
                    claims: 0,
                    state: ChunkState::Available,
                };
                count_usize
            ],
        })
    }

    /// Number of chunks (`ceil(total_trials / chunk_size)`).
    pub fn chunk_count(&self) -> u64 {
        self.chunks.len() as u64
    }

    /// The chunk entries, in chunk order.
    pub fn entries(&self) -> &[ChunkEntry] {
        &self.chunks
    }

    /// The trial range of chunk `chunk`; empty for an out-of-range index.
    pub fn chunk_range(&self, chunk: u64) -> core::ops::Range<u64> {
        let start = chunk.saturating_mul(self.chunk_size).min(self.total_trials);
        let end = start.saturating_add(self.chunk_size).min(self.total_trials);
        start..end
    }

    /// How many times chunk `chunk` has been claimed (0 if out of range).
    pub fn claims_of(&self, chunk: u64) -> u32 {
        usize::try_from(chunk)
            .ok()
            .and_then(|i| self.chunks.get(i))
            .map_or(0, |e| e.claims)
    }

    /// Claims a chunk for `worker` at time `now_ms` under a lease of
    /// `ttl_ms`: the first available chunk, or failing that the first chunk
    /// whose lease has expired (`expires_ms <= now_ms` — the previous owner
    /// is presumed dead and the chunk is reclaimed). Returns the chunk
    /// index, or `None` when nothing is claimable right now (every chunk is
    /// done or validly leased).
    pub fn claim(&mut self, worker: u64, now_ms: u64, ttl_ms: u64) -> Option<u64> {
        let mut pick: Option<usize> = None;
        for (i, entry) in self.chunks.iter().enumerate() {
            match entry.state {
                ChunkState::Available => {
                    pick = Some(i);
                    break;
                }
                ChunkState::Leased { expires_ms, .. } if expires_ms <= now_ms && pick.is_none() => {
                    pick = Some(i);
                }
                _ => {}
            }
        }
        let i = pick?;
        if let Some(entry) = self.chunks.get_mut(i) {
            entry.claims = entry.claims.saturating_add(1);
            entry.state = ChunkState::Leased {
                worker,
                expires_ms: now_ms.saturating_add(ttl_ms),
            };
        }
        Some(i as u64)
    }

    /// Renews `worker`'s lease on `chunk` to `now_ms + ttl_ms` (the
    /// heartbeat). Renewal succeeds even past the old deadline as long as
    /// nobody reclaimed the chunk in between; once someone did, the answer
    /// is [`LeaseOutcome::NotHeld`] and the worker must abandon the chunk.
    pub fn renew(&mut self, chunk: u64, worker: u64, now_ms: u64, ttl_ms: u64) -> LeaseOutcome {
        let expires_ms = now_ms.saturating_add(ttl_ms);
        self.move_held(chunk, worker, ChunkState::Leased { worker, expires_ms })
    }

    /// Marks `chunk` done on behalf of `worker` (its results are safely
    /// checkpointed). Like renewal, completion is valid past the deadline
    /// as long as nobody reclaimed the chunk; a reclaim in between yields
    /// [`LeaseOutcome::NotHeld`] — harmless, because the reclaiming worker
    /// will produce bit-identical results that merge cleanly.
    pub fn complete(&mut self, chunk: u64, worker: u64) -> LeaseOutcome {
        self.move_held(chunk, worker, ChunkState::Done)
    }

    /// Releases `worker`'s lease on `chunk` back to available (used when a
    /// chunk held quarantined trials and the claim budget still has room —
    /// the next claimer gets a fresh per-trial retry budget).
    pub fn release(&mut self, chunk: u64, worker: u64) -> LeaseOutcome {
        self.move_held(chunk, worker, ChunkState::Available)
    }

    /// Moves `chunk` to state `to` if `worker` holds its lease; otherwise
    /// changes nothing and says why not.
    fn move_held(&mut self, chunk: u64, worker: u64, to: ChunkState) -> LeaseOutcome {
        let Some(entry) = usize::try_from(chunk)
            .ok()
            .and_then(|i| self.chunks.get_mut(i))
        else {
            return LeaseOutcome::OutOfRange;
        };
        match entry.state {
            ChunkState::Done => LeaseOutcome::AlreadyDone,
            ChunkState::Leased { worker: w, .. } if w == worker => {
                entry.state = to;
                LeaseOutcome::Applied
            }
            _ => LeaseOutcome::NotHeld,
        }
    }

    /// `true` when every chunk is done (an empty queue is trivially done).
    pub fn all_done(&self) -> bool {
        self.chunks
            .iter()
            .all(|e| matches!(e.state, ChunkState::Done))
    }

    /// `(available, leased, done)` chunk counts.
    pub fn state_counts(&self) -> (u64, u64, u64) {
        let mut counts = (0u64, 0u64, 0u64);
        for e in &self.chunks {
            match e.state {
                ChunkState::Available => counts.0 += 1,
                ChunkState::Leased { .. } => counts.1 += 1,
                ChunkState::Done => counts.2 += 1,
            }
        }
        counts
    }

    /// Encodes the queue to its on-disk byte layout. The encoding is
    /// canonical — a function of the queue state alone — so two processes
    /// that arrive at the same state write bit-identical files.
    pub fn encode(&self) -> Vec<u8> {
        frame::encode(LEASE_MAGIC, LEASE_VERSION, |w| {
            w.put_u64(self.fingerprint);
            w.put_u64(self.total_trials);
            w.put_u64(self.chunk_size);
            w.put_u32(self.max_claims);
            w.put_u64(self.chunks.len() as u64);
            for entry in &self.chunks {
                w.put_u32(entry.claims);
                match entry.state {
                    ChunkState::Available => w.put_u8(0),
                    ChunkState::Leased { worker, expires_ms } => {
                        w.put_u8(1);
                        w.put_u64(worker);
                        w.put_u64(expires_ms);
                    }
                    ChunkState::Done => w.put_u8(2),
                }
            }
        })
    }

    /// Decodes a queue; the frame is verified before a single payload byte
    /// is interpreted.
    ///
    /// # Errors
    /// Every corruption mode maps to a [`LeaseError`] variant; no input can
    /// cause a panic.
    pub fn decode(bytes: &[u8]) -> Result<Self, LeaseError> {
        let queue = frame::decode_one(LEASE_MAGIC, LEASE_VERSION, bytes, |r| {
            let fingerprint = r.u64()?;
            let total_trials = r.u64()?;
            let chunk_size = r.u64()?;
            let max_claims = r.u32()?;
            // Each entry is at least claims u32 + tag u8 = 5 bytes.
            let count = r.seq_len(5)?;
            let mut chunks = Vec::with_capacity(count);
            for _ in 0..count {
                let claims = r.u32()?;
                let at = r.position();
                let state = match r.u8()? {
                    0 => ChunkState::Available,
                    1 => ChunkState::Leased {
                        worker: r.u64()?,
                        expires_ms: r.u64()?,
                    },
                    2 => ChunkState::Done,
                    tag => {
                        return Err(CodecError::BadTag {
                            at,
                            tag,
                            what: "chunk state",
                        })
                    }
                };
                chunks.push(ChunkEntry { claims, state });
            }
            Ok(LeaseQueue {
                fingerprint,
                total_trials,
                chunk_size,
                max_claims,
                chunks,
            })
        })?;
        if queue.chunk_size == 0 {
            return Err(LeaseError::BadGeometry);
        }
        let expected = queue.total_trials.div_ceil(queue.chunk_size);
        if queue.chunk_count() != expected {
            return Err(LeaseError::ChunkCountMismatch {
                stored: queue.chunk_count(),
                expected,
            });
        }
        Ok(queue)
    }

    /// Verifies the queue belongs to the sweep described by `fingerprint`
    /// over `total_trials` trials with the same chunk geometry.
    ///
    /// # Errors
    /// [`LeaseError::ConfigMismatch`], [`LeaseError::TrialCountMismatch`],
    /// or [`LeaseError::GeometryMismatch`].
    pub fn validate_for(
        &self,
        fingerprint: u64,
        total_trials: u64,
        chunk_size: u64,
        max_claims: u32,
    ) -> Result<(), LeaseError> {
        if self.fingerprint != fingerprint {
            return Err(LeaseError::ConfigMismatch {
                stored: self.fingerprint,
                expected: fingerprint,
            });
        }
        if self.total_trials != total_trials {
            return Err(LeaseError::TrialCountMismatch {
                stored: self.total_trials,
                expected: total_trials,
            });
        }
        if self.chunk_size != chunk_size || self.max_claims != max_claims {
            return Err(LeaseError::GeometryMismatch {
                stored: (self.chunk_size, self.max_claims),
                expected: (chunk_size, max_claims),
            });
        }
        Ok(())
    }

    /// Loads and decodes a queue file. A plain read (see [`frame::load`]):
    /// it takes no lock, and sees the queue before or after any concurrent
    /// write, never between.
    ///
    /// # Errors
    /// I/O failures surface as [`FrameError::Io`] (kind `NotFound` for a
    /// missing file); corrupt contents as the corresponding decode variant.
    pub fn load(path: &Path) -> Result<Self, LeaseError> {
        LeaseQueue::decode(&frame::load(path)?)
    }

    /// Writes the queue atomically under the queue's [`frame::lock`]: a
    /// crash at any point leaves either the old or the new complete file,
    /// never a torn one. A read–modify–write cycle holds the lock itself
    /// and writes through its guard instead (see `crate::worker`).
    ///
    /// # Errors
    /// [`LeaseError::Frame`] with the failing path and OS error.
    pub fn write_atomic(&self, path: &Path) -> Result<(), LeaseError> {
        Ok(frame::lock(path)?.write(&self.encode())?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queue() -> LeaseQueue {
        LeaseQueue::new(0xFEED, 10, 4, 2).unwrap()
    }

    #[test]
    fn geometry_is_ceil_division() {
        let q = queue();
        assert_eq!(q.chunk_count(), 3);
        assert_eq!(q.chunk_range(0), 0..4);
        assert_eq!(q.chunk_range(1), 4..8);
        assert_eq!(q.chunk_range(2), 8..10); // short tail chunk
        assert_eq!(q.chunk_range(3), 10..10); // out of range ⇒ empty
        assert!(LeaseQueue::new(1, 5, 0, 1).is_err());
        let empty = LeaseQueue::new(1, 0, 4, 1).unwrap();
        assert_eq!(empty.chunk_count(), 0);
        assert!(empty.all_done());
    }

    #[test]
    fn claim_prefers_available_then_expired() {
        let mut q = queue();
        assert_eq!(q.claim(1, 1000, 50), Some(0));
        assert_eq!(q.claim(1, 1000, 50), Some(1));
        assert_eq!(q.claim(2, 1000, 50), Some(2));
        // Everything validly leased: nothing claimable.
        assert_eq!(q.claim(3, 1040, 50), None);
        // Worker 1's leases expire at 1050; worker 3 reclaims the first.
        assert_eq!(q.claim(3, 1050, 50), Some(0));
        assert_eq!(q.claims_of(0), 2);
        assert_eq!(
            q.entries()[0].state,
            ChunkState::Leased {
                worker: 3,
                expires_ms: 1100
            }
        );
    }

    #[test]
    fn renew_heartbeat_extends_and_detects_loss() {
        let mut q = queue();
        assert_eq!(q.claim(1, 0, 100), Some(0));
        assert_eq!(q.renew(0, 1, 80, 100), LeaseOutcome::Applied);
        assert_eq!(
            q.entries()[0].state,
            ChunkState::Leased {
                worker: 1,
                expires_ms: 180
            }
        );
        // Renewal after expiry still works while nobody reclaimed…
        assert_eq!(q.renew(0, 1, 500, 100), LeaseOutcome::Applied);
        // …but once worker 2 reclaims, worker 1 has lost the lease. (The
        // available chunks 1 and 2 are claimed first; only then does the
        // expired chunk 0 become worker 2's pick.)
        assert_eq!(q.claim(2, 700, 100), Some(1));
        assert_eq!(q.claim(2, 700, 100), Some(2));
        assert_eq!(q.claim(2, 700, 100), Some(0));
        assert_eq!(q.renew(0, 1, 710, 100), LeaseOutcome::NotHeld);
        assert_eq!(q.renew(9, 1, 0, 1), LeaseOutcome::OutOfRange);
    }

    #[test]
    fn complete_and_release_respect_ownership() {
        let mut q = queue();
        assert_eq!(q.claim(1, 0, 100), Some(0));
        assert_eq!(q.complete(0, 2), LeaseOutcome::NotHeld);
        assert_eq!(q.complete(0, 1), LeaseOutcome::Applied);
        assert_eq!(q.complete(0, 1), LeaseOutcome::AlreadyDone);
        assert_eq!(q.release(0, 1), LeaseOutcome::AlreadyDone);
        assert_eq!(q.claim(1, 0, 100), Some(1));
        assert_eq!(q.release(1, 1), LeaseOutcome::Applied);
        assert_eq!(q.entries()[1].state, ChunkState::Available);
        // The released chunk keeps its claim count (the retry budget).
        assert_eq!(q.claims_of(1), 1);
        assert!(!q.all_done());
        assert_eq!(q.state_counts(), (2, 0, 1));
    }

    #[test]
    fn round_trip_is_identity_and_canonical() {
        let mut q = queue();
        q.claim(7, 123, 456);
        q.claim(8, 124, 456);
        q.complete(1, 8);
        let bytes = q.encode();
        let decoded = LeaseQueue::decode(&bytes).unwrap();
        assert_eq!(decoded, q);
        assert_eq!(decoded.encode(), bytes);
    }

    /// The geometry checks run on the decoded payload, so frames with a
    /// valid checksum but impossible geometry are still refused.
    #[test]
    fn impossible_geometry_is_typed() {
        let queue_bytes = |chunk_size: u64, count: u64| {
            frame::encode(LEASE_MAGIC, LEASE_VERSION, |w| {
                w.put_u64(0xFEED);
                w.put_u64(10);
                w.put_u64(chunk_size);
                w.put_u32(2);
                w.put_u64(count);
                for _ in 0..count {
                    w.put_u32(0);
                    w.put_u8(0);
                }
            })
        };
        assert_eq!(
            LeaseQueue::decode(&queue_bytes(0, 0)),
            Err(LeaseError::BadGeometry)
        );
        assert_eq!(
            LeaseQueue::decode(&queue_bytes(4, 2)),
            Err(LeaseError::ChunkCountMismatch {
                stored: 2,
                expected: 3
            })
        );
        assert!(LeaseQueue::decode(&queue_bytes(4, 3)).is_ok());
    }

    #[test]
    fn validate_for_checks_config_and_geometry() {
        let q = queue();
        assert!(q.validate_for(0xFEED, 10, 4, 2).is_ok());
        assert!(matches!(
            q.validate_for(1, 10, 4, 2),
            Err(LeaseError::ConfigMismatch { .. })
        ));
        assert!(matches!(
            q.validate_for(0xFEED, 11, 4, 2),
            Err(LeaseError::TrialCountMismatch { .. })
        ));
        assert!(matches!(
            q.validate_for(0xFEED, 10, 5, 2),
            Err(LeaseError::GeometryMismatch { .. })
        ));
        assert!(matches!(
            q.validate_for(0xFEED, 10, 4, 3),
            Err(LeaseError::GeometryMismatch { .. })
        ));
    }

    #[test]
    fn atomic_write_then_load() {
        let dir = std::env::temp_dir().join(format!("distill-lease-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep.queue");
        let mut q = queue();
        q.claim(1, 5, 10);
        q.write_atomic(&path).unwrap();
        assert_eq!(LeaseQueue::load(&path).unwrap(), q);
        // The queue and its lock file; the scratch file was renamed away.
        let mut names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name())
            .collect();
        names.sort();
        assert_eq!(names, ["sweep.queue", "sweep.queue.lock"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn errors_render() {
        for e in [
            LeaseError::Frame(FrameError::BadMagic { at: 0 }),
            LeaseError::BadGeometry,
            LeaseError::ChunkCountMismatch {
                stored: 4,
                expected: 3,
            },
            LeaseError::ConfigMismatch {
                stored: 1,
                expected: 2,
            },
            LeaseError::TrialCountMismatch {
                stored: 1,
                expected: 2,
            },
            LeaseError::GeometryMismatch {
                stored: (4, 2),
                expected: (8, 1),
            },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
