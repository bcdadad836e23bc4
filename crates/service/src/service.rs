//! The concurrent billboard service: sharded producers, one applier,
//! bounded channels, epoch publication, graceful shutdown.

use crate::epoch::{EpochCell, EpochReader, EpochSnapshot};
use crate::error::ServiceError;
use distill_billboard::{
    BatchStager, BillboardError, ObjectId, PlayerId, Post, ReportKind, Round, SegmentLog, Seq,
    StagedBatch, VotePolicy,
};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Static configuration of a [`BillboardService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Players in the registered universe (author ids must be below this).
    pub n_players: u32,
    /// Objects in the registered universe.
    pub n_objects: u32,
    /// Service timestamp granularity: post with sequence `s` is stamped
    /// `Round(s / posts_per_round)`. Deriving rounds from the atomically
    /// allocated sequence keeps timestamps monotone along the merged log no
    /// matter how producer submissions race (§2.1: the billboard, not the
    /// poster, owns the timestamp).
    pub posts_per_round: u64,
    /// Bound of the submission channel, in batches. When the applier falls
    /// behind, producers block in `submit` — backpressure instead of
    /// unbounded queueing.
    pub channel_batches: usize,
    /// Publish a fresh epoch after this many applied batches (the applier
    /// also publishes whenever its channel runs empty, and at shutdown, so
    /// readers never stall behind the cadence).
    pub publish_every: u64,
}

impl ServiceConfig {
    /// A config for an `n_players` × `n_objects` universe with defaults:
    /// one round per `n_players` posts (every player posts once per round,
    /// the synchronous-execution shape), a 256-batch channel bound, and an
    /// epoch published every 8 applied batches.
    pub fn new(n_players: u32, n_objects: u32) -> Self {
        ServiceConfig {
            n_players,
            n_objects,
            posts_per_round: u64::from(n_players.max(1)),
            channel_batches: 256,
            publish_every: 8,
        }
    }

    /// Sets the round granularity (posts per round).
    #[must_use]
    pub fn with_posts_per_round(mut self, posts: u64) -> Self {
        self.posts_per_round = posts;
        self
    }

    /// Sets the submission-channel bound, in batches.
    #[must_use]
    pub fn with_channel_batches(mut self, batches: usize) -> Self {
        self.channel_batches = batches;
        self
    }

    /// Sets the epoch-publication cadence, in applied batches.
    #[must_use]
    pub fn with_publish_every(mut self, batches: u64) -> Self {
        self.publish_every = batches;
        self
    }

    /// Checks the config is usable.
    ///
    /// # Errors
    ///
    /// [`ServiceError::InvalidConfig`] naming the offending field.
    pub fn validate(&self) -> Result<(), ServiceError> {
        if self.n_players == 0 {
            return Err(ServiceError::InvalidConfig("n_players must be at least 1"));
        }
        if self.n_objects == 0 {
            return Err(ServiceError::InvalidConfig("n_objects must be at least 1"));
        }
        if self.posts_per_round == 0 {
            return Err(ServiceError::InvalidConfig(
                "posts_per_round must be at least 1",
            ));
        }
        if self.channel_batches == 0 {
            return Err(ServiceError::InvalidConfig(
                "channel_batches must be at least 1",
            ));
        }
        if self.publish_every == 0 {
            return Err(ServiceError::InvalidConfig(
                "publish_every must be at least 1",
            ));
        }
        Ok(())
    }
}

/// A post as a producer submits it: no sequence, no round — the service
/// stamps both at submission time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Draft {
    /// The posting player.
    pub author: PlayerId,
    /// The object the report is about.
    pub object: ObjectId,
    /// The reported value.
    pub value: f64,
    /// Positive (a vote) or negative report.
    pub kind: ReportKind,
}

/// Lifetime counters of the applier thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ApplierStats {
    /// Batches merged into the authoritative log.
    pub batches: u64,
    /// Posts merged into the authoritative log.
    pub posts: u64,
    /// Batches that arrived ahead of a missing predecessor.
    pub held_out_of_order: u64,
    /// High-water mark of simultaneously held batches.
    pub max_pending: usize,
    /// Epochs published.
    pub epochs_published: u64,
    /// Batches still held at shutdown (non-zero means a producer allocated
    /// a sequence range and never delivered it — a bug upstream).
    pub leftover_batches: usize,
}

/// What [`BillboardService::shutdown`] returns.
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// The applier's lifetime counters.
    pub stats: ApplierStats,
    /// The final published snapshot (contains every applied post).
    pub final_snapshot: Arc<EpochSnapshot>,
}

/// A producer's handle for submitting batches.
///
/// Cheap to clone indirectly — take one per producer thread via
/// [`BillboardService::handle`]. `submit` blocks when the applier's channel
/// is full (backpressure).
#[derive(Debug)]
pub struct ProducerHandle {
    producer: u32,
    tx: SyncSender<StagedBatch>,
    next_seq: Arc<AtomicU64>,
    config: ServiceConfig,
}

impl ProducerHandle {
    /// This handle's producer-shard id.
    #[inline]
    pub fn producer(&self) -> u32 {
        self.producer
    }

    /// Submits one batch of drafts, returning the sequence number assigned
    /// to the first post. Sequence numbers are allocated atomically here, at
    /// submission time — so submission order *is* sequence order, and the
    /// applier's reorder buffer only ever absorbs delivery scrambling.
    /// Blocks when the channel is full.
    ///
    /// # Errors
    ///
    /// * [`ServiceError::Rejected`] if any draft references an id outside
    ///   the universe (checked *before* sequence allocation, so an invalid
    ///   submission never leaves a hole in the log);
    /// * [`ServiceError::Disconnected`] if the service has shut down.
    pub fn submit(&self, drafts: &[Draft]) -> Result<Seq, ServiceError> {
        for d in drafts {
            if d.author.0 >= self.config.n_players {
                return Err(ServiceError::Rejected(BillboardError::UnknownAuthor {
                    author: d.author,
                    n_players: self.config.n_players,
                }));
            }
            if d.object.0 >= self.config.n_objects {
                return Err(ServiceError::Rejected(BillboardError::UnknownObject {
                    object: d.object,
                    n_objects: self.config.n_objects,
                }));
            }
        }
        let count = drafts.len() as u64;
        let first = self.next_seq.fetch_add(count, Ordering::Relaxed);
        if drafts.is_empty() {
            return Ok(Seq(first));
        }
        // The stamped posts go straight into the segment the log will keep:
        // the iterator's length is exact, so this is one allocation.
        let posts: Arc<[Post]> = (first..)
            .zip(drafts)
            .map(|(seq, d)| Post {
                seq: Seq(seq),
                round: Round(seq / self.config.posts_per_round),
                author: d.author,
                object: d.object,
                value: d.value,
                kind: d.kind,
            })
            .collect();
        let batch = StagedBatch::new(self.producer, posts).map_err(ServiceError::Rejected)?;
        self.tx
            .send(batch)
            .map_err(|_| ServiceError::Disconnected)?;
        Ok(Seq(first))
    }
}

/// The running service: one applier thread behind a bounded channel.
///
/// See the [crate docs](crate) for the architecture. Dropping the service
/// without calling [`shutdown`](BillboardService::shutdown) disconnects the
/// channel and lets the applier exit on its own; `shutdown` additionally
/// joins it and returns the final snapshot plus counters.
#[derive(Debug)]
pub struct BillboardService {
    tx: Option<SyncSender<StagedBatch>>,
    next_seq: Arc<AtomicU64>,
    cell: Arc<EpochCell>,
    config: ServiceConfig,
    producers: AtomicU32,
    applier: Option<JoinHandle<Result<ApplierStats, BillboardError>>>,
}

impl BillboardService {
    /// Starts the applier thread and returns the service front.
    ///
    /// # Errors
    ///
    /// [`ServiceError::InvalidConfig`] or [`ServiceError::Spawn`].
    pub fn start(config: ServiceConfig) -> Result<Self, ServiceError> {
        config.validate()?;
        let (tx, rx) = std::sync::mpsc::sync_channel(config.channel_batches);
        let cell = Arc::new(EpochCell::new(EpochSnapshot::empty(
            config.n_players,
            config.n_objects,
        )));
        let applier_cell = Arc::clone(&cell);
        let applier = std::thread::Builder::new()
            .name("billboard-applier".to_string())
            .spawn(move || run_applier(&rx, config, &applier_cell))
            .map_err(|e| ServiceError::Spawn(e.to_string()))?;
        Ok(BillboardService {
            tx: Some(tx),
            next_seq: Arc::new(AtomicU64::new(0)),
            cell,
            config,
            producers: AtomicU32::new(0),
            applier: Some(applier),
        })
    }

    /// The service configuration.
    #[inline]
    pub fn config(&self) -> ServiceConfig {
        self.config
    }

    /// A new producer handle (next free shard id).
    ///
    /// # Errors
    ///
    /// [`ServiceError::Disconnected`] after shutdown.
    pub fn handle(&self) -> Result<ProducerHandle, ServiceError> {
        let tx = self.tx.as_ref().ok_or(ServiceError::Disconnected)?;
        Ok(ProducerHandle {
            producer: self.producers.fetch_add(1, Ordering::Relaxed),
            tx: tx.clone(),
            next_seq: Arc::clone(&self.next_seq),
            config: self.config,
        })
    }

    /// The shared epoch cell, for readers on other threads.
    pub fn epoch_cell(&self) -> Arc<EpochCell> {
        Arc::clone(&self.cell)
    }

    /// The most recently published snapshot.
    pub fn latest(&self) -> Arc<EpochSnapshot> {
        self.cell.load()
    }

    /// A fresh [`EpochReader`] interpreting this service's log under
    /// `policy` (tracker-only; see [`EpochReader::with_board`] for
    /// view-capable readers).
    pub fn reader(&self, policy: VotePolicy) -> EpochReader {
        EpochReader::new(self.config.n_players, self.config.n_objects, policy)
    }

    /// Graceful shutdown: closes the service's own submission side, waits
    /// for the applier to drain everything the producers delivered, and
    /// returns the final snapshot plus counters.
    ///
    /// All [`ProducerHandle`]s must be dropped for the channel to actually
    /// disconnect; `shutdown` blocks until then.
    ///
    /// # Errors
    ///
    /// [`ServiceError::ApplierFailed`] / [`ServiceError::ApplierPanicked`]
    /// if the applier died; [`ServiceError::Disconnected`] on double
    /// shutdown.
    pub fn shutdown(mut self) -> Result<ServiceReport, ServiceError> {
        drop(self.tx.take());
        let handle = self.applier.take().ok_or(ServiceError::Disconnected)?;
        let stats = handle
            .join()
            .map_err(|_| ServiceError::ApplierPanicked)?
            .map_err(ServiceError::ApplierFailed)?;
        Ok(ServiceReport {
            stats,
            final_snapshot: self.cell.load(),
        })
    }
}

/// Stages one delivered batch and merges every released batch into the
/// authoritative log. This is the applier's per-delivery hot path: staging
/// is a `BTreeMap` insert, each release moves one `Arc` into the segment
/// list, and validation is a single linear scan of the new posts.
// lint: hot
fn drain_ready(
    stager: &mut BatchStager,
    log: &mut SegmentLog,
    batch: StagedBatch,
    applied: &mut u64,
) -> Result<(), BillboardError> {
    stager.stage(batch)?;
    while let Some(ready) = stager.pop_ready() {
        log.push_segment(ready.into_posts())?;
        *applied += 1;
    }
    Ok(())
}

/// The applier loop: drain the bounded channel, merge batches in sequence
/// order, publish epochs on cadence and whenever the channel runs empty.
fn run_applier(
    rx: &Receiver<StagedBatch>,
    config: ServiceConfig,
    cell: &EpochCell,
) -> Result<ApplierStats, BillboardError> {
    let mut log = SegmentLog::new(config.n_players, config.n_objects);
    let mut stager = BatchStager::new();
    let mut applied_since_publish = 0u64;
    let mut epoch = 0u64;
    let mut published_posts = 0u64;
    let mut epochs_published = 0u64;
    let publish =
        |log: &SegmentLog, epoch: &mut u64, published_posts: &mut u64, count: &mut u64| {
            if log.len() == *published_posts {
                return;
            }
            *epoch += 1;
            *published_posts = log.len();
            *count += 1;
            cell.publish(Arc::new(EpochSnapshot::at(*epoch, log)));
        };
    loop {
        // Opportunistically drain without blocking; publish when idle so
        // readers see every applied post even below the cadence.
        let batch = match rx.try_recv() {
            Ok(batch) => batch,
            Err(TryRecvError::Empty) => {
                publish(
                    &log,
                    &mut epoch,
                    &mut published_posts,
                    &mut epochs_published,
                );
                applied_since_publish = 0;
                match rx.recv() {
                    Ok(batch) => batch,
                    Err(_) => break,
                }
            }
            Err(TryRecvError::Disconnected) => break,
        };
        drain_ready(&mut stager, &mut log, batch, &mut applied_since_publish)?;
        if applied_since_publish >= config.publish_every {
            publish(
                &log,
                &mut epoch,
                &mut published_posts,
                &mut epochs_published,
            );
            applied_since_publish = 0;
        }
    }
    publish(
        &log,
        &mut epoch,
        &mut published_posts,
        &mut epochs_published,
    );
    let stats = stager.stats();
    Ok(ApplierStats {
        batches: stats.released,
        posts: log.len(),
        held_out_of_order: stats.held_out_of_order,
        max_pending: stats.max_pending,
        epochs_published,
        leftover_batches: stager.pending_batches(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use distill_billboard::{Billboard, VoteTracker, Window};

    fn drafts(n: u32, m: u32, count: usize, salt: usize) -> Vec<Draft> {
        (0..count)
            .map(|i| Draft {
                author: PlayerId(u32::try_from((i + salt) % n as usize).unwrap()),
                object: ObjectId(u32::try_from((i * 3 + salt) % m as usize).unwrap()),
                value: 1.0,
                kind: if (i + salt).is_multiple_of(3) {
                    ReportKind::Positive
                } else {
                    ReportKind::Negative
                },
            })
            .collect()
    }

    #[test]
    fn single_producer_round_trip_matches_sequential_oracle() {
        let config = ServiceConfig::new(8, 16).with_publish_every(2);
        let service = BillboardService::start(config).unwrap();
        let handle = service.handle().unwrap();
        for chunk in 0..5usize {
            handle.submit(&drafts(8, 16, 7, chunk)).unwrap();
        }
        drop(handle);
        let report = service.shutdown().unwrap();
        assert_eq!(report.stats.posts, 35);
        assert_eq!(report.stats.batches, 5);
        assert_eq!(report.stats.leftover_batches, 0);
        assert!(report.stats.epochs_published >= 1);

        // the merged log, replayed sequentially, matches a reader's state
        let mut reader = EpochReader::new(8, 16, VotePolicy::single_vote());
        reader.sync(&report.final_snapshot).unwrap();
        let mut board = Billboard::new(8, 16);
        report
            .final_snapshot
            .log()
            .materialize_into(&mut board)
            .unwrap();
        let mut oracle = VoteTracker::new(8, 16, VotePolicy::single_vote());
        oracle.ingest(&board);
        let full = Window::new(Round(0), Round(u64::MAX));
        assert_eq!(reader.window_tally(full), oracle.window_tally(full));
        assert_eq!(reader.tracker().events(), oracle.events());
    }

    #[test]
    fn rounds_derive_from_sequences() {
        let config = ServiceConfig::new(4, 4).with_posts_per_round(3);
        let service = BillboardService::start(config).unwrap();
        let handle = service.handle().unwrap();
        handle.submit(&drafts(4, 4, 8, 0)).unwrap();
        drop(handle);
        let report = service.shutdown().unwrap();
        let rounds: Vec<u64> = report
            .final_snapshot
            .log()
            .slices_since(Seq(0))
            .flatten()
            .map(|p| p.round.0)
            .collect();
        assert_eq!(rounds, vec![0, 0, 0, 1, 1, 1, 2, 2]);
    }

    #[test]
    fn invalid_drafts_are_rejected_before_sequence_allocation() {
        let service = BillboardService::start(ServiceConfig::new(4, 4)).unwrap();
        let handle = service.handle().unwrap();
        let bad = Draft {
            author: PlayerId(4),
            object: ObjectId(0),
            value: 1.0,
            kind: ReportKind::Positive,
        };
        assert!(matches!(
            handle.submit(&[bad]),
            Err(ServiceError::Rejected(BillboardError::UnknownAuthor { .. }))
        ));
        // the failed submit left no hole: the next good batch applies
        handle.submit(&drafts(4, 4, 3, 0)).unwrap();
        drop(handle);
        let report = service.shutdown().unwrap();
        assert_eq!(report.stats.posts, 3);
        assert_eq!(report.stats.leftover_batches, 0);
    }

    #[test]
    fn config_validation() {
        assert!(ServiceConfig::new(0, 4).validate().is_err());
        assert!(ServiceConfig::new(4, 0).validate().is_err());
        assert!(ServiceConfig::new(4, 4)
            .with_posts_per_round(0)
            .validate()
            .is_err());
        assert!(ServiceConfig::new(4, 4)
            .with_channel_batches(0)
            .validate()
            .is_err());
        assert!(ServiceConfig::new(4, 4)
            .with_publish_every(0)
            .validate()
            .is_err());
        assert!(BillboardService::start(ServiceConfig::new(4, 4).with_posts_per_round(0)).is_err());
    }

    #[test]
    fn multi_producer_concurrent_submissions_linearize() {
        let config = ServiceConfig::new(16, 32).with_channel_batches(4);
        let service = BillboardService::start(config).unwrap();
        let mut workers = Vec::new();
        for p in 0..4u32 {
            let handle = service.handle().unwrap();
            workers.push(std::thread::spawn(move || {
                for chunk in 0..25usize {
                    handle
                        .submit(&drafts(16, 32, 11, p as usize * 1000 + chunk))
                        .unwrap();
                }
            }));
        }
        for w in workers {
            w.join().unwrap();
        }
        let report = service.shutdown().unwrap();
        assert_eq!(report.stats.posts, 4 * 25 * 11);
        assert_eq!(report.stats.leftover_batches, 0);
        // merged log is gap-free and seq-ordered by construction; verify
        let seqs: Vec<u64> = report
            .final_snapshot
            .log()
            .slices_since(Seq(0))
            .flatten()
            .map(|p| p.seq.0)
            .collect();
        assert_eq!(seqs, (0..4 * 25 * 11).collect::<Vec<u64>>());
        // and a reader's interpretation matches the sequential oracle
        assert!(crate::verify_linearization(
            &report.final_snapshot,
            VotePolicy::multi_vote(4)
        ));
    }
}
