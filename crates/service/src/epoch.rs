//! Epoch-pinned snapshot reads.
//!
//! The applier publishes the log as a monotone sequence of immutable
//! **epochs**. An [`EpochSnapshot`] is a structural-sharing clone of the
//! [`SegmentLog`] — cloning copies one `Arc` for the log's sealed blocks and
//! at most 63 segment handles of its open tail, never posts — so publishing
//! after a batch costs the same at any log length, and a published snapshot
//! is frozen forever. Readers hold an [`EpochReader`]: their own
//! [`VoteTracker`] (and optionally a materialized [`Billboard`] for
//! [`BoardView`]-based reads) that they catch up against any snapshot at
//! their own pace. Readers therefore never lock the log, and producers
//! never wait for readers — the only shared state is one pointer swap in
//! the [`EpochCell`].

use distill_billboard::{
    Billboard, BillboardError, BoardView, ObjectId, PlayerId, Round, SegmentLog, VotePolicy,
    VoteTracker, Window,
};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};

/// One immutable published state of the billboard log.
#[derive(Debug, Clone)]
pub struct EpochSnapshot {
    epoch: u64,
    log: SegmentLog,
}

impl EpochSnapshot {
    /// The empty epoch 0 for a fresh service.
    pub fn empty(n_players: u32, n_objects: u32) -> Self {
        EpochSnapshot {
            epoch: 0,
            log: SegmentLog::new(n_players, n_objects),
        }
    }

    /// Freezes `log` (by structural-sharing clone) as epoch `epoch`.
    pub fn at(epoch: u64, log: &SegmentLog) -> Self {
        EpochSnapshot {
            epoch,
            log: log.clone(),
        }
    }

    /// The epoch counter (monotone across publishes).
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The frozen log.
    #[inline]
    pub fn log(&self) -> &SegmentLog {
        &self.log
    }

    /// Total posts visible in this epoch.
    #[inline]
    pub fn posts(&self) -> u64 {
        self.log.len()
    }

    /// Timestamp of the most recent visible post.
    #[inline]
    pub fn latest_round(&self) -> Round {
        self.log.latest_round()
    }
}

/// The single shared pointer between the applier and all readers.
///
/// `load` and `publish` each hold the lock only for one `Arc`
/// clone/assignment — there is no path that holds it across log access, so
/// readers can never block producers for more than a pointer swap.
#[derive(Debug)]
pub struct EpochCell {
    slot: Mutex<Arc<EpochSnapshot>>,
}

impl EpochCell {
    /// Wraps `initial` as the currently-published snapshot.
    pub fn new(initial: EpochSnapshot) -> Self {
        EpochCell {
            slot: Mutex::new(Arc::new(initial)),
        }
    }

    /// The most recently published snapshot.
    pub fn load(&self) -> Arc<EpochSnapshot> {
        // A poisoned slot still holds a fully-published snapshot (the swap
        // is a single assignment), so recovering the guard is sound.
        Arc::clone(&self.slot.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Publishes `snapshot`, replacing the previous epoch for new loads.
    /// Readers that already loaded the old epoch keep it alive for free.
    /// The replaced epoch is released after the lock, so a reader's `load`
    /// never waits for it to be freed.
    pub fn publish(&self, snapshot: Arc<EpochSnapshot>) {
        let replaced = std::mem::replace(
            &mut *self.slot.lock().unwrap_or_else(PoisonError::into_inner),
            snapshot,
        );
        drop(replaced);
    }
}

/// A reader's private, epoch-synced interpretation state.
///
/// The reader owns the *same* [`VoteTracker`] the simulation engines run —
/// not a service-specific reimplementation — and feeds it incrementally
/// from epoch snapshots via
/// [`VoteTracker::ingest_segments`]. With
/// [`with_board`](EpochReader::with_board) it additionally materializes a
/// flat [`Billboard`] so [`view`](EpochReader::view) can hand out the
/// standard [`BoardView`] facade, pinned at the epoch cut through
/// [`BoardView::new_lagged`] — the epoch-read primitive.
#[derive(Debug)]
pub struct EpochReader {
    tracker: VoteTracker,
    board: Option<Billboard>,
    epoch: u64,
    latest_round: Round,
}

impl EpochReader {
    /// A tracker-only reader (tally queries, no raw-log access).
    pub fn new(n_players: u32, n_objects: u32, policy: VotePolicy) -> Self {
        EpochReader {
            tracker: VoteTracker::new(n_players, n_objects, policy),
            board: None,
            epoch: 0,
            latest_round: Round(0),
        }
    }

    /// A reader that also materializes the flat log, enabling
    /// [`view`](EpochReader::view). Costs one post copy per sync.
    pub fn with_board(n_players: u32, n_objects: u32, policy: VotePolicy) -> Self {
        EpochReader {
            board: Some(Billboard::new(n_players, n_objects)),
            ..Self::new(n_players, n_objects, policy)
        }
    }

    /// Catches the reader up to `snapshot`, returning how many new posts
    /// were consumed. Epochs are monotone, so syncing against an older
    /// snapshot than the reader has already seen is a no-op.
    ///
    /// # Errors
    ///
    /// Propagates [`BillboardError`] from board materialization; this only
    /// fires if `snapshot` does not extend the previously synced log
    /// (mixing services is a programming error).
    pub fn sync(&mut self, snapshot: &EpochSnapshot) -> Result<usize, BillboardError> {
        if snapshot.epoch() < self.epoch {
            return Ok(0);
        }
        if let Some(board) = self.board.as_mut() {
            snapshot.log().materialize_into(board)?;
        }
        let consumed = self.tracker.ingest_segments(snapshot.log());
        self.epoch = snapshot.epoch();
        self.latest_round = snapshot.latest_round();
        Ok(consumed)
    }

    /// The epoch this reader last synced to.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The latest round visible at the synced epoch.
    #[inline]
    pub fn latest_round(&self) -> Round {
        self.latest_round
    }

    /// The reader's tracker (the full query surface).
    #[inline]
    pub fn tracker(&self) -> &VoteTracker {
        &self.tracker
    }

    /// Registers `[start, ·)` as the reader's accumulating tally window
    /// (see [`VoteTracker::open_window`]); keeps subsequent
    /// [`window_tally_into`](EpochReader::window_tally_into) calls on the
    /// O(touched-objects) incremental path instead of the event scan.
    pub fn open_window(&mut self, start: Round) {
        self.tracker.open_window(start);
    }

    /// The current vote of `player` at the synced epoch.
    #[inline]
    pub fn vote_of(&self, player: PlayerId) -> Option<ObjectId> {
        self.tracker.vote_of(player)
    }

    /// Objects with at least one current vote at the synced epoch.
    #[inline]
    pub fn objects_with_votes(&self) -> &[ObjectId] {
        self.tracker.objects_with_votes()
    }

    /// Per-object vote tally over `window` at the synced epoch.
    pub fn window_tally(&self, window: Window) -> BTreeMap<ObjectId, u32> {
        self.tracker.window_tally(window)
    }

    /// Allocation-free tally over `window` (see
    /// [`VoteTracker::window_tally_into`]).
    pub fn window_tally_into(&self, window: Window, out: &mut Vec<(ObjectId, u32)>) {
        self.tracker.window_tally_into(window, out);
    }

    /// A [`BoardView`] pinned at the synced epoch, or `None` for
    /// tracker-only readers. The view is lagged at the epoch's round cut:
    /// it sees exactly the posts the epoch froze, regardless of what the
    /// applier has appended since.
    pub fn view(&self) -> Option<BoardView<'_>> {
        self.board.as_ref().map(|board| {
            BoardView::new_lagged(
                board,
                &self.tracker,
                self.latest_round,
                self.latest_round.next(),
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distill_billboard::{Post, ReportKind, Seq};

    fn seg(range: std::ops::Range<u64>) -> Arc<[Post]> {
        let posts: Vec<Post> = range
            .map(|i| Post {
                seq: Seq(i),
                round: Round(i / 2),
                author: PlayerId((i % 4) as u32),
                object: ObjectId((i % 8) as u32),
                value: 1.0,
                kind: if i % 3 == 0 {
                    ReportKind::Positive
                } else {
                    ReportKind::Negative
                },
            })
            .collect();
        Arc::from(posts)
    }

    #[test]
    fn cell_swaps_epochs_without_disturbing_held_snapshots() {
        let mut log = SegmentLog::new(4, 8);
        let cell = EpochCell::new(EpochSnapshot::empty(4, 8));
        let before = cell.load();
        log.push_segment(seg(0..4)).unwrap();
        cell.publish(Arc::new(EpochSnapshot::at(1, &log)));
        let after = cell.load();
        assert_eq!(before.posts(), 0);
        assert_eq!(after.posts(), 4);
        assert_eq!(after.epoch(), 1);
    }

    #[test]
    fn reader_syncs_incrementally_and_matches_sequential_oracle() {
        let mut log = SegmentLog::new(4, 8);
        log.push_segment(seg(0..3)).unwrap();
        let mut reader = EpochReader::with_board(4, 8, VotePolicy::single_vote());
        reader.sync(&EpochSnapshot::at(1, &log)).unwrap();
        log.push_segment(seg(3..7)).unwrap();
        let consumed = reader.sync(&EpochSnapshot::at(2, &log)).unwrap();
        assert_eq!(consumed, 4);
        assert_eq!(reader.epoch(), 2);

        // oracle: plain sequential ingest of the same posts
        let mut board = Billboard::new(4, 8);
        log.materialize_into(&mut board).unwrap();
        let mut oracle = VoteTracker::new(4, 8, VotePolicy::single_vote());
        oracle.ingest(&board);
        let full = Window::new(Round(0), Round(u64::MAX));
        assert_eq!(reader.window_tally(full), oracle.window_tally(full));
        assert_eq!(reader.objects_with_votes(), oracle.objects_with_votes());
        assert_eq!(reader.tracker().events(), oracle.events());

        // stale re-sync is a no-op
        assert_eq!(reader.sync(&EpochSnapshot::at(1, &log)).unwrap(), 0);
    }

    #[test]
    fn view_is_pinned_at_the_epoch_cut() {
        let mut log = SegmentLog::new(4, 8);
        log.push_segment(seg(0..4)).unwrap();
        let mut reader = EpochReader::with_board(4, 8, VotePolicy::single_vote());
        reader.sync(&EpochSnapshot::at(1, &log)).unwrap();
        let view = reader.view().expect("board-backed reader has views");
        assert_eq!(view.posts().len(), 4);
        assert_eq!(view.lag_cutoff(), Some(reader.latest_round().next()));
        // tracker-only readers have no raw-log view
        let bare = EpochReader::new(4, 8, VotePolicy::single_vote());
        assert!(bare.view().is_none());
    }
}
