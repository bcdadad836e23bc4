//! Segmented, structurally-shared billboard log.
//!
//! [`SegmentLog`] stores the same append-only post log as
//! [`Billboard`](crate::Billboard), but as a sequence of immutable
//! reference-counted segments instead of one flat `Vec<Post>`. Two properties
//! make it the substrate for epoch-pinned snapshot reads:
//!
//! * **Snapshots cost the same at any length** — the segments are kept in
//!   sealed blocks of 64 behind one shared `Arc`, plus an open tail of fewer
//!   than 64. Cloning the log bumps that one `Arc` and copies at most 63
//!   tail handles, never a post, so a publisher can hand out an immutable
//!   epoch after every applied batch without copying history and without
//!   paying for the log's length;
//! * **O(1) amortized append** — pushing a batch moves one `Arc<[Post]>`
//!   into the tail; the authoritative log never memmoves old posts the way a
//!   growing `Vec` does. Sealing a full tail copies the block list only
//!   while a snapshot still shares it: about `blocks / 64` handle copies
//!   per push, amortized.
//!
//! The log enforces exactly the invariants of [`Billboard::append`]
//! (author/object universe, monotone rounds) plus the batched-ingest
//! sequence discipline: every segment must start at the log's next sequence
//! number and be internally gap-free. A `SegmentLog` is therefore always
//! bit-identical, post for post, to the `Billboard` built by appending the
//! same posts one at a time — the equivalence the linearization proptests
//! pin down.
//!
//! [`Billboard::append`]: crate::Billboard::append

use crate::error::BillboardError;
use crate::ids::{Round, Seq};
use crate::post::Post;
use std::sync::Arc;

/// Segments per sealed block.
const BLOCK: usize = 64;

/// One segment and the sequence number of its first post.
type Entry = (u64, Arc<[Post]>);

/// An append-only post log stored as immutable shared segments.
///
/// See the `segment` module docs for why this exists alongside
/// [`Billboard`](crate::Billboard). `Clone` is the snapshot: it bumps the
/// one `Arc` behind the sealed blocks and copies at most `BLOCK - 1` tail
/// entries.
#[derive(Debug, Clone)]
pub struct SegmentLog {
    n_players: u32,
    n_objects: u32,
    /// Sealed blocks of exactly `BLOCK` entries each, in sequence order,
    /// shared with every snapshot taken since they were sealed.
    blocks: Arc<Vec<Arc<[Entry]>>>,
    /// The entries after the last sealed block: fewer than `BLOCK`.
    tail: Vec<Entry>,
    /// Total posts across all segments (== the next sequence number).
    len: u64,
    latest_round: Round,
}

impl SegmentLog {
    /// Creates an empty log for a universe of `n_players` × `n_objects`.
    pub fn new(n_players: u32, n_objects: u32) -> Self {
        SegmentLog {
            n_players,
            n_objects,
            blocks: Arc::default(),
            tail: Vec::new(),
            len: 0,
            latest_round: Round(0),
        }
    }

    /// Number of players in the universe.
    #[inline]
    pub fn n_players(&self) -> u32 {
        self.n_players
    }

    /// Number of objects in the universe.
    #[inline]
    pub fn n_objects(&self) -> u32 {
        self.n_objects
    }

    /// Total number of posts across all segments.
    #[inline]
    pub fn len(&self) -> u64 {
        self.len
    }

    /// `true` iff nothing has been appended yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The sequence number the next appended post must carry.
    #[inline]
    pub fn next_seq(&self) -> Seq {
        Seq(self.len)
    }

    /// The timestamp of the most recent post (`Round(0)` when empty).
    #[inline]
    pub fn latest_round(&self) -> Round {
        self.latest_round
    }

    /// Number of segments (applied non-empty batches) in the log.
    #[inline]
    pub fn segment_count(&self) -> usize {
        self.blocks.len() * BLOCK + self.tail.len()
    }

    /// Appends one immutable segment, validating the same invariants as
    /// [`Billboard::ingest_batch`](crate::Billboard::ingest_batch): the
    /// segment must start at [`next_seq`](SegmentLog::next_seq), be
    /// internally sequence-contiguous and round-monotone, and stay within
    /// the id universe. Empty segments are accepted and ignored.
    ///
    /// This is the applier's per-batch hot path: validation is one linear
    /// scan of the new posts, and the append itself moves a single `Arc`.
    /// Every `BLOCK`-th push seals the tail into a block, which allocates
    /// the block and, while a snapshot shares the block list, a copy of that
    /// list's handles.
    ///
    /// # Errors
    ///
    /// The same [`BillboardError`] variants as
    /// [`Billboard::ingest_batch`](crate::Billboard::ingest_batch); on error
    /// the log is unchanged.
    // lint: hot
    pub fn push_segment(&mut self, segment: Arc<[Post]>) -> Result<(), BillboardError> {
        if segment.is_empty() {
            return Ok(());
        }
        let mut expected = self.len;
        let mut latest = self.latest_round;
        for p in segment.iter() {
            if p.seq != Seq(expected) {
                return Err(BillboardError::SeqMismatch {
                    expected: Seq(expected),
                    got: p.seq,
                });
            }
            if p.author.0 >= self.n_players {
                return Err(BillboardError::UnknownAuthor {
                    author: p.author,
                    n_players: self.n_players,
                });
            }
            if p.object.0 >= self.n_objects {
                return Err(BillboardError::UnknownObject {
                    object: p.object,
                    n_objects: self.n_objects,
                });
            }
            if p.round < latest {
                return Err(BillboardError::RoundRegression {
                    attempted: p.round,
                    current: latest,
                });
            }
            latest = p.round;
            expected += 1;
        }
        self.tail.push((self.len, segment));
        self.len = expected;
        self.latest_round = latest;
        if self.tail.len() == BLOCK {
            // lint: allow(alloc) — one block per BLOCK pushes; the drain
            // keeps the tail's buffer for the next block
            let block = self.tail.drain(..).collect();
            Arc::make_mut(&mut self.blocks).push(block);
        }
        Ok(())
    }

    /// Iterator over the log's posts from sequence number `from` onward, as
    /// contiguous, non-empty slices (at most one partial leading slice, then
    /// whole segments). This is the incremental-read primitive behind
    /// [`VoteTracker::ingest_segments`](crate::VoteTracker::ingest_segments)
    /// and reader catch-up: a reader remembers how far it has consumed and
    /// walks only the delta. Finding `from` costs a binary search over the
    /// sealed blocks and a scan of at most two blocks' entries.
    pub fn slices_since(&self, from: Seq) -> impl Iterator<Item = &[Post]> {
        let target = from.0.min(self.len);
        // The last sealed block that starts at or before `target` (every
        // earlier block ends before it); segments are never empty.
        let first = self
            .blocks
            .partition_point(|block| block[0].0 <= target)
            .saturating_sub(1);
        self.blocks[first..]
            .iter()
            .flat_map(|block| block.iter())
            .chain(&self.tail)
            .skip_while(move |(start, seg)| start + seg.len() as u64 <= target)
            .map(move |(start, seg)| {
                #[expect(
                    clippy::cast_possible_truncation,
                    reason = "the offset is below seg.len(), a usize, once skip_while has passed every earlier segment"
                )]
                let offset = target.saturating_sub(*start) as usize;
                &seg[offset..]
            })
    }

    /// Copies every post from sequence `from` onward into `board` via
    /// [`Billboard::ingest_batch`](crate::Billboard::ingest_batch),
    /// returning how many posts were appended. Used by readers that
    /// materialize a flat [`Billboard`](crate::Billboard) for
    /// [`BoardView`](crate::BoardView)-based epoch reads.
    ///
    /// # Errors
    ///
    /// Propagates [`BillboardError`] from the board; this only fires when
    /// `board` does not line up with this log (different universe or a log
    /// that is not a prefix of this one).
    pub fn materialize_into(&self, board: &mut crate::Billboard) -> Result<usize, BillboardError> {
        let from = Seq(board.len() as u64);
        let mut appended = 0usize;
        for slice in self.slices_since(from) {
            appended += board.ingest_batch(slice)?;
        }
        Ok(appended)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ObjectId, PlayerId};
    use crate::post::ReportKind;
    use crate::Billboard;

    fn post(seq: u64, round: u64, author: u32, object: u32) -> Post {
        Post {
            seq: Seq(seq),
            round: Round(round),
            author: PlayerId(author),
            object: ObjectId(object),
            value: 1.0,
            kind: ReportKind::Positive,
        }
    }

    fn seg(posts: Vec<Post>) -> Arc<[Post]> {
        Arc::from(posts)
    }

    #[test]
    fn push_validates_and_accumulates() {
        let mut log = SegmentLog::new(4, 8);
        log.push_segment(seg(vec![post(0, 0, 0, 1), post(1, 0, 1, 2)]))
            .unwrap();
        log.push_segment(seg(vec![post(2, 1, 2, 3)])).unwrap();
        assert_eq!(log.len(), 3);
        assert_eq!(log.next_seq(), Seq(3));
        assert_eq!(log.latest_round(), Round(1));
        assert_eq!(log.segment_count(), 2);
    }

    #[test]
    fn rejects_gap_and_overlap_and_regression() {
        let mut log = SegmentLog::new(4, 8);
        log.push_segment(seg(vec![post(0, 0, 0, 1)])).unwrap();
        // gap
        let err = log.push_segment(seg(vec![post(2, 0, 0, 1)])).unwrap_err();
        assert!(matches!(err, BillboardError::SeqMismatch { .. }));
        // overlap (replays seq 0)
        let err = log.push_segment(seg(vec![post(0, 0, 0, 1)])).unwrap_err();
        assert!(matches!(err, BillboardError::SeqMismatch { .. }));
        // internal gap
        let err = log
            .push_segment(seg(vec![post(1, 0, 0, 1), post(3, 0, 0, 1)]))
            .unwrap_err();
        assert!(matches!(err, BillboardError::SeqMismatch { .. }));
        // round regression across segments
        log.push_segment(seg(vec![post(1, 5, 0, 1)])).unwrap();
        let err = log.push_segment(seg(vec![post(2, 4, 0, 1)])).unwrap_err();
        assert!(matches!(err, BillboardError::RoundRegression { .. }));
        // failed pushes left the log unchanged
        assert_eq!(log.len(), 2);
        // universe bounds
        let err = log.push_segment(seg(vec![post(2, 5, 4, 0)])).unwrap_err();
        assert!(matches!(err, BillboardError::UnknownAuthor { .. }));
        let err = log.push_segment(seg(vec![post(2, 5, 0, 8)])).unwrap_err();
        assert!(matches!(err, BillboardError::UnknownObject { .. }));
    }

    #[test]
    fn empty_segment_is_a_noop() {
        let mut log = SegmentLog::new(4, 8);
        log.push_segment(seg(vec![])).unwrap();
        assert!(log.is_empty());
        assert_eq!(log.segment_count(), 0);
    }

    #[test]
    fn slices_since_walks_the_delta() {
        // 3 sealed blocks and a tail of 7; a snapshot after every push.
        let mut log = SegmentLog::new(4, 8);
        let mut snaps = vec![log.clone()];
        let mut seq = 0;
        for i in 0..(3 * BLOCK + 7) as u64 {
            let width = 1 + i % 3;
            let posts = (seq..seq + width).map(|s| post(s, i, 0, 1)).collect();
            log.push_segment(seg(posts)).unwrap();
            seq += width;
            snaps.push(log.clone());
        }
        assert_eq!(log.segment_count(), 3 * BLOCK + 7);
        for snap in &snaps {
            let end = snap.len();
            for cut in 0..=end + 1 {
                let slices: Vec<&[Post]> = snap.slices_since(Seq(cut)).collect();
                assert!(slices.iter().all(|s| !s.is_empty()), "empty slice at {cut}");
                let got: Vec<u64> = slices
                    .iter()
                    .flat_map(|s| s.iter())
                    .map(|p| p.seq.0)
                    .collect();
                let want: Vec<u64> = (cut.min(end)..end).collect();
                assert_eq!(got, want, "cut {cut} of a {end}-post snapshot");
            }
        }
    }

    #[test]
    fn snapshot_is_structural_sharing() {
        let mut log = SegmentLog::new(4, 8);
        log.push_segment(seg(vec![post(0, 0, 0, 1)])).unwrap();
        let snap = log.clone();
        log.push_segment(seg(vec![post(1, 1, 1, 2)])).unwrap();
        // the snapshot still sees only its epoch's prefix
        assert_eq!(snap.len(), 1);
        assert_eq!(log.len(), 2);
        let first = |log: &SegmentLog| log.slices_since(Seq(0)).next().map(<[Post]>::as_ptr);
        assert_eq!(first(&snap), first(&log));
    }

    #[test]
    fn materialize_matches_sequential_board() {
        let mut log = SegmentLog::new(4, 8);
        log.push_segment(seg(vec![post(0, 0, 0, 1), post(1, 0, 1, 2)]))
            .unwrap();
        log.push_segment(seg(vec![post(2, 1, 2, 3)])).unwrap();

        let mut via_log = Billboard::new(4, 8);
        log.materialize_into(&mut via_log).unwrap();

        let mut oracle = Billboard::new(4, 8);
        for p in log.slices_since(Seq(0)).flatten() {
            oracle
                .append(p.round, p.author, p.object, p.value, p.kind)
                .unwrap();
        }
        assert_eq!(via_log.posts(), oracle.posts());

        // incremental: a second materialize call appends only the delta
        log.push_segment(seg(vec![post(3, 2, 3, 4)])).unwrap();
        assert_eq!(log.materialize_into(&mut via_log).unwrap(), 1);
        assert_eq!(via_log.len(), 4);
    }
}
