//! Segmented, structurally-shared billboard log.
//!
//! [`SegmentLog`] stores the same append-only post log as
//! [`Billboard`](crate::Billboard), but as a vector of immutable
//! reference-counted segments instead of one flat `Vec<Post>`. Two properties
//! make it the substrate for epoch-pinned snapshot reads:
//!
//! * **O(segments) snapshots** — cloning the log clones `Arc` pointers, not
//!   posts, so a publisher can hand out an immutable epoch after every
//!   applied batch without copying history;
//! * **O(1) amortized append** — pushing a batch moves one `Arc<[Post]>`
//!   into the segment list; the authoritative log never memmoves old posts
//!   the way a growing `Vec` does.
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

/// An append-only post log stored as immutable shared segments.
///
/// See the `segment` module docs for why this exists alongside
/// [`Billboard`](crate::Billboard).
#[derive(Debug, Clone)]
pub struct SegmentLog {
    n_players: u32,
    n_objects: u32,
    /// Immutable segments, in sequence order.
    segments: Vec<Arc<[Post]>>,
    /// First sequence number of each segment (parallel to `segments`),
    /// kept for binary-searched incremental reads.
    starts: Vec<u64>,
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
            segments: Vec::new(),
            starts: Vec::new(),
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

    /// The immutable segments, in sequence order.
    #[inline]
    pub fn segments(&self) -> &[Arc<[Post]>] {
        &self.segments
    }

    /// Appends one immutable segment, validating the same invariants as
    /// [`Billboard::ingest_batch`](crate::Billboard::ingest_batch): the
    /// segment must start at [`next_seq`](SegmentLog::next_seq), be
    /// internally sequence-contiguous and round-monotone, and stay within
    /// the id universe. Empty segments are accepted and ignored.
    ///
    /// This is the applier's per-batch hot path: validation is one linear
    /// scan of the new posts, and the append itself moves a single `Arc`.
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
        self.starts.push(self.len);
        self.segments.push(segment);
        self.len = expected;
        self.latest_round = latest;
        Ok(())
    }

    /// Iterator over the log's posts from sequence number `from` onward, as
    /// contiguous slices (at most one partial leading slice, then whole
    /// segments). This is the incremental-read primitive behind
    /// [`VoteTracker::ingest_segments`](crate::VoteTracker::ingest_segments)
    /// and reader catch-up: a reader remembers how far it has consumed and
    /// walks only the delta.
    pub fn slices_since(&self, from: Seq) -> impl Iterator<Item = &[Post]> {
        let target = from.0.min(self.len);
        // First segment whose *end* is beyond `target`.
        let idx = self.starts.partition_point(|&s| s <= target);
        let idx = idx.saturating_sub(1);
        let segments = &self.segments[idx.min(self.segments.len())..];
        let starts = &self.starts[idx.min(self.starts.len())..];
        segments
            .iter()
            .zip(starts.iter())
            .filter_map(move |(seg, &start)| {
                if target <= start {
                    Some(&seg[..])
                } else {
                    let skip = (target - start) as usize;
                    if skip >= seg.len() {
                        None
                    } else {
                        Some(&seg[skip..])
                    }
                }
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
        assert_eq!(log.segments().len(), 2);
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
        assert_eq!(log.segments().len(), 0);
    }

    #[test]
    fn slices_since_walks_the_delta() {
        let mut log = SegmentLog::new(4, 8);
        log.push_segment(seg(vec![post(0, 0, 0, 1), post(1, 0, 1, 2)]))
            .unwrap();
        log.push_segment(seg(vec![post(2, 1, 2, 3), post(3, 1, 3, 4)]))
            .unwrap();
        log.push_segment(seg(vec![post(4, 2, 0, 5)])).unwrap();
        // oracle: flatten and compare at every cut
        let flat: Vec<Post> = log
            .slices_since(Seq(0))
            .flat_map(|s| s.iter().copied())
            .collect();
        assert_eq!(flat.len(), 5);
        for cut in 0..=6u64 {
            let got: Vec<Post> = log
                .slices_since(Seq(cut))
                .flat_map(|s| s.iter().copied())
                .collect();
            let want: Vec<Post> = flat.iter().copied().skip(cut as usize).collect();
            assert_eq!(got, want, "cut at {cut}");
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
        assert!(Arc::ptr_eq(&snap.segments()[0], &log.segments()[0]));
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
