//! The append-only billboard log.

use crate::error::BillboardError;
use crate::ids::{ObjectId, PlayerId, Round, Seq};
use crate::post::{Post, ReportKind};

/// The shared, append-only, author-tagged, round-stamped billboard (§2.1).
///
/// The billboard is the *only* communication channel between players. It
/// enforces the three environment guarantees of the paper and nothing more:
///
/// * **append-only** — there is no API to remove or mutate a post;
/// * **reliable author tags** — authors must belong to the registered player
///   universe (a Byzantine player cannot impersonate another id because the
///   simulation engine, playing the role of the transport, stamps the author);
/// * **timestamps** — posts carry their round, and rounds never regress.
///
/// It deliberately does **not** enforce any voting semantics: a Byzantine
/// player may post a thousand contradictory positive reports. Enforcing the
/// "one vote per player" rule is the readers' job (see
/// [`VoteTracker`](crate::VoteTracker)), mirroring the paper's model where
/// honest players simply *ignore* all but the first vote of each player.
#[derive(Debug, Clone)]
pub struct Billboard {
    posts: Vec<Post>,
    n_players: u32,
    n_objects: u32,
    latest_round: Round,
}

impl Billboard {
    /// Creates an empty billboard for a universe of `n_players` players and
    /// `n_objects` objects.
    pub fn new(n_players: u32, n_objects: u32) -> Self {
        Billboard {
            posts: Vec::new(),
            n_players,
            n_objects,
            latest_round: Round(0),
        }
    }

    /// Creates an empty billboard with room for `posts` posts pre-reserved.
    ///
    /// Steady-state ingest benchmarks and the service applier both know the
    /// expected log volume up front; pre-sizing keeps the append path free of
    /// reallocation/copy spikes (the source of the 2× mean-vs-median skew the
    /// `billboard/ingest_100k_posts` bench used to show).
    pub fn with_capacity(n_players: u32, n_objects: u32, posts: usize) -> Self {
        Billboard {
            posts: Vec::with_capacity(posts),
            n_players,
            n_objects,
            latest_round: Round(0),
        }
    }

    /// Reserves capacity for at least `additional` more posts.
    pub fn reserve_posts(&mut self, additional: usize) {
        self.posts.reserve(additional);
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

    /// Appends a post, returning its sequence number.
    ///
    /// # Errors
    ///
    /// * [`BillboardError::UnknownAuthor`] if `author` is outside the universe;
    /// * [`BillboardError::UnknownObject`] if `object` is outside the universe;
    /// * [`BillboardError::RoundRegression`] if `round` is earlier than the
    ///   latest post already on the board (timestamps are monotone in a
    ///   synchronous execution).
    pub fn append(
        &mut self,
        round: Round,
        author: PlayerId,
        object: ObjectId,
        value: f64,
        kind: ReportKind,
    ) -> Result<Seq, BillboardError> {
        if author.0 >= self.n_players {
            return Err(BillboardError::UnknownAuthor {
                author,
                n_players: self.n_players,
            });
        }
        if object.0 >= self.n_objects {
            return Err(BillboardError::UnknownObject {
                object,
                n_objects: self.n_objects,
            });
        }
        if round < self.latest_round {
            return Err(BillboardError::RoundRegression {
                attempted: round,
                current: self.latest_round,
            });
        }
        self.latest_round = round;
        let seq = Seq(self.posts.len() as u64);
        self.posts.push(Post {
            seq,
            round,
            author,
            object,
            value,
            kind,
        });
        Ok(seq)
    }

    /// Appends a contiguous run of **pre-stamped** posts in one call.
    ///
    /// This is the batched-ingest primitive behind the concurrent billboard
    /// service: producers stamp explicit sequence numbers at submission time
    /// and the applier merges batches back in sequence order, so the resulting
    /// log is bit-identical to appending the same posts one at a time. The
    /// whole batch is validated before anything is copied — on error the
    /// board is unchanged (all-or-nothing).
    ///
    /// # Errors
    ///
    /// * [`BillboardError::SeqMismatch`] if the batch does not start at the
    ///   log's next sequence number or skips/repeats a sequence internally;
    /// * [`BillboardError::UnknownAuthor`] / [`BillboardError::UnknownObject`]
    ///   if any post references an id outside the universe;
    /// * [`BillboardError::RoundRegression`] if any post is stamped earlier
    ///   than its predecessor (timestamps stay monotone along the log).
    pub fn ingest_batch(&mut self, batch: &[Post]) -> Result<usize, BillboardError> {
        let mut latest = self.latest_round;
        for (expected, p) in (self.posts.len() as u64..).zip(batch.iter()) {
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
        }
        self.posts.extend_from_slice(batch);
        self.latest_round = latest;
        Ok(batch.len())
    }

    /// Rewinds the board to its freshly-constructed (empty) state **in
    /// place**, retaining the post log's heap capacity.
    ///
    /// This does not weaken the append-only guarantee *within* an execution:
    /// it exists for simulation harnesses that reuse one board arena across
    /// independent trials (each trial is a new execution with its own empty
    /// board), not for mutating history mid-run.
    pub fn reset(&mut self) {
        self.posts.clear();
        self.latest_round = Round(0);
    }

    /// Total number of posts ever appended.
    #[inline]
    pub fn len(&self) -> usize {
        self.posts.len()
    }

    /// `true` iff nothing has been posted yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.posts.is_empty()
    }

    /// The timestamp of the most recent post (`Round(0)` when empty).
    #[inline]
    pub fn latest_round(&self) -> Round {
        self.latest_round
    }

    /// All posts, in append order.
    #[inline]
    pub fn posts(&self) -> &[Post] {
        &self.posts
    }

    /// The posts appended at or after sequence number `from`.
    ///
    /// This is the incremental-read primitive used by
    /// [`VoteTracker::ingest`](crate::VoteTracker::ingest).
    pub fn posts_since(&self, from: Seq) -> &[Post] {
        let idx = from.index().min(self.posts.len());
        &self.posts[idx..]
    }

    /// The prefix of the log visible to a reader whose view lags behind:
    /// every post stamped with a round strictly before `before`.
    ///
    /// Because rounds are monotone along the log (enforced by [`append`]'s
    /// `RoundRegression` check), that prefix is contiguous and found by
    /// binary search — O(log posts), no allocation. This is the primitive
    /// behind lagged [`BoardView`](crate::BoardView)s.
    ///
    /// [`append`]: Billboard::append
    pub fn posts_before(&self, before: Round) -> &[Post] {
        let visible = self.posts.partition_point(|p| p.round < before);
        &self.posts[..visible]
    }

    /// Iterator over the posts authored by `player`, in append order.
    ///
    /// This is a linear scan; prefer [`VoteTracker`](crate::VoteTracker) for
    /// hot-path queries.
    pub fn posts_by(&self, player: PlayerId) -> impl Iterator<Item = &Post> {
        self.posts.iter().filter(move |p| p.author == player)
    }

    /// Iterator over the posts about `object`, in append order.
    pub fn posts_about(&self, object: ObjectId) -> impl Iterator<Item = &Post> {
        self.posts.iter().filter(move |p| p.object == object)
    }

    /// Volume statistics over the whole log.
    pub fn stats(&self) -> BoardStats {
        let mut positive = 0usize;
        let mut authors = vec![false; self.n_players as usize];
        let mut objects = vec![false; self.n_objects as usize];
        for p in &self.posts {
            if p.is_positive() {
                positive += 1;
            }
            authors[p.author.index()] = true;
            objects[p.object.index()] = true;
        }
        BoardStats {
            posts: self.posts.len(),
            positive,
            negative: self.posts.len() - positive,
            distinct_authors: authors.iter().filter(|&&a| a).count(),
            distinct_objects: objects.iter().filter(|&&o| o).count(),
            latest_round: self.latest_round,
        }
    }
}

/// Aggregate volume statistics of a billboard (see [`Billboard::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoardStats {
    /// Total posts.
    pub posts: usize,
    /// Positive reports.
    pub positive: usize,
    /// Negative reports.
    pub negative: usize,
    /// Players that have posted at least once.
    pub distinct_authors: usize,
    /// Objects mentioned at least once.
    pub distinct_objects: usize,
    /// Timestamp of the most recent post.
    pub latest_round: Round,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn board() -> Billboard {
        Billboard::new(3, 5)
    }

    #[test]
    fn append_assigns_sequences() {
        let mut b = board();
        let s0 = b
            .append(
                Round(0),
                PlayerId(0),
                ObjectId(1),
                1.0,
                ReportKind::Positive,
            )
            .unwrap();
        let s1 = b
            .append(
                Round(0),
                PlayerId(1),
                ObjectId(2),
                0.0,
                ReportKind::Negative,
            )
            .unwrap();
        assert_eq!(s0, Seq(0));
        assert_eq!(s1, Seq(1));
        assert_eq!(b.len(), 2);
        assert!(!b.is_empty());
    }

    #[test]
    fn rejects_unknown_author() {
        let mut b = board();
        let err = b
            .append(
                Round(0),
                PlayerId(3),
                ObjectId(0),
                1.0,
                ReportKind::Positive,
            )
            .unwrap_err();
        assert!(matches!(err, BillboardError::UnknownAuthor { .. }));
    }

    #[test]
    fn rejects_unknown_object() {
        let mut b = board();
        let err = b
            .append(
                Round(0),
                PlayerId(0),
                ObjectId(5),
                1.0,
                ReportKind::Positive,
            )
            .unwrap_err();
        assert!(matches!(err, BillboardError::UnknownObject { .. }));
    }

    #[test]
    fn rejects_round_regression() {
        let mut b = board();
        b.append(
            Round(4),
            PlayerId(0),
            ObjectId(0),
            1.0,
            ReportKind::Positive,
        )
        .unwrap();
        let err = b
            .append(
                Round(3),
                PlayerId(1),
                ObjectId(0),
                1.0,
                ReportKind::Positive,
            )
            .unwrap_err();
        assert!(matches!(err, BillboardError::RoundRegression { .. }));
        // same round is fine (many players post per round)
        b.append(
            Round(4),
            PlayerId(2),
            ObjectId(1),
            0.0,
            ReportKind::Negative,
        )
        .unwrap();
        assert_eq!(b.latest_round(), Round(4));
    }

    #[test]
    fn posts_since_is_incremental() {
        let mut b = board();
        for i in 0..4u32 {
            b.append(
                Round(u64::from(i)),
                PlayerId(i % 3),
                ObjectId(i % 5),
                f64::from(i),
                ReportKind::Positive,
            )
            .unwrap();
        }
        assert_eq!(b.posts_since(Seq(0)).len(), 4);
        assert_eq!(b.posts_since(Seq(2)).len(), 2);
        assert_eq!(b.posts_since(Seq(4)).len(), 0);
        assert_eq!(b.posts_since(Seq(99)).len(), 0);
    }

    #[test]
    fn posts_before_is_the_round_prefix() {
        let mut b = board();
        for (round, player) in [(0u64, 0u32), (0, 1), (2, 2), (3, 0), (3, 1)] {
            b.append(
                Round(round),
                PlayerId(player),
                ObjectId(0),
                1.0,
                ReportKind::Positive,
            )
            .unwrap();
        }
        assert_eq!(b.posts_before(Round(0)).len(), 0);
        assert_eq!(b.posts_before(Round(1)).len(), 2);
        assert_eq!(b.posts_before(Round(2)).len(), 2);
        assert_eq!(b.posts_before(Round(3)).len(), 3);
        assert_eq!(b.posts_before(Round(4)).len(), 5);
        assert_eq!(b.posts_before(Round(99)), b.posts());
        // agrees with the linear-scan oracle at every cut
        for cut in 0..5u64 {
            let oracle: Vec<_> = b
                .posts()
                .iter()
                .filter(|p| p.round < Round(cut))
                .copied()
                .collect();
            assert_eq!(b.posts_before(Round(cut)), oracle.as_slice());
        }
    }

    #[test]
    fn filtered_iterators() {
        let mut b = board();
        b.append(
            Round(0),
            PlayerId(0),
            ObjectId(1),
            1.0,
            ReportKind::Positive,
        )
        .unwrap();
        b.append(
            Round(0),
            PlayerId(1),
            ObjectId(1),
            1.0,
            ReportKind::Positive,
        )
        .unwrap();
        b.append(
            Round(1),
            PlayerId(0),
            ObjectId(2),
            0.0,
            ReportKind::Negative,
        )
        .unwrap();
        assert_eq!(b.posts_by(PlayerId(0)).count(), 2);
        assert_eq!(b.posts_about(ObjectId(1)).count(), 2);
        assert_eq!(b.posts_about(ObjectId(4)).count(), 0);
    }

    #[test]
    fn stats_count_kinds_and_coverage() {
        let mut b = board();
        assert_eq!(b.stats().posts, 0);
        b.append(
            Round(0),
            PlayerId(0),
            ObjectId(1),
            1.0,
            ReportKind::Positive,
        )
        .unwrap();
        b.append(
            Round(1),
            PlayerId(0),
            ObjectId(2),
            0.0,
            ReportKind::Negative,
        )
        .unwrap();
        b.append(
            Round(2),
            PlayerId(2),
            ObjectId(1),
            1.0,
            ReportKind::Positive,
        )
        .unwrap();
        let s = b.stats();
        assert_eq!(s.posts, 3);
        assert_eq!(s.positive, 2);
        assert_eq!(s.negative, 1);
        assert_eq!(s.distinct_authors, 2);
        assert_eq!(s.distinct_objects, 2);
        assert_eq!(s.latest_round, Round(2));
    }

    #[test]
    fn ingest_batch_matches_sequential_append() {
        let make = |i: u64| Post {
            seq: Seq(i),
            round: Round(i / 2),
            author: PlayerId((i % 3) as u32),
            object: ObjectId((i % 5) as u32),
            value: f64::from((i % 7) as u32),
            kind: if i.is_multiple_of(2) {
                ReportKind::Positive
            } else {
                ReportKind::Negative
            },
        };
        let posts: Vec<Post> = (0..10).map(make).collect();

        let mut batched = Billboard::with_capacity(3, 5, 10);
        batched.ingest_batch(&posts[..4]).unwrap();
        batched.ingest_batch(&posts[4..]).unwrap();

        let mut sequential = board();
        for p in &posts {
            sequential
                .append(p.round, p.author, p.object, p.value, p.kind)
                .unwrap();
        }
        assert_eq!(batched.posts(), sequential.posts());
        assert_eq!(batched.latest_round(), sequential.latest_round());
    }

    #[test]
    fn ingest_batch_is_all_or_nothing() {
        let mut b = board();
        let good = Post {
            seq: Seq(0),
            round: Round(0),
            author: PlayerId(0),
            object: ObjectId(0),
            value: 1.0,
            kind: ReportKind::Positive,
        };
        let bad_author = Post {
            seq: Seq(1),
            author: PlayerId(9),
            ..good
        };
        let err = b.ingest_batch(&[good, bad_author]).unwrap_err();
        assert!(matches!(err, BillboardError::UnknownAuthor { .. }));
        assert!(b.is_empty(), "failed batch must not be partially applied");

        // sequence discontinuities are rejected
        let gap = Post {
            seq: Seq(1),
            ..good
        };
        let err = b.ingest_batch(&[gap]).unwrap_err();
        assert!(matches!(err, BillboardError::SeqMismatch { .. }));

        // empty batches are fine
        assert_eq!(b.ingest_batch(&[]).unwrap(), 0);
    }

    #[test]
    fn append_only_no_mutation_api() {
        // Compile-time property: posts() hands out an immutable slice.
        let mut b = board();
        b.append(
            Round(0),
            PlayerId(0),
            ObjectId(0),
            1.0,
            ReportKind::Positive,
        )
        .unwrap();
        let first = b.posts()[0];
        b.append(
            Round(1),
            PlayerId(1),
            ObjectId(1),
            1.0,
            ReportKind::Positive,
        )
        .unwrap();
        assert_eq!(b.posts()[0], first, "existing posts are never rewritten");
    }
}
