//! Property tests for the billboard substrate: reader-side vote semantics
//! hold for *arbitrary* post sequences, honest or Byzantine.

use distill::prelude::*;
use proptest::prelude::*;

const N_PLAYERS: u32 = 8;
const N_OBJECTS: u32 = 12;
/// A wider universe, so that one ingest call can carry dozens of first votes.
const WIDE_PLAYERS: u32 = 64;
const WIDE_OBJECTS: u32 = 512;

/// An arbitrary post: (round-increment, author, object, value, positive?).
fn arb_post() -> impl Strategy<Value = (u64, u32, u32, f64, bool)> {
    (
        0u64..3,
        0u32..N_PLAYERS,
        0u32..N_OBJECTS,
        0.0f64..2.0,
        any::<bool>(),
    )
}

/// Arbitrary posts, in the shape of [`arb_post`].
fn arb_posts() -> impl Strategy<Value = Vec<(u64, u32, u32, f64, bool)>> {
    prop::collection::vec(arb_post(), 0..120)
}

/// Arbitrary posts over the wide universe, in the shape of [`arb_posts`].
fn arb_wide_posts() -> impl Strategy<Value = Vec<(u64, u32, u32, f64, bool)>> {
    prop::collection::vec(
        (
            0u64..2,
            0u32..WIDE_PLAYERS,
            0u32..WIDE_OBJECTS,
            0.0f64..2.0,
            any::<bool>(),
        ),
        0..400,
    )
}

/// One of the reader policies: single vote, `f` votes, or best value. An
/// `f` from 1 to 10 covers every stride of the tracker's flat vote arena,
/// the widest (8) included, and the boxed layout it falls back to above 8.
fn arb_policy() -> impl Strategy<Value = VotePolicy> {
    (0usize..3, 1usize..11).prop_map(|(kind, f)| match kind {
        0 => VotePolicy::single_vote(),
        1 => VotePolicy::multi_vote(f),
        _ => VotePolicy::best_value(),
    })
}

fn build_board(posts: &[(u64, u32, u32, f64, bool)]) -> Billboard {
    build_board_in(N_PLAYERS, N_OBJECTS, posts)
}

fn build_board_in(
    n_players: u32,
    n_objects: u32,
    posts: &[(u64, u32, u32, f64, bool)],
) -> Billboard {
    let mut board = Billboard::new(n_players, n_objects);
    let mut round = 0u64;
    for &(dr, author, object, value, positive) in posts {
        round += dr;
        let kind = if positive {
            ReportKind::Positive
        } else {
            ReportKind::Negative
        };
        board
            .append(
                Round(round),
                PlayerId(author),
                ObjectId(object),
                value,
                kind,
            )
            .expect("valid post");
    }
    board
}

proptest! {
    /// The f-cap: no author is ever counted for more than `f` votes, no
    /// matter what it posts, in the flat arena (`f` ≤ 8) and the boxed
    /// layout (`f` ≥ 9) alike.
    #[test]
    fn vote_cap_holds(posts in arb_posts(), f in 1usize..11) {
        let board = build_board(&posts);
        let mut tracker = VoteTracker::new(N_PLAYERS, N_OBJECTS, VotePolicy::multi_vote(f));
        tracker.ingest(&board);
        for p in 0..N_PLAYERS {
            prop_assert!(tracker.votes_of(PlayerId(p)).len() <= f);
        }
    }

    /// Per-object current counts agree with per-player vote sets, under
    /// every reader policy.
    #[test]
    fn counts_are_consistent(posts in arb_posts(), policy in arb_policy()) {
        let board = build_board(&posts);
        let mut tracker = VoteTracker::new(N_PLAYERS, N_OBJECTS, policy);
        tracker.ingest(&board);
        for o in 0..N_OBJECTS {
            let by_count = tracker.votes_for(ObjectId(o));
            let by_players = (0..N_PLAYERS)
                .filter(|&p| tracker.votes_of(PlayerId(p)).iter().any(|v| v.object == ObjectId(o)))
                .count() as u32;
            prop_assert_eq!(by_count, by_players);
        }
        // objects_with_votes is exactly the support of votes_for
        let support: Vec<ObjectId> = (0..N_OBJECTS)
            .map(ObjectId)
            .filter(|&o| tracker.votes_for(o) > 0)
            .collect();
        prop_assert_eq!(tracker.objects_with_votes(), support);
    }

    /// Window tallies partition the event stream: summing disjoint windows
    /// equals the full-range tally.
    #[test]
    fn window_tallies_partition(posts in arb_posts(), split in 0u64..40) {
        let board = build_board(&posts);
        let mut tracker = VoteTracker::new(N_PLAYERS, N_OBJECTS, VotePolicy::multi_vote(2));
        tracker.ingest(&board);
        let end = board.latest_round().next() + 1;
        let mid = Round(split.min(end.as_u64()));
        for o in 0..N_OBJECTS {
            let o = ObjectId(o);
            let left = tracker.window_votes_for(Window::new(Round(0), mid), o);
            let right = tracker.window_votes_for(Window::new(mid, end), o);
            let all = tracker.window_votes_for(Window::new(Round(0), end), o);
            prop_assert_eq!(left + right, all);
        }
    }

    /// Incremental ingestion is equivalent to one-shot ingestion.
    #[test]
    fn incremental_equals_oneshot(posts in arb_posts()) {
        let board = build_board(&posts);
        let mut oneshot = VoteTracker::new(N_PLAYERS, N_OBJECTS, VotePolicy::single_vote());
        oneshot.ingest(&board);

        // Re-play the same posts through a board, ingesting after every post.
        let mut board2 = Billboard::new(N_PLAYERS, N_OBJECTS);
        let mut incremental = VoteTracker::new(N_PLAYERS, N_OBJECTS, VotePolicy::single_vote());
        for post in board.posts() {
            board2
                .append(post.round, post.author, post.object, post.value, post.kind)
                .expect("replay");
            incremental.ingest(&board2);
        }
        prop_assert_eq!(oneshot.total_vote_events(), incremental.total_vote_events());
        for p in 0..N_PLAYERS {
            prop_assert_eq!(
                oneshot.vote_of(PlayerId(p)),
                incremental.vote_of(PlayerId(p))
            );
        }
    }

    /// Append-only: appending more posts never changes existing log entries.
    #[test]
    fn log_prefix_is_immutable(posts in arb_posts()) {
        let board = build_board(&posts);
        let snapshot: Vec<_> = board.posts().to_vec();
        let mut extended = board.clone();
        let last_round = extended.latest_round();
        extended
            .append(last_round, PlayerId(0), ObjectId(0), 1.0, ReportKind::Positive)
            .expect("append");
        prop_assert_eq!(&extended.posts()[..snapshot.len()], &snapshot[..]);
    }

    /// Incremental window tallies agree with the from-scratch event scan for
    /// arbitrary post sequences, window starts, and ingestion schedules.
    #[test]
    fn incremental_window_tally_matches_scan(posts in arb_posts(), start in 0u64..20) {
        let board = build_board(&posts);
        let start = Round(start);

        // Path 1: window opened up front, posts streamed in one at a time.
        let mut streamed = VoteTracker::new(N_PLAYERS, N_OBJECTS, VotePolicy::multi_vote(2));
        streamed.open_window(start);
        let mut replay = Billboard::new(N_PLAYERS, N_OBJECTS);
        for post in board.posts() {
            replay
                .append(post.round, post.author, post.object, post.value, post.kind)
                .expect("replay");
            streamed.ingest(&replay);
        }

        // Path 2: everything ingested first, window opened retroactively.
        let mut retro = VoteTracker::new(N_PLAYERS, N_OBJECTS, VotePolicy::multi_vote(2));
        retro.ingest(&board);
        retro.open_window(start);

        let end = board.latest_round().next();
        let window = Window::new(start.min(end), end);
        let scan = retro.window_tally_scan(window);
        prop_assert_eq!(&streamed.window_tally(window), &scan);
        prop_assert_eq!(&retro.window_tally(window), &scan);
        for o in 0..N_OBJECTS {
            let o = ObjectId(o);
            let by_scan = retro.window_votes_for_scan(window, o);
            prop_assert_eq!(streamed.window_votes_for(window, o), by_scan);
            prop_assert_eq!(retro.window_votes_for(window, o), by_scan);
        }
    }

    /// The voted-object set settled by each ingest call matches the count
    /// scan under the vote-revoking best-value policy and the single- and
    /// `f`-vote ones, in the dense universe (counts often fall from 2+ to 1
    /// and from 1 to 0) and in the wide one (one call carries many first
    /// votes). The log is fed through `ingest_until` at arbitrary round cuts
    /// and the rest by `ingest`; after every call `voters()` also matches a
    /// scan of the per-player votes, and the split ingest ends with the
    /// events and voted set of a one-call ingest.
    #[test]
    fn voted_set_matches_scan_under_best_value(
        dense in arb_posts(),
        wide in arb_wide_posts(),
        f in 1usize..11,
        cuts in prop::collection::vec(0u64..200, 0..8),
    ) {
        let mut cuts = cuts;
        cuts.sort_unstable();
        for (n_players, n_objects, posts) in
            [(N_PLAYERS, N_OBJECTS, &dense), (WIDE_PLAYERS, WIDE_OBJECTS, &wide)]
        {
            let board = build_board_in(n_players, n_objects, posts);
            for policy in [
                VotePolicy::best_value(),
                VotePolicy::single_vote(),
                VotePolicy::multi_vote(f),
            ] {
                let mut split = VoteTracker::new(n_players, n_objects, policy);
                for before in cuts.iter().copied().map(Some).chain([None]) {
                    match before {
                        Some(before) => split.ingest_until(&board, Round(before)),
                        None => split.ingest(&board),
                    };
                    prop_assert_eq!(split.objects_with_votes(), split.objects_with_votes_scan());
                    let voters = (0..n_players)
                        .filter(|&p| !split.votes_of(PlayerId(p)).is_empty())
                        .count();
                    prop_assert_eq!(split.voters(), voters);
                }
                let mut oneshot = VoteTracker::new(n_players, n_objects, policy);
                oneshot.ingest(&board);
                prop_assert_eq!(split.events(), oneshot.events());
                prop_assert_eq!(split.objects_with_votes(), oneshot.objects_with_votes());
            }
        }
    }

    /// Batch ingest is bit-identical to one-at-a-time appends: splitting
    /// the same post sequence at arbitrary cut points and feeding it
    /// through `ingest_batch` yields the same log.
    #[test]
    fn ingest_batch_matches_sequential_appends(
        posts in arb_posts(),
        cuts in proptest::collection::vec(1usize..9, 0..12),
    ) {
        let oracle = build_board(&posts);
        let mut board = Billboard::new(N_PLAYERS, N_OBJECTS);
        let all = oracle.posts();
        let mut at = 0;
        let mut ci = 0;
        while at < all.len() {
            let width = if cuts.is_empty() { 5 } else { cuts[ci % cuts.len()] };
            ci += 1;
            let end = (at + width).min(all.len());
            board.ingest_batch(&all[at..end]).expect("batch");
            at = end;
        }
        prop_assert_eq!(board.posts(), oracle.posts());
    }

    /// Segment-log ingestion is bit-identical to flat-board ingestion, and
    /// a snapshot reads exactly its prefix of the log. The same posts are
    /// pushed as up to 400 segments of 1–4 posts, so the log seals blocks
    /// of 64 segments, with snapshots taken at random points. Under every
    /// policy (so also when best-value revocations cross zero in different
    /// slices):
    /// * after every later push, each snapshot's `slices_since(Seq(c))`
    ///   yields, for every cut `c`, the flat board's posts from `c` to the
    ///   snapshot's length, and no empty slice;
    /// * a tracker fed by `ingest_segments`, and an `EpochReader` that
    ///   syncs the snapshots in order, end equal to one flat `ingest`.
    #[test]
    fn ingest_segments_matches_flat_ingest(
        segments in proptest::collection::vec(proptest::collection::vec(arb_post(), 1..5), 0..400),
        snapshot_after in proptest::collection::vec(0usize..400, 0..6),
        policy in arb_policy(),
    ) {
        use distill::billboard::{Post, SegmentLog, Seq};
        use distill::service::{EpochReader, EpochSnapshot};
        let board = build_board(&segments.concat());
        let all = board.posts();
        let mut log = SegmentLog::new(N_PLAYERS, N_OBJECTS);
        let mut snapshots = vec![(0, log.clone())];
        let mut at = 0;
        for (i, segment) in segments.iter().enumerate() {
            log.push_segment(all[at..at + segment.len()].into()).expect("segment");
            at += segment.len();
            if snapshot_after.contains(&i) {
                snapshots.push((at, log.clone()));
            }
        }
        snapshots.push((at, log.clone()));
        prop_assert_eq!(log.segment_count(), segments.len());
        for (end, snapshot) in &snapshots {
            let end = *end;
            for cut in 0..=end + 1 {
                let slices: Vec<&[Post]> = snapshot.slices_since(Seq(cut as u64)).collect();
                prop_assert!(slices.iter().all(|s| !s.is_empty()), "empty slice at cut {}", cut);
                prop_assert_eq!(slices.concat(), &all[cut.min(end)..end]);
            }
        }
        let mut flat = VoteTracker::new(N_PLAYERS, N_OBJECTS, policy);
        flat.ingest(&board);
        let mut seg = VoteTracker::new(N_PLAYERS, N_OBJECTS, policy);
        seg.ingest_segments(&log);
        let mut reader = EpochReader::with_board(N_PLAYERS, N_OBJECTS, policy);
        for (epoch, (_, snapshot)) in (1..).zip(&snapshots) {
            reader.sync(&EpochSnapshot::at(epoch, snapshot)).expect("sync");
        }
        let full = Window::new(Round(0), Round(u64::MAX));
        for tracker in [&seg, reader.tracker()] {
            prop_assert_eq!(tracker.events(), flat.events());
            prop_assert_eq!(tracker.objects_with_votes(), flat.objects_with_votes());
            prop_assert_eq!(tracker.window_tally(full), flat.window_tally(full));
        }
        prop_assert_eq!(reader.view().expect("board-backed reader").posts(), all);
    }

    /// Best-value mode: a player's vote is always its maximum reported value.
    #[test]
    fn best_value_vote_is_argmax(posts in arb_posts()) {
        let board = build_board(&posts);
        let mut tracker = VoteTracker::new(N_PLAYERS, N_OBJECTS, VotePolicy::best_value());
        tracker.ingest(&board);
        for p in 0..N_PLAYERS {
            let reported: Vec<&distill::billboard::Post> =
                board.posts_by(PlayerId(p)).collect();
            let vote = tracker.vote_of(PlayerId(p));
            match (reported.is_empty(), vote) {
                (true, v) => prop_assert!(v.is_none()),
                (false, None) => prop_assert!(false, "player with posts must have a vote"),
                (false, Some(v)) => {
                    let max = reported
                        .iter()
                        .map(|post| post.value)
                        .fold(f64::NEG_INFINITY, f64::max);
                    let vote_value = tracker.votes_of(PlayerId(p))[0].value;
                    prop_assert!((vote_value - max).abs() < 1e-12,
                        "vote value {vote_value} must equal max reported {max} (vote {v})");
                }
            }
        }
    }
}
