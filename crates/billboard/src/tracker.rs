//! Incremental reader-side vote extraction.

use crate::board::Billboard;
use crate::ids::{ObjectId, PlayerId, Round, Seq};
use crate::policy::{VoteMode, VotePolicy};
use crate::window::Window;
use std::collections::{BTreeMap, BTreeSet};

/// One of a player's currently-counted votes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VoteRecord {
    /// The object voted for.
    pub object: ObjectId,
    /// The round the vote was cast (or last changed, in best-value mode).
    pub round: Round,
    /// The value the voter claimed.
    pub value: f64,
}

/// A vote *event*: the moment a player's vote (newly) lands on an object.
///
/// In local-testing mode each player produces at most `f` events, which is
/// exactly the accounting behind Equation 1 of the paper (the adversary's
/// total vote budget is `(1−α)n` when `f = 1`). In best-value mode an event
/// is recorded the first time each object becomes a player's vote, so a
/// player can produce at most one event per object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VoteEvent {
    /// The round the event happened.
    pub round: Round,
    /// The voter.
    pub player: PlayerId,
    /// The object receiving the vote.
    pub object: ObjectId,
}

/// Per-player slot count above which the flat vote arena falls back to
/// boxed per-player vectors (an `f` this large is outside every policy the
/// paper analyses — §4.1 needs `f = o(1/(1−α))`).
const ARENA_STRIDE_CAP: usize = 8;

// The arena counts each player's votes in one byte.
const _: () = assert!(ARENA_STRIDE_CAP <= u8::MAX as usize);

/// The zeroed filler record behind unused arena slots (never observable:
/// reads are bounded by the per-player length).
const EMPTY_RECORD: VoteRecord = VoteRecord {
    object: ObjectId(0),
    round: Round(0),
    value: 0.0,
};

/// Arena-compact per-player vote storage.
///
/// Under the bounded policies production runs use (single-vote, best-value,
/// small-`f` multi-vote) every player's vote list lives in one flat slab of
/// `n_players × stride` records plus a length array: one allocation for the
/// whole population instead of one heap vector per voter. At n = 10^6 that
/// removes a million scattered small allocations from the ingest path, and
/// keeps [`VoteTracker::votes_of`] a contiguous-slice borrow. The lengths
/// are bytes, so looking up a random player's votes at n = 10^6 reads a
/// 1 MB plane. Policies with a per-player cap above [`ARENA_STRIDE_CAP`]
/// keep the boxed layout — chosen once at construction, so no per-call
/// branching on mixed storage.
#[derive(Debug, Clone)]
enum VoteStore {
    Arena {
        stride: usize,
        lens: Vec<u8>,
        slots: Vec<VoteRecord>,
    },
    Boxed(Vec<Vec<VoteRecord>>),
}

#[derive(Debug, Clone)]
struct VoteArena {
    n_players: usize,
    store: VoteStore,
}

impl VoteArena {
    fn new(n_players: usize, per_player_cap: usize) -> Self {
        let store = if per_player_cap <= ARENA_STRIDE_CAP {
            let stride = per_player_cap.max(1);
            VoteStore::Arena {
                stride,
                lens: vec![0; n_players],
                slots: vec![EMPTY_RECORD; n_players * stride],
            }
        } else {
            VoteStore::Boxed(vec![Vec::new(); n_players])
        };
        VoteArena { n_players, store }
    }

    #[inline]
    fn n_players(&self) -> usize {
        self.n_players
    }

    /// Empties every player's vote list, keeping the slab allocated.
    fn reset(&mut self) {
        match &mut self.store {
            VoteStore::Arena { lens, .. } => lens.fill(0),
            VoteStore::Boxed(v) => v.iter_mut().for_each(Vec::clear),
        }
    }

    #[inline]
    fn votes(&self, player: usize) -> &[VoteRecord] {
        match &self.store {
            VoteStore::Arena {
                stride,
                lens,
                slots,
            } => {
                let base = player * stride;
                &slots[base..base + lens[player] as usize]
            }
            VoteStore::Boxed(v) => &v[player],
        }
    }

    #[inline]
    fn first(&self, player: usize) -> Option<VoteRecord> {
        self.votes(player).first().copied()
    }

    /// Appends a vote. Arena mode trusts the caller's policy cap (the
    /// ingest paths check it before calling); a push beyond the stride is
    /// dropped rather than spilled.
    fn push(&mut self, player: usize, record: VoteRecord) {
        match &mut self.store {
            VoteStore::Arena {
                stride,
                lens,
                slots,
            } => {
                let len = lens[player] as usize;
                if len < *stride {
                    slots[player * *stride + len] = record;
                    lens[player] += 1;
                }
            }
            VoteStore::Boxed(v) => v[player].push(record),
        }
    }

    /// Replaces the player's votes with exactly `record` (the best-value
    /// vote change).
    fn set_single(&mut self, player: usize, record: VoteRecord) {
        match &mut self.store {
            VoteStore::Arena {
                stride,
                lens,
                slots,
            } => {
                slots[player * *stride] = record;
                lens[player] = 1;
            }
            VoteStore::Boxed(v) => {
                v[player].clear();
                v[player].push(record);
            }
        }
    }

    /// Refreshes the player's first vote in place (a best-value re-report of
    /// the same object at a higher value; not a vote change).
    fn refresh_first(&mut self, player: usize, value: f64, round: Round) {
        let slot = match &mut self.store {
            VoteStore::Arena {
                stride,
                lens,
                slots,
            } => (lens[player] > 0).then(|| &mut slots[player * *stride]),
            VoteStore::Boxed(v) => v[player].first_mut(),
        };
        if let Some(slot) = slot {
            slot.value = value;
            slot.round = round;
        }
    }

    fn voters(&self) -> usize {
        match &self.store {
            VoteStore::Arena { lens, .. } => lens.iter().filter(|&&l| l > 0).count(),
            VoteStore::Boxed(v) => v.iter().filter(|v| !v.is_empty()).count(),
        }
    }
}

/// Incrementally-maintained tally state for one registered round window.
///
/// Opened via [`VoteTracker::open_window`]; absorbs each vote event exactly
/// once as it is ingested, so tally queries over the registered window are
/// answered from per-object counters instead of re-scanning the event stream.
#[derive(Debug, Clone)]
struct ActiveWindow {
    /// First round of the window (the end is implicitly "everything ingested
    /// so far"; queries validate their own end against the event stream).
    start: Round,
    /// Per-object count of vote events with `round >= start`.
    counts: Vec<u32>,
    /// Objects whose count is non-zero, in first-touch order.
    touched: Vec<ObjectId>,
    /// Prefix of the event stream already absorbed into `counts`.
    absorbed: usize,
}

/// Incremental vote interpretation of a [`Billboard`] under a [`VotePolicy`].
///
/// A `VoteTracker` consumes new posts via [`ingest`](VoteTracker::ingest)
/// (typically once per simulated round) and maintains:
///
/// * each player's **current votes** (at most `f` in local-testing mode, at
///   most one — the best-value-so-far object — in best-value mode);
/// * per-object **current vote counts**, plus the sorted set of voted
///   objects (Figure 1's `S`), settled once at the end of every ingest call
///   from the objects whose count crossed zero during it;
/// * the chronological stream of **vote events**, from which the
///   per-iteration tallies `ℓ_t(i)` of Figure 1 are answered via
///   [`window_votes_for`](VoteTracker::window_votes_for) /
///   [`window_tally`](VoteTracker::window_tally).
///
/// # Incremental window tallies
///
/// The driver of the round loop can register the tally window the protocol is
/// currently accumulating via [`open_window`](VoteTracker::open_window)
/// (DISTILL opens one per segment — Step 1.3 and each Step 2 iteration).
/// While a window `[start, ·)` is registered, every ingested vote event is
/// also counted into a per-object counter, so
/// [`window_votes_for`](VoteTracker::window_votes_for) is O(1) and
/// [`window_tally`](VoteTracker::window_tally) is O(result) for queries of
/// the form `[start, end)` with `end` beyond the last ingested event.
/// Any other query (an adversary inspecting an arbitrary historical window,
/// say) transparently falls back to the event-stream scan, which remains
/// available as [`window_votes_for_scan`](VoteTracker::window_votes_for_scan)
/// / [`window_tally_scan`](VoteTracker::window_tally_scan) and serves as the
/// `debug_assert!` oracle for the incremental path.
///
/// The tracker is pure interpretation: it never rejects a post, it just
/// *ignores* whatever the policy says honest readers ignore (negative
/// reports, votes beyond the cap, duplicate votes for the same object).
#[derive(Debug, Clone)]
pub struct VoteTracker {
    policy: VotePolicy,
    n_objects: u32,
    cursor: usize,
    votes_by_player: VoteArena,
    votes_for_object: Vec<u32>,
    /// Objects with at least one current vote, ascending — settled from
    /// `crossed` at the end of every public ingest call.
    voted_objects: Vec<ObjectId>,
    /// Objects whose `votes_for_object` count crossed zero (0→1, or 1→0
    /// under best-value revocation) in the ingest call under way, in
    /// crossing order and possibly repeated. Empty between calls.
    crossed: Vec<ObjectId>,
    /// The settle step's merge output, swapped into `voted_objects`; kept
    /// only for its capacity. Empty between calls.
    merged: Vec<ObjectId>,
    events: Vec<VoteEvent>,
    /// Best-value mode only: per-player set of objects that have already
    /// produced a vote event (caps Byzantine event inflation at one event per
    /// (player, object) pair). Ordered so that iteration (and hence any
    /// derived statistic) is independent of insertion history.
    evented: Vec<BTreeSet<ObjectId>>,
    /// The registered tally window, if any.
    active: Option<ActiveWindow>,
    /// Retired window buffers (counts/touched) kept for reuse, so reopening a
    /// window in a long run or after a [`reset`](VoteTracker::reset) does not
    /// allocate. Invariant: a spare's counts are all zero and its touched
    /// list empty.
    spare: Option<ActiveWindow>,
}

impl VoteTracker {
    /// Creates a tracker for a universe of `n_players` × `n_objects` under
    /// `policy`, having consumed nothing yet.
    pub fn new(n_players: u32, n_objects: u32, policy: VotePolicy) -> Self {
        let needs_evented = policy.mode == VoteMode::BestValue;
        VoteTracker {
            policy,
            n_objects,
            cursor: 0,
            votes_by_player: VoteArena::new(
                n_players as usize,
                if needs_evented {
                    1 // best-value mode: exactly one current vote per player
                } else {
                    policy.votes_per_player
                },
            ),
            votes_for_object: vec![0; n_objects as usize],
            voted_objects: Vec::new(),
            crossed: Vec::new(),
            merged: Vec::new(),
            events: Vec::new(),
            evented: if needs_evented {
                vec![BTreeSet::new(); n_players as usize]
            } else {
                Vec::new()
            },
            active: None,
            spare: None,
        }
    }

    /// Rewinds the tracker to its freshly-constructed state **in place**,
    /// retaining every heap buffer (per-player vote vecs, per-object counts,
    /// the event stream's capacity, and any window counters) so a simulation
    /// harness can reuse one tracker arena across many trials.
    ///
    /// Observable state afterwards is exactly that of
    /// [`VoteTracker::new`] with the same universe and policy.
    pub fn reset(&mut self) {
        self.cursor = 0;
        self.votes_by_player.reset();
        for count in &mut self.votes_for_object {
            *count = 0;
        }
        self.voted_objects.clear();
        self.crossed.clear();
        self.merged.clear();
        self.events.clear();
        for set in &mut self.evented {
            set.clear();
        }
        if let Some(aw) = self.active.take() {
            self.spare = Some(Self::retire_window(aw));
        }
    }

    /// Zeroes a window's counters (via its touched list, O(touched)) so its
    /// buffers can be handed out again without reallocating.
    fn retire_window(mut aw: ActiveWindow) -> ActiveWindow {
        for &o in &aw.touched {
            aw.counts[o.index()] = 0;
        }
        aw.touched.clear();
        aw.absorbed = 0;
        aw
    }

    /// The policy this tracker interprets under.
    #[inline]
    pub fn policy(&self) -> VotePolicy {
        self.policy
    }

    /// The log position up to which posts have been consumed.
    #[inline]
    pub fn cursor(&self) -> Seq {
        Seq(self.cursor as u64)
    }

    /// Consumes all posts appended to `board` since the last call, updating
    /// vote state. Returns the number of posts consumed.
    ///
    /// # Panics
    ///
    /// Panics if `board` has a different universe size than the tracker was
    /// created for (mixing boards is a programming error).
    pub fn ingest(&mut self, board: &Billboard) -> usize {
        assert_eq!(
            board.n_players() as usize,
            self.votes_by_player.n_players(),
            "tracker/board player universe mismatch"
        );
        assert_eq!(
            board.n_objects(),
            self.n_objects,
            "tracker/board object universe mismatch"
        );
        let new_posts = board.posts_since(Seq(self.cursor as u64));
        let consumed = self.consume(new_posts, new_posts.len());
        self.settle_voted_objects();
        consumed
    }

    /// Like [`ingest`](VoteTracker::ingest), but only consumes posts stamped
    /// with a round strictly before `before`, leaving the rest for a later
    /// call. Returns the number of posts consumed.
    ///
    /// This is the incremental primitive behind lagged views: a tracker fed
    /// exclusively through `ingest_until(board, r − L)` holds exactly the
    /// vote state a reader `L` rounds behind would see. Rounds are monotone
    /// along the log, so the cut is a contiguous prefix found by binary
    /// search; the cursor advances past it and never regresses.
    ///
    /// # Panics
    ///
    /// Panics if `board` has a different universe size than the tracker was
    /// created for (mixing boards is a programming error).
    pub fn ingest_until(&mut self, board: &Billboard, before: Round) -> usize {
        assert_eq!(
            board.n_players() as usize,
            self.votes_by_player.n_players(),
            "tracker/board player universe mismatch"
        );
        assert_eq!(
            board.n_objects(),
            self.n_objects,
            "tracker/board object universe mismatch"
        );
        let new_posts = board.posts_since(Seq(self.cursor as u64));
        let upto = new_posts.partition_point(|p| p.round < before);
        let consumed = self.consume(new_posts, upto);
        self.settle_voted_objects();
        consumed
    }

    /// Consumes all posts appended to the segmented `log` since the last
    /// call, updating vote state. Returns the number of posts consumed.
    ///
    /// This is the segment-log counterpart of
    /// [`ingest`](VoteTracker::ingest): epoch readers in the concurrent
    /// billboard service feed their tracker straight from an immutable
    /// [`SegmentLog`](crate::SegmentLog) snapshot without materializing a
    /// flat board. Both entries dispatch through the same internal consume
    /// path, so a tracker fed segment-by-segment holds vote state
    /// bit-identical to one fed from the equivalent flat [`Billboard`].
    ///
    /// # Panics
    ///
    /// Panics if `log` has a different universe size than the tracker was
    /// created for (mixing logs is a programming error).
    pub fn ingest_segments(&mut self, log: &crate::SegmentLog) -> usize {
        assert_eq!(
            log.n_players() as usize,
            self.votes_by_player.n_players(),
            "tracker/log player universe mismatch"
        );
        assert_eq!(
            log.n_objects(),
            self.n_objects,
            "tracker/log object universe mismatch"
        );
        let mut consumed = 0usize;
        // Segments are contiguous, so walking the delta one slice at a time
        // through `consume` is exactly sequential ingest.
        for slice in log.slices_since(Seq(self.cursor as u64)) {
            consumed += self.consume(slice, slice.len());
        }
        self.settle_voted_objects();
        consumed
    }

    /// Dispatches the first `upto` of `new_posts` into the vote state and
    /// advances the cursor past them. The voted-object set is left for the
    /// caller's [`settle_voted_objects`](VoteTracker::settle_voted_objects).
    fn consume(&mut self, new_posts: &[crate::post::Post], upto: usize) -> usize {
        for post in &new_posts[..upto] {
            match self.policy.mode {
                VoteMode::LocalTesting => self.ingest_local_testing(post),
                VoteMode::BestValue => self.ingest_best_value(post),
            }
        }
        self.cursor += upto;
        self.absorb_into_window();
        upto
    }

    /// Registers `[start, ·)` as the tally window the protocol is currently
    /// accumulating, replacing any previously registered window.
    ///
    /// Already-ingested events are absorbed immediately (so opening a window
    /// retroactively — e.g. over round-0 pre-seeded votes — is correct), and
    /// every subsequent [`ingest`](VoteTracker::ingest) keeps the counts up
    /// to date. See the type-level docs for which queries this accelerates.
    pub fn open_window(&mut self, start: Round) {
        // Events are round-sorted, so everything before this prefix is
        // strictly older than the window and can never enter it.
        let absorbed = self.events.partition_point(|e| e.round < start);
        // Reuse the previous window's buffers (or a retired spare) instead of
        // allocating: zeroing via the touched list is O(previously touched),
        // so reopening is allocation-free in the steady state.
        let mut aw = match self.active.take().or_else(|| self.spare.take()) {
            Some(old) => Self::retire_window(old),
            None => ActiveWindow {
                start,
                counts: vec![0; self.n_objects as usize],
                touched: Vec::new(),
                absorbed,
            },
        };
        aw.start = start;
        aw.absorbed = absorbed;
        self.active = Some(aw);
        self.absorb_into_window();
    }

    /// Unregisters the active tally window; subsequent window queries scan.
    /// The window's buffers are retained for the next
    /// [`open_window`](VoteTracker::open_window).
    pub fn close_window(&mut self) {
        if let Some(aw) = self.active.take() {
            self.spare = Some(Self::retire_window(aw));
        }
    }

    /// The start of the registered tally window, if one is open.
    pub fn active_window_start(&self) -> Option<Round> {
        self.active.as_ref().map(|aw| aw.start)
    }

    /// Counts any not-yet-absorbed events into the active window.
    fn absorb_into_window(&mut self) {
        if let Some(aw) = self.active.as_mut() {
            for e in &self.events[aw.absorbed..] {
                // Events before the window start can still arrive here when a
                // window is opened ahead of historical posts being ingested;
                // only the window's own rounds are counted.
                if e.round < aw.start {
                    continue;
                }
                let count = &mut aw.counts[e.object.index()];
                if *count == 0 {
                    aw.touched.push(e.object);
                }
                *count += 1;
            }
            aw.absorbed = self.events.len();
        }
    }

    /// The active window's counters, iff they can answer `window`: same
    /// start, and an end beyond every ingested event (the registered window
    /// is still accumulating, so its counters cover exactly `[start, last
    /// ingested round]`).
    fn active_for(&self, window: Window) -> Option<&ActiveWindow> {
        self.active.as_ref().filter(|aw| {
            aw.start == window.start
                && aw.absorbed == self.events.len()
                && self.events.last().is_none_or(|e| e.round < window.end)
        })
    }

    fn ingest_local_testing(&mut self, post: &crate::post::Post) {
        if !post.is_positive() {
            return; // negative reports are never votes (§4)
        }
        let votes = self.votes_by_player.votes(post.author.index());
        if votes.len() >= self.policy.votes_per_player {
            return; // beyond the f-cap: ignored by honest readers
        }
        if votes.iter().any(|v| v.object == post.object) {
            return; // re-voting the same object adds nothing
        }
        self.votes_by_player.push(
            post.author.index(),
            VoteRecord {
                object: post.object,
                round: post.round,
                value: post.value,
            },
        );
        self.votes_for_object[post.object.index()] += 1;
        if self.votes_for_object[post.object.index()] == 1 {
            self.crossed.push(post.object);
        }
        self.events.push(VoteEvent {
            round: post.round,
            player: post.author,
            object: post.object,
        });
    }

    fn ingest_best_value(&mut self, post: &crate::post::Post) {
        // §5.3: the (single) vote is the highest-value object reported so far.
        // Positive/negative polarity is irrelevant without local testing —
        // only claimed values matter.
        let player = post.author.index();
        let current = self.votes_by_player.first(player);
        let improves = match current {
            None => true,
            Some(v) => post.value > v.value && post.object != v.object,
        };
        // Re-reporting the *same* object with a higher value refreshes the
        // recorded value but is not a vote change.
        if let Some(v) = current {
            if post.object == v.object && post.value > v.value {
                self.votes_by_player
                    .refresh_first(player, post.value, post.round);
                return;
            }
        }
        if !improves {
            return;
        }
        if let Some(old) = current {
            self.votes_for_object[old.object.index()] -= 1;
            if self.votes_for_object[old.object.index()] == 0 {
                self.crossed.push(old.object);
            }
        }
        self.votes_by_player.set_single(
            player,
            VoteRecord {
                object: post.object,
                round: post.round,
                value: post.value,
            },
        );
        self.votes_for_object[post.object.index()] += 1;
        if self.votes_for_object[post.object.index()] == 1 {
            self.crossed.push(post.object);
        }
        // One event per (player, object) pair, ever.
        if self.evented[player].insert(post.object) {
            self.events.push(VoteEvent {
                round: post.round,
                player: post.author,
                object: post.object,
            });
        }
    }

    /// Folds the ingest call's zero crossings into `voted_objects`: sorts and
    /// dedups `crossed`, then merges it with the old set in one ascending
    /// pass that keeps an object iff its count is non-zero. An object in
    /// neither list held no vote before the call and never crossed zero, so
    /// it holds none now. O(p log p + |S|) for p crossings, where inserting
    /// each first vote into the sorted set would cost O(|S|) apiece; no
    /// allocation once both buffers reach their working size.
    // lint: hot
    fn settle_voted_objects(&mut self) {
        if self.crossed.is_empty() {
            return;
        }
        self.crossed.sort_unstable();
        self.crossed.dedup();
        let (old, crossed) = (&self.voted_objects, &self.crossed);
        let merged = &mut self.merged;
        merged.reserve(old.len() + crossed.len());
        let (mut i, mut j) = (0, 0);
        loop {
            let next = match (old.get(i), crossed.get(j)) {
                (Some(&a), Some(&b)) if a == b => {
                    i += 1;
                    j += 1;
                    a
                }
                (Some(&a), Some(&b)) if a < b => {
                    i += 1;
                    a
                }
                (Some(&a), None) => {
                    i += 1;
                    a
                }
                (_, Some(&b)) => {
                    j += 1;
                    b
                }
                (None, None) => break,
            };
            if self.votes_for_object[next.index()] > 0 {
                merged.push(next);
            }
        }
        std::mem::swap(&mut self.voted_objects, &mut self.merged);
        self.merged.clear();
        self.crossed.clear();
    }

    /// The first (oldest) current vote of `player`, if any.
    ///
    /// This is what `PROBE&SEEKADVICE` follows: "probe the object j votes
    /// for, if exists".
    #[inline]
    pub fn vote_of(&self, player: PlayerId) -> Option<ObjectId> {
        self.votes_by_player.first(player.index()).map(|v| v.object)
    }

    /// All current votes of `player` (at most `f`).
    #[inline]
    pub fn votes_of(&self, player: PlayerId) -> &[VoteRecord] {
        self.votes_by_player.votes(player.index())
    }

    /// The number of players whose current vote set includes `object`.
    pub fn votes_for(&self, object: ObjectId) -> u32 {
        self.votes_for_object[object.index()]
    }

    /// Objects that currently hold at least one vote, ascending by id.
    ///
    /// This is the set `S` of Figure 1 Step 1.2, settled at the end of every
    /// ingest call and handed out as a **borrow** — O(1), no allocation,
    /// independent of `m`. Callers that need ownership can
    /// `.to_vec()` explicitly.
    pub fn objects_with_votes(&self) -> &[ObjectId] {
        // Compared lazily, so debug builds keep the read allocation-free.
        debug_assert!(
            self.voted_objects.iter().copied().eq(self.voted_by_scan()),
            "settled voted set diverged from the count scan: {:?} vs {:?}",
            self.voted_objects,
            self.objects_with_votes_scan()
        );
        &self.voted_objects
    }

    /// [`objects_with_votes`](VoteTracker::objects_with_votes) recomputed by
    /// scanning all `m` per-object counts (the settled set's oracle).
    pub fn objects_with_votes_scan(&self) -> Vec<ObjectId> {
        self.voted_by_scan().collect()
    }

    #[expect(
        clippy::cast_possible_truncation,
        reason = "index ranges over the tracker's m: u32 objects"
    )]
    fn voted_by_scan(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.votes_for_object
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, _)| ObjectId(i as u32))
    }

    /// Total number of vote events recorded so far.
    pub fn total_vote_events(&self) -> usize {
        self.events.len()
    }

    /// The chronological stream of vote events.
    pub fn events(&self) -> &[VoteEvent] {
        &self.events
    }

    /// The vote events whose round falls in `window`.
    pub fn events_in(&self, window: Window) -> &[VoteEvent] {
        let lo = self.events.partition_point(|e| e.round < window.start);
        let hi = self.events.partition_point(|e| e.round < window.end);
        &self.events[lo..hi]
    }

    /// `ℓ_t(i)`: the number of votes `object` received during `window`
    /// (Figure 1 shared variables).
    ///
    /// O(1) when `window` matches the registered tally window (see
    /// [`open_window`](VoteTracker::open_window)); otherwise an event-stream
    /// scan.
    pub fn window_votes_for(&self, window: Window, object: ObjectId) -> u32 {
        if let Some(aw) = self.active_for(window) {
            let count = aw.counts[object.index()];
            debug_assert_eq!(
                count,
                self.window_votes_for_scan(window, object),
                "incremental window count diverged from the event scan"
            );
            count
        } else {
            self.window_votes_for_scan(window, object)
        }
    }

    /// [`window_votes_for`](VoteTracker::window_votes_for) computed by
    /// scanning the event stream (the incremental path's oracle).
    #[expect(
        clippy::cast_possible_truncation,
        reason = "one event per player per round in a window of u32 rounds over u32 players stays far below 2^32 in practice, and the incremental tally this oracle checks is itself u32"
    )]
    pub fn window_votes_for_scan(&self, window: Window, object: ObjectId) -> u32 {
        self.events_in(window)
            .iter()
            .filter(|e| e.object == object)
            .count() as u32
    }

    /// The full per-object tally of vote events in `window`, ascending by
    /// object id (an ordered map, so iterating the tally is deterministic —
    /// seeded runs must not depend on hash-iteration order).
    ///
    /// Objects with no events in the window are absent from the map.
    ///
    /// O(result) when `window` matches the registered tally window (see
    /// [`open_window`](VoteTracker::open_window)); otherwise an event-stream
    /// scan.
    pub fn window_tally(&self, window: Window) -> BTreeMap<ObjectId, u32> {
        if let Some(aw) = self.active_for(window) {
            let out: BTreeMap<ObjectId, u32> = aw
                .touched
                .iter()
                .map(|&o| (o, aw.counts[o.index()]))
                .collect();
            debug_assert_eq!(
                out,
                self.window_tally_scan(window),
                "incremental window tally diverged from the event scan"
            );
            out
        } else {
            self.window_tally_scan(window)
        }
    }

    /// Fills `out` with the per-object tally of vote events in `window`,
    /// ascending by object id — the buffer-reuse counterpart of
    /// [`window_tally`](VoteTracker::window_tally).
    ///
    /// `out` is cleared first; objects with no events in the window are
    /// absent. Beyond `out`'s own growth (amortized away when the caller
    /// reuses the buffer across rounds) this performs **no allocation** on
    /// the incremental path.
    // lint: hot
    pub fn window_tally_into(&self, window: Window, out: &mut Vec<(ObjectId, u32)>) {
        out.clear();
        if let Some(aw) = self.active_for(window) {
            out.extend(aw.touched.iter().map(|&o| (o, aw.counts[o.index()])));
            // `touched` is first-touch order; sort in place to the ascending
            // object-id order the BTreeMap API promises.
            out.sort_unstable_by_key(|&(o, _)| o);
            debug_assert_eq!(
                *out,
                self.window_tally_scan(window)
                    .into_iter()
                    .collect::<Vec<_>>(),
                "incremental window tally diverged from the event scan"
            );
        } else {
            out.extend(self.window_tally_scan(window));
        }
    }

    /// [`window_tally`](VoteTracker::window_tally) computed by scanning the
    /// event stream (the incremental path's oracle).
    pub fn window_tally_scan(&self, window: Window) -> BTreeMap<ObjectId, u32> {
        let mut out = BTreeMap::new();
        for e in self.events_in(window) {
            *out.entry(e.object).or_insert(0) += 1;
        }
        out
    }

    /// Number of players that currently have at least one vote.
    pub fn voters(&self) -> usize {
        self.votes_by_player.voters()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::post::ReportKind;

    fn board(n: u32, m: u32) -> Billboard {
        Billboard::new(n, m)
    }

    #[test]
    fn single_vote_counts_first_positive_only() {
        let mut b = board(3, 4);
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
            1.0,
            ReportKind::Positive,
        )
        .unwrap();
        b.append(
            Round(1),
            PlayerId(1),
            ObjectId(2),
            0.0,
            ReportKind::Negative,
        )
        .unwrap();
        let mut t = VoteTracker::new(3, 4, VotePolicy::single_vote());
        t.ingest(&b);
        assert_eq!(t.vote_of(PlayerId(0)), Some(ObjectId(1)));
        assert_eq!(
            t.votes_for(ObjectId(2)),
            0,
            "second vote and negative report ignored"
        );
        assert_eq!(t.vote_of(PlayerId(1)), None);
        assert_eq!(t.total_vote_events(), 1);
    }

    #[test]
    fn ingest_until_consumes_only_the_round_prefix() {
        let mut b = board(4, 4);
        for (r, p, o) in [(0u64, 0u32, 0u32), (1, 1, 1), (1, 2, 1), (3, 3, 2)] {
            b.append(
                Round(r),
                PlayerId(p),
                ObjectId(o),
                1.0,
                ReportKind::Positive,
            )
            .unwrap();
        }
        let mut lagged = VoteTracker::new(4, 4, VotePolicy::single_vote());
        // Nothing visible before round 1: only the round-0 post lands.
        assert_eq!(lagged.ingest_until(&b, Round(1)), 1);
        assert_eq!(lagged.vote_of(PlayerId(0)), Some(ObjectId(0)));
        assert_eq!(lagged.vote_of(PlayerId(1)), None);
        // Advancing the cut consumes exactly the newly visible posts.
        assert_eq!(lagged.ingest_until(&b, Round(2)), 2);
        assert_eq!(lagged.votes_for(ObjectId(1)), 2);
        assert_eq!(lagged.vote_of(PlayerId(3)), None);
        // A cut that uncovers nothing new is a no-op; cursor never regresses.
        assert_eq!(lagged.ingest_until(&b, Round(2)), 0);
        assert_eq!(lagged.ingest_until(&b, Round(1)), 0);
        // Once the cut passes every round, state matches a fresh full ingest.
        assert_eq!(lagged.ingest_until(&b, Round(99)), 1);
        let mut fresh = VoteTracker::new(4, 4, VotePolicy::single_vote());
        fresh.ingest(&b);
        for p in 0..4u32 {
            assert_eq!(lagged.vote_of(PlayerId(p)), fresh.vote_of(PlayerId(p)));
        }
        assert_eq!(lagged.cursor(), fresh.cursor());
    }

    #[test]
    fn duplicate_votes_for_same_object_do_not_double_count() {
        let mut b = board(2, 2);
        for r in 0..5u64 {
            b.append(
                Round(r),
                PlayerId(0),
                ObjectId(0),
                1.0,
                ReportKind::Positive,
            )
            .unwrap();
        }
        let mut t = VoteTracker::new(2, 2, VotePolicy::multi_vote(3));
        t.ingest(&b);
        assert_eq!(t.votes_for(ObjectId(0)), 1);
        assert_eq!(t.votes_of(PlayerId(0)).len(), 1);
    }

    #[test]
    fn multi_vote_cap_is_enforced_by_reader() {
        let mut b = board(1, 10);
        for i in 0..10u32 {
            b.append(
                Round(0),
                PlayerId(0),
                ObjectId(i),
                1.0,
                ReportKind::Positive,
            )
            .unwrap();
        }
        let mut t = VoteTracker::new(1, 10, VotePolicy::multi_vote(3));
        t.ingest(&b);
        assert_eq!(
            t.votes_of(PlayerId(0)).len(),
            3,
            "ballot stuffing is capped at f"
        );
        assert_eq!(t.total_vote_events(), 3);
        let voted = t.objects_with_votes();
        assert_eq!(voted, [ObjectId(0), ObjectId(1), ObjectId(2)]);
    }

    #[test]
    fn ingest_is_incremental() {
        let mut b = board(2, 2);
        let mut t = VoteTracker::new(2, 2, VotePolicy::single_vote());
        b.append(
            Round(0),
            PlayerId(0),
            ObjectId(0),
            1.0,
            ReportKind::Positive,
        )
        .unwrap();
        assert_eq!(t.ingest(&b), 1);
        assert_eq!(t.ingest(&b), 0);
        b.append(
            Round(1),
            PlayerId(1),
            ObjectId(1),
            1.0,
            ReportKind::Positive,
        )
        .unwrap();
        assert_eq!(t.ingest(&b), 1);
        assert_eq!(t.cursor(), Seq(2));
        assert_eq!(t.voters(), 2);
    }

    #[test]
    fn window_tallies_match_event_rounds() {
        let mut b = board(4, 4);
        b.append(
            Round(0),
            PlayerId(0),
            ObjectId(1),
            1.0,
            ReportKind::Positive,
        )
        .unwrap();
        b.append(
            Round(2),
            PlayerId(1),
            ObjectId(1),
            1.0,
            ReportKind::Positive,
        )
        .unwrap();
        b.append(
            Round(2),
            PlayerId(2),
            ObjectId(3),
            1.0,
            ReportKind::Positive,
        )
        .unwrap();
        b.append(
            Round(5),
            PlayerId(3),
            ObjectId(1),
            1.0,
            ReportKind::Positive,
        )
        .unwrap();
        let mut t = VoteTracker::new(4, 4, VotePolicy::single_vote());
        t.ingest(&b);
        let w = Window::new(Round(1), Round(5));
        assert_eq!(t.window_votes_for(w, ObjectId(1)), 1);
        assert_eq!(t.window_votes_for(w, ObjectId(3)), 1);
        let tally = t.window_tally(w);
        assert_eq!(tally.get(&ObjectId(1)), Some(&1));
        assert_eq!(tally.get(&ObjectId(0)), None);
        assert_eq!(t.events_in(Window::new(Round(0), Round(6))).len(), 4);
        assert_eq!(t.events_in(Window::empty(Round(2))).len(), 0);
    }

    #[test]
    fn best_value_vote_moves_to_better_object() {
        let mut b = board(1, 3);
        b.append(
            Round(0),
            PlayerId(0),
            ObjectId(0),
            0.3,
            ReportKind::Negative,
        )
        .unwrap();
        b.append(
            Round(1),
            PlayerId(0),
            ObjectId(1),
            0.7,
            ReportKind::Negative,
        )
        .unwrap();
        b.append(
            Round(2),
            PlayerId(0),
            ObjectId(2),
            0.5,
            ReportKind::Negative,
        )
        .unwrap();
        let mut t = VoteTracker::new(1, 3, VotePolicy::best_value());
        t.ingest(&b);
        assert_eq!(t.vote_of(PlayerId(0)), Some(ObjectId(1)));
        assert_eq!(t.votes_for(ObjectId(0)), 0, "old vote revoked");
        assert_eq!(t.votes_for(ObjectId(1)), 1);
        // two events: o0 became the vote, then o1 did.
        assert_eq!(t.total_vote_events(), 2);
    }

    #[test]
    fn best_value_same_object_refresh_is_not_an_event() {
        let mut b = board(1, 2);
        b.append(
            Round(0),
            PlayerId(0),
            ObjectId(0),
            0.3,
            ReportKind::Negative,
        )
        .unwrap();
        b.append(
            Round(1),
            PlayerId(0),
            ObjectId(0),
            0.9,
            ReportKind::Negative,
        )
        .unwrap();
        let mut t = VoteTracker::new(1, 2, VotePolicy::best_value());
        t.ingest(&b);
        assert_eq!(t.total_vote_events(), 1);
        assert_eq!(t.votes_of(PlayerId(0))[0].value, 0.9, "value refreshed");
    }

    #[test]
    fn best_value_oscillation_capped_per_pair() {
        // A Byzantine player alternates two objects with ever-growing values;
        // events must be capped at one per (player, object) pair.
        let mut b = board(1, 2);
        for r in 0..10u64 {
            let obj = ObjectId((r % 2) as u32);
            b.append(Round(r), PlayerId(0), obj, r as f64, ReportKind::Negative)
                .unwrap();
        }
        let mut t = VoteTracker::new(1, 2, VotePolicy::best_value());
        t.ingest(&b);
        assert_eq!(
            t.total_vote_events(),
            2,
            "unbounded event inflation prevented"
        );
    }

    #[test]
    #[should_panic(expected = "universe mismatch")]
    fn mixing_boards_panics() {
        let b = board(2, 2);
        let mut t = VoteTracker::new(3, 2, VotePolicy::single_vote());
        t.ingest(&b);
    }

    #[test]
    fn open_window_answers_matching_queries_incrementally() {
        let mut b = board(8, 8);
        let mut t = VoteTracker::new(8, 8, VotePolicy::single_vote());
        // Pre-window votes land first; the window must exclude them even
        // though it is opened retroactively.
        b.append(
            Round(0),
            PlayerId(0),
            ObjectId(5),
            1.0,
            ReportKind::Positive,
        )
        .unwrap();
        t.ingest(&b);
        t.open_window(Round(2));
        assert_eq!(t.active_window_start(), Some(Round(2)));
        for r in 2..6u64 {
            b.append(
                Round(r),
                PlayerId(u32::try_from(r).unwrap()),
                ObjectId(3),
                1.0,
                ReportKind::Positive,
            )
            .unwrap();
            t.ingest(&b);
            let w = Window::new(Round(2), Round(r + 1));
            assert_eq!(
                t.window_votes_for(w, ObjectId(3)),
                u32::try_from(r - 1).unwrap()
            );
            assert_eq!(
                t.window_votes_for(w, ObjectId(5)),
                0,
                "round-0 vote excluded"
            );
            assert_eq!(t.window_tally(w), t.window_tally_scan(w));
        }
    }

    #[test]
    fn open_window_seeds_from_already_ingested_events() {
        let mut b = board(4, 4);
        let mut t = VoteTracker::new(4, 4, VotePolicy::single_vote());
        for r in 0..4u64 {
            b.append(
                Round(r),
                PlayerId(u32::try_from(r).unwrap()),
                ObjectId(1),
                1.0,
                ReportKind::Positive,
            )
            .unwrap();
        }
        t.ingest(&b);
        // Open after everything is already ingested: counts must be seeded.
        t.open_window(Round(1));
        let w = Window::new(Round(1), Round(9));
        assert_eq!(t.window_votes_for(w, ObjectId(1)), 3);
        assert_eq!(t.window_tally(w).get(&ObjectId(1)), Some(&3));
    }

    #[test]
    fn non_matching_windows_fall_back_to_scan() {
        let mut b = board(4, 4);
        let mut t = VoteTracker::new(4, 4, VotePolicy::single_vote());
        for r in 0..6u64 {
            b.append(
                Round(r),
                PlayerId(u32::try_from(r).unwrap() % 4),
                ObjectId(2),
                1.0,
                ReportKind::Positive,
            )
            .unwrap();
        }
        t.ingest(&b); // players 0..4 vote once each (dup votes ignored)
        t.open_window(Round(3));
        // Different start: scan path.
        let historical = Window::new(Round(0), Round(2));
        assert_eq!(t.window_votes_for(historical, ObjectId(2)), 2);
        // End inside already-ingested events: scan path.
        let clipped = Window::new(Round(3), Round(4));
        assert_eq!(
            t.window_votes_for(clipped, ObjectId(2)),
            t.window_votes_for_scan(clipped, ObjectId(2))
        );
        // Closing the window keeps every query on the scan path.
        t.close_window();
        assert_eq!(t.active_window_start(), None);
        let w = Window::new(Round(3), Round(7));
        assert_eq!(
            t.window_votes_for(w, ObjectId(2)),
            t.window_votes_for_scan(w, ObjectId(2))
        );
    }

    #[test]
    fn reopening_replaces_the_active_window() {
        let mut b = board(4, 4);
        let mut t = VoteTracker::new(4, 4, VotePolicy::single_vote());
        t.open_window(Round(0));
        b.append(
            Round(0),
            PlayerId(0),
            ObjectId(0),
            1.0,
            ReportKind::Positive,
        )
        .unwrap();
        b.append(
            Round(2),
            PlayerId(1),
            ObjectId(0),
            1.0,
            ReportKind::Positive,
        )
        .unwrap();
        t.ingest(&b);
        t.open_window(Round(2));
        assert_eq!(
            t.window_votes_for(Window::new(Round(2), Round(3)), ObjectId(0)),
            1
        );
        // The old window's queries still answer correctly via the scan.
        assert_eq!(
            t.window_votes_for(Window::new(Round(0), Round(3)), ObjectId(0)),
            2
        );
    }

    #[test]
    fn window_tally_into_matches_map_on_both_paths() {
        let mut b = board(6, 6);
        let mut t = VoteTracker::new(6, 6, VotePolicy::single_vote());
        for r in 0..6u64 {
            b.append(
                Round(r),
                PlayerId(u32::try_from(r).unwrap()),
                ObjectId((r % 3) as u32),
                1.0,
                ReportKind::Positive,
            )
            .unwrap();
        }
        t.open_window(Round(2));
        t.ingest(&b);
        let mut buf = Vec::new();
        // Incremental path (registered window).
        let fast = Window::new(Round(2), Round(7));
        t.window_tally_into(fast, &mut buf);
        let expect: Vec<_> = t.window_tally(fast).into_iter().collect();
        assert_eq!(buf, expect);
        // Scan path (historical window) reuses the same buffer.
        let slow = Window::new(Round(0), Round(4));
        t.window_tally_into(slow, &mut buf);
        let expect: Vec<_> = t.window_tally(slow).into_iter().collect();
        assert_eq!(buf, expect);
    }

    #[test]
    fn reopening_windows_reuses_buffers_and_stays_correct() {
        let mut b = board(4, 4);
        let mut t = VoteTracker::new(4, 4, VotePolicy::single_vote());
        t.open_window(Round(0));
        b.append(
            Round(0),
            PlayerId(0),
            ObjectId(3),
            1.0,
            ReportKind::Positive,
        )
        .unwrap();
        t.ingest(&b);
        // Close → spare; reopen must start from zeroed counts.
        t.close_window();
        t.open_window(Round(1));
        b.append(
            Round(1),
            PlayerId(1),
            ObjectId(2),
            1.0,
            ReportKind::Positive,
        )
        .unwrap();
        t.ingest(&b);
        let w = Window::new(Round(1), Round(2));
        assert_eq!(t.window_votes_for(w, ObjectId(2)), 1);
        assert_eq!(t.window_votes_for(w, ObjectId(3)), 0, "stale count leaked");
        // Reopen directly over an active window too.
        t.open_window(Round(2));
        b.append(
            Round(2),
            PlayerId(2),
            ObjectId(2),
            1.0,
            ReportKind::Positive,
        )
        .unwrap();
        t.ingest(&b);
        let w2 = Window::new(Round(2), Round(3));
        assert_eq!(t.window_votes_for(w2, ObjectId(2)), 1);
    }

    #[test]
    fn reset_restores_fresh_observable_state() {
        let mut b = board(3, 4);
        let mut t = VoteTracker::new(3, 4, VotePolicy::multi_vote(2));
        t.open_window(Round(0));
        for r in 0..3u64 {
            b.append(
                Round(r),
                PlayerId(u32::try_from(r).unwrap()),
                ObjectId(u32::try_from(r).unwrap()),
                1.0,
                ReportKind::Positive,
            )
            .unwrap();
        }
        t.ingest(&b);
        assert_eq!(t.total_vote_events(), 3);
        t.reset();
        assert_eq!(t.cursor(), Seq(0));
        assert_eq!(t.total_vote_events(), 0);
        assert!(t.objects_with_votes().is_empty());
        assert_eq!(t.voters(), 0);
        assert_eq!(t.active_window_start(), None);
        // Re-ingesting a fresh board replays identically to a fresh tracker.
        b.reset();
        assert!(b.is_empty());
        b.append(
            Round(0),
            PlayerId(1),
            ObjectId(2),
            1.0,
            ReportKind::Positive,
        )
        .unwrap();
        t.open_window(Round(0));
        t.ingest(&b);
        assert_eq!(t.vote_of(PlayerId(1)), Some(ObjectId(2)));
        assert_eq!(
            t.window_votes_for(Window::new(Round(0), Round(1)), ObjectId(2)),
            1
        );
    }

    #[test]
    fn best_value_maintains_voted_set_through_revocation() {
        let mut b = board(2, 3);
        let mut t = VoteTracker::new(2, 3, VotePolicy::best_value());
        b.append(
            Round(0),
            PlayerId(0),
            ObjectId(0),
            0.2,
            ReportKind::Negative,
        )
        .unwrap();
        t.ingest(&b);
        assert_eq!(t.objects_with_votes(), vec![ObjectId(0)]);
        // The vote moves to object 2: object 0's count drops to zero and it
        // must leave the incrementally-maintained set.
        b.append(
            Round(1),
            PlayerId(0),
            ObjectId(2),
            0.9,
            ReportKind::Negative,
        )
        .unwrap();
        t.ingest(&b);
        assert_eq!(t.objects_with_votes(), vec![ObjectId(2)]);
    }

    #[test]
    fn settle_sees_round_trips_inside_one_ingest_and_nothing_after_reset() {
        let mut b = board(3, 5);
        let mut t = VoteTracker::new(3, 5, VotePolicy::best_value());
        b.append(
            Round(0),
            PlayerId(0),
            ObjectId(1),
            0.1,
            ReportKind::Negative,
        )
        .unwrap();
        t.ingest(&b);
        assert_eq!(t.objects_with_votes(), [ObjectId(1)]);
        // One ingest call: object 0 goes 0→1→0 (player 1 votes it, then
        // moves on) and object 1 goes 1→0→1 (player 0 moves off it, then
        // player 2 votes it).
        for (p, o, v) in [(1, 0, 0.2), (0, 2, 0.5), (1, 3, 0.6), (2, 1, 0.3)] {
            b.append(Round(1), PlayerId(p), ObjectId(o), v, ReportKind::Negative)
                .unwrap();
        }
        t.ingest(&b);
        assert_eq!(
            t.objects_with_votes(),
            [ObjectId(1), ObjectId(2), ObjectId(3)]
        );
        assert_eq!(t.objects_with_votes(), t.objects_with_votes_scan());
        assert_eq!(t.voters(), 3);
        // After a reset, a fresh ingest shows only its own vote.
        t.reset();
        b.reset();
        b.append(
            Round(0),
            PlayerId(2),
            ObjectId(4),
            0.1,
            ReportKind::Negative,
        )
        .unwrap();
        t.ingest(&b);
        assert_eq!(t.objects_with_votes(), [ObjectId(4)]);
        assert_eq!(t.voters(), 1);
    }
}
