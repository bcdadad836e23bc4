//! Algorithm DISTILL (Figure 1).

use crate::params::DistillParams;
use distill_billboard::{BoardView, ObjectId, Round, Window};
use distill_sim::{CandidateSet, Cohort, Directive, PhaseInfo};
use std::sync::{Arc, Mutex, PoisonError};

/// Which step of subroutine ATTEMPT a segment belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StepKind {
    /// Step 1.1: `⌈k₁/(αβn)⌉` invocations of `PROBE&SEEKADVICE` on the full
    /// universe.
    Step11,
    /// Step 1.3: `⌈k₂/α⌉` invocations on `S`, the objects with at least one
    /// vote.
    Step13,
    /// Step 2 iteration `t`: `⌈1/α⌉` invocations on `C_t`.
    Refine(u32),
}

/// One contiguous block of rounds executing a fixed candidate set.
#[derive(Debug, Clone)]
struct Segment {
    kind: StepKind,
    candidates: CandidateSet,
    window_start: Round,
    rounds_total: u64,
    rounds_done: u64,
}

impl Segment {
    fn exhausted(&self) -> bool {
        self.rounds_done >= self.rounds_total
    }
}

/// A recorded candidate-set boundary, for experiments that inspect the
/// refinement process (Lemma 7, the §1.2 worked example).
#[derive(Debug, Clone)]
pub struct CandidateSnapshot {
    /// 1-based ATTEMPT invocation index.
    pub attempt: u64,
    /// Which boundary produced this set (`"S"`, `"C0"`, or `"C"`).
    pub label: &'static str,
    /// The while-loop iteration that produced the set, for `"C"` snapshots.
    pub iteration: Option<u32>,
    /// The round at which the set was computed.
    pub round: Round,
    /// The candidate set contents.
    pub candidates: Vec<ObjectId>,
}

/// Shared sink for [`CandidateSnapshot`]s.
///
/// Hand a clone to [`Distill::with_observer`] before giving the cohort to the
/// engine; read it after the run.
pub type Observer = Arc<Mutex<Vec<CandidateSnapshot>>>;

/// Creates an empty [`Observer`].
pub fn observer() -> Observer {
    Arc::new(Mutex::new(Vec::new()))
}

/// Algorithm **DISTILL** (Figure 1) as a [`Cohort`].
///
/// The algorithm repeatedly invokes subroutine ATTEMPT until every honest
/// player has found a good object:
///
/// 1. **Prepare** (Steps 1.1–1.4): probe the whole universe long enough for
///    some honest player to hit a good object with constant probability, then
///    concentrate `⌈k₂/α⌉` invocations on the voted set `S` so that a good
///    object collects at least `k₂/4` votes and enters `C₀`;
/// 2. **Distill** (Step 2): while the candidate set is non-empty, spend
///    `⌈1/α⌉` invocations probing it uniformly; an object survives into
///    `C_{t+1}` only if it received more than `n/(4·c_t)` votes *in this
///    iteration*. Because each player has one vote, dishonest players can
///    keep bad objects alive for only `O(log n / Δ)` iterations in total
///    (Lemma 7 / Equation 1).
///
/// Every probe goes through `PROBE&SEEKADVICE`: even rounds of a segment
/// probe a uniform random candidate, odd rounds follow the vote of a
/// uniformly random player — which is what guarantees the `O(1/α)` endgame
/// once half the honest players are satisfied (Lemma 6).
///
/// Termination (posting the found good object as one's vote and halting) is
/// enforced by the engine, which is where probing and satisfaction live.
///
/// An optional **universe restriction** limits the algorithm to a subset of
/// objects (used by the Theorem 12 cost-class search); candidate sets are
/// intersected with it.
#[derive(Debug)]
pub struct Distill {
    params: DistillParams,
    universe: Option<Arc<Vec<ObjectId>>>,
    segment: Option<Segment>,
    attempts: u64,
    iterations_total: u64,
    iterations_this_attempt: u64,
    max_iterations_per_attempt: u64,
    max_c0: usize,
    observer: Option<Observer>,
    /// Scratch tally buffer reused across segment boundaries, filled via
    /// [`BoardView::window_tally_into`] — boundary tallies allocate nothing
    /// once the buffer has grown to its working size.
    tally_buf: Vec<(ObjectId, u32)>,
}

impl Distill {
    /// A DISTILL cohort with the given parameters over the full universe.
    pub fn new(params: DistillParams) -> Self {
        Distill {
            params,
            universe: None,
            segment: None,
            attempts: 0,
            iterations_total: 0,
            iterations_this_attempt: 0,
            max_iterations_per_attempt: 0,
            max_c0: 0,
            observer: None,
            tally_buf: Vec::new(),
        }
    }

    /// Restricts the search to `universe` (Theorem 12 cost classes). Votes
    /// for objects outside the universe are ignored when forming `S` and
    /// `C₀`.
    pub fn with_universe(mut self, universe: Vec<ObjectId>) -> Self {
        self.universe = Some(Arc::new(universe));
        self
    }

    /// Attaches a candidate-set observer.
    pub fn with_observer(mut self, observer: Observer) -> Self {
        self.observer = Some(observer);
        self
    }

    /// The parameters in force.
    pub fn params(&self) -> DistillParams {
        self.params
    }

    fn universe_set(&self) -> CandidateSet {
        match &self.universe {
            None => CandidateSet::All,
            Some(u) => CandidateSet::Subset(Arc::clone(u)),
        }
    }

    fn in_universe(&self, o: ObjectId) -> bool {
        match &self.universe {
            None => true,
            Some(u) => u.contains(&o),
        }
    }

    fn record_snapshot(
        &self,
        label: &'static str,
        iteration: Option<u32>,
        round: Round,
        candidates: &[ObjectId],
    ) {
        if let Some(obs) = &self.observer {
            // A panicked observer thread must not poison the cohort: the
            // snapshot vector stays usable (lock-poison recovery, not unwrap).
            obs.lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(CandidateSnapshot {
                    attempt: self.attempts,
                    label,
                    iteration,
                    round,
                    candidates: candidates.to_vec(),
                });
        }
    }

    fn begin_attempt(&mut self, at: Round) -> Segment {
        self.attempts += 1;
        self.max_iterations_per_attempt = self
            .max_iterations_per_attempt
            .max(self.iterations_this_attempt);
        self.iterations_this_attempt = 0;
        Segment {
            kind: StepKind::Step11,
            candidates: self.universe_set(),
            window_start: at,
            rounds_total: 2 * self.params.invocations_step11(),
            rounds_done: 0,
        }
    }

    /// Advances past an exhausted segment, computing the next candidate set
    /// from the public billboard. May start a fresh ATTEMPT.
    ///
    /// The `ℓ_t(i)` queries here always use the exhausted segment's window
    /// `[window_start, now)`. The cohort only holds a read-only view, so the
    /// engine registers that window with the tracker (via
    /// [`PhaseInfo::window_start`]) when the segment begins; by the time the
    /// segment boundary is reached, [`BoardView::window_tally`] answers from
    /// incrementally-maintained counters in O(result) instead of re-scanning
    /// the segment's vote events.
    fn advance(&mut self, seg: &Segment, view: &BoardView<'_>) -> Segment {
        let now = view.round();
        match seg.kind {
            StepKind::Step11 => {
                // Step 1.2: S = objects with at least one vote. The view
                // hands out a borrow of the incrementally-maintained set;
                // the only allocation is the candidate vector the new
                // segment owns for its whole lifetime.
                let s: Vec<ObjectId> = view
                    .objects_with_votes()
                    .iter()
                    .copied()
                    .filter(|&o| self.in_universe(o))
                    .collect();
                self.record_snapshot("S", None, now, &s);
                if s.is_empty() {
                    // Nobody has voted at all — a fresh ATTEMPT is the only
                    // action the algorithm defines on an empty S.
                    return self.begin_attempt(now);
                }
                Segment {
                    kind: StepKind::Step13,
                    candidates: CandidateSet::subset(s),
                    window_start: now,
                    rounds_total: 2 * self.params.invocations_step13(),
                    rounds_done: 0,
                }
            }
            StepKind::Step13 => {
                // Step 1.4: C₀ = objects with at least k₂/4 votes in the
                // Step 1.3 window. The tally lands in the reused scratch
                // buffer (ascending by id, so C₀ comes out sorted for free).
                let window = Window::new(seg.window_start, now);
                view.window_tally_into(window, &mut self.tally_buf);
                let threshold = self.params.c0_threshold();
                let c0: Vec<ObjectId> = self
                    .tally_buf
                    .iter()
                    .filter(|&&(o, count)| f64::from(count) >= threshold && self.in_universe(o))
                    .map(|&(o, _)| o)
                    .collect();
                self.record_snapshot("C0", None, now, &c0);
                self.max_c0 = self.max_c0.max(c0.len());
                if c0.is_empty() {
                    return self.begin_attempt(now);
                }
                self.iterations_this_attempt += 1;
                self.iterations_total += 1;
                Segment {
                    kind: StepKind::Refine(0),
                    candidates: CandidateSet::subset(c0),
                    window_start: now,
                    rounds_total: 2 * self.params.invocations_step2(),
                    rounds_done: 0,
                }
            }
            StepKind::Refine(t) => {
                // Step 2.2: C_{t+1} = { i ∈ C_t : ℓ_t(i) > n/(4·c_t) }.
                // The window tally lands in the reused scratch buffer
                // (ascending by id), so membership lookups are binary
                // searches and C_t is iterated in place — the only
                // allocation is C_{t+1} itself.
                let window = Window::new(seg.window_start, now);
                view.window_tally_into(window, &mut self.tally_buf);
                let threshold = self
                    .params
                    .survival_threshold(seg.candidates.len(self.params.m));
                let tally = &self.tally_buf;
                let votes_in_window = |o: ObjectId| {
                    tally
                        .binary_search_by_key(&o, |&(obj, _)| obj)
                        .map_or(0, |i| tally[i].1)
                };
                let survives = |o: ObjectId| f64::from(votes_in_window(o)) > threshold;
                let next: Vec<ObjectId> = match &seg.candidates {
                    CandidateSet::All => (0..self.params.m)
                        .map(ObjectId)
                        .filter(|&o| survives(o))
                        .collect(),
                    CandidateSet::Subset(c_t) => {
                        c_t.iter().copied().filter(|&o| survives(o)).collect()
                    }
                };
                self.record_snapshot("C", Some(t + 1), now, &next);
                if next.is_empty() {
                    return self.begin_attempt(now);
                }
                self.iterations_this_attempt += 1;
                self.iterations_total += 1;
                Segment {
                    kind: StepKind::Refine(t + 1),
                    candidates: CandidateSet::subset(next),
                    window_start: now,
                    rounds_total: 2 * self.params.invocations_step2(),
                    rounds_done: 0,
                }
            }
        }
    }
}

impl Cohort for Distill {
    fn directive(&mut self, view: &BoardView<'_>) -> Directive {
        // The schedule segment is threaded by value: it is taken out of the
        // cohort, advanced past any exhausted boundaries, consumed for one
        // round, and put back — no "segment must be set" unwrapping anywhere.
        let mut seg = match self.segment.take() {
            Some(seg) => seg,
            None => self.begin_attempt(view.round()),
        };
        while seg.exhausted() {
            seg = self.advance(&seg, view);
        }
        let advice_round = seg.rounds_done % 2 == 1;
        seg.rounds_done += 1;
        let directive = if advice_round {
            Directive::SeekAdvice {
                fallback: seg.candidates.clone(),
            }
        } else {
            Directive::ProbeUniform(seg.candidates.clone())
        };
        self.segment = Some(seg);
        directive
    }

    fn phase_info(&self) -> PhaseInfo {
        match &self.segment {
            None => PhaseInfo::plain("distill.init"),
            Some(seg) => {
                let (label, threshold, iteration) = match seg.kind {
                    StepKind::Step11 => ("distill.step1.1", None, None),
                    StepKind::Step13 => ("distill.step1.3", Some(self.params.c0_threshold()), None),
                    StepKind::Refine(t) => (
                        "distill.refine",
                        Some(
                            self.params
                                .survival_threshold(seg.candidates.len(self.params.m).max(1)),
                        ),
                        Some(t),
                    ),
                };
                PhaseInfo {
                    label,
                    candidates: seg.candidates.clone(),
                    window_start: seg.window_start,
                    survival_threshold: threshold,
                    iteration,
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "distill"
    }

    fn notes(&self) -> Vec<(String, f64)> {
        vec![
            ("distill.attempts".into(), self.attempts as f64),
            (
                "distill.iterations_total".into(),
                self.iterations_total as f64,
            ),
            (
                "distill.max_iterations_per_attempt".into(),
                self.max_iterations_per_attempt
                    .max(self.iterations_this_attempt) as f64,
            ),
            ("distill.max_c0".into(), self.max_c0 as f64),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distill_billboard::{Billboard, PlayerId, ReportKind, VotePolicy, VoteTracker};

    fn params() -> DistillParams {
        DistillParams::with_constants(16, 16, 0.5, 1.0 / 16.0, 2.0, 8.0).unwrap()
    }

    #[test]
    fn first_directive_starts_step11() {
        let board = Billboard::new(16, 16);
        let mut tracker = VoteTracker::new(16, 16, VotePolicy::single_vote());
        tracker.ingest(&board);
        let mut d = Distill::new(params());
        let view = BoardView::new(&board, &tracker, Round(0));
        let dir = d.directive(&view);
        assert!(matches!(dir, Directive::ProbeUniform(_)));
        let info = d.phase_info();
        assert_eq!(info.label, "distill.step1.1");
        assert!(info.survival_threshold.is_none());
        // second round of the invocation is an advice round
        let dir = d.directive(&view);
        assert!(matches!(dir, Directive::SeekAdvice { .. }));
    }

    #[test]
    fn empty_s_restarts_attempt() {
        // Nobody ever votes: after Step 1.1 the schedule must loop back into
        // a fresh ATTEMPT rather than progress with an empty S.
        let board = Billboard::new(16, 16);
        let mut tracker = VoteTracker::new(16, 16, VotePolicy::single_vote());
        tracker.ingest(&board);
        let mut d = Distill::new(params());
        let rounds_11 = 2 * d.params().invocations_step11();
        for r in 0..(rounds_11 * 3) {
            let view = BoardView::new(&board, &tracker, Round(r));
            let _ = d.directive(&view);
            let info = d.phase_info();
            assert_eq!(
                info.label, "distill.step1.1",
                "round {r} must stay in step 1.1"
            );
        }
        assert!(d.attempts >= 3);
    }

    #[test]
    fn votes_move_schedule_to_step13_then_refine() {
        let mut board = Billboard::new(16, 16);
        let mut tracker = VoteTracker::new(16, 16, VotePolicy::single_vote());
        let mut d = Distill::new(params());
        let obs = observer();
        d = d.with_observer(Arc::clone(&obs));
        let inv11 = d.params().invocations_step11();
        let rounds_11 = 2 * inv11;

        // During step 1.1, players 0..8 vote for object 3.
        for r in 0..rounds_11 {
            let view = BoardView::new(&board, &tracker, Round(r));
            let _ = d.directive(&view);
            if r < 8 {
                board
                    .append(
                        Round(r),
                        PlayerId(u32::try_from(r).unwrap()),
                        ObjectId(3),
                        1.0,
                        ReportKind::Positive,
                    )
                    .unwrap();
                tracker.ingest(&board);
            }
        }
        // Next directive crosses into step 1.3 with S = {3}.
        let view = BoardView::new(&board, &tracker, Round(rounds_11));
        let _ = d.directive(&view);
        let info = d.phase_info();
        assert_eq!(info.label, "distill.step1.3");
        assert_eq!(info.candidates.to_vec(16), vec![ObjectId(3)]);
        assert_eq!(info.survival_threshold, Some(2.0)); // k2/4

        // During step 1.3, players 8..14 vote for object 3 (6 votes ≥ k2/4=2).
        let rounds_13 = 2 * d.params().invocations_step13();
        for i in 0..rounds_13 {
            let r = rounds_11 + i;
            if i > 0 {
                let view = BoardView::new(&board, &tracker, Round(r));
                let _ = d.directive(&view);
            }
            if i < 6 {
                board
                    .append(
                        Round(r),
                        PlayerId(8 + u32::try_from(i).unwrap()),
                        ObjectId(3),
                        1.0,
                        ReportKind::Positive,
                    )
                    .unwrap();
                tracker.ingest(&board);
            }
        }
        let view = BoardView::new(&board, &tracker, Round(rounds_11 + rounds_13));
        let _ = d.directive(&view);
        let info = d.phase_info();
        assert_eq!(info.label, "distill.refine");
        assert_eq!(info.iteration, Some(0));
        assert_eq!(info.candidates.to_vec(16), vec![ObjectId(3)]);
        // survival threshold = n/(4·c_t) = 16/4 = 4
        assert_eq!(info.survival_threshold, Some(4.0));

        let snaps = obs.lock().unwrap();
        assert!(snaps.iter().any(|s| s.label == "S"));
        assert!(snaps
            .iter()
            .any(|s| s.label == "C0" && s.candidates == vec![ObjectId(3)]));
    }

    #[test]
    fn refine_drops_objects_below_threshold_and_restarts_on_empty() {
        // Build a distill already in Refine by replaying the previous test's
        // structure, then let the refine window pass with zero votes: the
        // candidate dies and a new attempt begins.
        let mut board = Billboard::new(16, 16);
        let mut tracker = VoteTracker::new(16, 16, VotePolicy::single_vote());
        let mut d = Distill::new(params());
        let mut r = 0u64;
        // step 1.1 with early votes
        for i in 0..(2 * d.params().invocations_step11()) {
            let view = BoardView::new(&board, &tracker, Round(r));
            let _ = d.directive(&view);
            if i < 8 {
                board
                    .append(
                        Round(r),
                        PlayerId(u32::try_from(i).unwrap()),
                        ObjectId(3),
                        1.0,
                        ReportKind::Positive,
                    )
                    .unwrap();
                tracker.ingest(&board);
            }
            r += 1;
        }
        // step 1.3 with votes from players 8..14
        for i in 0..(2 * d.params().invocations_step13()) {
            let view = BoardView::new(&board, &tracker, Round(r));
            let _ = d.directive(&view);
            if i < 6 {
                board
                    .append(
                        Round(r),
                        PlayerId(8 + u32::try_from(i).unwrap()),
                        ObjectId(3),
                        1.0,
                        ReportKind::Positive,
                    )
                    .unwrap();
                tracker.ingest(&board);
            }
            r += 1;
        }
        // refine iteration 0 runs with no further votes
        for _ in 0..(2 * d.params().invocations_step2()) {
            let view = BoardView::new(&board, &tracker, Round(r));
            let _ = d.directive(&view);
            assert_eq!(d.phase_info().label, "distill.refine");
            r += 1;
        }
        // object 3 got 0 votes in the refine window < threshold 4 ⇒ empty ⇒
        // new attempt (step 1.1 again)
        let view = BoardView::new(&board, &tracker, Round(r));
        let _ = d.directive(&view);
        assert_eq!(d.phase_info().label, "distill.step1.1");
        assert_eq!(d.attempts, 2);
        assert_eq!(d.iterations_total, 1);
        let notes = d.notes();
        assert!(notes
            .iter()
            .any(|(k, v)| k == "distill.attempts" && *v == 2.0));
    }

    #[test]
    fn universe_restriction_filters_candidates() {
        let mut board = Billboard::new(16, 16);
        let mut tracker = VoteTracker::new(16, 16, VotePolicy::single_vote());
        let mut d = Distill::new(params()).with_universe(vec![ObjectId(1), ObjectId(2)]);
        // Votes arrive for objects 2 (inside) and 9 (outside).
        board
            .append(
                Round(0),
                PlayerId(0),
                ObjectId(2),
                1.0,
                ReportKind::Positive,
            )
            .unwrap();
        board
            .append(
                Round(0),
                PlayerId(1),
                ObjectId(9),
                1.0,
                ReportKind::Positive,
            )
            .unwrap();
        tracker.ingest(&board);
        let rounds_11 = 2 * d.params().invocations_step11();
        for r in 0..=rounds_11 {
            let view = BoardView::new(&board, &tracker, Round(r));
            let _ = d.directive(&view);
        }
        let info = d.phase_info();
        assert_eq!(info.label, "distill.step1.3");
        assert_eq!(
            info.candidates.to_vec(16),
            vec![ObjectId(2)],
            "object 9 filtered out"
        );
    }

    #[test]
    fn params_accessor() {
        let d = Distill::new(params());
        assert_eq!(d.params().n, 16);
        assert_eq!(d.name(), "distill");
    }
}
