//! The §1.2 worked example: a three-phase simplification of DISTILL.

use crate::distill::{observer as new_observer, Observer};
use distill_billboard::{BoardView, ObjectId};
use distill_sim::{CandidateSet, Cohort, Directive, PhaseInfo};

/// The three-phase algorithm from the paper's introduction (§1.2), stated
/// there for `m = n` objects and `√n` dishonest players.
///
/// Each phase `i` consists of two rounds in which each player probes a random
/// object from a candidate set `C_i` and posts the result. `C_i` is the set
/// of objects recommended by at least `θ_i` players on the billboard *at the
/// start of phase i*, with thresholds `θ₁ = 0`, `θ₂ = 1`, `θ₃ = √n/2`:
///
/// * `C₁` is everything; in two rounds of `≈ 2n` probes some honest player
///   hits the good object `i₀` with probability `> 1 − 1/e`;
/// * `C₂` (objects with ≥ 1 vote) has `≈ √n` members — the `√n` dishonest
///   players can plant at most `√n` bad objects — so `i₀` collects `≈ √n`
///   votes during phase 2;
/// * `C₃` (objects with ≥ `√n/2` votes) has at most ~3 members, and players
///   probe those until they find `i₀`.
///
/// After phase 3 begins, the cohort keeps probing `C₃` (the paper's players
/// "probe these 3 objects and halt within 3 rounds"; sampling uniformly from
/// ≤ 3 candidates needs ≤ 3 expected rounds).
///
/// This is a pedagogical cohort: its simplistic analysis breaks when the
/// number of dishonest players is large — which is precisely why the full
/// DISTILL exists (§1.2: "the simplistic analysis above breaks down…").
#[derive(Debug)]
pub struct ThreePhase {
    n: u32,
    phase: u32,
    rounds_in_phase: u64,
    candidates: CandidateSet,
    c2_size: usize,
    c3_size: usize,
    observer: Option<Observer>,
}

impl ThreePhase {
    /// Creates the cohort for `n` players.
    pub fn new(n: u32) -> Self {
        ThreePhase {
            n,
            phase: 0,
            rounds_in_phase: 0,
            candidates: CandidateSet::All,
            c2_size: 0,
            c3_size: 0,
            observer: None,
        }
    }

    /// Attaches a candidate-set observer (shared with
    /// [`Distill`](crate::Distill)'s observer type).
    pub fn with_observer(mut self, observer: Observer) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Convenience: a fresh observer handle.
    pub fn observer() -> Observer {
        new_observer()
    }

    /// The phase-3 admission threshold `θ₃ = √n/2`.
    pub fn theta3(&self) -> f64 {
        f64::from(self.n).sqrt() / 2.0
    }

    fn record(&self, label: &'static str, round: distill_billboard::Round, set: &[ObjectId]) {
        if let Some(obs) = &self.observer {
            // Lock-poison recovery: a panicked observer thread must not take
            // the cohort down with it.
            obs.lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push(crate::CandidateSnapshot {
                    attempt: 1,
                    label,
                    iteration: Some(self.phase),
                    round,
                    candidates: set.to_vec(),
                });
        }
    }

    fn enter_phase(&mut self, view: &BoardView<'_>) {
        self.phase += 1;
        self.rounds_in_phase = 0;
        match self.phase {
            1 => {
                self.candidates = CandidateSet::All; // θ₁ = 0
            }
            2 => {
                // θ₂ = 1: everything with at least one vote so far.
                let c2 = view.objects_with_votes().to_vec();
                self.c2_size = c2.len();
                self.record("C2", view.round(), &c2);
                self.candidates = CandidateSet::subset(c2);
            }
            _ => {
                // θ₃ = √n/2 cumulative votes at the start of phase 3.
                let theta = self.theta3();
                let c3: Vec<ObjectId> = view
                    .objects_with_votes()
                    .iter()
                    .copied()
                    .filter(|&o| f64::from(view.votes_for(o)) >= theta)
                    .collect();
                self.c3_size = c3.len();
                self.record("C3", view.round(), &c3);
                self.candidates = CandidateSet::subset(c3);
            }
        }
    }
}

impl Cohort for ThreePhase {
    fn directive(&mut self, view: &BoardView<'_>) -> Directive {
        if self.phase == 0 || (self.phase < 3 && self.rounds_in_phase >= 2) {
            self.enter_phase(view);
        }
        self.rounds_in_phase += 1;
        Directive::ProbeUniform(self.candidates.clone())
    }

    fn phase_info(&self) -> PhaseInfo {
        let label = match self.phase {
            0 | 1 => "three-phase.1",
            2 => "three-phase.2",
            _ => "three-phase.3",
        };
        PhaseInfo {
            label,
            candidates: self.candidates.clone(),
            window_start: distill_billboard::Round(0),
            survival_threshold: match self.phase {
                2 => Some(1.0),
                p if p >= 3 => Some(self.theta3()),
                _ => Some(0.0),
            },
            iteration: Some(self.phase),
        }
    }

    fn name(&self) -> &'static str {
        "three-phase"
    }

    fn notes(&self) -> Vec<(String, f64)> {
        vec![
            ("three_phase.c2_size".into(), self.c2_size as f64),
            ("three_phase.c3_size".into(), self.c3_size as f64),
            ("three_phase.phase".into(), f64::from(self.phase)),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distill_billboard::{Billboard, PlayerId, ReportKind, Round, VotePolicy, VoteTracker};

    #[test]
    fn phases_advance_every_two_rounds() {
        let mut board = Billboard::new(16, 16);
        let mut tracker = VoteTracker::new(16, 16, VotePolicy::single_vote());
        let mut c = ThreePhase::new(16);
        // phase 1: rounds 0, 1 — during which players 0..9 vote for object 5
        for r in 0..2u64 {
            tracker.ingest(&board);
            let view = BoardView::new(&board, &tracker, Round(r));
            let d = c.directive(&view);
            assert!(matches!(d, Directive::ProbeUniform(CandidateSet::All)));
            assert_eq!(c.phase_info().label, "three-phase.1");
            for p in 0..5u32 {
                board
                    .append(
                        Round(r),
                        PlayerId(p + 5 * u32::try_from(r).unwrap()),
                        ObjectId(5),
                        1.0,
                        ReportKind::Positive,
                    )
                    .unwrap();
            }
        }
        // phase 2 entry: C2 = {5}
        tracker.ingest(&board);
        for r in 2..4u64 {
            let view = BoardView::new(&board, &tracker, Round(r));
            let _ = c.directive(&view);
            assert_eq!(c.phase_info().label, "three-phase.2");
        }
        assert_eq!(c.c2_size, 1);
        // phase 3 entry: object 5 has 10 votes ≥ θ₃ = √16/2 = 2
        let view = BoardView::new(&board, &tracker, Round(4));
        let _ = c.directive(&view);
        assert_eq!(c.phase_info().label, "three-phase.3");
        assert_eq!(c.c3_size, 1);
        assert_eq!(c.phase_info().candidates.to_vec(16), vec![ObjectId(5)]);
        // phase 3 persists
        for r in 5..9u64 {
            let view = BoardView::new(&board, &tracker, Round(r));
            let _ = c.directive(&view);
            assert_eq!(c.phase_info().label, "three-phase.3");
        }
        let notes = c.notes();
        assert!(notes
            .iter()
            .any(|(k, v)| k == "three_phase.c3_size" && *v == 1.0));
    }

    #[test]
    fn theta3_is_half_sqrt_n() {
        assert_eq!(ThreePhase::new(16).theta3(), 2.0);
        assert_eq!(ThreePhase::new(100).theta3(), 5.0);
    }

    #[test]
    fn observer_records_c2_c3() {
        let obs = ThreePhase::observer();
        let mut board = Billboard::new(4, 4);
        let mut tracker = VoteTracker::new(4, 4, VotePolicy::single_vote());
        let mut c = ThreePhase::new(4).with_observer(std::sync::Arc::clone(&obs));
        board
            .append(
                Round(0),
                PlayerId(0),
                ObjectId(1),
                1.0,
                ReportKind::Positive,
            )
            .unwrap();
        board
            .append(
                Round(0),
                PlayerId(1),
                ObjectId(1),
                1.0,
                ReportKind::Positive,
            )
            .unwrap();
        tracker.ingest(&board);
        for r in 0..5u64 {
            let view = BoardView::new(&board, &tracker, Round(r));
            let _ = c.directive(&view);
        }
        let snaps = obs.lock().unwrap();
        assert!(snaps
            .iter()
            .any(|s| s.label == "C2" && s.candidates == vec![ObjectId(1)]));
        // θ₃ = 1 for n=4; object 1 has 2 votes
        assert!(snaps
            .iter()
            .any(|s| s.label == "C3" && s.candidates == vec![ObjectId(1)]));
    }
}
