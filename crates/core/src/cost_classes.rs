//! §5.2 / Theorem 12: searching under general (non-unit) costs.

use crate::distill::Distill;
use crate::error::CoreError;
use crate::params::DistillParams;
use distill_billboard::{BoardView, ObjectId};
use distill_sim::{Cohort, Directive, PhaseInfo, World};

/// The Theorem 12 cost-class search.
///
/// Objects are aggregated into *cost classes* — class `i` holds the objects
/// whose (publicly known) cost lies in `[2^i, 2^{i+1})`. The search runs a
/// DISTILL^HP instance per class, cheapest class first, each restricted to
/// its class members and parameterized with the minimal assumption
/// `β = 1/m_i` (one good object in the class), for a prescribed round budget
/// derived from Theorem 11. If the cheapest good object has cost `q₀`, the
/// per-player payment telescopes to `O(q₀ · m·log n / (αn))`.
///
/// Because the prescribed budget is a with-high-probability bound, a full
/// pass can (rarely) miss; the search then wraps around with the budget
/// doubled, so it is complete with probability 1.
#[derive(Debug)]
pub struct CostClassSearch {
    n: u32,
    alpha: f64,
    k3: f64,
    classes: Vec<Vec<ObjectId>>,
    /// Per-class DISTILL^HP parameter sets, validated once at construction
    /// (`None` for empty classes, which the schedule skips).
    class_params: Vec<Option<DistillParams>>,
    current: usize,
    inner: Option<Distill>,
    rounds_left: u64,
    cycles: u32,
    classes_visited: u64,
}

impl CostClassSearch {
    /// Creates a search over explicit class membership lists (`classes[i]` =
    /// the objects of cost class `i`; empty classes allowed). `k3` scales the
    /// per-class round budget; `hp_c` is the Theorem 11 constant.
    ///
    /// # Errors
    /// Returns [`CoreError::InvalidParams`] if every class is empty or the
    /// numeric parameters are out of range.
    pub fn new(
        n: u32,
        m: u32,
        alpha: f64,
        classes: Vec<Vec<ObjectId>>,
        k3: f64,
        hp_c: f64,
    ) -> Result<Self, CoreError> {
        DistillParams::high_probability(n, m, alpha, 1.0, hp_c)?;
        if k3.is_nan() || k3 <= 0.0 {
            return Err(CoreError::InvalidParams(format!(
                "k3 {k3} must be positive"
            )));
        }
        if classes.iter().all(|c| c.is_empty()) {
            return Err(CoreError::InvalidParams(
                "all cost classes are empty".into(),
            ));
        }
        let class_params = classes
            .iter()
            .map(|members| {
                if members.is_empty() {
                    Ok(None)
                } else {
                    let beta_i = 1.0 / members.len() as f64;
                    DistillParams::high_probability(n, m, alpha, beta_i, hp_c).map(Some)
                }
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(CostClassSearch {
            n,
            alpha,
            k3,
            classes,
            class_params,
            current: usize::MAX, // advanced to 0 on first directive
            inner: None,
            rounds_left: 0,
            cycles: 0,
            classes_visited: 0,
        })
    }

    /// Builds the class lists from a world's public costs (costs are known
    /// to all players in the model, so this is not an oracle).
    ///
    /// # Errors
    /// Returns [`CoreError::InvalidParams`] as in [`CostClassSearch::new`].
    pub fn from_world(
        world: &World,
        n: u32,
        alpha: f64,
        k3: f64,
        hp_c: f64,
    ) -> Result<Self, CoreError> {
        let max_class = world.max_cost_class();
        let classes: Vec<Vec<ObjectId>> = (0..=max_class)
            .map(|i| world.cost_class_members(i))
            .collect();
        CostClassSearch::new(n, world.m(), alpha, classes, k3, hp_c)
    }

    /// The prescribed budget for class `i` in the current cycle:
    /// `⌈2^cycle · k₃ · ln n · (m_i/n + 1)/α⌉` rounds (the Theorem 11 bound
    /// with `β = 1/m_i`).
    pub fn class_budget(&self, class: usize) -> u64 {
        let m_i = self.classes[class].len();
        if m_i == 0 {
            return 0;
        }
        let ln_n = f64::from(self.n.max(2)).ln();
        let base = self.k3 * ln_n * (m_i as f64 / f64::from(self.n) + 1.0) / self.alpha;
        #[expect(
            clippy::cast_possible_truncation,
            clippy::cast_possible_wrap,
            clippy::cast_sign_loss,
            reason = "cycles is a doubling counter; past ~1024 the f64 budget is infinite anyway, so the i32 exponent cannot overflow meaningfully"
        )]
        let budget = (2f64.powi(self.cycles as i32) * base).ceil() as u64;
        budget.max(2)
    }

    /// Number of class instances started so far.
    pub fn classes_visited(&self) -> u64 {
        self.classes_visited
    }

    /// The class currently being searched (meaningful after the first round).
    pub fn current_class(&self) -> usize {
        self.current
    }

    fn advance_class(&mut self) {
        // Parameter sets were validated and stored at construction, so the
        // scan for the next non-empty class never has to re-derive (or
        // re-validate) anything; `new` guarantees at least one `Some`.
        let params = loop {
            self.current = if self.current == usize::MAX {
                0
            } else if self.current + 1 >= self.classes.len() {
                self.cycles += 1;
                0
            } else {
                self.current + 1
            };
            if let Some(params) = self.class_params[self.current] {
                break params;
            }
        };
        self.classes_visited += 1;
        let members = self.classes[self.current].clone();
        self.inner = Some(Distill::new(params).with_universe(members));
        self.rounds_left = self.class_budget(self.current);
    }
}

impl Cohort for CostClassSearch {
    fn directive(&mut self, view: &BoardView<'_>) -> Directive {
        if self.inner.is_none() || self.rounds_left == 0 {
            self.advance_class();
        }
        self.rounds_left -= 1;
        let Some(inner) = self.inner.as_mut() else {
            debug_assert!(false, "advance_class always sets an inner cohort");
            return Directive::Idle;
        };
        inner.directive(view)
    }

    fn phase_info(&self) -> PhaseInfo {
        match &self.inner {
            None => PhaseInfo::plain("cost-classes.init"),
            Some(inner) => inner.phase_info(),
        }
    }

    fn name(&self) -> &'static str {
        "cost-classes"
    }

    fn notes(&self) -> Vec<(String, f64)> {
        vec![
            ("cost_classes.visited".into(), self.classes_visited as f64),
            (
                "cost_classes.current".into(),
                if self.current == usize::MAX {
                    -1.0
                } else {
                    self.current as f64
                },
            ),
            ("cost_classes.cycles".into(), f64::from(self.cycles)),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distill_billboard::{Billboard, Round, VotePolicy, VoteTracker};

    fn classes() -> Vec<Vec<ObjectId>> {
        vec![
            (0..4).map(ObjectId).collect(),
            vec![],
            (4..8).map(ObjectId).collect(),
        ]
    }

    #[test]
    fn construction_validates() {
        assert!(CostClassSearch::new(8, 8, 0.5, classes(), 1.0, 1.0).is_ok());
        assert!(CostClassSearch::new(8, 8, 0.5, vec![vec![], vec![]], 1.0, 1.0).is_err());
        assert!(CostClassSearch::new(8, 8, 0.5, classes(), 0.0, 1.0).is_err());
        assert!(CostClassSearch::new(8, 8, 0.0, classes(), 1.0, 1.0).is_err());
    }

    #[test]
    fn from_world_builds_classes() {
        let world = World::cost_classes(&[4, 4], 1, 1, 3).unwrap();
        let s = CostClassSearch::from_world(&world, 8, 0.5, 1.0, 1.0).unwrap();
        assert_eq!(s.classes.len(), 2);
        assert_eq!(s.classes[0].len(), 4);
        assert_eq!(s.classes[1].len(), 4);
    }

    #[test]
    fn empty_classes_are_skipped_and_cycles_double_budgets() {
        let mut s = CostClassSearch::new(8, 8, 1.0, classes(), 1.0, 1.0).unwrap();
        let board = Billboard::new(8, 8);
        let mut tracker = VoteTracker::new(8, 8, VotePolicy::single_vote());
        tracker.ingest(&board);

        let mut round = 0u64;
        let run_rounds = |s: &mut CostClassSearch, k: u64, round: &mut u64| {
            for _ in 0..k {
                let view = BoardView::new(&board, &tracker, Round(*round));
                let _ = s.directive(&view);
                *round += 1;
            }
        };

        // First directive enters class 0.
        run_rounds(&mut s, 1, &mut round);
        assert_eq!(s.current_class(), 0);
        let b0 = s.class_budget(0);
        run_rounds(&mut s, b0 - 1, &mut round);
        // Next directive skips empty class 1 and enters class 2.
        run_rounds(&mut s, 1, &mut round);
        assert_eq!(s.current_class(), 2);
        assert_eq!(s.classes_visited(), 2);
        let b2 = s.class_budget(2);
        run_rounds(&mut s, b2 - 1, &mut round);
        // Wrap-around: back to class 0 with doubled budget.
        run_rounds(&mut s, 1, &mut round);
        assert_eq!(s.current_class(), 0);
        assert_eq!(
            s.notes()
                .iter()
                .find(|(k, _)| k == "cost_classes.cycles")
                .unwrap()
                .1,
            1.0
        );
        assert!(s.class_budget(0) >= 2 * b0 - 1);
        assert_eq!(s.name(), "cost-classes");
        assert!(s.phase_info().label.starts_with("distill"));
    }

    #[test]
    fn class_budget_scales_with_class_size() {
        let s = CostClassSearch::new(
            8,
            1032,
            0.5,
            vec![
                (0..8).map(ObjectId).collect(),
                (8..1032).map(ObjectId).collect(),
            ],
            1.0,
            1.0,
        )
        .unwrap();
        assert!(s.class_budget(1) > s.class_budget(0));
        assert_eq!(
            CostClassSearch::new(8, 8, 0.5, classes(), 1.0, 1.0)
                .unwrap()
                .class_budget(1),
            0,
            "empty class has zero budget"
        );
    }
}
