//! Per-run measurements.

use crate::faults::FaultCounters;
use crate::trace::TraceEvent;
use distill_billboard::Round;

/// What happened to one honest player.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlayerOutcome {
    /// Total probes performed (= rounds active, in the synchronous model).
    pub probes: u64,
    /// Total cost paid across all probes.
    pub cost_paid: f64,
    /// The round the player became satisfied, if it did.
    pub satisfied_round: Option<Round>,
    /// Probes that followed another player's vote.
    pub advice_probes: u64,
    /// Probes drawn uniformly from a candidate set.
    pub explore_probes: u64,
    /// The round the player crash-stopped, if fault injection crashed it
    /// (`None` in fault-free runs and for survivors).
    pub crash_round: Option<Round>,
}

impl PlayerOutcome {
    pub(crate) fn new() -> Self {
        PlayerOutcome {
            probes: 0,
            cost_paid: 0.0,
            satisfied_round: None,
            advice_probes: 0,
            explore_probes: 0,
            crash_round: None,
        }
    }

    /// `true` iff the player found a good object.
    pub fn is_satisfied(&self) -> bool {
        self.satisfied_round.is_some()
    }
}

/// End-of-horizon evaluation for runs without local testing (§5.3): did each
/// honest player's best-probed object land in the good set?
#[derive(Debug, Clone, PartialEq)]
pub struct FinalEval {
    /// Per honest player: `true` iff its best-value probed object is good.
    pub found_good: Vec<bool>,
    /// Fraction of honest players whose best object is good.
    pub success_fraction: f64,
}

/// The complete outcome of one simulated execution.
///
/// `PartialEq` compares every field, so two results are equal only if the
/// executions were observably identical — the comparison the determinism
/// oracles (fixed seed ⇒ bit-identical result) rely on.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Rounds executed.
    pub rounds: u64,
    /// `true` iff every honest player was satisfied when the run stopped
    /// (always `false` paired with horizon runs that use [`FinalEval`]).
    pub all_satisfied: bool,
    /// Per honest player outcomes, indexed by player id.
    pub players: Vec<PlayerOutcome>,
    /// Cumulative number of satisfied honest players after each round.
    pub satisfied_per_round: Vec<u32>,
    /// Total posts on the billboard at the end.
    pub posts_total: usize,
    /// Dishonest posts rejected for forged author tags.
    pub forged_rejected: u64,
    /// Cohort-exported metrics (attempt counts, iteration counts, …).
    pub notes: Vec<(String, f64)>,
    /// Present for no-local-testing horizon runs.
    pub final_eval: Option<FinalEval>,
    /// Fault-injection event counts (all zero in fault-free runs).
    pub faults: FaultCounters,
    /// Event trace, when the config requested one.
    pub trace: Option<Vec<TraceEvent>>,
}

impl SimResult {
    /// Mean number of probes per honest player (the paper's *individual
    /// cost* under unit costs).
    pub fn mean_probes(&self) -> f64 {
        if self.players.is_empty() {
            return 0.0;
        }
        self.players.iter().map(|p| p.probes as f64).sum::<f64>() / self.players.len() as f64
    }

    /// Mean cost paid per honest player (the individual cost under general
    /// costs, Theorem 12's measure).
    pub fn mean_cost(&self) -> f64 {
        if self.players.is_empty() {
            return 0.0;
        }
        self.players.iter().map(|p| p.cost_paid).sum::<f64>() / self.players.len() as f64
    }

    /// Mean satisfaction round over satisfied players (unsatisfied players
    /// contribute the final round count — a conservative floor).
    pub fn mean_satisfaction_round(&self) -> f64 {
        if self.players.is_empty() {
            return 0.0;
        }
        self.players
            .iter()
            .map(|p| {
                p.satisfied_round
                    .map_or(self.rounds as f64, |r| r.as_u64() as f64 + 1.0)
            })
            .sum::<f64>()
            / self.players.len() as f64
    }

    /// The round by which all players were satisfied (the *last* player's
    /// termination time, Theorem 11's measure), or `None` if some never were.
    pub fn last_satisfaction_round(&self) -> Option<Round> {
        let mut worst = Round(0);
        for p in &self.players {
            match p.satisfied_round {
                Some(r) => worst = worst.max(r),
                None => return None,
            }
        }
        Some(worst)
    }

    /// Number of satisfied honest players.
    pub fn satisfied_count(&self) -> usize {
        self.players.iter().filter(|p| p.is_satisfied()).count()
    }

    /// Total probes by honest players (the *total cost* measure of \[1\]).
    pub fn total_probes(&self) -> u64 {
        self.players.iter().map(|p| p.probes).sum()
    }

    /// Mean probes over the players that never crashed — the survivors whose
    /// individual cost the degradation experiments compare against the
    /// Theorem-4 bound at the effective honest fraction α′. Equals
    /// [`mean_probes`](SimResult::mean_probes) in fault-free runs; `0.0`
    /// when nobody survived.
    pub fn mean_probes_survivors(&self) -> f64 {
        let mut probes = 0u64;
        let mut survivors = 0u64;
        for p in self.players.iter().filter(|p| p.crash_round.is_none()) {
            probes += p.probes;
            survivors += 1;
        }
        if survivors == 0 {
            return 0.0;
        }
        probes as f64 / survivors as f64
    }

    /// Looks up a cohort note by key.
    pub fn note(&self, key: &str) -> Option<f64> {
        self.notes.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }
}

/// A streaming consumer of completed trial results.
///
/// Sweep runners call [`fold`](ResultFold::fold) exactly once per completed
/// trial, in ascending trial order, as results become final — letting
/// aggregators (running moments, quantile sketches) consume a sweep in O(1)
/// memory instead of retaining every [`SimResult`]. Quarantined trials are
/// never folded.
///
/// Implemented for any `FnMut(u64, &SimResult)` closure.
pub trait ResultFold {
    /// Consumes the result of trial `trial`.
    fn fold(&mut self, trial: u64, result: &SimResult);
}

impl<F: FnMut(u64, &SimResult)> ResultFold for F {
    fn fold(&mut self, trial: u64, result: &SimResult) {
        self(trial, result);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result_with(players: Vec<PlayerOutcome>, rounds: u64) -> SimResult {
        SimResult {
            rounds,
            all_satisfied: players.iter().all(|p| p.is_satisfied()),
            players,
            satisfied_per_round: vec![],
            posts_total: 0,
            forged_rejected: 0,
            notes: vec![("x".into(), 2.5)],
            final_eval: None,
            faults: FaultCounters::default(),
            trace: None,
        }
    }

    fn outcome(probes: u64, cost: f64, sat: Option<u64>) -> PlayerOutcome {
        PlayerOutcome {
            probes,
            cost_paid: cost,
            satisfied_round: sat.map(Round),
            advice_probes: 0,
            explore_probes: probes,
            crash_round: None,
        }
    }

    #[test]
    fn aggregates() {
        let r = result_with(vec![outcome(2, 2.0, Some(1)), outcome(4, 8.0, Some(3))], 5);
        assert!((r.mean_probes() - 3.0).abs() < 1e-12);
        assert!((r.mean_cost() - 5.0).abs() < 1e-12);
        assert_eq!(r.last_satisfaction_round(), Some(Round(3)));
        assert_eq!(r.satisfied_count(), 2);
        assert_eq!(r.total_probes(), 6);
        assert!(r.all_satisfied);
        assert_eq!(r.note("x"), Some(2.5));
        assert_eq!(r.note("y"), None);
        // (1+1) + (3+1) over 2 players
        assert!((r.mean_satisfaction_round() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn unsatisfied_player_blocks_last_round() {
        let r = result_with(vec![outcome(2, 2.0, Some(1)), outcome(9, 9.0, None)], 9);
        assert_eq!(r.last_satisfaction_round(), None);
        assert_eq!(r.satisfied_count(), 1);
        assert!(!r.all_satisfied);
        // unsatisfied contributes the full horizon
        assert!((r.mean_satisfaction_round() - (2.0 + 9.0) / 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_result_is_zeroes() {
        // Regression for the NaN bug: `mean_*` divided by `players.len()`
        // with no empty guard, so a result with zero honest players yielded
        // NaN. An all-zeroes report is the correct degenerate answer.
        let r = result_with(vec![], 0);
        assert_eq!(r.mean_probes(), 0.0);
        assert_eq!(r.mean_cost(), 0.0);
        assert_eq!(r.mean_satisfaction_round(), 0.0);
        assert_eq!(r.mean_probes_survivors(), 0.0);
        assert_eq!(r.last_satisfaction_round(), Some(Round(0)));
        assert!(r.mean_probes().is_finite());
        assert!(r.mean_cost().is_finite());
        assert!(r.mean_satisfaction_round().is_finite());
    }

    #[test]
    fn zero_honest_players_cannot_reach_the_engine() {
        // The engine can never produce an empty `players` vector because the
        // config layer rejects n_honest = 0; the guard above is defense in
        // depth for directly constructed results.
        use crate::config::SimConfig;
        assert!(SimConfig::new(4, 0, 7).validate().is_err());
    }

    #[test]
    fn survivor_mean_excludes_crashed_players() {
        let mut crashed = outcome(2, 2.0, None);
        crashed.crash_round = Some(Round(1));
        let r = result_with(vec![outcome(6, 6.0, Some(5)), crashed], 8);
        assert!((r.mean_probes_survivors() - 6.0).abs() < 1e-12);
        // the plain mean still counts everyone
        assert!((r.mean_probes() - 4.0).abs() < 1e-12);
        // all players crashed ⇒ no survivors ⇒ 0.0, not NaN
        let mut a = outcome(1, 1.0, None);
        a.crash_round = Some(Round(0));
        let r = result_with(vec![a], 3);
        assert_eq!(r.mean_probes_survivors(), 0.0);
    }
}
