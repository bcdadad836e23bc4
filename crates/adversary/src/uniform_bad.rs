//! Each dishonest player votes once for a random bad object.

use distill_sim::{Adversary, AdversaryCtx, DishonestPost};
use rand::Rng;

/// The simplest vote-wasting attack: in its first `spread_rounds` rounds the
/// adversary has every dishonest player cast its single vote for a uniformly
/// random **bad** object.
///
/// This is an *oblivious* strategy (it ignores the billboard), useful as the
/// canonical "some noise on the board" adversary: it maximizes the number of
/// distinct bad objects carrying votes, which pollutes the voted set `S` and
/// the advice channel without any coordination.
#[derive(Debug, Clone, Copy)]
pub struct UniformBad {
    spread_rounds: u64,
    rounds_seen: u64,
    done: bool,
}

impl UniformBad {
    /// All votes cast in round 0.
    pub fn new() -> Self {
        Self::spread_over(1)
    }

    /// Votes staggered evenly over the first `rounds` rounds (≥ 1).
    ///
    /// # Panics
    /// Panics if `rounds == 0`.
    pub fn spread_over(rounds: u64) -> Self {
        assert!(rounds >= 1, "spread must cover at least one round");
        UniformBad {
            spread_rounds: rounds,
            rounds_seen: 0,
            done: false,
        }
    }
}

impl Default for UniformBad {
    fn default() -> Self {
        UniformBad::new()
    }
}

impl Adversary for UniformBad {
    fn on_round(&mut self, ctx: &mut AdversaryCtx<'_, '_>) -> Vec<DishonestPost> {
        if self.done {
            return Vec::new();
        }
        let slice = self.rounds_seen;
        self.rounds_seen += 1;
        if self.rounds_seen >= self.spread_rounds {
            self.done = true;
        }
        let n_bad = (ctx.world.m() - ctx.world.good_count()) as usize;
        if n_bad == 0 {
            self.done = true;
            return Vec::new();
        }
        // Draw each voter's rank among the bad objects, then look all the
        // ranks up in one sweep instead of listing every bad object.
        let voters: Vec<_> = ctx
            .dishonest
            .iter()
            .enumerate()
            .filter(|(i, _)| (*i as u64) % self.spread_rounds == slice)
            .map(|(_, &p)| p)
            .collect();
        let ranks: Vec<usize> = voters.iter().map(|_| ctx.rng.gen_range(0..n_bad)).collect();
        voters
            .into_iter()
            .zip(ctx.world.bad_objects_at(&ranks))
            .map(|(p, target)| DishonestPost::vote(p, target))
            .collect()
    }

    fn name(&self) -> &'static str {
        "uniform-bad"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distill_billboard::BoardView;
    use distill_sim::CandidateSet;
    use distill_sim::{Cohort, Directive, Engine, PhaseInfo, SimConfig, World};

    #[derive(Debug)]
    struct Trivial;
    impl Cohort for Trivial {
        fn directive(&mut self, _v: &BoardView<'_>) -> Directive {
            Directive::ProbeUniform(CandidateSet::All)
        }
        fn phase_info(&self) -> PhaseInfo {
            PhaseInfo::plain("trivial")
        }
        fn name(&self) -> &'static str {
            "trivial"
        }
    }

    #[test]
    fn casts_one_vote_per_dishonest_player() {
        let world = World::binary(32, 4, 1).unwrap();
        let config = SimConfig::new(16, 8, 2);
        let result = Engine::new(
            config,
            &world,
            Box::new(Trivial),
            Box::new(UniformBad::new()),
        )
        .unwrap()
        .run()
        .unwrap();
        assert!(result.all_satisfied);
        assert_eq!(result.forged_rejected, 0);
    }

    #[test]
    fn spread_staggers_votes() {
        let world = World::binary(32, 4, 1).unwrap();
        let config = SimConfig::new(16, 8, 3);
        let result = Engine::new(
            config,
            &world,
            Box::new(Trivial),
            Box::new(UniformBad::spread_over(4)),
        )
        .unwrap()
        .run()
        .unwrap();
        assert!(result.all_satisfied);
    }

    #[test]
    #[should_panic(expected = "at least one round")]
    fn zero_spread_rejected() {
        let _ = UniformBad::spread_over(0);
    }
}
