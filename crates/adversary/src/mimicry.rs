//! The Theorem 2 symmetric-mimicry construction.

use distill_billboard::{PlayerId, ReportKind};
use distill_sim::{Adversary, AdversaryCtx, DishonestPost, SimError, World};

/// The instance family from the Theorem 2 lower-bound proof.
///
/// Players are partitioned into `1/α` groups of size `αn`, objects into
/// `1/β` groups of size `βm`. In instance `I_k` the good objects are exactly
/// object group `O_k` and the honest players are `P_k ∪ {0}`; every player
/// group `P_j` *behaves as if the instance were `I_j`* — reporting objects in
/// `O_j` as good — so the first `B = min(1/α, 1/β)` instances are mutually
/// indistinguishable to player 0 until it has probed an object from the
/// right group. Any algorithm therefore pays `Ω(B)` probes in expectation on
/// a uniformly random instance.
///
/// `MimicryInstance::build` materializes `I_0` relabeled so the honest group
/// occupies player ids `0..αn` and object group `O_0` occupies ids `0..βm`
/// (the engine requires honest players to be a prefix; identities carry no
/// information in the model, so this is without loss of generality).
#[derive(Debug, Clone)]
pub struct MimicryInstance {
    /// The world (good set = object group 0).
    pub world: World,
    /// Total players `n`.
    pub n: u32,
    /// Honest players (`n / groups_players`).
    pub n_honest: u32,
    /// Number of player groups `1/α`.
    pub groups_players: u32,
    /// Number of object groups `1/β`.
    pub groups_objects: u32,
}

impl MimicryInstance {
    /// Builds the instance for `n` players in `groups_players` groups and
    /// `m` objects in `groups_objects` groups.
    ///
    /// # Errors
    /// [`SimError::InvalidConfig`] unless `groups_players` divides `n` with a
    /// non-empty quotient, `groups_objects` divides `m` with a non-empty
    /// quotient, and both group counts are ≥ 1; `World::from_parts` failures
    /// propagate as-is.
    pub fn build(
        n: u32,
        m: u32,
        groups_players: u32,
        groups_objects: u32,
    ) -> Result<Self, SimError> {
        if groups_players < 1 || groups_objects < 1 {
            return Err(SimError::InvalidConfig(
                "mimicry needs at least one player group and one object group".into(),
            ));
        }
        if n < groups_players || m < groups_objects {
            return Err(SimError::InvalidConfig(format!(
                "every mimicry group must be non-empty: n={n} < groups_players={groups_players} \
                 or m={m} < groups_objects={groups_objects}"
            )));
        }
        if !n.is_multiple_of(groups_players) {
            return Err(SimError::InvalidConfig(format!(
                "groups_players {groups_players} must divide n {n}"
            )));
        }
        if !m.is_multiple_of(groups_objects) {
            return Err(SimError::InvalidConfig(format!(
                "groups_objects {groups_objects} must divide m {m}"
            )));
        }
        let group_m = m / groups_objects;
        let values: Vec<f64> = (0..m)
            .map(|o| if o < group_m { 1.0 } else { 0.0 })
            .collect();
        let world = World::from_parts(
            values,
            vec![1.0; m as usize],
            distill_sim::ObjectModel::LocalTesting { threshold: 0.5 },
        )?;
        Ok(MimicryInstance {
            world,
            n,
            n_honest: n / groups_players,
            groups_players,
            groups_objects,
        })
    }

    /// `B = min(1/α, 1/β)`: the number of mutually indistinguishable
    /// instances, hence the Ω(B) bound.
    pub fn b(&self) -> u32 {
        self.groups_players.min(self.groups_objects)
    }

    /// The object-group index a dishonest player mimics, or `None` for
    /// players in groups beyond `B` (which "simply don't ever report").
    pub fn object_group_of(&self, player: PlayerId) -> Option<u32> {
        if player.0 < self.n_honest {
            return None; // honest players are not mimics
        }
        let group_size = self.n_honest; // all player groups have size αn
        let player_group = 1 + (player.0 - self.n_honest) / group_size;
        if player_group < self.b().min(self.groups_objects) {
            Some(player_group)
        } else {
            None
        }
    }

    /// The object-id range of object group `g`.
    pub fn object_group_range(&self, g: u32) -> std::ops::Range<u32> {
        let size = self.world.m() / self.groups_objects;
        (g * size)..((g + 1) * size)
    }

    /// The adversary strategy for this instance.
    pub fn adversary(&self) -> Mimicry {
        Mimicry {
            instance: self.clone(),
            voted: Vec::new(),
        }
    }
}

/// The strategy of the Theorem 2 proof: each dishonest player follows the
/// honest protocol, except that its probe values are dictated by its group —
/// objects in `O_j` look good to group `P_j`.
///
/// Mechanically, each not-yet-"satisfied" mimic samples the public phase's
/// candidate set like an honest explorer; if it draws an object of its own
/// group it posts a positive report (its vote) and goes quiet — exactly when
/// an honest player in instance `I_j` would. Other draws produce negative
/// reports, keeping the billboard footprint symmetric. (The mimic does not
/// reproduce honest advice-probes; the instance's symmetry, which drives the
/// lower bound, comes from the voting pattern.)
#[derive(Debug, Clone)]
pub struct Mimicry {
    instance: MimicryInstance,
    voted: Vec<PlayerId>,
}

impl Adversary for Mimicry {
    fn on_round(&mut self, ctx: &mut AdversaryCtx<'_, '_>) -> Vec<DishonestPost> {
        let m = ctx.m();
        let mut posts = Vec::new();
        for &p in ctx.dishonest {
            let Some(group) = self.instance.object_group_of(p) else {
                continue; // silent group
            };
            if self.voted.contains(&p) {
                continue; // already "satisfied" in its imagined instance
            }
            let probe = ctx.phase.candidates.sample(m, ctx.rng);
            let range = self.instance.object_group_range(group);
            if range.contains(&probe.0) {
                posts.push(DishonestPost {
                    author: p,
                    object: probe,
                    value: 1.0,
                    kind: ReportKind::Positive,
                });
                self.voted.push(p);
            } else {
                // mimic an honest negative report; claimed value 0
                posts.push(DishonestPost {
                    author: p,
                    object: probe,
                    value: 0.0,
                    kind: ReportKind::Negative,
                });
            }
        }
        posts
    }

    fn name(&self) -> &'static str {
        "mimicry"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distill_core::{Distill, DistillParams};
    use distill_sim::{Engine, SimConfig, StopRule};

    #[test]
    fn instance_layout() {
        let inst = MimicryInstance::build(16, 16, 4, 4).unwrap();
        assert_eq!(inst.n_honest, 4);
        assert_eq!(inst.b(), 4);
        assert_eq!(inst.world.good_count(), 4); // group 0 of 4 objects
        assert_eq!(inst.object_group_range(1), 4..8);
        // honest players have no mimic group
        assert_eq!(inst.object_group_of(PlayerId(0)), None);
        // dishonest players 4..8 form P_1
        assert_eq!(inst.object_group_of(PlayerId(4)), Some(1));
        assert_eq!(inst.object_group_of(PlayerId(7)), Some(1));
        assert_eq!(inst.object_group_of(PlayerId(8)), Some(2));
        // last group index = 3 < B=4 ⇒ still reports
        assert_eq!(inst.object_group_of(PlayerId(12)), Some(3));
    }

    #[test]
    fn beta_smaller_than_alpha_silences_extra_groups() {
        // 8 player groups, 2 object groups ⇒ B = 2; groups 2..8 silent.
        let inst = MimicryInstance::build(32, 16, 8, 2).unwrap();
        assert_eq!(inst.b(), 2);
        assert_eq!(inst.object_group_of(PlayerId(4)), Some(1)); // P_1 mimics O_1
        assert_eq!(inst.object_group_of(PlayerId(8)), None); // P_2 silent
    }

    #[test]
    fn bad_parameters_are_typed_errors() {
        for (n, m, gp, go) in [
            (10, 16, 3, 4), // gp does not divide n
            (16, 10, 4, 3), // go does not divide m
            (16, 16, 0, 4), // zero player groups
            (16, 16, 4, 0), // zero object groups
            (2, 16, 4, 4),  // empty player groups
            (16, 2, 4, 4),  // empty object groups
        ] {
            let err = MimicryInstance::build(n, m, gp, go).unwrap_err();
            assert!(
                matches!(err, SimError::InvalidConfig(_)),
                "({n},{m},{gp},{go}) must be InvalidConfig, got {err}"
            );
        }
    }

    #[test]
    fn distill_terminates_on_mimicry_instance() {
        let inst = MimicryInstance::build(32, 32, 4, 4).unwrap();
        let alpha = 1.0 / 4.0;
        let params = DistillParams::new(32, 32, alpha, inst.world.beta()).unwrap();
        let config =
            SimConfig::new(32, inst.n_honest, 17).with_stop(StopRule::all_satisfied(500_000));
        let result = Engine::new(
            config,
            &inst.world,
            Box::new(Distill::new(params)),
            Box::new(inst.adversary()),
        )
        .unwrap()
        .run()
        .unwrap();
        assert!(result.all_satisfied);
    }
}
