//! The object universe: values, costs, and the good set.

use crate::error::SimError;
use crate::object_model::ObjectModel;
use crate::rng::{stream_rng, Stream};
use distill_billboard::{BitSet, ObjectId};
use rand::seq::SliceRandom;
use rand::Rng;
use std::fmt;

/// The result of probing an object: the player pays `cost` and learns `value`
/// (§2: "In probing an object i, the player pays the (known) cost of i and
/// learns the (hitherto unknown) value of that object").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Probe {
    /// The probed object.
    pub object: ObjectId,
    /// The true value revealed by the probe.
    pub value: f64,
    /// The cost charged for the probe.
    pub cost: f64,
}

/// The ground-truth object universe.
///
/// A `World` owns the unknown values, the known costs, and the classification
/// of each object as good or bad, under one of the two object models of §2.2.
/// It is immutable during a simulation, and shared by reference between the
/// engine and (per the Byzantine model) the adversary, which is assumed to
/// know everything.
///
/// The round loop reads goodness and cost for every probe, at random object
/// ids, so both are kept small: goodness is one bit per object, and a world
/// whose objects all cost the same (every unit-cost world) stores that one
/// cost instead of a plane of `m` copies.
#[derive(Debug, Clone)]
pub struct World {
    values: Vec<f64>,
    costs: Costs,
    good: BitSet,
    good_count: u32,
    model: ObjectModel,
}

/// A world's object costs.
#[derive(Debug, Clone)]
enum Costs {
    /// Every object costs this much.
    Uniform(f64),
    /// Object `i` costs `costs[i]`, and not every object costs the same.
    PerObject(Vec<f64>),
}

impl Costs {
    /// Keeps the plane only if its costs differ (bit for bit, so a stored
    /// `-0.0` is never answered as `0.0`).
    fn new(costs: Vec<f64>) -> Costs {
        match costs.first() {
            Some(&c) if costs.iter().all(|x| x.to_bits() == c.to_bits()) => Costs::Uniform(c),
            _ => Costs::PerObject(costs),
        }
    }

    /// The stored costs: the plane, or the one shared cost.
    fn stored(&self) -> &[f64] {
        match self {
            Costs::Uniform(c) => std::slice::from_ref(c),
            Costs::PerObject(costs) => costs,
        }
    }
}

/// Refuses `costs` costs for `values` objects; an empty world is left to
/// [`World::with_costs`], which refuses it by name.
fn check_lengths(values: usize, costs: usize) -> Result<(), SimError> {
    if values == 0 || values == costs {
        Ok(())
    } else {
        Err(SimError::InvalidWorld(format!(
            "{values} values but {costs} costs"
        )))
    }
}

impl World {
    /// Builds a world from explicit values and costs under `model`.
    ///
    /// Goodness is derived from the model: value ≥ threshold for
    /// [`ObjectModel::LocalTesting`], top `⌈βm⌉` values for
    /// [`ObjectModel::TopBeta`] (ties broken by lower object id).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidWorld`] if `values` and `costs` differ in
    /// length, are empty, contain negatives/NaN, or if no object qualifies as
    /// good.
    pub fn from_parts(
        values: Vec<f64>,
        costs: Vec<f64>,
        model: ObjectModel,
    ) -> Result<Self, SimError> {
        check_lengths(values.len(), costs.len())?;
        World::with_costs(values, Costs::new(costs), model)
    }

    /// [`World::from_parts`] once the costs have one entry per object, or
    /// are one shared cost.
    fn with_costs(values: Vec<f64>, costs: Costs, model: ObjectModel) -> Result<Self, SimError> {
        if values.is_empty() {
            return Err(SimError::InvalidWorld("world must contain objects".into()));
        }
        if values
            .iter()
            .chain(costs.stored())
            .any(|v| !v.is_finite() || *v < 0.0)
        {
            return Err(SimError::InvalidWorld(
                "values and costs must be finite and non-negative".into(),
            ));
        }
        let m = values.len();
        let mut good = BitSet::new(m);
        match model {
            ObjectModel::LocalTesting { threshold } => {
                for (i, &v) in values.iter().enumerate() {
                    if v >= threshold {
                        good.insert(i);
                    }
                }
            }
            ObjectModel::TopBeta { beta } => {
                if !(0.0 < beta && beta <= 1.0) {
                    return Err(SimError::InvalidWorld(format!("beta {beta} out of (0, 1]")));
                }
                #[expect(
                    clippy::cast_possible_truncation,
                    clippy::cast_sign_loss,
                    reason = "ceil(beta * m) with beta in (0, 1] lies in [0, m], and clamp keeps it there"
                )]
                let k = ((beta * m as f64).ceil() as usize).clamp(1, m);
                let mut idx: Vec<usize> = (0..m).collect();
                // highest value first; ties broken by lower id
                idx.sort_by(|&a, &b| values[b].total_cmp(&values[a]).then(a.cmp(&b)));
                for &i in idx.iter().take(k) {
                    good.insert(i);
                }
            }
        }
        #[expect(
            clippy::cast_possible_truncation,
            reason = "good has exactly m: u32 bits, so the count fits"
        )]
        let good_count = good.count_ones() as u32;
        if good_count == 0 {
            return Err(SimError::InvalidWorld(
                "world must contain at least one good object".into(),
            ));
        }
        Ok(World {
            values,
            costs,
            good,
            good_count,
            model,
        })
    }

    /// The canonical unit-cost binary world: `m` objects, `n_good` of them
    /// good (value 1.0) and the rest bad (value 0.0), placed uniformly at
    /// random by `seed`; all costs are 1; local testing with threshold 0.5.
    ///
    /// # Errors
    /// Returns [`SimError::InvalidWorld`] if `m == 0` or `n_good` is 0 or
    /// exceeds `m`.
    pub fn binary(m: u32, n_good: u32, seed: u64) -> Result<Self, SimError> {
        WorldBuilder::new(m).good_objects(n_good).seed(seed).build()
    }

    /// A world with i.i.d. `U[0,1)` values and unit costs, good = top `βm`
    /// objects, **without** local testing (the §5.3 setting).
    ///
    /// # Errors
    /// Returns [`SimError::InvalidWorld`] if `m == 0` or `beta ∉ (0,1]`.
    pub fn uniform_top_beta(m: u32, beta: f64, seed: u64) -> Result<Self, SimError> {
        let mut rng = stream_rng(seed, Stream::World);
        let values: Vec<f64> = (0..m).map(|_| rng.gen::<f64>()).collect();
        World::with_costs(values, Costs::Uniform(1.0), ObjectModel::TopBeta { beta })
    }

    /// A Theorem-12 world with geometric **cost classes**: class `i` holds
    /// `class_sizes[i]` objects of cost `2^i`. Exactly `goods` good objects
    /// are placed (uniformly at random) in class `good_class`; all other
    /// objects are bad. Local testing with threshold 0.5.
    ///
    /// # Errors
    /// Returns [`SimError::InvalidWorld`] on an empty layout, an out-of-range
    /// `good_class`, or `goods` exceeding the class size.
    pub fn cost_classes(
        class_sizes: &[u32],
        good_class: usize,
        goods: u32,
        seed: u64,
    ) -> Result<Self, SimError> {
        if class_sizes.is_empty() || class_sizes.iter().all(|&s| s == 0) {
            return Err(SimError::InvalidWorld("cost classes are empty".into()));
        }
        if good_class >= class_sizes.len() {
            return Err(SimError::InvalidWorld(format!(
                "good_class {good_class} out of range (have {} classes)",
                class_sizes.len()
            )));
        }
        if goods == 0 || goods > class_sizes[good_class] {
            return Err(SimError::InvalidWorld(format!(
                "goods {goods} must be in 1..={}",
                class_sizes[good_class]
            )));
        }
        let mut values = Vec::new();
        let mut costs = Vec::new();
        let mut class_start = Vec::new();
        for (i, &size) in class_sizes.iter().enumerate() {
            class_start.push(values.len());
            #[expect(
                clippy::cast_possible_truncation,
                reason = "cost classes number at most 64 (u64 cost doubles per class), so the index fits any width"
            )]
            let cost = (2u64.pow(i as u32)) as f64;
            for _ in 0..size {
                values.push(0.0);
                costs.push(cost);
            }
        }
        let mut rng = stream_rng(seed, Stream::World);
        let mut slots: Vec<usize> = (0..class_sizes[good_class] as usize)
            .map(|k| class_start[good_class] + k)
            .collect();
        slots.shuffle(&mut rng);
        for &slot in slots.iter().take(goods as usize) {
            values[slot] = 1.0;
        }
        World::from_parts(values, costs, ObjectModel::LocalTesting { threshold: 0.5 })
    }

    /// Number of objects `m`.
    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "worlds are constructed with m: u32 objects, so the length round-trips"
    )]
    pub fn m(&self) -> u32 {
        self.values.len() as u32
    }

    /// Number of good objects.
    #[inline]
    pub fn good_count(&self) -> u32 {
        self.good_count
    }

    /// The fraction `β` of good objects.
    #[inline]
    pub fn beta(&self) -> f64 {
        f64::from(self.good_count) / self.values.len() as f64
    }

    /// The object model in force.
    #[inline]
    pub fn model(&self) -> ObjectModel {
        self.model
    }

    /// The index of `object`.
    ///
    /// # Panics
    /// Panics if `object` is out of range.
    #[inline]
    fn index(&self, object: ObjectId) -> usize {
        let i = object.index();
        assert!(
            i < self.values.len(),
            "object {object} out of range for a world of {} objects",
            self.values.len()
        );
        i
    }

    /// The true value of `object`.
    ///
    /// # Panics
    /// Panics if `object` is out of range.
    #[inline]
    pub fn value(&self, object: ObjectId) -> f64 {
        self.values[object.index()]
    }

    /// The (publicly known) cost of `object`.
    ///
    /// # Panics
    /// Panics if `object` is out of range.
    #[inline]
    pub fn cost(&self, object: ObjectId) -> f64 {
        match &self.costs {
            Costs::Uniform(c) => {
                self.index(object); // out of range still panics
                *c
            }
            Costs::PerObject(costs) => costs[object.index()],
        }
    }

    /// The one cost every object shares, when the world stores one cost
    /// rather than a plane (every unit-cost world); `None` otherwise.
    #[inline]
    pub(crate) fn uniform_cost(&self) -> Option<f64> {
        match self.costs {
            Costs::Uniform(c) => Some(c),
            Costs::PerObject(_) => None,
        }
    }

    /// Ground truth: is `object` good?
    ///
    /// Under local testing a prober learns this; without local testing only
    /// the evaluation harness may consult it.
    ///
    /// # Panics
    /// Panics if `object` is out of range.
    #[inline]
    pub fn is_good(&self, object: ObjectId) -> bool {
        self.good.contains(self.index(object))
    }

    /// Every object id, ascending.
    fn objects(&self) -> impl Iterator<Item = ObjectId> {
        (0..self.m()).map(ObjectId)
    }

    /// The ids of all good objects, ascending.
    pub fn good_objects(&self) -> Vec<ObjectId> {
        self.objects().filter(|&o| self.is_good(o)).collect()
    }

    /// The ids of all bad objects, ascending.
    pub fn bad_objects(&self) -> Vec<ObjectId> {
        self.objects().filter(|&o| !self.is_good(o)).collect()
    }

    /// `bad_objects()[k]` for each rank `k` of `ranks`, in the order given,
    /// without building that list: one sweep over the goodness bitset
    /// answers the whole batch.
    ///
    /// # Panics
    /// Panics if a rank is not below the number of bad objects.
    pub fn bad_objects_at(&self, ranks: &[usize]) -> Vec<ObjectId> {
        let n_bad = self.values.len() - self.good_count as usize;
        assert!(
            ranks.iter().all(|&k| k < n_bad),
            "bad-object rank out of range for a world of {n_bad} bad objects"
        );
        self.good
            .absent_by_rank(ranks)
            .into_iter()
            .filter_map(|id| id.and_then(|i| ObjectId::try_from(i).ok()))
            .collect()
    }

    /// Probes `object`: returns its value and charges its cost.
    ///
    /// # Panics
    /// Panics if `object` is out of range.
    pub fn probe(&self, object: ObjectId) -> Probe {
        Probe {
            object,
            value: self.value(object),
            cost: self.cost(object),
        }
    }

    /// The ids of objects whose cost lies in `[2^i, 2^{i+1})` — Theorem 12's
    /// cost class `i`.
    pub fn cost_class_members(&self, class: u32) -> Vec<ObjectId> {
        let lo = (2u64.pow(class)) as f64;
        let hi = (2u64.pow(class + 1)) as f64;
        self.objects()
            .filter(|&o| (lo..hi).contains(&self.cost(o)))
            .collect()
    }

    /// The largest cost-class index with at least one member, if costs ≥ 1.
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "floor(log2) of a finite f64 ≥ 1 lies in [0, 1024), well inside u32"
    )]
    pub fn max_cost_class(&self) -> u32 {
        self.costs
            .stored()
            .iter()
            .map(|&c| if c >= 1.0 { c.log2().floor() as u32 } else { 0 })
            .max()
            .unwrap_or(0)
    }
}

impl fmt::Display for World {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "World(m={}, good={}, beta={:.4}, model={})",
            self.m(),
            self.good_count,
            self.beta(),
            self.model
        )
    }
}

/// How generated object values are distributed (used by
/// [`WorldBuilder::value_distribution`] for top-β worlds; local-testing
/// worlds are binary by construction).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ValueDistribution {
    /// i.i.d. `U[0, 1)` — the default.
    Uniform,
    /// Pareto with minimum 1 and the given shape (heavy tail — a few objects
    /// are much better than the rest, the realistic marketplace shape).
    ///
    /// Smaller shapes mean heavier tails; shape must be positive.
    Pareto {
        /// Tail index, > 0.
        shape: f64,
    },
    /// Exponential with the given rate (> 0).
    Exponential {
        /// Rate parameter λ.
        rate: f64,
    },
}

impl ValueDistribution {
    fn sample(self, rng: &mut impl Rng) -> f64 {
        let u: f64 = rng.gen();
        match self {
            ValueDistribution::Uniform => u,
            ValueDistribution::Pareto { shape } => (1.0 - u).powf(-1.0 / shape),
            ValueDistribution::Exponential { rate } => -(1.0 - u).ln() / rate,
        }
    }

    fn validate(self) -> Result<(), SimError> {
        match self {
            ValueDistribution::Uniform => Ok(()),
            ValueDistribution::Pareto { shape } if shape > 0.0 && shape.is_finite() => Ok(()),
            ValueDistribution::Exponential { rate } if rate > 0.0 && rate.is_finite() => Ok(()),
            other => Err(SimError::InvalidWorld(format!(
                "invalid value distribution parameters: {other:?}"
            ))),
        }
    }
}

/// Builder for [`World`] (C-BUILDER), covering layouts the shorthand
/// constructors do not.
///
/// ```
/// use distill_sim::{ObjectModel, WorldBuilder};
/// # fn main() -> Result<(), distill_sim::SimError> {
/// let world = WorldBuilder::new(100)
///     .seed(7)
///     .good_objects(5)
///     .model(ObjectModel::LocalTesting { threshold: 0.5 })
///     .build()?;
/// assert_eq!(world.m(), 100);
/// assert_eq!(world.good_count(), 5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct WorldBuilder {
    m: u32,
    n_good: u32,
    seed: u64,
    model: ObjectModel,
    costs: Option<Vec<f64>>,
    values: Option<Vec<f64>>,
    dist: ValueDistribution,
}

impl WorldBuilder {
    /// Starts a builder for a world of `m` objects. Defaults: one good
    /// object, unit costs, binary values, local testing at threshold 0.5,
    /// seed 0.
    pub fn new(m: u32) -> Self {
        WorldBuilder {
            m,
            n_good: 1,
            seed: 0,
            model: ObjectModel::LocalTesting { threshold: 0.5 },
            costs: None,
            values: None,
            dist: ValueDistribution::Uniform,
        }
    }

    /// Sets the number of good objects (placed uniformly at random).
    pub fn good_objects(mut self, n_good: u32) -> Self {
        self.n_good = n_good;
        self
    }

    /// Sets the world-generation seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the object model.
    pub fn model(mut self, model: ObjectModel) -> Self {
        self.model = model;
        self
    }

    /// Uses explicit per-object costs instead of unit costs.
    pub fn costs(mut self, costs: Vec<f64>) -> Self {
        self.costs = Some(costs);
        self
    }

    /// Uses explicit per-object values instead of generated ones. With
    /// explicit values, `good_objects` is ignored — goodness comes from the
    /// model.
    pub fn values(mut self, values: Vec<f64>) -> Self {
        self.values = Some(values);
        self
    }

    /// Sets the generated-value distribution for top-β worlds (ignored for
    /// local-testing worlds, which are binary, and when explicit values are
    /// supplied).
    pub fn value_distribution(mut self, dist: ValueDistribution) -> Self {
        self.dist = dist;
        self
    }

    /// Builds the world.
    ///
    /// # Errors
    /// Returns [`SimError::InvalidWorld`] on inconsistent inputs (see
    /// [`World::from_parts`]).
    pub fn build(self) -> Result<World, SimError> {
        let m = self.m as usize;
        let values = match self.values {
            Some(v) => v,
            None => match self.model {
                ObjectModel::LocalTesting { threshold } => {
                    if self.n_good == 0 || self.n_good > self.m {
                        return Err(SimError::InvalidWorld(format!(
                            "n_good {} must be in 1..={}",
                            self.n_good, self.m
                        )));
                    }
                    let mut rng = stream_rng(self.seed, Stream::World);
                    // The shuffle's draws depend only on the slice length,
                    // so the id type does not change the permutation.
                    let mut ids: Vec<u32> = (0..self.m).collect();
                    ids.shuffle(&mut rng);
                    let mut values = vec![0.0; m];
                    for &i in ids.iter().take(self.n_good as usize) {
                        values[i as usize] = threshold.max(1.0);
                    }
                    values
                }
                ObjectModel::TopBeta { .. } => {
                    self.dist.validate()?;
                    let mut rng = stream_rng(self.seed, Stream::World);
                    (0..m).map(|_| self.dist.sample(&mut rng)).collect()
                }
            },
        };
        match self.costs {
            Some(costs) => World::from_parts(values, costs, self.model),
            // unit costs, one per object of the builder's `m`
            None => {
                check_lengths(values.len(), m)?;
                World::with_costs(values, Costs::Uniform(1.0), self.model)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_world_counts() {
        let w = World::binary(100, 10, 1).unwrap();
        assert_eq!(w.m(), 100);
        assert_eq!(w.good_count(), 10);
        assert!((w.beta() - 0.1).abs() < 1e-12);
        assert_eq!(w.good_objects().len(), 10);
        assert_eq!(w.bad_objects().len(), 90);
        for o in w.good_objects() {
            assert!(w.is_good(o));
            assert_eq!(w.value(o), 1.0);
            assert_eq!(w.cost(o), 1.0);
        }
    }

    #[test]
    fn binary_world_is_seed_deterministic() {
        let a = World::binary(50, 5, 9).unwrap();
        let b = World::binary(50, 5, 9).unwrap();
        assert_eq!(a.good_objects(), b.good_objects());
        let c = World::binary(50, 5, 10).unwrap();
        // overwhelmingly likely to differ
        assert_ne!(a.good_objects(), c.good_objects());
    }

    #[test]
    fn binary_world_rejects_degenerate() {
        assert!(World::binary(10, 0, 0).is_err());
        assert!(World::binary(10, 11, 0).is_err());
    }

    #[test]
    fn top_beta_selects_top_values() {
        let w = World::from_parts(
            vec![0.1, 0.9, 0.5, 0.7],
            vec![1.0; 4],
            ObjectModel::TopBeta { beta: 0.5 },
        )
        .unwrap();
        assert_eq!(w.good_objects(), vec![ObjectId(1), ObjectId(3)]);
        assert_eq!(w.good_count(), 2);
    }

    #[test]
    fn top_beta_tie_break_is_lower_id() {
        let w = World::from_parts(
            vec![0.5, 0.5, 0.5],
            vec![1.0; 3],
            ObjectModel::TopBeta { beta: 1.0 / 3.0 },
        )
        .unwrap();
        assert_eq!(w.good_objects(), vec![ObjectId(0)]);
    }

    #[test]
    fn uniform_top_beta_has_ceil_beta_m_goods() {
        let w = World::uniform_top_beta(97, 0.1, 3).unwrap();
        assert_eq!(w.good_count(), 10); // ceil(9.7)
        assert!(!w.model().has_local_testing());
    }

    #[test]
    fn from_parts_validation() {
        let lt = ObjectModel::LocalTesting { threshold: 0.5 };
        assert!(World::from_parts(vec![], vec![], lt).is_err());
        assert!(World::from_parts(vec![1.0], vec![1.0, 2.0], lt).is_err());
        assert!(World::from_parts(vec![f64::NAN], vec![1.0], lt).is_err());
        assert!(World::from_parts(vec![-1.0], vec![1.0], lt).is_err());
        // all-bad world rejected
        assert!(World::from_parts(vec![0.0, 0.0], vec![1.0, 1.0], lt).is_err());
        assert!(
            World::from_parts(vec![1.0], vec![1.0], ObjectModel::TopBeta { beta: 0.0 }).is_err()
        );
    }

    #[test]
    fn cost_classes_layout() {
        let w = World::cost_classes(&[4, 4, 4], 2, 2, 5).unwrap();
        assert_eq!(w.m(), 12);
        assert_eq!(w.good_count(), 2);
        assert_eq!(w.cost_class_members(0).len(), 4);
        assert_eq!(w.cost_class_members(1).len(), 4);
        assert_eq!(w.cost_class_members(2).len(), 4);
        assert_eq!(w.max_cost_class(), 2);
        for o in w.good_objects() {
            assert_eq!(w.cost(o), 4.0, "good objects live in class 2");
        }
    }

    #[test]
    fn cost_classes_validation() {
        assert!(World::cost_classes(&[], 0, 1, 0).is_err());
        assert!(World::cost_classes(&[0, 0], 0, 1, 0).is_err());
        assert!(World::cost_classes(&[4], 1, 1, 0).is_err());
        assert!(World::cost_classes(&[4], 0, 5, 0).is_err());
    }

    #[test]
    fn probe_returns_truth() {
        let w = World::binary(10, 1, 2).unwrap();
        let good = w.good_objects()[0];
        let p = w.probe(good);
        assert_eq!(p.value, 1.0);
        assert_eq!(p.cost, 1.0);
        assert_eq!(p.object, good);
    }

    #[test]
    fn builder_defaults_and_overrides() {
        let w = WorldBuilder::new(20)
            .seed(4)
            .good_objects(3)
            .build()
            .unwrap();
        assert_eq!(w.good_count(), 3);
        let w = WorldBuilder::new(3)
            .values(vec![0.0, 1.0, 0.0])
            .costs(vec![1.0, 2.0, 4.0])
            .build()
            .unwrap();
        assert_eq!(w.good_objects(), vec![ObjectId(1)]);
        assert_eq!(w.cost(ObjectId(2)), 4.0);
        assert!(WorldBuilder::new(5).good_objects(0).build().is_err());
    }

    #[test]
    fn display_nonempty() {
        let w = World::binary(10, 1, 0).unwrap();
        assert!(w.to_string().contains("m=10"));
    }

    #[test]
    fn value_distributions_generate_valid_worlds() {
        for dist in [
            ValueDistribution::Uniform,
            ValueDistribution::Pareto { shape: 1.5 },
            ValueDistribution::Exponential { rate: 2.0 },
        ] {
            let w = WorldBuilder::new(200)
                .model(ObjectModel::TopBeta { beta: 0.1 })
                .value_distribution(dist)
                .seed(3)
                .build()
                .unwrap();
            assert_eq!(w.good_count(), 20);
            // values finite and non-negative for all distributions
            for o in 0..200u32 {
                let v = w.value(ObjectId(o));
                assert!(v.is_finite() && v >= 0.0, "bad value {v} under {dist:?}");
            }
        }
    }

    #[test]
    fn pareto_is_heavier_tailed_than_uniform() {
        let top_share = |dist| {
            let w = WorldBuilder::new(1000)
                .model(ObjectModel::TopBeta { beta: 0.01 })
                .value_distribution(dist)
                .seed(8)
                .build()
                .unwrap();
            let total: f64 = (0..1000u32).map(|o| w.value(ObjectId(o))).sum();
            let top: f64 = w.good_objects().iter().map(|&o| w.value(o)).sum();
            top / total
        };
        assert!(
            top_share(ValueDistribution::Pareto { shape: 1.1 })
                > top_share(ValueDistribution::Uniform),
            "pareto's top percent must hold a larger value share"
        );
    }

    #[test]
    fn bad_distribution_parameters_rejected() {
        for dist in [
            ValueDistribution::Pareto { shape: 0.0 },
            ValueDistribution::Exponential { rate: -1.0 },
            ValueDistribution::Pareto { shape: f64::NAN },
        ] {
            let r = WorldBuilder::new(10)
                .model(ObjectModel::TopBeta { beta: 0.5 })
                .value_distribution(dist)
                .build();
            assert!(r.is_err(), "{dist:?} must be rejected");
        }
    }
}
