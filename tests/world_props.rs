//! Property tests for the world's compact layout: goodness kept as a
//! bitset, and one stored cost when every object costs the same. Every
//! accessor must answer as a direct recomputation from the input vectors
//! does, and the per-object accessors must still panic past the last object.
//! Bad objects picked by rank match the full list of bad objects.

use distill::billboard::ObjectId;
use distill::sim::{ObjectModel, World, WorldBuilder};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Costs that differ in their bits only (`-0.0`), fractions below 1, and
/// powers of two spanning a few cost classes.
const COSTS: [f64; 7] = [0.0, -0.0, 0.5, 1.0, 2.0, 3.0, 8.0];

/// One object: a value (one of a few ties, or continuous) and a cost.
fn arb_object() -> impl Strategy<Value = (f64, f64)> {
    (any::<bool>(), 0u8..4, 0.0f64..2.0, 0usize..COSTS.len()).prop_map(
        |(tied, level, continuous, cost)| {
            let value = if tied {
                f64::from(level) * 0.5
            } else {
                continuous
            };
            (value, COSTS[cost])
        },
    )
}

/// Values and costs of 1 to 150 objects, the costs as drawn (mode 0), all
/// replaced by the first object's (mode 1), or each a `0.0` or a `-0.0`,
/// equal under `==` but not bit for bit (mode 2); and a model: local
/// testing at a threshold in `[0, 2)`, or top-β with β in `(0, 1]`.
fn arb_parts() -> impl Strategy<Value = (Vec<f64>, Vec<f64>, ObjectModel)> {
    (
        prop::collection::vec(arb_object(), 1..150),
        0u8..3,
        any::<bool>(),
        0.0f64..2.0,
        1u32..101,
    )
        .prop_map(|(objects, costs_mode, local, threshold, percent)| {
            let (values, mut costs): (Vec<f64>, Vec<f64>) = objects.into_iter().unzip();
            match costs_mode {
                0 => {}
                1 => {
                    let first = costs[0];
                    costs.fill(first);
                }
                _ => costs
                    .iter_mut()
                    .for_each(|c| *c = if *c > 1.0 { -0.0 } else { 0.0 }),
            }
            let model = if local {
                ObjectModel::LocalTesting { threshold }
            } else {
                ObjectModel::TopBeta {
                    beta: f64::from(percent) / 100.0,
                }
            };
            (values, costs, model)
        })
}

/// Is object `i` good, computed from the inputs alone: its value clears the
/// threshold, or fewer than `⌈βm⌉` objects rank above it (a higher value,
/// or the same value and a lower id).
fn good_by_definition(values: &[f64], model: ObjectModel, i: usize) -> bool {
    match model {
        ObjectModel::LocalTesting { threshold } => values[i] >= threshold,
        ObjectModel::TopBeta { beta } => {
            let m = values.len();
            // ⌈βm⌉, at least 1
            let k = (1..=m).find(|&k| k as f64 >= beta * m as f64).unwrap_or(m);
            let above = (0..m)
                .filter(|&j| values[j] > values[i] || (values[j] == values[i] && j < i))
                .count();
            above < k
        }
    }
}

fn panics<T>(f: impl FnOnce() -> T) -> bool {
    catch_unwind(AssertUnwindSafe(f)).is_err()
}

/// Checks every accessor of `world` against the inputs it was built from.
fn check_world(
    world: &World,
    values: &[f64],
    costs: &[f64],
    model: ObjectModel,
) -> Result<(), TestCaseError> {
    let m = values.len();
    let good: Vec<bool> = (0..m)
        .map(|i| good_by_definition(values, model, i))
        .collect();
    let ids = |want: bool| -> Vec<ObjectId> {
        (0..m)
            .filter(|&i| good[i] == want)
            .map(|i| ObjectId(u32::try_from(i).expect("small world")))
            .collect()
    };
    let good_count = good.iter().filter(|&&g| g).count();
    prop_assert_eq!(world.m(), u32::try_from(m).expect("small world"));
    prop_assert_eq!(world.good_count() as usize, good_count);
    prop_assert_eq!(
        world.beta().to_bits(),
        (good_count as f64 / m as f64).to_bits()
    );
    prop_assert_eq!(world.model(), model);
    prop_assert_eq!(world.good_objects(), ids(true));
    prop_assert_eq!(world.bad_objects(), ids(false));
    for i in 0..m {
        let o = ObjectId(u32::try_from(i).expect("small world"));
        prop_assert_eq!(world.value(o).to_bits(), values[i].to_bits());
        prop_assert_eq!(world.cost(o).to_bits(), costs[i].to_bits());
        prop_assert_eq!(world.is_good(o), good[i]);
        let probe = world.probe(o);
        prop_assert_eq!(probe.object, o);
        prop_assert_eq!(probe.value.to_bits(), values[i].to_bits());
        prop_assert_eq!(probe.cost.to_bits(), costs[i].to_bits());
    }
    // the class `k` with `2^k <= c < 2^(k+1)`, or 0 below 1
    let class_of = |c: f64| {
        (0u32..)
            .find(|&k| c < f64::from(1u32 << (k + 1)))
            .expect("small cost")
    };
    let max_class = costs.iter().map(|&c| class_of(c)).max().unwrap_or(0);
    prop_assert_eq!(world.max_cost_class(), max_class);
    for class in 0..=max_class + 1 {
        let lo = f64::from(1u32 << class);
        let members: Vec<ObjectId> = (0..m)
            .filter(|&i| costs[i] >= lo && costs[i] < 2.0 * lo)
            .map(|i| ObjectId(u32::try_from(i).expect("small world")))
            .collect();
        prop_assert_eq!(world.cost_class_members(class), members);
    }
    // Every bad rank at once, scrambled and repeated, picks what the list
    // holds; a rank past the last bad object panics.
    let bad = ids(false);
    let ranks: Vec<usize> = (0..bad.len())
        .rev()
        .chain((0..bad.len()).step_by(3))
        .collect();
    let picked: Vec<ObjectId> = ranks.iter().map(|&k| bad[k]).collect();
    prop_assert_eq!(world.bad_objects_at(&ranks), picked);
    prop_assert!(
        panics(|| world.bad_objects_at(&[bad.len()])),
        "bad rank past the end"
    );
    let past = ObjectId(world.m());
    prop_assert!(panics(|| world.value(past)), "value past the end");
    prop_assert!(panics(|| world.cost(past)), "cost past the end");
    prop_assert!(panics(|| world.is_good(past)), "is_good past the end");
    prop_assert!(panics(|| world.probe(past)), "probe past the end");
    Ok(())
}

proptest! {
    /// `from_parts` under both models, with equal, differing and
    /// signed-zero costs: a world exactly when some object is good by
    /// definition, answering as its inputs do; the builder with the same
    /// explicit parts agrees.
    #[test]
    fn from_parts_answers_as_its_inputs(parts in arb_parts()) {
        let (values, costs, model) = parts;
        let any_good = (0..values.len()).any(|i| good_by_definition(&values, model, i));
        match World::from_parts(values.clone(), costs.clone(), model) {
            Ok(world) => {
                prop_assert!(any_good);
                check_world(&world, &values, &costs, model)?;
                let built = WorldBuilder::new(world.m())
                    .values(values.clone())
                    .costs(costs.clone())
                    .model(model)
                    .build()
                    .expect("the same parts");
                check_world(&built, &values, &costs, model)?;
            }
            Err(e) => {
                prop_assert!(!any_good, "refused a world with a good object: {e}");
            }
        }
    }

    /// `cost_classes`: class `i` holds its objects at cost `2^i` and the
    /// goods sit in `good_class` at value 1; rebuilt from those vectors by
    /// `from_parts`, both worlds answer as the vectors do. A layout with one
    /// non-empty class has equal costs.
    #[test]
    fn cost_classes_answer_as_their_layout(
        sizes in prop::collection::vec(0u32..20, 1..5),
        pick in 0usize..4,
        goods_pick in 0u32..20,
        seed in any::<u64>(),
    ) {
        let good_class = pick % sizes.len();
        prop_assume!(sizes[good_class] > 0);
        let goods = 1 + goods_pick % sizes[good_class];
        let world = World::cost_classes(&sizes, good_class, goods, seed).expect("valid layout");
        let costs: Vec<f64> = (0u32..)
            .zip(&sizes)
            .flat_map(|(class, &size)| std::iter::repeat_n(f64::from(1u32 << class), size as usize))
            .collect();
        let start: u32 = sizes[..good_class].iter().sum();
        let values: Vec<f64> = (0..world.m()).map(|o| world.value(ObjectId(o))).collect();
        prop_assert!(values.iter().all(|&v| v == 0.0 || v == 1.0));
        prop_assert_eq!(values.iter().filter(|&&v| v == 1.0).count(), goods as usize);
        prop_assert!(world
            .good_objects()
            .iter()
            .all(|o| (start..start + sizes[good_class]).contains(&o.0)));
        let model = ObjectModel::LocalTesting { threshold: 0.5 };
        check_world(&world, &values, &costs, model)?;
        let rebuilt = World::from_parts(values.clone(), costs.clone(), model).expect("same parts");
        check_world(&rebuilt, &values, &costs, model)?;
    }

    /// The unit-cost shorthands store one cost and answer like the
    /// explicit vectors they stand for.
    #[test]
    fn unit_cost_worlds_answer_as_their_vectors(
        m in 1u32..300,
        goods in 1u32..300,
        seed in any::<u64>(),
        percent in 1u32..101,
    ) {
        let ones = vec![1.0; m as usize];
        if goods <= m {
            let world = World::binary(m, goods, seed).expect("valid binary world");
            let values: Vec<f64> = (0..m).map(|o| world.value(ObjectId(o))).collect();
            prop_assert_eq!(values.iter().filter(|&&v| v == 1.0).count(), goods as usize);
            check_world(&world, &values, &ones, ObjectModel::LocalTesting { threshold: 0.5 })?;
        } else {
            prop_assert!(World::binary(m, goods, seed).is_err());
        }
        let beta = f64::from(percent) / 100.0;
        let world = World::uniform_top_beta(m, beta, seed).expect("valid top-beta world");
        let values: Vec<f64> = (0..m).map(|o| world.value(ObjectId(o))).collect();
        check_world(&world, &values, &ones, ObjectModel::TopBeta { beta })?;
    }
}
