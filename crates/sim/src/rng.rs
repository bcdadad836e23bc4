//! Deterministic randomness streams.
//!
//! Every simulation draws from a single master seed. Per-player, adversary
//! and world streams are derived with a SplitMix64 hash so that:
//!
//! * the whole simulation is reproducible from one `u64`;
//! * players' coin flips are independent streams (changing how many random
//!   numbers one player draws never perturbs another player's stream);
//! * trial `t` of an experiment uses `derive(master, t)` and is independent
//!   of every other trial.

use rand::rngs::SmallRng;
use rand::SeedableRng;

/// SplitMix64 finalizer: a high-quality 64-bit mixing function.
///
/// This is the standard SplitMix64 output function (Steele, Lea, Flood 2014),
/// used here purely to derive independent seeds — not as the simulation RNG
/// itself (that is `rand::rngs::SmallRng`).
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives an independent sub-seed for stream `stream` of master seed `master`.
///
/// ```
/// use distill_sim::rng::derive_seed;
/// assert_ne!(derive_seed(1, 0), derive_seed(1, 1));
/// assert_ne!(derive_seed(1, 0), derive_seed(2, 0));
/// assert_eq!(derive_seed(1, 0), derive_seed(1, 0));
/// ```
#[inline]
#[expect(
    clippy::disallowed_methods,
    reason = "the RNG home: the seed derivation itself"
)]
pub fn derive_seed(master: u64, stream: u64) -> u64 {
    splitmix64(master ^ splitmix64(stream.wrapping_add(0xA5A5_A5A5_A5A5_A5A5)))
}

/// Stream tags, keeping the different consumers of randomness disjoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stream {
    /// Per-player protocol coins (honest players).
    Player(u32),
    /// The adversary's private coins.
    Adversary,
    /// World generation (object values, good-set placement).
    World,
    /// Fault-injection draws (post drops, crash schedule, recoveries).
    Faults,
    /// Free-form auxiliary stream.
    Aux(u64),
}

impl Stream {
    /// The tag namespace: players occupy `[0, 2^32)`, the fixed singleton
    /// streams sit at `2^40 + i`, and `Aux(k)` maps to `2^41 + k` with
    /// wrapping arithmetic. `Aux` tags are disjoint from every other stream
    /// for `k < 2^64 − 2^41 − 2^32` (wrap-around past that re-enters the
    /// player range); in practice auxiliary keys are tiny, and wrapping
    /// keeps the map total — no overflow panic for any `k`.
    fn tag(self) -> u64 {
        match self {
            Stream::Player(p) => u64::from(p),
            Stream::Adversary => 1 << 40,
            Stream::World => (1 << 40) + 1,
            Stream::Faults => (1 << 40) + 2,
            Stream::Aux(k) => (1u64 << 41).wrapping_add(k),
        }
    }
}

/// A `SmallRng` for the given stream of the master seed.
#[expect(
    clippy::disallowed_methods,
    reason = "the RNG home: the one place a generator is seeded"
)]
pub fn stream_rng(master: u64, stream: Stream) -> SmallRng {
    SmallRng::seed_from_u64(derive_seed(master, stream.tag()))
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "the RNG home's tests exercise the raw derivation directly"
)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn derive_is_deterministic_and_distinct() {
        let a = derive_seed(42, 0);
        let b = derive_seed(42, 0);
        assert_eq!(a, b);
        assert_ne!(derive_seed(42, 1), a);
        assert_ne!(derive_seed(43, 0), a);
    }

    #[test]
    fn streams_do_not_collide() {
        let tags = [
            Stream::Player(0).tag(),
            Stream::Player(u32::MAX).tag(),
            Stream::Adversary.tag(),
            Stream::World.tag(),
            Stream::Faults.tag(),
            Stream::Aux(0).tag(),
            Stream::Aux(99).tag(),
        ];
        for (i, a) in tags.iter().enumerate() {
            for (j, b) in tags.iter().enumerate() {
                if i != j {
                    assert_ne!(a, b, "stream tags {i} and {j} collide");
                }
            }
        }
    }

    #[test]
    fn aux_tag_never_panics_on_extreme_keys() {
        // Regression: `(1 << 41) + k` overflowed in debug builds for large
        // k. Wrapping arithmetic keeps the map total.
        for k in [0, 1, u64::MAX / 2, u64::MAX - (1 << 41), u64::MAX] {
            let _ = Stream::Aux(k).tag();
        }
    }

    #[test]
    fn stream_rngs_are_reproducible() {
        let mut r1 = stream_rng(7, Stream::Player(3));
        let mut r2 = stream_rng(7, Stream::Player(3));
        let x1: u64 = r1.gen();
        let x2: u64 = r2.gen();
        assert_eq!(x1, x2);
        let mut r3 = stream_rng(7, Stream::Player(4));
        let x3: u64 = r3.gen();
        assert_ne!(x1, x3);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Tag disjointness over the representative ranges: any player
            /// tag, any fixed singleton tag, and any `Aux` key below the
            /// wrap-around threshold map to pairwise-distinct values.
            #[test]
            fn tags_are_disjoint_over_representative_ranges(
                p in any::<u32>(),
                k in 0u64..(1u64 << 62),
            ) {
                let player = Stream::Player(p).tag();
                let aux = Stream::Aux(k).tag();
                let fixed = [
                    Stream::Adversary.tag(),
                    Stream::World.tag(),
                    Stream::Faults.tag(),
                ];
                prop_assert_ne!(player, aux);
                for tag in fixed {
                    prop_assert_ne!(player, tag);
                    prop_assert_ne!(aux, tag);
                }
            }
        }
    }

    #[test]
    fn splitmix_known_properties() {
        // Bijective-ish sanity: no trivial fixed point at small inputs.
        assert_ne!(splitmix64(0), 0);
        assert_ne!(splitmix64(1), 1);
        assert_ne!(splitmix64(0), splitmix64(1));
    }
}
