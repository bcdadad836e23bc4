//! Offline stub of the `rand` 0.8 API subset this workspace uses.
//!
//! The build environment has no registry access, so the workspace vendors a
//! minimal, API-compatible implementation: [`rngs::SmallRng`] (xoshiro256++,
//! the same algorithm rand 0.8 uses on 64-bit targets), the [`Rng`] extension
//! trait with `gen` / `gen_range` / `gen_bool`, [`SeedableRng::seed_from_u64`]
//! (SplitMix64 seeding, as upstream), and [`seq::SliceRandom`] with the
//! Fisher–Yates `shuffle` / `choose`.
//!
//! Determinism matters more than bit-compatibility with upstream here: every
//! simulation seed in this repository is interpreted by *this* implementation,
//! so results are reproducible as long as the workspace pins it.

pub mod rngs;
pub mod seq;

/// Core entropy source: everything derives from `next_u64`.
pub trait RngCore {
    /// The next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// The next 32 uniformly random bits (upper half of `next_u64`).
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Construction of an RNG from a seed.
pub trait SeedableRng: Sized {
    /// The fixed-size seed type.
    type Seed;

    /// Builds the RNG from a full-entropy seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Builds the RNG from a `u64`, expanded with SplitMix64 (the same
    /// expansion upstream rand uses for `seed_from_u64`).
    fn seed_from_u64(state: u64) -> Self;
}

/// SplitMix64 step, used for seed expansion.
#[inline]
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Types samplable from the "standard" distribution (`Rng::gen`).
pub trait StandardSample: Sized {
    /// Draws one value from `rng`.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl StandardSample for bool {
    #[inline]
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() >> 63 == 1
    }
}

impl StandardSample for f64 {
    /// 53 random bits mapped into `[0, 1)` (upstream's `Standard` for `f64`).
    #[inline]
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl StandardSample for f32 {
    #[inline]
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

macro_rules! impl_standard_int {
    ($($t:ty),+) => {$(
        impl StandardSample for $t {
            #[inline]
            fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )+};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Ranges samplable by `Rng::gen_range`.
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Unbiased uniform draw from `[0, bound)`: Lemire's nearly-divisionless
/// method (ACM TOMS 2019, arXiv:1805.10941).
///
/// The draw is the high word of `next_u64() · bound`; a low word below
/// `2^64 mod bound` marks one of the few biased products, which is rejected
/// and redrawn. That zone is smaller than `bound`, so a low word at or above
/// `bound` is accepted without computing it: the division runs only when
/// the low word falls below `bound`, with probability `bound / 2^64`. The
/// acceptance test is the same as computing the zone first, so the same
/// draws give the same value.
#[inline]
pub(crate) fn uniform_u64_below<R: RngCore + ?Sized>(rng: &mut R, bound: u64) -> u64 {
    debug_assert!(bound > 0, "empty range");
    // The high and low words of `x · bound`.
    let wide = |x: u64| {
        let high = (u128::from(x) * u128::from(bound)) >> 64;
        (high as u64, x.wrapping_mul(bound))
    };
    let (mut hi, mut lo) = wide(rng.next_u64());
    if lo < bound {
        let zone = bound.wrapping_neg() % bound; // 2^64 mod bound
        while lo < zone {
            (hi, lo) = wide(rng.next_u64());
        }
    }
    hi
}

macro_rules! impl_sample_range_int {
    ($($t:ty),+) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            #[inline]
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start.wrapping_add(uniform_u64_below(rng, span) as $t)
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            #[inline]
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "cannot sample empty range");
                let span = (end as u64).wrapping_sub(start as u64).wrapping_add(1);
                if span == 0 {
                    // full u64 domain
                    return rng.next_u64() as $t;
                }
                start.wrapping_add(uniform_u64_below(rng, span) as $t)
            }
        }
    )+};
}
impl_sample_range_int!(u8, u16, u32, u64, usize);

macro_rules! impl_sample_range_signed {
    ($($t:ty),+) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            #[inline]
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i64).wrapping_sub(self.start as i64) as u64;
                self.start.wrapping_add(uniform_u64_below(rng, span) as $t)
            }
        }
    )+};
}
impl_sample_range_signed!(i8, i16, i32, i64, isize);

macro_rules! impl_sample_range_float {
    ($($t:ty),+) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            #[inline]
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let unit = <$t as StandardSample>::sample_standard(rng);
                self.start + (self.end - self.start) * unit
            }
        }
    )+};
}
impl_sample_range_float!(f32, f64);

/// The user-facing extension trait (`rand::Rng`).
pub trait Rng: RngCore {
    /// Draws a value of type `T` from the standard distribution.
    #[inline]
    fn gen<T: StandardSample>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample_standard(self)
    }

    /// Draws a value uniformly from `range`.
    #[inline]
    fn gen_range<T, Rg: SampleRange<T>>(&mut self, range: Rg) -> T
    where
        Self: Sized,
    {
        range.sample_single(self)
    }

    /// `true` with probability `p`.
    #[inline]
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "p = {p} out of [0, 1]");
        <f64 as StandardSample>::sample_standard(self) < p
    }
}

impl<R: RngCore> Rng for R {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rngs::SmallRng;

    #[test]
    fn seeding_is_deterministic() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        let mut c = SmallRng::seed_from_u64(8);
        let (xa, xb, xc): (u64, u64, u64) = (a.gen(), b.gen(), c.gen());
        assert_eq!(xa, xb);
        assert_ne!(xa, xc);
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = SmallRng::seed_from_u64(42);
        for _ in 0..10_000 {
            let x = rng.gen_range(3u32..17);
            assert!((3..17).contains(&x));
            let y = rng.gen_range(0usize..1);
            assert_eq!(y, 0);
            let f = rng.gen_range(-2.0f64..3.0);
            assert!((-2.0..3.0).contains(&f));
            let i = rng.gen_range(-5i64..5);
            assert!((-5..5).contains(&i));
        }
    }

    #[test]
    fn unit_floats_in_range() {
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let u: f64 = rng.gen();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn gen_range_covers_small_domains() {
        let mut rng = SmallRng::seed_from_u64(5);
        let mut seen = [false; 4];
        for _ in 0..1_000 {
            seen[rng.gen_range(0usize..4)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues reached: {seen:?}");
    }

    /// The zone-first sampler `uniform_u64_below` replaced: it computes
    /// `2^64 mod bound` before every draw.
    fn zone_first_below(rng: &mut SmallRng, bound: u64) -> u64 {
        let zone = bound.wrapping_neg() % bound;
        loop {
            let x = rng.next_u64();
            if x.wrapping_mul(bound) >= zone {
                return ((u128::from(x) * u128::from(bound)) >> 64) as u64;
            }
        }
    }

    #[test]
    fn divisionless_sampler_matches_the_zone_first_one() {
        let fixed = [
            1,
            2,
            3,
            (1 << 32) - 1,
            1 << 32,
            (1 << 32) + 1,
            1 << 63,
            (1 << 63) + 1,
            u64::MAX,
        ];
        let mut bounds_rng = SmallRng::seed_from_u64(0xB0);
        for seed in 0..200u64 {
            // Random bounds of every magnitude: a random word shifted right
            // by a random amount, so small and huge bounds both appear.
            let random = (0..16).map(|_| {
                let shift = bounds_rng.next_u64() % 64;
                (bounds_rng.next_u64() >> shift).max(1)
            });
            for bound in fixed.into_iter().chain(random) {
                let mut new = SmallRng::seed_from_u64(seed);
                let mut reference = new.clone();
                for _ in 0..64 {
                    let got = uniform_u64_below(&mut new, bound);
                    assert_eq!(
                        got,
                        zone_first_below(&mut reference, bound),
                        "bound {bound}"
                    );
                    assert!(got < bound);
                    assert_eq!(new, reference, "RNG state diverged at bound {bound}");
                }
            }
        }
    }

    #[test]
    fn shuffle_matches_a_zone_first_shuffle() {
        use crate::seq::SliceRandom;
        for seed in 0..8 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut reference_rng = rng.clone();
            let mut shuffled: Vec<u32> = (0..10_000).collect();
            shuffled.shuffle(&mut rng);
            let mut reference: Vec<u32> = (0..10_000).collect();
            for i in (1..reference.len()).rev() {
                let bound = u64::try_from(i + 1).unwrap();
                let j = usize::try_from(zone_first_below(&mut reference_rng, bound)).unwrap();
                reference.swap(i, j);
            }
            assert_eq!(shuffled, reference);
            assert_eq!(rng, reference_rng);
        }
    }

    #[test]
    fn bool_is_roughly_fair() {
        let mut rng = SmallRng::seed_from_u64(9);
        let trues = (0..10_000).filter(|_| rng.gen::<bool>()).count();
        assert!((3_000..7_000).contains(&trues), "trues = {trues}");
    }
}
