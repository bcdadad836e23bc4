//! O(1)-memory streaming aggregation: running moments and a deterministic
//! quantile sketch.
//!
//! Million-trial sweeps cannot afford to retain every measurement just to
//! print a mean and a few percentiles at the end. This module provides the
//! streaming counterpart of [`Summary`](crate::stats::Summary):
//!
//! - [`RunningMoments`] — count/mean/variance/min/max via Welford's
//!   update, with Chan's parallel merge so per-worker partials combine
//!   exactly like one long stream.
//! - [`GkSketch`] — the Greenwald–Khanna ε-approximate quantile summary:
//!   every quantile query is within rank error `εn` of the exact answer,
//!   using `O((1/ε)·log(εn))` space independent of the stream length.
//! - [`StreamingSummary`] — the two glued together behind a
//!   [`Summary`]-shaped façade, with the same "no NaN out of stats"
//!   discipline: non-finite inputs are counted and poison the summary to
//!   `None`, mirroring [`Summary::of`](crate::stats::Summary::of).
//!
//! Everything here is deterministic in the insertion sequence — same
//! values in the same order give bit-identical sketches and answers — so
//! streaming aggregates of a deterministic sweep are themselves
//! reproducible artifacts. `tests/streaming_oracle.rs` property-tests the
//! sketch against the exact [`quantile`](crate::stats::quantile) oracle
//! and the moments against [`Summary::of`](crate::stats::Summary::of).

use crate::stats::Summary;

/// Welford/Chan running moments: count, mean, and the centered second
/// moment M2, plus min and max. Push is O(1); merge is exact in the same
/// sense as Chan's parallel algorithm (not bit-identical to a different
/// split, but numerically stable and split-independent to rounding).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunningMoments {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for RunningMoments {
    fn default() -> Self {
        RunningMoments::new()
    }
}

impl RunningMoments {
    /// An empty accumulator.
    pub fn new() -> Self {
        RunningMoments {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Observations so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Adds one observation (Welford's update).
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Folds another accumulator in (Chan's merge), as if its stream had
    /// been appended to this one.
    pub fn merge(&mut self, other: &RunningMoments) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.mean += delta * (other.count as f64 / total as f64);
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64 * other.count as f64 / total as f64);
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Arithmetic mean; `None` on an empty stream.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then_some(self.mean)
    }

    /// Minimum; `None` on an empty stream.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Maximum; `None` on an empty stream.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Unbiased sample variance; `None` for fewer than two observations.
    pub fn variance(&self) -> Option<f64> {
        (self.count > 1).then(|| self.m2 / (self.count - 1) as f64)
    }

    /// Unbiased sample standard deviation; `None` for n < 2.
    pub fn std_dev(&self) -> Option<f64> {
        self.variance().map(f64::sqrt)
    }

    /// Standard error of the mean; `None` for n < 2 (same contract as
    /// [`Summary::std_err`]).
    pub fn std_err(&self) -> Option<f64> {
        self.std_dev().map(|s| s / (self.count as f64).sqrt())
    }
}

/// One Greenwald–Khanna tuple: `value` covers `g` ranks ending at
/// `r_min(i) = Σ_{j≤i} g_j`, with `delta` slack on its maximum rank.
/// `g` and `delta` are integer-valued but stored as f64 so every invariant
/// comparison happens in one numeric domain (both are far below 2⁵³, where
/// f64 integer arithmetic is exact).
#[derive(Debug, Clone, Copy, PartialEq)]
struct GkEntry {
    value: f64,
    g: f64,
    delta: f64,
}

/// The Greenwald–Khanna ε-approximate quantile sketch.
///
/// Invariant (the paper's): for every tuple, `g_i + Δ_i ≤ ⌊2εn⌋` once
/// `n ≥ 1/(2ε)`, which guarantees any rank query is answered within `εn`.
/// Inserts keep entries sorted by value ([`f64::total_cmp`]) and a
/// periodic compress pass merges tuples whose combined span still fits the
/// invariant — space stays `O((1/ε)·log(εn))` no matter how long the
/// stream runs. Fully deterministic in the insertion sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct GkSketch {
    epsilon: f64,
    count: u64,
    entries: Vec<GkEntry>,
    inserts_since_compress: u64,
    compress_every: u64,
}

impl GkSketch {
    /// A sketch with target rank error `epsilon` (clamped into
    /// `[1e-6, 0.5]`; NaN falls to the default 0.005).
    pub fn new(epsilon: f64) -> Self {
        let epsilon = if epsilon.is_nan() {
            0.005
        } else {
            epsilon.clamp(1e-6, 0.5)
        };
        // Compressing roughly every 1/(2ε) inserts amortises the O(s) pass
        // without letting the buffer outgrow the space bound.
        let compress_every = (1.0 / (2.0 * epsilon)).ceil().max(1.0);
        GkSketch {
            epsilon,
            count: 0,
            entries: Vec::new(),
            inserts_since_compress: 0,
            compress_every: compress_every as u64,
        }
    }

    /// The configured rank-error target.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Observations so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Tuples currently held — the sketch's actual memory footprint,
    /// `O((1/ε)·log(εn))` by the GK bound.
    pub fn entries_len(&self) -> usize {
        self.entries.len()
    }

    /// The invariant threshold `⌊2εn⌋`, in the f64 domain.
    fn threshold(&self) -> f64 {
        (2.0 * self.epsilon * self.count as f64).floor()
    }

    /// Adds one observation. Non-finite values are accepted and ordered by
    /// [`f64::total_cmp`] (callers wanting `Summary::of` semantics should
    /// screen them out first — [`StreamingSummary`] does).
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        // Find the first entry with value >= x.
        let pos = self
            .entries
            .iter()
            .position(|e| e.value.total_cmp(&x).is_ge())
            .unwrap_or(self.entries.len());
        // New extrema must carry Δ = 0 (their rank is exact); interior
        // insertions inherit the local slack ⌊2εn⌋.
        let delta = if pos == 0 || pos == self.entries.len() {
            0.0
        } else {
            self.threshold()
        };
        self.entries.insert(
            pos,
            GkEntry {
                value: x,
                g: 1.0,
                delta,
            },
        );
        self.inserts_since_compress += 1;
        if self.inserts_since_compress >= self.compress_every {
            self.compress();
            self.inserts_since_compress = 0;
        }
    }

    /// Merges adjacent tuples whose combined span keeps the invariant:
    /// `g_i + g_{i+1} + Δ_{i+1} ≤ ⌊2εn⌋`. Scans right-to-left (the GK
    /// formulation), never touching the extreme tuples' exactness.
    fn compress(&mut self) {
        if self.entries.len() < 3 {
            return;
        }
        let limit = self.threshold();
        let mut i = self.entries.len() - 2;
        while i >= 1 {
            let merged_span = self.entries[i].g + self.entries[i + 1].g + self.entries[i + 1].delta;
            if merged_span <= limit {
                self.entries[i + 1].g += self.entries[i].g;
                self.entries.remove(i);
            }
            i -= 1;
        }
    }

    /// The `q`-quantile within rank error `εn`. `q` clamps into `[0, 1]`;
    /// NaN `q` is the median; `None` on an empty sketch (the same
    /// saturating contract as [`quantile`](crate::stats::quantile)).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let last = self.entries.last()?;
        let q = if q.is_nan() { 0.5 } else { q.clamp(0.0, 1.0) };
        // Target rank r ∈ [1, n]; accept the first entry whose maximum
        // possible rank stays within r + εn.
        let n = self.count as f64;
        let target = 1.0 + q * (n - 1.0);
        let allow = self.epsilon * n;
        let mut r_min = 0.0;
        for pair in self.entries.windows(2) {
            r_min += pair[0].g;
            let next_r_max = r_min + pair[1].g + pair[1].delta;
            if next_r_max > target + allow {
                return Some(pair[0].value);
            }
        }
        Some(last.value)
    }
}

/// The streaming replacement for building a [`Summary`] out of a retained
/// sample: Welford moments + a GK sketch for the median and tail
/// percentiles, O(1) memory in the stream length.
///
/// Non-finite observations are not folded in; they increment
/// [`non_finite`](StreamingSummary::non_finite) and make
/// [`summary`](StreamingSummary::summary) return `None`, exactly as
/// [`Summary::of`](crate::stats::Summary::of) refuses non-finite samples.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingSummary {
    moments: RunningMoments,
    sketch: GkSketch,
    non_finite: u64,
}

impl StreamingSummary {
    /// An empty aggregator with sketch rank error `epsilon`.
    pub fn new(epsilon: f64) -> Self {
        StreamingSummary {
            moments: RunningMoments::new(),
            sketch: GkSketch::new(epsilon),
            non_finite: 0,
        }
    }

    /// Adds one observation (non-finite values are counted, not folded).
    pub fn push(&mut self, x: f64) {
        if !x.is_finite() {
            self.non_finite += 1;
            return;
        }
        self.moments.push(x);
        self.sketch.push(x);
    }

    /// Finite observations folded so far.
    pub fn count(&self) -> u64 {
        self.moments.count()
    }

    /// Non-finite observations rejected so far.
    pub fn non_finite(&self) -> u64 {
        self.non_finite
    }

    /// The running moments.
    pub fn moments(&self) -> &RunningMoments {
        &self.moments
    }

    /// The quantile sketch.
    pub fn sketch(&self) -> &GkSketch {
        &self.sketch
    }

    /// The `q`-quantile estimate (within `εn` rank error); `None` when
    /// nothing finite has been pushed.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        self.sketch.quantile(q)
    }

    /// A [`Summary`] façade over the stream: `None` on an empty stream or
    /// when any non-finite value was seen (matching `Summary::of`); the
    /// median is the sketch's ε-approximate one, everything else exact.
    pub fn summary(&self) -> Option<Summary> {
        if self.non_finite > 0 {
            return None;
        }
        let count = usize::try_from(self.moments.count())
            .ok()
            .filter(|&c| c > 0)?;
        Some(Summary {
            count,
            mean: self.moments.mean()?,
            std_dev: self.moments.std_dev().unwrap_or(0.0),
            min: self.moments.min()?,
            max: self.moments.max()?,
            median: self.sketch.quantile(0.5)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::quantile;

    #[test]
    fn moments_match_summary_on_a_known_sample() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let mut m = RunningMoments::new();
        for &x in &xs {
            m.push(x);
        }
        let s = Summary::of(&xs).unwrap();
        assert_eq!(m.count(), 4);
        assert!((m.mean().unwrap() - s.mean).abs() < 1e-12);
        assert!((m.std_dev().unwrap() - s.std_dev).abs() < 1e-12);
        assert_eq!(m.min().unwrap(), 1.0);
        assert_eq!(m.max().unwrap(), 4.0);
        assert!((m.std_err().unwrap() - s.std_err().unwrap()).abs() < 1e-12);
    }

    #[test]
    fn empty_and_singleton_moments_are_total() {
        let m = RunningMoments::new();
        assert_eq!(m.mean(), None);
        assert_eq!(m.variance(), None);
        assert_eq!(m.min(), None);
        let mut m = RunningMoments::new();
        m.push(7.0);
        assert_eq!(m.mean(), Some(7.0));
        assert_eq!(m.variance(), None, "n = 1 has no sample variance");
        assert_eq!(m.std_err(), None);
    }

    #[test]
    fn merge_equals_one_long_stream() {
        let xs: Vec<f64> = (0..100).map(|i| f64::from(i) * 0.37 - 5.0).collect();
        let mut whole = RunningMoments::new();
        for &x in &xs {
            whole.push(x);
        }
        let (a_half, b_half) = xs.split_at(33);
        let mut a = RunningMoments::new();
        for &x in a_half {
            a.push(x);
        }
        let mut b = RunningMoments::new();
        for &x in b_half {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean().unwrap() - whole.mean().unwrap()).abs() < 1e-9);
        assert!((a.variance().unwrap() - whole.variance().unwrap()).abs() < 1e-9);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
        // Merging an empty side is the identity, both ways.
        let mut e = RunningMoments::new();
        e.merge(&whole);
        assert_eq!(e, whole);
        let before = whole;
        whole.merge(&RunningMoments::new());
        assert_eq!(whole, before);
    }

    #[test]
    fn sketch_quantiles_respect_the_rank_error_bound() {
        let eps = 0.01;
        let n = 10_000u64;
        let mut sk = GkSketch::new(eps);
        // A deterministic shuffled-ish stream (LCG order over 0..n).
        let mut x = 1u64;
        let mut values = Vec::new();
        for _ in 0..n {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let v = (x >> 33) as f64 / (1u64 << 31) as f64;
            values.push(v);
            sk.push(v);
        }
        values.sort_by(f64::total_cmp);
        for &q in &[0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let est = sk.quantile(q).unwrap();
            // Rank of the estimate in the sorted sample.
            let rank = values.partition_point(|&v| v < est) as f64;
            let target = 1.0 + q * (n as f64 - 1.0);
            assert!(
                (rank - target).abs() <= eps * n as f64 + 1.0,
                "q={q}: rank {rank} vs target {target}"
            );
        }
        // Space is O((1/ε)·log(εn)), far below n.
        assert!(
            sk.entries_len() < 1_000,
            "sketch kept {} tuples for n={n}",
            sk.entries_len()
        );
    }

    #[test]
    fn sketch_is_deterministic_in_insertion_order() {
        let feed = |sk: &mut GkSketch| {
            let mut x = 99u64;
            for _ in 0..5_000 {
                x = x
                    .wrapping_mul(2_862_933_555_777_941_757)
                    .wrapping_add(3_037_000_493);
                sk.push((x >> 40) as f64);
            }
        };
        let mut a = GkSketch::new(0.02);
        let mut b = GkSketch::new(0.02);
        feed(&mut a);
        feed(&mut b);
        assert_eq!(a, b, "same stream, same sketch, bit for bit");
        assert_eq!(a.quantile(0.5), b.quantile(0.5));
    }

    #[test]
    fn sketch_edges_saturate_like_the_exact_quantile() {
        let mut sk = GkSketch::new(0.1);
        assert_eq!(sk.quantile(0.5), None, "empty sketch");
        for x in [5.0, 1.0, 3.0] {
            sk.push(x);
        }
        assert_eq!(sk.quantile(0.0), Some(1.0));
        assert_eq!(sk.quantile(1.0), Some(5.0));
        assert_eq!(sk.quantile(-2.0), Some(1.0), "q clamps low");
        assert_eq!(sk.quantile(9.0), Some(5.0), "q clamps high");
        let med = sk.quantile(f64::NAN).unwrap();
        assert_eq!(med, 3.0, "NaN q is the median");
        // Tiny streams answer exactly (ε·n < 1).
        assert_eq!(sk.quantile(0.5), quantile(&[5.0, 1.0, 3.0], 0.5));
    }

    #[test]
    fn epsilon_is_clamped_total() {
        assert_eq!(GkSketch::new(f64::NAN).epsilon(), 0.005);
        assert_eq!(GkSketch::new(-1.0).epsilon(), 1e-6);
        assert_eq!(GkSketch::new(2.0).epsilon(), 0.5);
    }

    #[test]
    fn streaming_summary_mirrors_summary_of() {
        let xs: Vec<f64> = (0..500).map(|i| f64::from(i % 37) * 1.5).collect();
        let mut ss = StreamingSummary::new(0.01);
        for &x in &xs {
            ss.push(x);
        }
        let exact = Summary::of(&xs).unwrap();
        let got = ss.summary().unwrap();
        assert_eq!(got.count, exact.count);
        assert!((got.mean - exact.mean).abs() < 1e-9);
        assert!((got.std_dev - exact.std_dev).abs() < 1e-9);
        assert_eq!(got.min, exact.min);
        assert_eq!(got.max, exact.max);
        // Median within the sketch's rank error, translated to values.
        let lo = quantile(&xs, 0.5 - 0.01).unwrap();
        let hi = quantile(&xs, 0.5 + 0.01).unwrap();
        assert!(got.median >= lo - 1.5 && got.median <= hi + 1.5);
    }

    #[test]
    fn non_finite_poisons_the_summary_like_summary_of() {
        let mut ss = StreamingSummary::new(0.05);
        ss.push(1.0);
        ss.push(f64::NAN);
        ss.push(2.0);
        assert_eq!(ss.count(), 2);
        assert_eq!(ss.non_finite(), 1);
        assert_eq!(ss.summary(), None);
        assert_eq!(Summary::of(&[1.0, f64::NAN, 2.0]), None, "same contract");
        // Empty is None too.
        assert_eq!(StreamingSummary::new(0.05).summary(), None);
    }

    #[test]
    fn singleton_streaming_summary_saturates() {
        let mut ss = StreamingSummary::new(0.05);
        ss.push(4.0);
        let s = ss.summary().unwrap();
        assert_eq!(s.count, 1);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.std_err(), None);
        assert_eq!((s.min, s.max, s.median), (4.0, 4.0, 4.0));
    }
}
