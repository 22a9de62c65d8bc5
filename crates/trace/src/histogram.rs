//! Discrete histograms with weighted sampling.
//!
//! Every distribution in G-MAP's statistical profile — inter-thread stride
//! `P_E`, intra-thread stride `P_A`, reuse distance `P_R`, π-profile weights
//! `Q`, transactions-per-warp-access — is an empirical discrete distribution
//! captured as a [`Histogram`] and replayed by weighted sampling through a
//! [`HistSampler`].

use crate::batch::{KernelMode, LANES};
use crate::rng::Rng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Debug;

/// A discrete histogram over values of type `T`.
///
/// Counts are kept in a `BTreeMap`, so iteration is in ascending value
/// order and [`Histogram::dominant`] / [`Histogram::top_k`] tie-break
/// deterministically on the smaller value.
///
/// # Example
///
/// ```
/// use gmap_trace::Histogram;
///
/// let mut h = Histogram::new();
/// h.add(128i64);
/// h.add(128);
/// h.add(-64);
/// let (value, freq) = h.dominant().expect("non-empty");
/// assert_eq!(value, 128);
/// assert!((freq - 2.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Histogram<T: Ord> {
    counts: BTreeMap<T, u64>,
    total: u64,
}

impl<T: Ord> Default for Histogram<T> {
    fn default() -> Self {
        Histogram {
            counts: BTreeMap::new(),
            total: 0,
        }
    }
}

impl<T: Ord + Copy> Histogram<T> {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation of `value`.
    pub fn add(&mut self, value: T) {
        self.add_n(value, 1);
    }

    /// Records `n` observations of `value`.
    pub fn add_n(&mut self, value: T, n: u64) {
        if n == 0 {
            return;
        }
        *self.counts.entry(value).or_insert(0) += n;
        self.total += n;
    }

    /// Records one observation of every value in `values`.
    ///
    /// Dispatches on `mode`; both paths leave the histogram in an
    /// identical state (a histogram is order-independent by construction).
    /// The batched path accumulates into a small fixed registry with an
    /// 8-lane match scan, so the `BTreeMap` sees one `add_n` per
    /// *distinct* value instead of one tree probe per observation — on
    /// hot profiling loops most slices are runs of a handful of distinct
    /// strides. Distinct-heavy slices (more than `2 × LANES` values)
    /// fall back to a sort + run-length-encode pass.
    pub fn add_slice(&mut self, values: &[T], mode: KernelMode) {
        match mode {
            KernelMode::Scalar => self.add_slice_scalar(values),
            KernelMode::Batched => self.add_slice_batched(values),
        }
    }

    /// Scalar reference for [`Histogram::add_slice`]: one tree probe per
    /// observation.
    pub fn add_slice_scalar(&mut self, values: &[T]) {
        for &v in values {
            self.add(v);
        }
    }

    fn add_slice_batched(&mut self, values: &[T]) {
        // Transposed registry fast path: a fixed array of (value, count)
        // pairs. Each whole 8-value chunk is compared against every
        // *live* registry slot — one broadcast-equality mask and a
        // popcount per slot — so the common all-matched chunk costs
        // `len` lane-wide compares for eight observations instead of
        // eight probes. Registry values are distinct, so each lane
        // matches at most one slot and the popcounts are exact. Lanes
        // no slot matched are inserted one at a time, re-probing
        // because an earlier unmatched lane of the same chunk may have
        // just claimed the same value. Slices with more than `2 ×
        // LANES` distinct values fall back to a sort + run-length
        // encode pass; nothing is flushed before the fallback, so it
        // re-counts the whole slice from scratch.
        const REG: usize = 2 * LANES;
        const ALL: u32 = (1 << LANES) - 1;
        let Some(&first) = values.first() else {
            return;
        };
        let mut reg_v = [first; REG];
        let mut reg_n = [0u64; REG];
        let mut len = 1usize;
        let mut chunks = values.chunks_exact(LANES);
        for c in &mut chunks {
            let mut matched = 0u32;
            for slot in 0..len {
                let rv = reg_v[slot];
                let mut m = 0u32;
                for (lane, &v) in c.iter().enumerate() {
                    m |= u32::from(v == rv) << lane;
                }
                reg_n[slot] += u64::from(m.count_ones());
                matched |= m;
            }
            let mut miss = ALL & !matched;
            while miss != 0 {
                let lane = miss.trailing_zeros() as usize;
                miss &= miss - 1;
                if !registry_probe_insert(&mut reg_v, &mut reg_n, &mut len, c[lane]) {
                    return self.add_slice_sorted_rle(values);
                }
            }
        }
        for &v in chunks.remainder() {
            if !registry_probe_insert(&mut reg_v, &mut reg_n, &mut len, v) {
                return self.add_slice_sorted_rle(values);
            }
        }
        for slot in 0..len {
            self.add_n(reg_v[slot], reg_n[slot]);
        }
    }

    fn add_slice_sorted_rle(&mut self, values: &[T]) {
        if values.is_empty() {
            return;
        }
        let mut sorted: Vec<T> = values.to_vec();
        sorted.sort_unstable();
        // Run-length encode: an 8-lane unrolled neighbor-inequality scan
        // builds a boundary mask per chunk (branch-free lane body), then
        // trailing_zeros walks the set bits to flush completed runs.
        let n = sorted.len();
        let mut run_start = 0usize;
        let mut i = 1usize;
        while i + LANES <= n {
            let mut mask = 0u32;
            for lane in 0..LANES {
                mask |= u32::from(sorted[i + lane - 1] != sorted[i + lane]) << lane;
            }
            while mask != 0 {
                let boundary = i + mask.trailing_zeros() as usize;
                self.add_n(sorted[run_start], (boundary - run_start) as u64);
                run_start = boundary;
                mask &= mask - 1;
            }
            i += LANES;
        }
        while i < n {
            if sorted[i - 1] != sorted[i] {
                self.add_n(sorted[run_start], (i - run_start) as u64);
                run_start = i;
            }
            i += 1;
        }
        self.add_n(sorted[run_start], (n - run_start) as u64);
    }

    /// Total number of observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of distinct values observed.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// `true` if no observation has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Count of a specific value.
    pub fn count_of(&self, value: T) -> u64 {
        self.counts.get(&value).copied().unwrap_or(0)
    }

    /// Relative frequency of a value in `[0, 1]`; `0` if the histogram is
    /// empty.
    pub fn freq_of(&self, value: T) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.count_of(value) as f64 / self.total as f64
        }
    }

    /// `true` if `value` has been observed at least once — i.e. lies in the
    /// *support* of the distribution. This is the `supp(P_A)` membership
    /// test of Algorithm 1, line 12 of the paper.
    pub fn contains(&self, value: T) -> bool {
        self.counts.contains_key(&value)
    }

    /// The most frequent value and its relative frequency, or `None` for an
    /// empty histogram. Ties resolve to the smallest value.
    pub fn dominant(&self) -> Option<(T, f64)> {
        let (&v, &c) = self
            .counts
            .iter()
            .max_by(|a, b| a.1.cmp(b.1).then_with(|| b.0.cmp(a.0)))?;
        Some((v, c as f64 / self.total as f64))
    }

    /// The `k` most frequent `(value, count)` pairs, most frequent first.
    /// Ties resolve to the smaller value first.
    pub fn top_k(&self, k: usize) -> Vec<(T, u64)> {
        let mut entries: Vec<(T, u64)> = self.counts.iter().map(|(&v, &c)| (v, c)).collect();
        entries.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        entries.truncate(k);
        entries
    }

    /// Iterates over `(value, count)` in ascending value order.
    pub fn iter(&self) -> impl Iterator<Item = (T, u64)> + '_ {
        self.counts.iter().map(|(&v, &c)| (v, c))
    }

    /// Iterates over the support (distinct values) in ascending order.
    pub fn support(&self) -> impl Iterator<Item = T> + '_ {
        self.counts.keys().copied()
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram<T>) {
        for (v, c) in other.iter() {
            self.add_n(v, c);
        }
    }

    /// Scales every count by `factor`, rounding, but never dropping a value
    /// out of the support (counts floor at 1).
    ///
    /// This is the miniaturization primitive of §4.6: the clone keeps the
    /// *shape* of the distribution while the number of samples shrinks.
    pub fn scale_counts(&mut self, factor: f64) {
        assert!(factor > 0.0, "scale factor must be positive");
        let mut total = 0;
        for c in self.counts.values_mut() {
            *c = ((*c as f64 * factor).round() as u64).max(1);
            total += *c;
        }
        self.total = total;
    }

    /// Draws a value with probability proportional to its count.
    /// Returns `None` for an empty histogram.
    ///
    /// For repeated sampling build a [`HistSampler`] instead — this method
    /// is `O(distinct)` per draw.
    pub fn sample(&self, rng: &mut Rng) -> Option<T> {
        if self.total == 0 {
            return None;
        }
        let mut r = rng.gen_range(self.total);
        for (v, c) in self.iter() {
            if r < c {
                return Some(v);
            }
            r -= c;
        }
        unreachable!("cumulative walk must terminate within total")
    }

    /// Builds an `O(log distinct)`-per-draw sampler snapshot of this
    /// histogram.
    pub fn sampler(&self) -> HistSampler<T> {
        let mut values = Vec::with_capacity(self.counts.len());
        let mut cumulative = Vec::with_capacity(self.counts.len());
        let mut acc = 0u64;
        for (v, c) in self.iter() {
            acc += c;
            values.push(v);
            cumulative.push(acc);
        }
        HistSampler { values, cumulative }
    }
}

/// Scalar registry probe for [`Histogram::add_slice`]'s batched path:
/// bump the matching slot's count or claim a new slot for `v`. Returns
/// `false` when the registry is full, signalling the caller to fall
/// back to the sort + RLE pass.
#[inline]
fn registry_probe_insert<T: Copy + PartialEq>(
    reg_v: &mut [T],
    reg_n: &mut [u64],
    len: &mut usize,
    v: T,
) -> bool {
    for slot in 0..*len {
        if reg_v[slot] == v {
            reg_n[slot] += 1;
            return true;
        }
    }
    if *len == reg_v.len() {
        return false;
    }
    reg_v[*len] = v;
    reg_n[*len] = 1;
    *len += 1;
    true
}

impl<T: Ord + Copy> FromIterator<T> for Histogram<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut h = Histogram::new();
        for v in iter {
            h.add(v);
        }
        h
    }
}

impl<T: Ord + Copy> Extend<T> for Histogram<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for v in iter {
            self.add(v);
        }
    }
}

/// Immutable weighted sampler built from a [`Histogram`] snapshot.
///
/// ```
/// use gmap_trace::{Histogram, Rng};
///
/// let mut h = Histogram::new();
/// h.add_n(10u64, 99);
/// h.add_n(20u64, 1);
/// let sampler = h.sampler();
/// let mut rng = Rng::seed_from(42);
/// let draws = (0..100).filter(|_| sampler.sample(&mut rng) == Some(10)).count();
/// assert!(draws > 80);
/// ```
#[derive(Debug, Clone)]
pub struct HistSampler<T> {
    values: Vec<T>,
    cumulative: Vec<u64>,
}

impl<T: Copy> HistSampler<T> {
    /// Draws a value with probability proportional to its histogram count,
    /// or `None` if the source histogram was empty.
    pub fn sample(&self, rng: &mut Rng) -> Option<T> {
        let total = *self.cumulative.last()?;
        let r = rng.gen_range(total);
        // First index with cumulative > r.
        let idx = self.cumulative.partition_point(|&c| c <= r);
        Some(self.values[idx])
    }

    /// `true` if the source histogram was empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Number of distinct values.
    pub fn distinct(&self) -> usize {
        self.values.len()
    }

    /// `true` if `value` is in the support of the source histogram — the
    /// answer of [`Histogram::contains`], by binary search over the
    /// sorted values.
    pub fn contains(&self, value: T) -> bool
    where
        T: Ord,
    {
        self.values.binary_search(&value).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h: Histogram<i64> = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.total(), 0);
        assert_eq!(h.dominant(), None);
        assert_eq!(h.freq_of(1), 0.0);
        let mut rng = Rng::seed_from(1);
        assert_eq!(h.sample(&mut rng), None);
        assert_eq!(h.sampler().sample(&mut rng), None);
    }

    #[test]
    fn counting_and_frequency() {
        let mut h = Histogram::new();
        h.add_n(128i64, 3);
        h.add(-64);
        assert_eq!(h.total(), 4);
        assert_eq!(h.distinct(), 2);
        assert_eq!(h.count_of(128), 3);
        assert!((h.freq_of(128) - 0.75).abs() < 1e-12);
        assert!(h.contains(-64));
        assert!(!h.contains(0));
    }

    #[test]
    fn add_zero_is_noop() {
        let mut h = Histogram::new();
        h.add_n(5u64, 0);
        assert!(h.is_empty());
        assert!(!h.contains(5));
    }

    #[test]
    fn dominant_breaks_ties_on_smaller_value() {
        let mut h = Histogram::new();
        h.add_n(10i64, 2);
        h.add_n(-5, 2);
        assert_eq!(h.dominant(), Some((-5, 0.5)));
    }

    #[test]
    fn top_k_ordering() {
        let mut h = Histogram::new();
        h.add_n(1u64, 5);
        h.add_n(2, 10);
        h.add_n(3, 1);
        h.add_n(4, 10);
        assert_eq!(h.top_k(3), vec![(2, 10), (4, 10), (1, 5)]);
        assert_eq!(h.top_k(10).len(), 4);
    }

    #[test]
    fn merge_accumulates() {
        let mut a: Histogram<i64> = [1, 1, 2].into_iter().collect();
        let b: Histogram<i64> = [2, 3].into_iter().collect();
        a.merge(&b);
        assert_eq!(a.total(), 5);
        assert_eq!(a.count_of(2), 2);
        assert_eq!(a.count_of(3), 1);
    }

    #[test]
    fn scale_preserves_support() {
        let mut h = Histogram::new();
        h.add_n(1i64, 1000);
        h.add_n(2, 10);
        h.add_n(3, 1);
        h.scale_counts(0.01);
        assert_eq!(h.count_of(1), 10);
        // Small counts floor at 1 instead of vanishing.
        assert_eq!(h.count_of(2), 1);
        assert_eq!(h.count_of(3), 1);
        assert_eq!(h.total(), 12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn scale_rejects_zero_factor() {
        let mut h: Histogram<i64> = [1].into_iter().collect();
        h.scale_counts(0.0);
    }

    #[test]
    fn sample_respects_weights() {
        let mut h = Histogram::new();
        h.add_n(0u64, 900);
        h.add_n(1, 100);
        let mut rng = Rng::seed_from(7);
        let n = 10_000;
        let ones: u64 = (0..n).map(|_| h.sample(&mut rng).unwrap()).sum();
        let frac = ones as f64 / n as f64;
        assert!(
            (frac - 0.1).abs() < 0.02,
            "sampled frequency {frac} too far from 0.1"
        );
    }

    #[test]
    fn sampler_matches_histogram_distribution() {
        let mut h = Histogram::new();
        for v in 0..10u64 {
            h.add_n(v, v + 1);
        }
        let s = h.sampler();
        assert_eq!(s.distinct(), 10);
        let mut rng = Rng::seed_from(3);
        let mut observed = Histogram::new();
        for _ in 0..55_000 {
            observed.add(s.sample(&mut rng).unwrap());
        }
        for v in 0..10u64 {
            let expect = (v + 1) as f64 / 55.0;
            let got = observed.freq_of(v);
            assert!(
                (got - expect).abs() < 0.01,
                "value {v}: got {got}, expect {expect}"
            );
        }
    }

    #[test]
    fn sampler_single_value() {
        let h: Histogram<u64> = [42].into_iter().collect();
        let s = h.sampler();
        let mut rng = Rng::seed_from(9);
        for _ in 0..10 {
            assert_eq!(s.sample(&mut rng), Some(42));
        }
    }

    #[test]
    fn from_iterator_and_extend() {
        let mut h: Histogram<i64> = [5, 5, 7].into_iter().collect();
        h.extend([7, 9]);
        assert_eq!(h.total(), 5);
        assert_eq!(h.count_of(7), 2);
    }

    #[test]
    fn add_slice_kernels_agree_for_all_tail_lengths() {
        let mut rng = Rng::seed_from(0xadd);
        for n in 0..(2 * LANES + 1) {
            let values: Vec<i64> = (0..n).map(|_| (rng.gen_range(7) as i64) - 3).collect();
            let mut scalar = Histogram::new();
            let mut batched = Histogram::new();
            scalar.add_slice(&values, KernelMode::Scalar);
            batched.add_slice(&values, KernelMode::Batched);
            assert_eq!(scalar, batched, "n={n}");
            assert_eq!(scalar.total(), n as u64);
        }
    }

    #[test]
    fn add_slice_matches_sequential_adds() {
        let values = [5i64, -2, 5, 5, 9, -2, 0, 0, 5, 1, 1, 1, 1, 7];
        let mut seq = Histogram::new();
        for &v in &values {
            seq.add(v);
        }
        let mut batched = Histogram::new();
        batched.add_slice(&values, KernelMode::Batched);
        assert_eq!(seq, batched);
    }

    #[test]
    fn serde_round_trip() {
        let h: Histogram<i64> = [-128, -128, 64, 4352].into_iter().collect();
        let json = serde_json::to_string(&h).expect("serialize");
        let back: Histogram<i64> = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(h, back);
    }
}
