//! Exact LRU stack-distance (reuse-distance) computation.
//!
//! Reuse distance — the number of *distinct* data elements accessed between
//! two consecutive accesses to the same element (Mattson et al., 1970) — is
//! G-MAP's temporal-locality model (§4.3, Fig. 5 of the paper). Distances
//! are computed at cacheline granularity.
//!
//! The classic stack simulation is `O(N·M)`; [`ReuseComputer`] instead marks
//! the most recent access time of every element in a bitset over access
//! timestamps, with a Fenwick (binary-indexed) tree over the bitset's
//! 64-bit words, which yields each distance in `O(log N)`. It is the one
//! reuse-distance kernel: streaming callers push line by line, and
//! [`ReuseHistogram::from_lines`] sizes the marks once and counts
//! distances densely, so the histogram sees one insert per distinct
//! distance.

use crate::histogram::Histogram;
use crate::rng::Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// The "latest access" marks over 0-based timestamps: bit `t` is set iff
/// access `t` is the latest access of its line. A Fenwick tree over the
/// words' popcounts answers "marks up to `t`" with one walk over
/// `N / 64` nodes plus a popcount, and a mark that moves within one word
/// leaves the tree alone. Sized up front when the stream length is known,
/// else grown geometrically as the trace lengthens.
#[derive(Debug, Clone, Default)]
struct Marks {
    bits: Vec<u64>,
    /// 1-based: node `k + 1` covers word `k`.
    tree: Vec<u64>,
}

/// Lowest set bit of `i`.
fn lowbit(i: usize) -> usize {
    i & i.wrapping_neg()
}

impl Marks {
    /// Marks spanning timestamps `0..n`.
    fn with_len(n: usize) -> Self {
        let mut marks = Marks::default();
        marks.resize(n.div_ceil(64));
        marks
    }

    /// Makes room for timestamp `t`.
    fn ensure(&mut self, t: usize) {
        if t / 64 >= self.bits.len() {
            self.resize((t / 64 + 1).next_power_of_two());
        }
    }

    /// Extends the bitset to `words` words and rebuilds the tree from
    /// their popcounts: O(words) per doubling, amortized O(1) per access.
    fn resize(&mut self, words: usize) {
        self.bits.resize(words, 0);
        self.tree.clear();
        self.tree.push(0);
        self.tree
            .extend(self.bits.iter().map(|w| u64::from(w.count_ones())));
        for k in 1..=words {
            if k + lowbit(k) <= words {
                self.tree[k + lowbit(k)] += self.tree[k];
            }
        }
    }

    /// Adds `delta` (±1) to the count of word `word`.
    fn add(&mut self, word: usize, delta: i64) {
        let mut k = word + 1;
        while k < self.tree.len() {
            self.tree[k] = self.tree[k].wrapping_add(delta as u64);
            k += lowbit(k);
        }
    }

    /// Number of marks at timestamps `0..=t`.
    fn through(&self, t: usize) -> u64 {
        let mut s = u64::from((self.bits[t / 64] << (63 - t % 64)).count_ones());
        let mut k = t / 64;
        while k > 0 {
            s = s.wrapping_add(self.tree[k]);
            k -= lowbit(k);
        }
        s
    }

    /// Sets the mark at `t`, clearing the one at `prev` if any.
    fn advance(&mut self, prev: Option<usize>, t: usize) {
        self.bits[t / 64] |= 1 << (t % 64);
        match prev {
            Some(p) => {
                self.bits[p / 64] &= !(1 << (p % 64));
                if p / 64 != t / 64 {
                    self.add(p / 64, -1);
                    self.add(t / 64, 1);
                }
            }
            None => self.add(t / 64, 1),
        }
    }
}

/// Streaming reuse-distance computer.
///
/// Feed cacheline addresses in access order with [`ReuseComputer::push`];
/// each call returns the LRU stack distance of that access, or `None` for a
/// cold (first-ever) access.
///
/// # Example
///
/// The worked example of Figure 5 of the paper (addresses already reduced to
/// cachelines):
///
/// ```
/// use gmap_trace::ReuseComputer;
///
/// let mut rc = ReuseComputer::new();
/// assert_eq!(rc.push(0), None);     // X[0] — cold
/// assert_eq!(rc.push(0), Some(0));  // X[1] — same line, distance 0
/// assert_eq!(rc.push(1), None);     // X[2] — cold
/// assert_eq!(rc.push(1), Some(0));  // X[3]
/// assert_eq!(rc.push(0), Some(1));  // X[1] — one distinct line in between
/// ```
#[derive(Debug, Clone, Default)]
pub struct ReuseComputer {
    last_access: HashMap<u64, usize>,
    marks: Marks,
    time: usize,
}

impl ReuseComputer {
    /// Creates a computer with no history.
    pub fn new() -> Self {
        Self::default()
    }

    /// A computer whose marks already span `accesses` pushes.
    fn with_accesses(accesses: usize) -> Self {
        ReuseComputer {
            marks: Marks::with_len(accesses),
            ..Self::default()
        }
    }

    /// Records an access to `line` and returns its reuse distance, or
    /// `None` if this is the first access to the line.
    pub fn push(&mut self, line: u64) -> Option<u64> {
        let t = self.time; // 0-based timestamp
        self.time += 1;
        self.marks.ensure(t);
        let prev = self.last_access.insert(line, t);
        // Distinct lines touched strictly between prev and t = number of
        // marks in (prev, t). Every distinct line holds exactly one mark,
        // all before t, so that is the distinct count less the marks in
        // [0, prev].
        let dist = prev.map(|p| self.last_access.len() as u64 - self.marks.through(p));
        self.marks.advance(prev, t);
        dist
    }

    /// Number of accesses observed so far.
    pub fn accesses(&self) -> usize {
        self.time
    }

    /// Number of distinct lines observed so far.
    pub fn distinct_lines(&self) -> usize {
        self.last_access.len()
    }
}

/// Reuse classification used in Table 1 of the paper: the fraction of
/// accesses that are reuses (finite distance) classifies an instruction
/// profile as low (<30 %), medium (30–70 %) or high (>70 %) reuse.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ReuseClass {
    /// Less than 30 % of accesses are reuses.
    Low,
    /// Between 30 % and 70 %.
    Medium,
    /// More than 70 %.
    High,
}

impl fmt::Display for ReuseClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReuseClass::Low => f.write_str("Low"),
            ReuseClass::Medium => f.write_str("Med"),
            ReuseClass::High => f.write_str("High"),
        }
    }
}

/// Reuse-distance distribution of one access stream: a histogram over the
/// finite distances plus a count of cold accesses.
///
/// This is the `P_R` component of G-MAP's statistical profile (§4.6).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ReuseHistogram {
    hist: Histogram<u64>,
    cold: u64,
}

impl ReuseHistogram {
    /// Creates an empty distribution.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the distribution of an entire line-address stream.
    ///
    /// ```
    /// use gmap_trace::ReuseHistogram;
    /// let rh = ReuseHistogram::from_lines([0u64, 0, 1, 1, 0, 1, 1, 0]);
    /// assert_eq!(rh.cold(), 2);
    /// assert_eq!(rh.reuses(), 6);
    /// ```
    pub fn from_lines<I: IntoIterator<Item = u64>>(lines: I) -> Self {
        let lines = lines.into_iter();
        let mut rc = ReuseComputer::with_accesses(lines.size_hint().0);
        // Distances are below the stream's distinct-line count: count them
        // densely, then fold one `add_n` per distinct distance.
        let mut counts: Vec<u64> = Vec::new();
        let mut cold = 0;
        for line in lines {
            match rc.push(line) {
                Some(d) => {
                    let d = d as usize;
                    if d >= counts.len() {
                        counts.resize(d + 1, 0);
                    }
                    counts[d] += 1;
                }
                None => cold += 1,
            }
        }
        let mut hist = Histogram::new();
        for (d, &n) in counts.iter().enumerate() {
            hist.add_n(d as u64, n);
        }
        ReuseHistogram { hist, cold }
    }

    /// Records one observation (`None` = cold access).
    pub fn record(&mut self, distance: Option<u64>) {
        match distance {
            Some(d) => self.hist.add(d),
            None => self.cold += 1,
        }
    }

    /// The histogram over finite distances.
    pub fn distances(&self) -> &Histogram<u64> {
        &self.hist
    }

    /// Number of cold (first-touch) accesses.
    pub fn cold(&self) -> u64 {
        self.cold
    }

    /// Number of reuse (finite-distance) accesses.
    pub fn reuses(&self) -> u64 {
        self.hist.total()
    }

    /// Total accesses observed.
    pub fn total(&self) -> u64 {
        self.cold + self.hist.total()
    }

    /// Fraction of accesses that are reuses, in `[0, 1]` (0 if empty).
    pub fn reuse_fraction(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.reuses() as f64 / total as f64
        }
    }

    /// Table 1 style classification of this stream's temporal locality.
    pub fn class(&self) -> ReuseClass {
        let f = self.reuse_fraction();
        if f < 0.30 {
            ReuseClass::Low
        } else if f <= 0.70 {
            ReuseClass::Medium
        } else {
            ReuseClass::High
        }
    }

    /// Samples a finite reuse distance; `None` if no reuse was ever
    /// observed. Used by Algorithm 1, line 11 of the paper.
    pub fn sample(&self, rng: &mut Rng) -> Option<u64> {
        self.hist.sample(rng)
    }

    /// Merges another distribution into this one.
    pub fn merge(&mut self, other: &ReuseHistogram) {
        self.hist.merge(&other.hist);
        self.cold += other.cold;
    }

    /// Scales the finite-distance counts (miniaturization, §4.6). Cold
    /// counts scale too, flooring at 1 if any cold access existed.
    pub fn scale_counts(&mut self, factor: f64) {
        if !self.hist.is_empty() {
            self.hist.scale_counts(factor);
        }
        if self.cold > 0 {
            self.cold = ((self.cold as f64 * factor).round() as u64).max(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exact example of Figure 5 of the paper: accesses
    /// X[0] X[1] X[2] X[3] X[1] X[2] X[3] X[0], two array elements per
    /// cacheline, expected distances ∞ 0 ∞ 0 1 1 0 1.
    #[test]
    fn paper_figure5_example() {
        let lines = [0u64, 0, 1, 1, 0, 1, 1, 0];
        let mut rc = ReuseComputer::new();
        let got: Vec<Option<u64>> = lines.iter().map(|&l| rc.push(l)).collect();
        assert_eq!(
            got,
            [
                None,
                Some(0),
                None,
                Some(0),
                Some(1),
                Some(1),
                Some(0),
                Some(1)
            ]
        );
    }

    #[test]
    fn all_cold_stream() {
        let mut rc = ReuseComputer::new();
        for l in 0..100u64 {
            assert_eq!(rc.push(l), None);
        }
        assert_eq!(rc.distinct_lines(), 100);
        assert_eq!(rc.accesses(), 100);
    }

    #[test]
    fn repeated_single_line() {
        let mut rc = ReuseComputer::new();
        assert_eq!(rc.push(7), None);
        for _ in 0..50 {
            assert_eq!(rc.push(7), Some(0));
        }
    }

    #[test]
    fn cyclic_stream_distance_equals_working_set() {
        // Accessing 0,1,2,3,0,1,2,3,... each reuse sees 3 distinct lines.
        let mut rc = ReuseComputer::new();
        for l in 0..4u64 {
            rc.push(l);
        }
        for _ in 0..3 {
            for l in 0..4u64 {
                assert_eq!(rc.push(l), Some(3));
            }
        }
    }

    /// Brute-force oracle: count distinct lines between consecutive
    /// accesses to the same line.
    fn naive_reuse(lines: &[u64]) -> Vec<Option<u64>> {
        let mut out = Vec::with_capacity(lines.len());
        for (i, &l) in lines.iter().enumerate() {
            let prev = lines[..i].iter().rposition(|&x| x == l);
            out.push(prev.map(|p| {
                let mut set = std::collections::HashSet::new();
                for &x in &lines[p + 1..i] {
                    set.insert(x);
                }
                set.len() as u64
            }));
        }
        out
    }

    #[test]
    fn matches_naive_oracle_on_random_stream() {
        let mut rng = Rng::seed_from(1234);
        let lines: Vec<u64> = (0..2000).map(|_| rng.gen_range(64)).collect();
        let mut rc = ReuseComputer::new();
        let fast: Vec<Option<u64>> = lines.iter().map(|&l| rc.push(l)).collect();
        assert_eq!(fast, naive_reuse(&lines));
    }

    #[test]
    fn histogram_from_lines() {
        let rh = ReuseHistogram::from_lines([0u64, 0, 1, 1, 0, 1, 1, 0]);
        assert_eq!(rh.cold(), 2);
        assert_eq!(rh.reuses(), 6);
        assert_eq!(rh.total(), 8);
        assert_eq!(rh.distances().count_of(0), 3);
        assert_eq!(rh.distances().count_of(1), 3);
        assert!((rh.reuse_fraction() - 0.75).abs() < 1e-12);
        assert_eq!(rh.class(), ReuseClass::High);
    }

    #[test]
    fn reuse_classification_bounds() {
        // 0 % reuse.
        let low = ReuseHistogram::from_lines(0..10u64);
        assert_eq!(low.class(), ReuseClass::Low);
        // 50 % reuse: 5 cold + 5 reuses.
        let med = ReuseHistogram::from_lines([0u64, 1, 2, 3, 4, 0, 1, 2, 3, 4]);
        assert_eq!(med.class(), ReuseClass::Medium);
        // Empty stream defaults to Low.
        assert_eq!(ReuseHistogram::new().class(), ReuseClass::Low);
    }

    #[test]
    fn merge_and_scale() {
        let mut a = ReuseHistogram::from_lines([0u64, 0, 0, 0]);
        let b = ReuseHistogram::from_lines([1u64, 2, 1, 2]);
        a.merge(&b);
        assert_eq!(a.cold(), 3);
        assert_eq!(a.reuses(), 5);
        a.scale_counts(0.5);
        assert!(a.cold() >= 1);
        assert!(a.reuses() >= 1);
    }

    #[test]
    fn sample_returns_observed_distance() {
        let rh = ReuseHistogram::from_lines([0u64, 1, 0, 1]);
        let mut rng = Rng::seed_from(5);
        for _ in 0..20 {
            assert_eq!(rh.sample(&mut rng), Some(1));
        }
        assert_eq!(ReuseHistogram::new().sample(&mut rng), None);
    }

    #[test]
    fn display_of_classes() {
        assert_eq!(ReuseClass::Low.to_string(), "Low");
        assert_eq!(ReuseClass::Medium.to_string(), "Med");
        assert_eq!(ReuseClass::High.to_string(), "High");
    }

    #[test]
    fn serde_round_trip() {
        let rh = ReuseHistogram::from_lines([0u64, 0, 1, 1, 0]);
        let json = serde_json::to_string(&rh).expect("serialize");
        let back: ReuseHistogram = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(rh, back);
    }
}
