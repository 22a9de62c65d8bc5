//! Property-based tests for the trace substrate's core invariants.

use gmap_trace::histogram::Histogram;
use gmap_trace::io;
use gmap_trace::record::{AccessKind, ByteAddr, MemAccess, Pc, ThreadId};
use gmap_trace::reuse::{ReuseComputer, ReuseHistogram};
use gmap_trace::rng::Rng;
use gmap_trace::stats;
use proptest::prelude::*;

/// The reuse-distance kernel `ReuseComputer` replaced, kept as its oracle:
/// a SipHash map of last-access times and a Fenwick tree over 1-based
/// timestamps, regrown by doubling from a flat mirror of the marks.
mod reference {
    use std::collections::HashMap;

    #[derive(Default)]
    struct Fenwick {
        tree: Vec<u64>,
        flat: Vec<u8>,
    }

    impl Fenwick {
        fn ensure(&mut self, n: usize) {
            if self.flat.len() < n + 1 {
                let new_len = (n + 1).next_power_of_two();
                self.flat.resize(new_len, 0);
                self.tree = vec![0; new_len];
                for i in 1..new_len {
                    self.tree[i] += self.flat[i] as u64;
                    let parent = i + (i & i.wrapping_neg());
                    if parent < new_len {
                        let child = self.tree[i];
                        self.tree[parent] += child;
                    }
                }
            }
        }

        fn add(&mut self, i: usize, delta: i64) {
            self.ensure(i);
            self.flat[i] = (self.flat[i] as i64 + delta) as u8;
            let mut i = i;
            while i < self.tree.len() {
                self.tree[i] = self.tree[i].wrapping_add(delta as u64);
                i += i & i.wrapping_neg();
            }
        }

        fn prefix(&self, i: usize) -> u64 {
            let mut i = i.min(self.tree.len().saturating_sub(1));
            let mut s = 0u64;
            while i > 0 {
                s = s.wrapping_add(self.tree[i]);
                i -= i & i.wrapping_neg();
            }
            s
        }
    }

    #[derive(Default)]
    pub struct ReuseComputer {
        last_access: HashMap<u64, usize>,
        marks: Fenwick,
        time: usize,
    }

    impl ReuseComputer {
        pub fn push(&mut self, line: u64) -> Option<u64> {
            self.time += 1;
            let t = self.time;
            let dist = match self.last_access.insert(line, t) {
                None => None,
                Some(prev) => {
                    let d = self.marks.prefix(t - 1) - self.marks.prefix(prev);
                    self.marks.add(prev, -1);
                    Some(d)
                }
            };
            self.marks.add(t, 1);
            dist
        }
    }
}

/// A stream of `len` lines over an alphabet of `alphabet` lines, each id
/// offset by `offset` (wrapping, so ids can sit just below `u64::MAX`).
/// Runs — one line repeated, or a sweep of stride 1 or 2 — start at
/// uniform draws, so distances span both short and long reuse.
fn reuse_stream(rng: &mut Rng, alphabet: u64, len: usize, offset: u64) -> Vec<u64> {
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let start = rng.gen_range(alphabet);
        let run = 1 + rng.gen_range(40) as usize;
        let stride = rng.gen_range(3);
        for k in 0..run.min(len - out.len()) {
            let line = (start + stride * k as u64) % alphabet;
            out.push(line.wrapping_add(offset));
        }
    }
    out
}

/// Streaming `push` and `from_lines` against the replaced kernel.
fn assert_matches_reference(lines: &[u64]) {
    let mut oracle = reference::ReuseComputer::default();
    let mut want_hist = ReuseHistogram::new();
    let mut rc = ReuseComputer::new();
    for (i, &line) in lines.iter().enumerate() {
        let want = oracle.push(line);
        assert_eq!(
            rc.push(line),
            want,
            "access {i} of {} (line {line})",
            lines.len()
        );
        want_hist.record(want);
    }
    assert_eq!(rc.accesses(), lines.len());
    assert_eq!(ReuseHistogram::from_lines(lines.iter().copied()), want_hist);
    // An iterator with no length hint takes the growing path.
    let unsized_iter = lines.iter().copied().filter(|_| true);
    assert_eq!(ReuseHistogram::from_lines(unsized_iter), want_hist);
}

#[test]
fn reuse_kernel_matches_the_replaced_kernel() {
    let mut rng = Rng::seed_from(27);
    // Lengths on both sides of powers of two: the timestamp bitset's
    // 64-bit words and the replaced tree's doublings.
    let lengths = [0, 1, 2, 63, 64, 65, 127, 128, 129, 4095, 4096, 4097, 20_000];
    for alphabet in [1u64, 64, 10_000] {
        for offset in [0, u64::MAX - 63, u64::MAX - 9_999, 1 << 63] {
            for &len in &lengths {
                assert_matches_reference(&reuse_stream(&mut rng, alphabet, len, offset));
            }
        }
    }
}

proptest! {
    /// Random lengths and alphabets, ids anywhere in `u64`.
    #[test]
    fn reuse_kernel_matches_reference_on_random_streams(
        alphabet in 1u64..12_000,
        len in 0usize..6_000,
        offset in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let lines = reuse_stream(&mut Rng::seed_from(seed), alphabet, len, offset);
        assert_matches_reference(&lines);
    }
}

/// Brute-force reuse-distance oracle.
fn naive_reuse(lines: &[u64]) -> Vec<Option<u64>> {
    let mut out = Vec::with_capacity(lines.len());
    for (i, &l) in lines.iter().enumerate() {
        let prev = lines[..i].iter().rposition(|&x| x == l);
        out.push(prev.map(|p| {
            let set: std::collections::HashSet<u64> = lines[p + 1..i].iter().copied().collect();
            set.len() as u64
        }));
    }
    out
}

proptest! {
    /// The Fenwick-tree reuse computer agrees with the quadratic oracle on
    /// arbitrary streams (including ones that force several tree resizes).
    #[test]
    fn reuse_matches_oracle(lines in proptest::collection::vec(0u64..32, 0..600)) {
        let mut rc = ReuseComputer::new();
        let fast: Vec<Option<u64>> = lines.iter().map(|&l| rc.push(l)).collect();
        prop_assert_eq!(fast, naive_reuse(&lines));
    }

    /// A reuse distance can never reach the number of distinct lines seen
    /// so far, and the number of cold misses equals the distinct count.
    #[test]
    fn reuse_distance_bounded_by_distinct(lines in proptest::collection::vec(0u64..16, 1..300)) {
        let mut rc = ReuseComputer::new();
        let mut cold = 0usize;
        for &l in &lines {
            match rc.push(l) {
                None => cold += 1,
                Some(d) => prop_assert!((d as usize) < rc.distinct_lines()),
            }
        }
        prop_assert_eq!(cold, rc.distinct_lines());
    }

    /// Histogram totals and frequencies are consistent.
    #[test]
    fn histogram_total_is_sum(values in proptest::collection::vec(-100i64..100, 0..200)) {
        let h: Histogram<i64> = values.iter().copied().collect();
        prop_assert_eq!(h.total(), values.len() as u64);
        let freq_sum: f64 = h.support().map(|v| h.freq_of(v)).sum();
        if !values.is_empty() {
            prop_assert!((freq_sum - 1.0).abs() < 1e-9);
        }
    }

    /// Sampling only ever returns values in the support.
    #[test]
    fn sampling_stays_in_support(
        values in proptest::collection::vec(-50i64..50, 1..50),
        seed in any::<u64>(),
    ) {
        let h: Histogram<i64> = values.iter().copied().collect();
        let sampler = h.sampler();
        let mut rng = Rng::seed_from(seed);
        for _ in 0..64 {
            let v = sampler.sample(&mut rng).expect("non-empty");
            prop_assert!(h.contains(v));
            let w = h.sample(&mut rng).expect("non-empty");
            prop_assert!(h.contains(w));
        }
    }

    /// Scaling preserves the support exactly.
    #[test]
    fn scaling_preserves_support(
        values in proptest::collection::vec(0i64..20, 1..100),
        factor in 0.01f64..4.0,
    ) {
        let mut h: Histogram<i64> = values.iter().copied().collect();
        let before: Vec<i64> = h.support().collect();
        h.scale_counts(factor);
        let after: Vec<i64> = h.support().collect();
        prop_assert_eq!(before, after);
    }

    /// Reuse histograms accumulate consistently under merge.
    #[test]
    fn reuse_histogram_merge_totals(
        a in proptest::collection::vec(0u64..8, 0..100),
        b in proptest::collection::vec(0u64..8, 0..100),
    ) {
        let ha = ReuseHistogram::from_lines(a.iter().copied());
        let hb = ReuseHistogram::from_lines(b.iter().copied());
        let mut merged = ha.clone();
        merged.merge(&hb);
        prop_assert_eq!(merged.total(), ha.total() + hb.total());
        prop_assert_eq!(merged.cold(), ha.cold() + hb.cold());
    }

    /// Pearson correlation is symmetric and bounded.
    #[test]
    fn pearson_symmetric_and_bounded(
        pairs in proptest::collection::vec((-1e6f64..1e6, -1e6f64..1e6), 2..60),
    ) {
        let xs: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        let r1 = stats::pearson(&xs, &ys);
        let r2 = stats::pearson(&ys, &xs);
        prop_assert!((-1.0..=1.0).contains(&r1));
        prop_assert!((r1 - r2).abs() < 1e-9);
    }

    /// Correlation of a series with a positive affine image of itself is 1.
    #[test]
    fn pearson_affine_invariance(
        xs in proptest::collection::vec(-1e3f64..1e3, 2..60),
        scale in 0.1f64..10.0,
        shift in -100.0f64..100.0,
    ) {
        let ys: Vec<f64> = xs.iter().map(|x| x * scale + shift).collect();
        let r = stats::pearson(&xs, &ys);
        // Constant xs degenerate to the both-constant convention (1.0).
        prop_assert!(r > 0.999 || stats::stddev(&xs) < 1e-9);
    }

    /// Text and binary trace formats round-trip arbitrary entries.
    #[test]
    fn trace_io_round_trips(
        raw in proptest::collection::vec((any::<u32>(), any::<u64>(), any::<u64>(), any::<bool>()), 0..100),
    ) {
        let entries: Vec<io::TraceEntry> = raw
            .iter()
            .map(|&(tid, pc, addr, w)| {
                let kind = if w { AccessKind::Write } else { AccessKind::Read };
                (ThreadId(tid), MemAccess { pc: Pc(pc), addr: ByteAddr(addr), kind })
            })
            .collect();
        let mut text = Vec::new();
        io::write_text(&mut text, &entries).expect("write text");
        prop_assert_eq!(&io::read_text(&text[..]).expect("read text"), &entries);
        let mut bin = Vec::new();
        io::write_binary(&mut bin, &entries).expect("write binary");
        prop_assert_eq!(&io::read_binary(&bin[..]).expect("read binary"), &entries);
    }

    /// Uniformity sanity for the PRNG: no value outside the bound, and both
    /// halves of the range are hit for non-trivial bounds.
    #[test]
    fn rng_range_hits_both_halves(seed in any::<u64>(), bound in 2u64..1000) {
        let mut rng = Rng::seed_from(seed);
        let mut low = false;
        let mut high = false;
        for _ in 0..2000 {
            let v = rng.gen_range(bound);
            prop_assert!(v < bound);
            if v < bound / 2 { low = true; } else { high = true; }
        }
        prop_assert!(low && high);
    }
}
