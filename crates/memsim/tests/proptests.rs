//! Property-based tests of cache-model invariants.

use gmap_gpu::schedule::MemoryModel;
use gmap_memsim::cache::{
    AccessRequest, Cache, CacheConfig, CacheStats, ReplacementPolicy, RequestOutcome,
};
use gmap_memsim::hierarchy::{GpuHierarchy, HierarchyConfig};
use gmap_memsim::mshr::{Mshr, MshrOutcome};
use gmap_memsim::prefetch::{StreamPrefetcher, StreamPrefetcherConfig};
use gmap_memsim::stackdist::{
    evaluate_fifo_multi, evaluate_lru_multi, evaluate_lru_prefetch_multi,
    replay_lru_stream_prefetch, replay_per_config, replay_per_config_prefetch, GeomCounts,
    LineAccess, PrefetchSchedule, WriteMode,
};
use gmap_trace::record::{AccessKind, ByteAddr, CoreId, Pc};
use gmap_trace::rng::Rng;
use proptest::prelude::*;
use std::collections::BTreeMap;

fn stream_prefetcher() -> impl Strategy<Value = StreamPrefetcherConfig> {
    (1u32..=4, 1u32..=32, 1u32..=8).prop_map(|(num_streams, window, degree)| {
        StreamPrefetcherConfig {
            num_streams,
            window,
            degree,
        }
    })
}

/// Lines in two windows 2^40 apart that alias in every set index, so a
/// tag compare that dropped the high bits would show.
fn wide_line() -> impl Strategy<Value = u64> {
    (0u64..512, any::<bool>()).prop_map(|(l, high)| l + (u64::from(high) << 40))
}

/// A stream line for the single-pass evaluators: line 0 often — a valid
/// line, and the value every untouched row slot holds, so a lookup that
/// trusted a slot without its occupancy would hit on it — low lines, and
/// their twins 2^40 up, which share every set index with them.
fn eval_line() -> impl Strategy<Value = u64> {
    prop_oneof![
        1 => Just(0u64),
        6 => 0u64..512,
        2 => (0u64..512).prop_map(|l| l + (1 << 40)),
    ]
}

fn any_policy() -> impl Strategy<Value = ReplacementPolicy> {
    prop_oneof![
        Just(ReplacementPolicy::Lru),
        Just(ReplacementPolicy::Fifo),
        Just(ReplacementPolicy::PseudoLru),
        Just(ReplacementPolicy::Random),
    ]
}

/// The MSHR file as it was before it moved to a min-heap, kept as the
/// oracle of `mshr_heap_matches_btreemap_reference`: a `BTreeMap` from
/// line to completion cycle, walked whole to retire, to find the earliest
/// completion and to find the lowest line that has it. A miss allocates
/// with a provisional completion that `set_completion` then overwrites.
struct ReferenceMshr {
    capacity: usize,
    entries: BTreeMap<u64, u64>,
    merges: u64,
    full_stalls: u64,
}

impl ReferenceMshr {
    fn new(capacity: usize) -> Self {
        ReferenceMshr {
            capacity,
            entries: BTreeMap::new(),
            merges: 0,
            full_stalls: 0,
        }
    }

    fn on_miss(&mut self, line: u64, cycle: u64, completion: u64) -> MshrOutcome {
        self.entries.retain(|_, &mut done| done > cycle);
        if let Some(&done) = self.entries.get(&line) {
            self.merges += 1;
            return MshrOutcome::Merged {
                remaining: done.saturating_sub(cycle),
            };
        }
        if self.entries.len() >= self.capacity {
            self.full_stalls += 1;
            let earliest = self
                .entries
                .values()
                .copied()
                .min()
                .expect("file is non-empty");
            let stall = earliest.saturating_sub(cycle);
            let lowest = self
                .entries
                .iter()
                .find(|(_, &done)| done == earliest)
                .map(|(&line, _)| line)
                .expect("some entry has the earliest completion");
            self.entries.remove(&lowest);
            self.entries.insert(line, completion + stall);
            return MshrOutcome::Full { stall };
        }
        self.entries.insert(line, completion);
        MshrOutcome::Allocated
    }

    fn pending_remaining(&mut self, line: u64, cycle: u64) -> Option<u64> {
        match self.entries.get(&line) {
            Some(&done) if done > cycle => {
                self.merges += 1;
                Some(done - cycle)
            }
            _ => None,
        }
    }

    fn set_completion(&mut self, line: u64, completion: u64) {
        if let Some(done) = self.entries.get_mut(&line) {
            *done = completion;
        }
    }

    fn in_flight(&self, cycle: u64) -> usize {
        self.entries.values().filter(|&&done| done > cycle).count()
    }
}

/// The cache as it was before each set became a tag row with an invalid
/// sentinel and parallel stamp and flag rows, kept as the oracle of
/// `cache_matches_reference`: one 24-byte `Way` record per way, a valid
/// bit beside the tag, `find` then `fill`'s separate walks for an invalid
/// way and for the victim, and PLRU way arithmetic by division.
#[derive(Debug, Clone, Copy, Default)]
struct Way {
    tag: u64,
    valid: bool,
    dirty: bool,
    prefetched: bool,
    /// LRU/FIFO timestamp.
    stamp: u64,
}

struct ReferenceCache {
    cfg: CacheConfig,
    /// `num_sets - 1`, fixed at construction: `num_sets()` is a 64-bit
    /// division and every lookup needs the set index.
    set_mask: u64,
    ways: Vec<Way>,
    /// Per-set PLRU tree bits (assoc-1 bits packed in a u64).
    plru: Vec<u64>,
    counter: u64,
    rng: Rng,
    stats: CacheStats,
}

impl ReferenceCache {
    /// Creates an empty cache.
    fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.num_sets();
        ReferenceCache {
            cfg,
            set_mask: sets - 1,
            ways: vec![Way::default(); sets as usize * cfg.assoc as usize],
            plru: vec![0; sets as usize],
            counter: 0,
            rng: Rng::seed_from(0xCAC4E ^ cfg.size_bytes ^ (cfg.assoc as u64) << 40),
            stats: CacheStats::default(),
        }
    }

    /// Accumulated counters.
    fn stats(&self) -> &CacheStats {
        &self.stats
    }

    #[inline]
    fn set_of(&self, line: u64) -> usize {
        (line & self.set_mask) as usize
    }

    #[inline]
    fn ways_of(&mut self, set: usize) -> std::ops::Range<usize> {
        let a = self.cfg.assoc as usize;
        set * a..(set + 1) * a
    }

    /// Fully general demand access; the policy knobs compose the standard
    /// write policies (write-back = `mark_dirty`, write-through = `!mark_dirty`,
    /// write-allocate = `allocate_on_miss`).
    fn request(&mut self, req: AccessRequest) -> RequestOutcome {
        self.stats.accesses += 1;
        if req.is_write {
            self.stats.writes += 1;
        } else {
            self.stats.reads += 1;
        }
        if let Some(w) = self.find(req.line) {
            self.stats.hits += 1;
            if self.ways[w].prefetched {
                self.ways[w].prefetched = false;
                self.stats.prefetch_useful += 1;
            }
            if req.mark_dirty {
                self.ways[w].dirty = true;
            }
            self.touch(w, req.line);
            return RequestOutcome {
                hit: true,
                writeback: None,
            };
        }
        self.stats.misses += 1;
        let writeback = if req.allocate_on_miss {
            self.fill(req.line, req.mark_dirty, false)
        } else {
            None
        };
        RequestOutcome {
            hit: false,
            writeback,
        }
    }

    /// `true` if the line is resident (no state change, no stats).
    fn probe(&self, line: u64) -> bool {
        let set = self.set_of(line);
        let a = self.cfg.assoc as usize;
        self.ways[set * a..(set + 1) * a]
            .iter()
            .any(|w| w.valid && w.tag == line)
    }

    /// Fills a line from a prefetcher. Counts as a prefetch fill, not a
    /// demand access. Returns an evicted dirty line, if any. No-op (and
    /// `None`) if the line is already resident.
    fn prefetch_fill(&mut self, line: u64) -> Option<u64> {
        if self.probe(line) {
            return None;
        }
        self.stats.prefetch_fills += 1;
        self.fill(line, false, true)
    }

    /// Fills a line after a demand miss handled externally (e.g. a miss
    /// that consulted the MSHR file first). Does not touch the demand
    /// counters — the miss was already counted by the lookup. Returns an
    /// evicted dirty line, if any; no-op if the line is already resident.
    fn demand_fill(&mut self, line: u64) -> Option<u64> {
        if self.probe(line) {
            return None;
        }
        self.fill(line, false, false)
    }

    /// Invalidates a line if resident; returns `true` if it was dirty.
    fn invalidate(&mut self, line: u64) -> bool {
        if let Some(w) = self.find(line) {
            let dirty = self.ways[w].dirty;
            self.ways[w] = Way::default();
            dirty
        } else {
            false
        }
    }

    fn find(&self, line: u64) -> Option<usize> {
        let set = self.set_of(line);
        let a = self.cfg.assoc as usize;
        (set * a..(set + 1) * a).find(|&i| self.ways[i].valid && self.ways[i].tag == line)
    }

    /// Updates recency state on a hit.
    fn touch(&mut self, way_idx: usize, _line: u64) {
        match self.cfg.policy {
            ReplacementPolicy::Lru => {
                self.counter += 1;
                self.ways[way_idx].stamp = self.counter;
            }
            ReplacementPolicy::Fifo | ReplacementPolicy::Random => {}
            ReplacementPolicy::PseudoLru => {
                let a = self.cfg.assoc as usize;
                let set = way_idx / a;
                let way = way_idx % a;
                self.plru_touch(set, way);
            }
        }
    }

    /// Allocates `line`, returning a dirty victim line if one was evicted.
    fn fill(&mut self, line: u64, dirty: bool, prefetched: bool) -> Option<u64> {
        let set = self.set_of(line);
        let range = self.ways_of(set);
        // Prefer an invalid way.
        let victim = range
            .clone()
            .find(|&i| !self.ways[i].valid)
            .unwrap_or_else(|| self.pick_victim(set));
        let evicted = &self.ways[victim];
        let mut writeback = None;
        if evicted.valid {
            self.stats.evictions += 1;
            if evicted.dirty {
                self.stats.writebacks += 1;
                writeback = Some(evicted.tag);
            }
        }
        self.counter += 1;
        self.ways[victim] = Way {
            tag: line,
            valid: true,
            dirty,
            prefetched,
            stamp: self.counter,
        };
        if self.cfg.policy == ReplacementPolicy::PseudoLru {
            let a = self.cfg.assoc as usize;
            self.plru_touch(set, victim % a);
        }
        writeback
    }

    fn pick_victim(&mut self, set: usize) -> usize {
        let a = self.cfg.assoc as usize;
        let base = set * a;
        match self.cfg.policy {
            ReplacementPolicy::Lru | ReplacementPolicy::Fifo => (base..base + a)
                .min_by_key(|&i| self.ways[i].stamp)
                .expect("associativity is non-zero"),
            ReplacementPolicy::Random => base + self.rng.gen_range(a as u64) as usize,
            ReplacementPolicy::PseudoLru => base + self.plru_victim(set),
        }
    }

    /// Walks the PLRU tree toward the pseudo-least-recent way.
    fn plru_victim(&self, set: usize) -> usize {
        let a = self.cfg.assoc as usize;
        if a == 1 {
            return 0;
        }
        let bits = self.plru[set];
        let mut node = 0usize; // root of implicit binary tree
        let levels = a.trailing_zeros() as usize; // assoc must be a power of two for PLRU
        let mut way = 0usize;
        for _ in 0..levels {
            let bit = (bits >> node) & 1;
            way = (way << 1) | bit as usize;
            node = 2 * node + 1 + bit as usize;
        }
        way
    }

    /// Flips the PLRU tree bits away from the touched way.
    fn plru_touch(&mut self, set: usize, way: usize) {
        let a = self.cfg.assoc as usize;
        if a == 1 {
            return;
        }
        let levels = a.trailing_zeros() as usize;
        let mut node = 0usize;
        for level in (0..levels).rev() {
            let bit = (way >> level) & 1;
            // Point away from the visited child.
            if bit == 1 {
                self.plru[set] &= !(1 << node);
            } else {
                self.plru[set] |= 1 << node;
            }
            node = 2 * node + 1 + bit;
        }
    }
}

/// One call on a cache, for the differential test against
/// [`ReferenceCache`].
#[derive(Debug, Clone, Copy)]
enum CacheOp {
    Request(AccessRequest),
    DemandFill(u64),
    PrefetchFill(u64),
    Probe(u64),
    Invalidate(u64),
}

/// Cache calls over `wide_line()`s: mostly demand requests with every
/// combination of the write-policy knobs, the hierarchy's fills, and
/// probes and invalidations that open holes in full sets.
fn cache_ops() -> impl Strategy<Value = Vec<CacheOp>> {
    let op = prop_oneof![
        6 => (wide_line(), any::<bool>(), any::<bool>(), any::<bool>()).prop_map(
            |(line, is_write, allocate_on_miss, mark_dirty)| CacheOp::Request(AccessRequest {
                line,
                is_write,
                allocate_on_miss,
                mark_dirty,
            })
        ),
        2 => wide_line().prop_map(CacheOp::DemandFill),
        2 => wide_line().prop_map(CacheOp::PrefetchFill),
        1 => wide_line().prop_map(CacheOp::Probe),
        1 => wide_line().prop_map(CacheOp::Invalidate),
    ];
    proptest::collection::vec(op, 1..400)
}

/// Applies `ops` to the cache and to the reference, comparing every answer
/// and the counters after every step.
fn assert_cache_matches_reference(cfg: CacheConfig, ops: &[CacheOp]) {
    let mut cache = Cache::new(cfg);
    let mut reference = ReferenceCache::new(cfg);
    for (i, op) in ops.iter().enumerate() {
        match *op {
            CacheOp::Request(req) => {
                assert_eq!(
                    cache.request(req),
                    reference.request(req),
                    "step {i}: {op:?}"
                )
            }
            CacheOp::DemandFill(line) => assert_eq!(
                cache.demand_fill(line),
                reference.demand_fill(line),
                "step {i}: {op:?}"
            ),
            CacheOp::PrefetchFill(line) => assert_eq!(
                cache.prefetch_fill(line),
                reference.prefetch_fill(line),
                "step {i}: {op:?}"
            ),
            CacheOp::Probe(line) => {
                assert_eq!(cache.probe(line), reference.probe(line), "step {i}: {op:?}")
            }
            CacheOp::Invalidate(line) => assert_eq!(
                cache.invalidate(line),
                reference.invalidate(line),
                "step {i}: {op:?}"
            ),
        }
        assert_eq!(
            cache.stats(),
            reference.stats(),
            "step {i}: counters after {op:?}"
        );
    }
}

/// The hierarchy's protocol for one read miss whose fill, once a register
/// is granted, takes `latency` cycles.
fn mshr_miss(m: &mut Mshr, line: u64, cycle: u64, latency: u64) -> MshrOutcome {
    let out = m.on_miss(line, cycle);
    match out {
        MshrOutcome::Merged { .. } => {}
        MshrOutcome::Allocated => m.fill(line, cycle + latency),
        MshrOutcome::Full { stall } => m.fill(line, cycle + stall + latency),
    }
    out
}

/// One step of a random MSHR workload: `(line, cycles since the last
/// step, fill latency below the L1, hit-under-miss probe instead of a
/// miss)`. Gaps are mostly zero or tiny against latencies in the hundreds
/// so that files up to 16 registers stay full, and half the latencies are
/// one constant so that completions tie.
fn mshr_steps() -> impl Strategy<Value = Vec<(u64, u64, u64, bool)>> {
    let gap = prop_oneof![3 => Just(0u64), 3 => 0u64..4, 1 => 0u64..1000];
    let latency = prop_oneof![Just(120u64), 1u64..600];
    let probe = prop_oneof![4 => Just(false), 1 => Just(true)];
    proptest::collection::vec((0u64..64, gap, latency, probe), 1..300)
}

/// Drives the heap file and the reference through the hierarchy's
/// protocol for one read (`GpuHierarchy::access`) and compares everything
/// either can report.
fn assert_mshr_matches_reference(cap: usize, steps: &[(u64, u64, u64, bool)]) {
    const L1_HIT: u64 = 1;
    let mut heap = Mshr::new(cap);
    let mut reference = ReferenceMshr::new(cap);
    let mut cycle = 0;
    for (i, &(line, gap, latency, probe)) in steps.iter().enumerate() {
        cycle += gap;
        if probe {
            assert_eq!(
                heap.pending_remaining(line, cycle),
                reference.pending_remaining(line, cycle),
                "step {i}: hit-under-miss probe of line {line} at cycle {cycle}"
            );
        } else {
            let got = heap.on_miss(line, cycle);
            let want = reference.on_miss(line, cycle, cycle + L1_HIT);
            assert_eq!(got, want, "step {i}: miss on line {line} at cycle {cycle}");
            let stall = match got {
                MshrOutcome::Merged { .. } => None,
                MshrOutcome::Allocated => Some(0),
                MshrOutcome::Full { stall } => Some(stall),
            };
            if let Some(stall) = stall {
                let completion = cycle + L1_HIT + stall + latency;
                heap.fill(line, completion);
                reference.set_completion(line, completion);
            }
        }
        assert_eq!(heap.merges(), reference.merges, "step {i}: merges");
        assert_eq!(
            heap.full_stalls(),
            reference.full_stalls,
            "step {i}: full stalls"
        );
        assert_eq!(
            heap.in_flight(cycle),
            reference.in_flight(cycle),
            "step {i}: in flight at cycle {cycle}"
        );
        assert!(heap.in_flight(cycle) <= cap, "step {i}: over capacity");
    }
}

/// The regime the Table 2 baseline lives in: every miss after the first
/// `cap` finds the file full.
#[test]
fn mshr_heap_matches_reference_when_always_full() {
    for cap in [1, 2, 7, 16] {
        let steps: Vec<(u64, u64, u64, bool)> = (0..400u64)
            .map(|i| (i * 37 % 64, i % 2, 420 + (i % 3) * 120, i % 11 == 0))
            .collect();
        assert_mshr_matches_reference(cap, &steps);
        // Distinct lines, one per cycle: nothing merges or retires.
        let mut m = Mshr::new(cap);
        let full = (0u64..)
            .zip(&steps)
            .filter(|&(i, &(line, _, latency, _))| {
                matches!(
                    mshr_miss(&mut m, line + 64 * i, i, latency),
                    MshrOutcome::Full { .. }
                )
            })
            .count();
        assert_eq!(full, steps.len() - cap, "cap {cap}: the file stays full");
    }
}

/// Equal completions: the register of the lowest line is the one a
/// stalled miss takes, whatever order the lines arrived in.
#[test]
fn mshr_heap_matches_reference_on_completion_ties() {
    // Eight lines in a scrambled order, all completing at cycle 100, then
    // eight misses that each find the file full.
    let arrive = [5u64, 1, 7, 3, 0, 6, 2, 4];
    let mut steps: Vec<(u64, u64, u64, bool)> = arrive.iter().map(|&l| (l, 0, 99, false)).collect();
    steps.extend((8..16u64).map(|l| (l, 0, 99, false)));
    assert_mshr_matches_reference(8, &steps);

    let mut m = Mshr::new(8);
    for &l in &arrive {
        assert_eq!(mshr_miss(&mut m, l, 0, 100), MshrOutcome::Allocated);
    }
    for evicted in 0..8u64 {
        assert_eq!(
            mshr_miss(&mut m, 8 + evicted, 10, 400),
            MshrOutcome::Full { stall: 90 }
        );
        for l in 0..8u64 {
            assert_eq!(
                m.pending_remaining(l, 10).is_some(),
                l > evicted,
                "after {} stalled misses line {l}",
                evicted + 1
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The heap file answers every call as the `BTreeMap` file did:
    /// outcomes, stalls, merge remainders, counters and occupancy, from
    /// sparse traffic to a file that never has a free register.
    #[test]
    fn mshr_heap_matches_btreemap_reference(steps in mshr_steps(), cap in 1usize..=16) {
        assert_mshr_matches_reference(cap, &steps);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The tag-row cache answers every call as the `Way`-record cache did —
    /// hit, writeback, residency, dirtiness and all nine counters — under
    /// every policy, with lines that alias in every set index, over one to
    /// 32 sets of one to 16 ways (PLRU's tree included at associativities
    /// that are not powers of two).
    #[test]
    fn cache_matches_reference(
        ops in cache_ops(),
        policy in any_policy(),
        sets in prop_oneof![Just(1u64), Just(4), Just(32)],
        assoc in prop_oneof![Just(1u32), Just(2), Just(3), Just(4), Just(8), Just(16)],
    ) {
        let cfg = CacheConfig::new(sets * u64::from(assoc) * 64, assoc, 64, policy).expect("valid");
        assert_cache_matches_reference(cfg, &ops);
    }
}

proptest! {
    /// Counters stay consistent for any access stream and any policy:
    /// hits + misses = accesses, reads + writes = accesses, and the
    /// number of resident lines never exceeds the capacity.
    #[test]
    fn cache_counters_consistent(
        lines in proptest::collection::vec((0u64..256, any::<bool>()), 1..500),
        policy in any_policy(),
    ) {
        let cfg = CacheConfig::new(2048, 4, 64, policy).expect("valid");
        let mut c = Cache::new(cfg);
        for &(l, w) in &lines {
            c.access(l, w);
        }
        let s = c.stats();
        prop_assert_eq!(s.hits + s.misses, s.accesses);
        prop_assert_eq!(s.reads + s.writes, s.accesses);
        let resident = (0u64..256).filter(|&l| c.probe(l)).count() as u64;
        prop_assert!(resident <= cfg.num_lines());
        // Evictions can't exceed fills.
        prop_assert!(s.evictions <= s.misses + s.prefetch_fills);
        prop_assert!(s.writebacks <= s.evictions);
    }

    /// Immediately re-accessing a line always hits, under every policy.
    #[test]
    fn immediate_reaccess_hits(
        lines in proptest::collection::vec(0u64..1024, 1..200),
        policy in any_policy(),
    ) {
        let cfg = CacheConfig::new(4096, 4, 64, policy).expect("valid");
        let mut c = Cache::new(cfg);
        for &l in &lines {
            c.access(l, false);
            prop_assert!(c.access(l, false).is_hit(), "line {l} must hit right after fill");
        }
    }

    /// A fully-associative LRU cache of N lines never misses on a cyclic
    /// working set of at most N lines (after warmup).
    #[test]
    fn lru_holds_small_working_set(ws_size in 1usize..16) {
        let cfg = CacheConfig::new(16 * 64, 16, 64, ReplacementPolicy::Lru).expect("valid");
        let mut c = Cache::new(cfg);
        for round in 0..5 {
            for l in 0..ws_size as u64 {
                let hit = c.access(l, false).is_hit();
                if round > 0 {
                    prop_assert!(hit, "round {round}, line {l} must hit");
                }
            }
        }
    }

    /// The MSHR file never exceeds its capacity in flight.
    #[test]
    fn mshr_capacity_respected(
        misses in proptest::collection::vec((0u64..64, 0u64..1000), 1..200),
        cap in 1usize..16,
    ) {
        let mut m = Mshr::new(cap);
        let mut cycle = 0;
        for &(line, gap) in &misses {
            cycle += gap;
            mshr_miss(&mut m, line, cycle, 100);
            prop_assert!(m.in_flight(cycle) <= cap);
        }
    }

    /// Hierarchy latencies are bounded by the three-level sum, and the
    /// stats identity holds across arbitrary streams.
    #[test]
    fn hierarchy_latency_bounded(
        stream in proptest::collection::vec((0u64..(1 << 16), any::<bool>(), 0u16..4), 1..300),
    ) {
        let cfg = HierarchyConfig::fermi_baseline();
        let mut h = GpuHierarchy::new(cfg).expect("valid");
        let max_lat = cfg.l1_hit_latency + cfg.l2_hit_latency + cfg.mem_latency;
        let mut cycle = 0u64;
        for &(addr, is_write, core) in &stream {
            let kind = if is_write { AccessKind::Write } else { AccessKind::Read };
            let lat = h.access(CoreId(core), Pc(0x10), ByteAddr(addr * 128), kind, cycle);
            if is_write {
                prop_assert_eq!(lat, cfg.store_latency);
            } else {
                prop_assert!(lat >= cfg.l1_hit_latency);
                // Reads can exceed the sum only through MSHR interactions
                // (hit-under-miss waits), never by more than mem latency.
                prop_assert!(lat <= max_lat + cfg.mem_latency);
            }
            cycle += 10;
        }
        let s = h.stats();
        prop_assert_eq!(s.l1.hits + s.l1.misses, s.l1.accesses);
        prop_assert_eq!(s.l2.hits + s.l2.misses, s.l2.accesses);
    }

    /// The single-pass stack-distance evaluator's counts exactly equal
    /// direct per-config `Cache` simulation for random line streams, over
    /// a geometry grid spanning direct-mapped (assoc = 1) through fully
    /// associative (one set), under both write models. The 8-set class
    /// (1, 2, 4 and 16 ways) and the 16-set class (2, 8 and 16 ways) run
    /// on 16-slot rows and fork, under no-allocate stores, into parts on
    /// 8-, 4-, 2- and 1-slot rows, so every fixed row width meets a class
    /// that can fork.
    #[test]
    fn stackdist_matches_direct_cache_simulation(
        stream in proptest::collection::vec((eval_line(), any::<bool>()), 1..400),
        allocate in any::<bool>(),
    ) {
        let grid = [
            (64u64 * 64, 1u32), // 64 sets, direct-mapped
            (64 * 64, 64),      // 1 set, fully associative
            (8 * 64, 1),        // tiny direct-mapped
            (8 * 64, 8),        // tiny fully associative
            (16 * 64, 2),       // 8 sets, beside 1, 4 and 16 ways
            (32 * 64, 4),
            (128 * 64, 16),
            (32 * 64, 2), // 16 sets, beside 8 and 16 ways
            (128 * 64, 8),
            (256 * 64, 16),
        ];
        let configs: Vec<CacheConfig> = grid
            .iter()
            .map(|&(size, assoc)| {
                CacheConfig::new(size, assoc, 64, ReplacementPolicy::Lru).expect("valid")
            })
            .collect();
        let accesses: Vec<LineAccess> =
            stream.iter().map(|&(l, w)| LineAccess::new(l, w)).collect();
        let mode = if allocate { WriteMode::Allocate } else { WriteMode::NoAllocate };
        let result = evaluate_lru_multi(&configs, &accesses, mode).expect("uniform LRU group");
        let reference = replay_per_config(&configs, &accesses, mode);
        prop_assert_eq!(&result.counts, &reference);
        if allocate {
            // Write-allocate streams never diverge, so the fast path ran.
            prop_assert!(!result.fell_back);
        }
    }

    /// The FIFO insertion-order evaluator's counts exactly equal direct
    /// per-config simulation with `ReplacementPolicy::Fifo` — including
    /// streams that trip Bélády's anomaly and fork a class, the 8-set
    /// one (1, 2, 4 and 16 ways) up to three times and the 16-set one
    /// (2, 8 and 16 ways) up to twice.
    #[test]
    fn fifo_stackdist_matches_direct_cache_simulation(
        stream in proptest::collection::vec((eval_line(), any::<bool>()), 1..400),
        allocate in any::<bool>(),
    ) {
        let grid = [
            (64u64 * 64, 1u32),
            (64 * 64, 64),
            (8 * 64, 1),
            (8 * 64, 8),
            (16 * 64, 2),
            (32 * 64, 4),
            (128 * 64, 16),
            (32 * 64, 2),
            (128 * 64, 8),
            (256 * 64, 16),
        ];
        let configs: Vec<CacheConfig> = grid
            .iter()
            .map(|&(size, assoc)| {
                CacheConfig::new(size, assoc, 64, ReplacementPolicy::Fifo).expect("valid")
            })
            .collect();
        let accesses: Vec<LineAccess> =
            stream.iter().map(|&(l, w)| LineAccess::new(l, w)).collect();
        let mode = if allocate { WriteMode::Allocate } else { WriteMode::NoAllocate };
        let result = evaluate_fifo_multi(&configs, &accesses, mode).expect("uniform FIFO group");
        let reference = replay_per_config(&configs, &accesses, mode);
        prop_assert_eq!(&result.counts, &reference);
    }

    /// The prefetch-composed LRU evaluator exactly matches per-config
    /// replay under randomized demand streams and randomized candidate
    /// schedules (hierarchy fill order: lookup, candidates, demand fill).
    /// The 8-set class (2, 4 and 16 ways, 16-slot rows) and the 16-set
    /// class (2, 4 and 8 ways, 8-slot rows) hold three geometries each,
    /// so candidates fork them down to 4- and 2-slot parts — also after
    /// an earlier fill of the same access has changed the rows.
    #[test]
    fn prefetch_stackdist_matches_direct_cache_simulation(
        stream in proptest::collection::vec(
            ((eval_line(), any::<bool>()), proptest::collection::vec(eval_line(), 0..3)),
            1..300,
        ),
        allocate in any::<bool>(),
    ) {
        let grid = [
            (64u64 * 64, 1u32),
            (64 * 64, 64),
            (8 * 64, 4),
            (16 * 64, 2), // 8 sets, beside 4 and 16 ways
            (32 * 64, 4),
            (128 * 64, 16),
            (32 * 64, 2), // 16 sets, beside 4 and 8 ways
            (64 * 64, 4),
            (128 * 64, 8),
        ];
        let configs: Vec<CacheConfig> = grid
            .iter()
            .map(|&(size, assoc)| {
                CacheConfig::new(size, assoc, 64, ReplacementPolicy::Lru).expect("valid")
            })
            .collect();
        let mut accesses = Vec::with_capacity(stream.len());
        let mut schedule = PrefetchSchedule::new();
        for ((l, w), cands) in &stream {
            accesses.push(LineAccess::new(*l, *w));
            schedule.push(cands);
        }
        let mode = if allocate { WriteMode::Allocate } else { WriteMode::NoAllocate };
        let result = evaluate_lru_prefetch_multi(&configs, &accesses, &schedule, mode)
            .expect("uniform LRU group");
        let reference = replay_per_config_prefetch(&configs, &accesses, Some(&schedule), mode);
        prop_assert_eq!(&result.counts, &reference);
    }

    /// The live stream-prefetch replay on the recency-list kernel equals
    /// `GpuHierarchy::l2_demand` spelled out on `Cache` +
    /// `StreamPrefetcher::observe` (allocating request, then
    /// probe-then-fill per candidate): direct-mapped, 8-way and 16-way
    /// (the chunked row layout) geometries, stores included.
    #[test]
    fn stream_prefetch_replay_matches_cache_replay(
        stream in proptest::collection::vec((wide_line(), any::<bool>()), 1..400),
        sets in prop_oneof![Just(1u64), Just(4), Just(32)],
        assoc in prop_oneof![Just(1u32), Just(8), Just(16)],
        pf_cfg in stream_prefetcher(),
    ) {
        let cfg = CacheConfig::new(sets * u64::from(assoc) * 64, assoc, 64, ReplacementPolicy::Lru)
            .expect("valid");
        let accesses: Vec<LineAccess> =
            stream.iter().map(|&(l, w)| LineAccess::new(l, w)).collect();
        let mut cache = Cache::new(cfg);
        let mut pf = StreamPrefetcher::new(pf_cfg);
        for acc in &accesses {
            let out = cache.request(AccessRequest {
                line: acc.line,
                is_write: acc.is_write,
                allocate_on_miss: true,
                mark_dirty: acc.is_write,
            });
            if !out.hit {
                for cand in pf.observe(acc.line) {
                    if !cache.probe(cand) {
                        cache.prefetch_fill(cand);
                    }
                }
            }
        }
        let counts = replay_lru_stream_prefetch(&cfg, &accesses, pf_cfg).expect("LRU geometry");
        prop_assert_eq!(counts, GeomCounts::from(cache.stats()));
    }

    /// `observe_into` is `observe` without the allocation: same
    /// candidates at every step, same `issued()`.
    #[test]
    fn stream_observe_into_matches_observe(
        lines in proptest::collection::vec(wide_line(), 1..300),
        pf_cfg in stream_prefetcher(),
    ) {
        let mut owned = StreamPrefetcher::new(pf_cfg);
        let mut reusing = StreamPrefetcher::new(pf_cfg);
        // Stale content, which `observe_into` must clear.
        let mut buf = vec![u64::MAX; 3];
        for &line in &lines {
            reusing.observe_into(line, &mut buf);
            prop_assert_eq!(&owned.observe(line), &buf);
        }
        prop_assert_eq!(owned.issued(), reusing.issued());
    }
}
