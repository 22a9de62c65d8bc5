//! Property-based tests of cache-model invariants.

use gmap_gpu::schedule::MemoryModel;
use gmap_memsim::cache::{AccessRequest, Cache, CacheConfig, ReplacementPolicy};
use gmap_memsim::hierarchy::{GpuHierarchy, HierarchyConfig};
use gmap_memsim::mshr::Mshr;
use gmap_memsim::prefetch::{StreamPrefetcher, StreamPrefetcherConfig};
use gmap_memsim::stackdist::{
    evaluate_fifo_multi, evaluate_lru_multi, evaluate_lru_prefetch_multi,
    replay_lru_stream_prefetch, replay_per_config, replay_per_config_prefetch, GeomCounts,
    LineAccess, PrefetchSchedule, WriteMode,
};
use gmap_trace::record::{AccessKind, ByteAddr, CoreId, Pc};
use proptest::prelude::*;

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

fn any_policy() -> impl Strategy<Value = ReplacementPolicy> {
    prop_oneof![
        Just(ReplacementPolicy::Lru),
        Just(ReplacementPolicy::Fifo),
        Just(ReplacementPolicy::PseudoLru),
        Just(ReplacementPolicy::Random),
    ]
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
            m.on_miss(line, cycle, cycle + 100);
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
    /// associative (one set), under both write models.
    #[test]
    fn stackdist_matches_direct_cache_simulation(
        stream in proptest::collection::vec((0u64..512, any::<bool>()), 1..400),
        allocate in any::<bool>(),
    ) {
        let grid = [
            (64u64 * 64, 1u32), // 64 sets, direct-mapped
            (64 * 64, 64),      // 1 set, fully associative
            (8 * 64, 1),        // tiny direct-mapped
            (8 * 64, 8),        // tiny fully associative
            (32 * 64, 4),
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
    /// streams that trip Bélády's anomaly and force the internal replay
    /// fallback.
    #[test]
    fn fifo_stackdist_matches_direct_cache_simulation(
        stream in proptest::collection::vec((0u64..512, any::<bool>()), 1..400),
        allocate in any::<bool>(),
    ) {
        let grid = [
            (64u64 * 64, 1u32),
            (64 * 64, 64),
            (8 * 64, 1),
            (8 * 64, 8),
            (32 * 64, 4),
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
    #[test]
    fn prefetch_stackdist_matches_direct_cache_simulation(
        stream in proptest::collection::vec(
            ((0u64..384, any::<bool>()), proptest::collection::vec(0u64..384, 0..3)),
            1..300,
        ),
        allocate in any::<bool>(),
    ) {
        let grid = [
            (64u64 * 64, 1u32),
            (64 * 64, 64),
            (8 * 64, 4),
            (32 * 64, 4),
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
