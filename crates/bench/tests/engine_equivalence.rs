//! Property tests: the single-pass sweep engine is numerically equivalent
//! to an independent per-config replay of the captured reference stream,
//! on *randomized* grids — L1 geometry, replacement policy and stride
//! prefetcher parameters in one property, L2 geometry and stream
//! prefetcher parameters in the other.
//!
//! The oracles mirror `GpuHierarchy`'s demand paths structurally
//! (separate `request` + `demand_fill`, per-core stride prefetchers with
//! probe-then-fill candidate installation; a *banked* L2 array, not the
//! folded bank the engine evaluates) and never touch the stack-distance
//! code, so any disagreement is an engine bug, not a shared one.
//! Tolerance 1e-9: both sides count integer hits/misses, so the only
//! slack needed is the final percentage division.

use gmap_bench::engine::{self, CapturedStream};
use gmap_bench::prepare;
use gmap_core::SimtConfig;
use gmap_gpu::workloads::Scale;
use gmap_memsim::cache::AccessRequest;
use gmap_memsim::hierarchy::L1WritePolicy;
use gmap_memsim::prefetch::{
    StreamPrefetcher, StreamPrefetcherConfig, StridePrefetcher, StridePrefetcherConfig,
};
use gmap_memsim::{Cache, CacheConfig, ReplacementPolicy};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

/// One captured reference stream, shared by every proptest case: the
/// capture config is the same for every masked L1 or L2 grid, so
/// capturing per case would only re-run identical work. fwt has cores on
/// both sides of the stride-table property — on some the 64- and
/// 256-entry tables train alike, on others two PCs collide in the small
/// one — so twin points exercise both the shared and the separate pass.
fn capture() -> &'static (Arc<CapturedStream>, SimtConfig) {
    static CAPTURE: OnceLock<(Arc<CapturedStream>, SimtConfig)> = OnceLock::new();
    CAPTURE.get_or_init(|| {
        let data = prepare("fwt", Scale::Tiny, 42);
        let plan = engine::plan_single_pass(
            &gmap_bench::sweeps::l1_sweep(),
            gmap_bench::Metric::L1MissPct,
        )
        .expect("stock L1 grid plans");
        let cap =
            engine::capture_stream(&data.orig_streams, &data.kernel.launch, &plan.capture_cfg);
        (Arc::new(cap), plan.capture_cfg)
    })
}

/// Independent per-config L1 replay (the oracle).
fn direct_series(capture: &CapturedStream, configs: &[SimtConfig]) -> Vec<f64> {
    configs
        .iter()
        .map(|cfg| {
            let shift = cfg.hierarchy.l1.line_size.trailing_zeros();
            let mut l1s: Vec<Cache> = (0..capture.cores)
                .map(|_| Cache::new(cfg.hierarchy.l1))
                .collect();
            let mut pfs: Vec<Option<StridePrefetcher>> = (0..capture.cores)
                .map(|_| cfg.hierarchy.l1_prefetch.map(StridePrefetcher::new))
                .collect();
            for a in &capture.accesses {
                let line = a.addr >> shift;
                let core = a.core as usize;
                if a.is_write {
                    let (allocate_on_miss, mark_dirty) = match cfg.hierarchy.l1_write_policy {
                        L1WritePolicy::WriteThroughNoAllocate => (false, false),
                        L1WritePolicy::WriteBackAllocate => (true, true),
                    };
                    let _ = l1s[core].request(AccessRequest {
                        line,
                        is_write: true,
                        allocate_on_miss,
                        mark_dirty,
                    });
                } else {
                    let hit = l1s[core]
                        .request(AccessRequest {
                            line,
                            is_write: false,
                            allocate_on_miss: false,
                            mark_dirty: false,
                        })
                        .hit;
                    if let Some(pf) = pfs[core].as_mut() {
                        for cand in pf.observe(a.pc, line) {
                            if !l1s[core].probe(cand) {
                                l1s[core].prefetch_fill(cand);
                            }
                        }
                    }
                    if !hit {
                        l1s[core].demand_fill(line);
                    }
                }
            }
            let (acc, miss) = l1s.iter().fold((0u64, 0u64), |(a, m), c| {
                (a + c.stats().accesses, m + c.stats().misses)
            });
            if acc == 0 {
                0.0
            } else {
                miss as f64 / acc as f64 * 100.0
            }
        })
        .collect()
}

/// A random single-pass-eligible L1 config: LRU (optionally with a
/// stride prefetcher) or FIFO (never with one — the planner rejects that
/// combination).
fn l1_config() -> impl Strategy<Value = SimtConfig> {
    let geometry = (
        prop_oneof![Just(8u64), Just(16), Just(32), Just(64)],
        prop_oneof![Just(1u32), Just(2), Just(4), Just(8)],
        prop_oneof![Just(64u64), Just(128)],
    );
    // The vendored proptest subset has no `option::of`; a bool gate over
    // unconditionally drawn parameters is equivalent.
    let prefetch = (
        prop_oneof![Just(16u32), Just(64), Just(256)],
        1u32..=4,
        1u32..=4,
        1u32..=3,
    );
    (geometry, prefetch, any::<bool>(), any::<bool>()).prop_map(
        |((kb, assoc, line), pf_params, use_pf, fifo)| {
            let pf = use_pf.then_some(pf_params);
            let mut cfg = SimtConfig::default();
            let policy = if fifo && pf.is_none() {
                ReplacementPolicy::Fifo
            } else {
                ReplacementPolicy::Lru
            };
            cfg.hierarchy.l1 = CacheConfig::new(kb * 1024, assoc, line, policy)
                .expect("strategy geometry is valid");
            if policy == ReplacementPolicy::Lru {
                cfg.hierarchy.l1_prefetch =
                    pf.map(|(table, degree, distance, conf)| StridePrefetcherConfig {
                        table_size: table,
                        degree,
                        distance,
                        min_confidence: conf,
                    });
            }
            cfg
        },
    )
}

/// An L1 grid of 2–5 random points, plus a twin of every prefetching
/// point at one more table size: twins differ in nothing else, so
/// wherever the two tables train alike the engine answers one from the
/// other's pass.
fn l1_grid() -> impl Strategy<Value = Vec<SimtConfig>> {
    let twin_table = prop_oneof![Just(16u32), Just(64), Just(256)];
    (proptest::collection::vec(l1_config(), 2..=5), twin_table).prop_map(|(mut grid, table)| {
        for i in 0..grid.len() {
            let mut twin = grid[i];
            if let Some(pf) = twin.hierarchy.l1_prefetch.as_mut() {
                pf.table_size = table;
                if !grid.contains(&twin) {
                    grid.push(twin);
                }
            }
        }
        grid
    })
}

/// Independent per-config replay of the captured stream through the
/// fixed write-through L1s into a *banked* L2 array (bank = line mod
/// banks) with the shared stream prefetcher, as `GpuHierarchy::access` /
/// `l2_demand` order it — no bank folding, no derived-stream sharing.
fn direct_l2_series(capture: &CapturedStream, configs: &[SimtConfig]) -> Vec<f64> {
    configs
        .iter()
        .map(|cfg| {
            let h = &cfg.hierarchy;
            assert_eq!(h.l1_write_policy, L1WritePolicy::WriteThroughNoAllocate);
            let l1_shift = h.l1.line_size.trailing_zeros();
            let l2_shift = h.l2.line_size.trailing_zeros();
            let banks = u64::from(h.l2_banks);
            let bank_cfg = h.l2_bank_config().expect("strategy geometry splits");
            let mut l1s: Vec<Cache> = (0..capture.cores).map(|_| Cache::new(h.l1)).collect();
            let mut l2: Vec<Cache> = (0..banks).map(|_| Cache::new(bank_cfg)).collect();
            let mut pf = h.l2_prefetch.map(StreamPrefetcher::new);
            let mut l2_demand = |addr: u64, is_write: bool| {
                let line = addr >> l2_shift;
                let out = l2[(line % banks) as usize].request(AccessRequest {
                    line,
                    is_write,
                    allocate_on_miss: true,
                    mark_dirty: is_write,
                });
                if let (false, Some(pf)) = (out.hit, pf.as_mut()) {
                    for cand in pf.observe(line) {
                        let bank = &mut l2[(cand % banks) as usize];
                        if !bank.probe(cand) {
                            bank.prefetch_fill(cand);
                        }
                    }
                }
            };
            for a in &capture.accesses {
                let line = a.addr >> l1_shift;
                let l1 = &mut l1s[a.core as usize];
                let hit = l1
                    .request(AccessRequest {
                        line,
                        is_write: a.is_write,
                        allocate_on_miss: false,
                        mark_dirty: false,
                    })
                    .hit;
                if a.is_write {
                    l2_demand(a.addr, true);
                } else if !hit {
                    l2_demand(a.addr, false);
                    l1.demand_fill(line);
                }
            }
            let (acc, miss) = l2.iter().fold((0u64, 0u64), |(a, m), c| {
                (a + c.stats().accesses, m + c.stats().misses)
            });
            if acc == 0 {
                0.0
            } else {
                miss as f64 / acc as f64 * 100.0
            }
        })
        .collect()
}

/// A random L2 + stream-prefetcher point (size × line × window × degree)
/// over the stock fixed L1; 64 KB is small enough that the tiny capture
/// evicts.
fn l2_prefetch_config() -> impl Strategy<Value = SimtConfig> {
    (
        prop_oneof![Just(64u64), Just(256), Just(1024)],
        prop_oneof![Just(64u64), Just(128)],
        prop_oneof![Just(8u32), Just(16), Just(32)],
        prop_oneof![Just(1u32), Just(2), Just(4), Just(8)],
    )
        .prop_map(|(kb, line, window, degree)| {
            let mut cfg = SimtConfig::default();
            cfg.hierarchy.l2 = CacheConfig::new(kb * 1024, 8, line, ReplacementPolicy::Lru)
                .expect("strategy geometry is valid");
            cfg.hierarchy.l2_prefetch = Some(StreamPrefetcherConfig {
                num_streams: 16,
                window,
                degree,
            });
            cfg
        })
}

proptest! {
    // Each case replays the full captured stream once per config on the
    // oracle side; a handful of cases over 2–5 config grids already
    // exercises every evaluator path (LRU, FIFO, prefetch) and the
    // grouping logic between them.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn engine_matches_direct_replay_on_random_grids(
        grid in l1_grid()
    ) {
        let (cap, capture_cfg) = capture();
        let plan = engine::plan_single_pass(&grid, gmap_bench::Metric::L1MissPct)
            .expect("strategy only emits single-pass-eligible grids");
        prop_assert!(
            plan.capture_cfg == *capture_cfg,
            "every masked L1 grid shares the stock reference config"
        );
        let engine_vals = engine::eval_captured(&plan, cap, &grid).values;
        let direct_vals = direct_series(cap, &grid);
        for (i, (e, d)) in engine_vals.iter().zip(&direct_vals).enumerate() {
            prop_assert!(
                (e - d).abs() < 1e-9,
                "config {i}: engine {e} vs direct {d} (cfg {:?})",
                grid[i].hierarchy.l1
            );
        }
    }

    #[test]
    fn engine_matches_banked_replay_on_random_stream_prefetch_grids(
        grid in proptest::collection::vec(l2_prefetch_config(), 2..=4)
    ) {
        let (cap, capture_cfg) = capture();
        let plan = engine::plan_single_pass(&grid, gmap_bench::Metric::L2MissPct)
            .expect("strategy only emits single-pass-eligible grids");
        prop_assert!(
            plan.capture_cfg == *capture_cfg,
            "every masked L2 grid shares the stock reference config too"
        );
        let engine_vals = engine::eval_captured(&plan, cap, &grid).values;
        let direct_vals = direct_l2_series(cap, &grid);
        for (i, (e, d)) in engine_vals.iter().zip(&direct_vals).enumerate() {
            prop_assert!(
                (e - d).abs() < 1e-9,
                "config {i}: engine {e} vs direct {d} (cfg {:?} / {:?})",
                grid[i].hierarchy.l2,
                grid[i].hierarchy.l2_prefetch
            );
        }
    }
}
