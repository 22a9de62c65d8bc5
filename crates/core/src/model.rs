//! End-to-end performance modeling: streams → scheduler → hierarchy →
//! (optionally) DRAM.
//!
//! This is the glue the experiments stand on. Both the original
//! application and its clone go through the *same* pipeline — exactly the
//! paper's methodology, where original and proxy are compared on the same
//! simulator:
//!
//! ```text
//! KernelDesc ──execute──▶ per-warp streams ──┐
//!                                            ├─▶ run_schedule(policy) ─▶ GpuHierarchy ─▶ stats
//! GmapProfile ──generate──▶ per-warp streams ┘                                │
//!                                                      timestamped requests ─┴─▶ DramSystem
//! ```

use crate::error::GmapError;
use crate::generate::generate_streams;
use crate::profile::GmapProfile;
use crate::COALESCE_BYTES;
use gmap_dram::{DramConfig, DramMetrics, DramSystem};
use gmap_gpu::coalesce::coalesce_app;
use gmap_gpu::exec::execute_kernel;
use gmap_gpu::hierarchy::{GpuConfig, LaunchConfig};
use gmap_gpu::kernel::KernelDesc;
use gmap_gpu::schedule::{run_schedule, Policy, ScheduleOutcome, WarpStream};
use gmap_memsim::hierarchy::{
    GpuHierarchy, HierarchyConfig, HierarchyStats, MemRequest, TraceCapture,
};
use serde::{Deserialize, Serialize};

/// Configuration of one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimtConfig {
    /// GPU machine parameters (cores, warp size, occupancy limits).
    pub gpu: GpuConfig,
    /// Cache hierarchy under evaluation.
    pub hierarchy: HierarchyConfig,
    /// Warp scheduling policy.
    pub policy: Policy,
    /// Seed for stochastic scheduling (and the clone generator in
    /// [`run_proxy`]).
    pub seed: u64,
}

impl Default for SimtConfig {
    fn default() -> Self {
        SimtConfig {
            gpu: GpuConfig::fermi_baseline(),
            hierarchy: HierarchyConfig::fermi_baseline(),
            policy: Policy::Lrr,
            seed: 1,
        }
    }
}

impl SimtConfig {
    /// Returns a copy with the given trace-capture mode. Miss-rate sweeps
    /// run with [`TraceCapture::Off`] so no `mem_trace` is materialized;
    /// DRAM experiments need [`TraceCapture::Full`].
    pub fn with_trace_capture(mut self, capture: TraceCapture) -> Self {
        self.hierarchy.trace_capture = capture;
        self
    }
}

/// Result of one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimOutcome {
    /// Cache-hierarchy counters.
    pub stats: HierarchyStats,
    /// Scheduling counters (cycles, `SchedP_self`, issue counts).
    pub schedule: ScheduleOutcome,
    /// Timestamped memory requests (only if the hierarchy recorded them).
    pub mem_trace: Vec<MemRequest>,
}

impl SimOutcome {
    /// L1 miss rate in percent (the unit of Figure 6).
    pub fn l1_miss_pct(&self) -> f64 {
        self.stats.l1_miss_rate() * 100.0
    }

    /// L2 miss rate in percent.
    pub fn l2_miss_pct(&self) -> f64 {
        self.stats.l2_miss_rate() * 100.0
    }

    /// Replays the recorded memory trace, as recorded, through a DRAM
    /// configuration (Figure 7).
    pub fn dram_metrics(&self, cfg: DramConfig) -> DramMetrics {
        DramSystem::new(cfg).run(&self.mem_trace)
    }
}

/// Executes and coalesces a kernel into per-warp transaction streams at
/// the capture granularity ([`COALESCE_BYTES`]).
pub fn original_streams(kernel: &KernelDesc) -> Vec<WarpStream> {
    coalesce_app(&execute_kernel(kernel), COALESCE_BYTES)
}

/// Simulates per-warp streams on a configuration.
///
/// # Errors
///
/// Returns [`GmapError::Config`] for invalid hierarchy geometry.
pub fn simulate_streams(
    streams: &[WarpStream],
    launch: &LaunchConfig,
    cfg: &SimtConfig,
) -> Result<SimOutcome, GmapError> {
    let mut hier = GpuHierarchy::new(cfg.hierarchy)?;
    let schedule = run_schedule(streams, launch, &cfg.gpu, cfg.policy, &mut hier, cfg.seed);
    let stats = hier.stats();
    Ok(SimOutcome {
        stats,
        schedule,
        mem_trace: hier.into_mem_trace(),
    })
}

/// Runs the original application on a configuration.
///
/// # Errors
///
/// Returns [`GmapError::Config`] for invalid hierarchy geometry.
pub fn run_original(kernel: &KernelDesc, cfg: &SimtConfig) -> Result<SimOutcome, GmapError> {
    let streams = original_streams(kernel);
    simulate_streams(&streams, &kernel.launch, cfg)
}

/// Generates and runs the clone of a profile on a configuration.
///
/// The clone stream depends only on `(profile, cfg.seed)`; the launch
/// geometry comes from the profile.
///
/// # Errors
///
/// Returns [`GmapError::Config`] for invalid hierarchy geometry.
pub fn run_proxy(profile: &GmapProfile, cfg: &SimtConfig) -> Result<SimOutcome, GmapError> {
    let streams = generate_streams(profile, cfg.seed);
    simulate_streams(&streams, &profile.launch, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::{profile_kernel, ProfilerConfig};
    use gmap_gpu::workloads::{self, Scale};
    use gmap_memsim::cache::{CacheConfig, ReplacementPolicy};

    fn quick_cfg() -> SimtConfig {
        let mut cfg = SimtConfig::default();
        cfg.hierarchy.trace_capture = TraceCapture::Full;
        cfg
    }

    #[test]
    fn original_simulation_produces_stats() {
        let k = workloads::scalarprod(Scale::Tiny);
        let out = run_original(&k, &quick_cfg()).expect("valid config");
        assert!(out.stats.l1.accesses > 0);
        assert!(out.schedule.cycles > 0);
        assert!(!out.mem_trace.is_empty());
        assert!(out.l1_miss_pct() >= 0.0 && out.l1_miss_pct() <= 100.0);
    }

    #[test]
    fn proxy_tracks_original_l1_miss_rate() {
        // The headline behaviour: clone miss rate close to the original.
        for k in [
            workloads::scalarprod(Scale::Tiny),
            workloads::kmeans(Scale::Tiny),
        ] {
            let cfg = quick_cfg();
            let orig = run_original(&k, &cfg).expect("valid config");
            let profile = profile_kernel(&k, &ProfilerConfig::default());
            let proxy = run_proxy(&profile, &cfg).expect("valid config");
            let err = (orig.l1_miss_pct() - proxy.l1_miss_pct()).abs();
            assert!(
                err < 15.0,
                "{}: L1 miss {:.1}% vs proxy {:.1}% (err {err:.1}pp)",
                k.name,
                orig.l1_miss_pct(),
                proxy.l1_miss_pct()
            );
        }
    }

    #[test]
    fn bigger_l1_reduces_miss_rate_for_reuse_heavy_app() {
        let k = workloads::kmeans(Scale::Tiny);
        let mut small = quick_cfg();
        small.hierarchy.l1 =
            CacheConfig::new(8 * 1024, 4, 128, ReplacementPolicy::Lru).expect("valid");
        let mut big = quick_cfg();
        big.hierarchy.l1 =
            CacheConfig::new(128 * 1024, 4, 128, ReplacementPolicy::Lru).expect("valid");
        let m_small = run_original(&k, &small)
            .expect("valid config")
            .l1_miss_pct();
        let m_big = run_original(&k, &big).expect("valid config").l1_miss_pct();
        assert!(
            m_big <= m_small,
            "bigger L1 should not miss more: {m_big} vs {m_small}"
        );
    }

    #[test]
    fn dram_replay_from_sim_outcome() {
        let k = workloads::srad(Scale::Tiny);
        let out = run_original(&k, &quick_cfg()).expect("valid config");
        let m = out.dram_metrics(DramConfig::table2_baseline());
        assert_eq!(m.requests as usize, out.mem_trace.len());
        assert!(m.avg_read_latency > 0.0);
    }

    #[test]
    fn simulation_is_deterministic() {
        let k = workloads::backprop(Scale::Tiny);
        let cfg = quick_cfg();
        let a = run_original(&k, &cfg).expect("valid config");
        let b = run_original(&k, &cfg).expect("valid config");
        assert_eq!(a, b);
        let p = profile_kernel(&k, &ProfilerConfig::default());
        let c = run_proxy(&p, &cfg).expect("valid config");
        let d = run_proxy(&p, &cfg).expect("valid config");
        assert_eq!(c, d);
    }

    #[test]
    fn gto_policy_raises_sched_p_self() {
        // A kernel whose accesses nearly always hit L1 (tiny working set,
        // long reuse loop): the greedy warp is ready again next cycle, so
        // GTO keeps re-issuing it while LRR rotates. A streaming workload
        // would show ~0 for both policies.
        use gmap_gpu::kernel::{dsl, KernelBuilder};
        let k = KernelBuilder::new("hot", 4u32, 128u32)
            .array("small", 1024)
            .stmt(dsl::loop_n(
                64,
                vec![dsl::read(0x10, 0, dsl::affine(0, 1, vec![]))],
            ))
            .build()
            .expect("valid");
        let mut lrr = quick_cfg();
        lrr.policy = Policy::Lrr;
        let mut gto = quick_cfg();
        gto.policy = Policy::Gto;
        let p_lrr = run_original(&k, &lrr)
            .expect("valid config")
            .schedule
            .sched_p_self;
        let p_gto = run_original(&k, &gto)
            .expect("valid config")
            .schedule
            .sched_p_self;
        assert!(p_gto > p_lrr, "GTO SchedP_self {p_gto} <= LRR {p_lrr}");
    }
}
