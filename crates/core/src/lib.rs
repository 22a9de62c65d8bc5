//! G-MAP: statistical pattern based modeling of GPU memory access streams.
//!
//! This crate implements the contribution of the DAC 2017 paper: a
//! methodology that *profiles* the memory behaviour of a GPGPU application
//! into a compact statistical 5-tuple `(Π, Q, B, P_S, P_R)` and then
//! *regenerates* ("clones") a synthetic memory access stream from nothing
//! but that profile. The clone can stand in for the original application in
//! cache/prefetcher/DRAM design-space exploration — useful when the
//! original is proprietary, or simply too large to simulate repeatedly.
//!
//! The pipeline (paper §4):
//!
//! 1. [`profiler`] — consume coalesced per-warp transaction streams and
//!    extract: dominant dynamic memory instruction profiles Π with weights
//!    Q (clustered at similarity threshold 0.9, §4.4), per-instruction base
//!    addresses B, inter-thread stride distributions `P_E` (§4.2),
//!    intra-thread stride distributions `P_A` and reuse-distance
//!    distributions `P_R` (§4.3), plus a transactions-per-access
//!    distribution so divergent/uncoalesced instructions clone faithfully.
//! 2. [`generate`] — Algorithms 1 and 2: per-warp trace synthesis from the
//!    distributions, then warp/threadblock formation per the Fermi model.
//! 3. [`model`] — drive either stream (original or clone) through the warp
//!    scheduler and the cache hierarchy of `gmap-memsim`, and the recorded
//!    memory trace through `gmap-dram`.
//! 4. [`validate`] — the paper's two validation metrics: percentage error
//!    and Pearson correlation across configuration sweeps.
//! 5. [`mod@miniaturize`] — shrink the clone (§4.6): fewer accesses per warp
//!    first, fewer warps second, trading accuracy for simulation speed
//!    (Fig. 8).
//!
//! # Quickstart
//!
//! ```
//! use gmap_core::{profile_kernel, ProfilerConfig, generate::generate_streams};
//! use gmap_gpu::workloads::{self, Scale};
//!
//! // Profile an application (here: the synthetic kmeans model).
//! let kernel = workloads::kmeans(Scale::Tiny);
//! let profile = profile_kernel(&kernel, &ProfilerConfig::default());
//!
//! // The profile alone — no trace, no source — regenerates a clone.
//! let clone = generate_streams(&profile, 42);
//! assert_eq!(clone.len() as u32, profile.launch.total_warps(profile.warp_size));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod application;
pub mod cachekey;
pub mod error;
pub mod generate;
pub mod miniaturize;
pub mod model;
pub mod profile;
pub mod profiler;
pub mod validate;

pub use application::{
    profile_application, run_application_original, run_application_proxy, AppProfile, AppSimOutcome,
};
pub use error::GmapError;
pub use miniaturize::miniaturize;
pub use model::{run_original, run_proxy, simulate_streams, SimOutcome, SimtConfig};
pub use profile::{GmapProfile, PiEntry, PiProfile};
pub use profiler::{profile_kernel, profile_kernel_with_streams, profile_streams, ProfilerConfig};
pub use validate::{compare_series, summarize, BenchmarkComparison, SweepSummary};

/// The coalescing granularity of the capture model (CUDA guide §G.4.2,
/// Fermi: 128-byte transactions).
///
/// Both the original and the clone are coalesced at this granularity
/// regardless of the simulated cache line size, exactly as the paper's
/// profiler does; caches index transactions by their own line size.
pub const COALESCE_BYTES: u64 = 128;
