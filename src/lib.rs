//! G-MAP: statistical pattern based modeling of GPU memory access streams.
//!
//! This is the façade crate of the workspace: it re-exports every
//! sub-crate under one roof so applications can depend on `gmap` alone.
//!
//! A reproduction of Panda, Zheng, Wang, Gerstlauer and John,
//! *"Statistical Pattern Based Modeling of GPU Memory Access Streams"*,
//! DAC 2017.
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`core`] | `gmap-core` | profiler, proxy generator, miniaturization, validation |
//! | [`gpu`] | `gmap-gpu` | GPU execution model, kernel DSL, 18 synthetic workloads |
//! | [`memsim`] | `gmap-memsim` | multi-core cache hierarchy, MSHRs, prefetchers |
//! | [`dram`] | `gmap-dram` | GDDR DRAM model with FR-FCFS controllers |
//! | [`trace`] | `gmap-trace` | records, histograms, reuse distance, statistics |
//! | [`mod@bench`] | `gmap-bench` | single-pass multi-config sweep engine |
//! | [`analyze`] | `gmap-analyze` | static verifier for the kernel DSL |
//! | [`ingest`] | `gmap-ingest` | streaming trace ingestion, online pattern classification |
//! | [`serve`] | `gmap-serve` | concurrent model-cloning HTTP service |
//!
//! # Quickstart
//!
//! Profile an application, regenerate a clone from the statistics alone,
//! and check that the clone's cache behaviour matches:
//!
//! ```
//! use gmap::core::{profile_kernel, run_original, run_proxy, ProfilerConfig, SimtConfig};
//! use gmap::gpu::workloads::{self, Scale};
//!
//! # fn main() -> Result<(), gmap::core::GmapError> {
//! let kernel = workloads::kmeans(Scale::Tiny);
//! let cfg = SimtConfig::default();
//!
//! let original = run_original(&kernel, &cfg)?;
//! let profile = profile_kernel(&kernel, &ProfilerConfig::default());
//! let clone = run_proxy(&profile, &cfg)?;
//!
//! let error = (original.l1_miss_pct() - clone.l1_miss_pct()).abs();
//! assert!(error < 15.0, "clone should track the original within a few points");
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub use gmap_analyze as analyze;
pub use gmap_bench as bench;
pub use gmap_core as core;
pub use gmap_dram as dram;
pub use gmap_gpu as gpu;
pub use gmap_ingest as ingest;
pub use gmap_memsim as memsim;
pub use gmap_serve as serve;
pub use gmap_trace as trace;
