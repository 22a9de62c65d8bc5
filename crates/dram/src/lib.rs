//! Cycle-level DRAM model for G-MAP's memory-system experiments.
//!
//! The paper uses Ramulator to sweep GDDR5 configurations (Fig. 7),
//! comparing three metrics between original applications and their G-MAP
//! clones: DRAM row-buffer locality (RBL), average memory-controller queue
//! length, and average read/write latency. This crate is the from-scratch
//! substitute:
//!
//! - [`timing`] — GDDR-style timing parameter sets (tRCD/tCAS/tRP/tRAS...):
//!   the Table 2 baseline (`11-11-11-28` at 924 MHz) and the GDDR5 set of
//!   the Figure 7 sweep.
//! - [`mapping`] — the two address-decomposition schemes the paper sweeps:
//!   `RoBaRaCoCh` and `ChRaBaRoCo`.
//! - [`dram`] — per-channel controllers with open-page row-buffer state
//!   machines and FR-FCFS scheduling (the Table 2 controller, the only
//!   policy), replaying the requests `gmap-memsim` records as recorded
//!   and producing [`dram::DramMetrics`].
//!
//! Both sides speak one record, [`MemRequest`](gmap_trace::record::MemRequest);
//! [`DramRequest`] is that record under the controller's name.
//!
//! # Example
//!
//! ```
//! use gmap_dram::{DramConfig, DramSystem, DramRequest};
//! use gmap_trace::record::{AccessKind, ByteAddr};
//!
//! let sys = DramSystem::new(DramConfig::gddr5_baseline());
//! let reqs: Vec<DramRequest> = (0..64)
//!     .map(|i| DramRequest { cycle: i * 4, addr: ByteAddr(i * 128), kind: AccessKind::Read })
//!     .collect();
//! let metrics = sys.run(&reqs);
//! assert_eq!(metrics.requests, 64);
//! assert!(metrics.rbl > 0.0); // sequential stream has row locality
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod dram;
pub mod mapping;
pub mod timing;

pub use dram::{DramConfig, DramMetrics, DramSystem};
pub use gmap_trace::record::MemRequest as DramRequest;
pub use mapping::{AddressMapping, DramGeometry, DramLoc};
pub use timing::DramTiming;
