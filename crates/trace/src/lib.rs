//! Trace and statistics substrate for the G-MAP framework.
//!
//! This crate provides the data-plane vocabulary shared by every other crate
//! in the workspace:
//!
//! - [`record`] — newtypes and records for memory accesses ([`Pc`],
//!   [`ThreadId`], [`WarpId`], [`ByteAddr`], [`MemAccess`], ...), and the
//!   [`record::MemRequest`] the L2 sends toward memory and DRAM replays. Strong
//!   types keep program counters, thread indices and addresses from being
//!   confused for one another across crate boundaries.
//! - [`histogram`] — a discrete [`Histogram`] with weighted sampling,
//!   dominant-value queries and count scaling (the basis of every statistical
//!   profile distribution in the paper's 5-tuple `(Π, Q, B, P_S, P_R)`).
//! - [`reuse`] — exact LRU stack-distance (reuse-distance) computation after
//!   Mattson et al., the temporal-locality model of G-MAP §4.3, in
//!   `O(N log N)` via a Fenwick tree.
//! - [`stats`] — Pearson correlation and error metrics, the paper's two
//!   validation measures (§5).
//! - [`rng`] — a small, seedable, deterministic PRNG so that every proxy
//!   generation and experiment in the workspace is bit-reproducible.
//! - [`io`] — plain-text and binary readers/writers for per-thread traces.
//! - [`soa`] — structure-of-arrays storage for captured access streams
//!   ([`AccessColumns`]) with a row-wise [`AccessRecord`] view shim.
//! - [`batch`] — the [`KernelMode`] switch between the scalar reference
//!   loops and the lane-unrolled batch kernels of four hot passes (line
//!   extraction, histogram binning, coalescing, DRAM decomposition).
//!
//! # Example
//!
//! Reproducing the reuse-distance example of Figure 5 of the paper:
//!
//! ```
//! use gmap_trace::reuse::ReuseComputer;
//!
//! // Accesses X[0] X[1] X[2] X[3] X[1] X[2] X[3] X[0], two elements per line.
//! let lines = [0u64, 0, 1, 1, 0, 1, 1, 0];
//! let mut rc = ReuseComputer::new();
//! let dists: Vec<Option<u64>> = lines.iter().map(|&l| rc.push(l)).collect();
//! assert_eq!(
//!     dists,
//!     [None, Some(0), None, Some(0), Some(1), Some(1), Some(0), Some(1)]
//! );
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod batch;
pub mod histogram;
pub mod io;
pub mod record;
pub mod reuse;
pub mod rng;
pub mod soa;
pub mod stats;

pub use batch::{default_mode, KernelMode};
pub use histogram::{HistSampler, Histogram};
pub use record::{AccessKind, ByteAddr, CoreId, LineAddr, MemAccess, Pc, ThreadId, WarpId};
pub use reuse::{ReuseClass, ReuseComputer, ReuseHistogram};
pub use rng::Rng;
pub use soa::{AccessColumns, AccessRecord};
pub use stats::LatencyHistogram;
