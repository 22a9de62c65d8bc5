//! `gmap-analyze`: a static verifier for the G-MAP kernel DSL.
//!
//! The G-MAP pipeline (profile → clone → simulate) trusts its input
//! specs: the SIMT executor wraps out-of-range indices silently, runs
//! barriers under divergence without blinking, and will happily stream a
//! fully uncoalesced kernel through the cache model. This crate closes
//! that gap *before* execution:
//!
//! - [`analyze_kernel`] abstractly interprets a
//!   [`KernelDesc`](gmap_gpu::kernel::KernelDesc) and produces a
//!   [`StaticReport`]: per-PC address intervals (exact for in-bounds
//!   affine sites, whole-array for wrapping/hashed ones), 128-byte
//!   coalescing degrees, lane/warp/loop stride signatures, divergence
//!   reachability, and error findings for out-of-bounds affine indices,
//!   overlapping written arrays, size overflows and barriers that
//!   deadlock under divergence.
//!
//! Severity is two-level by design: **errors** are correctness hazards
//! and make a spec inadmissible (`gmap-serve` answers 422); **warnings**
//! are performance hazards — e.g. the kmeans workload is fully
//! uncoalesced *on purpose* (its 136 B lane stride exceeds the 128 B
//! transaction size) and must stay admissible.

#![warn(missing_docs)]

pub mod analyzer;
pub mod fixtures;
pub mod interval;
pub mod report;

pub use analyzer::analyze_kernel;
pub use interval::{ByteRange, Interval};
pub use report::{Finding, FindingKind, PatternKind, Severity, SiteReport, StaticReport};
