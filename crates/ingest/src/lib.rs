//! Bounded-memory streaming trace ingestion for G-MAP.
//!
//! The paper's premise is compressing *real* GPU access streams into
//! statistical models — but real traces from binary instrumentation run
//! to many gigabytes and cannot be materialized as a `Vec<TraceEntry>`.
//! This crate profiles such traces in **one streaming pass** with a
//! resident trace buffer bounded by the launch geometry (see
//! [`ingestor`]), and emits —
//! from the same pass — an online per-PC pattern classification (the
//! gem-forge `MemoryAccessPattern` hierarchy) and a CUTHERMO-style
//! per-array heat-map report.
//!
//! Layers:
//!
//! - [`reader`] — incremental parsing of both trace formats: the
//!   push-based [`ChunkParser`], byte-identical in output and errors to
//!   the materializing `gmap_trace::io` readers.
//! - [`ingest`] — warp reconstruction: the launch-geometry mapping and
//!   the per-warp majority step ([`ingest::pop_warp_instruction`]) that
//!   turns per-lane access queues into coalesced warp instructions.
//! - [`ingestor`] — the push-based [`Ingestor`], the one ingest path:
//!   bounded per-warp lane queues feed that step incrementally, and the
//!   resulting [`GmapProfile`](gmap_core::profile::GmapProfile) is
//!   byte-identical to reconstructing from the whole trace at once (the
//!   reference `tests/streaming.rs` diffs against).
//! - [`classify`] — the monotone per-PC FSM (UNKNOWN → CONSTANT → LINEAR
//!   → QUADRIC → INDIRECT → RANDOM) with conditional-access tracking.
//! - [`report`] — the adaptive heat histogram, array detection, and
//!   text/JSON rendering.
//!
//! # Quickstart
//!
//! ```
//! use gmap_ingest::{Ingestor, IngestConfig};
//! use gmap_gpu::hierarchy::LaunchConfig;
//!
//! // A tiny text trace: one warp, unit stride.
//! let mut trace = String::new();
//! for tid in 0..32u32 {
//!     trace.push_str(&format!("{tid} 0x42 R {:#x}\n", 0x1000 + tid * 4));
//! }
//! let launch = LaunchConfig::new(1u32, 32u32);
//! let mut ing = Ingestor::new("demo", launch, IngestConfig::default());
//! for chunk in trace.as_bytes().chunks(7) {
//!     ing.push_bytes(chunk).expect("well-formed");
//! }
//! let outcome = ing.finish().expect("non-empty");
//! assert_eq!(outcome.profile.num_slots(), 1);
//! println!("{}", outcome.report.render_text());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod classify;
pub mod ingest;
pub mod ingestor;
pub mod reader;
pub mod report;

pub use classify::{ClassifierConfig, OnlineClassifier, PatternClass, PatternFsm, PcSummary};
pub use ingest::lane0_entries;
pub use ingestor::{
    ingest_reader, IngestConfig, IngestError, IngestOutcome, IngestStats, Ingestor,
};
pub use reader::{ChunkParser, TraceFormat, DEFAULT_CHUNK_BYTES};
pub use report::{AdaptiveHeat, ArraySummary, TraceReport};
