//! GPU execution-model substrate for the G-MAP framework.
//!
//! The original paper profiles real CUDA applications through a modified
//! CUDA-sim. This crate is the from-scratch substitute: it models everything
//! G-MAP needs from a GPU's *execution model* — and nothing it doesn't
//! (cores are deliberately not timed in detail, exactly as in the paper):
//!
//! - [`dim`] / [`hierarchy`] — grids, threadblocks, warps and their mapping
//!   onto streaming multiprocessors, per the Fermi model and §G.1 of the
//!   CUDA programming guide that the paper follows.
//! - [`kernel`] — a small declarative DSL for GPGPU kernels: static memory
//!   instructions with affine (tid-linear) or irregular index expressions,
//!   loops, divergent branches and barrier synchronization.
//! - [`exec`] — lockstep SIMT execution of a kernel, producing per-warp
//!   dynamic memory instruction streams (the paper's *dynamic memory
//!   execution paths*).
//! - [`coalesce`] — the memory-coalescing model of CUDA guide §G.4.2:
//!   per-warp requests merge into minimal cacheline transactions.
//! - [`schedule`] — per-core warp queues and the warp scheduling policies
//!   of §4.5: loose round-robin (LRR), greedy-then-oldest (GTO), and the
//!   paper's parametric `SchedP_self` policy.
//! - [`workloads`] — 18 synthetic GPGPU benchmark models whose access
//!   signatures follow Table 1 of the paper (heartwall, backprop, kmeans,
//!   srad, ...).
//!
//! # Example
//!
//! ```
//! use gmap_gpu::workloads::{self, Scale};
//! use gmap_gpu::exec::execute_kernel;
//!
//! let kernel = workloads::kmeans(Scale::Tiny);
//! let app = execute_kernel(&kernel);
//! assert!(!app.warps.is_empty());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod app;
pub mod coalesce;
pub mod dim;
pub mod exec;
pub mod hierarchy;
pub mod kernel;
pub mod schedule;
pub mod workloads;

pub use app::Application;
pub use dim::Dim3;
pub use exec::{AppTrace, WarpEvent, WarpTrace};
pub use hierarchy::{GpuConfig, LaunchConfig};
pub use kernel::{AccessDesc, ArrayDesc, IndexExpr, KernelBuilder, KernelDesc, Pred, Stmt, Trip};
pub use schedule::{
    CoalescedAccess, FixedLatency, MemoryModel, Policy, ScheduleOutcome, WarpStream,
    WarpStreamEvent,
};
