//! Test support shared by the G-MAP crates' integration tests.
//!
//! - [`kernel`] is the workspace's one random-kernel generator: a seed
//!   in, a valid [`KernelDesc`](gmap_gpu::kernel::KernelDesc) out. The
//!   executor, the analyzer and the profile → clone pipeline are all
//!   checked on its draws; a property that holds only on a subclass of
//!   kernels filters the draws inside its own test.
//! - [`verify_against_trace`] is the analyzer's self-check: every
//!   address the executor emits must lie inside the static interval of
//!   its PC.
//!
//! This crate is a dev-dependency only, and only of integration tests
//! (`tests/` directories): a crate's own `#[cfg(test)]` units would link
//! a second copy of that crate through it, whose types do not unify.

mod kernels;
mod selfcheck;

pub use kernels::kernel;
pub use selfcheck::{verify_against_trace, SelfCheckViolation};
