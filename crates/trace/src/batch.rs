//! Batch-kernel selection for the vectorized hot paths.
//!
//! Four of the sweep engine's inner passes — line-address extraction,
//! histogram binning, warp coalescing, DRAM address decomposition — each
//! ship in two implementations: a straightforward *scalar* loop (the
//! reference every differential test replays against) and a *batched*
//! fixed-width kernel (8/16-lane hand-unrolled, branch-free in the lane
//! body, with a scalar tail) that the autovectorizer turns into SIMD on
//! stable Rust. The batched kernels are bit-exact by construction and by
//! test; selection only ever trades speed.
//!
//! [`default_mode`] is what production code passes: always
//! [`KernelMode::Batched`]. The scalar side runs only where a test asks
//! for it by name, as the oracle the batched kernels are compared with.
//! The stack-distance evaluators take no mode: they share [`LANES`] for
//! their chunked recency scan and are checked against a per-config replay
//! through `Cache` instead.

/// Lane width of the unrolled batch kernels.
///
/// Eight 64-bit lanes fill one AVX-512 register or two AVX2 registers;
/// the autovectorizer handles either without a width-specific code path.
pub const LANES: usize = 8;

/// Which implementation of a dual-path kernel to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelMode {
    /// The reference implementation: one element at a time.
    Scalar,
    /// The lane-unrolled implementation (8/16-wide chunks + scalar tail).
    Batched,
}

impl KernelMode {
    /// `true` for [`KernelMode::Batched`].
    #[inline]
    pub fn is_batched(self) -> bool {
        matches!(self, KernelMode::Batched)
    }
}

/// The kernel mode every production call site passes:
/// [`KernelMode::Batched`].
pub fn default_mode() -> KernelMode {
    KernelMode::Batched
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batched_is_the_default() {
        assert_eq!(default_mode(), KernelMode::Batched);
        assert!(default_mode().is_batched());
        assert!(!KernelMode::Scalar.is_batched());
    }
}
