//! Thread hierarchy: grids, threadblocks, warps and SM residency.
//!
//! Follows the Fermi execution model the paper assumes (§2.2, §4): threads
//! are linearized per CUDA guide §G.1, grouped into 32-thread warps within
//! each threadblock, and threadblocks are distributed round-robin to cores
//! subject to per-core thread/block occupancy limits.

use crate::dim::Dim3;
use gmap_trace::record::{ThreadId, WarpId};
use serde::{Deserialize, Serialize};

/// Kernel launch geometry: grid and threadblock dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LaunchConfig {
    /// Number of threadblocks in the grid.
    pub grid: Dim3,
    /// Number of threads per threadblock.
    pub block: Dim3,
}

impl LaunchConfig {
    /// Creates a launch configuration.
    pub fn new(grid: impl Into<Dim3>, block: impl Into<Dim3>) -> Self {
        LaunchConfig {
            grid: grid.into(),
            block: block.into(),
        }
    }

    /// Threads per block.
    pub fn threads_per_block(&self) -> u32 {
        self.block.count() as u32
    }

    /// Number of threadblocks.
    pub fn num_blocks(&self) -> u32 {
        self.grid.count() as u32
    }

    /// Total scalar threads in the grid.
    pub fn total_threads(&self) -> u64 {
        self.grid.count() * self.block.count()
    }

    /// Warps per block for a given warp size, rounding up for partially
    /// filled trailing warps.
    pub fn warps_per_block(&self, warp_size: u32) -> u32 {
        self.threads_per_block().div_ceil(warp_size)
    }

    /// Total warps in the grid.
    ///
    /// # Panics
    ///
    /// On a launch [`LaunchConfig::checked_total_warps`] refuses.
    pub fn total_warps(&self, warp_size: u32) -> u32 {
        self.checked_total_warps(warp_size)
            .expect("a launch of at most u32::MAX warps")
    }

    /// Total warps in the grid, counted without wrapping: `None` when
    /// the grid holds more than `u32::MAX` warps or a block more than
    /// `u32::MAX` threads, the counts the other methods return as `u32`.
    pub fn checked_total_warps(&self, warp_size: u32) -> Option<u32> {
        let count = |d: Dim3| u128::from(d.x) * u128::from(d.y) * u128::from(d.z);
        let threads = u32::try_from(count(self.block)).ok()?;
        let warps = count(self.grid).checked_mul(u128::from(threads.div_ceil(warp_size)))?;
        u32::try_from(warps).ok()
    }

    /// The block a global warp belongs to.
    pub fn block_of_warp(&self, warp: WarpId, warp_size: u32) -> u32 {
        warp.0 / self.warps_per_block(warp_size)
    }

    /// Global thread id of a `(warp, lane)` pair, or `None` if the lane is
    /// beyond the block's thread count (a padding lane of the final partial
    /// warp).
    pub fn thread_of(&self, warp: WarpId, lane: u32, warp_size: u32) -> Option<ThreadId> {
        let wpb = self.warps_per_block(warp_size);
        let block = warp.0 / wpb;
        let warp_in_block = warp.0 % wpb;
        let t_in_block = warp_in_block * warp_size + lane;
        if t_in_block >= self.threads_per_block() {
            return None;
        }
        Some(ThreadId(block * self.threads_per_block() + t_in_block))
    }
}

/// Machine parameters of the modeled GPU.
///
/// Defaults follow Table 2 of the paper: 15 SMs, at most 1024 resident
/// threads per SM (Fermi additionally caps resident blocks; we default to
/// 8, Fermi's limit). The warp size is not a knob: every layer uses
/// [`WARP_SIZE`](crate::exec::WARP_SIZE), Table 2's 32.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct GpuConfig {
    /// Number of streaming multiprocessors.
    pub num_cores: u16,
    /// Maximum resident threads per SM.
    pub max_threads_per_core: u32,
    /// Maximum resident threadblocks per SM.
    pub max_blocks_per_core: u32,
}

impl GpuConfig {
    /// The Table 2 baseline: 15 SMs, 1024 threads/SM, 8 blocks/SM.
    pub fn fermi_baseline() -> Self {
        GpuConfig {
            num_cores: 15,
            max_threads_per_core: 1024,
            max_blocks_per_core: 8,
        }
    }

    /// How many blocks of the given launch can be resident on one SM at
    /// once (at least 1 — a block larger than the SM still runs alone).
    pub fn resident_blocks_per_core(&self, launch: &LaunchConfig) -> u32 {
        let by_threads = self.max_threads_per_core / launch.threads_per_block().max(1);
        by_threads.min(self.max_blocks_per_core).max(1)
    }
}

impl Default for GpuConfig {
    fn default() -> Self {
        GpuConfig::fermi_baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn launch_counts() {
        let l = LaunchConfig::new(10u32, 256u32);
        assert_eq!(l.threads_per_block(), 256);
        assert_eq!(l.num_blocks(), 10);
        assert_eq!(l.total_threads(), 2560);
        assert_eq!(l.warps_per_block(32), 8);
        assert_eq!(l.total_warps(32), 80);
    }

    #[test]
    fn warp_counts_past_u32_are_refused_not_wrapped() {
        // 2^27 blocks of 32 warps: 2^32 warps, one more than u32 holds.
        let l = LaunchConfig::new(1u32 << 27, 1024u32);
        assert_eq!(l.checked_total_warps(32), None);
        assert_eq!(
            LaunchConfig::new((1u32 << 27) - 1, 1024u32).checked_total_warps(32),
            Some(u32::MAX - 31)
        );
        // A grid whose block count alone overflows u64.
        let wide = LaunchConfig::new(Dim3::new(u32::MAX, u32::MAX, 2), 32u32);
        assert_eq!(wide.checked_total_warps(32), None);
        // A block of 2^32 threads.
        let tall = LaunchConfig::new(1u32, Dim3::new(1 << 16, 1 << 16, 1));
        assert_eq!(tall.checked_total_warps(32), None);
    }

    #[test]
    fn partial_warp_rounds_up() {
        let l = LaunchConfig::new(2u32, 48u32);
        assert_eq!(l.warps_per_block(32), 2);
        assert_eq!(l.total_warps(32), 4);
    }

    #[test]
    fn block_of_warp() {
        let l = LaunchConfig::new(4u32, 64u32); // 2 warps per block
        assert_eq!(l.block_of_warp(WarpId(0), 32), 0);
        assert_eq!(l.block_of_warp(WarpId(1), 32), 0);
        assert_eq!(l.block_of_warp(WarpId(2), 32), 1);
        assert_eq!(l.block_of_warp(WarpId(7), 32), 3);
    }

    #[test]
    fn thread_of_full_warp() {
        let l = LaunchConfig::new(2u32, 64u32);
        assert_eq!(l.thread_of(WarpId(0), 0, 32), Some(ThreadId(0)));
        assert_eq!(l.thread_of(WarpId(1), 31, 32), Some(ThreadId(63)));
        // Second block starts at tid 64.
        assert_eq!(l.thread_of(WarpId(2), 0, 32), Some(ThreadId(64)));
    }

    #[test]
    fn thread_of_partial_warp_pads() {
        let l = LaunchConfig::new(1u32, 48u32); // warp 1 has 16 live lanes
        assert_eq!(l.thread_of(WarpId(1), 15, 32), Some(ThreadId(47)));
        assert_eq!(l.thread_of(WarpId(1), 16, 32), None);
    }

    #[test]
    fn residency_limits() {
        let gpu = GpuConfig::fermi_baseline();
        assert_eq!(
            gpu.resident_blocks_per_core(&LaunchConfig::new(100u32, 256u32)),
            4
        );
        assert_eq!(
            gpu.resident_blocks_per_core(&LaunchConfig::new(100u32, 64u32)),
            8
        );
        // Oversized blocks still get one slot.
        assert_eq!(
            gpu.resident_blocks_per_core(&LaunchConfig::new(100u32, 2048u32)),
            1
        );
    }

    #[test]
    fn serde_round_trip() {
        let gpu = GpuConfig::fermi_baseline();
        let json = serde_json::to_string(&gpu).expect("serialize");
        assert_eq!(
            serde_json::from_str::<GpuConfig>(&json).expect("deserialize"),
            gpu
        );
    }
}
