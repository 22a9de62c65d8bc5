//! Batch-vs-scalar differential tests for the vectorized hot kernels.
//!
//! Every dual-path kernel (SoA line extraction, histogram binning, warp
//! coalescing, DRAM address decomposition) keeps its scalar reference
//! implementation live; these tests pin the batched path to it —
//! exhaustively over every lane-tail length in `0..2×LANES`, and with
//! proptest-randomized content on top. The stack-distance evaluators have
//! one path; their scalar reference is the per-config replay through
//! `Cache`. Any disagreement is a kernel bug by definition: the batched
//! paths are required to be bit-exact, not approximately equal.

use gmap_bench::engine::CapturedAccess;
use gmap_dram::mapping::{decompose, AddressMapping, DramGeometry, MappingPlan};
use gmap_gpu::coalesce::{coalesce_addrs_into, coalesce_addrs_scalar};
use gmap_memsim::cache::{CacheConfig, ReplacementPolicy};
use gmap_memsim::stackdist::{
    evaluate_fifo_multi, evaluate_lru_multi, evaluate_lru_prefetch_multi,
    replay_per_config_prefetch, LineAccess, PrefetchSchedule, WriteMode,
};
use gmap_trace::batch::{KernelMode, LANES};
use gmap_trace::record::ByteAddr;
use gmap_trace::soa::AccessColumns;
use gmap_trace::Histogram;
use proptest::prelude::*;

#[test]
fn batched_mode_is_the_tier1_default() {
    // Production call sites pass `default_mode()`: the differential
    // tests below guard shipped code only while that is the batched side.
    assert!(gmap_trace::default_mode().is_batched());
}

// ---------------------------------------------------------------------
// SoA column kernels.
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn soa_column_kernels_match_scalar(
        rows in proptest::collection::vec(
            (0u16..12, any::<u64>(), 0u64..512, any::<bool>()),
            0..3 * LANES,
        ),
        shift in 0u32..9,
    ) {
        let cols: AccessColumns = rows
            .iter()
            .map(|&(core, addr, pc, is_write)| CapturedAccess { core, addr, pc, is_write })
            .collect();
        let mut scalar = Vec::new();
        let mut batched = Vec::new();
        cols.lines_into(shift, KernelMode::Scalar, &mut scalar);
        cols.lines_into(shift, KernelMode::Batched, &mut batched);
        prop_assert_eq!(scalar, batched);
    }
}

#[test]
fn soa_kernels_cover_every_tail_length() {
    for n in 0..2 * LANES {
        let cols: AccessColumns = (0..n)
            .map(|i| CapturedAccess {
                core: (i % 3) as u16,
                addr: (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                pc: i as u64 * 8,
                is_write: i % 2 == 0,
            })
            .collect();
        let mut scalar = Vec::new();
        let mut batched = Vec::new();
        cols.lines_into(7, KernelMode::Scalar, &mut scalar);
        cols.lines_into(7, KernelMode::Batched, &mut batched);
        assert_eq!(scalar, batched, "lines n={n}");
    }
}

// ---------------------------------------------------------------------
// Histogram binning.
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn histogram_add_slice_matches_scalar(
        values in proptest::collection::vec(-64i64..64, 0..3 * LANES),
        preload in proptest::collection::vec(-64i64..64, 0..8),
    ) {
        // Start both sides from the same non-empty histogram so merging
        // into existing counts is covered, not just the empty case.
        let base: Histogram<i64> = preload.iter().copied().collect();
        let mut scalar = base.clone();
        let mut batched = base;
        scalar.add_slice(&values, KernelMode::Scalar);
        batched.add_slice(&values, KernelMode::Batched);
        prop_assert_eq!(scalar, batched);
    }
}

#[test]
fn histogram_add_slice_covers_every_tail_length() {
    for n in 0..2 * LANES {
        let values: Vec<i64> = (0..n as i64).map(|i| (i * 7) % 5 - 2).collect();
        let mut scalar = Histogram::new();
        let mut batched = Histogram::new();
        scalar.add_slice(&values, KernelMode::Scalar);
        batched.add_slice(&values, KernelMode::Batched);
        assert_eq!(scalar, batched, "n={n}");
    }
}

// ---------------------------------------------------------------------
// Warp coalescing.
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn coalesce_matches_scalar(
        addrs in proptest::collection::vec(0u64..1 << 20, 0..3 * LANES),
        line_shift in 5u32..8,
    ) {
        let addrs: Vec<ByteAddr> = addrs.into_iter().map(ByteAddr).collect();
        let line = 1u64 << line_shift;
        let mut scalar = Vec::new();
        let mut batched = Vec::new();
        coalesce_addrs_scalar(&addrs, line, &mut scalar);
        coalesce_addrs_into(&addrs, line, KernelMode::Batched, &mut batched);
        prop_assert_eq!(scalar, batched);
    }
}

#[test]
fn coalesce_covers_every_tail_length_sorted_and_not() {
    for n in 0..2 * LANES {
        // Ascending (takes the presorted fast path) and descending
        // (forces the sort) inputs of every tail length.
        let asc: Vec<ByteAddr> = (0..n as u64).map(|i| ByteAddr(i * 48)).collect();
        let desc: Vec<ByteAddr> = asc.iter().rev().copied().collect();
        for addrs in [asc, desc] {
            let mut scalar = Vec::new();
            let mut batched = Vec::new();
            coalesce_addrs_scalar(&addrs, 128, &mut scalar);
            coalesce_addrs_into(&addrs, 128, KernelMode::Batched, &mut batched);
            assert_eq!(scalar, batched, "n={n}");
        }
    }
}

// ---------------------------------------------------------------------
// DRAM address decomposition.
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn dram_decompose_plan_matches_reference(
        addrs in proptest::collection::vec(any::<u64>(), 0..3 * LANES),
        ch_bits in 0u32..4,
        rank_bits in 0u32..2,
        bank_bits in 0u32..5,
        col_bits in 0u32..7,
        robaracoch in any::<bool>(),
    ) {
        let geom = DramGeometry {
            channels: 1 << ch_bits,
            ranks: 1 << rank_bits,
            banks: 1 << bank_bits,
            bank_groups: 1,
            columns: 1 << col_bits,
            bus_width_bytes: 8,
        };
        let mapping = if robaracoch {
            AddressMapping::RoBaRaCoCh
        } else {
            AddressMapping::ChRaBaRoCo
        };
        let plan = MappingPlan::new(&geom, mapping);
        let mut scalar = Vec::new();
        let mut batched = Vec::new();
        plan.decompose_batch(&addrs, KernelMode::Scalar, &mut scalar);
        plan.decompose_batch(&addrs, KernelMode::Batched, &mut batched);
        prop_assert_eq!(&scalar, &batched);
        // And the plan itself against the field-consuming reference.
        for (&a, loc) in addrs.iter().zip(&scalar) {
            prop_assert_eq!(*loc, decompose(a, &geom, mapping));
        }
    }
}

// ---------------------------------------------------------------------
// Stack-distance counting pass. One path: "scalar" in the names below is
// the per-config replay through `Cache`.
// ---------------------------------------------------------------------

/// One set-count class per entry. The one-set class reaches past the
/// 16 ways fixed-width rows cover (24 and 32, with narrower members
/// beside them), so its rows take the chunked scan, 3 and 4 chunks of
/// `LANES`; the 24-way member evicts once a stream touches more than two
/// dozen lines. The other two classes run on fixed-width rows.
fn small_grid(policy: ReplacementPolicy) -> Vec<CacheConfig> {
    let mut configs = Vec::new();
    for (sets, assocs) in [
        (1u64, &[1u32, 2, 3, 4, 24, 32][..]),
        (2, &[1, 2, 3, 4]),
        (4, &[1, 2, 3, 4]),
    ] {
        for &assoc in assocs {
            let size = sets * assoc as u64 * 64;
            configs.push(CacheConfig::new(size, assoc, 64, policy).expect("valid geometry"));
        }
    }
    configs
}

proptest! {
    #[test]
    fn stackdist_lru_batched_matches_scalar_and_replay(
        accs in proptest::collection::vec((0u64..32, any::<bool>()), 0..6 * LANES),
        allocate in any::<bool>(),
    ) {
        let stream: Vec<LineAccess> =
            accs.iter().map(|&(l, w)| LineAccess::new(l, w)).collect();
        let mode = if allocate { WriteMode::Allocate } else { WriteMode::NoAllocate };
        let configs = small_grid(ReplacementPolicy::Lru);
        let got = evaluate_lru_multi(&configs, &stream, mode).expect("valid grid");
        let reference = replay_per_config_prefetch(&configs, &stream, None, mode);
        prop_assert_eq!(&got.counts, &reference);
    }

    #[test]
    fn stackdist_fifo_batched_matches_scalar_and_replay(
        accs in proptest::collection::vec((0u64..32, any::<bool>()), 0..6 * LANES),
        allocate in any::<bool>(),
    ) {
        let stream: Vec<LineAccess> =
            accs.iter().map(|&(l, w)| LineAccess::new(l, w)).collect();
        let mode = if allocate { WriteMode::Allocate } else { WriteMode::NoAllocate };
        let configs = small_grid(ReplacementPolicy::Fifo);
        let got = evaluate_fifo_multi(&configs, &stream, mode).expect("valid grid");
        let reference = replay_per_config_prefetch(&configs, &stream, None, mode);
        prop_assert_eq!(&got.counts, &reference);
    }

    #[test]
    fn stackdist_prefetch_batched_matches_scalar_and_replay(
        accs in proptest::collection::vec((0u64..16, any::<bool>()), 0..2 * LANES),
        cand_lists in proptest::collection::vec(
            proptest::collection::vec(0u64..16, 0..3),
            0..2 * LANES,
        ),
        allocate in any::<bool>(),
    ) {
        let stream: Vec<LineAccess> =
            accs.iter().map(|&(l, w)| LineAccess::new(l, w)).collect();
        // Candidate lines deliberately share the demand range so the
        // candidate-equals-demand-line dedup path gets exercised.
        let mut sched = PrefetchSchedule::new();
        for i in 0..stream.len() {
            let empty = Vec::new();
            let cands = cand_lists.get(i).unwrap_or(&empty);
            sched.push(cands);
        }
        let mode = if allocate { WriteMode::Allocate } else { WriteMode::NoAllocate };
        let configs = small_grid(ReplacementPolicy::Lru);
        let got = evaluate_lru_prefetch_multi(&configs, &stream, &sched, mode)
            .expect("valid grid");
        let reference = replay_per_config_prefetch(&configs, &stream, Some(&sched), mode);
        prop_assert_eq!(&got.counts, &reference);
    }

    /// Line ids beyond 32 bits must flow through the match scan
    /// untruncated — same contract, checked against the replay.
    #[test]
    fn stackdist_wide_lines_exercise_padded_rows(
        accs in proptest::collection::vec((0u64..32, any::<bool>()), 0..6 * LANES),
        allocate in any::<bool>(),
    ) {
        const BIG: u64 = 1 << 40;
        let stream: Vec<LineAccess> =
            accs.iter().map(|&(l, w)| LineAccess::new(BIG + l, w)).collect();
        let mode = if allocate { WriteMode::Allocate } else { WriteMode::NoAllocate };
        let configs = small_grid(ReplacementPolicy::Lru);
        let got = evaluate_lru_multi(&configs, &stream, mode).expect("valid grid");
        let reference = replay_per_config_prefetch(&configs, &stream, None, mode);
        prop_assert_eq!(&got.counts, &reference);
    }
}
