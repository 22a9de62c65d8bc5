//! Warp reconstruction: from flat per-thread entries to warp-level
//! instructions.
//!
//! G-MAP's profiler consumes *coalesced warp streams*, but third-party
//! tracers (binary instrumentation, simulator hooks) typically emit flat
//! per-thread access lists — the `gmap-trace::io` formats. This module
//! reconstructs the warp-level view: threads are grouped into warps by the
//! launch geometry, each warp's lanes are replayed in lockstep (the k-th
//! access of every lane at the same PC forms one warp-level dynamic
//! instruction), and the per-lane requests are coalesced per CUDA §G.4.2.
//!
//! Divergence is handled by majority: when lane fronts disagree on the
//! next PC, the most common front PC forms the instruction with the lanes
//! that agree; the rest wait. Equal lane counts are broken deterministically
//! toward the **lowest PC** (see [`pop_warp_instruction`]). This
//! reconstructs exactly the SIMT order for traces produced by lockstep
//! execution, and degrades gracefully for approximately-ordered traces.
//!
//! [`Ingestor`](crate::Ingestor) is the one caller: it keeps the per-warp
//! lane queues and drives the per-warp step ([`pop_warp_instruction`])
//! with the geometry mapping ([`warp_lane_of`], [`live_lanes`]). The items
//! are public for the reference implementations under `tests/`.

use gmap_gpu::coalesce::coalesce_addrs;
use gmap_gpu::hierarchy::LaunchConfig;
use gmap_gpu::schedule::{CoalescedAccess, Lines, WarpStream, WarpStreamEvent};
use gmap_trace::io::TraceEntry;
use gmap_trace::record::{ByteAddr, MemAccess, Pc};
use std::collections::VecDeque;

/// Threads per warp — the profiler contract, and what every trace this
/// crate ingests was recorded under: the executor's own constant.
pub use gmap_gpu::exec::WARP_SIZE;

/// Maps a global thread id to its `(warp, lane)` under the launch
/// geometry, or `None` when the tid falls outside it.
///
/// Warp numbering is global and block-major: warp = `block *
/// warps_per_block + in_block_tid / WARP_SIZE`, lane = `in_block_tid %
/// WARP_SIZE` — the same mapping the execution substrate uses.
pub fn warp_lane_of(tid: u32, launch: &LaunchConfig) -> Option<(u32, usize)> {
    let tid = tid as u64;
    if tid >= launch.total_threads() {
        return None;
    }
    let tpb = launch.threads_per_block();
    let block = (tid / tpb as u64) as u32;
    let in_block = (tid % tpb as u64) as u32;
    let warp = block * launch.warps_per_block(WARP_SIZE) + in_block / WARP_SIZE;
    Some((warp, (in_block % WARP_SIZE) as usize))
}

/// The inverse direction, for writing a trace this crate reads back:
/// flattens coalesced warp streams into thread-trace entries, each
/// transaction attributed to its warp's lane-0 thread. `gmap clone`
/// writes its traces this way; ingesting one under the same launch
/// yields the streams' own model.
pub fn lane0_entries(streams: &[WarpStream], launch: &LaunchConfig) -> Vec<TraceEntry> {
    let mut out = Vec::new();
    for s in streams {
        let tid = launch
            .thread_of(s.warp, 0, WARP_SIZE)
            .expect("lane 0 is never a padding lane");
        for e in &s.events {
            if let WarpStreamEvent::Access(a) = e {
                let (pc, kind) = (a.pc, a.kind);
                out.extend(
                    a.lines
                        .iter()
                        .map(|&addr| (tid, MemAccess { pc, addr, kind })),
                );
            }
        }
    }
    out
}

/// Number of lanes of `warp` that map to real threads of the launch (the
/// final warp of a block is partial when `threads_per_block` is not a
/// multiple of [`WARP_SIZE`]).
pub fn live_lanes(warp: u32, launch: &LaunchConfig) -> u32 {
    let wpb = launch.warps_per_block(WARP_SIZE);
    let tpb = launch.threads_per_block();
    if warp / wpb >= launch.num_blocks() {
        return 0;
    }
    let base = (warp % wpb) * WARP_SIZE;
    tpb.saturating_sub(base).min(WARP_SIZE)
}

/// Most lanes [`pop_warp_instruction`] takes: the non-empty-lane mask is
/// a `u64`.
pub const MAX_WARP_LANES: u32 = 64;
const _: () = assert!(WARP_SIZE <= MAX_WARP_LANES);

/// Pops the next warp-level dynamic instruction from a warp's per-lane
/// access queues, or `None` once every lane is drained. Returns the
/// instruction and the number of lanes that took part in it.
///
/// `nonempty` has bit `l` set iff `queues[l]` is non-empty: the caller
/// sets a bit when it pushes, this step clears one when a pop empties
/// its lane, and only set bits are walked — a warp with one active lane
/// costs one lane, not `queues.len()`.
///
/// The front PC of each non-empty lane votes; the PC with the most lanes
/// forms the instruction, those lanes pop, and their addresses are
/// coalesced into line transactions. **Tie-break:** when two front PCs tie
/// on lane count, the *lowest* PC wins — the maximum of `(count,
/// Reverse(pc))`, a total order over the tally — so reconstruction never
/// depends on lane order or on any container's iteration order (the
/// determinism contract covers warp streams). A single voter wins
/// outright, and its one address coalesces to its own line.
///
/// A one-line instruction allocates nothing; a wider one allocates its
/// `lines`.
pub fn pop_warp_instruction(
    queues: &mut [VecDeque<MemAccess>],
    nonempty: &mut u64,
    line_size: u64,
) -> Option<(CoalescedAccess, u32)> {
    const LANES: usize = MAX_WARP_LANES as usize;
    let voters = *nonempty;
    if voters == 0 {
        return None;
    }
    if voters.is_power_of_two() {
        let lane = voters.trailing_zeros() as usize;
        let a = queues[lane].pop_front().expect("mask bit set: lane queued");
        if queues[lane].is_empty() {
            *nonempty = 0;
        }
        let access = CoalescedAccess {
            pc: a.pc,
            kind: a.kind,
            lines: Lines::one(a.addr.line_base(line_size)),
        };
        return Some((access, 1));
    }
    // Distinct front PCs never outnumber the voters, so the tally fits.
    let mut tally = [(Pc(0), 0u32); LANES];
    let mut distinct = 0;
    let mut bits = voters;
    while bits != 0 {
        let lane = bits.trailing_zeros() as usize;
        bits &= bits - 1;
        let pc = queues[lane].front().expect("mask bit set: lane queued").pc;
        match tally[..distinct].iter_mut().find(|(p, _)| *p == pc) {
            Some((_, count)) => *count += 1,
            None => {
                tally[distinct] = (pc, 1);
                distinct += 1;
            }
        }
    }
    let &(pc, _) = tally[..distinct]
        .iter()
        .max_by_key(|(pc, count)| (*count, std::cmp::Reverse(pc.0)))
        .expect("at least two voters");
    let mut addrs = [ByteAddr(0); LANES];
    let mut popped = 0;
    let mut kind = None;
    let mut bits = voters;
    while bits != 0 {
        let lane = bits.trailing_zeros() as usize;
        bits &= bits - 1;
        let q = &mut queues[lane];
        if q.front().is_some_and(|a| a.pc == pc) {
            let a = q.pop_front().expect("front checked");
            addrs[popped] = a.addr;
            popped += 1;
            kind.get_or_insert(a.kind);
            if q.is_empty() {
                *nonempty &= !(1 << lane);
            }
        }
    }
    let access = CoalescedAccess {
        pc,
        kind: kind.expect("the winning PC has at least one lane"),
        lines: coalesce_addrs(&addrs[..popped], line_size).into(),
    };
    Some((access, popped as u32))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ingest_reader, IngestConfig, IngestError, IngestOutcome, Ingestor};
    use gmap_core::cachekey::canonical_json;
    use gmap_trace::io::{write_binary, write_text, TraceEntry};
    use gmap_trace::record::ThreadId;
    use proptest::prelude::*;

    /// One warp's lane queues and non-empty mask from `(lane, pc, addr)`
    /// loads, each lane's in program order.
    fn warp_of(
        accesses: impl IntoIterator<Item = (usize, u64, u64)>,
    ) -> (Vec<VecDeque<MemAccess>>, u64) {
        let mut queues = vec![VecDeque::new(); WARP_SIZE as usize];
        let mut nonempty = 0;
        for (lane, pc, addr) in accesses {
            queues[lane].push_back(MemAccess::read(Pc(pc), ByteAddr(addr)));
            nonempty |= 1 << lane;
        }
        (queues, nonempty)
    }

    /// Pops the warp dry: `(pc, participants)` per instruction, in order.
    fn drain((mut queues, mut nonempty): (Vec<VecDeque<MemAccess>>, u64)) -> Vec<(Pc, u32)> {
        std::iter::from_fn(|| pop_warp_instruction(&mut queues, &mut nonempty, 128))
            .map(|(access, participants)| (access.pc, participants))
            .collect()
    }

    /// 2 warps x 32 threads, unit stride, two instructions per thread.
    fn lockstep_entries() -> Vec<TraceEntry> {
        let mut out = Vec::new();
        for tid in 0..64u32 {
            let at = |pc, base: u64| MemAccess::read(Pc(pc), ByteAddr(base + u64::from(tid) * 4));
            out.push((ThreadId(tid), at(0x10, 0x1000)));
            out.push((ThreadId(tid), at(0x20, 0x9000)));
        }
        out
    }

    /// The step's one caller, fed entry by entry.
    fn ingest(entries: &[TraceEntry], launch: LaunchConfig) -> Result<IngestOutcome, IngestError> {
        let mut ing = Ingestor::new("ingested", launch, IngestConfig::default());
        for &e in entries {
            ing.push_entry(e);
        }
        ing.finish()
    }

    #[test]
    fn lockstep_trace_reconstructs_two_instructions_per_warp() {
        let outcome =
            ingest(&lockstep_entries(), LaunchConfig::new(1u32, 64u32)).expect("valid trace");
        let report = &outcome.report;
        assert_eq!(
            (report.warps, report.instructions, report.transactions),
            (2, 4, 4),
            "unit stride fully coalesces"
        );
        let per_pc: Vec<_> = report
            .pcs
            .iter()
            .map(|p| (p.pc, p.instructions, p.transactions, p.conditional))
            .collect();
        assert_eq!(per_pc, [(0x10, 2, 2, false), (0x20, 2, 2, false)]);
    }

    #[test]
    fn divergent_lanes_split_by_majority() {
        // Lanes 0..8 execute PC 0x30 before rejoining at 0x40; the rest go
        // straight to 0x40.
        let lanes = (0..32usize).flat_map(|lane| {
            let detour = (lane < 8).then_some((lane, 0x30, 0x2000 + lane as u64 * 4));
            detour
                .into_iter()
                .chain([(lane, 0x40, 0x3000 + lane as u64 * 4)])
        });
        // Majority first: 0x40 with 24 lanes, then 0x30, then the
        // remaining 0x40 lanes.
        assert_eq!(
            drain(warp_of(lanes)),
            [(Pc(0x40), 24), (Pc(0x30), 8), (Pc(0x40), 8)]
        );
    }

    #[test]
    fn equal_lane_counts_break_toward_lowest_pc() {
        // 16 lanes front PC 0x50, 16 lanes front PC 0x20: a perfect tie.
        // The lowest PC must win regardless of lane order.
        let lanes = (0..32usize).map(|lane| {
            let pc = if lane % 2 == 0 { 0x50 } else { 0x20 };
            (lane, pc, 0x4000 + lane as u64 * 4)
        });
        assert_eq!(drain(warp_of(lanes)), [(Pc(0x20), 16), (Pc(0x50), 16)]);
    }

    #[test]
    fn geometry_helpers_agree_with_reconstruction() {
        let launch = LaunchConfig::new(2u32, 48u32); // 2 warps/block, 2nd partial
        assert_eq!(warp_lane_of(0, &launch), Some((0, 0)));
        assert_eq!(warp_lane_of(47, &launch), Some((1, 15)));
        assert_eq!(warp_lane_of(48, &launch), Some((2, 0)));
        assert_eq!(warp_lane_of(96, &launch), None);
        assert_eq!(live_lanes(0, &launch), 32);
        assert_eq!(live_lanes(1, &launch), 16);
        assert_eq!(live_lanes(3, &launch), 16);
        assert_eq!(live_lanes(4, &launch), 0, "beyond the grid");
    }

    #[test]
    fn out_of_range_threads_ignored() {
        let mut entries = lockstep_entries(); // tids up to 63
        entries.push((ThreadId(999), MemAccess::read(Pc(0x10), ByteAddr(0))));
        let outcome = ingest(&entries, LaunchConfig::new(1u32, 32u32)).expect("valid trace");
        assert_eq!(
            outcome.report.warps, 1,
            "only warp 0 fits the 32-thread launch"
        );
        assert_eq!((outcome.stats.entries, outcome.stats.skipped), (129, 65));
    }

    #[test]
    fn profile_from_thread_trace() {
        let p = ingest(&lockstep_entries(), LaunchConfig::new(1u32, 64u32))
            .expect("valid trace")
            .profile;
        assert_eq!(p.num_slots(), 2);
        let slot = p.slot_of(Pc(0x10)).expect("profiled");
        assert_eq!(p.inter_stride[slot].dominant().expect("non-empty").0, 128);
    }

    #[test]
    fn empty_trace_rejected() {
        let err = ingest(&[], LaunchConfig::new(1u32, 32u32));
        assert!(matches!(err, Err(IngestError::Profile(_))), "got {err:?}");
    }

    #[test]
    fn round_trip_through_io_formats() {
        let entries = lockstep_entries();
        let launch = LaunchConfig::new(1u32, 64u32);
        let direct = ingest(&entries, launch).expect("valid trace");
        let mut binary = Vec::new();
        write_binary(&mut binary, &entries).expect("write");
        let mut text = Vec::new();
        write_text(&mut text, &entries).expect("write");
        for bytes in [binary, text] {
            let back = ingest_reader("ingested", &bytes[..], &launch, IngestConfig::default())
                .expect("valid trace");
            assert_eq!(
                canonical_json(&back.profile),
                canonical_json(&direct.profile)
            );
            assert_eq!(back.report.pcs, direct.report.pcs);
        }
    }

    proptest! {
        /// The first reconstructed instruction is always the majority front
        /// PC, with equal counts broken toward the lowest PC — for *any*
        /// assignment of two PCs across the 32 lanes. This pins the
        /// tie-break as lane-order independent.
        #[test]
        fn majority_vote_and_tie_break_are_deterministic(
            mask in proptest::any::<u32>(),
            lo in 1..1000u64,
            delta in 1..1000u64,
        ) {
            let hi = lo + delta;
            let lanes = (0..32usize).map(|lane| {
                let pc = if mask & (1 << lane) != 0 { hi } else { lo };
                (lane, pc, 0x1000 + lane as u64 * 4)
            });
            let hi_count = mask.count_ones();
            let lo_count = 32 - hi_count;
            // A tie goes to the lowest PC.
            let expected = if hi_count > lo_count { (Pc(hi), hi_count) } else { (Pc(lo), lo_count) };
            prop_assert_eq!(drain(warp_of(lanes))[0], expected);
        }
    }
}
