//! Ingesting raw per-thread traces from external tools.
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
//! The per-warp step ([`pop_warp_instruction`]) and the geometry mapping
//! ([`warp_lane_of`], [`live_lanes`]) are public so the streaming ingest
//! path (`gmap-ingest`) can drive the *same* reconstruction incrementally;
//! the differential guarantee (streaming byte-identical to materialized)
//! rests on both paths sharing this code.

use crate::error::GmapError;
use crate::profile::GmapProfile;
use crate::profiler::{profile_streams, ProfilerConfig};
use gmap_gpu::coalesce::coalesce_addrs;
use gmap_gpu::hierarchy::LaunchConfig;
use gmap_gpu::schedule::{CoalescedAccess, WarpStream, WarpStreamEvent};
use gmap_trace::io::TraceEntry;
use gmap_trace::record::{ByteAddr, MemAccess, Pc, WarpId};
use std::collections::{HashMap, VecDeque};

/// Maps a global thread id to its `(warp, lane)` under the launch
/// geometry, or `None` when the tid falls outside it.
///
/// Warp numbering is global and block-major: warp = `block *
/// warps_per_block + in_block_tid / warp_size`, lane = `in_block_tid %
/// warp_size` — the same mapping the execution substrate uses.
pub fn warp_lane_of(tid: u32, launch: &LaunchConfig, warp_size: u32) -> Option<(u32, usize)> {
    let tid = tid as u64;
    if tid >= launch.total_threads() {
        return None;
    }
    let tpb = launch.threads_per_block();
    let block = (tid / tpb as u64) as u32;
    let in_block = (tid % tpb as u64) as u32;
    let warp = block * launch.warps_per_block(warp_size) + in_block / warp_size;
    Some((warp, (in_block % warp_size) as usize))
}

/// Number of lanes of `warp` that map to real threads of the launch (the
/// final warp of a block is partial when `threads_per_block` is not a
/// multiple of `warp_size`).
pub fn live_lanes(warp: u32, launch: &LaunchConfig, warp_size: u32) -> u32 {
    let wpb = launch.warps_per_block(warp_size);
    let tpb = launch.threads_per_block();
    if warp / wpb >= launch.num_blocks() {
        return 0;
    }
    let base = (warp % wpb) * warp_size;
    tpb.saturating_sub(base).min(warp_size)
}

/// Most lanes a warp may have here: the non-empty-lane mask is a `u64`.
pub const MAX_WARP_LANES: u32 = 64;

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
/// The only allocation is the instruction's `lines`, which the stream
/// representation owns.
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
            lines: vec![a.addr.line_base(line_size)],
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
        lines: coalesce_addrs(&addrs[..popped], line_size),
    };
    Some((access, popped as u32))
}

/// Reconstructs coalesced warp streams from flat per-thread entries.
///
/// Entries must be in per-thread program order (the order a tracer
/// naturally emits them); relative order *between* threads is irrelevant.
/// Threads whose ids fall outside the launch geometry are ignored.
///
/// # Panics
///
/// Panics if `warp_size` is 0 or above [`MAX_WARP_LANES`].
pub fn warp_streams_from_entries(
    entries: &[TraceEntry],
    launch: &LaunchConfig,
    warp_size: u32,
    line_size: u64,
) -> Vec<WarpStream> {
    assert!(
        (1..=MAX_WARP_LANES).contains(&warp_size),
        "warp size {warp_size} outside 1..={MAX_WARP_LANES}"
    );
    let wpb = launch.warps_per_block(warp_size);
    // Per-warp, per-lane access queues with their non-empty-lane mask.
    let mut lanes: HashMap<u32, (Vec<VecDeque<MemAccess>>, u64)> = HashMap::new();
    for (tid, acc) in entries {
        let Some((warp, lane)) = warp_lane_of(tid.0, launch, warp_size) else {
            continue;
        };
        let (queues, nonempty) = lanes
            .entry(warp)
            .or_insert_with(|| (vec![VecDeque::new(); warp_size as usize], 0));
        queues[lane].push_back(*acc);
        *nonempty |= 1 << lane;
    }
    let mut warps: Vec<u32> = lanes.keys().copied().collect();
    warps.sort_unstable();
    warps
        .into_iter()
        .map(|w| {
            let (mut queues, mut nonempty) = lanes.remove(&w).expect("key from map");
            let mut events = Vec::new();
            while let Some((access, _)) =
                pop_warp_instruction(&mut queues, &mut nonempty, line_size)
            {
                events.push(WarpStreamEvent::Access(access));
            }
            WarpStream {
                warp: WarpId(w),
                block: w / wpb,
                events,
            }
        })
        .collect()
}

/// End-to-end ingestion: per-thread entries → warp reconstruction →
/// statistical profile.
///
/// # Errors
///
/// Returns [`GmapError::EmptyProfile`] if no entry falls inside the
/// launch geometry.
pub fn profile_thread_trace(
    name: &str,
    entries: &[TraceEntry],
    launch: &LaunchConfig,
    cfg: &ProfilerConfig,
) -> Result<GmapProfile, GmapError> {
    let streams = warp_streams_from_entries(entries, launch, 32, cfg.line_size);
    profile_streams(name, &streams, launch, 32, cfg)
}

/// Convenience: total transactions after reconstruction (useful for
/// validating a tracer's output).
pub fn transaction_count(streams: &[WarpStream]) -> u64 {
    streams
        .iter()
        .flat_map(|s| s.events.iter())
        .map(|e| match e {
            WarpStreamEvent::Access(a) => a.lines.len() as u64,
            WarpStreamEvent::Sync => 0,
        })
        .sum()
}

/// Convenience: the line-aligned footprint (distinct lines) of a stream
/// set.
pub fn footprint_lines(streams: &[WarpStream], line_size: u64) -> u64 {
    let mut set = std::collections::HashSet::new();
    for s in streams {
        for e in &s.events {
            if let WarpStreamEvent::Access(a) = e {
                for l in &a.lines {
                    set.insert(ByteAddr(l.0).line(line_size));
                }
            }
        }
    }
    set.len() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmap_trace::record::{AccessKind, MemAccess, ThreadId};
    use proptest::prelude::*;

    fn entry(tid: u32, pc: u64, addr: u64) -> TraceEntry {
        (
            ThreadId(tid),
            MemAccess {
                pc: Pc(pc),
                addr: ByteAddr(addr),
                kind: AccessKind::Read,
            },
        )
    }

    /// 2 warps x 32 threads, unit stride, two instructions per thread.
    fn lockstep_entries() -> Vec<TraceEntry> {
        let mut out = Vec::new();
        for tid in 0..64u32 {
            out.push(entry(tid, 0x10, 0x1000 + tid as u64 * 4));
            out.push(entry(tid, 0x20, 0x9000 + tid as u64 * 4));
        }
        out
    }

    #[test]
    fn lockstep_trace_reconstructs_two_instructions_per_warp() {
        let launch = LaunchConfig::new(1u32, 64u32);
        let streams = warp_streams_from_entries(&lockstep_entries(), &launch, 32, 128);
        assert_eq!(streams.len(), 2);
        for s in &streams {
            assert_eq!(s.events.len(), 2);
            match &s.events[0] {
                WarpStreamEvent::Access(a) => {
                    assert_eq!(a.pc, Pc(0x10));
                    assert_eq!(a.lines.len(), 1, "unit stride fully coalesces");
                }
                other => panic!("expected access, got {other:?}"),
            }
        }
        assert_eq!(transaction_count(&streams), 4);
        assert_eq!(footprint_lines(&streams, 128), 4);
    }

    #[test]
    fn divergent_lanes_split_by_majority() {
        // Lanes 0..8 execute PC 0x30 before rejoining at 0x40; the rest go
        // straight to 0x40.
        let mut entries = Vec::new();
        for tid in 0..32u32 {
            if tid < 8 {
                entries.push(entry(tid, 0x30, 0x2000 + tid as u64 * 4));
            }
            entries.push(entry(tid, 0x40, 0x3000 + tid as u64 * 4));
        }
        let launch = LaunchConfig::new(1u32, 32u32);
        let streams = warp_streams_from_entries(&entries, &launch, 32, 128);
        assert_eq!(streams.len(), 1);
        let evs = &streams[0].events;
        // Majority first: 0x40 with 24 lanes, then 0x30, then the
        // remaining 0x40 lanes.
        assert_eq!(evs.len(), 3);
        let pcs: Vec<Pc> = evs
            .iter()
            .map(|e| match e {
                WarpStreamEvent::Access(a) => a.pc,
                WarpStreamEvent::Sync => unreachable!(),
            })
            .collect();
        assert_eq!(pcs, vec![Pc(0x40), Pc(0x30), Pc(0x40)]);
    }

    #[test]
    fn equal_lane_counts_break_toward_lowest_pc() {
        // 16 lanes front PC 0x50, 16 lanes front PC 0x20: a perfect tie.
        // The lowest PC must win regardless of lane order.
        let mut entries = Vec::new();
        for tid in 0..32u32 {
            let pc = if tid % 2 == 0 { 0x50 } else { 0x20 };
            entries.push(entry(tid, pc, 0x4000 + tid as u64 * 4));
        }
        let launch = LaunchConfig::new(1u32, 32u32);
        let streams = warp_streams_from_entries(&entries, &launch, 32, 128);
        let pcs: Vec<Pc> = streams[0]
            .events
            .iter()
            .map(|e| match e {
                WarpStreamEvent::Access(a) => a.pc,
                WarpStreamEvent::Sync => unreachable!(),
            })
            .collect();
        assert_eq!(pcs, vec![Pc(0x20), Pc(0x50)]);
    }

    #[test]
    fn geometry_helpers_agree_with_reconstruction() {
        let launch = LaunchConfig::new(2u32, 48u32); // 2 warps/block, 2nd partial
        assert_eq!(warp_lane_of(0, &launch, 32), Some((0, 0)));
        assert_eq!(warp_lane_of(47, &launch, 32), Some((1, 15)));
        assert_eq!(warp_lane_of(48, &launch, 32), Some((2, 0)));
        assert_eq!(warp_lane_of(96, &launch, 32), None);
        assert_eq!(live_lanes(0, &launch, 32), 32);
        assert_eq!(live_lanes(1, &launch, 32), 16);
        assert_eq!(live_lanes(3, &launch, 32), 16);
        assert_eq!(live_lanes(4, &launch, 32), 0, "beyond the grid");
    }

    #[test]
    fn out_of_range_threads_ignored() {
        let launch = LaunchConfig::new(1u32, 32u32);
        let mut entries = lockstep_entries(); // tids up to 63
        entries.push(entry(999, 0x10, 0));
        let streams = warp_streams_from_entries(&entries, &launch, 32, 128);
        assert_eq!(streams.len(), 1, "only warp 0 fits the 32-thread launch");
    }

    #[test]
    fn profile_from_thread_trace() {
        let launch = LaunchConfig::new(1u32, 64u32);
        let p = profile_thread_trace(
            "ingested",
            &lockstep_entries(),
            &launch,
            &ProfilerConfig::default(),
        )
        .expect("valid trace");
        assert_eq!(p.num_slots(), 2);
        let slot = p.slot_of(Pc(0x10)).expect("profiled");
        assert_eq!(p.inter_stride[slot].dominant().expect("non-empty").0, 128);
    }

    #[test]
    fn empty_trace_rejected() {
        let launch = LaunchConfig::new(1u32, 32u32);
        let err = profile_thread_trace("empty", &[], &launch, &ProfilerConfig::default());
        assert!(err.is_err());
    }

    #[test]
    fn round_trip_through_io_formats() {
        let entries = lockstep_entries();
        let mut buf = Vec::new();
        gmap_trace::io::write_binary(&mut buf, &entries).expect("write");
        let back = gmap_trace::io::read_binary(&buf[..]).expect("read");
        let launch = LaunchConfig::new(1u32, 64u32);
        let a = warp_streams_from_entries(&entries, &launch, 32, 128);
        let b = warp_streams_from_entries(&back, &launch, 32, 128);
        assert_eq!(a, b);
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
            let entries: Vec<TraceEntry> = (0..32u32)
                .map(|tid| {
                    let pc = if mask & (1 << tid) != 0 { hi } else { lo };
                    entry(tid, pc, 0x1000 + tid as u64 * 4)
                })
                .collect();
            let hi_count = mask.count_ones();
            let lo_count = 32 - hi_count;
            let expected = match hi_count.cmp(&lo_count) {
                std::cmp::Ordering::Greater => hi,
                std::cmp::Ordering::Less => lo,
                std::cmp::Ordering::Equal => lo, // tie: lowest PC wins
            };
            let launch = LaunchConfig::new(1u32, 32u32);
            let streams = warp_streams_from_entries(&entries, &launch, 32, 128);
            let first = match &streams[0].events[0] {
                WarpStreamEvent::Access(a) => a.pc,
                WarpStreamEvent::Sync => unreachable!(),
            };
            prop_assert_eq!(first, Pc(expected));
        }
    }
}
