//! Differential test of the warp scheduler.
//!
//! `run_schedule` skips a core whose last selection found nothing until
//! the core's earliest wake-up (`sleep_until`), and jumps an idle machine
//! to the smallest `sleep_until` instead of scanning every warp. The loop
//! it replaced — every core asked on every cycle — is kept here,
//! verbatim, as the oracle: issue order, cycle count, `sched_p_self` and
//! the rng stream must not move for any policy.

use gmap_gpu::hierarchy::{GpuConfig, LaunchConfig};
use gmap_gpu::schedule::{
    run_schedule, CoalescedAccess, MemoryModel, Policy, ScheduleOutcome, WarpStream,
    WarpStreamEvent,
};
use gmap_trace::record::{AccessKind, ByteAddr, CoreId, Pc, WarpId};
use gmap_trace::rng::Rng;
use proptest::prelude::*;
use std::collections::VecDeque;

// ---------------------------------------------------------------------
// The oracle: the parent's scheduler, unchanged.
// ---------------------------------------------------------------------

/// Runtime state of one resident warp.
struct WarpRt {
    stream: usize,
    pos: usize,
    ready_at: u64,
    at_barrier: bool,
    done: bool,
    /// Index of the block-runtime entry on this core.
    block_slot: usize,
}

/// Runtime state of one resident block.
struct BlockRt {
    live_warps: u32,
    arrived: u32,
}

struct CoreRt {
    warps: Vec<WarpRt>,
    blocks: Vec<BlockRt>,
    resident_blocks: u32,
    rr_cursor: usize,
    last_issued: Option<usize>,
    issues: u64,
    same_issues: u64,
    transitions: u64,
}

impl CoreRt {
    fn new() -> Self {
        CoreRt {
            warps: Vec::new(),
            blocks: Vec::new(),
            resident_blocks: 0,
            rr_cursor: 0,
            last_issued: None,
            issues: 0,
            same_issues: 0,
            transitions: 0,
        }
    }
}

/// `run_schedule` as it was before cores slept.
fn reference_run_schedule(
    streams: &[WarpStream],
    launch: &LaunchConfig,
    gpu: &GpuConfig,
    policy: Policy,
    mem: &mut dyn MemoryModel,
    seed: u64,
) -> ScheduleOutcome {
    let num_blocks = launch.num_blocks();
    // Group stream indices by block, preserving warp-id order.
    let mut by_block: Vec<Vec<usize>> = vec![Vec::new(); num_blocks as usize];
    for (i, s) in streams.iter().enumerate() {
        assert!(
            s.block < num_blocks,
            "stream block {} outside grid of {num_blocks} blocks",
            s.block
        );
        by_block[s.block as usize].push(i);
    }
    let mut pending: VecDeque<usize> = (0..num_blocks as usize).collect();
    let block_limit = gpu.resident_blocks_per_core(launch);

    let mut cores: Vec<CoreRt> = (0..gpu.num_cores).map(|_| CoreRt::new()).collect();
    let mut rng = Rng::seed_from(seed ^ 0x5C4E_D11E);
    let mut live_warps_total: u64 = 0;
    let mut issued_accesses = 0u64;
    let mut issued_transactions = 0u64;

    // Initial round-robin placement across cores, one block per core per
    // round, until every core is full or no blocks remain.
    'fill: for _round in 0..block_limit {
        for core in cores.iter_mut() {
            if pending.is_empty() {
                break 'fill;
            }
            if core.resident_blocks < block_limit {
                let b = pending.pop_front().expect("non-empty");
                place_block(core, b, &by_block, streams, &mut live_warps_total);
            }
        }
    }

    let mut cycle = 0u64;
    while live_warps_total > 0 {
        let mut progressed = false;
        for (ci, core) in cores.iter_mut().enumerate() {
            let Some(widx) = select_warp(core, cycle, policy, &mut rng) else {
                continue;
            };
            progressed = true;
            // Measure SchedP_self over consecutive issue pairs.
            if let Some(prev) = core.last_issued {
                core.transitions += 1;
                if prev == widx {
                    core.same_issues += 1;
                }
            }
            core.last_issued = Some(widx);
            core.rr_cursor = widx;
            core.issues += 1;

            let stream = &streams[core.warps[widx].stream];
            let pos = core.warps[widx].pos;
            core.warps[widx].pos += 1;
            match &stream.events[pos] {
                WarpStreamEvent::Access(acc) => {
                    issued_accesses += 1;
                    issued_transactions += acc.lines.len() as u64;
                    let mut lat = 0u64;
                    for &line in &acc.lines {
                        lat = lat.max(mem.access(CoreId(ci as u16), acc.pc, line, acc.kind, cycle));
                    }
                    // Transactions of one instruction serialize on the
                    // core's load/store unit.
                    lat += acc.lines.len().saturating_sub(1) as u64;
                    core.warps[widx].ready_at = cycle + lat.max(1);
                }
                WarpStreamEvent::Sync => {
                    core.warps[widx].at_barrier = true;
                    core.warps[widx].ready_at = cycle + 1;
                    let slot = core.warps[widx].block_slot;
                    core.blocks[slot].arrived += 1;
                    maybe_release_barrier(core, slot, cycle);
                }
            }
            // Warp retirement and block completion.
            if core.warps[widx].pos >= stream.events.len() {
                core.warps[widx].done = true;
                live_warps_total -= 1;
                let slot = core.warps[widx].block_slot;
                core.blocks[slot].live_warps -= 1;
                maybe_release_barrier(core, slot, cycle);
                if core.blocks[slot].live_warps == 0 {
                    core.resident_blocks -= 1;
                    if let Some(b) = pending.pop_front() {
                        place_block(core, b, &by_block, streams, &mut live_warps_total);
                    }
                }
            }
        }
        if progressed {
            cycle += 1;
        } else {
            // Nothing ready anywhere: jump to the next wake-up time.
            let next = cores
                .iter()
                .flat_map(|c| c.warps.iter())
                .filter(|w| !w.done && !w.at_barrier)
                .map(|w| w.ready_at)
                .min();
            match next {
                Some(t) if t > cycle => cycle = t,
                // All live warps stuck at barriers would be a bug in the
                // release logic; fail loudly rather than spin.
                _ => panic!("scheduler deadlock at cycle {cycle}"),
            }
        }
    }

    let (same, trans, per_core): (u64, u64, Vec<u64>) = cores.iter().fold(
        (0, 0, Vec::with_capacity(cores.len())),
        |(s, t, mut v), c| {
            v.push(c.issues);
            (s + c.same_issues, t + c.transitions, v)
        },
    );
    ScheduleOutcome {
        cycles: cycle,
        issued_accesses,
        issued_transactions,
        sched_p_self: if trans == 0 {
            0.0
        } else {
            same as f64 / trans as f64
        },
        per_core_issues: per_core,
    }
}

fn place_block(
    core: &mut CoreRt,
    block: usize,
    by_block: &[Vec<usize>],
    streams: &[WarpStream],
    live_warps_total: &mut u64,
) {
    core.resident_blocks += 1;
    let slot = core.blocks.len();
    let mut live = 0u32;
    for &si in &by_block[block] {
        if streams[si].events.is_empty() {
            continue;
        }
        core.warps.push(WarpRt {
            stream: si,
            pos: 0,
            ready_at: 0,
            at_barrier: false,
            done: false,
            block_slot: slot,
        });
        live += 1;
        *live_warps_total += 1;
    }
    core.blocks.push(BlockRt {
        live_warps: live,
        arrived: 0,
    });
}

/// Releases a barrier once every live warp of the block has arrived.
fn maybe_release_barrier(core: &mut CoreRt, slot: usize, cycle: u64) {
    let b = &core.blocks[slot];
    if b.live_warps > 0 && b.arrived >= b.live_warps {
        core.blocks[slot].arrived = 0;
        for w in &mut core.warps {
            if w.block_slot == slot && w.at_barrier {
                w.at_barrier = false;
                w.ready_at = w.ready_at.max(cycle + 1);
            }
        }
    }
}

fn select_warp(core: &mut CoreRt, cycle: u64, policy: Policy, rng: &mut Rng) -> Option<usize> {
    let n = core.warps.len();
    if n == 0 {
        return None;
    }
    let ready = |w: &WarpRt| !w.done && !w.at_barrier && w.ready_at <= cycle;
    match policy {
        Policy::Lrr => select_rr(core, cycle),
        Policy::Gto => {
            if let Some(last) = core.last_issued {
                if ready(&core.warps[last]) {
                    return Some(last);
                }
            }
            // Oldest = first in queue order (warps are pushed in warp-id /
            // arrival order).
            (0..n).find(|&i| ready(&core.warps[i]))
        }
        Policy::SelfProb(p) => {
            if let Some(last) = core.last_issued {
                if ready(&core.warps[last]) && rng.gen_bool(p) {
                    return Some(last);
                }
            }
            select_rr(core, cycle)
        }
    }
}

fn select_rr(core: &CoreRt, cycle: u64) -> Option<usize> {
    let n = core.warps.len();
    (1..=n).map(|k| (core.rr_cursor + k) % n).find(|&i| {
        let w = &core.warps[i];
        !w.done && !w.at_barrier && w.ready_at <= cycle
    })
}

// ---------------------------------------------------------------------
// The property.
// ---------------------------------------------------------------------

/// One logged `MemoryModel::access` call.
type Call = (u16, u64, u64, AccessKind, u64);

/// Logs every call and answers a latency hashed from `(line, cycle)` into
/// `1..=400`, so that a transaction issued one cycle late or on another
/// core changes everything after it.
#[derive(Default)]
struct Logger {
    calls: Vec<Call>,
}

impl MemoryModel for Logger {
    fn access(
        &mut self,
        core: CoreId,
        pc: Pc,
        line: ByteAddr,
        kind: AccessKind,
        cycle: u64,
    ) -> u64 {
        self.calls.push((core.0, pc.0, line.0, kind, cycle));
        let h = (line.0 ^ cycle.rotate_left(32)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        1 + (h >> 33) % 400
    }
}

/// `blocks` × `warps` streams; each event code is a barrier (one in
/// eight) or an access of 1–4 lines.
fn build_streams(blocks: &[Vec<Vec<u32>>]) -> Vec<WarpStream> {
    let wpb = blocks[0].len() as u32;
    let mut streams = Vec::new();
    for (b, warps) in blocks.iter().enumerate() {
        for (w, codes) in warps.iter().enumerate() {
            let events = codes
                .iter()
                .map(|&code| {
                    if code % 8 == 0 {
                        return WarpStreamEvent::Sync;
                    }
                    let first = u64::from(code >> 8) % 64;
                    WarpStreamEvent::Access(CoalescedAccess {
                        pc: Pc(0x10 + u64::from(code >> 3) % 4 * 8),
                        kind: if code & 0x40 == 0 {
                            AccessKind::Read
                        } else {
                            AccessKind::Write
                        },
                        lines: (0..=u64::from(code >> 4) % 4)
                            .map(|k| ByteAddr((first + k) * 128))
                            .collect(),
                    })
                })
                .collect();
            streams.push(WarpStream {
                warp: WarpId(b as u32 * wpb + w as u32),
                block: b as u32,
                events,
            });
        }
    }
    streams
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random streams (1–6 blocks of 1–4 warps, 0–40 events a warp, some
    /// barriers, 1–4 lines an access) under every policy on 1, 2 and 15
    /// cores, with residency limits that force block waves: the sleeping
    /// scheduler makes the same memory calls at the same cycles as the
    /// oracle and returns the same outcome, `sched_p_self` bit for bit.
    #[test]
    fn sleeping_cores_change_nothing(
        num_blocks in 1usize..=6,
        wpb in 1usize..=4,
        codes in proptest::collection::vec(proptest::collection::vec(any::<u32>(), 0..=40), 24),
        max_blocks_per_core in 1u32..=8,
        seed in any::<u64>(),
    ) {
        let blocks: Vec<Vec<Vec<u32>>> = codes[..num_blocks * wpb]
            .chunks(wpb)
            .map(<[Vec<u32>]>::to_vec)
            .collect();
        let streams = build_streams(&blocks);
        let launch = LaunchConfig::new(num_blocks as u32, wpb as u32 * 32);
        for policy in [Policy::Lrr, Policy::Gto, Policy::SelfProb(0.3), Policy::SelfProb(0.9)] {
            for num_cores in [1, 2, 15] {
                let gpu = GpuConfig {
                    num_cores,
                    max_threads_per_core: 1024,
                    max_blocks_per_core,
                };
                let mut want_log = Logger::default();
                let want =
                    reference_run_schedule(&streams, &launch, &gpu, policy, &mut want_log, seed);
                let mut got_log = Logger::default();
                let got = run_schedule(&streams, &launch, &gpu, policy, &mut got_log, seed);
                let what = format!("{policy} on {num_cores} cores");
                prop_assert_eq!(&got_log.calls, &want_log.calls, "{}: memory calls", what);
                prop_assert_eq!(
                    got.sched_p_self.to_bits(),
                    want.sched_p_self.to_bits(),
                    "{}: sched_p_self",
                    what
                );
                prop_assert_eq!(got, want, "{}: outcome", what);
            }
        }
    }
}
