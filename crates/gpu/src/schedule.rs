//! Per-core warp queues and warp scheduling policies (§4.5 of the paper).
//!
//! G-MAP models GPU parallelism — without modeling the core pipeline — by
//! interleaving the coalesced per-warp transaction streams through per-core
//! warp queues:
//!
//! - Threadblocks are assigned to cores round-robin until cores are full;
//!   new blocks are placed as running blocks finish.
//! - Each core's queue initially holds its active warps ordered by warp
//!   identifier. A scheduling step selects one ready warp and issues its
//!   next memory instruction; the warp is then *delayed in proportion to
//!   the request's latency* as reported by the [`MemoryModel`].
//! - Selection follows a [`Policy`]: loose round-robin ([`Policy::Lrr`]),
//!   greedy-then-oldest ([`Policy::Gto`]), or the paper's parametric
//!   [`Policy::SelfProb`] — "the probability of scheduling the same warp
//!   consecutively" (`SchedP_self`), which is how a G-MAP proxy replays a
//!   scheduling policy it never saw.
//! - `__syncthreads()` barriers hold a warp until every live warp of its
//!   block arrives.

use crate::hierarchy::{GpuConfig, LaunchConfig};
use gmap_trace::record::{AccessKind, ByteAddr, CoreId, Pc, WarpId};
use gmap_trace::rng::Rng;
use serde::{DeError, Deserialize, Serialize, Value};
use std::collections::VecDeque;
use std::fmt;
use std::ops::Deref;

/// The line-aligned transaction addresses of one [`CoalescedAccess`]: a
/// single transaction held in place, any other count on the heap — so
/// the most common warp instruction costs no allocation of its own.
///
/// Over the 18 builtins at Tiny, original and clone streams alike, 55 %
/// of warp instructions issue one line and 65 % at most two (four reach
/// 65.8 %, eight 67.9 %; the rest are 16 to 32 lines wide), and an
/// ingested lane-0 trace issues nothing but one-line instructions. One
/// line in place makes `Lines` 16 bytes and a stream event 32, two to a
/// cache line; two in place would make them 24 and 40.
///
/// It derefs to `[ByteAddr]`, iterates by reference like the `Vec` it
/// replaced, and (de)serializes as the same JSON sequence.
#[derive(Clone)]
pub struct Lines(LinesRepr);

#[derive(Clone)]
enum LinesRepr {
    One(ByteAddr),
    Heap(Box<[ByteAddr]>),
}

impl Lines {
    /// A single transaction.
    pub fn one(line: ByteAddr) -> Self {
        Lines(LinesRepr::One(line))
    }

    /// A copy of `lines`.
    pub fn from_slice(lines: &[ByteAddr]) -> Self {
        match *lines {
            [line] => Lines::one(line),
            _ => Lines(LinesRepr::Heap(lines.into())),
        }
    }

    /// The transactions as a slice.
    pub fn as_slice(&self) -> &[ByteAddr] {
        match &self.0 {
            LinesRepr::One(line) => std::slice::from_ref(line),
            LinesRepr::Heap(lines) => lines,
        }
    }
}

impl Deref for Lines {
    type Target = [ByteAddr];

    fn deref(&self) -> &[ByteAddr] {
        self.as_slice()
    }
}

impl<'a> IntoIterator for &'a Lines {
    type Item = &'a ByteAddr;
    type IntoIter = std::slice::Iter<'a, ByteAddr>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl From<Vec<ByteAddr>> for Lines {
    fn from(lines: Vec<ByteAddr>) -> Self {
        match *lines {
            [line] => Lines::one(line),
            _ => Lines(LinesRepr::Heap(lines.into_boxed_slice())),
        }
    }
}

impl FromIterator<ByteAddr> for Lines {
    fn from_iter<I: IntoIterator<Item = ByteAddr>>(iter: I) -> Self {
        Lines::from(iter.into_iter().collect::<Vec<_>>())
    }
}

impl PartialEq for Lines {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Lines {}

impl fmt::Debug for Lines {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_slice().fmt(f)
    }
}

impl Serialize for Lines {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl Deserialize for Lines {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Vec::<ByteAddr>::from_value(v).map(Lines::from)
    }
}

/// One coalesced warp-level memory instruction: up to 32 thread requests
/// merged into `lines` cacheline transactions.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoalescedAccess {
    /// Static instruction.
    pub pc: Pc,
    /// Read or write.
    pub kind: AccessKind,
    /// Line-aligned transaction addresses, ascending.
    pub lines: Lines,
}

/// One event of a coalesced warp stream.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum WarpStreamEvent {
    /// A coalesced memory instruction.
    Access(CoalescedAccess),
    /// A threadblock barrier.
    Sync,
}

/// The coalesced transaction stream of one warp.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WarpStream {
    /// Global warp id.
    pub warp: WarpId,
    /// Block the warp belongs to.
    pub block: u32,
    /// Events in program order.
    pub events: Vec<WarpStreamEvent>,
}

impl WarpStream {
    /// Number of memory instructions (excluding barriers).
    pub fn num_accesses(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, WarpStreamEvent::Access(_)))
            .count()
    }
}

/// The memory system as seen by the scheduler: every issued transaction
/// reports back a latency, which delays the issuing warp.
///
/// Implemented by the cache hierarchy in `gmap-memsim`; [`FixedLatency`]
/// provides a trivial implementation for tests and latency-insensitive
/// trace formation.
pub trait MemoryModel {
    /// Issues one cacheline transaction and returns its latency in cycles.
    fn access(&mut self, core: CoreId, pc: Pc, line: ByteAddr, kind: AccessKind, cycle: u64)
        -> u64;
}

/// A memory model with a constant latency for every transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixedLatency(pub u64);

impl MemoryModel for FixedLatency {
    fn access(&mut self, _: CoreId, _: Pc, _: ByteAddr, _: AccessKind, _: u64) -> u64 {
        self.0
    }
}

/// Warp selection policy (§4.5).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Policy {
    /// Loose round-robin: rotate through ready warps.
    Lrr,
    /// Greedy-then-oldest: keep issuing from the last warp while it is
    /// ready, otherwise fall back to the oldest ready warp.
    Gto,
    /// G-MAP's approximation: re-schedule the previous warp with
    /// probability `p`, otherwise round-robin.
    SelfProb(f64),
}

impl fmt::Display for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Policy::Lrr => f.write_str("LRR"),
            Policy::Gto => f.write_str("GTO"),
            Policy::SelfProb(p) => write!(f, "SelfProb({p:.2})"),
        }
    }
}

/// Aggregate result of scheduling a kernel's warp streams.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduleOutcome {
    /// Total cycles until the last warp finished.
    pub cycles: u64,
    /// Warp-level memory instructions issued.
    pub issued_accesses: u64,
    /// Cacheline transactions issued.
    pub issued_transactions: u64,
    /// Measured probability that a core scheduled the same warp twice in a
    /// row — the paper's `SchedP_self` statistic.
    pub sched_p_self: f64,
    /// Memory instructions issued per core.
    pub per_core_issues: Vec<u64>,
}

/// Runtime state of one resident warp.
struct WarpRt<'a> {
    events: &'a [WarpStreamEvent],
    pos: usize,
    at_barrier: bool,
    /// Index of the block-runtime entry on this core.
    block_slot: usize,
}

impl WarpRt<'_> {
    fn done(&self) -> bool {
        self.pos >= self.events.len()
    }
}

/// Runtime state of one resident block.
struct BlockRt {
    live_warps: u32,
    arrived: u32,
}

struct CoreRt<'a> {
    warps: Vec<WarpRt<'a>>,
    /// Per warp, the first cycle it may issue at — `u64::MAX` while it
    /// waits at a barrier and once it is done — so a warp is ready iff
    /// `ready_at[w] <= cycle`, and a selection scans this one row.
    ready_at: Vec<u64>,
    blocks: Vec<BlockRt>,
    resident_blocks: u32,
    rr_cursor: usize,
    last_issued: Option<usize>,
    issues: u64,
    same_issues: u64,
    transitions: u64,
    /// While `cycle < sleep_until` no warp of this core can be ready, so
    /// the core is not asked: set by a selection that found nothing to
    /// the smallest `ready_at` among the core's warps (`u64::MAX` if
    /// every warp is done or at a barrier). See the three reasons in
    /// [`run_schedule`]'s loop.
    sleep_until: u64,
}

impl CoreRt<'_> {
    fn new() -> Self {
        CoreRt {
            warps: Vec::new(),
            ready_at: Vec::new(),
            blocks: Vec::new(),
            resident_blocks: 0,
            rr_cursor: 0,
            last_issued: None,
            issues: 0,
            same_issues: 0,
            transitions: 0,
            sleep_until: 0,
        }
    }

    /// The cycle at which a warp that is waiting on memory becomes ready.
    fn next_wake(&self) -> u64 {
        self.ready_at.iter().copied().min().unwrap_or(u64::MAX)
    }
}

/// Interleaves coalesced warp streams into per-core memory request
/// sequences, driving the given memory model (Algorithm 2, lines 11–17).
///
/// `seed` feeds the stochastic [`Policy::SelfProb`] policy; `Lrr` and `Gto`
/// are deterministic and ignore it.
///
/// # Panics
///
/// Panics if a stream references a block id outside the launch grid.
pub fn run_schedule(
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

    // A core whose selection finds nothing sleeps until its earliest
    // wake-up instead of being asked again every cycle. Skipping it is
    // exact, for three reasons:
    // - a core's warps change state only inside that core's own step
    //   below (the issue itself, `maybe_release_barrier(core, ..)`,
    //   `place_block(core, ..)`), so the bound computed when the selection
    //   failed holds until it is reached;
    // - a failed selection consumes no randomness (`SelfProb` draws only
    //   when the last-issued warp is ready, and then the round-robin
    //   fallback finds at least that warp; `select_rr` never draws), so
    //   leaving one out leaves the rng stream where it was;
    // - on a cycle where nothing progressed every core has either just
    //   failed or is asleep, so every `sleep_until` is current and after
    //   `cycle`: their minimum is the next wake-up anywhere.
    let mut cycle = 0u64;
    while live_warps_total > 0 {
        let mut progressed = false;
        for (ci, core) in cores.iter_mut().enumerate() {
            if cycle < core.sleep_until {
                continue;
            }
            let Some(widx) = select_warp(core, cycle, policy, &mut rng) else {
                core.sleep_until = core.next_wake();
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

            let w = &mut core.warps[widx];
            let event = &w.events[w.pos];
            w.pos += 1;
            match event {
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
                    core.ready_at[widx] = cycle + lat.max(1);
                }
                WarpStreamEvent::Sync => {
                    w.at_barrier = true;
                    core.ready_at[widx] = u64::MAX;
                    let slot = w.block_slot;
                    core.blocks[slot].arrived += 1;
                    maybe_release_barrier(core, slot, cycle);
                }
            }
            // Warp retirement and block completion.
            if core.warps[widx].done() {
                core.ready_at[widx] = u64::MAX;
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
            let next = cores.iter().map(|c| c.sleep_until).min();
            match next {
                Some(t) if t > cycle && t != u64::MAX => cycle = t,
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

fn place_block<'a>(
    core: &mut CoreRt<'a>,
    block: usize,
    by_block: &[Vec<usize>],
    streams: &'a [WarpStream],
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
            events: &streams[si].events,
            pos: 0,
            at_barrier: false,
            block_slot: slot,
        });
        core.ready_at.push(0);
        live += 1;
        *live_warps_total += 1;
    }
    core.blocks.push(BlockRt {
        live_warps: live,
        arrived: 0,
    });
}

/// Releases a barrier once every live warp of the block has arrived. A
/// released warp may issue from the next cycle on: it arrived at or
/// before this one, so that is the later of its two wake-ups.
fn maybe_release_barrier(core: &mut CoreRt, slot: usize, cycle: u64) {
    let b = &core.blocks[slot];
    if b.live_warps > 0 && b.arrived >= b.live_warps {
        core.blocks[slot].arrived = 0;
        for (w, ready_at) in core.warps.iter_mut().zip(&mut core.ready_at) {
            if w.block_slot == slot && w.at_barrier {
                w.at_barrier = false;
                if !w.done() {
                    *ready_at = cycle + 1;
                }
            }
        }
    }
}

fn select_warp(core: &CoreRt, cycle: u64, policy: Policy, rng: &mut Rng) -> Option<usize> {
    if core.warps.is_empty() {
        return None;
    }
    let last_ready = core.last_issued.filter(|&w| core.ready_at[w] <= cycle);
    match policy {
        Policy::Lrr => select_rr(core, cycle),
        // Oldest = first in queue order (warps are pushed in warp-id /
        // arrival order).
        Policy::Gto => last_ready.or_else(|| core.ready_at.iter().position(|&r| r <= cycle)),
        Policy::SelfProb(p) => match last_ready {
            Some(last) if rng.gen_bool(p) => Some(last),
            _ => select_rr(core, cycle),
        },
    }
}

/// The first ready warp after the cursor, wrapping around: the warps
/// after it, then those up to and including it.
fn select_rr(core: &CoreRt, cycle: u64) -> Option<usize> {
    let start = core.rr_cursor + 1;
    let (wrapped, after) = core.ready_at.split_at(start);
    let ready = |r: &u64| *r <= cycle;
    match after.iter().position(ready) {
        Some(i) => Some(start + i),
        None => wrapped.iter().position(ready),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coalesce::coalesce_app;
    use crate::exec::execute_kernel;
    use crate::kernel::{dsl, IndexExpr, KernelBuilder, Stmt};
    use gmap_trace::record::Pc;

    fn single_core() -> GpuConfig {
        GpuConfig {
            num_cores: 1,
            max_threads_per_core: 1024,
            max_blocks_per_core: 8,
        }
    }

    fn streaming_kernel(blocks: u32, tpb: u32, iters: u32) -> Vec<WarpStream> {
        let k = KernelBuilder::new("stream", blocks, tpb)
            .array("a", 1 << 20)
            .stmt(dsl::loop_n(
                iters,
                vec![dsl::read(0x10, 0, dsl::affine(0, 1, vec![(0, 4096)]))],
            ))
            .build()
            .expect("valid");
        coalesce_app(&execute_kernel(&k), 128)
    }

    #[test]
    fn all_events_issue_exactly_once() {
        let streams = streaming_kernel(4, 128, 5);
        let total: usize = streams.iter().map(|s| s.num_accesses()).sum();
        let mut mem = FixedLatency(10);
        let out = run_schedule(
            &streams,
            &LaunchConfig::new(4u32, 128u32),
            &GpuConfig::fermi_baseline(),
            Policy::Lrr,
            &mut mem,
            1,
        );
        assert_eq!(out.issued_accesses, total as u64);
        assert_eq!(out.issued_transactions, total as u64); // unit stride: 1 line each
        assert!(out.cycles > 0);
        assert_eq!(out.per_core_issues.iter().sum::<u64>(), out.issued_accesses);
    }

    #[test]
    fn lrr_interleaves_warps() {
        // One core, one block of 4 warps, long latency: LRR must rotate, so
        // SchedP_self should be ~0.
        let streams = streaming_kernel(1, 128, 20);
        let mut mem = FixedLatency(100);
        let out = run_schedule(
            &streams,
            &LaunchConfig::new(1u32, 128u32),
            &single_core(),
            Policy::Lrr,
            &mut mem,
            1,
        );
        assert!(
            out.sched_p_self < 0.05,
            "LRR SchedP_self = {}",
            out.sched_p_self
        );
    }

    #[test]
    fn gto_stays_on_one_warp_at_low_latency() {
        // Latency 1 means the greedy warp is always ready again next cycle.
        let streams = streaming_kernel(1, 128, 20);
        let mut mem = FixedLatency(1);
        let out = run_schedule(
            &streams,
            &LaunchConfig::new(1u32, 128u32),
            &single_core(),
            Policy::Gto,
            &mut mem,
            1,
        );
        assert!(
            out.sched_p_self > 0.9,
            "GTO SchedP_self = {}",
            out.sched_p_self
        );
    }

    #[test]
    fn self_prob_tracks_its_parameter() {
        let streams = streaming_kernel(1, 128, 50);
        let mut mem = FixedLatency(1);
        let out = run_schedule(
            &streams,
            &LaunchConfig::new(1u32, 128u32),
            &single_core(),
            Policy::SelfProb(0.7),
            &mut mem,
            99,
        );
        assert!(
            (out.sched_p_self - 0.7).abs() < 0.1,
            "SelfProb(0.7) measured {}",
            out.sched_p_self
        );
    }

    #[test]
    fn higher_latency_means_more_cycles() {
        let streams = streaming_kernel(2, 64, 10);
        let launch = LaunchConfig::new(2u32, 64u32);
        let gpu = single_core();
        let mut fast = FixedLatency(1);
        let mut slow = FixedLatency(200);
        let c_fast = run_schedule(&streams, &launch, &gpu, Policy::Lrr, &mut fast, 1).cycles;
        let c_slow = run_schedule(&streams, &launch, &gpu, Policy::Lrr, &mut slow, 1).cycles;
        assert!(c_slow > c_fast, "slow {c_slow} <= fast {c_fast}");
    }

    #[test]
    fn barriers_rendezvous_all_warps_of_a_block() {
        // Warp 0 has much more pre-barrier work than warp 1; the barrier
        // forces their post-barrier accesses to start together.
        let k = KernelBuilder::new("sync", 1u32, 64u32)
            .array("a", 1 << 16)
            .stmt(Stmt::If {
                pred: crate::kernel::Pred::TidLt(32),
                then_body: vec![dsl::loop_n(
                    30,
                    vec![dsl::read(0x10, 0, dsl::affine(0, 1, vec![(0, 64)]))],
                )],
                else_body: vec![],
            })
            .stmt(Stmt::Sync)
            .read(Pc(0x20), 0, IndexExpr::tid_linear(0, 1))
            .build()
            .expect("valid");
        let streams = coalesce_app(&execute_kernel(&k), 128);

        /// Records the issue cycle of every transaction at PC 0x20.
        struct Recorder(Vec<u64>);
        impl MemoryModel for Recorder {
            fn access(&mut self, _: CoreId, pc: Pc, _: ByteAddr, _: AccessKind, cycle: u64) -> u64 {
                if pc == Pc(0x20) {
                    self.0.push(cycle);
                }
                5
            }
        }
        let mut rec = Recorder(Vec::new());
        run_schedule(
            &streams,
            &LaunchConfig::new(1u32, 64u32),
            &single_core(),
            Policy::Lrr,
            &mut rec,
            1,
        );
        assert_eq!(rec.0.len(), 2);
        // Both post-barrier accesses happen within a couple of cycles of
        // each other, even though warp 0 had 30 extra accesses.
        let spread = rec.0.iter().max().expect("two") - rec.0.iter().min().expect("two");
        assert!(spread <= 2, "post-barrier spread {spread} too large");
    }

    #[test]
    fn blocks_spill_over_in_waves() {
        // 4 blocks of 512 threads on one core limited to 1024 threads: only
        // two blocks resident at a time, so the rest run in a second wave.
        let streams = streaming_kernel(4, 512, 3);
        let gpu = GpuConfig {
            num_cores: 1,
            max_threads_per_core: 1024,
            max_blocks_per_core: 8,
        };
        let mut mem = FixedLatency(10);
        let out = run_schedule(
            &streams,
            &LaunchConfig::new(4u32, 512u32),
            &gpu,
            Policy::Lrr,
            &mut mem,
            1,
        );
        let total: usize = streams.iter().map(|s| s.num_accesses()).sum();
        assert_eq!(out.issued_accesses, total as u64);
    }

    #[test]
    fn empty_streams_complete_immediately() {
        let streams = vec![WarpStream {
            warp: WarpId(0),
            block: 0,
            events: vec![],
        }];
        let mut mem = FixedLatency(1);
        let out = run_schedule(
            &streams,
            &LaunchConfig::new(1u32, 32u32),
            &single_core(),
            Policy::Lrr,
            &mut mem,
            1,
        );
        assert_eq!(out.issued_accesses, 0);
        assert_eq!(out.cycles, 0);
    }

    #[test]
    fn lines_read_and_serialize_like_a_vec() {
        for n in [0u64, 1, 2, 5] {
            let vec: Vec<ByteAddr> = (0..n).map(|i| ByteAddr(0x1000 + i * 128)).collect();
            let lines = Lines::from(vec.clone());
            assert_eq!(&*lines, vec.as_slice());
            assert_eq!(Lines::from_slice(&vec), lines);
            assert_eq!(lines.iter().copied().collect::<Lines>(), lines);
            assert_eq!((&lines).into_iter().count(), vec.len());
            assert_eq!(format!("{lines:?}"), format!("{vec:?}"));
            let json = serde_json::to_string(&lines).expect("serializes");
            assert_eq!(json, serde_json::to_string(&vec).expect("serializes"));
            let back: Lines = serde_json::from_str(&json).expect("deserializes");
            assert_eq!(back, lines);
        }
        assert_eq!(Lines::one(ByteAddr(7)), Lines::from(vec![ByteAddr(7)]));
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let streams = streaming_kernel(2, 128, 10);
        let launch = LaunchConfig::new(2u32, 128u32);
        let gpu = GpuConfig::fermi_baseline();
        let mut m1 = FixedLatency(7);
        let mut m2 = FixedLatency(7);
        let a = run_schedule(&streams, &launch, &gpu, Policy::SelfProb(0.5), &mut m1, 42);
        let b = run_schedule(&streams, &launch, &gpu, Policy::SelfProb(0.5), &mut m2, 42);
        assert_eq!(a, b);
    }
}
