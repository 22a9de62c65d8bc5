//! Lockstep SIMT execution of kernel descriptions.
//!
//! Executes a [`KernelDesc`] warp by warp, maintaining an active-lane mask
//! through loops and divergent branches exactly as a SIMT machine would:
//! both sides of a divergent branch execute serially under complementary
//! masks, and loops run until the longest-running active lane exits. The
//! result is, per warp, the ordered sequence of dynamic memory instructions
//! with per-lane addresses — the raw material G-MAP profiles (§4.1).
//!
//! The warp is the unit of address evaluation: an affine index is
//! evaluated once per warp instruction and stepped lane to lane; only
//! hashed indices (and affine values that could overflow `i64`) are
//! evaluated lane by lane.

use crate::hierarchy::LaunchConfig;
use crate::kernel::{AccessDesc, EvalCtx, IndexExpr, KernelDesc, Stmt};
use gmap_trace::io::TraceEntry;
use gmap_trace::record::{AccessKind, ByteAddr, Pc, ThreadId, WarpId};
use serde::{Deserialize, Serialize};

/// One dynamic event of a warp.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum WarpEvent {
    /// A memory instruction executed by the active lanes.
    Access {
        /// Static instruction.
        pc: Pc,
        /// Read or write.
        kind: AccessKind,
        /// `(lane, byte address)` for every active lane, in lane order.
        lane_addrs: Vec<(u8, ByteAddr)>,
    },
    /// The warp reached a threadblock barrier.
    Sync,
}

impl WarpEvent {
    /// Number of scalar (thread-level) accesses in this event.
    pub fn thread_accesses(&self) -> usize {
        match self {
            WarpEvent::Access { lane_addrs, .. } => lane_addrs.len(),
            WarpEvent::Sync => 0,
        }
    }
}

/// The dynamic event stream of one warp.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WarpTrace {
    /// Global warp id.
    pub warp: WarpId,
    /// Block the warp belongs to.
    pub block: u32,
    /// Events in execution order.
    pub events: Vec<WarpEvent>,
}

/// The complete execution trace of a kernel launch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppTrace {
    /// Benchmark name (copied from the kernel).
    pub name: String,
    /// Launch geometry.
    pub launch: LaunchConfig,
    /// Warp size used during execution.
    pub warp_size: u32,
    /// Per-warp event streams, ordered by global warp id.
    pub warps: Vec<WarpTrace>,
}

impl AppTrace {
    /// Total number of scalar (thread-level) memory accesses.
    pub fn total_thread_accesses(&self) -> u64 {
        self.warps
            .iter()
            .flat_map(|w| w.events.iter())
            .map(|e| e.thread_accesses() as u64)
            .sum()
    }

    /// Flattens into `(thread, access)` entries for trace I/O, ordered by
    /// warp then event then lane.
    pub fn thread_entries(&self) -> Vec<TraceEntry> {
        let mut out = Vec::new();
        for wt in &self.warps {
            for ev in &wt.events {
                if let WarpEvent::Access {
                    pc,
                    kind,
                    lane_addrs,
                } = ev
                {
                    for &(lane, addr) in lane_addrs {
                        let tid = self
                            .launch
                            .thread_of(wt.warp, lane as u32, self.warp_size)
                            .expect("active lane maps to a live thread");
                        out.push((
                            tid,
                            gmap_trace::record::MemAccess {
                                pc: *pc,
                                addr,
                                kind: *kind,
                            },
                        ));
                    }
                }
            }
        }
        out
    }
}

/// Threads per warp: the executor's, the static analyzer's and the
/// trace ingester's (Fermi, the paper's §4 target).
pub const WARP_SIZE: u32 = 32;

/// Executes a kernel with [`WARP_SIZE`]-thread warps.
///
/// # Panics
///
/// Panics if the kernel fails validation (call [`KernelDesc::validate`]
/// first for a `Result`).
pub fn execute_kernel(kernel: &KernelDesc) -> AppTrace {
    kernel.validate().expect("kernel must be valid");
    let launch = kernel.launch;
    let total_warps = launch.total_warps(WARP_SIZE);
    let mut warps = Vec::with_capacity(total_warps as usize);
    for w in 0..total_warps {
        let warp = WarpId(w);
        let block = launch.block_of_warp(warp, WARP_SIZE);
        let mut lanes = [None; WARP_SIZE as usize];
        let mut initial_mask = 0u64;
        for (lane, slot) in lanes.iter_mut().enumerate() {
            *slot = launch.thread_of(warp, lane as u32, WARP_SIZE);
            if slot.is_some() {
                initial_mask |= 1 << lane;
            }
        }
        let mut exec = WarpExec {
            kernel,
            warp: w,
            block,
            lanes,
            iters: Vec::new(),
            events: Vec::new(),
        };
        exec.run(&kernel.body, initial_mask);
        warps.push(WarpTrace {
            warp,
            block,
            events: exec.events,
        });
    }
    AppTrace {
        name: kernel.name.clone(),
        launch,
        warp_size: WARP_SIZE,
        warps,
    }
}

/// The lanes set in `mask`, ascending.
fn lanes_of(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let lane = (mask != 0).then(|| mask.trailing_zeros() as usize);
        mask &= mask.wrapping_sub(1);
        lane
    })
}

/// Per-warp execution state.
struct WarpExec<'a> {
    kernel: &'a KernelDesc,
    warp: u32,
    block: u32,
    lanes: [Option<ThreadId>; WARP_SIZE as usize],
    iters: Vec<u64>,
    events: Vec<WarpEvent>,
}

impl WarpExec<'_> {
    fn ctx(&self, lane: usize) -> Option<EvalCtx<'_>> {
        self.lanes[lane].map(|tid| EvalCtx {
            tid: tid.0 as u64,
            lane: lane as u32,
            warp: self.warp,
            block: self.block,
            iters: &self.iters,
        })
    }

    /// The element index of `mask`'s first lane and the element step from
    /// one lane to the next, both reduced into `[0, elems)`, for an affine
    /// `index`: the warp is the unit of address evaluation.
    ///
    /// A live lane's tid is the warp's first tid plus its lane, so across
    /// the mask the affine value moves by `tid_coef + lane_coef` per lane.
    /// `None` — a hashed index, an `elems` beyond `i64`, or a value of some
    /// active lane that overflows `i64` — sends the instruction down the
    /// per-lane path.
    fn affine_lanes(&self, index: &IndexExpr, mask: u64, elems: i64) -> Option<(u64, u64)> {
        let IndexExpr::Affine {
            base,
            tid_coef,
            lane_coef,
            warp_coef,
            block_coef,
            iter_coefs,
        } = index
        else {
            return None;
        };
        if elems <= 0 {
            return None;
        }
        let first = mask.trailing_zeros() as usize;
        let span = (63 - mask.leading_zeros() as usize - first) as i64;
        let tid = i64::from(self.lanes[first]?.0);
        // Tids are `u32`: a warp whose tids wrap goes lane by lane.
        if i64::from(self.lanes[first + span as usize]?.0) - tid != span {
            return None;
        }
        let mut v = base
            .checked_add(tid_coef.checked_mul(tid)?)?
            .checked_add(lane_coef.checked_mul(first as i64)?)?
            .checked_add(warp_coef.checked_mul(i64::from(self.warp))?)?
            .checked_add(block_coef.checked_mul(i64::from(self.block))?)?;
        for &(depth, coef) in iter_coefs {
            let it = self.iters.get(depth as usize).copied().unwrap_or(0);
            v = v.checked_add(coef.checked_mul(it as i64)?)?;
        }
        let step = tid_coef.checked_add(*lane_coef)?;
        // The values are linear in the lane: if the last lane's fits, so
        // does every lane's between.
        step.checked_mul(span)?.checked_add(v)?;
        Some((v.rem_euclid(elems) as u64, step.rem_euclid(elems) as u64))
    }

    fn access(&mut self, acc: &AccessDesc, mask: u64) {
        let array = &self.kernel.arrays[acc.array];
        let elems = array.elems.max(1) as i64;
        let addr_of = |elem: u64| ByteAddr(array.base.0 + elem * array.elem_size as u64);
        let mut lane_addrs = Vec::with_capacity(mask.count_ones() as usize);
        if let Some((mut elem, step)) = self.affine_lanes(&acc.index, mask, elems) {
            let elems = elems as u64;
            // From the first active lane to the last, one compare-and-
            // adjust per lane; lanes the mask skips step too.
            for lane in mask.trailing_zeros()..u64::BITS - mask.leading_zeros() {
                if mask >> lane & 1 == 1 {
                    lane_addrs.push((lane as u8, addr_of(elem)));
                }
                elem += step;
                if elem >= elems {
                    elem -= elems;
                }
            }
        } else {
            for lane in lanes_of(mask) {
                let ctx = self.ctx(lane).expect("masked lanes are live");
                let elem = acc.index.eval(&ctx).rem_euclid(elems) as u64;
                lane_addrs.push((lane as u8, addr_of(elem)));
            }
        }
        self.events.push(WarpEvent::Access {
            pc: acc.pc,
            kind: acc.kind,
            lane_addrs,
        });
    }

    fn run(&mut self, stmts: &[Stmt], mask: u64) {
        if mask == 0 {
            return;
        }
        for stmt in stmts {
            match stmt {
                Stmt::Access(acc) => self.access(acc, mask),
                Stmt::Loop { trip, body } => {
                    // Per-lane trip counts; the warp iterates until the
                    // longest-running active lane finishes.
                    let mut trips = [0u32; WARP_SIZE as usize];
                    for lane in lanes_of(mask) {
                        let tid = self.lanes[lane].expect("masked lanes are live");
                        trips[lane] = trip.count_for(tid.0 as u64);
                    }
                    let max_trip = trips.iter().copied().max().unwrap_or(0);
                    for i in 0..max_trip {
                        let submask = lanes_of(mask)
                            .filter(|&lane| trips[lane] > i)
                            .fold(0u64, |m, lane| m | 1 << lane);
                        self.iters.push(i as u64);
                        self.run(body, submask);
                        self.iters.pop();
                    }
                }
                Stmt::If {
                    pred,
                    then_body,
                    else_body,
                } => {
                    let mut then_mask = 0u64;
                    for lane in lanes_of(mask) {
                        let ctx = self.ctx(lane).expect("masked lanes are live");
                        if pred.eval(&ctx) {
                            then_mask |= 1 << lane;
                        }
                    }
                    let else_mask = mask & !then_mask;
                    // SIMT serialization: both sides run, under
                    // complementary masks.
                    self.run(then_body, then_mask);
                    self.run(else_body, else_mask);
                }
                Stmt::Sync => self.events.push(WarpEvent::Sync),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::dsl;
    use crate::kernel::{IndexExpr, KernelBuilder, Pred, Stmt, Trip};

    fn vecadd(grid: u32, block: u32) -> KernelDesc {
        KernelBuilder::new("vecadd", grid, block)
            .array("a", 1 << 16)
            .array("b", 1 << 16)
            .read(Pc(0x10), 0, IndexExpr::tid_linear(0, 1))
            .read(Pc(0x18), 1, IndexExpr::tid_linear(0, 1))
            .write(Pc(0x20), 0, IndexExpr::tid_linear(0, 1))
            .build()
            .expect("valid")
    }

    #[test]
    fn vecadd_addresses_are_tid_linear() {
        let app = execute_kernel(&vecadd(2, 64));
        assert_eq!(app.warps.len(), 4);
        let w0 = &app.warps[0];
        assert_eq!(w0.events.len(), 3);
        if let WarpEvent::Access { pc, lane_addrs, .. } = &w0.events[0] {
            assert_eq!(*pc, Pc(0x10));
            assert_eq!(lane_addrs.len(), 32);
            let base = lane_addrs[0].1 .0;
            for (i, &(lane, addr)) in lane_addrs.iter().enumerate() {
                assert_eq!(lane as usize, i);
                assert_eq!(addr.0, base + 4 * i as u64);
            }
        } else {
            panic!("expected access event");
        }
        // Second warp of block 0 starts 32 elements later.
        if let (
            WarpEvent::Access { lane_addrs: a0, .. },
            WarpEvent::Access { lane_addrs: a1, .. },
        ) = (&app.warps[0].events[0], &app.warps[1].events[0])
        {
            assert_eq!(a1[0].1 .0 - a0[0].1 .0, 32 * 4);
        } else {
            panic!("expected access events");
        }
    }

    #[test]
    fn counts_are_consistent() {
        let app = execute_kernel(&vecadd(2, 64));
        let instructions = app
            .warps
            .iter()
            .flat_map(|w| w.events.iter())
            .filter(|e| matches!(e, WarpEvent::Access { .. }))
            .count();
        assert_eq!(instructions, 4 * 3);
        assert_eq!(app.total_thread_accesses(), 4 * 3 * 32);
        assert_eq!(app.thread_entries().len(), 4 * 3 * 32);
    }

    #[test]
    fn partial_warp_masks_padding_lanes() {
        let app = execute_kernel(&vecadd(1, 48));
        assert_eq!(app.warps.len(), 2);
        if let WarpEvent::Access { lane_addrs, .. } = &app.warps[1].events[0] {
            assert_eq!(lane_addrs.len(), 16);
        } else {
            panic!("expected access event");
        }
    }

    #[test]
    fn divergent_branch_executes_both_sides() {
        let k = KernelBuilder::new("div", 1u32, 32u32)
            .array("a", 1024)
            .stmt(Stmt::If {
                pred: Pred::LaneLt(8),
                then_body: vec![dsl::read(0x10, 0, IndexExpr::tid_linear(0, 1))],
                else_body: vec![dsl::read(0x20, 0, IndexExpr::tid_linear(100, 1))],
            })
            .build()
            .expect("valid");
        let app = execute_kernel(&k);
        let evs = &app.warps[0].events;
        assert_eq!(evs.len(), 2);
        match (&evs[0], &evs[1]) {
            (
                WarpEvent::Access {
                    pc: p0,
                    lane_addrs: a0,
                    ..
                },
                WarpEvent::Access {
                    pc: p1,
                    lane_addrs: a1,
                    ..
                },
            ) => {
                assert_eq!((*p0, a0.len()), (Pc(0x10), 8));
                assert_eq!((*p1, a1.len()), (Pc(0x20), 24));
            }
            _ => panic!("expected two access events"),
        }
    }

    #[test]
    fn branch_with_uniform_predicate_skips_empty_side() {
        let k = KernelBuilder::new("uniform", 1u32, 32u32)
            .array("a", 1024)
            .stmt(Stmt::If {
                pred: Pred::TidLt(1024), // all threads
                then_body: vec![dsl::read(0x10, 0, IndexExpr::tid_linear(0, 1))],
                else_body: vec![dsl::read(0x20, 0, IndexExpr::tid_linear(0, 1))],
            })
            .build()
            .expect("valid");
        let app = execute_kernel(&k);
        assert_eq!(app.warps[0].events.len(), 1);
    }

    #[test]
    fn loop_iterates_and_exposes_counter() {
        let k = KernelBuilder::new("loop", 1u32, 32u32)
            .array("a", 1 << 12)
            .stmt(dsl::loop_n(
                3,
                vec![dsl::read(0x10, 0, dsl::affine(0, 1, vec![(0, 32)]))],
            ))
            .build()
            .expect("valid");
        let app = execute_kernel(&k);
        let evs = &app.warps[0].events;
        assert_eq!(evs.len(), 3);
        let first_addrs: Vec<u64> = evs
            .iter()
            .map(|e| match e {
                WarpEvent::Access { lane_addrs, .. } => lane_addrs[0].1 .0,
                WarpEvent::Sync => unreachable!(),
            })
            .collect();
        assert_eq!(first_addrs[1] - first_addrs[0], 32 * 4);
        assert_eq!(first_addrs[2] - first_addrs[1], 32 * 4);
    }

    #[test]
    fn hashed_trip_loop_sheds_lanes() {
        let k = KernelBuilder::new("ragged", 1u32, 32u32)
            .array("a", 1 << 12)
            .stmt(Stmt::Loop {
                trip: Trip::Hashed {
                    seed: 7,
                    base: 1,
                    spread: 4,
                },
                body: vec![dsl::read(0x10, 0, IndexExpr::tid_linear(0, 1))],
            })
            .build()
            .expect("valid");
        let app = execute_kernel(&k);
        let sizes: Vec<usize> = app.warps[0]
            .events
            .iter()
            .map(WarpEvent::thread_accesses)
            .collect();
        // Iteration 0 has all lanes; later iterations shed lanes.
        assert_eq!(sizes[0], 32);
        assert!(sizes.last().copied().expect("at least one event") < 32);
        for pair in sizes.windows(2) {
            assert!(pair[1] <= pair[0], "active lanes must be non-increasing");
        }
    }

    #[test]
    fn sync_events_are_emitted() {
        let k = KernelBuilder::new("sync", 1u32, 64u32)
            .array("a", 1024)
            .read(Pc(0x10), 0, IndexExpr::tid_linear(0, 1))
            .stmt(Stmt::Sync)
            .read(Pc(0x20), 0, IndexExpr::tid_linear(0, 1))
            .build()
            .expect("valid");
        let app = execute_kernel(&k);
        for w in &app.warps {
            assert_eq!(w.events.len(), 3);
            assert!(matches!(w.events[1], WarpEvent::Sync));
        }
    }

    #[test]
    fn addresses_stay_within_arrays() {
        let k = KernelBuilder::new("wrap", 4u32, 64u32)
            .array("a", 100) // small array forces wrapping
            .read(Pc(0x10), 0, IndexExpr::tid_linear(0, 7))
            .build()
            .expect("valid");
        let app = execute_kernel(&k);
        let a = &k.arrays[0];
        for (_, acc) in app.thread_entries() {
            assert!(acc.addr.0 >= a.base.0);
            assert!(acc.addr.0 < a.base.0 + a.size_bytes());
        }
    }

    #[test]
    fn execution_is_deterministic() {
        let k = vecadd(3, 96);
        assert_eq!(execute_kernel(&k), execute_kernel(&k));
    }
}
