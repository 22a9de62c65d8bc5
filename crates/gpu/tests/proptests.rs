//! Property-based tests of the execution substrate.

use gmap_gpu::coalesce::{coalesce_addrs, coalesce_app};
use gmap_gpu::exec::execute_kernel;
use gmap_gpu::hierarchy::{GpuConfig, LaunchConfig};
use gmap_gpu::kernel::{dsl, IndexExpr, KernelBuilder, Pred, Stmt, Trip};
use gmap_gpu::schedule::{run_schedule, FixedLatency, Policy, WarpStreamEvent};
use gmap_trace::record::{ByteAddr, Pc, WarpId};
use proptest::prelude::*;

/// The executor `execute_kernel` replaced, kept as its oracle: every
/// index evaluated lane by lane through `IndexExpr::eval`.
mod reference {
    use gmap_gpu::exec::{AppTrace, WarpEvent, WarpTrace, WARP_SIZE};
    use gmap_gpu::kernel::{EvalCtx, KernelDesc, Stmt};
    use gmap_trace::record::{ByteAddr, ThreadId, WarpId};

    pub fn execute_kernel(kernel: &KernelDesc) -> AppTrace {
        kernel.validate().expect("kernel must be valid");
        let launch = kernel.launch;
        let total_warps = launch.total_warps(WARP_SIZE);
        let mut warps = Vec::with_capacity(total_warps as usize);
        for w in 0..total_warps {
            let warp = WarpId(w);
            let block = launch.block_of_warp(warp, WARP_SIZE);
            let lanes: Vec<Option<ThreadId>> = (0..WARP_SIZE)
                .map(|lane| launch.thread_of(warp, lane, WARP_SIZE))
                .collect();
            let initial_mask: u64 = lanes
                .iter()
                .enumerate()
                .filter(|(_, t)| t.is_some())
                .map(|(i, _)| 1u64 << i)
                .sum();
            let mut exec = WarpExec {
                kernel,
                warp: w,
                block,
                lanes: &lanes,
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

    struct WarpExec<'a> {
        kernel: &'a KernelDesc,
        warp: u32,
        block: u32,
        lanes: &'a [Option<ThreadId>],
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

        fn run(&mut self, stmts: &[Stmt], mask: u64) {
            if mask == 0 {
                return;
            }
            for stmt in stmts {
                match stmt {
                    Stmt::Access(acc) => {
                        let array = &self.kernel.arrays[acc.array];
                        let elems = array.elems.max(1) as i64;
                        let mut lane_addrs = Vec::new();
                        for lane in 0..self.lanes.len() {
                            if mask & (1 << lane) == 0 {
                                continue;
                            }
                            let ctx = self.ctx(lane).expect("masked lanes are live");
                            let elem = acc.index.eval(&ctx).rem_euclid(elems) as u64;
                            let addr = ByteAddr(array.base.0 + elem * array.elem_size as u64);
                            lane_addrs.push((lane as u8, addr));
                        }
                        self.events.push(WarpEvent::Access {
                            pc: acc.pc,
                            kind: acc.kind,
                            lane_addrs,
                        });
                    }
                    Stmt::Loop { trip, body } => {
                        let trips: Vec<u32> = (0..self.lanes.len())
                            .map(|lane| match self.lanes[lane] {
                                Some(tid) if mask & (1 << lane) != 0 => {
                                    trip.count_for(tid.0 as u64)
                                }
                                _ => 0,
                            })
                            .collect();
                        let max_trip = trips.iter().copied().max().unwrap_or(0);
                        for i in 0..max_trip {
                            let submask: u64 = trips
                                .iter()
                                .enumerate()
                                .filter(|&(_, &t)| t > i)
                                .map(|(lane, _)| 1u64 << lane)
                                .fold(0, |m, b| m | b)
                                & mask;
                            if submask == 0 {
                                break;
                            }
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
                        for lane in 0..self.lanes.len() {
                            if mask & (1 << lane) == 0 {
                                continue;
                            }
                            let ctx = self.ctx(lane).expect("masked lanes are live");
                            if pred.eval(&ctx) {
                                then_mask |= 1 << lane;
                            }
                        }
                        let else_mask = mask & !then_mask;
                        self.run(then_body, then_mask);
                        self.run(else_body, else_mask);
                    }
                    Stmt::Sync => self.events.push(WarpEvent::Sync),
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// The executor equals the replaced lane-by-lane executor on random
    /// kernels, event for event and address for address.
    #[test]
    fn executor_matches_reference(seed in any::<u64>()) {
        let k = gmap_testkit::kernel(seed);
        prop_assert_eq!(execute_kernel(&k), reference::execute_kernel(&k));
    }

    /// The static bound `max_thread_accesses`, known before anything
    /// executes, is never below what an execution emits.
    #[test]
    fn max_thread_accesses_bounds_execution(seed in any::<u64>()) {
        let k = gmap_testkit::kernel(seed);
        let emitted = execute_kernel(&k).total_thread_accesses();
        prop_assert!(k.max_thread_accesses() >= u128::from(emitted));
    }
}

proptest! {
    /// Coalescing invariants: output is sorted, distinct, line-aligned,
    /// no longer than the input, and covers every input address.
    #[test]
    fn coalescing_invariants(
        addrs in proptest::collection::vec(any::<u64>(), 1..64),
        shift in 5u32..8, // line sizes 32..=128
    ) {
        let line = 1u64 << shift;
        let input: Vec<ByteAddr> = addrs.iter().map(|&a| ByteAddr(a)).collect();
        let out = coalesce_addrs(&input, line);
        prop_assert!(!out.is_empty());
        prop_assert!(out.len() <= input.len());
        prop_assert!(out.windows(2).all(|w| w[0] < w[1]), "sorted & distinct");
        for t in &out {
            prop_assert_eq!(t.0 % line, 0, "aligned");
        }
        for a in &input {
            prop_assert!(out.contains(&a.line_base(line)), "covered");
        }
    }

    /// Thread/warp mapping is a bijection over live threads.
    #[test]
    fn warp_lane_mapping_bijective(blocks in 1u32..8, tpb in 1u32..512) {
        let launch = LaunchConfig::new(blocks, tpb);
        let mut seen = std::collections::HashSet::new();
        for w in 0..launch.total_warps(32) {
            for lane in 0..32 {
                if let Some(tid) = launch.thread_of(WarpId(w), lane, 32) {
                    prop_assert!(tid.0 < launch.total_threads() as u32);
                    prop_assert!(seen.insert(tid), "duplicate thread {tid}");
                }
            }
        }
        prop_assert_eq!(seen.len() as u64, launch.total_threads());
    }

    /// Every access an executed kernel emits stays inside its arrays, for
    /// arbitrary affine coefficients.
    #[test]
    fn exec_addresses_in_bounds(
        tid_coef in -64i64..64,
        base in -1000i64..1000,
        iter_coef in -512i64..512,
        trip in 1u32..8,
    ) {
        let k = KernelBuilder::new("prop", 2u32, 64u32)
            .array("a", 4096)
            .stmt(dsl::loop_n(trip, vec![dsl::read(0x10, 0, dsl::affine(base, tid_coef, vec![(0, iter_coef)]))]))
            .build()
            .expect("valid");
        let app = execute_kernel(&k);
        let a = &k.arrays[0];
        for (_, acc) in app.thread_entries() {
            prop_assert!(acc.addr.0 >= a.base.0);
            prop_assert!(acc.addr.0 < a.base.0 + a.size_bytes());
        }
        // Volume: every thread executes the loop `trip` times.
        prop_assert_eq!(app.total_thread_accesses(), 128 * trip as u64);
    }

    /// The scheduler issues every event exactly once, under every policy
    /// and random latencies, with or without divergence.
    #[test]
    fn scheduler_conserves_events(
        latency in 1u64..300,
        policy_sel in 0u8..3,
        percent in 0u8..101,
        spread in 0u32..5,
        cores in 1u16..4,
    ) {
        let policy = match policy_sel {
            0 => Policy::Lrr,
            1 => Policy::Gto,
            _ => Policy::SelfProb(0.5),
        };
        let k = KernelBuilder::new("prop", 3u32, 96u32)
            .array("a", 1 << 14)
            .stmt(Stmt::If {
                pred: Pred::Hashed { seed: 1, percent },
                then_body: vec![Stmt::Loop {
                    trip: Trip::Hashed { seed: 2, base: 1, spread },
                    body: vec![dsl::read(0x10, 0, IndexExpr::tid_linear(0, 1))],
                }],
                else_body: vec![dsl::read(0x20, 0, IndexExpr::tid_linear(0, 2))],
            })
            .stmt(Stmt::Sync)
            .stmt(dsl::read(0x30, 0, IndexExpr::tid_linear(0, 1)))
            .build()
            .expect("valid");
        let streams = coalesce_app(&execute_kernel(&k), 128);
        let total: usize = streams.iter().map(|s| s.num_accesses()).sum();
        let gpu = GpuConfig { num_cores: cores, ..GpuConfig::fermi_baseline() };
        let mut mem = FixedLatency(latency);
        let out = run_schedule(&streams, &k.launch, &gpu, policy, &mut mem, 7);
        prop_assert_eq!(out.issued_accesses, total as u64);
        prop_assert!(out.cycles > 0 || total == 0);
        prop_assert!((0.0..=1.0).contains(&out.sched_p_self));
    }

    /// Transactions per warp access never exceed the warp size, and warp
    /// streams preserve the kernel's event counts.
    #[test]
    fn coalesce_app_event_conservation(tpb in 32u32..256) {
        let k = KernelBuilder::new("prop", 2u32, tpb)
            .array("a", 1 << 16)
            .read(Pc(0x10), 0, IndexExpr::tid_linear(0, 3))
            .build()
            .expect("valid");
        let app = execute_kernel(&k);
        let streams = coalesce_app(&app, 128);
        prop_assert_eq!(streams.len() as u64, app.warps.len() as u64);
        for s in &streams {
            for e in &s.events {
                if let WarpStreamEvent::Access(a) = e {
                    prop_assert!(a.lines.len() <= 32);
                    prop_assert!(!a.lines.is_empty());
                }
            }
        }
    }
}
