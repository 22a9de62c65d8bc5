//! Property-based tests of the execution substrate.

use gmap_gpu::coalesce::{coalesce_addrs, coalesce_app};
use gmap_gpu::exec::execute_kernel;
use gmap_gpu::hierarchy::{GpuConfig, LaunchConfig};
use gmap_gpu::kernel::{dsl, AccessDesc, IndexExpr, KernelBuilder, KernelDesc, Pred, Stmt, Trip};
use gmap_gpu::schedule::{run_schedule, FixedLatency, Policy, WarpStreamEvent};
use gmap_trace::record::{AccessKind, ByteAddr, Pc, WarpId};
use gmap_trace::rng::Rng;
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

/// Random kernels for the executor's differential test: partial warps,
/// divergent masks, ragged and nested loops, arrays smaller than a warp's
/// span (and beyond `i64` elements), hashed indices, and affine
/// coefficients from small to near `i64` overflow.
struct KernelGen {
    rng: Rng,
    /// Largest tid, warp and block of the launch.
    max_tid: u64,
    max_warp: u64,
    max_block: u64,
    arrays: usize,
    /// Largest iterator value of each enclosing loop, outermost first.
    iter_max: Vec<u64>,
    /// Enclosing loops and branches.
    nesting: usize,
    next_pc: u64,
}

impl KernelGen {
    fn kernel(seed: u64) -> KernelDesc {
        let mut rng = Rng::seed_from(seed);
        let grid = 1 + rng.gen_range(4) as u32;
        let tpb = 1 + rng.gen_range(160) as u32;
        let mut b = KernelBuilder::new("diff", grid, tpb);
        let arrays = 1 + rng.gen_range(3) as usize;
        for a in 0..arrays {
            let elems = [1, 5, 31, 32, 33, 100, 4096, 1 << 20][rng.gen_range(8) as usize];
            let elem_size = [1, 4, 8][rng.gen_range(3) as usize];
            b = b.array_with(&format!("a{a}"), elems, elem_size);
        }
        // Past `i64::MAX` elements the executor's wrap divisor goes
        // negative: the last array sometimes goes there.
        let huge = match rng.gen_range(8) {
            0 => Some(((1u64 << 63) + rng.gen_range(1000), 1)),
            1 => Some((u64::MAX, 0)),
            _ => None,
        };
        if let Some((elems, elem_size)) = huge {
            b = b.array_with("huge", elems, elem_size);
        }
        let launch = LaunchConfig::new(grid, tpb);
        let mut gen = KernelGen {
            rng,
            max_tid: launch.total_threads() - 1,
            max_warp: u64::from(launch.total_warps(32) - 1),
            max_block: u64::from(grid - 1),
            arrays: arrays + usize::from(huge.is_some()),
            iter_max: Vec::new(),
            nesting: 0,
            next_pc: 0x10,
        };
        for stmt in gen.stmts() {
            b = b.stmt(stmt);
        }
        b.build().expect("generated kernels are valid")
    }

    fn stmts(&mut self) -> Vec<Stmt> {
        (0..1 + self.rng.gen_range(4))
            .map(|_| self.stmt())
            .collect()
    }

    fn stmt(&mut self) -> Stmt {
        let nested = self.nesting < 3;
        self.nesting += 1;
        let stmt = match self.rng.gen_range(10) {
            0..=4 => self.access(),
            5 | 6 if nested => {
                let trip = if self.rng.gen_bool(0.5) {
                    Trip::Const(self.rng.gen_range(5) as u32)
                } else {
                    Trip::Hashed {
                        seed: self.rng.next_u64(),
                        base: self.rng.gen_range(3) as u32,
                        spread: self.rng.gen_range(5) as u32,
                    }
                };
                let most = match trip {
                    Trip::Const(n) => n,
                    Trip::Hashed { base, spread, .. } => base + spread.saturating_sub(1),
                };
                self.iter_max.push(u64::from(most.saturating_sub(1)));
                let body = self.stmts();
                self.iter_max.pop();
                Stmt::Loop { trip, body }
            }
            7 | 8 if nested => {
                let r = self.rng.gen_range(4) as u32;
                let pred = match self.rng.gen_range(5) {
                    0 => Pred::TidLt(self.rng.gen_range(200) as u32),
                    1 => Pred::TidMod { m: 1 + r, r },
                    2 => Pred::LaneLt(self.rng.gen_range(33) as u32),
                    3 => Pred::BlockMod { m: 1 + r, r },
                    _ => Pred::Hashed {
                        seed: self.rng.next_u64(),
                        percent: self.rng.gen_range(101) as u8,
                    },
                };
                let then_body = self.stmts();
                let else_body = self.stmts();
                Stmt::If {
                    pred,
                    then_body,
                    else_body,
                }
            }
            9 => Stmt::Sync,
            _ => self.access(),
        };
        self.nesting -= 1;
        stmt
    }

    fn access(&mut self) -> Stmt {
        let index = match self.rng.gen_range(8) {
            0 => IndexExpr::Hashed {
                seed: self.rng.next_u64(),
            },
            1 => IndexExpr::HashedPerThread {
                seed: self.rng.next_u64(),
            },
            _ => self.affine(),
        };
        self.next_pc += 8;
        Stmt::Access(AccessDesc {
            pc: Pc(self.next_pc),
            array: self.rng.gen_range(self.arrays as u64) as usize,
            kind: if self.rng.gen_bool(0.3) {
                AccessKind::Write
            } else {
                AccessKind::Read
            },
            index,
        })
    }

    fn coef(&mut self) -> i64 {
        let c = match self.rng.gen_range(5) {
            0 => 0,
            1 | 2 => self.rng.gen_range_i64(-64, 64),
            3 => self.rng.gen_range_i64(-100_000, 100_000),
            _ => i64::MAX >> self.rng.gen_range(48),
        };
        if self.rng.gen_bool(0.5) {
            -c
        } else {
            c
        }
    }

    /// An affine index whose every partial sum, as `IndexExpr::eval`
    /// computes it, stays inside `i64` — the reference would panic on an
    /// overflow in a test build — with coefficients halved until it does,
    /// so near-overflow values survive.
    fn affine(&mut self) -> IndexExpr {
        let mut base = match self.rng.gen_range(4) {
            0 => i64::MAX - self.rng.gen_range(1 << 20) as i64,
            1 => i64::MIN + self.rng.gen_range(1 << 20) as i64,
            _ => self.coef(),
        };
        let mut coefs = [self.coef(), self.coef(), self.coef(), self.coef()];
        let mut iter_coefs = Vec::new();
        for d in 0..self.iter_max.len() {
            if self.rng.gen_bool(0.6) {
                iter_coefs.push((d as u8, self.coef()));
            }
        }
        while !self.fits(base, &coefs, &iter_coefs) {
            base /= 2;
            coefs.iter_mut().for_each(|c| *c /= 2);
            iter_coefs.iter_mut().for_each(|(_, c)| *c /= 2);
        }
        let [tid_coef, lane_coef, warp_coef, block_coef] = coefs;
        IndexExpr::Affine {
            base,
            tid_coef,
            lane_coef,
            warp_coef,
            block_coef,
            iter_coefs,
        }
    }

    /// Interval bound of `IndexExpr::eval`'s products and partial sums.
    fn fits(&self, base: i64, coefs: &[i64; 4], iter_coefs: &[(u8, i64)]) -> bool {
        let inside = |v: i128| (i128::from(i64::MIN)..=i128::from(i64::MAX)).contains(&v);
        let maxes = [self.max_tid, 31, self.max_warp, self.max_block];
        let terms = coefs.iter().zip(maxes).chain(
            iter_coefs
                .iter()
                .map(|(d, c)| (c, self.iter_max[*d as usize])),
        );
        let (mut lo, mut hi) = (i128::from(base), i128::from(base));
        for (&c, x) in terms {
            let p = i128::from(c) * i128::from(x);
            lo += p.min(0);
            hi += p.max(0);
            if !inside(p) || !inside(lo) || !inside(hi) {
                return false;
            }
        }
        true
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// The executor equals the replaced lane-by-lane executor on random
    /// kernels, event for event and address for address.
    #[test]
    fn executor_matches_reference(seed in any::<u64>()) {
        let k = KernelGen::kernel(seed);
        prop_assert_eq!(execute_kernel(&k), reference::execute_kernel(&k));
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
