//! Differential properties: the static analyzer versus the SIMT executor.
//!
//! Soundness is the whole point of the abstract domain, so it is tested
//! as a property over *arbitrary* kernels, not hand-picked ones: every
//! address the executor emits must lie inside the analyzer's static
//! per-PC interval, the static coalescing degree must equal what
//! `coalesce.rs` measures on a uniform warp, and a barrier the analyzer
//! passes must be reached equally often by every thread of a block.

use gmap_analyze::{analyze_kernel, verify_against_trace, FindingKind};
use gmap_gpu::coalesce::coalesce_addrs;
use gmap_gpu::exec::{execute_kernel, WarpEvent, WARP_SIZE};
use gmap_gpu::kernel::{dsl, EvalCtx, IndexExpr, KernelBuilder, Pred, Stmt, Trip};
use gmap_trace::record::Pc;
use gmap_trace::rng::Rng;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every address emitted by `exec` lies inside the analyzer's static
    /// per-PC interval — for arbitrary affine coefficients (including
    /// wrapping ones), hashed patterns, loops with constant and hashed
    /// trips, and divergent branches.
    #[test]
    fn static_intervals_cover_every_dynamic_address(
        blocks in 1u32..4,
        tpb in 1u32..160,
        elems in 1u64..5000,
        base in -3000i64..3000,
        tid_coef in -40i64..40,
        lane_coef in -5i64..5,
        warp_coef in -70i64..70,
        block_coef in -100i64..100,
        iter_coef in -600i64..600,
        trip_sel in 0u8..3,
        spread in 0u32..4,
        pred_sel in 0u8..5,
        n in 0u32..300,
        seed in 0u64..1000,
    ) {
        let trip = match trip_sel {
            0 => Trip::Const(1),
            1 => Trip::Const(4),
            _ => Trip::Hashed { seed, base: 1, spread },
        };
        let pred = match pred_sel {
            0 => Pred::TidLt(n),
            1 => Pred::TidMod { m: n % 7 + 1, r: n % 3 },
            2 => Pred::LaneLt(n % 40),
            3 => Pred::BlockMod { m: n % 3 + 1, r: 0 },
            _ => Pred::Hashed { seed, percent: (n % 120) as u8 },
        };
        let k = KernelBuilder::new("prop", blocks, tpb)
            .array("a", elems)
            .array("b", elems + 7)
            .stmt(Stmt::Loop {
                trip,
                body: vec![
                    dsl::read(0x10, 0, IndexExpr::Affine {
                        base,
                        tid_coef,
                        lane_coef,
                        warp_coef,
                        block_coef,
                        iter_coefs: vec![(0, iter_coef)],
                    }),
                    Stmt::If {
                        pred,
                        then_body: vec![dsl::read(0x20, 1, IndexExpr::Hashed { seed })],
                        else_body: vec![dsl::write(0x28, 1, IndexExpr::HashedPerThread { seed })],
                    },
                ],
            })
            .stmt(dsl::read(0x30, 0, IndexExpr::tid_linear(base, tid_coef)))
            .build()
            .expect("structurally valid");
        let report = analyze_kernel(&k);
        let app = execute_kernel(&k);
        let violations = verify_against_trace(&report, &app, 5);
        prop_assert!(violations.is_empty(), "soundness violations: {violations:?}");
    }

    /// On uniform warps (no divergence), the static coalescing degree of
    /// each site equals the transaction count `coalesce_addrs` produces
    /// for warp 0's first execution of that PC — affine or hashed.
    #[test]
    fn static_degree_matches_dynamic_coalescing(
        tpb in 32u32..129,
        stride in -48i64..48,
        base in 0i64..64,
        elems in 1024u64..10000,
        use_hashed in any::<bool>(),
        seed in 0u64..1000,
        trip in 1u32..4,
        iter_coef in -200i64..200,
    ) {
        let index = if use_hashed {
            IndexExpr::Hashed { seed }
        } else {
            IndexExpr::Affine {
                base,
                tid_coef: stride,
                lane_coef: 0,
                warp_coef: 0,
                block_coef: 0,
                iter_coefs: vec![(0, iter_coef)],
            }
        };
        let k = KernelBuilder::new("prop", 2u32, tpb)
            .array("a", elems)
            .stmt(dsl::loop_n(trip, vec![dsl::read(0x10, 0, index)]))
            .build()
            .expect("structurally valid");
        let report = analyze_kernel(&k);
        let site = report.sites.iter().find(|s| s.pc == 0x10).expect("site");
        let app = execute_kernel(&k);
        let w0 = app
            .warps
            .iter()
            .find(|w| w.block == 0 && w.warp.0 == 0)
            .expect("warp 0");
        let first = w0
            .events
            .iter()
            .find_map(|e| match e {
                WarpEvent::Access { pc, lane_addrs, .. } if *pc == Pc(0x10) => Some(lane_addrs),
                _ => None,
            })
            .expect("warp 0 executes pc 0x10");
        let addrs: Vec<_> = first.iter().map(|&(_, a)| a).collect();
        let dynamic = coalesce_addrs(&addrs, 128).len() as u32;
        prop_assert_eq!(
            site.degree, dynamic,
            "static degree {} != dynamic transactions {}", site.degree, dynamic
        );
    }
}

/// Barriers one thread reaches, walking the body as that thread alone
/// would: its own branch outcomes and its own trip counts. Neither
/// depends on a loop iteration, so a loop multiplies its body's count.
fn barriers_reached(stmts: &[Stmt], ctx: &EvalCtx<'_>) -> u64 {
    stmts
        .iter()
        .map(|stmt| match stmt {
            Stmt::Access(_) => 0,
            Stmt::Sync => 1,
            Stmt::Loop { trip, body } => {
                u64::from(trip.count_for(ctx.tid)) * barriers_reached(body, ctx)
            }
            Stmt::If {
                pred,
                then_body,
                else_body,
            } => barriers_reached(if pred.eval(ctx) { then_body } else { else_body }, ctx),
        })
        .sum()
}

/// A random predicate of any kind, with its bound drawn so that both
/// uniform and divergent cuts of a `tpb`-thread block come up.
fn arb_pred(rng: &mut Rng, tpb: u32, total: u64) -> Pred {
    let small = |rng: &mut Rng, n: u64| rng.gen_range(n) as u32;
    match rng.gen_range(5) {
        0 => Pred::TidLt(if rng.gen_bool(0.5) {
            tpb * small(rng, 4)
        } else {
            small(rng, total + 2)
        }),
        1 => Pred::TidMod {
            m: 1 + small(rng, 3),
            r: small(rng, 3),
        },
        2 => Pred::LaneLt(small(rng, 40)),
        3 => Pred::BlockMod {
            m: 1 + small(rng, 3),
            r: small(rng, 2),
        },
        _ => Pred::Hashed {
            seed: rng.next_u64(),
            percent: [0, 30, 100][rng.gen_range(3) as usize],
        },
    }
}

/// A random body of reads and barriers, loops and branches nested up to
/// `depth` deep: barriers land at top level, in constant- and hashed-trip
/// loops and under every predicate kind.
fn arb_body(rng: &mut Rng, depth: u32, tpb: u32, total: u64) -> Vec<Stmt> {
    let len = 1 + rng.gen_range(3);
    (0..len)
        .map(|_| match rng.gen_range(if depth == 0 { 2 } else { 4 }) {
            0 => Stmt::Sync,
            1 => dsl::read(0x10, 0, IndexExpr::tid_linear(0, 1)),
            2 => Stmt::Loop {
                trip: if rng.gen_bool(0.5) {
                    Trip::Const(rng.gen_range(4) as u32)
                } else {
                    Trip::Hashed {
                        seed: rng.next_u64(),
                        base: rng.gen_range(3) as u32,
                        spread: rng.gen_range(4) as u32,
                    }
                },
                body: arb_body(rng, depth - 1, tpb, total),
            },
            _ => Stmt::If {
                pred: arb_pred(rng, tpb, total),
                then_body: arb_body(rng, depth - 1, tpb, total),
                else_body: if rng.gen_bool(0.5) {
                    arb_body(rng, depth - 1, tpb, total)
                } else {
                    vec![]
                },
            },
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Barrier soundness over arbitrary kernels: a report without a
    /// `barrier-divergence` finding means every thread of a block reaches
    /// the same number of barriers, so none waits forever. Counted per
    /// thread: per-warp `WarpEvent::Sync` counts cannot tell, since under
    /// `LaneLt` every warp syncs alike while its lanes disagree.
    #[test]
    fn barriers_without_a_divergence_finding_are_reached_alike(
        blocks in 1u32..4,
        tpb in 1u32..160,
        seed in any::<u64>(),
    ) {
        let total = u64::from(blocks * tpb);
        let mut rng = Rng::seed_from(seed);
        let mut builder = KernelBuilder::new("barriers", blocks, tpb).array("a", total);
        for stmt in arb_body(&mut rng, 3, tpb, total) {
            builder = builder.stmt(stmt);
        }
        let k = builder.build().expect("structurally valid");
        let report = analyze_kernel(&k);
        let flagged = report
            .findings
            .iter()
            .any(|f| f.kind == FindingKind::BarrierDivergence);
        if !flagged {
            let wpb = tpb.div_ceil(WARP_SIZE);
            for block in 0..blocks {
                let counts: Vec<u64> = (0..tpb)
                    .map(|t| {
                        let ctx = EvalCtx {
                            tid: u64::from(block * tpb + t),
                            lane: t % WARP_SIZE,
                            warp: block * wpb + t / WARP_SIZE,
                            block,
                            iters: &[],
                        };
                        barriers_reached(&k.body, &ctx)
                    })
                    .collect();
                prop_assert!(
                    counts.iter().all(|&c| c == counts[0]),
                    "block {block} reaches barriers unevenly {counts:?} with no finding: {:?}",
                    k.body
                );
            }
        }
    }
}
