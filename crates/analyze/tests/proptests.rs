//! Differential properties: the static analyzer versus the SIMT executor.
//!
//! Soundness is the whole point of the abstract domain, so it is tested
//! as a property over *arbitrary* kernels, not hand-picked ones: every
//! address the executor emits must lie inside the analyzer's static
//! per-PC interval, the static coalescing degree must equal what
//! `coalesce.rs` measures on a uniform warp, and a barrier the analyzer
//! passes must be reached equally often by every thread of a block.

use gmap_analyze::{analyze_kernel, FindingKind};
use gmap_gpu::coalesce::coalesce_addrs;
use gmap_gpu::exec::{execute_kernel, WarpEvent, WARP_SIZE};
use gmap_gpu::kernel::{dsl, EvalCtx, IndexExpr, KernelBuilder, Stmt};
use gmap_testkit::verify_against_trace;
use gmap_trace::record::{Pc, WarpId};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every address emitted by `exec` lies inside the analyzer's static
    /// per-PC interval, on the workspace's random kernels: affine
    /// coefficients up to near `i64` overflow (wrapping ones included),
    /// hashed patterns, arrays past `i64` elements, nested loops with
    /// constant and hashed trips, and branches under every predicate.
    #[test]
    fn static_intervals_cover_every_dynamic_address(seed in any::<u64>()) {
        let k = gmap_testkit::kernel(seed);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Barrier soundness over arbitrary kernels: a report without a
    /// `barrier-divergence` finding means every thread of a block reaches
    /// the same number of barriers, so none waits forever. Counted per
    /// thread: per-warp `WarpEvent::Sync` counts cannot tell, since under
    /// `LaneLt` every warp syncs alike while its lanes disagree.
    #[test]
    fn barriers_without_a_divergence_finding_are_reached_alike(seed in any::<u64>()) {
        let k = gmap_testkit::kernel(seed);
        let report = analyze_kernel(&k);
        let flagged = report
            .findings
            .iter()
            .any(|f| f.kind == FindingKind::BarrierDivergence);
        if !flagged {
            let launch = k.launch;
            let mut per_block = vec![Vec::new(); launch.num_blocks() as usize];
            for w in 0..launch.total_warps(WARP_SIZE) {
                let warp = WarpId(w);
                let block = launch.block_of_warp(warp, WARP_SIZE);
                for lane in 0..WARP_SIZE {
                    let Some(tid) = launch.thread_of(warp, lane, WARP_SIZE) else {
                        continue;
                    };
                    let ctx = EvalCtx {
                        tid: u64::from(tid.0),
                        lane,
                        warp: w,
                        block,
                        iters: &[],
                    };
                    per_block[block as usize].push(barriers_reached(&k.body, &ctx));
                }
            }
            for (block, counts) in per_block.iter().enumerate() {
                prop_assert!(
                    counts.iter().all(|&c| c == counts[0]),
                    "block {block} reaches barriers unevenly {counts:?} with no finding: {:?}",
                    k.body
                );
            }
        }
    }
}
