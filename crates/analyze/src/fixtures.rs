//! Analyzer fixtures: small kernels that each trip exactly one analyzer
//! check (the [`NAMES`] negatives), plus race-free *positive* kernels
//! ([`phased_stencil`], [`phased_reduction`], [`clean_streaming`]) the
//! detector must certify. Used by the test suite, the CLI
//! (`gmap analyze --fixture`) and the serve smoke test (a guaranteed-422
//! spec).

use gmap_gpu::hierarchy::LaunchConfig;
use gmap_gpu::kernel::dsl::{loop_n, read, write};
use gmap_gpu::kernel::{ArrayDesc, IndexExpr, KernelBuilder, KernelDesc, Pred, Stmt};
use gmap_trace::record::{ByteAddr, Pc};

/// Names of all negative fixtures, in [`by_name`] order.
pub const NAMES: [&str; 8] = [
    "oob-affine",
    "uncoalesced",
    "barrier-divergent",
    "overlapping-write",
    "race-ww",
    "race-rw",
    "race-interblock",
    "race-ww-interblock",
];

/// An affine read whose index provably leaves `[0, elems)`: 1024 threads
/// reading `data[tid * 2]` from a 1024-element array — tids above 511
/// wrap. The executor runs this "fine"; the analyzer must flag PC 0x10.
pub fn oob_affine() -> KernelDesc {
    KernelBuilder::new("oob-affine", 8u32, 128u32)
        .array("data", 1024)
        .read(Pc(0x10), 0, IndexExpr::tid_linear(0, 2))
        .build()
        .expect("fixture is structurally valid")
}

/// A fully uncoalesced streaming write: adjacent lanes are 128 bytes
/// apart (32 elems x 4 B), so a full warp touches 32 distinct segments —
/// coalescing degree 32 at PC 0x20.
pub fn uncoalesced() -> KernelDesc {
    let threads = 4u64 * 128;
    KernelBuilder::new("uncoalesced", 4u32, 128u32)
        .array("out", threads * 32)
        .write(Pc(0x20), 0, IndexExpr::tid_linear(0, 32))
        .build()
        .expect("fixture is structurally valid")
}

/// A barrier under a block-divergent branch: half of each warp takes the
/// `then` side and waits at a `__syncthreads()` the other half never
/// reaches. Real hardware deadlocks; the analyzer must flag it.
pub fn barrier_divergent() -> KernelDesc {
    KernelBuilder::new("barrier-divergent", 2u32, 64u32)
        .array("data", 4096)
        .stmt(Stmt::If {
            pred: Pred::LaneLt(16),
            then_body: vec![read(0x30, 0, IndexExpr::tid_linear(0, 1)), Stmt::Sync],
            else_body: vec![],
        })
        .build()
        .expect("fixture is structurally valid")
}

/// Two arrays whose byte ranges alias, with a write into one of them —
/// a layout [`KernelBuilder`] can never produce, so it is hand-built.
pub fn overlapping_write() -> KernelDesc {
    KernelDesc {
        name: "overlapping-write".into(),
        launch: LaunchConfig::new(2u32, 64u32),
        arrays: vec![
            ArrayDesc {
                name: "a".into(),
                base: ByteAddr(0),
                elems: 1024,
                elem_size: 4,
            },
            // Starts halfway inside `a`.
            ArrayDesc {
                name: "b".into(),
                base: ByteAddr(2048),
                elems: 1024,
                elem_size: 4,
            },
        ],
        body: vec![
            read(0x40, 0, IndexExpr::tid_linear(0, 1)),
            write(0x48, 1, IndexExpr::tid_linear(0, 1)),
        ],
    }
}

/// Every thread of a block writes the block's slot of `acc` in the same
/// barrier phase: a textbook cross-warp write-write race. The leading
/// tid-linear write and the barrier are innocent — the kernel *claims*
/// phase discipline, so the proven race at PC 0x18 is an error.
pub fn race_ww() -> KernelDesc {
    KernelBuilder::new("race-ww", 2u32, 64u32)
        .array("data", 128)
        .array("acc", 2)
        .write(Pc(0x10), 0, IndexExpr::tid_linear(0, 1))
        .stmt(Stmt::Sync)
        .write(
            Pc(0x18),
            1,
            IndexExpr::Affine {
                base: 0,
                tid_coef: 0,
                lane_coef: 0,
                warp_coef: 0,
                block_coef: 1,
                iter_coefs: vec![],
            },
        )
        .build()
        .expect("fixture is structurally valid")
}

/// Each warp reads the *other* warp's freshly written tile elements with
/// no barrier in between (the sync comes only after the read): a
/// cross-warp read-write race at PCs 0x10/0x20. The read index mirrors
/// the warps: `32 + lane - 32*warp_global + 64*block`, which block 0's
/// warps resolve to the opposite warp's write range.
pub fn race_rw() -> KernelDesc {
    KernelBuilder::new("race-rw", 2u32, 64u32)
        .array("tile", 128)
        .write(Pc(0x10), 0, IndexExpr::tid_linear(0, 1))
        .read(
            Pc(0x20),
            0,
            IndexExpr::Affine {
                base: 32,
                tid_coef: 0,
                lane_coef: 1,
                warp_coef: -32,
                block_coef: 64,
                iter_coefs: vec![],
            },
        )
        .stmt(Stmt::Sync)
        .build()
        .expect("fixture is structurally valid")
}

/// Block-local barrier discipline is perfect, but every block reads the
/// *same* 64 elements block 0 writes (`out[tid - 64*block]`): the barrier
/// cannot order different blocks, so the read-write pair races
/// inter-block while staying disjoint within each block.
pub fn race_interblock() -> KernelDesc {
    KernelBuilder::new("race-interblock", 2u32, 64u32)
        .array("out", 128)
        .write(Pc(0x10), 0, IndexExpr::tid_linear(0, 1))
        .stmt(Stmt::Sync)
        .read(
            Pc(0x20),
            0,
            IndexExpr::Affine {
                base: 0,
                tid_coef: 1,
                lane_coef: 0,
                warp_coef: 0,
                block_coef: -64,
                iter_coefs: vec![],
            },
        )
        .build()
        .expect("fixture is structurally valid")
}

/// Every block writes the same 64 `out` elements (`out[tid - 64*block]`):
/// a write-write race between blocks, with the intra-block pattern fully
/// disjoint — only the inter-block scope is wrong.
pub fn race_ww_interblock() -> KernelDesc {
    KernelBuilder::new("race-ww-interblock", 2u32, 64u32)
        .array("out", 64)
        .write(
            Pc(0x10),
            0,
            IndexExpr::Affine {
                base: 0,
                tid_coef: 1,
                lane_coef: 0,
                warp_coef: 0,
                block_coef: -64,
                iter_coefs: vec![],
            },
        )
        .stmt(Stmt::Sync)
        .build()
        .expect("fixture is structurally valid")
}

/// A *positive* race fixture: a phased stencil that writes the block's
/// tile, syncs, then has every warp read the first warp's elements. The
/// cross-warp read-write conflict is real but barrier-ordered, and the
/// blocks touch disjoint tiles — the detector must certify it.
pub fn phased_stencil() -> KernelDesc {
    KernelBuilder::new("phased-stencil", 2u32, 64u32)
        .array("tile", 128)
        .write(Pc(0x10), 0, IndexExpr::tid_linear(0, 1))
        .stmt(Stmt::Sync)
        .read(
            Pc(0x20),
            0,
            IndexExpr::Affine {
                base: 0,
                tid_coef: 0,
                lane_coef: 1,
                warp_coef: 0,
                block_coef: 64,
                iter_coefs: vec![],
            },
        )
        .build()
        .expect("fixture is structurally valid")
}

/// A *positive* race fixture: a phased block reduction. All threads
/// write their slot, sync, then one pinned thread per block sweeps the
/// block's 64 slots and accumulates into `result[block]`. The sweep
/// crosses warps but the barrier orders it; the accumulator is written by
/// one thread per block only — certified race-free.
pub fn phased_reduction() -> KernelDesc {
    KernelBuilder::new("phased-reduction", 2u32, 64u32)
        .array("slots", 128)
        .array("result", 2)
        .write(Pc(0x10), 0, IndexExpr::tid_linear(0, 1))
        .stmt(Stmt::Sync)
        .stmt(Stmt::If {
            pred: Pred::TidMod { m: 64, r: 0 },
            then_body: vec![loop_n(
                64,
                vec![
                    read(
                        0x20,
                        0,
                        IndexExpr::Affine {
                            base: 0,
                            tid_coef: 0,
                            lane_coef: 0,
                            warp_coef: 0,
                            block_coef: 64,
                            iter_coefs: vec![(0, 1)],
                        },
                    ),
                    write(
                        0x28,
                        1,
                        IndexExpr::Affine {
                            base: 0,
                            tid_coef: 0,
                            lane_coef: 0,
                            warp_coef: 0,
                            block_coef: 1,
                            iter_coefs: vec![],
                        },
                    ),
                ],
            )],
            else_body: vec![],
        })
        .build()
        .expect("fixture is structurally valid")
}

/// A well-formed kernel with a long inner loop, used by tests that need a
/// *clean* hand-rolled spec (e.g. the serve happy-path smoke case).
pub fn clean_streaming() -> KernelDesc {
    let threads = 4u64 * 128;
    KernelBuilder::new("clean-streaming", 4u32, 128u32)
        .array("src", threads * 8)
        .array("dst", threads * 8)
        .stmt(loop_n(
            8,
            vec![
                read(
                    0x50,
                    0,
                    IndexExpr::Affine {
                        base: 0,
                        tid_coef: 1,
                        lane_coef: 0,
                        warp_coef: 0,
                        block_coef: 0,
                        iter_coefs: vec![(0, threads as i64)],
                    },
                ),
                write(
                    0x58,
                    1,
                    IndexExpr::Affine {
                        base: 0,
                        tid_coef: 1,
                        lane_coef: 0,
                        warp_coef: 0,
                        block_coef: 0,
                        iter_coefs: vec![(0, threads as i64)],
                    },
                ),
            ],
        ))
        .build()
        .expect("fixture is structurally valid")
}

/// Looks up a negative fixture by its [`NAMES`] entry.
pub fn by_name(name: &str) -> Option<KernelDesc> {
    Some(match name {
        "oob-affine" => oob_affine(),
        "uncoalesced" => uncoalesced(),
        "barrier-divergent" => barrier_divergent(),
        "overlapping-write" => overlapping_write(),
        "race-ww" => race_ww(),
        "race-rw" => race_rw(),
        "race-interblock" => race_interblock(),
        "race-ww-interblock" => race_ww_interblock(),
        "phased-stencil" => phased_stencil(),
        "phased-reduction" => phased_reduction(),
        "clean-streaming" => clean_streaming(),
        _ => return None,
    })
}

/// All negative fixtures with their names.
pub fn all() -> Vec<(&'static str, KernelDesc)> {
    NAMES
        .iter()
        .map(|n| (*n, by_name(n).expect("known fixture")))
        .collect()
}
