//! Analyzer fixtures: small kernels that each trip exactly one analyzer
//! check (the [`NAMES`] negatives), plus one *clean* kernel
//! ([`clean_streaming`]). Used by the test suite, the CLI
//! (`gmap analyze --fixture`) and the serve smoke test (a guaranteed-422
//! spec).

use gmap_gpu::hierarchy::LaunchConfig;
use gmap_gpu::kernel::dsl::{loop_n, read, write};
use gmap_gpu::kernel::{ArrayDesc, IndexExpr, KernelBuilder, KernelDesc, Pred, Stmt};
use gmap_trace::record::{ByteAddr, Pc};

/// Names of all negative fixtures, in [`by_name`] order.
pub const NAMES: [&str; 4] = [
    "oob-affine",
    "uncoalesced",
    "barrier-divergent",
    "overlapping-write",
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
