//! A declarative kernel DSL for synthetic GPGPU workloads.
//!
//! G-MAP's observation (§4.2) is that GPU memory operations are usually a
//! *linear transformation of the thread index*, executed inside loops, with
//! occasional control-flow divergence. This module captures exactly that
//! structure: a [`KernelDesc`] is a launch geometry, a set of arrays, and a
//! body of statements — strided accesses ([`AccessDesc`]), loops, divergent
//! branches and barriers. The [`crate::exec`] module runs the DSL in SIMT
//! lockstep to produce per-warp dynamic memory instruction streams.
//!
//! Index expressions deliberately expose the knobs the paper's Table 1
//! characterizes: per-thread (`tid`), per-lane and per-warp coefficients
//! control *inter-thread* strides and coalescing behaviour; loop-iterator
//! coefficients control *intra-thread* strides; hashed expressions model
//! irregular applications (hotspot, bfs) that have no dominant pattern.

use crate::dim::Dim3;
use crate::exec::WARP_SIZE;
use crate::hierarchy::LaunchConfig;
use gmap_trace::record::{AccessKind, ByteAddr, Pc};
use gmap_trace::rng::mix64;
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// A named memory region used by a kernel.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArrayDesc {
    /// Human-readable name (for reports).
    pub name: String,
    /// First byte address of the region.
    pub base: ByteAddr,
    /// Number of elements.
    pub elems: u64,
    /// Element size in bytes.
    pub elem_size: u32,
}

impl ArrayDesc {
    /// Size of the region in bytes.
    ///
    /// # Panics
    ///
    /// Panics if `elems * elem_size` overflows `u64`. Specs that can
    /// overflow are rejected by [`KernelDesc::validate`] (with
    /// [`ValidateKernelError::ArraySizeOverflow`]) before any code that
    /// calls this runs, so the panic guards against unvalidated
    /// hand-built descriptors only — previously the multiplication
    /// wrapped silently in release builds, yielding a bogus tiny
    /// footprint.
    pub fn size_bytes(&self) -> u64 {
        self.checked_size_bytes().unwrap_or_else(|| {
            panic!(
                "array '{}': {} elems x {} bytes overflows u64; validate() rejects such specs",
                self.name, self.elems, self.elem_size
            )
        })
    }

    /// Size of the region in bytes, or `None` when `elems * elem_size`
    /// overflows `u64`.
    pub fn checked_size_bytes(&self) -> Option<u64> {
        self.elems.checked_mul(self.elem_size as u64)
    }
}

/// Evaluation context for one (thread, iteration-stack) point.
#[derive(Debug, Clone, Copy)]
pub struct EvalCtx<'a> {
    /// Global thread id.
    pub tid: u64,
    /// Lane within the warp (`tid % warp_size` within the block).
    pub lane: u32,
    /// Global warp id.
    pub warp: u32,
    /// Block id.
    pub block: u32,
    /// Current loop iteration values, outermost first.
    pub iters: &'a [u64],
}

/// An element-index expression.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum IndexExpr {
    /// Affine combination of the thread coordinates and loop iterators:
    /// `base + tid·tid_coef + lane·lane_coef + warp·warp_coef +
    /// block·block_coef + Σ iterₖ·coefₖ` (all in elements).
    Affine {
        /// Constant element offset.
        base: i64,
        /// Coefficient of the global thread id.
        tid_coef: i64,
        /// Coefficient of the lane index.
        lane_coef: i64,
        /// Coefficient of the global warp id.
        warp_coef: i64,
        /// Coefficient of the block id.
        block_coef: i64,
        /// `(loop depth, coefficient)` pairs; depth 0 is the outermost
        /// enclosing loop.
        iter_coefs: Vec<(u8, i64)>,
    },
    /// Pseudo-random element derived from `(seed, tid, iters)` — models
    /// data-dependent/irregular accesses with no dominant stride (hotspot,
    /// bfs). Deterministic for a given seed.
    Hashed {
        /// Hash seed; different seeds give independent streams.
        seed: u64,
    },
    /// Pseudo-random element that depends on the thread only (not the
    /// iteration) — revisiting the same irregular location each iteration,
    /// which models indirect accesses with per-thread temporal locality.
    HashedPerThread {
        /// Hash seed.
        seed: u64,
    },
}

impl IndexExpr {
    /// Affine expression in the global thread id only: `base + tid·coef`.
    pub fn tid_linear(base: i64, tid_coef: i64) -> Self {
        IndexExpr::Affine {
            base,
            tid_coef,
            lane_coef: 0,
            warp_coef: 0,
            block_coef: 0,
            iter_coefs: vec![],
        }
    }

    /// Evaluates to an element index (wrapped into `[0, elems)` by the
    /// caller).
    pub fn eval(&self, ctx: &EvalCtx<'_>) -> i64 {
        match self {
            IndexExpr::Affine {
                base,
                tid_coef,
                lane_coef,
                warp_coef,
                block_coef,
                iter_coefs,
            } => {
                let mut v = *base
                    + *tid_coef * ctx.tid as i64
                    + *lane_coef * ctx.lane as i64
                    + *warp_coef * ctx.warp as i64
                    + *block_coef * ctx.block as i64;
                for &(depth, coef) in iter_coefs {
                    let it = ctx.iters.get(depth as usize).copied().unwrap_or(0);
                    v += coef * it as i64;
                }
                v
            }
            IndexExpr::Hashed { seed } => {
                // Every input is mixed before combining so that structured
                // seeds and small iteration values cannot XOR-cancel.
                let mut h = mix64(*seed) ^ mix64(ctx.tid);
                for (d, &it) in ctx.iters.iter().enumerate() {
                    h = mix64(h ^ mix64(it.wrapping_add((d as u64 + 1) << 56)));
                }
                (mix64(h) >> 1) as i64
            }
            IndexExpr::HashedPerThread { seed } => {
                (mix64(mix64(*seed) ^ mix64(ctx.tid)) >> 1) as i64
            }
        }
    }
}

/// One static memory instruction.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AccessDesc {
    /// Program counter identifying the instruction.
    pub pc: Pc,
    /// Index into [`KernelDesc::arrays`].
    pub array: usize,
    /// Read or write.
    pub kind: AccessKind,
    /// Element index expression.
    pub index: IndexExpr,
}

/// Loop trip count.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Trip {
    /// Same trip count for every thread.
    Const(u32),
    /// `base + hash(seed, tid) % spread` — per-thread variation, producing
    /// intra-warp divergence at loop exits (threads fall idle while the
    /// longest-running lane finishes).
    Hashed {
        /// Hash seed.
        seed: u64,
        /// Minimum trip count.
        base: u32,
        /// Exclusive upper bound on the random extra iterations.
        spread: u32,
    },
}

impl Trip {
    /// Trip count for a specific thread.
    pub fn count_for(&self, tid: u64) -> u32 {
        match *self {
            Trip::Const(n) => n,
            Trip::Hashed { seed, base, spread } => {
                base + if spread == 0 {
                    0
                } else {
                    (mix64(seed ^ mix64(tid)) % spread as u64) as u32
                }
            }
        }
    }

    /// The largest trip count any thread runs.
    pub fn max_count(&self) -> u64 {
        match *self {
            Trip::Const(n) => u64::from(n),
            Trip::Hashed { base, spread, .. } => {
                u64::from(base) + u64::from(spread.saturating_sub(1))
            }
        }
    }
}

/// A branch predicate, evaluated per thread.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Pred {
    /// `tid < n`.
    TidLt(u32),
    /// `tid % m == r`.
    TidMod {
        /// Modulus.
        m: u32,
        /// Residue selecting the then-branch.
        r: u32,
    },
    /// `lane < n` — divergence *within* every warp.
    LaneLt(u32),
    /// `block % m == r`.
    BlockMod {
        /// Modulus.
        m: u32,
        /// Residue selecting the then-branch.
        r: u32,
    },
    /// True for ~`percent`% of threads, pseudo-randomly by tid.
    Hashed {
        /// Hash seed.
        seed: u64,
        /// Percentage of threads taking the then-branch (0–100).
        percent: u8,
    },
}

impl Pred {
    /// Evaluates the predicate for one thread.
    pub fn eval(&self, ctx: &EvalCtx<'_>) -> bool {
        match *self {
            Pred::TidLt(n) => ctx.tid < n as u64,
            Pred::TidMod { m, r } => m != 0 && ctx.tid % m as u64 == r as u64,
            Pred::LaneLt(n) => ctx.lane < n,
            Pred::BlockMod { m, r } => m != 0 && ctx.block % m == r,
            Pred::Hashed { seed, percent } => mix64(seed ^ mix64(ctx.tid)) % 100 < percent as u64,
        }
    }
}

/// A kernel body statement.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Stmt {
    /// A memory access.
    Access(AccessDesc),
    /// A counted loop.
    Loop {
        /// Trip count.
        trip: Trip,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// A divergent branch.
    If {
        /// Branch predicate.
        pred: Pred,
        /// Statements executed by threads where the predicate holds.
        then_body: Vec<Stmt>,
        /// Statements executed by the remaining threads.
        else_body: Vec<Stmt>,
    },
    /// A threadblock-wide barrier (`__syncthreads()`).
    Sync,
}

/// A complete synthetic kernel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelDesc {
    /// Benchmark name.
    pub name: String,
    /// Launch geometry.
    pub launch: LaunchConfig,
    /// Memory regions.
    pub arrays: Vec<ArrayDesc>,
    /// Kernel body.
    pub body: Vec<Stmt>,
}

impl KernelDesc {
    /// Validates internal consistency (array references in range, loop
    /// depths well-formed, predicate moduli non-zero).
    ///
    /// # Errors
    ///
    /// Returns a [`ValidateKernelError`] describing the first problem
    /// found.
    pub fn validate(&self) -> Result<(), ValidateKernelError> {
        fn walk(stmts: &[Stmt], depth: u8, arrays: usize) -> Result<(), ValidateKernelError> {
            for s in stmts {
                match s {
                    Stmt::Access(a) => {
                        if a.array >= arrays {
                            return Err(ValidateKernelError::BadArrayRef {
                                pc: a.pc,
                                array: a.array,
                            });
                        }
                        if let IndexExpr::Affine { iter_coefs, .. } = &a.index {
                            for &(d, _) in iter_coefs {
                                if d >= depth {
                                    return Err(ValidateKernelError::BadLoopDepth {
                                        pc: a.pc,
                                        depth: d,
                                        enclosing: depth,
                                    });
                                }
                            }
                        }
                    }
                    Stmt::Loop { body, .. } => walk(body, depth + 1, arrays)?,
                    Stmt::If {
                        pred,
                        then_body,
                        else_body,
                    } => {
                        if let Pred::TidMod { m: 0, .. } | Pred::BlockMod { m: 0, .. } = pred {
                            return Err(ValidateKernelError::ZeroModulus);
                        }
                        walk(then_body, depth, arrays)?;
                        walk(else_body, depth, arrays)?;
                    }
                    Stmt::Sync => {}
                }
            }
            Ok(())
        }
        if self.arrays.is_empty() {
            return Err(ValidateKernelError::NoArrays);
        }
        if self.launch.checked_total_warps(WARP_SIZE).is_none() {
            return Err(ValidateKernelError::LaunchTooLarge);
        }
        for (i, a) in self.arrays.iter().enumerate() {
            // Both the region size and its end address must fit in u64;
            // otherwise every downstream bounds/footprint computation
            // (size_bytes, the builder layout, the analyzer) is garbage.
            let fits = a
                .checked_size_bytes()
                .and_then(|size| a.base.0.checked_add(size));
            if fits.is_none() {
                return Err(ValidateKernelError::ArraySizeOverflow { array: i });
            }
        }
        walk(&self.body, 0, self.arrays.len())
    }

    /// All distinct static instruction PCs in the kernel, in first-
    /// appearance order.
    pub fn static_pcs(&self) -> Vec<Pc> {
        fn walk(stmts: &[Stmt], out: &mut Vec<Pc>) {
            for s in stmts {
                match s {
                    Stmt::Access(a) => {
                        if !out.contains(&a.pc) {
                            out.push(a.pc);
                        }
                    }
                    Stmt::Loop { body, .. } => walk(body, out),
                    Stmt::If {
                        then_body,
                        else_body,
                        ..
                    } => {
                        walk(then_body, out);
                        walk(else_body, out);
                    }
                    Stmt::Sync => {}
                }
            }
        }
        let mut out = Vec::new();
        walk(&self.body, &mut out);
        out
    }

    /// Total bytes across all arrays (the kernel's memory footprint).
    pub fn footprint_bytes(&self) -> u64 {
        self.arrays.iter().map(ArrayDesc::size_bytes).sum()
    }

    /// An upper bound on the thread-level accesses one execution emits,
    /// known before anything runs: the launch's threads times, summed
    /// over the access sites, the product of the enclosing loops' largest
    /// trip counts, with both arms of every branch counted. Saturates
    /// instead of wrapping.
    pub fn max_thread_accesses(&self) -> u128 {
        fn per_thread(stmts: &[Stmt]) -> u128 {
            stmts.iter().fold(0, |sum: u128, s| {
                sum.saturating_add(match s {
                    Stmt::Access(_) => 1,
                    Stmt::Loop { trip, body } => {
                        u128::from(trip.max_count()).saturating_mul(per_thread(body))
                    }
                    Stmt::If {
                        then_body,
                        else_body,
                        ..
                    } => per_thread(then_body).saturating_add(per_thread(else_body)),
                    Stmt::Sync => 0,
                })
            })
        }
        u128::from(self.launch.total_threads()).saturating_mul(per_thread(&self.body))
    }
}

/// Error returned by [`KernelDesc::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidateKernelError {
    /// The kernel declares no arrays.
    NoArrays,
    /// An access references an array index out of range.
    BadArrayRef {
        /// PC of the offending access.
        pc: Pc,
        /// The out-of-range array index.
        array: usize,
    },
    /// An iterator coefficient references a loop depth that does not
    /// enclose the access.
    BadLoopDepth {
        /// PC of the offending access.
        pc: Pc,
        /// Referenced depth.
        depth: u8,
        /// Number of loops actually enclosing the access.
        enclosing: u8,
    },
    /// A modulo predicate with modulus zero.
    ZeroModulus,
    /// An array's byte size (`elems * elem_size`) or end address
    /// (`base + size`) overflows `u64`.
    ArraySizeOverflow {
        /// Index of the offending array in the array table.
        array: usize,
    },
    /// The launch has more than `u32::MAX` warps (or a block more than
    /// `u32::MAX` threads).
    LaunchTooLarge,
}

impl fmt::Display for ValidateKernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateKernelError::NoArrays => f.write_str("kernel declares no arrays"),
            ValidateKernelError::BadArrayRef { pc, array } => {
                write!(
                    f,
                    "access {pc} references array #{array} which does not exist"
                )
            }
            ValidateKernelError::BadLoopDepth {
                pc,
                depth,
                enclosing,
            } => write!(
                f,
                "access {pc} uses loop depth {depth} but only {enclosing} loops enclose it"
            ),
            ValidateKernelError::ZeroModulus => f.write_str("modulo predicate with modulus zero"),
            ValidateKernelError::ArraySizeOverflow { array } => write!(
                f,
                "array #{array}: elems * elem_size (or base + size) overflows u64"
            ),
            ValidateKernelError::LaunchTooLarge => {
                write!(f, "launch has more than {} warps", u32::MAX)
            }
        }
    }
}

impl Error for ValidateKernelError {}

/// Builder for [`KernelDesc`].
///
/// ```
/// use gmap_gpu::{KernelBuilder, IndexExpr};
/// use gmap_trace::record::{AccessKind, Pc};
///
/// let kernel = KernelBuilder::new("vecadd", 4u32, 128u32)
///     .array("a", 1 << 20)
///     .array("b", 1 << 20)
///     .read(Pc(0x10), 0, IndexExpr::tid_linear(0, 1))
///     .read(Pc(0x18), 1, IndexExpr::tid_linear(0, 1))
///     .build()
///     .expect("valid kernel");
/// assert_eq!(kernel.static_pcs().len(), 2);
/// ```
#[derive(Debug)]
pub struct KernelBuilder {
    name: String,
    launch: LaunchConfig,
    arrays: Vec<ArrayDesc>,
    next_base: u64,
    body: Vec<Stmt>,
}

impl KernelBuilder {
    /// Starts a kernel with the given name and launch geometry.
    pub fn new(name: &str, grid: impl Into<Dim3>, block: impl Into<Dim3>) -> Self {
        KernelBuilder {
            name: name.to_owned(),
            launch: LaunchConfig::new(grid, block),
            arrays: Vec::new(),
            // Synthetic address space starts at 4 KiB to avoid the null page.
            next_base: 0x1000,
            body: Vec::new(),
        }
    }

    /// Declares a 4-byte-element array of `elems` elements, placed
    /// contiguously after previous arrays (aligned to 256 B like CUDA
    /// allocations).
    pub fn array(self, name: &str, elems: u64) -> Self {
        self.array_with(name, elems, 4)
    }

    /// Declares an array with an explicit element size.
    ///
    /// Layout arithmetic saturates: an array too large for the address
    /// space does not wrap the allocation cursor, and the resulting
    /// descriptor is rejected by [`KernelDesc::validate`] at `build()`.
    pub fn array_with(mut self, name: &str, elems: u64, elem_size: u32) -> Self {
        let base = ByteAddr(self.next_base);
        let size = elems.saturating_mul(elem_size as u64);
        self.next_base = self.next_base.saturating_add(size).saturating_add(255) & !255;
        self.arrays.push(ArrayDesc {
            name: name.to_owned(),
            base,
            elems,
            elem_size,
        });
        self
    }

    /// Appends a read access to the top level of the body.
    pub fn read(self, pc: Pc, array: usize, index: IndexExpr) -> Self {
        self.stmt(Stmt::Access(AccessDesc {
            pc,
            array,
            kind: AccessKind::Read,
            index,
        }))
    }

    /// Appends a write access to the top level of the body.
    pub fn write(self, pc: Pc, array: usize, index: IndexExpr) -> Self {
        self.stmt(Stmt::Access(AccessDesc {
            pc,
            array,
            kind: AccessKind::Write,
            index,
        }))
    }

    /// Appends an arbitrary statement.
    pub fn stmt(mut self, stmt: Stmt) -> Self {
        self.body.push(stmt);
        self
    }

    /// Finishes and validates the kernel.
    ///
    /// # Errors
    ///
    /// Returns the first validation problem, as [`KernelDesc::validate`].
    pub fn build(self) -> Result<KernelDesc, ValidateKernelError> {
        let k = KernelDesc {
            name: self.name,
            launch: self.launch,
            arrays: self.arrays,
            body: self.body,
        };
        k.validate()?;
        Ok(k)
    }
}

/// Convenience constructors for common statement shapes, used heavily by
/// the workload definitions.
pub mod dsl {
    use super::*;

    /// A read access statement.
    pub fn read(pc: u64, array: usize, index: IndexExpr) -> Stmt {
        Stmt::Access(AccessDesc {
            pc: Pc(pc),
            array,
            kind: AccessKind::Read,
            index,
        })
    }

    /// A write access statement.
    pub fn write(pc: u64, array: usize, index: IndexExpr) -> Stmt {
        Stmt::Access(AccessDesc {
            pc: Pc(pc),
            array,
            kind: AccessKind::Write,
            index,
        })
    }

    /// A constant-trip loop.
    pub fn loop_n(trip: u32, body: Vec<Stmt>) -> Stmt {
        Stmt::Loop {
            trip: Trip::Const(trip),
            body,
        }
    }

    /// An affine index expression with tid and iterator terms only.
    pub fn affine(base: i64, tid_coef: i64, iter_coefs: Vec<(u8, i64)>) -> IndexExpr {
        IndexExpr::Affine {
            base,
            tid_coef,
            lane_coef: 0,
            warp_coef: 0,
            block_coef: 0,
            iter_coefs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx<'a>(tid: u64, iters: &'a [u64]) -> EvalCtx<'a> {
        EvalCtx {
            tid,
            lane: (tid % 32) as u32,
            warp: (tid / 32) as u32,
            block: 0,
            iters,
        }
    }

    #[test]
    fn affine_eval() {
        let e = dsl::affine(5, 2, vec![(0, 10)]);
        assert_eq!(e.eval(&ctx(3, &[4])), 5 + 6 + 40);
        // Missing iterator defaults to 0.
        assert_eq!(e.eval(&ctx(3, &[])), 11);
    }

    #[test]
    fn warp_lane_eval() {
        let e = IndexExpr::Affine {
            base: 0,
            tid_coef: 0,
            lane_coef: 1,
            warp_coef: 88,
            block_coef: 0,
            iter_coefs: vec![],
        };
        assert_eq!(e.eval(&ctx(0, &[])), 0);
        assert_eq!(e.eval(&ctx(33, &[])), 88 + 1);
    }

    #[test]
    fn hashed_is_deterministic_and_iter_sensitive() {
        let e = IndexExpr::Hashed { seed: 9 };
        let a = e.eval(&ctx(1, &[0]));
        let b = e.eval(&ctx(1, &[0]));
        let c = e.eval(&ctx(1, &[1]));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a >= 0);
    }

    #[test]
    fn hashed_per_thread_ignores_iters() {
        let e = IndexExpr::HashedPerThread { seed: 9 };
        assert_eq!(e.eval(&ctx(5, &[0])), e.eval(&ctx(5, &[17])));
        assert_ne!(e.eval(&ctx(5, &[0])), e.eval(&ctx(6, &[0])));
    }

    #[test]
    fn trip_counts() {
        assert_eq!(Trip::Const(7).count_for(123), 7);
        let t = Trip::Hashed {
            seed: 1,
            base: 3,
            spread: 4,
        };
        for tid in 0..100 {
            let c = t.count_for(tid);
            assert!((3..7).contains(&c));
        }
        assert_eq!(t.max_count(), 6);
        assert_eq!(Trip::Const(7).max_count(), 7);
        assert_eq!(
            Trip::Hashed {
                seed: 1,
                base: 2,
                spread: 0
            }
            .count_for(5),
            2
        );
    }

    #[test]
    fn max_thread_accesses_counts_both_arms_and_every_trip() {
        let k = KernelBuilder::new("k", 2u32, 48u32)
            .array("a", 100)
            .stmt(dsl::loop_n(
                3,
                vec![
                    dsl::read(0x10, 0, IndexExpr::tid_linear(0, 1)),
                    Stmt::If {
                        pred: Pred::TidLt(10),
                        then_body: vec![dsl::read(0x18, 0, IndexExpr::tid_linear(0, 1))],
                        else_body: vec![
                            dsl::read(0x20, 0, IndexExpr::tid_linear(0, 1)),
                            dsl::write(0x28, 0, IndexExpr::tid_linear(0, 1)),
                        ],
                    },
                ],
            ))
            .stmt(Stmt::Sync)
            .stmt(dsl::read(0x30, 0, IndexExpr::tid_linear(0, 1)))
            .build()
            .expect("valid");
        assert_eq!(k.max_thread_accesses(), 96 * (3 * (1 + 1 + 2) + 1));
        // Five nested loops of u32::MAX trips pass u128: the bound saturates.
        let mut body = vec![dsl::read(0x10, 0, IndexExpr::tid_linear(0, 1))];
        for _ in 0..5 {
            body = vec![dsl::loop_n(u32::MAX, body)];
        }
        let deep = KernelBuilder::new("deep", 1u32, 32u32)
            .array("a", 100)
            .stmt(body.remove(0))
            .build()
            .expect("valid");
        assert_eq!(deep.max_thread_accesses(), u128::MAX);
    }

    #[test]
    fn predicates() {
        assert!(Pred::TidLt(4).eval(&ctx(3, &[])));
        assert!(!Pred::TidLt(4).eval(&ctx(4, &[])));
        assert!(Pred::TidMod { m: 2, r: 1 }.eval(&ctx(3, &[])));
        assert!(Pred::LaneLt(16).eval(&ctx(15, &[])));
        assert!(!Pred::LaneLt(16).eval(&ctx(48, &[]))); // lane 16
        let hashed = Pred::Hashed {
            seed: 3,
            percent: 50,
        };
        let hits = (0..1000).filter(|&t| hashed.eval(&ctx(t, &[]))).count();
        assert!(
            (350..650).contains(&hits),
            "hashed predicate hit {hits}/1000"
        );
    }

    #[test]
    fn builder_lays_out_arrays_without_overlap() {
        let k = KernelBuilder::new("k", 1u32, 32u32)
            .array("a", 100)
            .array("b", 100)
            .read(Pc(1), 0, IndexExpr::tid_linear(0, 1))
            .build()
            .expect("valid");
        let a = &k.arrays[0];
        let b = &k.arrays[1];
        assert!(a.base.0 + a.size_bytes() <= b.base.0);
        assert_eq!(b.base.0 % 256, 0);
    }

    #[test]
    fn validate_rejects_bad_array() {
        let k = KernelBuilder::new("k", 1u32, 32u32)
            .array("a", 16)
            .read(Pc(1), 3, IndexExpr::tid_linear(0, 1))
            .build();
        assert_eq!(
            k.unwrap_err(),
            ValidateKernelError::BadArrayRef {
                pc: Pc(1),
                array: 3
            }
        );
    }

    #[test]
    fn validate_rejects_bad_loop_depth() {
        let k = KernelBuilder::new("k", 1u32, 32u32)
            .array("a", 16)
            .stmt(dsl::loop_n(
                2,
                vec![dsl::read(1, 0, dsl::affine(0, 1, vec![(1, 4)]))],
            ))
            .build();
        assert!(matches!(
            k.unwrap_err(),
            ValidateKernelError::BadLoopDepth { depth: 1, .. }
        ));
    }

    #[test]
    fn validate_rejects_no_arrays() {
        let k = KernelBuilder::new("k", 1u32, 32u32).build();
        assert_eq!(k.unwrap_err(), ValidateKernelError::NoArrays);
    }

    #[test]
    fn static_pcs_in_first_appearance_order() {
        let k = KernelBuilder::new("k", 1u32, 32u32)
            .array("a", 16)
            .stmt(dsl::loop_n(
                2,
                vec![
                    dsl::read(0x20, 0, IndexExpr::tid_linear(0, 1)),
                    dsl::read(0x10, 0, IndexExpr::tid_linear(0, 1)),
                    dsl::read(0x20, 0, IndexExpr::tid_linear(0, 1)),
                ],
            ))
            .build()
            .expect("valid");
        assert_eq!(k.static_pcs(), vec![Pc(0x20), Pc(0x10)]);
    }

    #[test]
    fn footprint_sums_arrays() {
        let k = KernelBuilder::new("k", 1u32, 32u32)
            .array("a", 100)
            .array_with("b", 50, 8)
            .read(Pc(1), 0, IndexExpr::tid_linear(0, 1))
            .build()
            .expect("valid");
        assert_eq!(k.footprint_bytes(), 400 + 400);
    }

    #[test]
    fn error_display() {
        let e = ValidateKernelError::BadArrayRef {
            pc: Pc(0x10),
            array: 9,
        };
        assert!(e.to_string().contains("0x10"));
        assert!(ValidateKernelError::NoArrays
            .to_string()
            .contains("no arrays"));
    }

    #[test]
    fn checked_size_bytes_catches_overflow() {
        let a = ArrayDesc {
            name: "big".into(),
            base: ByteAddr(0),
            elems: u64::MAX / 2,
            elem_size: 4,
        };
        assert_eq!(a.checked_size_bytes(), None);
        let ok = ArrayDesc {
            name: "ok".into(),
            base: ByteAddr(0),
            elems: 1 << 20,
            elem_size: 4,
        };
        assert_eq!(ok.checked_size_bytes(), Some(4 << 20));
        assert_eq!(ok.size_bytes(), 4 << 20);
    }

    #[test]
    #[should_panic(expected = "overflows u64")]
    fn size_bytes_panics_on_overflow_instead_of_wrapping() {
        // Release builds previously wrapped silently here: 2^63 elems x 4 B
        // "was" 0 bytes.
        let a = ArrayDesc {
            name: "big".into(),
            base: ByteAddr(0),
            elems: 1 << 63,
            elem_size: 4,
        };
        let _ = a.size_bytes();
    }

    #[test]
    fn validate_rejects_array_size_overflow() {
        let k = KernelBuilder::new("k", 1u32, 32u32)
            .array_with("big", u64::MAX / 2, 8)
            .read(Pc(1), 0, IndexExpr::tid_linear(0, 1))
            .build();
        assert_eq!(
            k.unwrap_err(),
            ValidateKernelError::ArraySizeOverflow { array: 0 }
        );
        // The end address must fit too, even when the size itself does.
        let tail = KernelDesc {
            name: "k".into(),
            launch: LaunchConfig::new(1u32, 32u32),
            arrays: vec![ArrayDesc {
                name: "tail".into(),
                base: ByteAddr(u64::MAX - 1024),
                elems: 1024,
                elem_size: 4,
            }],
            body: vec![dsl::read(1, 0, IndexExpr::tid_linear(0, 1))],
        };
        assert_eq!(
            tail.validate().unwrap_err(),
            ValidateKernelError::ArraySizeOverflow { array: 0 }
        );
        assert!(ValidateKernelError::ArraySizeOverflow { array: 0 }
            .to_string()
            .contains("overflows"));
    }

    #[test]
    fn validate_rejects_a_launch_past_u32_warps() {
        let kernel = |grid: u32| {
            KernelBuilder::new("k", grid, 1024u32)
                .array("a", 1024)
                .read(Pc(1), 0, IndexExpr::tid_linear(0, 1))
                .build()
        };
        assert!(kernel((1 << 27) - 1).is_ok());
        assert_eq!(
            kernel(1 << 27).unwrap_err(),
            ValidateKernelError::LaunchTooLarge
        );
    }
}
