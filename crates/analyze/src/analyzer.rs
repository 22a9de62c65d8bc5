//! Abstract interpretation of [`KernelDesc`] programs.
//!
//! The analyzer walks the kernel body once, at the executor's
//! [`WARP_SIZE`], carrying the enclosing *loop stack* (per-depth trip
//! bounds) and the *divergence context* (can threads of one warp / one
//! block disagree about reaching this statement?). For every access site
//! it derives, without executing anything:
//!
//! - a **sound byte-address interval**: if the affine element interval
//!   stays inside `[0, elems)` the interval is exact; otherwise the
//!   executor's `rem_euclid` wrap widens it to the whole array and the
//!   wrap itself is reported as an out-of-bounds error,
//! - the **coalescing degree** of a full warp at the 128-byte
//!   transaction granularity (CUDA guide §G.4.2), by evaluating the
//!   index expression for warp 0's lanes — the same arithmetic
//!   `gmap_gpu::exec` uses, so the degree matches `coalesce.rs` exactly
//!   on uniform warps,
//! - **stride signatures**: lane-to-lane, warp-to-warp and per-loop
//!   intra-thread strides in bytes (the quantities the G-MAP profiler
//!   measures dynamically as `P_E`/`P_A`),
//! - **divergence reachability**, and for every barrier whether it can
//!   be reached under block-divergent control — the static signature of
//!   a `__syncthreads()` deadlock.

use crate::interval::{ByteRange, Interval};
use crate::report::{rw, Finding, FindingKind, PatternKind, Severity, SiteReport, StaticReport};
use gmap_gpu::exec::WARP_SIZE;
use gmap_gpu::kernel::{AccessDesc, EvalCtx, IndexExpr, KernelDesc, Pred, Stmt, Trip};
use gmap_trace::record::AccessKind;

/// The coalescing granularity the degree is computed at (128-byte
/// transactions, matching `gmap_core::COALESCE_BYTES`).
pub const SEGMENT_BYTES: u64 = 128;

/// Analyzes a kernel at the executor's 32-thread warps.
///
/// Never panics: structurally invalid kernels produce a report with a
/// single [`FindingKind::SpecError`] error instead of sites.
pub fn analyze_kernel(kernel: &KernelDesc) -> StaticReport {
    let mut report = StaticReport {
        name: kernel.name.clone(),
        warp_size: WARP_SIZE,
        sites: Vec::new(),
        findings: Vec::new(),
    };
    if let Err(e) = kernel.validate() {
        use gmap_gpu::kernel::ValidateKernelError;
        let kind = match e {
            ValidateKernelError::ArraySizeOverflow { .. } => FindingKind::ArraySizeOverflow,
            _ => FindingKind::SpecError,
        };
        report.findings.push(Finding {
            severity: Severity::Error,
            kind,
            pc: None,
            message: format!("spec failed validation: {e}"),
        });
        return report;
    }
    let mut walker = Walker {
        kernel,
        sites: Vec::new(),
        findings: Vec::new(),
        loops: Vec::new(),
        warp_div: false,
        block_div: false,
        last_pc: None,
        written: vec![false; kernel.arrays.len()],
    };
    walker.walk(&kernel.body);
    report.findings = walker.findings;
    check_overlaps(kernel, &walker.written, &mut report.findings);
    report.sites = walker.sites;
    // Errors first, then warnings, preserving discovery order within
    // each class.
    report
        .findings
        .sort_by_key(|f| std::cmp::Reverse(f.severity));
    report
}

/// Flags pairs of arrays whose byte ranges intersect when at least one
/// of the pair is written: the layouts the builder produces are always
/// disjoint, so an overlap means a hand-written spec aliases two
/// logically distinct regions. Size overflow is reported here too, since
/// a wrapped size makes every bounds statement meaningless.
fn check_overlaps(kernel: &KernelDesc, written: &[bool], findings: &mut Vec<Finding>) {
    let mut spans: Vec<Option<(u64, u64)>> = Vec::with_capacity(kernel.arrays.len());
    for a in &kernel.arrays {
        let span = a
            .checked_size_bytes()
            .and_then(|size| a.base.0.checked_add(size).map(|end| (a.base.0, end)));
        if span.is_none() {
            findings.push(Finding {
                severity: Severity::Error,
                kind: FindingKind::ArraySizeOverflow,
                pc: None,
                message: format!(
                    "array '{}': {} elems x {} bytes overflows the address space",
                    a.name, a.elems, a.elem_size
                ),
            });
        }
        spans.push(span);
    }
    for i in 0..kernel.arrays.len() {
        for j in (i + 1)..kernel.arrays.len() {
            let (Some((ab, ae)), Some((bb, be))) = (spans[i], spans[j]) else {
                continue;
            };
            if ab < be && bb < ae && (written[i] || written[j]) {
                findings.push(Finding {
                    severity: Severity::Error,
                    kind: FindingKind::OverlappingWrite,
                    pc: None,
                    message: format!(
                        "arrays '{}' [{ab:#x}, {ae:#x}) and '{}' [{bb:#x}, {be:#x}) overlap and at least one is written",
                        kernel.arrays[i].name, kernel.arrays[j].name
                    ),
                });
            }
        }
    }
}

struct Walker<'k> {
    kernel: &'k KernelDesc,
    sites: Vec<SiteReport>,
    findings: Vec<Finding>,
    loops: Vec<Loop>,
    /// Lanes of one warp can disagree about reaching this point.
    warp_div: bool,
    /// Threads of one block can disagree about reaching this point.
    block_div: bool,
    last_pc: Option<u64>,
    written: Vec<bool>,
}

/// One enclosing loop of the walk.
struct Loop {
    /// Largest per-thread trip count (iterations run in `[0, max_trip)`).
    max_trip: u64,
    /// Per-thread trip counts can differ (hashed trips).
    ragged: bool,
}

impl Loop {
    fn of(trip: &Trip) -> Self {
        Loop {
            max_trip: trip.max_count(),
            ragged: matches!(*trip, Trip::Hashed { spread, .. } if spread > 1),
        }
    }
}

/// How a predicate partitions the threads of a launch.
struct PredClass {
    warp_div: bool,
    block_div: bool,
}

fn classify_pred(pred: &Pred, kernel: &KernelDesc) -> PredClass {
    let uniform = PredClass {
        warp_div: false,
        block_div: false,
    };
    let divergent = PredClass {
        warp_div: true,
        block_div: true,
    };
    let total = kernel.launch.total_threads();
    let tpb = kernel.launch.threads_per_block().max(1) as u64;
    let ws = WARP_SIZE as u64;
    match *pred {
        Pred::TidLt(n) => {
            let n = n as u64;
            if n == 0 || n >= total {
                return uniform;
            }
            let block_div = !n.is_multiple_of(tpb);
            PredClass {
                // A warp holds contiguous tids, so the cut is warp-
                // aligned only when both n and the block size are.
                warp_div: block_div && !(n.is_multiple_of(ws) && tpb.is_multiple_of(ws)),
                block_div,
            }
        }
        Pred::TidMod { m, .. } => {
            if m <= 1 {
                uniform
            } else {
                divergent
            }
        }
        Pred::LaneLt(n) => {
            if n == 0 || n >= WARP_SIZE {
                uniform
            } else {
                divergent
            }
        }
        Pred::BlockMod { .. } => uniform,
        Pred::Hashed { percent, .. } => {
            if percent == 0 || percent >= 100 {
                uniform
            } else {
                divergent
            }
        }
    }
}

impl Walker<'_> {
    fn in_ragged_loop(&self) -> bool {
        self.loops.iter().any(|l| l.ragged)
    }

    fn walk(&mut self, stmts: &[Stmt]) {
        for stmt in stmts {
            match stmt {
                Stmt::Access(acc) => self.visit_access(acc),
                Stmt::Loop { trip, body } => {
                    self.loops.push(Loop::of(trip));
                    self.walk(body);
                    self.loops.pop();
                }
                Stmt::If {
                    pred,
                    then_body,
                    else_body,
                } => {
                    let class = classify_pred(pred, self.kernel);
                    let saved = (self.warp_div, self.block_div);
                    self.warp_div |= class.warp_div;
                    self.block_div |= class.block_div;
                    self.walk(then_body);
                    self.walk(else_body);
                    (self.warp_div, self.block_div) = saved;
                }
                Stmt::Sync => self.visit_sync(),
            }
        }
    }

    fn visit_sync(&mut self) {
        // `__syncthreads()` waits for every thread of the block. Two
        // static signatures make that wait unsatisfiable: the barrier
        // sits under a branch that splits a block, or inside a loop
        // whose trip count differs per thread (threads reach it a
        // different number of times). The SIMT executor here tolerates
        // both; real hardware hangs — hence Error, not Warning.
        if self.block_div {
            self.findings.push(Finding {
                severity: Severity::Error,
                kind: FindingKind::BarrierDivergence,
                pc: self.last_pc,
                message: "barrier under a block-divergent branch: threads that took the other side never arrive (deadlock)".into(),
            });
        }
        if let Some(ragged) = self.loops.iter().position(|l| l.ragged) {
            self.findings.push(Finding {
                severity: Severity::Error,
                kind: FindingKind::BarrierDivergence,
                pc: self.last_pc,
                message: format!(
                    "barrier inside loop at depth {ragged} with per-thread (hashed) trip counts: threads reach it a different number of times (deadlock)"
                ),
            });
        }
    }

    fn visit_access(&mut self, acc: &AccessDesc) {
        self.last_pc = Some(acc.pc.0);
        let array = &self.kernel.arrays[acc.array];
        if acc.kind == AccessKind::Write {
            self.written[acc.array] = true;
        }
        let elems = array.elems;
        let pattern = match acc.index {
            IndexExpr::Affine { .. } => PatternKind::Affine,
            IndexExpr::Hashed { .. } => PatternKind::Hashed,
            IndexExpr::HashedPerThread { .. } => PatternKind::HashedPerThread,
        };

        // --- Element interval and bounds. -------------------------------
        let (elem_iv, in_bounds) = match &acc.index {
            IndexExpr::Affine { .. } => {
                let iv = self.affine_interval(&acc.index);
                let inside = elems > 0 && iv.within(elems as i128);
                if !inside {
                    self.findings.push(Finding {
                        severity: Severity::Error,
                        kind: FindingKind::OutOfBounds,
                        pc: Some(acc.pc.0),
                        message: if elems == 0 {
                            format!(
                                "access to array '{}' which has zero elements",
                                array.name
                            )
                        } else {
                            format!(
                                "affine index spans {iv} but array '{}' has {elems} elems; the executor wraps out-of-range indices silently",
                                array.name
                            )
                        },
                    });
                }
                (iv, inside)
            }
            // Hashed indices cover [0, 2^63) and are wrapped into the
            // array by construction — irregular, not a bug.
            IndexExpr::Hashed { .. } | IndexExpr::HashedPerThread { .. } => {
                (Interval::new(0, elems.max(1) as i128 - 1), false)
            }
        };
        // Sound byte interval of emitted (first-byte) addresses: exact
        // when the index cannot wrap, the whole array otherwise.
        let esize = array.elem_size as u64;
        let addrs = if in_bounds {
            ByteRange {
                lo: array.base.0 + elem_iv.lo as u64 * esize,
                hi: array.base.0 + elem_iv.hi as u64 * esize,
            }
        } else {
            ByteRange {
                lo: array.base.0,
                hi: array.base.0 + elems.max(1).saturating_sub(1).saturating_mul(esize),
            }
        };

        // --- Coalescing degree: probe warp 0 lane by lane. --------------
        let lanes = WARP_SIZE.min(self.kernel.launch.threads_per_block().max(1));
        let iters = vec![0u64; self.loops.len()];
        let mut segments: Vec<u64> = (0..lanes)
            .map(|lane| {
                let ctx = EvalCtx {
                    tid: lane as u64,
                    lane,
                    warp: 0,
                    block: 0,
                    iters: &iters,
                };
                let elem = acc.index.eval(&ctx).rem_euclid(elems.max(1) as i64) as u64;
                (array.base.0 + elem * esize) / SEGMENT_BYTES
            })
            .collect();
        segments.sort_unstable();
        segments.dedup();
        let degree = segments.len() as u32;
        if degree == WARP_SIZE {
            self.findings.push(Finding {
                severity: Severity::Warning,
                kind: FindingKind::Uncoalesced,
                pc: Some(acc.pc.0),
                message: format!(
                    "fully uncoalesced {} access: a warp touches {degree} separate {SEGMENT_BYTES}B segments (one per lane)",
                    pattern
                ),
            });
        }

        // --- Stride signatures. -----------------------------------------
        let (lane_stride, warp_stride, iter_strides) = match &acc.index {
            IndexExpr::Affine {
                tid_coef,
                lane_coef,
                warp_coef,
                iter_coefs,
                ..
            } => {
                let es = array.elem_size as i64;
                (
                    Some(tid_coef.saturating_add(*lane_coef).saturating_mul(es)),
                    Some(
                        tid_coef
                            .saturating_mul(WARP_SIZE as i64)
                            .saturating_add(*warp_coef)
                            .saturating_mul(es),
                    ),
                    iter_coefs
                        .iter()
                        .map(|&(d, c)| (d, c.saturating_mul(es)))
                        .collect(),
                )
            }
            _ => (None, None, Vec::new()),
        };

        self.sites.push(SiteReport {
            pc: acc.pc.0,
            array: acc.array,
            array_name: array.name.clone(),
            kind: rw(acc.kind).into(),
            pattern,
            addrs,
            in_bounds,
            degree,
            lane_stride_bytes: lane_stride,
            inter_warp_stride_bytes: warp_stride,
            iter_strides_bytes: iter_strides,
            divergent: self.warp_div || self.in_ragged_loop(),
        });
    }

    /// Interval of an affine index over every thread coordinate and
    /// every enclosing-loop iteration. All arithmetic in `i128`, so the
    /// bound itself cannot overflow.
    fn affine_interval(&self, index: &IndexExpr) -> Interval {
        let IndexExpr::Affine {
            base,
            tid_coef,
            lane_coef,
            warp_coef,
            block_coef,
            iter_coefs,
        } = index
        else {
            unreachable!("caller checked the pattern");
        };
        let launch = &self.kernel.launch;
        let range = |n: u64| Interval::new(0, n.max(1) as i128 - 1);
        let mut iv = Interval::point(*base as i128)
            + range(launch.total_threads()).scale(*tid_coef as i128)
            + range(WARP_SIZE.min(launch.threads_per_block().max(1)) as u64)
                .scale(*lane_coef as i128)
            + range(launch.total_warps(WARP_SIZE) as u64).scale(*warp_coef as i128)
            + range(launch.num_blocks() as u64).scale(*block_coef as i128);
        for &(depth, coef) in iter_coefs {
            let max_iter = self
                .loops
                .get(depth as usize)
                .map_or(0, |l| l.max_trip.saturating_sub(1));
            iv = iv + Interval::new(0, max_iter as i128).scale(coef as i128);
        }
        iv
    }
}
