//! Barrier-phase happens-before data-race detection.
//!
//! The detector does not walk the kernel: its sites — one per
//! access, with the predicate path, loop stack and barrier phase above
//! it — are recorded by the analyzer's one walk
//! ([`crate::analyze_kernel`]), which has already validated the spec.
//!
//! The detector splits a kernel body into *barrier phases* — maximal
//! regions delimited by `__syncthreads()` — and reports, per (array,
//! PC-pair), whether two accesses from different threads can touch the
//! same element while the execution model leaves them unordered. Three
//! thread-pair scopes have three different happens-before structures:
//!
//! - **intra-warp**: lanes of one warp execute in SIMT lock-step, so two
//!   accesses from the same warp are always ordered — never racy. This
//!   is exactly the guarantee the executor implements: within a warp,
//!   instruction *n* retires for every lane before instruction *n + 1*
//!   issues for any lane.
//! - **cross-warp, same block**: ordered iff a barrier separates the two
//!   accesses, i.e. their static barrier phases differ.
//! - **inter-block**: never ordered (the model has no grid-wide sync);
//!   safe only when the two sites are element-disjoint.
//!
//! Phases are computed statically per site as an affine expression of
//! the enclosing loop iterators (a loop whose body contains `k` barriers
//! advances the phase by `k` per iteration). Only *unconditional*
//! barriers outside ragged (per-thread-trip) loops are counted — a
//! barrier that the divergence analysis would flag as a deadlock never
//! splits a phase. Conditional barriers that are block-uniform shift all
//! warps of a block equally, so same-block phase *differences* — the
//! only quantity the detector relies on — remain exact for every kernel
//! free of `barrier-divergence` errors.
//!
//! Disjointness of two affine sites is decided on the symbolic
//! difference of their element indices, rewritten over per-scope
//! variables (shared/delta block, warp-in-block, lane, per-side loop
//! iterators), in three escalating steps:
//!
//! 1. an abstract evaluation in the reduced product of the interval and
//!    congruence domains ([`crate::congruence::AbsVal`]) — this is what
//!    proves `A[2·tid]` and `A[2·tid + 1]` disjoint by parity, where
//!    intervals alone cannot,
//! 2. an abstract check of the phase difference (same-block scope only):
//!    if no assignment puts the two sites in the same phase, the pair is
//!    barrier-ordered regardless of its addresses,
//! 3. a budgeted exhaustive witness search over the same variables, with
//!    interval and divisibility pruning. A candidate is validated
//!    concretely (thread existence, every predicate on the path, ragged
//!    trip counts) before the pair is reported as a proven race. A
//!    search that exhausts with every candidate rejected *algebraically*
//!    is a proof of disjointness; a candidate rejected only by
//!    per-thread predicates or ragged trips the analysis could not
//!    consume downgrades the result to *potential* instead.
//!
//! Severity policy: a proven race in a kernel that declares at least one
//! counted barrier is an **error** (the kernel claims phase discipline
//! and violates it); proven races in barrier-free streaming kernels and
//! all *potential* verdicts are **warnings**. The dynamic checker in
//! [`gmap_gpu::race`] is the soundness oracle: differential tests assert
//! that certified kernels exhibit zero dynamic races and that every
//! dynamic race maps to a static proven/potential pair.

use crate::congruence::{gcd, AbsVal};
use crate::interval::Interval;
use crate::report::{rw, Finding, FindingKind, Severity};
use gmap_gpu::exec::WARP_SIZE;
use gmap_gpu::kernel::{AccessDesc, EvalCtx, IndexExpr, KernelDesc, Pred, Stmt, Trip};
use gmap_gpu::race::RaceScope;
use gmap_trace::record::AccessKind;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Node budget for one (pair, scope) witness search. Exceeding it
/// downgrades the verdict to [`PairVerdict::Potential`] — never to a
/// false "disjoint".
const SEARCH_BUDGET: u64 = 1_500_000;

/// The verdict for one conflicting pair in one thread-pair scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PairVerdict {
    /// The scope cannot occur in this launch geometry (single-warp
    /// blocks, or a single-block grid).
    Vacuous,
    /// No two threads of the scope can touch the same element.
    Disjoint,
    /// Conflicting accesses exist but every one is barrier-separated
    /// (or the sites are pinned to one warp: lock-step).
    Ordered,
    /// Neither provably safe nor concretely witnessed.
    Potential,
    /// A concrete racing thread pair was found and validated.
    Proven,
}

impl PairVerdict {
    /// Whether this verdict certifies the scope race-free.
    pub fn is_safe(self) -> bool {
        matches!(
            self,
            PairVerdict::Vacuous | PairVerdict::Disjoint | PairVerdict::Ordered
        )
    }
}

impl fmt::Display for PairVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PairVerdict::Vacuous => "n/a",
            PairVerdict::Disjoint => "disjoint",
            PairVerdict::Ordered => "ordered",
            PairVerdict::Potential => "potential",
            PairVerdict::Proven => "RACE",
        })
    }
}

/// Race verdicts for one (array, PC-pair), both scopes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RacePairReport {
    /// Index of the array in the kernel's array table.
    pub array: usize,
    /// Name of the array.
    pub array_name: String,
    /// PC of the first site of the pair (site order).
    pub pc_a: u64,
    /// `"R"` or `"W"` for the first site.
    pub kind_a: String,
    /// PC of the second site (equal to `pc_a` for a self-pair).
    pub pc_b: u64,
    /// `"R"` or `"W"` for the second site.
    pub kind_b: String,
    /// Verdict for two warps of the same block.
    pub same_block: PairVerdict,
    /// Verdict for warps of different blocks.
    pub inter_block: PairVerdict,
    /// Human-readable witness for the first proven scope, if any.
    pub witness: Option<String>,
}

/// The complete result of race analysis for one kernel.
pub(crate) struct RaceAnalysis {
    /// Per-(array, PC-pair) verdicts, in site order.
    pub pairs: Vec<RacePairReport>,
    /// Findings for proven and potential races.
    pub findings: Vec<Finding>,
    /// Whether every pair is safe in every scope.
    pub certified: bool,
}

/// Runs the barrier-phase race detector over the sites the analyzer's
/// walk recorded for a structurally valid `kernel`; `has_barrier` is
/// whether the walk counted any barrier as a phase boundary.
pub(crate) fn analyze_races(
    kernel: &KernelDesc,
    sites: &[Site],
    has_barrier: bool,
) -> RaceAnalysis {
    let mut out = RaceAnalysis {
        pairs: Vec::new(),
        findings: Vec::new(),
        certified: true,
    };
    let launch = &kernel.launch;
    let g = Geom {
        tpb: launch.threads_per_block().max(1) as i128,
        ws: WARP_SIZE as i128,
        wpb: launch.warps_per_block(WARP_SIZE).max(1) as i128,
        nb: launch.num_blocks().max(1) as i128,
    };
    let views: Vec<Option<AffView>> = sites
        .iter()
        .map(|s| AffView::of(s, g, kernel.arrays[s.acc.array].elems as i128))
        .collect();

    let mut by_array: Vec<Vec<usize>> = vec![Vec::new(); kernel.arrays.len()];
    for (i, s) in sites.iter().enumerate() {
        by_array[s.acc.array].push(i);
    }

    for idxs in &by_array {
        for (pi, &i) in idxs.iter().enumerate() {
            for &j in &idxs[pi..] {
                let (sa, sb) = (&sites[i], &sites[j]);
                let (write_a, write_b) = (
                    sa.acc.kind == AccessKind::Write,
                    sb.acc.kind == AccessKind::Write,
                );
                if !write_a && !write_b {
                    continue;
                }
                let write_write = write_a && write_b;
                let array = &kernel.arrays[sa.acc.array];
                let (pc_a, pc_b) = (sa.acc.pc.0, sb.acc.pc.0);
                let (kind_a, kind_b) = (rw(sa.acc.kind), rw(sb.acc.kind));
                let between = format!(
                    "race on '{}' between pc {pc_a:#x} ({kind_a}) and pc {pc_b:#x} ({kind_b})",
                    array.name
                );
                let flavor = if write_write {
                    "write-write"
                } else {
                    "read-write"
                };
                let mut verdicts = [PairVerdict::Vacuous; 2];
                let mut witness: Option<String> = None;
                for (slot, scope) in [RaceScope::CrossWarpSameBlock, RaceScope::InterBlock]
                    .into_iter()
                    .enumerate()
                {
                    let res = analyze_pair_scope(PairInput {
                        g,
                        sa,
                        va: views[i].as_ref(),
                        sb,
                        vb: views[j].as_ref(),
                        scope,
                        elems: array.elems as i128,
                    });
                    verdicts[slot] = match res {
                        ScopeResult::Vacuous => PairVerdict::Vacuous,
                        ScopeResult::Disjoint => PairVerdict::Disjoint,
                        ScopeResult::Ordered => PairVerdict::Ordered,
                        ScopeResult::Potential(reason) => {
                            out.certified = false;
                            out.findings.push(Finding {
                                severity: Severity::Warning,
                                kind: FindingKind::RacePotential,
                                pc: Some(pc_a),
                                message: format!("potential {flavor} {between}, {scope}: {reason}"),
                            });
                            PairVerdict::Potential
                        }
                        ScopeResult::Proven(w) => {
                            out.certified = false;
                            let text = w.describe(&array.name);
                            let note = if has_barrier {
                                ""
                            } else {
                                " (kernel declares no barrier phases)"
                            };
                            out.findings.push(Finding {
                                severity: if has_barrier {
                                    Severity::Error
                                } else {
                                    Severity::Warning
                                },
                                kind: if write_write {
                                    FindingKind::RaceWriteWrite
                                } else {
                                    FindingKind::RaceReadWrite
                                },
                                pc: Some(pc_a),
                                message: format!("{flavor} {between}, {scope}: {text}{note}"),
                            });
                            if witness.is_none() {
                                witness = Some(text);
                            }
                            PairVerdict::Proven
                        }
                    };
                }
                out.pairs.push(RacePairReport {
                    array: sa.acc.array,
                    array_name: array.name.clone(),
                    pc_a,
                    kind_a: kind_a.to_string(),
                    pc_b,
                    kind_b: kind_b.to_string(),
                    same_block: verdicts[0],
                    inter_block: verdicts[1],
                    witness,
                });
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// Sites: one record per access, with its predicate path, loop stack, and
// barrier-phase expression, as the analyzer's walk met it.
// ---------------------------------------------------------------------

/// One enclosing loop of the walk.
#[derive(Clone)]
pub(crate) struct Loop<'k> {
    pub trip: &'k Trip,
    /// Largest per-thread trip count (iterations run in `[0, max_trip)`).
    pub max_trip: u64,
    /// Per-thread trip counts can differ (hashed trips).
    pub ragged: bool,
    /// Counted barriers per iteration (0 for an uncounted loop).
    pub phase_coef: i128,
}

/// `(max_trip, ragged)` of a loop's trip count.
pub(crate) fn trip_bounds(trip: &Trip) -> (u64, bool) {
    match *trip {
        Trip::Const(n) => (n as u64, false),
        Trip::Hashed { base, spread, .. } => {
            (base as u64 + spread.saturating_sub(1) as u64, spread > 1)
        }
    }
}

/// One access site.
pub(crate) struct Site<'k> {
    pub acc: &'k AccessDesc,
    /// The enclosing `If`s, each with the side taken.
    pub preds: Vec<(&'k Pred, bool)>,
    pub loops: Vec<Loop<'k>>,
    /// Barriers passed before this site, outside any enclosing loop.
    pub phase_base: i128,
}

/// Counted barriers in one iteration of `stmts`: unconditional syncs,
/// including those of nested constant-trip loops. Conditional barriers
/// and barriers under ragged loops never count (they are deadlocks the
/// divergence analysis reports, not phase boundaries).
pub(crate) fn barriers_per_iter(stmts: &[Stmt]) -> i128 {
    stmts
        .iter()
        .map(|s| match s {
            Stmt::Sync => 1,
            Stmt::Loop { trip, body } => match trip_bounds(trip) {
                (n, false) => n as i128 * barriers_per_iter(body),
                (_, true) => 0,
            },
            _ => 0,
        })
        .sum()
}

// ---------------------------------------------------------------------
// Per-site affine view: the index rewritten over (block, warp-in-block,
// lane, iterators), refined by the consumable predicates on the path.
// ---------------------------------------------------------------------

#[derive(Clone, Copy)]
struct Geom {
    tpb: i128,
    ws: i128,
    wpb: i128,
    nb: i128,
}

impl Geom {
    /// Exclusive upper bound on lane values across the launch.
    fn lanes(&self) -> i128 {
        self.ws.min(self.tpb)
    }
}

struct AffView {
    /// Constant term (the raw affine base; warp/lane pins are folded in
    /// later, per pair).
    k: i128,
    /// Coefficient of the block id (`tid = b·tpb + w·ws + l` and
    /// `warp_global = b·wpb + w`, so the DSL's tid/warp/block
    /// coefficients decompose exactly over `(b, w, l)`).
    b: i128,
    /// Coefficient of the warp-in-block index.
    w: i128,
    /// Coefficient of the lane.
    l: i128,
    /// Coefficient per enclosing loop depth (dense).
    iters: Vec<i128>,
    /// Warp-in-block pinned by a consumed `TidMod` predicate.
    w_pin: Option<i128>,
    /// Lane range after consuming `LaneLt`/`TidMod` predicates.
    l_lo: i128,
    l_hi: i128,
    /// The site can execute at all (predicates satisfiable, trips > 0).
    reachable: bool,
    /// The refined index box stays inside `[0, elems)`: no wrapping.
    in_bounds: bool,
}

impl AffView {
    fn of(site: &Site, g: Geom, elems: i128) -> Option<AffView> {
        let IndexExpr::Affine {
            base,
            tid_coef,
            lane_coef,
            warp_coef,
            block_coef,
            iter_coefs,
        } = &site.acc.index
        else {
            return None;
        };
        let mut iters = vec![0i128; site.loops.len()];
        for &(d, c) in iter_coefs {
            iters[d as usize] += c as i128;
        }
        let mut v = AffView {
            k: *base as i128,
            b: *tid_coef as i128 * g.tpb + *warp_coef as i128 * g.wpb + *block_coef as i128,
            w: *tid_coef as i128 * g.ws + *warp_coef as i128,
            l: *tid_coef as i128 + *lane_coef as i128,
            iters,
            w_pin: None,
            l_lo: 0,
            l_hi: g.lanes() - 1,
            reachable: site.loops.iter().all(|lp| lp.max_trip > 0),
            in_bounds: false,
        };
        let total = g.nb * g.tpb;
        for &(pred, pol) in &site.preds {
            v.apply_pred(pred, pol, g, total);
        }
        if v.l_lo > v.l_hi {
            v.reachable = false;
        }
        if v.reachable && elems > 0 {
            let mut iv = Interval::point(v.k)
                + Interval::new(0, g.nb - 1).scale(v.b)
                + match v.w_pin {
                    Some(p) => Interval::point(p),
                    None => Interval::new(0, g.wpb - 1),
                }
                .scale(v.w)
                + Interval::new(v.l_lo, v.l_hi).scale(v.l);
            for (d, &c) in v.iters.iter().enumerate() {
                let hi = site.loops[d].max_trip.saturating_sub(1) as i128;
                iv = iv + Interval::new(0, hi).scale(c);
            }
            v.in_bounds = iv.within(elems);
        }
        Some(v)
    }

    /// Consumes one `(pred, polarity)` step into the view's ranges when
    /// the predicate is expressible there; predicates that are not
    /// consumable are simply left for the concrete leaf validation (the
    /// box stays a sound superset of the reachable threads).
    fn apply_pred(&mut self, pred: &Pred, pol: bool, g: Geom, total: i128) {
        match *pred {
            Pred::LaneLt(n) => {
                let n = (n as i128).min(g.lanes());
                if pol {
                    self.l_hi = self.l_hi.min(n - 1);
                } else {
                    self.l_lo = self.l_lo.max(n);
                }
            }
            Pred::TidLt(n) => {
                let n = n as i128;
                if pol {
                    if n <= 0 {
                        self.reachable = false;
                    }
                    // n >= total is trivially true; mid-range predicates
                    // are left for concrete validation.
                } else if n >= total {
                    self.reachable = false;
                }
            }
            Pred::TidMod { m, r } => {
                let (m, r) = (m as i128, r as i128);
                if m == 0 {
                    // The executor evaluates a zero modulus as false.
                    if pol {
                        self.reachable = false;
                    }
                } else if m == 1 {
                    if (r == 0) != pol {
                        self.reachable = false;
                    }
                } else if pol && r >= m {
                    self.reachable = false;
                } else if pol && m == g.tpb {
                    // tid % tpb is exactly the thread-in-block index:
                    // pins both the warp and the lane.
                    let (wp, lp) = (r / g.ws, r % g.ws);
                    if self.w_pin.is_some_and(|p| p != wp) {
                        self.reachable = false;
                    }
                    self.w_pin = Some(wp);
                    if lp < self.l_lo || lp > self.l_hi {
                        self.reachable = false;
                    }
                    self.l_lo = lp;
                    self.l_hi = lp;
                } else if pol && m == g.ws && g.tpb % g.ws == 0 {
                    // Full-warp blocks: tid ≡ lane (mod warp size).
                    if r < self.l_lo || r > self.l_hi {
                        self.reachable = false;
                    }
                    self.l_lo = r;
                    self.l_hi = r;
                }
            }
            Pred::BlockMod { m, r } => {
                let (m, r) = (m as i128, r as i128);
                if m == 0 {
                    if pol {
                        self.reachable = false;
                    }
                } else if m == 1 {
                    if (r == 0) != pol {
                        self.reachable = false;
                    }
                } else if pol && r >= m {
                    self.reachable = false;
                }
            }
            Pred::Hashed { percent, .. } => {
                if percent == 0 {
                    if pol {
                        self.reachable = false;
                    }
                } else if percent >= 100 && !pol {
                    self.reachable = false;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Pair-scope analysis.
// ---------------------------------------------------------------------

enum ScopeResult {
    Vacuous,
    Disjoint,
    Ordered,
    Potential(&'static str),
    Proven(Witness),
}

struct PairInput<'a> {
    g: Geom,
    sa: &'a Site<'a>,
    va: Option<&'a AffView>,
    sb: &'a Site<'a>,
    vb: Option<&'a AffView>,
    scope: RaceScope,
    elems: i128,
}

/// Abstract phase-difference check: true when no assignment of the two
/// sites' loop iterators can place them in the same barrier phase.
/// Exact for every kernel free of barrier-divergence errors, including
/// under unconsumed predicates: counted barriers are unconditional, so
/// the phase expression holds for *all* threads.
fn phase_ordered(sa: &Site, sb: &Site) -> bool {
    let mut ph = AbsVal::point(sa.phase_base - sb.phase_base);
    for lp in &sa.loops {
        ph = ph.add(AbsVal::range(0, lp.max_trip.saturating_sub(1) as i128).scale(lp.phase_coef));
    }
    for lp in &sb.loops {
        ph = ph.add(AbsVal::range(0, lp.max_trip.saturating_sub(1) as i128).scale(-lp.phase_coef));
    }
    ph.excludes_zero()
}

fn analyze_pair_scope(p: PairInput<'_>) -> ScopeResult {
    match p.scope {
        RaceScope::CrossWarpSameBlock if p.g.wpb < 2 => return ScopeResult::Vacuous,
        RaceScope::InterBlock if p.g.nb < 2 => return ScopeResult::Vacuous,
        _ => {}
    }
    let same_block = p.scope == RaceScope::CrossWarpSameBlock;
    let (Some(va), Some(vb)) = (p.va, p.vb) else {
        // Hashed index on at least one side: no element algebra, but the
        // barrier phases may still order the pair within a block.
        if same_block && phase_ordered(p.sa, p.sb) {
            return ScopeResult::Ordered;
        }
        return ScopeResult::Potential("irregular (hashed) index defeats disjointness reasoning");
    };
    if !va.reachable || !vb.reachable {
        return ScopeResult::Disjoint;
    }
    if same_block {
        if let (Some(pa), Some(pb)) = (va.w_pin, vb.w_pin) {
            if pa == pb {
                // Both sites pinned to one warp of each block: lock-step.
                return ScopeResult::Ordered;
            }
        }
    }
    if p.elems <= 0 || !va.in_bounds || !vb.in_bounds {
        if same_block && phase_ordered(p.sa, p.sb) {
            return ScopeResult::Ordered;
        }
        return ScopeResult::Potential("an index can leave the array and wrap");
    }
    solve_pair(&p, va, vb)
}

// ---------------------------------------------------------------------
// The symbolic difference over per-scope variables, its abstract
// evaluation, and the budgeted witness search.
// ---------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq)]
enum Role {
    /// Common block id (same-block scope).
    SharedB,
    /// `b_a - b_b` when the block coefficients agree (inter-block).
    DeltaB,
    /// Independent block id of one side (inter-block, differing coefs).
    AbsB(usize),
    /// `w_a - w_b` when the warp coefficients agree and neither is pinned.
    DeltaW,
    /// Independent warp-in-block of one side.
    AbsW(usize),
    /// `l_a - l_b` when the lane coefficients and ranges agree.
    DeltaL,
    /// Independent lane of one side.
    AbsL(usize),
    /// Loop iterator `(side, depth)`.
    Iter(usize, usize),
}

#[derive(Clone, Copy)]
struct SVar {
    role: Role,
    /// Coefficient in the element-difference equation.
    coef: i128,
    lo: i128,
    hi: i128,
    /// The value 0 is excluded (distinctness deltas).
    nonzero: bool,
    /// Coefficient in the barrier-phase difference.
    phase_coef: i128,
    /// Reconstruction offset (shared lane lower bound for `DeltaL`).
    base: i128,
}

enum Stop {
    Found(Box<Witness>),
    Budget,
}

struct Witness {
    b_a: i128,
    w_a: i128,
    l_a: i128,
    it_a: Vec<u64>,
    b_b: i128,
    w_b: i128,
    l_b: i128,
    it_b: Vec<u64>,
    elem: i128,
    phase: Option<i128>,
}

impl Witness {
    fn describe(&self, array: &str) -> String {
        fn thread(b: i128, w: i128, l: i128, it: &[u64]) -> String {
            let mut s = format!("block {b} warp {w} lane {l}");
            if !it.is_empty() {
                s.push_str(&format!(" iters {it:?}"));
            }
            s
        }
        let mut s = format!(
            "{} and {} touch elem {} of '{}'",
            thread(self.b_a, self.w_a, self.l_a, &self.it_a),
            thread(self.b_b, self.w_b, self.l_b, &self.it_b),
            self.elem,
            array,
        );
        if let Some(p) = self.phase {
            s.push_str(&format!(" in barrier phase {p}"));
        }
        s
    }
}

fn solve_pair(p: &PairInput<'_>, va: &AffView, vb: &AffView) -> ScopeResult {
    let g = p.g;
    let same_block = p.scope == RaceScope::CrossWarpSameBlock;
    let mut vars: Vec<SVar> = Vec::new();
    let mut k_diff = va.k - vb.k;
    let var = |role, coef, lo, hi, nonzero, phase_coef, base| SVar {
        role,
        coef,
        lo,
        hi,
        nonzero,
        phase_coef,
        base,
    };

    // Block coordinates.
    if same_block {
        vars.push(var(Role::SharedB, va.b - vb.b, 0, g.nb - 1, false, 0, 0));
    } else if va.b == vb.b {
        vars.push(var(Role::DeltaB, va.b, -(g.nb - 1), g.nb - 1, true, 0, 0));
    } else {
        vars.push(var(Role::AbsB(0), va.b, 0, g.nb - 1, false, 0, 0));
        vars.push(var(Role::AbsB(1), -vb.b, 0, g.nb - 1, false, 0, 0));
    }

    // Warp-in-block coordinates (pins fold into the constant).
    match (va.w_pin, vb.w_pin) {
        (Some(pa), Some(pb)) => k_diff += va.w * pa - vb.w * pb,
        (Some(pa), None) => {
            k_diff += va.w * pa;
            vars.push(var(Role::AbsW(1), -vb.w, 0, g.wpb - 1, false, 0, 0));
        }
        (None, Some(pb)) => {
            k_diff -= vb.w * pb;
            vars.push(var(Role::AbsW(0), va.w, 0, g.wpb - 1, false, 0, 0));
        }
        (None, None) => {
            if va.w == vb.w {
                vars.push(var(
                    Role::DeltaW,
                    va.w,
                    -(g.wpb - 1),
                    g.wpb - 1,
                    same_block,
                    0,
                    0,
                ));
            } else {
                vars.push(var(Role::AbsW(0), va.w, 0, g.wpb - 1, false, 0, 0));
                vars.push(var(Role::AbsW(1), -vb.w, 0, g.wpb - 1, false, 0, 0));
            }
        }
    }

    // Lanes.
    if va.l == vb.l && va.l_lo == vb.l_lo && va.l_hi == vb.l_hi {
        let span = va.l_hi - va.l_lo;
        vars.push(var(Role::DeltaL, va.l, -span, span, false, 0, va.l_lo));
    } else {
        vars.push(var(Role::AbsL(0), va.l, va.l_lo, va.l_hi, false, 0, 0));
        vars.push(var(Role::AbsL(1), -vb.l, vb.l_lo, vb.l_hi, false, 0, 0));
    }

    // Loop iterators, one per side and depth.
    for (d, lp) in p.sa.loops.iter().enumerate() {
        vars.push(var(
            Role::Iter(0, d),
            va.iters[d],
            0,
            lp.max_trip.saturating_sub(1) as i128,
            false,
            lp.phase_coef,
            0,
        ));
    }
    for (d, lp) in p.sb.loops.iter().enumerate() {
        vars.push(var(
            Role::Iter(1, d),
            -vb.iters[d],
            0,
            lp.max_trip.saturating_sub(1) as i128,
            false,
            -lp.phase_coef,
            0,
        ));
    }

    // Step 1: abstract disjointness in the interval × congruence product.
    // A distinctness delta splits into its positive and negative branch
    // (both must exclude zero); the congruence component is what decides
    // per-lane strided patterns.
    let eval = |restrict: Option<(usize, i128, i128)>| -> AbsVal {
        let mut acc = AbsVal::point(k_diff);
        for (i, v) in vars.iter().enumerate() {
            let (lo, hi) = match restrict {
                Some((ri, rlo, rhi)) if ri == i => (rlo, rhi),
                _ => (v.lo, v.hi),
            };
            acc = acc.add(AbsVal::range(lo, hi).scale(v.coef));
        }
        acc
    };
    let abstractly_disjoint = match vars.iter().position(|v| v.nonzero && v.coef != 0) {
        Some(i) => {
            let v = vars[i];
            (v.hi < 1 || eval(Some((i, 1, v.hi))).excludes_zero())
                && (v.lo > -1 || eval(Some((i, v.lo, -1))).excludes_zero())
        }
        None => eval(None).excludes_zero(),
    };
    if abstractly_disjoint {
        return ScopeResult::Disjoint;
    }

    // Step 2: abstract phase ordering (same-block only).
    if same_block && phase_ordered(p.sa, p.sb) {
        return ScopeResult::Ordered;
    }

    // Step 3: budgeted witness search. The widest variable with a
    // nonzero coefficient is solved analytically; the rest of the
    // constrained variables are enumerated smallest-domain-first with
    // interval and divisibility pruning on suffix contributions.
    let check_phase = same_block;
    let analytic = vars
        .iter()
        .enumerate()
        .filter(|(_, v)| v.coef != 0)
        .max_by_key(|(_, v)| v.hi - v.lo)
        .map(|(i, _)| i);
    let mut order: Vec<usize> = (0..vars.len())
        .filter(|&i| {
            Some(i) != analytic && (vars[i].coef != 0 || (check_phase && vars[i].phase_coef != 0))
        })
        .collect();
    order.sort_by_key(|&i| vars[i].hi - vars[i].lo);

    let n = order.len();
    let mut suffix_lo = vec![0i128; n + 1];
    let mut suffix_hi = vec![0i128; n + 1];
    let mut suffix_gcd = vec![0i128; n + 1];
    if let Some(ai) = analytic {
        let v = &vars[ai];
        let (a, b) = (v.coef * v.lo, v.coef * v.hi);
        suffix_lo[n] = a.min(b);
        suffix_hi[n] = a.max(b);
        suffix_gcd[n] = v.coef.abs();
    }
    for d in (0..n).rev() {
        let v = &vars[order[d]];
        let (a, b) = (v.coef * v.lo, v.coef * v.hi);
        suffix_lo[d] = suffix_lo[d + 1] + a.min(b);
        suffix_hi[d] = suffix_hi[d + 1] + a.max(b);
        suffix_gcd[d] = gcd(suffix_gcd[d + 1], v.coef.abs());
    }

    // Canonical defaults for unenumerated variables: the minimal valid
    // representative (1 for distinctness deltas — their domains reach 1
    // by the scope guards — otherwise 0 clamped into range).
    let assign: Vec<i128> = vars
        .iter()
        .map(|v| {
            if v.nonzero {
                1
            } else {
                0i128.clamp(v.lo, v.hi)
            }
        })
        .collect();
    let free_w = vars.iter().find_map(|v| match v.role {
        Role::AbsW(s) if v.coef == 0 => Some(s),
        _ => None,
    });
    let free_b = vars.iter().find_map(|v| match v.role {
        Role::AbsB(s) if v.coef == 0 => Some(s),
        _ => None,
    });
    let phase_const = p.sa.phase_base - p.sb.phase_base;

    let mut solver = Solver {
        g,
        sa: p.sa,
        va,
        sb: p.sb,
        vb,
        scope: p.scope,
        elems: p.elems,
        vars,
        assign,
        order,
        analytic,
        suffix_lo,
        suffix_hi,
        suffix_gcd,
        phase_const,
        check_phase,
        free_w,
        free_b,
        budget: SEARCH_BUDGET,
        saw_ordered: false,
        inexact_fail: false,
    };
    match solver.dfs(0, k_diff) {
        Err(Stop::Found(w)) => ScopeResult::Proven(*w),
        Err(Stop::Budget) => ScopeResult::Potential("witness search budget exhausted"),
        Ok(()) => {
            if solver.inexact_fail {
                ScopeResult::Potential(
                    "per-thread predicates or ragged trip counts defeat the search",
                )
            } else if solver.saw_ordered {
                ScopeResult::Ordered
            } else {
                ScopeResult::Disjoint
            }
        }
    }
}

struct Solver<'a> {
    g: Geom,
    sa: &'a Site<'a>,
    va: &'a AffView,
    sb: &'a Site<'a>,
    vb: &'a AffView,
    scope: RaceScope,
    elems: i128,
    vars: Vec<SVar>,
    assign: Vec<i128>,
    order: Vec<usize>,
    analytic: Option<usize>,
    suffix_lo: Vec<i128>,
    suffix_hi: Vec<i128>,
    suffix_gcd: Vec<i128>,
    phase_const: i128,
    check_phase: bool,
    free_w: Option<usize>,
    free_b: Option<usize>,
    budget: u64,
    /// Some element-colliding candidate was excluded purely by the
    /// barrier-phase constraint.
    saw_ordered: bool,
    /// Some candidate was rejected only by a check the variable encoding
    /// is not exact for (unconsumed predicates, ragged trips).
    inexact_fail: bool,
}

impl Solver<'_> {
    fn dfs(&mut self, d: usize, partial: i128) -> Result<(), Stop> {
        if d == self.order.len() {
            return self.finish(partial);
        }
        let vi = self.order[d];
        let v = self.vars[vi];
        let mut idx = 0u64;
        while let Some(x) = ordered_value(v.lo, v.hi, v.nonzero, idx) {
            idx += 1;
            if self.budget == 0 {
                return Err(Stop::Budget);
            }
            self.budget -= 1;
            let p2 = partial + v.coef * x;
            if p2 + self.suffix_lo[d + 1] > 0 || p2 + self.suffix_hi[d + 1] < 0 {
                continue;
            }
            let sg = self.suffix_gcd[d + 1];
            if (sg == 0 && p2 != 0) || (sg > 0 && p2 % sg != 0) {
                continue;
            }
            self.assign[vi] = x;
            self.dfs(d + 1, p2)?;
        }
        Ok(())
    }

    fn finish(&mut self, partial: i128) -> Result<(), Stop> {
        if let Some(ai) = self.analytic {
            let v = self.vars[ai];
            let target = -partial;
            if target % v.coef != 0 {
                return Ok(());
            }
            let x = target / v.coef;
            if x < v.lo || x > v.hi || (v.nonzero && x == 0) {
                return Ok(());
            }
            self.assign[ai] = x;
        } else if partial != 0 {
            return Ok(());
        }
        if self.check_phase {
            let ph = self.phase_const
                + self
                    .vars
                    .iter()
                    .zip(&self.assign)
                    .map(|(v, &x)| v.phase_coef * x)
                    .sum::<i128>();
            if ph != 0 {
                // Element collision, but barrier-separated.
                self.saw_ordered = true;
                return Ok(());
            }
        }
        self.confirm_witness()
    }

    /// Reconstructs minimal concrete coordinates from the assignment and
    /// validates them against everything the variable encoding abstracts
    /// away. The reconstruction is minimal in every component
    /// simultaneously, and thread-existence (`w·ws + l < tpb`) is
    /// anti-monotone in upward shifts — so a rejection here holds for
    /// *every* representative of the assignment and counts as algebraic.
    fn confirm_witness(&mut self) -> Result<(), Stop> {
        let g = self.g;
        let (mut b_a, mut b_b) = (0i128, 0i128);
        let mut w_a = self.va.w_pin.unwrap_or(0);
        let mut w_b = self.vb.w_pin.unwrap_or(0);
        let (mut l_a, mut l_b) = (self.va.l_lo, self.vb.l_lo);
        let mut it_a = vec![0i128; self.sa.loops.len()];
        let mut it_b = vec![0i128; self.sb.loops.len()];
        for (v, &x) in self.vars.iter().zip(&self.assign) {
            match v.role {
                Role::SharedB => {
                    b_a = x;
                    b_b = x;
                }
                Role::DeltaB => {
                    b_b = (-x).max(0);
                    b_a = b_b + x;
                }
                Role::AbsB(0) => b_a = x,
                Role::AbsB(_) => b_b = x,
                Role::DeltaW => {
                    w_b = (-x).max(0);
                    w_a = w_b + x;
                }
                Role::AbsW(0) => w_a = x,
                Role::AbsW(_) => w_b = x,
                Role::DeltaL => {
                    l_b = v.base + (-x).max(0);
                    l_a = l_b + x;
                }
                Role::AbsL(0) => l_a = x,
                Role::AbsL(_) => l_b = x,
                Role::Iter(0, d) => it_a[d] = x,
                Role::Iter(_, d) => it_b[d] = x,
            }
        }
        // Distinctness. A coordinate whose coefficient is 0 on one side
        // is free: pick any value different from the other side's.
        match self.scope {
            RaceScope::CrossWarpSameBlock => {
                if w_a == w_b {
                    match self.free_w {
                        Some(0) => w_a = if w_b == 0 { 1 } else { 0 },
                        Some(_) => w_b = if w_a == 0 { 1 } else { 0 },
                        None => return Ok(()),
                    }
                }
            }
            RaceScope::InterBlock => {
                if b_a == b_b {
                    match self.free_b {
                        Some(0) => b_a = if b_b == 0 { 1 } else { 0 },
                        Some(_) => b_b = if b_a == 0 { 1 } else { 0 },
                        None => return Ok(()),
                    }
                }
            }
        }
        // Thread existence in a possibly partial last warp.
        if w_a * g.ws + l_a >= g.tpb || w_b * g.ws + l_b >= g.tpb {
            return Ok(());
        }
        // Concrete validation of everything not consumed into ranges:
        // path predicates and per-thread trip counts.
        let it_a_u: Vec<u64> = it_a.iter().map(|&x| x as u64).collect();
        let it_b_u: Vec<u64> = it_b.iter().map(|&x| x as u64).collect();
        for (site, b, w, l, its) in [
            (self.sa, b_a, w_a, l_a, &it_a_u),
            (self.sb, b_b, w_b, l_b, &it_b_u),
        ] {
            let tid = (b * g.tpb + w * g.ws + l) as u64;
            let ctx = EvalCtx {
                tid,
                lane: l as u32,
                warp: (b * g.wpb + w) as u32,
                block: b as u32,
                iters: its,
            };
            for &(pred, pol) in &site.preds {
                if pred.eval(&ctx) != pol {
                    self.inexact_fail = true;
                    return Ok(());
                }
            }
            for (d, lp) in site.loops.iter().enumerate() {
                if its[d] >= lp.trip.count_for(tid) as u64 {
                    self.inexact_fail = true;
                    return Ok(());
                }
            }
        }
        let elem_of = |v: &AffView, b: i128, w: i128, l: i128, it: &[i128]| {
            v.k + v.b * b
                + v.w * w
                + v.l * l
                + v.iters.iter().zip(it).map(|(&c, &x)| c * x).sum::<i128>()
        };
        let elem = elem_of(self.va, b_a, w_a, l_a, &it_a);
        debug_assert_eq!(elem, elem_of(self.vb, b_b, w_b, l_b, &it_b));
        debug_assert!(elem >= 0 && elem < self.elems);
        let phase = self.check_phase.then(|| {
            let sa = self.sa;
            sa.phase_base
                + sa.loops
                    .iter()
                    .zip(&it_a)
                    .map(|(lp, &x)| lp.phase_coef * x)
                    .sum::<i128>()
        });
        Err(Stop::Found(Box::new(Witness {
            b_a,
            w_a,
            l_a,
            it_a: it_a_u,
            b_b,
            w_b,
            l_b,
            it_b: it_b_u,
            elem,
            phase,
        })))
    }
}

/// The `idx`-th value of `[lo, hi]` (minus 0 when `nonzero`) in
/// magnitude-ascending order: 0, 1, -1, 2, -2, ... — small deltas are by
/// far the most likely witnesses, and trying them first keeps proven
/// races cheap.
fn ordered_value(lo: i128, hi: i128, nonzero: bool, idx: u64) -> Option<i128> {
    if lo > hi {
        return None;
    }
    let idx = idx as i128;
    if lo >= 0 {
        let start = if nonzero && lo == 0 { 1 } else { lo };
        let v = start + idx;
        return (v <= hi).then_some(v);
    }
    if hi <= 0 {
        let start = if nonzero && hi == 0 { -1 } else { hi };
        let v = start - idx;
        return (v >= lo).then_some(v);
    }
    let mut i = idx;
    if !nonzero {
        if i == 0 {
            return Some(0);
        }
        i -= 1;
    }
    let both = hi.min(-lo);
    if i < 2 * both {
        let m = i / 2 + 1;
        return Some(if i % 2 == 0 { m } else { -m });
    }
    i -= 2 * both;
    if hi > -lo {
        let v = both + 1 + i;
        (v <= hi).then_some(v)
    } else {
        let v = -(both + 1 + i);
        (v >= lo).then_some(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmap_gpu::kernel::{dsl, KernelBuilder};
    use gmap_gpu::race::dynamic_races;
    use gmap_gpu::workloads::{self, Scale};
    use gmap_trace::record::Pc;

    fn kinds(a: &RaceAnalysis) -> Vec<FindingKind> {
        a.findings.iter().map(|f| f.kind).collect()
    }

    /// The detector's result as `analyze_kernel` reports it, findings
    /// filtered to the race kinds.
    fn race_analysis(k: &KernelDesc) -> RaceAnalysis {
        let report = crate::analyze_kernel(k);
        let is_race = |f: &Finding| {
            matches!(
                f.kind,
                FindingKind::RaceWriteWrite
                    | FindingKind::RaceReadWrite
                    | FindingKind::RacePotential
            )
        };
        RaceAnalysis {
            pairs: report.races,
            findings: report.findings.into_iter().filter(is_race).collect(),
            certified: report.race_certified,
        }
    }

    #[test]
    fn the_body_is_walked_and_validated_once() {
        let mut non_test = String::new();
        for entry in std::fs::read_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/src")).unwrap() {
            let text = std::fs::read_to_string(entry.unwrap().path()).unwrap();
            for line in text.lines().take_while(|l| *l != "#[cfg(test)]") {
                non_test.push_str(line);
                non_test.push('\n');
            }
        }
        let count = |needle: &str| non_test.matches(needle).count();
        assert_eq!(count("fn walk("), 1, "one traversal of a kernel body");
        assert_eq!(count(".validate()"), 1, "one structural validation");
        assert_eq!(count("fn gcd("), 1);
        assert_eq!(count("struct Collector"), 0);
    }

    #[test]
    fn ordered_value_enumerates_magnitude_ascending() {
        let seq: Vec<i128> = (0..7)
            .map_while(|i| ordered_value(-3, 3, false, i))
            .collect();
        assert_eq!(seq, vec![0, 1, -1, 2, -2, 3, -3]);
        let nz: Vec<i128> = (0..6)
            .map_while(|i| ordered_value(-3, 2, true, i))
            .collect();
        assert_eq!(nz, vec![1, -1, 2, -2, -3]);
        let one_sided: Vec<i128> = (0..3)
            .map_while(|i| ordered_value(1, 3, false, i))
            .collect();
        assert_eq!(one_sided, vec![1, 2, 3]);
        assert_eq!(ordered_value(0, 0, true, 0), None);
    }

    #[test]
    fn tid_linear_write_is_certified() {
        let k = KernelBuilder::new("clean", 2u32, 64u32)
            .array("a", 128)
            .write(Pc(0x10), 0, IndexExpr::tid_linear(0, 1))
            .build()
            .expect("valid");
        let a = race_analysis(&k);
        assert!(a.certified, "pairs: {:?}", a.pairs);
        assert!(a.findings.is_empty());
        assert_eq!(a.pairs.len(), 1);
        assert_eq!(a.pairs[0].same_block, PairVerdict::Disjoint);
        assert_eq!(a.pairs[0].inter_block, PairVerdict::Disjoint);
    }

    #[test]
    fn strided_parity_needs_the_congruence_domain() {
        // A[2·tid] and A[2·tid + 1]: the interval of the difference
        // straddles zero, only the parity argument separates them.
        let k = KernelBuilder::new("parity", 2u32, 64u32)
            .array("a", 256)
            .write(Pc(0x10), 0, IndexExpr::tid_linear(0, 2))
            .write(Pc(0x20), 0, IndexExpr::tid_linear(1, 2))
            .build()
            .expect("valid");
        let a = race_analysis(&k);
        assert!(a.certified, "pairs: {:?}", a.pairs);
        let cross = a
            .pairs
            .iter()
            .find(|p| p.pc_a == 0x10 && p.pc_b == 0x20)
            .expect("cross pair");
        assert_eq!(cross.same_block, PairVerdict::Disjoint);
        assert_eq!(cross.inter_block, PairVerdict::Disjoint);
    }

    #[test]
    fn whole_block_writing_one_element_is_a_warning_without_barriers() {
        let k = KernelBuilder::new("hot", 1u32, 64u32)
            .array("a", 4)
            .write(Pc(0x10), 0, IndexExpr::tid_linear(0, 0))
            .build()
            .expect("valid");
        let a = race_analysis(&k);
        assert!(!a.certified);
        assert_eq!(a.pairs[0].same_block, PairVerdict::Proven);
        assert_eq!(a.pairs[0].inter_block, PairVerdict::Vacuous);
        assert!(a.pairs[0].witness.is_some());
        assert_eq!(kinds(&a), vec![FindingKind::RaceWriteWrite]);
        assert_eq!(a.findings[0].severity, Severity::Warning);
        assert!(a.findings[0].message.contains("no barrier phases"));
    }

    #[test]
    fn barrier_orders_within_block_and_races_across_blocks() {
        // Phase 0 writes a[tid - 64·block] (block-local slot), phase 1
        // reads it back: within a block cross-warp pairs touch distinct
        // slots, but block 1 writes the same 64 elements as block 0 and
        // no barrier spans the grid.
        let idx = IndexExpr::Affine {
            base: 0,
            tid_coef: 1,
            lane_coef: 0,
            warp_coef: 0,
            block_coef: -64,
            iter_coefs: vec![],
        };
        let k = KernelBuilder::new("phased", 2u32, 64u32)
            .array("a", 64)
            .write(Pc(0x10), 0, idx.clone())
            .stmt(Stmt::Sync)
            .read(Pc(0x20), 0, idx)
            .build()
            .expect("valid");
        let a = race_analysis(&k);
        assert!(!a.certified);
        assert_eq!(a.pairs.len(), 2);
        let ww = &a.pairs[0];
        assert_eq!((ww.pc_a, ww.pc_b), (0x10, 0x10));
        assert_eq!(ww.same_block, PairVerdict::Disjoint);
        assert_eq!(ww.inter_block, PairVerdict::Proven);
        let rw = &a.pairs[1];
        assert_eq!((rw.pc_a, rw.pc_b), (0x10, 0x20));
        assert_eq!(rw.same_block, PairVerdict::Disjoint);
        assert_eq!(rw.inter_block, PairVerdict::Proven);
        // The kernel declares a barrier, so proven races are errors.
        assert!(a.findings.iter().all(|f| f.severity == Severity::Error));
        assert!(kinds(&a).contains(&FindingKind::RaceWriteWrite));
        assert!(kinds(&a).contains(&FindingKind::RaceReadWrite));
        // Differential agreement with the dynamic checker: every dynamic
        // race maps to a statically proven pair.
        let dyn_races = dynamic_races(&k, &gmap_gpu::exec::execute_kernel(&k), 64);
        assert!(!dyn_races.is_empty());
        for r in &dyn_races {
            assert_eq!(r.scope, RaceScope::InterBlock);
            assert!(
                a.pairs
                    .iter()
                    .any(|p| (p.pc_a, p.pc_b) == (r.pc_lo, r.pc_hi)
                        && p.inter_block == PairVerdict::Proven),
                "dynamic race {r:?} has no static counterpart"
            );
        }
    }

    #[test]
    fn barriers_inside_loops_order_cross_iteration_conflicts() {
        // Each iteration writes a[tid + 32·i] after a barrier: the only
        // cross-thread collisions pair different iterations, which the
        // per-iteration barrier separates.
        let k = KernelBuilder::new("loop-phased", 1u32, 64u32)
            .array("a", 128)
            .stmt(dsl::loop_n(
                2,
                vec![
                    Stmt::Sync,
                    dsl::write(0x10, 0, dsl::affine(0, 1, vec![(0, 32)])),
                ],
            ))
            .build()
            .expect("valid");
        let a = race_analysis(&k);
        assert_eq!(a.pairs[0].same_block, PairVerdict::Ordered);
        assert_eq!(a.pairs[0].inter_block, PairVerdict::Vacuous);
        assert!(a.certified, "pairs: {:?}", a.pairs);
        // The dynamic oracle agrees that the barrier discipline holds.
        let dyn_races = dynamic_races(&k, &gmap_gpu::exec::execute_kernel(&k), 64);
        assert!(dyn_races.is_empty(), "unexpected: {dyn_races:?}");
    }

    #[test]
    fn pred_pinned_sites_share_one_warp_and_are_ordered() {
        // tid % 64 == 0 and tid % 64 == 1 both pin warp 0 of each block:
        // intra-warp lock-step, never a race.
        let k = KernelBuilder::new("pinned", 1u32, 64u32)
            .array("a", 4)
            .stmt(Stmt::If {
                pred: Pred::TidMod { m: 64, r: 0 },
                then_body: vec![dsl::write(0x10, 0, IndexExpr::tid_linear(0, 0))],
                else_body: vec![],
            })
            .stmt(Stmt::If {
                pred: Pred::TidMod { m: 64, r: 1 },
                then_body: vec![dsl::write(0x20, 0, IndexExpr::tid_linear(0, 0))],
                else_body: vec![],
            })
            .build()
            .expect("valid");
        let a = race_analysis(&k);
        assert!(a.certified, "pairs: {:?}", a.pairs);
        assert!(
            a.pairs
                .iter()
                .all(|p| p.same_block == PairVerdict::Ordered
                    && p.inter_block == PairVerdict::Vacuous)
        );
    }

    #[test]
    fn hashed_writes_are_potential_not_proven() {
        let k = KernelBuilder::new("scatter", 2u32, 64u32)
            .array("a", 1024)
            .write(Pc(0x10), 0, IndexExpr::Hashed { seed: 7 })
            .build()
            .expect("valid");
        let a = race_analysis(&k);
        assert!(!a.certified);
        assert_eq!(a.pairs[0].same_block, PairVerdict::Potential);
        assert_eq!(a.pairs[0].inter_block, PairVerdict::Potential);
        assert!(a
            .findings
            .iter()
            .all(|f| f.kind == FindingKind::RacePotential && f.severity == Severity::Warning));
    }

    #[test]
    fn matrixmul_builtin_is_certified_race_free() {
        // The one builtin that uses barriers: reads of the input tiles
        // are read-only, the output write is tid-linear.
        let k = workloads::matrixmul(Scale::Tiny);
        let a = race_analysis(&k);
        assert!(a.certified, "pairs: {:?}", a.pairs);
        assert!(a.findings.is_empty(), "findings: {:?}", a.findings);
    }
}
