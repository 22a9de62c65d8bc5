//! Online per-PC access-pattern classification.
//!
//! A streaming port of the gem-forge `MemoryAccessPattern` idea: each
//! static memory instruction (PC) carries a small finite-state machine
//! that starts at the most specific hypothesis and only ever *relaxes*
//! down a fixed hierarchy as observed addresses contradict it:
//!
//! ```text
//! UNKNOWN → CONSTANT → LINEAR → QUADRIC → INDIRECT → RANDOM
//! ```
//!
//! - **CONSTANT**: every access hits the same address.
//! - **LINEAR**: `addr(i) = base + i · stride` (affine in one induction
//!   variable).
//! - **QUADRIC**: `addr(j, i) = base + j · strideJ + i · strideI` with
//!   `i < ni` — a rectangular nested loop (gem-forge's QUADRIC).
//! - **INDIRECT**: not affine, but confined to a bounded region — the
//!   signature of `a[b[i]]` gathers over a resident array. Traces carry no
//!   data values, so indirection is inferred from *bounded non-affinity*:
//!   the footprint span stays under `indirect_max_span`.
//! - **RANDOM**: not affine and unbounded (footprint span exceeded the
//!   limit). Terminal.
//!
//! gem-forge places INDIRECT outside its linear hierarchy; here it sits
//! between QUADRIC and RANDOM so the whole classification is a single
//! monotone rank — a property the test suite asserts: `rank` never
//! decreases over any input sequence.
//!
//! Classification rides the warp-reconstruction pass: each warp-level
//! instruction feeds the FSM of its `(pc, warp)` pair (per-warp streams
//! are affine; interleaving warps would destroy the pattern), and a PC's
//! verdict is the weakest (highest-rank) verdict across its tracked
//! warps. Conditional accesses — gem-forge's `ConditionalAccessPattern` —
//! are tracked orthogonally: a PC is conditional when some instruction
//! executed with fewer participating lanes than the warp has live lanes,
//! or when some active warp never executed the PC at all.

use gmap_trace::record::ByteAddr;
use serde::{Deserialize, Serialize};
use std::collections::btree_map::{BTreeMap, Entry};
use std::collections::BTreeSet;

/// The monotone pattern hierarchy. Order matters: derived `Ord` is the
/// relaxation order, and [`PatternClass::rank`] is the numeric position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum PatternClass {
    /// No access observed yet.
    Unknown,
    /// Single address.
    Constant,
    /// One affine induction variable.
    Linear,
    /// Two nested affine induction variables.
    Quadric,
    /// Non-affine but confined to a bounded region.
    Indirect,
    /// Non-affine, unbounded footprint.
    Random,
}

impl PatternClass {
    /// Position in the hierarchy; never decreases for a given stream.
    pub fn rank(self) -> u8 {
        self as u8
    }

    /// Stable uppercase label for reports.
    pub fn label(self) -> &'static str {
        match self {
            PatternClass::Unknown => "UNKNOWN",
            PatternClass::Constant => "CONSTANT",
            PatternClass::Linear => "LINEAR",
            PatternClass::Quadric => "QUADRIC",
            PatternClass::Indirect => "INDIRECT",
            PatternClass::Random => "RANDOM",
        }
    }
}

/// Tuning knobs for the classifier. All bounds exist to keep classifier
/// memory constant in trace length.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClassifierConfig {
    /// Distinct PCs tracked; further PCs are counted but not classified.
    pub max_pcs: usize,
    /// Per PC, distinct warp FSMs tracked; further warps still update
    /// counts and footprint but not pattern state.
    pub max_warp_fsms: usize,
    /// Footprint span (max − min address) above which a non-affine
    /// stream is RANDOM rather than INDIRECT.
    pub indirect_max_span: u64,
}

impl Default for ClassifierConfig {
    fn default() -> Self {
        ClassifierConfig {
            max_pcs: 256,
            max_warp_fsms: 32,
            indirect_max_span: 64 << 20,
        }
    }
}

/// Per-stream pattern FSM in the gem-forge hierarchy.
#[derive(Debug, Clone)]
pub struct PatternFsm {
    class: PatternClass,
    /// First address of the stream; affine hypotheses are anchored here.
    base: u64,
    /// Inner (LINEAR) stride and index.
    stride_i: i64,
    i: u64,
    /// QUADRIC inner trip count, outer stride, outer index.
    ni: u64,
    stride_j: i64,
    j: u64,
    /// Observed footprint.
    lo: u64,
    hi: u64,
    count: u64,
    indirect_max_span: u64,
}

impl PatternFsm {
    /// A fresh FSM (UNKNOWN until the first access).
    pub fn new(indirect_max_span: u64) -> Self {
        PatternFsm {
            class: PatternClass::Unknown,
            base: 0,
            stride_i: 0,
            i: 0,
            ni: 0,
            stride_j: 0,
            j: 0,
            lo: u64::MAX,
            hi: 0,
            count: 0,
            indirect_max_span,
        }
    }

    /// Current verdict.
    pub fn class(&self) -> PatternClass {
        self.class
    }

    /// Accesses observed.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The LINEAR stride, meaningful for LINEAR and QUADRIC verdicts.
    pub fn stride(&self) -> i64 {
        self.stride_i
    }

    /// `(inner_len, outer_stride)`, meaningful for QUADRIC verdicts.
    pub fn quadric(&self) -> (u64, i64) {
        (self.ni, self.stride_j)
    }

    fn affine(base: u64, j: u64, sj: i64, i: u64, si: i64) -> u64 {
        base.wrapping_add((j as i64).wrapping_mul(sj) as u64)
            .wrapping_add((i as i64).wrapping_mul(si) as u64)
    }

    /// Feeds one address; the verdict only ever relaxes down the
    /// hierarchy.
    pub fn observe(&mut self, addr: u64) {
        self.count += 1;
        self.lo = self.lo.min(addr);
        self.hi = self.hi.max(addr);
        match self.class {
            PatternClass::Unknown => {
                self.base = addr;
                self.class = PatternClass::Constant;
            }
            PatternClass::Constant => {
                if addr != self.base {
                    // First deviation defines the linear stride; this
                    // access is element i = 1.
                    self.stride_i = addr.wrapping_sub(self.base) as i64;
                    self.i = 1;
                    self.class = PatternClass::Linear;
                }
            }
            PatternClass::Linear => {
                let expect = Self::affine(self.base, 0, 0, self.i + 1, self.stride_i);
                if addr == expect {
                    self.i += 1;
                } else {
                    // Promote to a nested loop: the linear run so far is
                    // the inner dimension (trip count i+1), this access
                    // starts outer iteration j = 1.
                    self.ni = self.i + 1;
                    self.stride_j = addr.wrapping_sub(self.base) as i64;
                    self.j = 1;
                    self.i = 0;
                    self.class = PatternClass::Quadric;
                }
            }
            PatternClass::Quadric => {
                let next_i =
                    Self::affine(self.base, self.j, self.stride_j, self.i + 1, self.stride_i);
                let next_j = Self::affine(self.base, self.j + 1, self.stride_j, 0, self.stride_i);
                if self.i + 1 < self.ni && addr == next_i {
                    self.i += 1;
                } else if addr == next_j {
                    self.j += 1;
                    self.i = 0;
                } else {
                    self.relax_nonaffine();
                }
            }
            PatternClass::Indirect => {
                if self.hi - self.lo > self.indirect_max_span {
                    self.class = PatternClass::Random;
                }
            }
            PatternClass::Random => {}
        }
    }

    fn relax_nonaffine(&mut self) {
        self.class = if self.hi - self.lo > self.indirect_max_span {
            PatternClass::Random
        } else {
            PatternClass::Indirect
        };
    }
}

/// Aggregated per-PC statistics and verdict, emitted by
/// [`OnlineClassifier::finish`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PcSummary {
    /// The static instruction address.
    pub pc: u64,
    /// `"R"`, `"W"`, or `"RW"` when both kinds were seen.
    pub kind: String,
    /// The weakest verdict across tracked warps.
    pub class: PatternClass,
    /// LINEAR stride (also the QUADRIC inner stride), when affine.
    pub stride: Option<i64>,
    /// QUADRIC inner trip count.
    pub inner_len: Option<u64>,
    /// QUADRIC outer stride.
    pub outer_stride: Option<i64>,
    /// Warp-level dynamic instructions at this PC.
    pub instructions: u64,
    /// Coalesced line transactions issued.
    pub transactions: u64,
    /// Distinct warps that executed the PC.
    pub warps: u64,
    /// Conditional access: partial lane participation, or not every
    /// active warp executed this PC.
    pub conditional: bool,
    /// Instructions that executed with fewer lanes than the warp has.
    pub partial_lane_instructions: u64,
    /// Footprint bounds over raw line addresses.
    pub min_addr: u64,
    /// See `min_addr`.
    pub max_addr: u64,
}

#[derive(Debug)]
struct PcState {
    pc: u64,
    reads: u64,
    writes: u64,
    instructions: u64,
    transactions: u64,
    partial_lane_instructions: u64,
    lo: u64,
    hi: u64,
    /// Every warp that executed the PC, with its slot in `fsms` — `None`
    /// while the warp has no FSM (no line seen yet, or the
    /// `max_warp_fsms` bound was reached first).
    warps: BTreeMap<u32, Option<usize>>,
    fsms: Vec<PatternFsm>,
    /// The last warp observed here and its `warps` value: a run of one
    /// warp's instructions pays the map lookup once.
    last: Option<(u32, Option<usize>)>,
}

impl PcState {
    fn new(pc: u64) -> Self {
        PcState {
            pc,
            reads: 0,
            writes: 0,
            instructions: 0,
            transactions: 0,
            partial_lane_instructions: 0,
            lo: u64::MAX,
            hi: 0,
            warps: BTreeMap::new(),
            fsms: Vec::new(),
            last: None,
        }
    }
}

/// The streaming classifier: one bounded `PcState` per tracked PC.
///
/// Every ordered map it keeps sits behind a cache of the last key it
/// looked up (PC, warp, and per PC the warp), so the runs a warp-major
/// drain produces — one warp's instructions back to back, often at one
/// PC — touch no map after their first instruction.
#[derive(Debug)]
pub struct OnlineClassifier {
    cfg: ClassifierConfig,
    /// Tracked PCs in first-seen order; `pc_slots` maps a PC to its slot.
    pcs: Vec<PcState>,
    pc_slots: BTreeMap<u64, usize>,
    /// The last PC observed and its slot (`None`: beyond `max_pcs`, which
    /// stays so — the tracked set only grows).
    last_pc: Option<(u64, Option<usize>)>,
    /// Instructions at PCs beyond the `max_pcs` bound (counted, not
    /// classified).
    untracked_instructions: u64,
    active_warps: BTreeSet<u32>,
    /// The last warp inserted into `active_warps`.
    last_warp: Option<u32>,
}

impl OnlineClassifier {
    /// A classifier with the given bounds.
    pub fn new(cfg: ClassifierConfig) -> Self {
        OnlineClassifier {
            cfg,
            pcs: Vec::new(),
            pc_slots: BTreeMap::new(),
            last_pc: None,
            untracked_instructions: 0,
            active_warps: BTreeSet::new(),
            last_warp: None,
        }
    }

    /// The slot of `pc`, tracking it if the bound allows.
    fn pc_slot(&mut self, pc: u64) -> Option<usize> {
        if let Some((last, slot)) = self.last_pc {
            if last == pc {
                return slot;
            }
        }
        let tracked = self.pcs.len();
        let slot = match self.pc_slots.entry(pc) {
            Entry::Occupied(e) => Some(*e.get()),
            Entry::Vacant(e) if tracked < self.cfg.max_pcs => {
                e.insert(tracked);
                self.pcs.push(PcState::new(pc));
                Some(tracked)
            }
            Entry::Vacant(_) => None,
        };
        self.last_pc = Some((pc, slot));
        slot
    }

    /// Feeds one warp-level instruction: `lines` are its coalesced line
    /// addresses, `participants` the lanes that executed it, `live` the
    /// lanes the warp has under the launch geometry.
    pub fn observe(
        &mut self,
        warp: u32,
        pc: u64,
        is_write: bool,
        lines: &[ByteAddr],
        participants: u32,
        live: u32,
    ) {
        if self.last_warp != Some(warp) {
            self.active_warps.insert(warp);
            self.last_warp = Some(warp);
        }
        let Some(slot) = self.pc_slot(pc) else {
            self.untracked_instructions += 1;
            return;
        };
        let st = &mut self.pcs[slot];
        if is_write {
            st.writes += 1;
        } else {
            st.reads += 1;
        }
        st.instructions += 1;
        st.transactions += lines.len() as u64;
        if participants < live {
            st.partial_lane_instructions += 1;
        }
        for l in lines {
            st.lo = st.lo.min(l.0);
            st.hi = st.hi.max(l.0);
        }
        let mut fsm = match st.last {
            Some((w, fsm)) if w == warp => fsm,
            _ => *st.warps.entry(warp).or_insert(None),
        };
        // Pattern state rides the per-warp stream: the first coalesced
        // line of each instruction is the warp's representative address
        // (per-lane detail is already folded by coalescing).
        if let Some(first) = lines.first() {
            if fsm.is_none() && st.fsms.len() < self.cfg.max_warp_fsms {
                fsm = Some(st.fsms.len());
                st.fsms.push(PatternFsm::new(self.cfg.indirect_max_span));
                st.warps.insert(warp, fsm);
            }
            if let Some(f) = fsm {
                st.fsms[f].observe(first.0);
            }
        }
        st.last = Some((warp, fsm));
    }

    /// Number of PCs currently tracked.
    pub fn tracked_pcs(&self) -> usize {
        self.pcs.len()
    }

    /// Instructions observed at PCs beyond the tracking bound.
    pub fn untracked_instructions(&self) -> u64 {
        self.untracked_instructions
    }

    /// Final verdicts, ordered by descending transaction count then PC —
    /// the hottest instructions first.
    pub fn finish(self) -> Vec<PcSummary> {
        let total_warps = self.active_warps.len() as u64;
        let mut out: Vec<PcSummary> = self
            .pcs
            .into_iter()
            .map(|st| {
                // The PC's verdict is the weakest across its warps: one
                // irregular warp makes the instruction irregular. Ties go
                // to the highest warp id.
                let worst = st
                    .warps
                    .values()
                    .filter_map(|f| f.map(|f| &st.fsms[f]))
                    .max_by_key(|f| f.class().rank());
                let class = worst.map_or(PatternClass::Unknown, |f| f.class());
                let affine = matches!(class, PatternClass::Linear | PatternClass::Quadric);
                let stride = worst.and_then(|f| affine.then(|| f.stride()));
                let (inner_len, outer_stride) = worst
                    .filter(|_| class == PatternClass::Quadric)
                    .map_or((None, None), |f| {
                        let (ni, sj) = f.quadric();
                        (Some(ni), Some(sj))
                    });
                let kind = match (st.reads > 0, st.writes > 0) {
                    (true, true) => "RW",
                    (false, true) => "W",
                    _ => "R",
                };
                PcSummary {
                    pc: st.pc,
                    kind: kind.to_string(),
                    class,
                    stride,
                    inner_len,
                    outer_stride,
                    instructions: st.instructions,
                    transactions: st.transactions,
                    warps: st.warps.len() as u64,
                    conditional: st.partial_lane_instructions > 0
                        || (st.warps.len() as u64) < total_warps,
                    partial_lane_instructions: st.partial_lane_instructions,
                    min_addr: st.lo,
                    max_addr: st.hi,
                }
            })
            .collect();
        out.sort_by(|a, b| b.transactions.cmp(&a.transactions).then(a.pc.cmp(&b.pc)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(addrs: impl IntoIterator<Item = u64>) -> PatternFsm {
        let mut f = PatternFsm::new(ClassifierConfig::default().indirect_max_span);
        for a in addrs {
            f.observe(a);
        }
        f
    }

    #[test]
    fn constant_stream() {
        let f = feed(std::iter::repeat_n(0x8000, 50));
        assert_eq!(f.class(), PatternClass::Constant);
    }

    #[test]
    fn linear_stream_and_stride() {
        let f = feed((0..100).map(|i| 0x1000 + i * 128));
        assert_eq!(f.class(), PatternClass::Linear);
        assert_eq!(f.stride(), 128);
    }

    #[test]
    fn negative_stride_is_linear() {
        let f = feed((0..50).map(|i| 0x100_0000 - i * 64));
        assert_eq!(f.class(), PatternClass::Linear);
        assert_eq!(f.stride(), -64);
    }

    #[test]
    fn quadric_stream() {
        // for j in 0..8 { for i in 0..16 { touch(base + j*0x10000 + i*128) } }
        let addrs = (0..8u64).flat_map(|j| (0..16u64).map(move |i| 0x2000 + j * 0x10000 + i * 128));
        let f = feed(addrs);
        assert_eq!(f.class(), PatternClass::Quadric);
        assert_eq!(f.stride(), 128);
        assert_eq!(f.quadric(), (16, 0x10000));
    }

    #[test]
    fn bounded_gather_is_indirect() {
        // Pseudo-random within a 256 KiB array.
        let mut x = 12345u64;
        let addrs = (0..200).map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            0x10_0000 + (x % (256 * 1024 / 8)) * 8
        });
        let f = feed(addrs.collect::<Vec<_>>());
        assert_eq!(f.class(), PatternClass::Indirect);
    }

    #[test]
    fn unbounded_drift_is_random() {
        let mut x = 99u64;
        let addrs = (0..200).map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x % (1 << 40)
        });
        let f = feed(addrs.collect::<Vec<_>>());
        assert_eq!(f.class(), PatternClass::Random);
    }

    #[test]
    fn conditional_flagged_on_partial_participation() {
        let mut c = OnlineClassifier::new(ClassifierConfig::default());
        c.observe(0, 0x10, false, &[ByteAddr(0x1000)], 32, 32);
        c.observe(0, 0x20, false, &[ByteAddr(0x2000)], 8, 32);
        let out = c.finish();
        let by_pc = |pc| out.iter().find(|s| s.pc == pc).expect("tracked");
        assert!(!by_pc(0x10).conditional);
        assert!(by_pc(0x20).conditional);
    }

    #[test]
    fn conditional_flagged_on_missing_warps() {
        let mut c = OnlineClassifier::new(ClassifierConfig::default());
        for w in 0..4 {
            c.observe(
                w,
                0x10,
                false,
                &[ByteAddr(0x1000 + u64::from(w) * 128)],
                32,
                32,
            );
        }
        c.observe(0, 0x20, false, &[ByteAddr(0x9000)], 32, 32);
        let out = c.finish();
        let by_pc = |pc: u64| out.iter().find(|s| s.pc == pc).expect("tracked");
        assert!(!by_pc(0x10).conditional, "all warps executed 0x10");
        assert!(by_pc(0x20).conditional, "only warp 0 executed 0x20");
    }

    #[test]
    fn pc_bound_is_enforced() {
        let mut c = OnlineClassifier::new(ClassifierConfig {
            max_pcs: 4,
            ..ClassifierConfig::default()
        });
        for pc in 0..100u64 {
            c.observe(0, pc, false, &[ByteAddr(0x1000)], 32, 32);
        }
        assert_eq!(c.tracked_pcs(), 4);
    }
}
