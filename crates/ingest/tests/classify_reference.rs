//! The online classifier's and the heat map's bookkeeping before they
//! kept an index cache in front of every ordered map: the references the
//! cached bookkeeping is diffed against, on instruction sequences with
//! runs and repeats, under bounds small enough to bite.

use gmap_ingest::report::{ARRAY_GAP_PAGES, HEAT_CELLS};
use gmap_ingest::{
    AdaptiveHeat, ClassifierConfig, OnlineClassifier, PatternClass, PatternFsm, PcSummary,
};
use gmap_trace::record::ByteAddr;
use proptest::prelude::*;
use std::collections::btree_map::{BTreeMap, Entry};

#[derive(Debug)]
struct PcState {
    reads: u64,
    writes: u64,
    instructions: u64,
    transactions: u64,
    partial_lane_instructions: u64,
    lo: u64,
    hi: u64,
    warps: std::collections::BTreeSet<u32>,
    fsms: BTreeMap<u32, PatternFsm>,
}

impl PcState {
    fn new() -> Self {
        PcState {
            reads: 0,
            writes: 0,
            instructions: 0,
            transactions: 0,
            partial_lane_instructions: 0,
            lo: u64::MAX,
            hi: 0,
            warps: std::collections::BTreeSet::new(),
            fsms: BTreeMap::new(),
        }
    }
}

/// The replaced `OnlineClassifier`.
struct ReferenceClassifier {
    cfg: ClassifierConfig,
    pcs: BTreeMap<u64, PcState>,
    /// Instructions at PCs beyond the `max_pcs` bound (counted, not
    /// classified).
    untracked_instructions: u64,
    active_warps: std::collections::BTreeSet<u32>,
}

impl ReferenceClassifier {
    fn new(cfg: ClassifierConfig) -> Self {
        ReferenceClassifier {
            cfg,
            pcs: BTreeMap::new(),
            untracked_instructions: 0,
            active_warps: std::collections::BTreeSet::new(),
        }
    }

    /// Feeds one warp-level instruction: `lines` are its coalesced line
    /// addresses, `participants` the lanes that executed it, `live` the
    /// lanes the warp has under the launch geometry.
    fn observe(
        &mut self,
        warp: u32,
        pc: u64,
        is_write: bool,
        lines: &[ByteAddr],
        participants: u32,
        live: u32,
    ) {
        self.active_warps.insert(warp);
        let tracked = self.pcs.len();
        let st = match self.pcs.entry(pc) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) if tracked < self.cfg.max_pcs => e.insert(PcState::new()),
            Entry::Vacant(_) => {
                self.untracked_instructions += 1;
                return;
            }
        };
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
        st.warps.insert(warp);
        for l in lines {
            st.lo = st.lo.min(l.0);
            st.hi = st.hi.max(l.0);
        }
        // Pattern state rides the per-warp stream: the first coalesced
        // line of each instruction is the warp's representative address
        // (per-lane detail is already folded by coalescing).
        if let Some(first) = lines.first() {
            let fsms = st.fsms.len();
            let fsm = match st.fsms.entry(warp) {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(e) if fsms < self.cfg.max_warp_fsms => {
                    e.insert(PatternFsm::new(self.cfg.indirect_max_span))
                }
                Entry::Vacant(_) => return,
            };
            fsm.observe(first.0);
        }
    }

    /// Final verdicts, ordered by descending transaction count then PC —
    /// the hottest instructions first.
    fn finish(self) -> Vec<PcSummary> {
        let total_warps = self.active_warps.len() as u64;
        let mut out: Vec<PcSummary> = self
            .pcs
            .into_iter()
            .map(|(pc, st)| {
                // The PC's verdict is the weakest across its warps: one
                // irregular warp makes the instruction irregular.
                let worst = st.fsms.values().max_by_key(|f| f.class().rank()).cloned();
                let class = worst.as_ref().map_or(PatternClass::Unknown, |f| f.class());
                let affine = matches!(class, PatternClass::Linear | PatternClass::Quadric);
                let stride = worst.as_ref().and_then(|f| affine.then(|| f.stride()));
                let (inner_len, outer_stride) = worst
                    .as_ref()
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
                    pc,
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

/// The replaced `AdaptiveHeat`.
struct ReferenceHeat {
    page_shift: u32,
    max_pages: usize,
    pages: BTreeMap<u64, u64>,
}

impl ReferenceHeat {
    /// A histogram starting at `1 << page_shift`-byte pages, holding at
    /// most `max_pages` distinct pages before coarsening.
    fn new(page_shift: u32, max_pages: usize) -> Self {
        ReferenceHeat {
            page_shift,
            max_pages: max_pages.max(2),
            pages: BTreeMap::new(),
        }
    }

    /// Records `count` accesses to the page containing `addr`.
    fn observe(&mut self, addr: u64, count: u64) {
        *self.pages.entry(addr >> self.page_shift).or_insert(0) += count;
        while self.pages.len() > self.max_pages {
            self.coarsen();
        }
    }

    fn coarsen(&mut self) {
        self.page_shift += 1;
        let old = std::mem::take(&mut self.pages);
        for (page, count) in old {
            *self.pages.entry(page >> 1).or_insert(0) += count;
        }
    }

    /// Current page size in bytes.
    fn page_bytes(&self) -> u64 {
        1 << self.page_shift
    }

    /// Distinct pages currently held.
    fn len(&self) -> usize {
        self.pages.len()
    }

    /// True when nothing was observed.
    fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Total recorded accesses.
    fn total(&self) -> u64 {
        self.pages.values().sum()
    }

    /// Sums counts over the byte range `[lo, hi)`.
    fn range_total(&self, lo: u64, hi: u64) -> u64 {
        if hi <= lo {
            return 0;
        }
        let first = lo >> self.page_shift;
        let last = (hi - 1) >> self.page_shift;
        self.pages.range(first..=last).map(|(_, &c)| c).sum()
    }

    /// Splits touched pages into maximal runs separated by more than
    /// [`ARRAY_GAP_PAGES`] empty pages; returns `(base, end)` byte ranges.
    fn segments(&self) -> Vec<(u64, u64)> {
        let mut out: Vec<(u64, u64)> = Vec::new();
        for &page in self.pages.keys() {
            match out.last_mut() {
                Some((_, end))
                    if page.saturating_sub(*end >> self.page_shift) <= ARRAY_GAP_PAGES =>
                {
                    *end = (page + 1) << self.page_shift;
                }
                _ => out.push((page << self.page_shift, (page + 1) << self.page_shift)),
            }
        }
        out
    }

    /// Bins the range `[base, end)` into `cells` equal buckets of summed
    /// counts.
    fn bins(&self, base: u64, end: u64, cells: usize) -> Vec<u64> {
        let cells = cells.max(1);
        let mut out = vec![0u64; cells];
        if end <= base {
            return out;
        }
        let width = end - base;
        for (&page, &count) in self.pages.range(base >> self.page_shift..) {
            let addr = page << self.page_shift;
            if addr >= end {
                break;
            }
            let cell = ((addr - base) as u128 * cells as u128 / width as u128) as usize;
            out[cell.min(cells - 1)] += count;
        }
        out
    }
}

/// One warp-level instruction: `(warp, pc, is_write, lines,
/// participants)`.
type Instr = (u32, u64, bool, Vec<ByteAddr>, u32);

/// Instructions from `codes`: each code is a run of 1–8 instructions of
/// one warp (of 6) at one PC (of 6), stepping by one of four strides from
/// a base among 64 pages spread 64 KiB apart, with 0–3 lines and full or
/// partial participation — so warps and PCs repeat in runs and
/// interleave between them, and affine, nested and irregular walks all
/// occur.
fn decode(codes: &[u64]) -> Vec<Instr> {
    let mut out = Vec::new();
    for &code in codes {
        let run = 1 + code % 8;
        let warp = (code >> 3) as u32 % 6;
        let pc = 0x10 + (code >> 6) % 6 * 8;
        let is_write = code >> 9 & 1 == 1;
        let width = (code >> 10) % 4;
        let participants = if code >> 12 & 3 == 0 { 7 } else { 32 };
        let stride = [0, 128, 4096, 0x9000][((code >> 14) % 4) as usize];
        let base = ((code >> 16) % 64) << 16;
        for i in 0..run {
            let first = base + i * stride + (code >> 22) % 2 * (i * i) * 128;
            let lines = (0..width).map(|k| ByteAddr(first + k * 128)).collect();
            out.push((warp, pc, is_write, lines, participants));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The cached classifier must return the reference's verdicts, with
    /// `max_pcs` and `max_warp_fsms` down to 1 so both bounds bite.
    #[test]
    fn cached_classifier_matches_reference(
        codes in proptest::collection::vec(any::<u64>(), 0..=60),
        max_pcs in 1usize..=8,
        max_warp_fsms in 1usize..=8,
        span_shift in 12u32..=24,
    ) {
        let cfg = ClassifierConfig {
            max_pcs,
            max_warp_fsms,
            indirect_max_span: 1 << span_shift,
        };
        let mut got = OnlineClassifier::new(cfg.clone());
        let mut want = ReferenceClassifier::new(cfg);
        for (warp, pc, is_write, lines, participants) in decode(&codes) {
            got.observe(warp, pc, is_write, &lines, participants, 32);
            want.observe(warp, pc, is_write, &lines, participants, 32);
        }
        prop_assert_eq!(got.tracked_pcs(), want.pcs.len());
        prop_assert_eq!(got.untracked_instructions(), want.untracked_instructions);
        prop_assert_eq!(got.finish(), want.finish());
    }

    /// The cached heat map must hold what the reference holds, with a
    /// page budget of 2–16 over up to 64 pages, so it coarsens.
    #[test]
    fn cached_heat_matches_reference(
        codes in proptest::collection::vec(any::<u64>(), 0..=60),
        max_pages in 2usize..=16,
    ) {
        let mut got = AdaptiveHeat::new(12, max_pages);
        let mut want = ReferenceHeat::new(12, max_pages);
        for (_, _, _, lines, participants) in decode(&codes) {
            for l in &lines {
                got.observe(l.0, u64::from(participants));
                want.observe(l.0, u64::from(participants));
            }
        }
        prop_assert_eq!(got.page_bytes(), want.page_bytes());
        prop_assert_eq!(got.len(), want.len());
        prop_assert_eq!(got.is_empty(), want.is_empty());
        prop_assert_eq!(got.total(), want.total());
        let segments = got.segments();
        prop_assert_eq!(&segments, &want.segments());
        for &(base, end) in &segments {
            prop_assert_eq!(got.range_total(base, end), want.range_total(base, end));
            prop_assert_eq!(got.bins(base, end, HEAT_CELLS), want.bins(base, end, HEAT_CELLS));
        }
    }
}
