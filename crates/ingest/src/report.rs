//! CUTHERMO-style per-array / per-PC heat-map reporting.
//!
//! The ingest pass feeds every coalesced line transaction into an
//! [`AdaptiveHeat`] histogram: page-granular counts that *coarsen
//! themselves* (double the page size, merge adjacent buckets) whenever the
//! number of distinct pages would exceed a bound — so the histogram's
//! memory is constant in trace length and footprint, and the result is
//! deterministic (coarsening depends only on the access set, never on
//! timing or hash order).
//!
//! At finish time the global histogram is segmented into **arrays**:
//! maximal runs of touched pages separated by gaps of more than
//! [`ARRAY_GAP_PAGES`] pages — the address-space clusters a programmer
//! would recognize as buffers. The report renders each array as a fixed
//! 32-cell heat bar (log-scaled glyph ramp), annotated with the per-PC
//! verdicts from the online classifier ([`PcSummary`]).

use crate::classify::PcSummary;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Pages with a gap larger than this merge bound belong to different
/// arrays.
pub const ARRAY_GAP_PAGES: u64 = 8;

/// Cells in a rendered heat bar.
pub const HEAT_CELLS: usize = 32;

/// Glyph ramp for the text heat bar, coldest to hottest.
const RAMP: &[u8] = b" .:-=+*#%@";

/// Initial page size of an ingest pass's heat histogram, as a shift
/// (12 → 4 KiB pages).
pub(crate) const HEAT_PAGE_SHIFT: u32 = 12;

/// Page budget of an ingest pass's heat histogram before it coarsens.
pub(crate) const HEAT_MAX_PAGES: usize = 2048;

/// Page-granular access histogram that coarsens itself to stay within a
/// page budget.
#[derive(Debug, Clone)]
pub struct AdaptiveHeat {
    page_shift: u32,
    max_pages: usize,
    /// Page → its slot in `counts`.
    pages: BTreeMap<u64, usize>,
    counts: Vec<u64>,
    /// The last page observed and its slot: successive lines mostly share
    /// a page, and those pay no map lookup.
    last: Option<(u64, usize)>,
}

impl AdaptiveHeat {
    /// A histogram starting at `1 << page_shift`-byte pages, holding at
    /// most `max_pages` distinct pages before coarsening.
    pub fn new(page_shift: u32, max_pages: usize) -> Self {
        AdaptiveHeat {
            page_shift,
            max_pages: max_pages.max(2),
            pages: BTreeMap::new(),
            counts: Vec::new(),
            last: None,
        }
    }

    /// Records `count` accesses to the page containing `addr`.
    pub fn observe(&mut self, addr: u64, count: u64) {
        let page = addr >> self.page_shift;
        if let Some((last, slot)) = self.last {
            if last == page {
                self.counts[slot] += count;
                return;
            }
        }
        let fresh = self.counts.len();
        let slot = *self.pages.entry(page).or_insert(fresh);
        if slot == fresh {
            self.counts.push(0);
        }
        self.counts[slot] += count;
        self.last = Some((page, slot));
        while self.pages.len() > self.max_pages {
            self.coarsen();
        }
    }

    fn coarsen(&mut self) {
        self.page_shift += 1;
        let old = std::mem::take(&mut self.pages);
        let counts = std::mem::take(&mut self.counts);
        for (page, slot) in old {
            let fresh = self.counts.len();
            let merged = *self.pages.entry(page >> 1).or_insert(fresh);
            if merged == fresh {
                self.counts.push(0);
            }
            self.counts[merged] += counts[slot];
        }
        self.last = None;
    }

    /// Current page size in bytes.
    pub fn page_bytes(&self) -> u64 {
        1 << self.page_shift
    }

    /// Distinct pages currently held.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// True when nothing was observed.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Total recorded accesses.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Sums counts over the byte range `[lo, hi)`.
    pub fn range_total(&self, lo: u64, hi: u64) -> u64 {
        if hi <= lo {
            return 0;
        }
        let first = lo >> self.page_shift;
        let last = (hi - 1) >> self.page_shift;
        self.pages
            .range(first..=last)
            .map(|(_, &slot)| self.counts[slot])
            .sum()
    }

    /// Splits touched pages into maximal runs separated by more than
    /// [`ARRAY_GAP_PAGES`] empty pages; returns `(base, end)` byte ranges.
    pub fn segments(&self) -> Vec<(u64, u64)> {
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
    pub fn bins(&self, base: u64, end: u64, cells: usize) -> Vec<u64> {
        let cells = cells.max(1);
        let mut out = vec![0u64; cells];
        if end <= base {
            return out;
        }
        let width = end - base;
        for (&page, &slot) in self.pages.range(base >> self.page_shift..) {
            let addr = page << self.page_shift;
            if addr >= end {
                break;
            }
            let cell = ((addr - base) as u128 * cells as u128 / width as u128) as usize;
            out[cell.min(cells - 1)] += self.counts[slot];
        }
        out
    }
}

/// One detected address-space cluster ("array") with its heat profile.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArraySummary {
    /// Array index in ascending base order (`A0`, `A1`, ...).
    pub index: usize,
    /// First byte of the array (page-aligned).
    pub base: u64,
    /// One past the last byte (page-aligned).
    pub end: u64,
    /// Line transactions that landed in the array.
    pub accesses: u64,
    /// Fixed-width heat bins across `[base, end)`.
    pub heat: Vec<u64>,
    /// PCs (by address) whose footprint intersects the array.
    pub pcs: Vec<u64>,
}

/// The full ingest report: global statistics, detected arrays, and
/// per-PC classifier verdicts.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceReport {
    /// Workload name the trace was ingested under.
    pub name: String,
    /// On-disk format (`"text"`/`"binary"`).
    pub format: String,
    /// Raw bytes consumed.
    pub bytes: u64,
    /// Per-thread entries parsed.
    pub entries: u64,
    /// Entries outside the launch geometry (ignored).
    pub skipped: u64,
    /// Warps that issued at least one access.
    pub warps: u64,
    /// Warp-level dynamic instructions reconstructed.
    pub instructions: u64,
    /// Coalesced line transactions.
    pub transactions: u64,
    /// Heat histogram page size after adaptation.
    pub page_bytes: u64,
    /// Detected arrays, ascending by base.
    pub arrays: Vec<ArraySummary>,
    /// Per-PC verdicts, hottest first.
    pub pcs: Vec<PcSummary>,
    /// Instructions at PCs beyond the classifier bound.
    pub untracked_instructions: u64,
}

impl TraceReport {
    /// Compact canonical JSON (key-sorted, stable across runs).
    pub fn to_json(&self) -> String {
        gmap_core::cachekey::canonical_json(self)
    }

    /// Human-readable heat-map report.
    pub fn render_text(&self) -> String {
        let mut s = String::new();
        let _ =
            writeln!(
            s,
            "trace {:?} ({}): {} entries ({} skipped), {} warps, {} instructions, {} transactions",
            self.name, self.format, self.entries, self.skipped, self.warps, self.instructions,
            self.transactions
        );
        let _ = writeln!(
            s,
            "heat page {} B, {} arrays",
            self.page_bytes,
            self.arrays.len()
        );
        for a in &self.arrays {
            let peak = a.heat.iter().copied().max().unwrap_or(0);
            let bar: String = a.heat.iter().map(|&c| glyph(c, peak) as char).collect();
            let _ = writeln!(
                s,
                "A{:<3} {:#012x}..{:#012x} {:>10} B {:>10} acc |{bar}|",
                a.index,
                a.base,
                a.end,
                a.end - a.base,
                a.accesses
            );
        }
        let _ = writeln!(s, "per-PC classification (hottest first):");
        for p in &self.pcs {
            let stride = match (p.stride, p.inner_len, p.outer_stride) {
                (Some(si), Some(ni), Some(sj)) => format!(" stride {si} x{ni} outer {sj}"),
                (Some(si), _, _) => format!(" stride {si}"),
                _ => String::new(),
            };
            let cond = if p.conditional { " COND" } else { "" };
            let _ = writeln!(
                s,
                "  pc {:#06x} {:<2} {:<8}{stride}{cond}  {} instr, {} txn, {} warps, [{:#x}..{:#x}]",
                p.pc,
                p.kind,
                p.class.label(),
                p.instructions,
                p.transactions,
                p.warps,
                p.min_addr,
                p.max_addr
            );
        }
        if self.untracked_instructions > 0 {
            let _ = writeln!(
                s,
                "  (+{} instructions at untracked PCs beyond the classifier bound)",
                self.untracked_instructions
            );
        }
        s
    }
}

fn glyph(count: u64, peak: u64) -> u8 {
    if count == 0 || peak == 0 {
        return RAMP[0];
    }
    // Log-scale the ramp so sparse-but-nonzero cells stay visible.
    let level = ((count as f64).ln_1p() / (peak as f64).ln_1p() * (RAMP.len() - 1) as f64).ceil();
    RAMP[(level as usize).clamp(1, RAMP.len() - 1)]
}

/// Builds the array summaries from the global heat histogram and the
/// per-PC footprints.
pub fn build_arrays(heat: &AdaptiveHeat, pcs: &[PcSummary]) -> Vec<ArraySummary> {
    heat.segments()
        .into_iter()
        .enumerate()
        .map(|(index, (base, end))| ArraySummary {
            index,
            base,
            end,
            accesses: heat.range_total(base, end),
            heat: heat.bins(base, end, HEAT_CELLS),
            pcs: pcs
                .iter()
                .filter(|p| p.min_addr < end && p.max_addr >= base)
                .map(|p| p.pc)
                .collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coarsens_under_page_budget() {
        let mut h = AdaptiveHeat::new(12, 8);
        for i in 0..1000u64 {
            h.observe(i * 4096, 1);
        }
        assert!(h.len() <= 8, "held {} pages", h.len());
        assert_eq!(h.total(), 1000, "coarsening preserves counts");
        assert!(h.page_bytes() > 4096);
    }

    #[test]
    fn segments_split_on_gaps() {
        let mut h = AdaptiveHeat::new(12, 1024);
        h.observe(0x1000, 5);
        h.observe(0x2000, 5);
        // Far away: its own array.
        h.observe(0x100_0000, 7);
        let segs = h.segments();
        assert_eq!(segs.len(), 2);
        assert_eq!(h.range_total(segs[0].0, segs[0].1), 10);
        assert_eq!(h.range_total(segs[1].0, segs[1].1), 7);
    }

    #[test]
    fn bins_cover_the_range() {
        let mut h = AdaptiveHeat::new(12, 1024);
        for i in 0..64u64 {
            h.observe(0x8000 + i * 4096, 2);
        }
        let (base, end) = h.segments()[0];
        let bins = h.bins(base, end, HEAT_CELLS);
        assert_eq!(bins.len(), HEAT_CELLS);
        assert_eq!(bins.iter().sum::<u64>(), 128);
    }

    #[test]
    fn glyph_ramp_is_monotone() {
        let peak = 1000;
        let mut last = 0;
        for c in [0, 1, 10, 100, 1000] {
            let g = RAMP
                .iter()
                .position(|&r| r == glyph(c, peak))
                .expect("in ramp");
            assert!(g >= last, "ramp must not decrease");
            last = g;
        }
    }
}
