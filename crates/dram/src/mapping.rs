//! Physical address decomposition.
//!
//! The Figure 7 sweep varies the "DRAM addressing scheme — RoBaRaCoCh or
//! ChRaBaRoCo" (Ramulator's two stock mappings, named most-significant
//! field first). The mapping decides which bits select the channel, rank,
//! bank, row and column — and therefore how much row-buffer locality and
//! channel parallelism a given access stream exhibits.

use gmap_trace::batch::{KernelMode, LANES};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Bit-field mapping scheme, named most-significant-first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AddressMapping {
    /// Row : Bank : Rank : Column : Channel (channel in the lowest bits —
    /// consecutive lines alternate channels; rows span all channels).
    RoBaRaCoCh,
    /// Channel : Rank : Bank : Row : Column (column in the lowest bits —
    /// consecutive lines share a row; channels split the address space).
    ChRaBaRoCo,
}

impl fmt::Display for AddressMapping {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AddressMapping::RoBaRaCoCh => f.write_str("RoBaRaCoCh"),
            AddressMapping::ChRaBaRoCo => f.write_str("ChRaBaRoCo"),
        }
    }
}

/// DRAM organization (all counts are powers of two).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DramGeometry {
    /// Independent channels.
    pub channels: u32,
    /// Ranks per channel.
    pub ranks: u32,
    /// Banks per rank.
    pub banks: u32,
    /// Bank groups per rank (1 = no bank-group timing; GDDR5 pairs its
    /// 4 groups with [`crate::DramTiming::t_ccd_l`]).
    pub bank_groups: u32,
    /// Columns per row, where one column is one 128-byte request.
    pub columns: u32,
    /// Data bus width in bytes (feeds the timing model).
    pub bus_width_bytes: u32,
}

impl DramGeometry {
    /// The Table 2 baseline: 8 channels, 1 rank, 8 banks, 32 columns
    /// (4 KiB rows) and an 8-byte (64-bit) data bus per channel.
    pub fn table2_baseline() -> Self {
        DramGeometry {
            channels: 8,
            ranks: 1,
            banks: 8,
            bank_groups: 1,
            columns: 32,
            bus_width_bytes: 8,
        }
    }

    /// Validates that every count is a non-zero power of two.
    ///
    /// # Panics
    ///
    /// Panics on an invalid geometry (construction sites are static
    /// experiment tables, so this is a programming error).
    pub fn assert_valid(&self) {
        for (name, v) in [
            ("channels", self.channels),
            ("ranks", self.ranks),
            ("banks", self.banks),
            ("bank_groups", self.bank_groups),
            ("columns", self.columns),
            ("bus_width_bytes", self.bus_width_bytes),
        ] {
            assert!(
                v != 0 && v.is_power_of_two(),
                "{name} = {v} must be a non-zero power of two"
            );
        }
        assert!(
            self.bank_groups <= self.banks,
            "bank_groups {} cannot exceed banks {}",
            self.bank_groups,
            self.banks
        );
    }

    /// The bank group of a flat (rank-local) bank index.
    pub fn group_of_bank(&self, bank: u32) -> u32 {
        bank % self.bank_groups
    }
}

impl Default for DramGeometry {
    fn default() -> Self {
        DramGeometry::table2_baseline()
    }
}

/// A decomposed DRAM coordinate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DramLoc {
    /// Channel index.
    pub channel: u32,
    /// Rank index within the channel.
    pub rank: u32,
    /// Bank index within the rank.
    pub bank: u32,
    /// Row index within the bank.
    pub row: u64,
    /// Column index within the row.
    pub column: u32,
}

impl DramLoc {
    /// Flat bank index within the channel (`rank * banks + bank`).
    pub fn flat_bank(&self, geom: &DramGeometry) -> usize {
        (self.rank * geom.banks + self.bank) as usize
    }
}

/// Decomposes a byte address into DRAM coordinates.
///
/// The low 7 bits (the 128-byte request payload) are dropped first; the
/// remaining bits are consumed least-significant-field-first according to
/// the mapping name read right-to-left.
pub fn decompose(addr: u64, geom: &DramGeometry, mapping: AddressMapping) -> DramLoc {
    fn take(bits: &mut u64, count: u32) -> u64 {
        let width = count.trailing_zeros();
        let v = *bits & ((1 << width) - 1);
        *bits >>= width;
        v
    }
    let mut bits = addr >> 7; // 128 B request granularity
    match mapping {
        AddressMapping::RoBaRaCoCh => {
            let channel = take(&mut bits, geom.channels) as u32;
            let column = take(&mut bits, geom.columns) as u32;
            let rank = take(&mut bits, geom.ranks) as u32;
            let bank = take(&mut bits, geom.banks) as u32;
            let row = bits;
            DramLoc {
                channel,
                rank,
                bank,
                row,
                column,
            }
        }
        AddressMapping::ChRaBaRoCo => {
            let column = take(&mut bits, geom.columns) as u32;
            // Rows get the middle bits; cap to keep channel bits meaningful
            // for any realistic trace (20 row bits = 4 GiB per bank stack).
            let row = bits & ((1 << 20) - 1);
            bits >>= 20;
            let bank = take(&mut bits, geom.banks) as u32;
            let rank = take(&mut bits, geom.ranks) as u32;
            let channel = take(&mut bits, geom.channels) as u32;
            DramLoc {
                channel,
                rank,
                bank,
                row,
                column,
            }
        }
    }
}

/// Precompiled address-decomposition plan: one `(shift, mask)` pair per
/// coordinate.
///
/// [`decompose`] re-derives field widths (`trailing_zeros` per field) and
/// branches on the mapping for every call; on the DRAM front-end that is
/// five data-independent recomputations per request. A plan folds the
/// geometry and mapping into constants once, so [`MappingPlan::decompose`]
/// is five shift-and-mask pairs with no branches — and
/// [`MappingPlan::decompose_batch`] runs them 8 lanes at a time.
///
/// A plan always agrees bit-for-bit with [`decompose`] for the geometry
/// and mapping it was built from (see the differential proptests in the
/// tier-1 suite).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MappingPlan {
    ch_shift: u32,
    ch_mask: u64,
    col_shift: u32,
    col_mask: u64,
    rank_shift: u32,
    rank_mask: u64,
    bank_shift: u32,
    bank_mask: u64,
    row_shift: u32,
    row_mask: u64,
}

impl MappingPlan {
    /// Compiles the `(geometry, mapping)` pair into shift/mask constants.
    pub fn new(geom: &DramGeometry, mapping: AddressMapping) -> Self {
        let cw = geom.channels.trailing_zeros();
        let colw = geom.columns.trailing_zeros();
        let rw = geom.ranks.trailing_zeros();
        let bw = geom.banks.trailing_zeros();
        let ch_mask = u64::from(geom.channels - 1);
        let col_mask = u64::from(geom.columns - 1);
        let rank_mask = u64::from(geom.ranks - 1);
        let bank_mask = u64::from(geom.banks - 1);
        match mapping {
            AddressMapping::RoBaRaCoCh => {
                let ch_shift = 7;
                let col_shift = ch_shift + cw;
                let rank_shift = col_shift + colw;
                let bank_shift = rank_shift + rw;
                let row_shift = bank_shift + bw;
                MappingPlan {
                    ch_shift,
                    ch_mask,
                    col_shift,
                    col_mask,
                    rank_shift,
                    rank_mask,
                    bank_shift,
                    bank_mask,
                    row_shift,
                    // The row takes every remaining bit, exactly as the
                    // field-consuming reference leaves them.
                    row_mask: u64::MAX,
                }
            }
            AddressMapping::ChRaBaRoCo => {
                let col_shift = 7;
                let row_shift = col_shift + colw;
                let bank_shift = row_shift + 20;
                let rank_shift = bank_shift + bw;
                let ch_shift = rank_shift + rw;
                MappingPlan {
                    ch_shift,
                    ch_mask,
                    col_shift,
                    col_mask,
                    rank_shift,
                    rank_mask,
                    bank_shift,
                    bank_mask,
                    row_shift,
                    // Rows are capped at 20 bits under ChRaBaRoCo (see
                    // `decompose`).
                    row_mask: (1 << 20) - 1,
                }
            }
        }
    }

    /// Decomposes one byte address: five shift-and-mask pairs, no
    /// branches, no per-call width derivation.
    #[inline]
    pub fn decompose(&self, addr: u64) -> DramLoc {
        DramLoc {
            channel: ((addr >> self.ch_shift) & self.ch_mask) as u32,
            rank: ((addr >> self.rank_shift) & self.rank_mask) as u32,
            bank: ((addr >> self.bank_shift) & self.bank_mask) as u32,
            row: (addr >> self.row_shift) & self.row_mask,
            column: ((addr >> self.col_shift) & self.col_mask) as u32,
        }
    }

    /// Decomposes a batch of byte addresses into `out` (cleared first),
    /// dispatching on `mode`. Both paths produce identical coordinates.
    pub fn decompose_batch(&self, addrs: &[u64], mode: KernelMode, out: &mut Vec<DramLoc>) {
        out.clear();
        out.reserve(addrs.len());
        match mode {
            KernelMode::Scalar => {
                for &a in addrs {
                    out.push(self.decompose(a));
                }
            }
            KernelMode::Batched => {
                // 8 lanes per chunk; each lane is an independent
                // shift/mask gather, so the chunk body has no
                // cross-lane dependency and no branch.
                let mut chunks = addrs.chunks_exact(LANES);
                for c in &mut chunks {
                    out.extend_from_slice(&[
                        self.decompose(c[0]),
                        self.decompose(c[1]),
                        self.decompose(c[2]),
                        self.decompose(c[3]),
                        self.decompose(c[4]),
                        self.decompose(c[5]),
                        self.decompose(c[6]),
                        self.decompose(c[7]),
                    ]);
                }
                for &a in chunks.remainder() {
                    out.push(self.decompose(a));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_validates() {
        let g = DramGeometry::table2_baseline();
        g.assert_valid();
        assert_eq!(g.channels * g.ranks * g.banks, 64);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_panics() {
        DramGeometry {
            channels: 3,
            ranks: 1,
            banks: 8,
            bank_groups: 1,
            columns: 32,
            bus_width_bytes: 8,
        }
        .assert_valid();
    }

    #[test]
    fn robaracoch_interleaves_channels_on_consecutive_lines() {
        let g = DramGeometry::table2_baseline();
        let a = decompose(0, &g, AddressMapping::RoBaRaCoCh);
        let b = decompose(128, &g, AddressMapping::RoBaRaCoCh);
        assert_eq!(a.channel, 0);
        assert_eq!(b.channel, 1);
        assert_eq!(a.row, b.row);
    }

    #[test]
    fn chrabaroco_keeps_consecutive_lines_in_one_row() {
        let g = DramGeometry::table2_baseline();
        let a = decompose(0, &g, AddressMapping::ChRaBaRoCo);
        let b = decompose(128, &g, AddressMapping::ChRaBaRoCo);
        assert_eq!(a.channel, b.channel);
        assert_eq!(a.row, b.row);
        assert_eq!(b.column, a.column + 1);
    }

    #[test]
    fn decomposition_stays_in_bounds() {
        let g = DramGeometry {
            channels: 4,
            ranks: 2,
            banks: 8,
            bank_groups: 2,
            columns: 64,
            bus_width_bytes: 8,
        };
        for mapping in [AddressMapping::RoBaRaCoCh, AddressMapping::ChRaBaRoCo] {
            for i in 0..10_000u64 {
                let loc = decompose(i * 333 * 128, &g, mapping);
                assert!(loc.channel < g.channels);
                assert!(loc.rank < g.ranks);
                assert!(loc.bank < g.banks);
                assert!(loc.column < g.columns);
                assert!(loc.flat_bank(&g) < (g.ranks * g.banks) as usize);
            }
        }
    }

    #[test]
    fn row_crossing_in_robaracoch() {
        let g = DramGeometry::table2_baseline();
        // One row spans channels*columns*128 bytes under RoBaRaCoCh...
        // crossing that many bytes with same bank/rank bits increments row.
        let row_span = (g.channels * g.columns * g.ranks * g.banks) as u64 * 128;
        let a = decompose(0, &g, AddressMapping::RoBaRaCoCh);
        let b = decompose(row_span, &g, AddressMapping::RoBaRaCoCh);
        assert_eq!(b.row, a.row + 1);
    }

    #[test]
    fn plan_matches_reference_decompose() {
        let geoms = [
            DramGeometry::table2_baseline(),
            DramGeometry {
                channels: 4,
                ranks: 2,
                banks: 16,
                bank_groups: 4,
                columns: 64,
                bus_width_bytes: 8,
            },
            DramGeometry {
                channels: 1,
                ranks: 1,
                banks: 1,
                bank_groups: 1,
                columns: 1,
                bus_width_bytes: 4,
            },
        ];
        for g in &geoms {
            for mapping in [AddressMapping::RoBaRaCoCh, AddressMapping::ChRaBaRoCo] {
                let plan = MappingPlan::new(g, mapping);
                for i in 0..4096u64 {
                    let addr = i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 16;
                    assert_eq!(
                        plan.decompose(addr),
                        decompose(addr, g, mapping),
                        "addr={addr:#x} geom={g:?} mapping={mapping}"
                    );
                }
            }
        }
    }

    #[test]
    fn batch_decompose_kernels_agree_for_all_tail_lengths() {
        let g = DramGeometry::table2_baseline();
        let plan = MappingPlan::new(&g, AddressMapping::RoBaRaCoCh);
        for n in 0..(2 * LANES + 1) {
            let addrs: Vec<u64> = (0..n as u64).map(|i| i * 333 * 128).collect();
            let mut scalar = Vec::new();
            let mut batched = Vec::new();
            plan.decompose_batch(&addrs, KernelMode::Scalar, &mut scalar);
            plan.decompose_batch(&addrs, KernelMode::Batched, &mut batched);
            assert_eq!(scalar, batched, "n={n}");
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(AddressMapping::RoBaRaCoCh.to_string(), "RoBaRaCoCh");
        assert_eq!(AddressMapping::ChRaBaRoCo.to_string(), "ChRaBaRoCo");
    }
}
