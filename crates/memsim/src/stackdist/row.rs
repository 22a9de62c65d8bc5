//! The fixed-width row kernels: find a line among the live slots of a
//! `W`-slot row, and shift a line in at slot 0.
//!
//! [`portable`] is plain Rust and handles every `W`. LLVM does not turn
//! it into whole-row vector code: on 16 slots it splits the compare
//! into scalar, 512- and 256-bit pieces and writes the row back with
//! six stores of four widths. So on x86-64 with AVX-512F and VL — which
//! the workspace's `target-cpu=native` selects on hosts that have them
//! — `avx512` takes `W` = 4, 8 and 16: one `vpcmpeqq` into a mask
//! register per 8 slots, and one `valignq` lane shift, one masked blend
//! and one store per 8 slots. The choice is made at compile time. Both
//! give the same result for every row; `portable` is the kernel on
//! other targets and the oracle the tests diff `avx512` against.

use super::ABSENT;

#[cfg(all(
    target_arch = "x86_64",
    target_feature = "avx512f",
    target_feature = "avx512vl"
))]
pub(super) use avx512::{find, shift_in};
#[cfg(not(all(
    target_arch = "x86_64",
    target_feature = "avx512f",
    target_feature = "avx512vl"
)))]
pub(super) use portable::{find, shift_in};

/// The row kernels in portable Rust, for every `W` up to 16.
pub(super) mod portable {
    use super::ABSENT;

    /// Way-position of `line` among the first `occ` slots of `row`, or
    /// [`ABSENT`]. Slots at `occ` and beyond hold stale lines (or the
    /// zeroes of a fresh row: line 0 is a valid line) and never match.
    #[inline(always)]
    pub fn find<const W: usize>(row: &[u64; W], line: u64, occ: usize) -> usize {
        // Entries are unique, so at most one live bit survives.
        let mut m = 0u32;
        for (slot, &l) in row.iter().enumerate() {
            m |= u32::from(l == line) << slot;
        }
        match m & live_mask(occ) {
            0 => ABSENT,
            m => m.trailing_zeros() as usize,
        }
    }

    /// Writes `line` at slot 0 and shifts slots `0..e` down one; slot
    /// `e`'s old line leaves the row and slots past `e` keep theirs.
    #[inline(always)]
    pub fn shift_in<const W: usize>(row: &mut [u64; W], line: u64, e: usize) {
        let old = *row;
        let mut new = [line; W];
        for slot in 1..W {
            // `old[slot - 1]` where `slot <= e`, else `old[slot]`.
            // Arithmetic, not a select: a select compiles to branches
            // or masked stores, this to whole-row stores.
            let take = u64::from(slot <= e).wrapping_neg();
            new[slot] = old[slot].wrapping_add(old[slot - 1].wrapping_sub(old[slot]) & take);
        }
        *row = new;
    }

    /// Bit `s` set for each live slot `s < occ` (`occ <= W <= 16`).
    #[inline(always)]
    pub fn live_mask(occ: usize) -> u32 {
        (1u32 << occ) - 1
    }
}

/// The row kernels on AVX-512 for `W` = 4, 8 and 16, [`portable`]'s
/// for the rest.
///
/// Every intrinsic call is `unsafe` for two reasons, both met here: the
/// CPU must have the features the intrinsic uses — this module is only
/// compiled for targets with AVX-512F and VL — and each load and store
/// must stay inside `row`, which is exactly `W` slots: the arm for `W`
/// touches slots `0..W` and no more.
#[cfg(all(
    target_arch = "x86_64",
    target_feature = "avx512f",
    target_feature = "avx512vl"
))]
pub(super) mod avx512 {
    use super::portable::{self, live_mask};
    use super::ABSENT;
    use core::arch::x86_64::{
        __m256i, __m512i, _mm256_alignr_epi64, _mm256_cmpeq_epi64_mask, _mm256_loadu_si256,
        _mm256_mask_blend_epi64, _mm256_set1_epi64x, _mm256_storeu_si256, _mm512_alignr_epi64,
        _mm512_cmpeq_epi64_mask, _mm512_loadu_si512, _mm512_mask_blend_epi64, _mm512_set1_epi64,
        _mm512_storeu_si512,
    };

    /// [`portable::find`]: one compare per 8 slots into a mask register,
    /// ANDed with the live slots and read with `trailing_zeros`.
    #[inline(always)]
    pub fn find<const W: usize>(row: &[u64; W], line: u64, occ: usize) -> usize {
        let p = row.as_ptr();
        // SAFETY: the target has AVX-512F and VL (the module's cfg), and
        // each arm reads the `W` slots of `row` and nothing past them:
        // one 32-byte load for 4 slots, one 64-byte load for 8, two for
        // 16 (slots 0..8 at `p`, 8..16 at `p + 8`).
        let m = unsafe {
            match W {
                4 => {
                    let r = _mm256_loadu_si256(p.cast::<__m256i>());
                    u32::from(_mm256_cmpeq_epi64_mask(r, _mm256_set1_epi64x(line as i64)))
                }
                8 => {
                    let r = _mm512_loadu_si512(p.cast::<__m512i>());
                    u32::from(_mm512_cmpeq_epi64_mask(r, _mm512_set1_epi64(line as i64)))
                }
                16 => {
                    let key = _mm512_set1_epi64(line as i64);
                    let lo = _mm512_loadu_si512(p.cast::<__m512i>());
                    let hi = _mm512_loadu_si512(p.add(8).cast::<__m512i>());
                    u32::from(_mm512_cmpeq_epi64_mask(lo, key))
                        | u32::from(_mm512_cmpeq_epi64_mask(hi, key)) << 8
                }
                _ => return portable::find(row, line, occ),
            }
        };
        match m & live_mask(occ) {
            0 => ABSENT,
            m => m.trailing_zeros() as usize,
        }
    }

    /// [`portable::shift_in`]: the row shifted up one lane with `line`
    /// entering slot 0 (`valignq` against a broadcast of `line`, and
    /// against the lower half for the upper half's slot 8), blended into
    /// slots `0..=e` and stored once per 8 slots.
    #[inline(always)]
    pub fn shift_in<const W: usize>(row: &mut [u64; W], line: u64, e: usize) {
        let take = (2u32 << e).wrapping_sub(1);
        let p = row.as_mut_ptr();
        // SAFETY: the target has AVX-512F and VL (the module's cfg), and
        // each arm reads and writes the `W` slots of `row` and nothing
        // past them, as in `find`.
        unsafe {
            match W {
                4 => {
                    let r = _mm256_loadu_si256(p.cast::<__m256i>());
                    let shifted = _mm256_alignr_epi64::<3>(r, _mm256_set1_epi64x(line as i64));
                    let new = _mm256_mask_blend_epi64(take as u8, r, shifted);
                    _mm256_storeu_si256(p.cast::<__m256i>(), new);
                }
                8 => {
                    let r = _mm512_loadu_si512(p.cast::<__m512i>());
                    let shifted = _mm512_alignr_epi64::<7>(r, _mm512_set1_epi64(line as i64));
                    let new = _mm512_mask_blend_epi64(take as u8, r, shifted);
                    _mm512_storeu_si512(p.cast::<__m512i>(), new);
                }
                16 => {
                    let (lo_p, hi_p) = (p.cast::<__m512i>(), p.add(8).cast::<__m512i>());
                    let (lo, hi) = (_mm512_loadu_si512(lo_p), _mm512_loadu_si512(hi_p));
                    let lo_shifted = _mm512_alignr_epi64::<7>(lo, _mm512_set1_epi64(line as i64));
                    let hi_shifted = _mm512_alignr_epi64::<7>(hi, lo);
                    let lo_new = _mm512_mask_blend_epi64(take as u8, lo, lo_shifted);
                    let hi_new = _mm512_mask_blend_epi64((take >> 8) as u8, hi, hi_shifted);
                    _mm512_storeu_si512(lo_p, lo_new);
                    _mm512_storeu_si512(hi_p, hi_new);
                }
                _ => portable::shift_in(row, line, e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::portable;
    use super::ABSENT;

    /// A row whose slots hold distinct lines from `base` up, with line 0
    /// in every slot listed in `zeroes`.
    fn row<const W: usize>(base: u64, zeroes: &[usize]) -> [u64; W] {
        let mut r: [u64; W] = std::array::from_fn(|s| base + s as u64);
        for &z in zeroes {
            r[z] = 0;
        }
        r
    }

    #[test]
    fn portable_find_and_shift_in_follow_the_contract() {
        let r: [u64; 4] = [10, 11, 12, 0];
        assert_eq!(portable::find(&r, 12, 3), 2);
        assert_eq!(portable::find(&r, 12, 2), ABSENT, "slot 2 is stale");
        assert_eq!(portable::find(&r, 0, 3), ABSENT, "a stale zero");
        assert_eq!(portable::find(&r, 0, 4), 3);
        let mut s = r;
        portable::shift_in(&mut s, 7, 2);
        assert_eq!(s, [7, 10, 11, 0]);
        let mut s = r;
        portable::shift_in(&mut s, 7, 0);
        assert_eq!(s, [7, 11, 12, 0]);
        let mut s = r;
        portable::shift_in(&mut s, 7, 3);
        assert_eq!(s, [7, 10, 11, 12]);
    }

    /// Every row kernel against the portable one: each occupancy, each
    /// hit position, absent lines, line 0 live and stale, and lines whose
    /// low 32 bits repeat a live slot's; then every shift end on the same
    /// rows.
    fn diff_against_portable<const W: usize>() {
        let hi = 1u64 << 40;
        for base in [1u64, hi] {
            let zero_sets: [&[usize]; 4] = [&[], &[0], &[W - 1], &[W / 2]];
            for zeroes in zero_sets {
                let r = row::<W>(base, zeroes);
                for occ in 0..=W {
                    let probes = r
                        .iter()
                        .copied()
                        .chain([0, base + W as u64, base ^ hi, u64::MAX]);
                    for line in probes {
                        assert_eq!(
                            super::find(&r, line, occ),
                            portable::find(&r, line, occ),
                            "W={W} row={r:?} occ={occ} line={line}"
                        );
                    }
                }
                for e in 0..W {
                    for line in [0, base + 100, u64::MAX] {
                        let (mut got, mut want) = (r, r);
                        super::shift_in(&mut got, line, e);
                        portable::shift_in(&mut want, line, e);
                        assert_eq!(got, want, "W={W} row={r:?} e={e} line={line}");
                    }
                }
            }
        }
    }

    #[test]
    fn the_row_kernels_match_the_portable_ones() {
        diff_against_portable::<1>();
        diff_against_portable::<2>();
        diff_against_portable::<4>();
        diff_against_portable::<8>();
        diff_against_portable::<16>();
    }
}
