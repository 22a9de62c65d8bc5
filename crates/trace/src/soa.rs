//! Structure-of-arrays storage for captured access streams.
//!
//! The sweep engine records millions of `(core, addr, pc, is_write)`
//! events and then makes many passes over them: per-core splitting,
//! line-address extraction, read/write accounting, L2 derivation. With an
//! array-of-structs layout every pass drags all four fields through the
//! cache even when it needs one, and the mixed-width struct (u16 next to
//! u64 next to bool) defeats the autovectorizer. [`AccessColumns`] stores
//! each field in its own dense column so a pass touches only the bytes it
//! reads and the hot loops compile to straight-line SIMD.
//!
//! The record-oriented API survives as a shim: [`AccessRecord`] is a
//! plain-old-data *view* with the same public fields the old struct had,
//! materialized on [`AccessColumns::get`] / [`AccessColumns::iter`] and
//! scattered back on [`AccessColumns::push`]. Call sites that iterated
//! `&capture.accesses` keep working verbatim against the view iterator.
//!
//! The column kernel ([`AccessColumns::lines_into`]) comes in scalar and
//! 8-lane batched flavors selected by [`KernelMode`]; the batched body is
//! hand-unrolled over `chunks_exact` with a scalar tail and is bit-exact
//! with the scalar reference (see the differential proptests in the
//! tier-1 suite).

use crate::batch::KernelMode;
pub use crate::batch::LANES;
use serde::{Deserialize, Serialize};

/// A single captured access, viewed row-wise.
///
/// This is the shim that preserves the old array-of-structs API: the
/// fields are public and identical to the former per-record struct, so
/// `access.addr`, `access.is_write`, struct literals, and destructuring
/// all keep compiling. It is a value (16 bytes), not a reference into the
/// columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct AccessRecord {
    /// Issuing core (streaming multiprocessor) index.
    pub core: u16,
    /// Address of the access. The engine stores byte addresses for L1
    /// captures and line addresses for derived L2 streams; the column
    /// kernels are agnostic.
    pub addr: u64,
    /// Program counter of the static instruction that issued the access.
    pub pc: u64,
    /// `true` for stores.
    pub is_write: bool,
}

/// Structure-of-arrays store for a captured access stream.
///
/// The four columns always have identical length (enforced by the
/// mutation API; [`AccessColumns::check_coherent`] asserts it in debug
/// builds). Row `i` of the stream is `(cores[i], addrs[i], pcs[i],
/// writes[i])`, materialized as an [`AccessRecord`] by [`get`].
///
/// [`get`]: AccessColumns::get
///
/// ```
/// use gmap_trace::soa::{AccessColumns, AccessRecord};
///
/// let mut cols = AccessColumns::new();
/// cols.push(AccessRecord { core: 1, addr: 0x80, pc: 0x10, is_write: false });
/// cols.push(AccessRecord { core: 0, addr: 0xc0, pc: 0x10, is_write: true });
/// assert_eq!(cols.len(), 2);
/// assert_eq!(cols.get(1).addr, 0xc0);
/// assert_eq!(cols.iter().filter(|a| a.is_write).count(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AccessColumns {
    /// Issuing core per access.
    cores: Vec<u16>,
    /// Address per access (byte or line granularity — caller's contract).
    addrs: Vec<u64>,
    /// Program counter per access.
    pcs: Vec<u64>,
    /// Store flag per access.
    writes: Vec<bool>,
}

impl AccessColumns {
    /// An empty stream.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty stream with room for `cap` accesses in every column.
    pub fn with_capacity(cap: usize) -> Self {
        AccessColumns {
            cores: Vec::with_capacity(cap),
            addrs: Vec::with_capacity(cap),
            pcs: Vec::with_capacity(cap),
            writes: Vec::with_capacity(cap),
        }
    }

    /// Number of accesses in the stream.
    #[inline]
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// `true` when the stream holds no accesses.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// Append one access, scattering its fields into the columns.
    #[inline]
    pub fn push(&mut self, rec: AccessRecord) {
        self.cores.push(rec.core);
        self.addrs.push(rec.addr);
        self.pcs.push(rec.pc);
        self.writes.push(rec.is_write);
    }

    /// Gather row `i` into an [`AccessRecord`] view.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn get(&self, i: usize) -> AccessRecord {
        AccessRecord {
            core: self.cores[i],
            addr: self.addrs[i],
            pc: self.pcs[i],
            is_write: self.writes[i],
        }
    }

    /// Iterate the stream row-wise as [`AccessRecord`] values.
    pub fn iter(&self) -> impl Iterator<Item = AccessRecord> + '_ {
        self.check_coherent();
        (0..self.len()).map(move |i| self.get(i))
    }

    /// The address column.
    #[inline]
    pub fn addrs(&self) -> &[u64] {
        &self.addrs
    }

    /// The program-counter column.
    #[inline]
    pub fn pcs(&self) -> &[u64] {
        &self.pcs
    }

    /// The issuing-core column.
    #[inline]
    pub fn cores(&self) -> &[u16] {
        &self.cores
    }

    /// The store-flag column.
    #[inline]
    pub fn writes(&self) -> &[bool] {
        &self.writes
    }

    /// Debug-assert that all four columns agree on the stream length.
    #[inline]
    pub fn check_coherent(&self) {
        debug_assert_eq!(self.cores.len(), self.addrs.len());
        debug_assert_eq!(self.pcs.len(), self.addrs.len());
        debug_assert_eq!(self.writes.len(), self.addrs.len());
    }

    /// Append `addr >> shift` for every access to `out`.
    ///
    /// This is the line-address extraction pass the engine runs before
    /// every stack-distance evaluation. Dispatches on `mode`; both paths
    /// produce identical output.
    pub fn lines_into(&self, shift: u32, mode: KernelMode, out: &mut Vec<u64>) {
        match mode {
            KernelMode::Scalar => self.lines_into_scalar(shift, out),
            KernelMode::Batched => self.lines_into_batched(shift, out),
        }
    }

    /// Scalar reference for [`AccessColumns::lines_into`].
    pub fn lines_into_scalar(&self, shift: u32, out: &mut Vec<u64>) {
        out.reserve(self.addrs.len());
        for &a in &self.addrs {
            out.push(a >> shift);
        }
    }

    fn lines_into_batched(&self, shift: u32, out: &mut Vec<u64>) {
        out.reserve(self.addrs.len());
        let mut chunks = self.addrs.chunks_exact(LANES);
        for c in &mut chunks {
            // One store per lane, no cross-lane dependency: the shift
            // vectorizes and the extends become a single widening copy.
            out.extend_from_slice(&[
                c[0] >> shift,
                c[1] >> shift,
                c[2] >> shift,
                c[3] >> shift,
                c[4] >> shift,
                c[5] >> shift,
                c[6] >> shift,
                c[7] >> shift,
            ]);
        }
        for &a in chunks.remainder() {
            out.push(a >> shift);
        }
    }
}

/// Row-wise iteration over borrowed columns, yielding [`AccessRecord`]
/// *values*. This keeps `for a in &columns { ... a.addr ... }` loops
/// written against the old array-of-structs layout compiling unchanged.
impl<'a> IntoIterator for &'a AccessColumns {
    type Item = AccessRecord;
    type IntoIter = AccessIter<'a>;

    fn into_iter(self) -> AccessIter<'a> {
        self.check_coherent();
        AccessIter {
            cols: self,
            next: 0,
        }
    }
}

/// Iterator over an [`AccessColumns`] stream (see the `IntoIterator`
/// impl for `&AccessColumns`).
#[derive(Debug, Clone)]
pub struct AccessIter<'a> {
    cols: &'a AccessColumns,
    next: usize,
}

impl Iterator for AccessIter<'_> {
    type Item = AccessRecord;

    #[inline]
    fn next(&mut self) -> Option<AccessRecord> {
        if self.next < self.cols.len() {
            let r = self.cols.get(self.next);
            self.next += 1;
            Some(r)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.cols.len() - self.next;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for AccessIter<'_> {}

impl FromIterator<AccessRecord> for AccessColumns {
    fn from_iter<I: IntoIterator<Item = AccessRecord>>(iter: I) -> Self {
        let mut cols = AccessColumns::new();
        for r in iter {
            cols.push(r);
        }
        cols
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize) -> AccessColumns {
        let mut rng = crate::Rng::seed_from(0x50a);
        (0..n)
            .map(|i| AccessRecord {
                core: (rng.next_u64() % 13) as u16,
                addr: rng.next_u64() >> 8,
                pc: (i as u64) * 8,
                is_write: rng.next_u64().is_multiple_of(3),
            })
            .collect()
    }

    #[test]
    fn round_trip_push_get_iter() {
        let cols = sample(100);
        assert_eq!(cols.len(), 100);
        let rows: Vec<AccessRecord> = cols.iter().collect();
        let back: AccessColumns = rows.iter().copied().collect();
        assert_eq!(cols, back);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(cols.get(i), *r);
        }
    }

    #[test]
    fn lines_kernels_agree_for_all_tail_lengths() {
        for n in 0..(2 * LANES) {
            let cols = sample(n + 64);
            let cols: AccessColumns = cols.iter().take(n).collect();
            for shift in [0u32, 5, 7] {
                let mut scalar = Vec::new();
                let mut batched = Vec::new();
                cols.lines_into(shift, KernelMode::Scalar, &mut scalar);
                cols.lines_into(shift, KernelMode::Batched, &mut batched);
                assert_eq!(scalar, batched, "n={n} shift={shift}");
            }
        }
    }

    #[test]
    fn serde_round_trip() {
        let cols = sample(17);
        let json = serde_json::to_string(&cols).expect("serialize");
        let back: AccessColumns = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(cols, back);
    }

    #[test]
    fn empty_stream() {
        let cols = AccessColumns::new();
        assert!(cols.is_empty());
        let mut out = Vec::new();
        cols.lines_into(3, KernelMode::Batched, &mut out);
        assert!(out.is_empty());
    }
}
