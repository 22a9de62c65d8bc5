//! Strongly-typed records for GPU memory access traces.
//!
//! Everything downstream of the execution substrate speaks in terms of these
//! types: a static memory instruction is identified by its [`Pc`], a scalar
//! thread by its [`ThreadId`], a warp by its [`WarpId`], and memory locations
//! by [`ByteAddr`] (raw) or [`LineAddr`] (cacheline-granular).

use serde::{Deserialize, Serialize};
use std::fmt;

/// Program counter of a *static* memory instruction.
///
/// G-MAP is a code-localized model: every distribution in the statistical
/// profile (inter-thread stride, intra-thread stride) is keyed by the static
/// instruction that produced the access (§4.2–4.3 of the paper).
///
/// ```
/// use gmap_trace::Pc;
/// let pc = Pc(0x900);
/// assert_eq!(format!("{pc}"), "0x900");
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Pc(pub u64);

impl fmt::Display for Pc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// Global (grid-wide) scalar thread identifier.
///
/// Threads are linearized in CUDA order: `tid = block_id * block_size +
/// thread_in_block` (CUDA programming guide §G.1, which G-MAP follows for
/// warp formation).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct ThreadId(pub u32);

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Global warp identifier: `tid / warp_size` (warp size is 32 in the
/// Fermi baseline the paper models).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct WarpId(pub u32);

impl fmt::Display for WarpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "w{}", self.0)
    }
}

/// Identifier of a streaming multiprocessor (SM / "core").
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct CoreId(pub u16);

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sm{}", self.0)
    }
}

/// A raw byte address in the (synthetic) global memory space.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct ByteAddr(pub u64);

impl ByteAddr {
    /// The cacheline this address falls into, for a power-of-two
    /// `line_size` in bytes.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `line_size` is not a power of two.
    ///
    /// ```
    /// use gmap_trace::ByteAddr;
    /// assert_eq!(ByteAddr(0x1234).line(128).0, 0x1234 / 128);
    /// ```
    #[inline]
    pub fn line(self, line_size: u64) -> LineAddr {
        debug_assert!(
            line_size.is_power_of_two(),
            "line size must be a power of two"
        );
        LineAddr(self.0 >> line_size.trailing_zeros())
    }

    /// The line-aligned byte address (address of the first byte in the line).
    #[inline]
    pub fn line_base(self, line_size: u64) -> ByteAddr {
        debug_assert!(
            line_size.is_power_of_two(),
            "line size must be a power of two"
        );
        ByteAddr(self.0 & !(line_size - 1))
    }

    /// The address displaced by a signed byte offset, saturating at zero.
    #[inline]
    pub fn offset(self, delta: i64) -> ByteAddr {
        ByteAddr(self.0.saturating_add_signed(delta))
    }
}

impl fmt::Display for ByteAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl From<u64> for ByteAddr {
    fn from(v: u64) -> Self {
        ByteAddr(v)
    }
}

/// A cacheline index (byte address divided by the line size).
///
/// Reuse distances (paper Fig. 5) and cache lookups are defined at this
/// granularity.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct LineAddr(pub u64);

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{:#x}", self.0)
    }
}

/// Whether an access reads or writes memory.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub enum AccessKind {
    /// A load.
    #[default]
    Read,
    /// A store.
    Write,
}

impl AccessKind {
    /// `true` for [`AccessKind::Write`].
    #[inline]
    pub fn is_write(self) -> bool {
        matches!(self, AccessKind::Write)
    }
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessKind::Read => f.write_str("R"),
            AccessKind::Write => f.write_str("W"),
        }
    }
}

/// A request that left the L2 toward memory: what the cache hierarchy
/// records and the DRAM controllers replay, one record for both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemRequest {
    /// Cycle the request left the L2, its arrival at the controller.
    pub cycle: u64,
    /// L2-line-aligned byte address.
    pub addr: ByteAddr,
    /// Read (fill) or write (write-back / write-through traffic).
    pub kind: AccessKind,
}

/// One dynamic memory access by one scalar thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MemAccess {
    /// Static instruction that issued the access.
    pub pc: Pc,
    /// Byte address touched.
    pub addr: ByteAddr,
    /// Read or write.
    pub kind: AccessKind,
}

impl MemAccess {
    /// Convenience constructor for a read access.
    pub fn read(pc: Pc, addr: ByteAddr) -> Self {
        MemAccess {
            pc,
            addr,
            kind: AccessKind::Read,
        }
    }

    /// Convenience constructor for a write access.
    pub fn write(pc: Pc, addr: ByteAddr) -> Self {
        MemAccess {
            pc,
            addr,
            kind: AccessKind::Write,
        }
    }
}

impl fmt::Display for MemAccess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.pc, self.kind, self.addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_extraction() {
        assert_eq!(ByteAddr(0).line(128), LineAddr(0));
        assert_eq!(ByteAddr(127).line(128), LineAddr(0));
        assert_eq!(ByteAddr(128).line(128), LineAddr(1));
        assert_eq!(ByteAddr(130).line(64), LineAddr(2));
    }

    #[test]
    fn line_base_alignment() {
        assert_eq!(ByteAddr(0x1234).line_base(128), ByteAddr(0x1200));
        assert_eq!(ByteAddr(0x1200).line_base(128), ByteAddr(0x1200));
    }

    #[test]
    fn line_round_trip() {
        let a = ByteAddr(0x4680);
        assert_eq!(ByteAddr(a.line(128).0 * 128), a.line_base(128));
    }

    #[test]
    fn signed_offsets() {
        let a = ByteAddr(0x1000);
        let b = ByteAddr(0x0F00);
        assert_eq!(a.offset(-256), b);
        assert_eq!(b.offset(256), a);
    }

    #[test]
    fn offset_saturates_at_zero() {
        assert_eq!(ByteAddr(16).offset(-64), ByteAddr(0));
    }

    #[test]
    fn access_kind_predicates() {
        assert!(AccessKind::Write.is_write());
        assert!(!AccessKind::Read.is_write());
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Pc(0x3f8)), "0x3f8");
        assert_eq!(format!("{}", ThreadId(7)), "t7");
        assert_eq!(format!("{}", WarpId(2)), "w2");
        assert_eq!(format!("{}", CoreId(14)), "sm14");
        assert_eq!(format!("{}", AccessKind::Read), "R");
        let acc = MemAccess::write(Pc(0x10), ByteAddr(0x80));
        assert_eq!(format!("{acc}"), "0x10 W 0x80");
    }

    #[test]
    fn serde_round_trip() {
        let acc = MemAccess::read(Pc(0xe8), ByteAddr(4352));
        let json = serde_json::to_string(&acc).expect("serialize");
        let back: MemAccess = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(acc, back);
    }
}
