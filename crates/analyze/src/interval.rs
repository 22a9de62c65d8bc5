//! The interval abstract domain the analyzer runs on.
//!
//! Element indices are abstracted as closed integer intervals `[lo, hi]`.
//! All arithmetic happens in `i128`: the DSL's coefficients are `i64` and
//! the coordinate ranges are `u64`, so every product and sum of the terms
//! of one affine expression fits comfortably in `i128` with no overflow —
//! which is exactly what makes the bounds check *sound* rather than a
//! best-effort heuristic.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A closed integer interval `[lo, hi]` (`lo <= hi` by construction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Inclusive lower bound.
    pub lo: i128,
    /// Inclusive upper bound.
    pub hi: i128,
}

impl Interval {
    /// The interval containing exactly `v`.
    pub fn point(v: i128) -> Self {
        Interval { lo: v, hi: v }
    }

    /// The interval `[lo, hi]`; panics if `lo > hi`.
    pub fn new(lo: i128, hi: i128) -> Self {
        assert!(lo <= hi, "interval [{lo}, {hi}] is empty");
        Interval { lo, hi }
    }

    /// Scale by a constant; a negative coefficient flips the bounds.
    pub fn scale(self, coef: i128) -> Interval {
        let (a, b) = (self.lo * coef, self.hi * coef);
        Interval {
            lo: a.min(b),
            hi: a.max(b),
        }
    }

    /// Whether the interval lies entirely inside `[0, n)`.
    pub fn within(self, n: i128) -> bool {
        self.lo >= 0 && self.hi < n
    }
}

impl std::ops::Add for Interval {
    type Output = Interval;

    /// Interval sum: `[a+c, b+d]`.
    fn add(self, other: Interval) -> Interval {
        Interval {
            lo: self.lo + other.lo,
            hi: self.hi + other.hi,
        }
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.lo, self.hi)
    }
}

/// Inclusive byte-address range of an access site, serializable for the
/// wire API (addresses are `u64` by construction: they come from wrapped
/// in-bounds element indices).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ByteRange {
    /// First byte any lane of any thread can touch.
    pub lo: u64,
    /// Last byte any lane of any thread can touch.
    pub hi: u64,
}

impl ByteRange {
    /// Whether `addr` lies inside the range.
    pub fn contains(self, addr: u64) -> bool {
        self.lo <= addr && addr <= self.hi
    }
}

impl fmt::Display for ByteRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:#x}, {:#x}]", self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_flips_on_negative_coefficients() {
        let i = Interval::new(2, 5);
        assert_eq!(i.scale(3), Interval::new(6, 15));
        assert_eq!(i.scale(-3), Interval::new(-15, -6));
        assert_eq!(i.scale(0), Interval::point(0));
    }

    #[test]
    fn add_sums_the_bounds() {
        let a = Interval::new(-1, 4);
        let b = Interval::new(10, 20);
        assert_eq!(a + b, Interval::new(9, 24));
    }

    #[test]
    fn within_is_half_open() {
        assert!(Interval::new(0, 9).within(10));
        assert!(!Interval::new(0, 10).within(10));
        assert!(!Interval::new(-1, 5).within(10));
    }

    #[test]
    fn byte_range_contains_is_inclusive() {
        let r = ByteRange {
            lo: 0x100,
            hi: 0x1ff,
        };
        assert!(r.contains(0x100));
        assert!(r.contains(0x1ff));
        assert!(!r.contains(0x200));
    }
}
