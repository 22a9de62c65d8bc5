//! The congruence abstract domain `r + m·Z`, and its reduced product
//! with the interval domain.
//!
//! Intervals alone cannot prove that `A[2·tid]` and `A[2·tid + 1]` are
//! disjoint: their ranges interleave, so the interval of the difference
//! always straddles zero. The congruence domain captures exactly the
//! missing fact — the difference is *odd* — by abstracting every value
//! as a residue class `r (mod m)` (Granger's arithmetical congruences).
//! The race detector evaluates the symbolic difference of two access
//! sites in the product [`AbsVal`] = interval × congruence: if either
//! component excludes zero, no pair of threads can collide, which is
//! precisely the modular-arithmetic disjointness proof the
//! barrier-phase detector needs for per-lane strided writes.
//!
//! Conventions: `modulus == 0` encodes a constant (`γ = {residue}`),
//! `modulus == 1` is ⊤ (all integers). For `modulus > 1` the residue is
//! normalized into `[0, modulus)`. All arithmetic is `i128`, like
//! [`crate::interval::Interval`], so sums/products of DSL coefficients
//! and coordinate ranges cannot overflow.

use crate::interval::Interval;
use std::fmt;

/// A congruence class `residue + modulus·Z` over `i128`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Congruence {
    /// The stride of the class; `0` means the singleton `{residue}`.
    modulus: i128,
    /// Normalized representative (`0 <= residue < modulus` when
    /// `modulus > 0`; the exact value when `modulus == 0`).
    residue: i128,
}

pub(crate) fn gcd(a: i128, b: i128) -> i128 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

impl Congruence {
    /// The class containing exactly `v`.
    pub fn point(v: i128) -> Self {
        Congruence {
            modulus: 0,
            residue: v,
        }
    }

    /// ⊤: every integer (`0 + 1·Z`).
    pub fn top() -> Self {
        Congruence {
            modulus: 1,
            residue: 0,
        }
    }

    /// The class `residue + modulus·Z` (normalizing the residue).
    pub fn new(residue: i128, modulus: i128) -> Self {
        let modulus = modulus.abs();
        if modulus == 0 {
            Congruence::point(residue)
        } else {
            Congruence {
                modulus,
                residue: residue.rem_euclid(modulus),
            }
        }
    }

    /// The modulus (`0` for constants).
    pub fn modulus(&self) -> i128 {
        self.modulus
    }

    /// The normalized residue.
    pub fn residue(&self) -> i128 {
        self.residue
    }

    /// Abstract addition: `(r1 + m1·Z) + (r2 + m2·Z) =
    /// (r1 + r2) + gcd(m1, m2)·Z`.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, other: Congruence) -> Congruence {
        Congruence::new(
            self.residue + other.residue,
            gcd(self.modulus, other.modulus),
        )
    }

    /// Abstract scaling: `c·(r + m·Z) = c·r + |c·m|·Z`.
    pub fn scale(self, coef: i128) -> Congruence {
        if coef == 0 {
            return Congruence::point(0);
        }
        Congruence::new(self.residue * coef, self.modulus * coef)
    }

    /// Lattice join: the smallest class containing both operands,
    /// `gcd(m1, m2, |r1 - r2|)`.
    pub fn join(self, other: Congruence) -> Congruence {
        let m = gcd(
            gcd(self.modulus, other.modulus),
            self.residue - other.residue,
        );
        Congruence::new(self.residue, m)
    }

    /// Whether `v` is in the concretization.
    pub fn contains(&self, v: i128) -> bool {
        if self.modulus == 0 {
            v == self.residue
        } else {
            (v - self.residue).rem_euclid(self.modulus) == 0
        }
    }
}

impl fmt::Display for Congruence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.modulus == 0 {
            write!(f, "{{{}}}", self.residue)
        } else {
            write!(f, "{} + {}Z", self.residue, self.modulus)
        }
    }
}

/// The reduced product of the interval and congruence domains: one
/// abstract value tracked in both, queried jointly. The race detector
/// builds the symbolic difference of two access-site indices as an
/// `AbsVal` and asks [`AbsVal::excludes_zero`] — either domain alone
/// suffices to prove two sites disjoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AbsVal {
    /// Interval component.
    pub iv: Interval,
    /// Congruence component.
    pub cg: Congruence,
}

impl AbsVal {
    /// The constant `v` in both domains.
    pub fn point(v: i128) -> Self {
        AbsVal {
            iv: Interval::point(v),
            cg: Congruence::point(v),
        }
    }

    /// A bounded variable `[lo, hi]` with no known stride (congruence ⊤,
    /// or a constant when the range is a single point).
    pub fn range(lo: i128, hi: i128) -> Self {
        AbsVal {
            iv: Interval::new(lo, hi),
            cg: if lo == hi {
                Congruence::point(lo)
            } else {
                Congruence::top()
            },
        }
    }

    /// Componentwise abstract sum.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, other: AbsVal) -> AbsVal {
        AbsVal {
            iv: self.iv + other.iv,
            cg: self.cg.add(other.cg),
        }
    }

    /// Componentwise abstract scaling. This is where the congruence
    /// component earns its keep: `coef · [lo, hi]` has stride `|coef|`.
    pub fn scale(self, coef: i128) -> AbsVal {
        AbsVal {
            iv: self.iv.scale(coef),
            cg: self.cg.scale(coef),
        }
    }

    /// Whether the concretization provably misses zero — the reduced
    /// product query: zero must lie in *both* components to be feasible.
    pub fn excludes_zero(&self) -> bool {
        !self.iv.contains(0) || !self.cg.contains(0)
    }
}

impl fmt::Display for AbsVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ∩ {}", self.iv, self.cg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_and_top() {
        let p = Congruence::point(7);
        assert!(p.contains(7));
        assert!(!p.contains(8));
        let t = Congruence::top();
        assert!(t.contains(0));
        assert!(t.contains(-12345));
    }

    #[test]
    fn new_normalizes_residue() {
        let c = Congruence::new(-3, 8);
        assert_eq!(c.residue(), 5);
        assert_eq!(c.modulus(), 8);
        assert!(c.contains(13));
        assert!(c.contains(-3));
        assert!(!c.contains(0));
    }

    #[test]
    fn add_takes_gcd_of_moduli() {
        let a = Congruence::new(1, 6);
        let b = Congruence::new(2, 4);
        let s = a.add(b);
        assert_eq!(s.modulus(), 2);
        assert_eq!(s.residue(), 1);
        // Constant + class keeps the class stride.
        let shifted = Congruence::point(5).add(Congruence::new(0, 8));
        assert_eq!((shifted.modulus(), shifted.residue()), (8, 5));
    }

    #[test]
    fn scale_multiplies_stride() {
        let c = Congruence::new(1, 3).scale(4);
        assert_eq!((c.modulus(), c.residue()), (12, 4));
        assert_eq!(Congruence::new(1, 3).scale(0), Congruence::point(0));
        let neg = Congruence::new(1, 3).scale(-2);
        assert_eq!(neg.modulus(), 6);
        assert!(neg.contains(-2));
        assert!(neg.contains(4));
    }

    #[test]
    fn join_is_an_upper_bound() {
        let a = Congruence::new(1, 8);
        let b = Congruence::new(5, 8);
        let j = a.join(b);
        assert_eq!(j.modulus(), 4);
        assert!(j.contains(1) && j.contains(5) && j.contains(9));
        assert!(!j.contains(2));
        // Joining equal constants stays constant.
        let c = Congruence::point(3).join(Congruence::point(3));
        assert_eq!(c, Congruence::point(3));
    }

    #[test]
    fn strided_difference_excludes_zero() {
        // A[2·x] vs A[2·y + 1]: difference = 2·x - 2·y - 1, interval
        // straddles zero but the congruence is odd.
        let diff = AbsVal::point(-1)
            .add(AbsVal::range(0, 100).scale(2))
            .add(AbsVal::range(0, 100).scale(-2));
        assert!(diff.iv.contains(0), "interval alone cannot prove this");
        assert!(diff.excludes_zero(), "congruence proves oddness");
    }

    #[test]
    fn interval_component_still_decides_offsets() {
        // x + 64 with x in [0, 63]: congruence is top, interval excludes 0.
        let diff = AbsVal::point(64).add(AbsVal::range(0, 63));
        assert!(diff.excludes_zero());
        // x - 32 with x in [0, 63]: neither component helps.
        let stride = AbsVal::point(-32).add(AbsVal::range(0, 63));
        assert!(!stride.excludes_zero());
    }

    #[test]
    fn single_point_range_is_constant() {
        let v = AbsVal::range(5, 5);
        assert_eq!(v.cg, Congruence::point(5));
    }
}
