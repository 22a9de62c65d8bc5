//! Deterministic pseudo-random number generation.
//!
//! G-MAP's proxy generation is stochastic (π-profile assignment, stride and
//! reuse sampling, the `SchedP_self` scheduler), but reproducibility is a
//! hard requirement for validation: the same profile and seed must produce
//! the same clone. This module implements xoshiro256\*\* seeded through
//! SplitMix64 — small, fast, and fully deterministic across platforms — so
//! the workspace needs no external RNG dependency in library code.

use serde::{Deserialize, Serialize};

/// Stateless 64-bit mixing function (SplitMix64 finalizer).
///
/// Used wherever a *deterministic* pseudo-random value must be derived from
/// structured inputs — e.g. the irregular index expressions of the synthetic
/// workloads hash `(seed, tid, iteration)` through this function.
///
/// ```
/// use gmap_trace::rng::mix64;
/// assert_ne!(mix64(1), mix64(2));
/// assert_eq!(mix64(42), mix64(42));
/// ```
#[inline]
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seedable xoshiro256\*\* pseudo-random number generator.
///
/// ```
/// use gmap_trace::Rng;
///
/// let mut a = Rng::seed_from(42);
/// let mut b = Rng::seed_from(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Rng {
    state: [u64; 4],
}

impl Rng {
    /// Creates a generator from a 64-bit seed, expanded via SplitMix64 as
    /// recommended by the xoshiro authors.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        let mut next_sm = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let state = [next_sm(), next_sm(), next_sm(), next_sm()];
        Rng { state }
    }

    /// Derives an independent generator for a sub-task (e.g. one per thread
    /// or per warp) without correlating the streams.
    pub fn split(&mut self, stream: u64) -> Rng {
        let mix = self.next_u64() ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Rng::seed_from(mix)
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform integer in `[0, n)`. Uses Lemire's multiply-shift rejection
    /// method, so the result is unbiased.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[inline]
    pub fn gen_range(&mut self, n: u64) -> u64 {
        assert!(n > 0, "gen_range requires a positive bound");
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(n as u128);
            let low = m as u64;
            // The rejection threshold `2^64 mod n` is below `n`, so the
            // 64-bit division is needed only when `low` is too.
            if low >= n || low >= n.wrapping_neg() % n {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Uniform signed integer in `[lo, hi]` inclusive.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    #[inline]
    pub fn gen_range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi, "empty range");
        let span = (hi - lo) as u64 + 1;
        lo + self.gen_range(span) as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism() {
        let mut a = Rng::seed_from(0xDEAD_BEEF);
        let mut b = Rng::seed_from(0xDEAD_BEEF);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::seed_from(1);
        let mut b = Rng::seed_from(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn zero_seed_is_usable() {
        // SplitMix64 expansion means an all-zero internal state is impossible.
        let mut r = Rng::seed_from(0);
        assert_ne!(r.next_u64(), 0_u64.wrapping_add(r.next_u64()));
        let vals: Vec<u64> = (0..8).map(|_| r.next_u64()).collect();
        assert!(vals.iter().any(|&v| v != 0));
    }

    #[test]
    fn gen_range_bounds() {
        let mut r = Rng::seed_from(99);
        for _ in 0..10_000 {
            assert!(r.gen_range(7) < 7);
        }
        for _ in 0..100 {
            assert_eq!(r.gen_range(1), 0);
        }
    }

    #[test]
    fn gen_range_is_roughly_uniform() {
        let mut r = Rng::seed_from(5);
        let n = 100_000;
        let mut counts = [0u64; 10];
        for _ in 0..n {
            counts[r.gen_range(10) as usize] += 1;
        }
        for &c in &counts {
            let frac = c as f64 / n as f64;
            assert!(
                (frac - 0.1).abs() < 0.01,
                "bucket frequency {frac} too far from 0.1"
            );
        }
    }

    #[test]
    #[should_panic(expected = "positive bound")]
    fn gen_range_zero_panics() {
        Rng::seed_from(1).gen_range(0);
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut r = Rng::seed_from(11);
        for _ in 0..10_000 {
            let x = r.gen_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gen_bool_probability() {
        let mut r = Rng::seed_from(21);
        let n = 50_000;
        let hits = (0..n).filter(|_| r.gen_bool(0.25)).count();
        let frac = hits as f64 / n as f64;
        assert!((frac - 0.25).abs() < 0.01);
        assert!(!r.gen_bool(0.0));
        assert!(r.gen_bool(1.0 + 1e-9));
    }

    #[test]
    fn gen_range_i64_inclusive() {
        let mut r = Rng::seed_from(31);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..10_000 {
            let v = r.gen_range_i64(-3, 3);
            assert!((-3..=3).contains(&v));
            saw_lo |= v == -3;
            saw_hi |= v == 3;
        }
        assert!(saw_lo && saw_hi);
        assert_eq!(r.gen_range_i64(5, 5), 5);
    }

    #[test]
    fn split_streams_are_independent() {
        let mut root = Rng::seed_from(77);
        let mut a = root.split(0);
        let mut b = root.split(1);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }
}
