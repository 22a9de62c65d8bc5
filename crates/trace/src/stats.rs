//! Validation statistics.
//!
//! The paper validates proxies with two metrics (§5): the *percentage error*
//! between original and proxy performance numbers, and *Pearson's
//! correlation coefficient* over a sweep of configurations ("1 = perfect
//! correlation, 0 = no correlation"). This module implements both, plus the
//! usual summary helpers.

use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Arithmetic mean; `0.0` for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Population standard deviation; `0.0` for slices shorter than 2.
pub fn stddev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64).sqrt()
}

/// Pearson's correlation coefficient between two equal-length series.
///
/// Degenerate cases are resolved the way a design-space-ranking user would
/// want: if *both* series are constant the proxy tracks the original
/// perfectly (`1.0`); if only one is constant there is no linear trend to
/// speak of (`0.0`).
///
/// # Panics
///
/// Panics if the slices have different lengths.
///
/// ```
/// use gmap_trace::stats::pearson;
/// let xs = [1.0, 2.0, 3.0];
/// let ys = [2.0, 4.0, 6.0];
/// assert!((pearson(&xs, &ys) - 1.0).abs() < 1e-12);
/// ```
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "series must have equal length");
    if xs.is_empty() {
        return 0.0;
    }
    let mx = mean(xs);
    let my = mean(ys);
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        cov += (x - mx) * (y - my);
        vx += (x - mx) * (x - mx);
        vy += (y - my) * (y - my);
    }
    const EPS: f64 = 1e-12;
    match (vx < EPS, vy < EPS) {
        (true, true) => 1.0,
        (true, false) | (false, true) => 0.0,
        (false, false) => (cov / (vx.sqrt() * vy.sqrt())).clamp(-1.0, 1.0),
    }
}

/// Absolute error between a proxy metric and the original, in the same unit
/// as the inputs. For miss *rates* expressed in percent this is the
/// "percentage error" the paper's Figure 6 reports (percentage points).
pub fn abs_error(original: f64, proxy: f64) -> f64 {
    (original - proxy).abs()
}

/// Relative error `|orig - proxy| / |orig|`, as a fraction. Falls back to
/// absolute error when the original is (near) zero, so a zero-valued
/// original with a zero-valued proxy scores 0 rather than NaN.
pub fn rel_error(original: f64, proxy: f64) -> f64 {
    if original.abs() < 1e-12 {
        abs_error(original, proxy)
    } else {
        abs_error(original, proxy) / original.abs()
    }
}

/// Mean absolute error between two equal-length series.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn mean_abs_error(original: &[f64], proxy: &[f64]) -> f64 {
    assert_eq!(original.len(), proxy.len(), "series must have equal length");
    mean(
        &original
            .iter()
            .zip(proxy)
            .map(|(o, p)| abs_error(*o, *p))
            .collect::<Vec<_>>(),
    )
}

/// Mean relative error between two equal-length series, as a fraction.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn mean_rel_error(original: &[f64], proxy: &[f64]) -> f64 {
    assert_eq!(original.len(), proxy.len(), "series must have equal length");
    mean(
        &original
            .iter()
            .zip(proxy)
            .map(|(o, p)| rel_error(*o, *p))
            .collect::<Vec<_>>(),
    )
}

/// Number of log2 buckets in a [`LatencyHistogram`] — covers the full
/// `u64` nanosecond range (bucket `i` holds values in `[2^i, 2^{i+1})`,
/// bucket 0 additionally holds 0).
const LATENCY_BUCKETS: usize = 64;

/// A log2-bucketed latency histogram with quantile queries.
///
/// Durations are recorded in nanoseconds into 64 power-of-two buckets, so
/// recording is O(1), memory is constant, and the histogram can absorb
/// anything from sub-microsecond cache probes to multi-minute sweeps.
/// Quantiles are answered from the bucket boundaries: the reported value
/// is the *upper edge* of the bucket containing the requested rank, i.e. a
/// conservative (never understated) estimate with ≤ 2× resolution error —
/// the standard trade-off of log-bucketed histograms (HdrHistogram, etc.).
///
/// Used by the `gmap serve` `/metrics` endpoint.
///
/// ```
/// use gmap_trace::stats::LatencyHistogram;
/// use std::time::Duration;
///
/// let mut h = LatencyHistogram::new();
/// for ms in [1u64, 2, 3, 4, 100] {
///     h.record(Duration::from_millis(ms));
/// }
/// assert_eq!(h.count(), 5);
/// assert!(h.p50() >= Duration::from_millis(2));
/// assert!(h.p99() >= Duration::from_millis(100));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyHistogram {
    /// Observation count per power-of-two nanosecond bucket.
    buckets: Vec<u64>,
    /// Total observations.
    count: u64,
    /// Sum of all recorded nanoseconds (for the mean).
    sum_ns: u64,
    /// Largest recorded value, exact.
    max_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: vec![0; LATENCY_BUCKETS],
            count: 0,
            sum_ns: 0,
            max_ns: 0,
        }
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one duration.
    pub fn record(&mut self, d: Duration) {
        self.record_ns(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Records one raw nanosecond value.
    pub fn record_ns(&mut self, ns: u64) {
        let bucket = if ns == 0 {
            0
        } else {
            (63 - ns.leading_zeros()) as usize
        };
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum_ns = self.sum_ns.saturating_add(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of all observations; zero if empty.
    pub fn mean(&self) -> Duration {
        Duration::from_nanos(self.sum_ns.checked_div(self.count).unwrap_or(0))
    }

    /// Largest observation, exact; zero if empty.
    pub fn max(&self) -> Duration {
        Duration::from_nanos(self.max_ns)
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as the upper edge of the bucket
    /// holding that rank, clamped to the exact maximum. Zero if empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Duration {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.count == 0 {
            return Duration::ZERO;
        }
        // Rank of the requested quantile, 1-based, ceil so q = 1.0 is the
        // last observation and q = 0.0 the first.
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let upper = if i + 1 >= 64 {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                };
                return Duration::from_nanos(upper.min(self.max_ns));
            }
        }
        Duration::from_nanos(self.max_ns)
    }

    /// Median (upper bucket edge).
    pub fn p50(&self) -> Duration {
        self.quantile(0.50)
    }

    /// 95th percentile (upper bucket edge).
    pub fn p95(&self) -> Duration {
        self.quantile(0.95)
    }

    /// 99th percentile (upper bucket edge).
    pub fn p99(&self) -> Duration {
        self.quantile(0.99)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_stddev() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(stddev(&[5.0]), 0.0);
        assert!((stddev(&[1.0, 3.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_perfect_positive() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [10.0, 20.0, 30.0, 40.0];
        assert!((pearson(&xs, &ys) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_perfect_negative() {
        let xs = [1.0, 2.0, 3.0];
        let ys = [3.0, 2.0, 1.0];
        assert!((pearson(&xs, &ys) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_no_correlation() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [1.0, -1.0, 1.0, -1.0];
        assert!(pearson(&xs, &ys).abs() < 0.5);
    }

    #[test]
    fn pearson_degenerate_cases() {
        assert_eq!(pearson(&[], &[]), 0.0);
        assert_eq!(pearson(&[1.0, 1.0], &[1.0, 1.0]), 1.0);
        assert_eq!(pearson(&[1.0, 1.0], &[1.0, 2.0]), 0.0);
        assert_eq!(pearson(&[1.0, 2.0], &[5.0, 5.0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn pearson_length_mismatch_panics() {
        pearson(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn error_metrics() {
        assert_eq!(abs_error(10.0, 7.0), 3.0);
        assert!((rel_error(10.0, 7.0) - 0.3).abs() < 1e-12);
        assert_eq!(rel_error(0.0, 0.0), 0.0);
        assert_eq!(rel_error(0.0, 0.5), 0.5);
    }

    #[test]
    fn mean_errors() {
        let orig = [10.0, 20.0];
        let proxy = [9.0, 22.0];
        assert!((mean_abs_error(&orig, &proxy) - 1.5).abs() < 1e-12);
        assert!((mean_rel_error(&orig, &proxy) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn latency_histogram_empty() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), Duration::ZERO);
        assert_eq!(h.p50(), Duration::ZERO);
        assert_eq!(h.max(), Duration::ZERO);
    }

    #[test]
    fn latency_histogram_single_value() {
        let mut h = LatencyHistogram::new();
        h.record_ns(1000);
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), Duration::from_nanos(1000));
        assert_eq!(h.mean(), Duration::from_nanos(1000));
        // The quantile is clamped to the exact max for the top bucket.
        assert_eq!(h.p50(), Duration::from_nanos(1000));
        assert_eq!(h.p99(), Duration::from_nanos(1000));
    }

    #[test]
    fn latency_quantiles_are_ordered_and_conservative() {
        let mut h = LatencyHistogram::new();
        for i in 1..=1000u64 {
            h.record_ns(i * 1000); // 1µs .. 1ms
        }
        assert_eq!(h.count(), 1000);
        let (p50, p95, p99) = (h.p50(), h.p95(), h.p99());
        assert!(p50 <= p95 && p95 <= p99 && p99 <= h.max());
        // Conservative: the reported quantile is >= the true one.
        assert!(p50 >= Duration::from_nanos(500_000));
        assert!(p99 >= Duration::from_nanos(990_000));
        // And within the 2x resolution bound of a log2 histogram.
        assert!(p50 <= Duration::from_nanos(2 * 500_000));
    }

    #[test]
    fn latency_zero_and_extreme_values() {
        let mut h = LatencyHistogram::new();
        h.record_ns(0);
        h.record_ns(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), Duration::from_nanos(u64::MAX));
        assert_eq!(h.quantile(0.0), Duration::from_nanos(1));
        assert_eq!(h.quantile(1.0), Duration::from_nanos(u64::MAX));
    }

    #[test]
    fn latency_merge_accumulates() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(Duration::from_micros(10));
        b.record(Duration::from_micros(1000));
        b.record(Duration::from_micros(2000));
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max(), Duration::from_micros(2000));
        assert!(a.p99() >= Duration::from_micros(1000));
    }

    #[test]
    #[should_panic(expected = "quantile must be in [0, 1]")]
    fn latency_quantile_range_checked() {
        LatencyHistogram::new().quantile(1.5);
    }
}
