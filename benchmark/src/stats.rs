//! Order statistics used by every report.

/// Sorted copy with NaNs ordered last (they never occur in measured
/// times; a NaN fidelity value is caught by the output checks).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median; 0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest rank of a percentile given in tenths of a percent. Integer
/// arithmetic: `0.999 * 10000` is not 9990 in floating point, and an
/// off-by-one rank moves the count of samples beyond it.
fn rank(n: usize, per_mille: usize) -> usize {
    (n * per_mille).div_ceil(1000).clamp(1, n)
}

/// Nearest-rank percentile `p` in `(0, 100]`, to a tenth of a percent; 0
/// for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    v[rank(v.len(), (p * 10.0).round() as usize) - 1]
}

/// The percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// The reporting rule for a timing sample: the highest percentile of the
/// ladder that still has at least ten samples beyond it, with its value.
/// `None` when even p75 has fewer (under 40 samples) — then only the
/// median is meaningful.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    TAIL_LADDER
        .iter()
        .find(|&&p| n > 0 && n - rank(n, (p * 10.0).round() as usize) >= 10)
        .map(|&p| (p, percentile(values, p)))
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) computes them —
/// the benchmark driver judges run-to-run spread with that function, so
/// `--repeat` must agree with it. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values);
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let sample = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 39 samples: p75 leaves 9 beyond — nothing qualifies.
        assert_eq!(tail(&sample(39)), None);
        // 40 samples: p75 leaves exactly 10.
        assert_eq!(tail(&sample(40)), Some((75.0, 30.0)));
        // 200 samples: p95 leaves 10; p99 would leave 2.
        assert_eq!(tail(&sample(200)), Some((95.0, 190.0)));
        // 1000 samples: p99 leaves 10; p99.9 would leave 1.
        assert_eq!(tail(&sample(1000)), Some((99.0, 990.0)));
        assert_eq!(tail(&sample(10_000)), Some((99.9, 9990.0)));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), Some((7.5, 22.5)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]), Some((1.5, 12.0)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&v), Some(1.0));
    }
}
