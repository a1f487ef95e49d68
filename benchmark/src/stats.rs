//! Order statistics and the percentile rule every timing in the benchmark
//! follows: a timing is reported as its median plus, at most, the highest
//! percentile that still has ten samples beyond it.

/// Percentiles a tail may be reported at, ascending.
const LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Samples a percentile needs beyond it before it may be reported.
const MIN_BEYOND: f64 = 10.0;

/// Whether `n` samples support reporting percentile `p`: at least ten of
/// them must lie beyond it.
pub fn supports(p: f64, n: usize) -> bool {
    n as f64 * (1.0 - p / 100.0) >= MIN_BEYOND - 1e-9
}

/// The highest ladder percentile `n` samples support; `None` below twenty
/// samples, where only the median is reported.
pub fn highest_supported(n: usize) -> Option<f64> {
    LADDER.iter().copied().rfind(|&p| supports(p, n))
}

/// Median of `values` (mean of the middle two for even counts). Panics on
/// an empty slice: every caller measured at least one sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Mean of `values`; panics on an empty slice, as [`median`] does.
pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of no samples");
    values.iter().sum::<f64>() / values.len() as f64
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// First and third quartile by the "exclusive" method, which is what
/// Python's `statistics.quantiles(values, n=4)` computes and the driver
/// applies. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let at = |k: usize| {
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        sorted[j - 1] + frac * (sorted[j] - sorted[j - 1])
    };
    Some((at(1), at(3)))
}

/// Interquartile range as a share of the median — the spread a bound is
/// held against. `None` for fewer than four values, where quartiles say
/// nothing.
pub fn spread(values: &[f64]) -> Option<f64> {
    if values.len() < 4 {
        return None;
    }
    let (q1, q3) = quartiles(values)?;
    let m = median(values);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ten_samples_support_the_median_only() {
        assert_eq!(highest_supported(10), None);
        assert!(!supports(50.0, 10));
        assert_eq!(highest_supported(19), None);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(highest_supported(20), Some(50.0));
        assert_eq!(highest_supported(40), Some(75.0));
        assert_eq!(highest_supported(99), Some(75.0));
        assert_eq!(highest_supported(100), Some(90.0));
        assert_eq!(highest_supported(125), Some(90.0));
        assert_eq!(highest_supported(200), Some(95.0));
        assert_eq!(highest_supported(1000), Some(99.0));
        assert_eq!(highest_supported(25_000), Some(99.9));
        assert!(supports(99.0, 25_000));
        assert!(!supports(99.0, 999));
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        let (q1, q3) = quartiles(&[1.0, 2.0, 4.0, 8.0]).unwrap();
        assert!((q1 - 1.25).abs() < 1e-12 && (q3 - 7.0).abs() < 1e-12);
        assert!((spread(&[1.0, 2.0, 4.0, 8.0]).unwrap() - 5.75 / 3.0).abs() < 1e-12);
        assert_eq!(spread(&[1.0, 2.0, 3.0]), None);
    }
}
