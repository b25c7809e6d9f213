//! Order statistics over repeated measurements.

/// The values sorted ascending (NaN-free input assumed; NaNs sort last).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median; the mean of the two middle values for an even count.
///
/// # Panics
/// On an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The `n - 1` cut points dividing the values into `n` groups, by the
/// same rule as Python's `statistics.quantiles(values, n=n)` (the default
/// "exclusive" method), so spreads computed here match the ones an
/// outside checker computes from the same values.
///
/// # Panics
/// With fewer than two values or `n < 1`.
pub fn quantiles(values: &[f64], n: usize) -> Vec<f64> {
    assert!(n >= 1, "quantiles need n >= 1");
    assert!(values.len() >= 2, "quantiles need at least two values");
    let v = sorted(values);
    let m = v.len() + 1;
    (1..n)
        .map(|i| {
            let j = (i * m / n).clamp(1, v.len() - 1);
            let delta = (i * m) as f64 / n as f64 - j as f64;
            v[j - 1] + (v[j] - v[j - 1]) * delta
        })
        .collect()
}

/// The interquartile range as a share of the median.
pub fn relative_iqr(values: &[f64]) -> f64 {
    let q = quantiles(values, 4);
    (q[2] - q[0]) / median(values)
}

/// The nearest-rank `p`-th percentile (0 < p <= 100).
///
/// # Panics
/// On an empty slice or `p` outside (0, 100].
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no values");
    assert!(p > 0.0 && p <= 100.0, "percentile out of range: {p}");
    let v = sorted(values);
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest of the 50th, 90th, 99th and 99.9th percentiles that still
/// has at least ten of `count` samples beyond it, or `None` below twenty
/// samples.
pub fn tail_percentile(count: usize) -> Option<f64> {
    // in per mille, so the "ten beyond" test is exact integer arithmetic
    [999, 990, 900, 500]
        .into_iter()
        .find(|&pm| count * (1000 - pm) >= 10 * 1000)
        .map(|pm| pm as f64 / 10.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantiles(&v, 4), vec![2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quantiles(&[16.0, 1.0, 8.0, 2.0, 4.0], 4),
            vec![1.5, 4.0, 12.0]
        );
        // two values: both cut points clamp to the ends' interpolation
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quantiles(&[1.0, 3.0], 4), vec![0.5, 2.0, 3.5]);
    }

    #[test]
    fn relative_iqr_is_scale_free() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let w: Vec<f64> = v.iter().map(|x| x * 1000.0).collect();
        assert!((relative_iqr(&v) - 1.0).abs() < 1e-12);
        assert!((relative_iqr(&w) - relative_iqr(&v)).abs() < 1e-12);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }
}
