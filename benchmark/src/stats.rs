//! Order statistics used by every metric: percentiles, medians, the
//! quartile spread the bounds are derived from, and the pair median
//! behind `speedup_vs_klu`.

/// The `q`-quantile (`0.0..=1.0`) of `samples` by the nearest-rank rule
/// on a sorted copy: the smallest sample with at least `q` of the
/// samples at or below it. `None` on an empty slice. The nearest-rank
/// rule returns a value that was actually measured, which is what a
/// latency percentile should be.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// The median: the mean of the two middle samples for an even count.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    })
}

/// First and third quartile by the exclusive method — the rule of
/// Python's `statistics.quantiles(values, n=4)`, which the acceptance
/// procedure for this benchmark uses. `None` below two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n < 2 {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |k: usize| {
        // Rank k·(n+1)/4, 1-based; the interval is clamped to the data
        // but the offset is not, so small samples extrapolate — exactly
        // as CPython does.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((at(1), at(3)))
}

/// Interquartile distance as a share of the median — the "spread" a
/// metric's bound is compared against. `None` when it cannot be formed
/// (fewer than two samples, or a zero median).
pub fn spread(samples: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(samples)?;
    let m = median(samples)?;
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// Median over pairs of `reference / system` — `speedup_vs_klu`. Taking
/// the ratio inside each pair before the median cancels drift that
/// moves both lanes together (another tenant on the machine, thermal
/// state), which a ratio of two medians would not.
pub fn pair_median(pairs: &[(f64, f64)]) -> Option<f64> {
    let ratios: Vec<f64> = pairs
        .iter()
        .filter(|(_, system)| *system > 0.0)
        .map(|(reference, system)| reference / system)
        .collect();
    median(&ratios)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), Some(50.0));
        assert_eq!(percentile(&v, 0.95), Some(95.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        // Unsorted input, small sample: p95 of 5 is the maximum.
        assert_eq!(percentile(&[5.0, 1.0, 4.0, 2.0, 3.0], 0.95), Some(5.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let (q1, q3) = quartiles(&[4.0, 1.0, 2.0]).unwrap();
        assert_eq!((q1, q3), (1.0, 4.0));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        let (q1, q3) = quartiles(&[1.0, 3.0]).unwrap();
        assert_eq!((q1, q3), (0.5, 3.5));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v).unwrap() - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn pair_median_takes_ratio_inside_each_pair() {
        // Drift doubles both lanes in the second pair: the ratio holds.
        let pairs = [(2.0, 1.0), (4.0, 2.0), (3.0, 1.0)];
        assert_eq!(pair_median(&pairs), Some(2.0));
        assert_eq!(pair_median(&[(1.0, 0.0)]), None);
    }
}
