//! Order statistics: the percentile rule and the quartiles `compare` and
//! the bound-setting procedure use.

/// A percentile is reported only when at least this many samples lie above
/// it: p99 needs 1000 samples, p95 200, p50 20.
pub const MIN_BEYOND: usize = 10;

/// Samples a class needs before its median can be reported.
pub const MIN_FOR_MEDIAN: usize = 2 * MIN_BEYOND;

/// Nearest-rank `pct`-th percentile of ascending `sorted`, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], pct: usize) -> Option<f64> {
    let n = sorted.len();
    // Integer ceil(pct * n / 100): float products like 0.99 * 1000 round
    // up past the exact rank.
    let rank = (pct * n).div_ceil(100);
    if rank == 0 || n < rank + MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// The highest of p99, p95 and p90 the sample count allows.
pub fn tail(sorted: &[f64]) -> Option<(usize, f64)> {
    [99, 95, 90]
        .into_iter()
        .find_map(|p| percentile(sorted, p).map(|v| (p, v)))
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// computes them (the default "exclusive" method), so spreads printed here
/// match the ones the acceptance procedure computes.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Interquartile range as a share of the median.
pub fn relative_iqr(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_is_withheld_below_1000_samples() {
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&v, 99), None);
        assert_eq!(percentile(&v, 95), Some(950.0));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99), Some(990.0));
        assert_eq!(tail(&v), Some((99, 990.0)));
    }

    #[test]
    fn p95_needs_200_and_p50_needs_20() {
        let v: Vec<f64> = (1..=199).map(f64::from).collect();
        assert_eq!(percentile(&v, 95), None);
        assert_eq!(tail(&v), Some((90, 180.0)));
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 95), Some(190.0));
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), None);
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), Some(10.0));
        assert_eq!(tail(&v), None);
    }

    #[test]
    fn quartiles_follow_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
