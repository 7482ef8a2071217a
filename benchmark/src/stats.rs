//! Order statistics: percentiles of samples, and the quartile spread the
//! acceptance rule is written in.

/// The percentiles a latency may be reported at, lowest first, in hundredths
/// of a percent (so that "samples beyond" is whole-number arithmetic).
pub const PERCENTILE_LADDER: [u64; 6] = [5_000, 9_000, 9_500, 9_900, 9_990, 9_999];

/// How many samples must lie beyond a percentile before it is reported:
/// with fewer, the figure is one or two outliers, not a percentile.
pub const MIN_SAMPLES_BEYOND: u64 = 10;

/// Nearest-rank percentile of an ascending slice (`None` when empty).
pub fn percentile(sorted: &[u64], pct: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The highest rung of [`PERCENTILE_LADDER`] that still has at least
/// [`MIN_SAMPLES_BEYOND`] of `n` samples beyond it (`None` below 20 samples,
/// where not even the median qualifies).
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    PERCENTILE_LADDER
        .iter()
        .rfind(|&&pct| n as u64 * (10_000 - pct) >= MIN_SAMPLES_BEYOND * 10_000)
        .map(|&pct| pct as f64 / 100.0)
}

/// Median of a sample (`NaN` when empty); sorts in place.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` gives them (the "exclusive" method);
/// `None` below two samples.  The acceptance rule measures run-to-run spread
/// as `(q3 - q1) / median`, so `compare` must compute the same quartiles.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let m = values.len();
    if m < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// A duration in milliseconds.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), Some(50));
        assert_eq!(percentile(&v, 95.0), Some(95));
        assert_eq!(percentile(&v, 99.0), Some(99));
        assert_eq!(percentile(&v, 100.0), Some(100));
        assert_eq!(percentile(&v, 0.0), Some(1));
        assert_eq!(percentile(&[7], 99.9), Some(7));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn highest_supported_percentile_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(999), Some(95.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(800_000), Some(99.99));
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&mut []).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15.0, 30.0, 45.0]
        assert_eq!(
            quartiles(&[10.0, 20.0, 30.0, 40.0, 50.0]),
            Some((15.0, 45.0))
        );
        assert_eq!(quartiles(&[1.0]), None);
    }
}
