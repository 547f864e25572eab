//! Order statistics over latency samples.

/// Fewest samples the tail statistic averages.
const TAIL_MIN_SAMPLES: usize = 10;

/// Median of `values` in any order: the middle value, or the mean of
/// the middle two (Python's `statistics.median`).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of no samples");
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// An ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The tail statistic: mean of the slowest tenth of `sorted`
/// (ascending, non-empty), and at least the ten slowest samples. Returns
/// the mean and how many samples it averaged.
///
/// A single high percentile of these mixes is set by one or two of the
/// most input-dependent operations and did not repeat between seed sets;
/// the mean of the slowest tenth keeps every stall in view and repeats.
pub fn tail_mean(sorted: &[f64]) -> (f64, usize) {
    assert!(!sorted.is_empty(), "tail of no samples");
    let n = sorted.len();
    let k = n.div_ceil(10).max(TAIL_MIN_SAMPLES).min(n);
    let tail = &sorted[n - k..];
    (tail.iter().sum::<f64>() / k as f64, k)
}

/// First and third quartile, computed like Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method). Needs at least two values.
fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let ld = v.len();
    assert!(ld >= 2, "quartiles need at least two values");
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Inter-quartile distance as a share of the median (0 for fewer than
/// two values or a zero median).
pub fn rel_spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let med = median(values);
    if med == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    ((q3 - q1) / med).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_interpolates_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_averages_the_slowest_tenth_and_at_least_ten() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail_mean(&v), ((181..=200).sum::<i32>() as f64 / 20.0, 20));
        let few: Vec<f64> = (1..=30).map(f64::from).collect();
        assert_eq!(tail_mean(&few), ((21..=30).sum::<i32>() as f64 / 10.0, 10));
        assert_eq!(tail_mean(&[4.0, 6.0]), (5.0, 2));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        assert!((rel_spread(&v) - 5.5 / 5.5).abs() < 1e-12);
    }
}
