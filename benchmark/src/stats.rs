//! The benchmark's own arithmetic on samples.

/// A percentile is reported only when at least this many samples lie
/// beyond it; below that the tail estimate is one or two outliers.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Why a percentile was refused.
#[derive(Debug, PartialEq, Eq)]
pub struct TooFewSamples {
    pub samples: usize,
    pub beyond: usize,
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle samples for an even count). NaN when
/// there are no samples.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// 1-based nearest rank of percentile `p` among `n` values.
fn rank(n: usize, p: f64) -> usize {
    assert!(p > 0.0 && p < 100.0, "percentile {p} out of range");
    (((p / 100.0) * n as f64).ceil() as usize).max(1)
}

/// Nearest-rank percentile `p` in (0, 100) of a non-empty set, with no
/// demand on how many values lie beyond it.
pub fn nearest_rank(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    v[rank(v.len(), p) - 1]
}

/// Nearest-rank percentile `p` in (0, 100), refused when fewer than
/// [`MIN_SAMPLES_BEYOND`] samples lie strictly beyond the chosen rank.
pub fn percentile(values: &[f64], p: f64) -> Result<f64, TooFewSamples> {
    let n = values.len();
    let beyond = n.saturating_sub(rank(n, p));
    if n == 0 || beyond < MIN_SAMPLES_BEYOND {
        return Err(TooFewSamples { samples: n, beyond });
    }
    Ok(nearest_rank(values, p))
}

/// First and third quartile by the exclusive method, as Python's
/// `statistics.quantiles(values, n=4)` computes them. `None` below two
/// samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let at = |k: usize| {
        // position k(n+1)/4, 1-based, linearly interpolated and clamped
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Interquartile distance as a share of the median: the run-to-run
/// spread `compare` sets against a metric's bound. 0 below two samples.
pub fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some((q1, q3)) => (q3 - q1).abs() / median(values).abs(),
        None => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_when_fewer_than_ten_samples_lie_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // rank 90 of 100: exactly ten samples beyond.
        assert_eq!(percentile(&v, 90.0), Ok(90.0));
        assert_eq!(percentile(&v, 50.0), Ok(50.0));
        assert_eq!(
            percentile(&v, 91.0),
            Err(TooFewSamples {
                samples: 100,
                beyond: 9
            })
        );
        assert_eq!(
            percentile(&v[..99], 90.0),
            Err(TooFewSamples {
                samples: 99,
                beyond: 9
            })
        );
        assert!(percentile(&[], 50.0).is_err());
        assert_eq!(percentile(&v[..20], 50.0), Ok(10.0));
        assert!(percentile(&v[..19], 50.0).is_err());
    }

    #[test]
    fn nearest_rank_needs_no_samples_beyond() {
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50.0), 20.0);
        assert_eq!(nearest_rank(&v, 90.0), 36.0);
        assert_eq!(nearest_rank(&[7.0], 90.0), 7.0);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut v: Vec<f64> = (1..=200).map(f64::from).collect();
        v.reverse();
        assert_eq!(percentile(&v, 90.0), Ok(180.0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[5.0]), 0.0);
    }
}
