//! Order statistics for wall-clock samples.

/// Percentile `p` (0–100) of `samples` by linear interpolation between
/// closest ranks. `NaN` for an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 100.0) / 100.0 * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The percentiles the benchmark reports, lowest first.
const LADDER: [f64; 5] = [50.0, 75.0, 90.0, 95.0, 99.0];

/// The highest percentile of [`LADDER`] that still has at least ten of `n`
/// samples beyond it; the median when none has. A tail read off fewer
/// samples than that is one outlier, not a percentile.
pub fn supported_tail(n: usize) -> f64 {
    LADDER.iter().copied().filter(|p| n as f64 * (100.0 - p) / 100.0 >= 10.0).fold(50.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&v, 95.0), 96.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 101.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(7), 50.0);
        assert_eq!(supported_tail(19), 50.0);
        assert_eq!(supported_tail(40), 75.0);
        assert_eq!(supported_tail(100), 90.0);
        assert_eq!(supported_tail(199), 90.0);
        assert_eq!(supported_tail(200), 95.0);
        assert_eq!(supported_tail(999), 95.0);
        assert_eq!(supported_tail(1000), 99.0);
    }
}
