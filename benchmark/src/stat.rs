//! Order statistics over small sample sets.

/// The `p`-th percentile (0–100) of `samples` by linear interpolation
/// between closest ranks; 0 for an empty set.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 100.0) / 100.0 * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The percentile to report when `wanted` is asked of `n` samples: the
/// highest one, up to `wanted`, that still has at least ten samples
/// beyond it, and never below the median. A p90 of 12 samples would be
/// one sample's luck; this reads p50 there and p90 from 100 samples on.
pub fn supported_percentile(n: usize, wanted: f64) -> f64 {
    if n <= 10 {
        return 50.0;
    }
    let highest = 100.0 * (n - 10) as f64 / n as f64;
    wanted.min(highest).max(50.0)
}

/// [`percentile`] at [`supported_percentile`].
pub fn tail(samples: &[f64], wanted: f64) -> f64 {
    percentile(samples, supported_percentile(samples.len(), wanted))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_interpolates() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 100.0), 5.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        assert_eq!(supported_percentile(5, 90.0), 50.0);
        assert_eq!(
            supported_percentile(19, 90.0),
            50.0,
            "never below the median"
        );
        assert_eq!(supported_percentile(40, 90.0), 75.0);
        assert_eq!(supported_percentile(100, 90.0), 90.0);
        assert_eq!(supported_percentile(600, 90.0), 90.0);
        assert_eq!(supported_percentile(600, 99.0), 100.0 * 590.0 / 600.0);
        for n in 20..2000 {
            let p = supported_percentile(n, 99.9);
            assert!(
                (n as f64 * (1.0 - p / 100.0)).round() >= 10.0,
                "n={n} p={p}"
            );
        }
    }
}
