//! Order statistics over timing samples.

/// Median of `samples` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice: a metric without samples is reported as
/// absent by the caller, never as a made-up number.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// How many samples must lie beyond a percentile before it is reported.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (in `(0, 100)`), refused (`None`) unless at
/// least [`MIN_SAMPLES_BEYOND`] samples lie beyond it: a tail read off a
/// handful of samples is noise with a name.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 100.0, "percentile {p} outside (0, 100)");
    let n = samples.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    if rank == 0 || n - rank < MIN_SAMPLES_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_refuses_without_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 samples has exactly ten beyond it; p91 has nine.
        assert_eq!(percentile(&samples, 90.0), Some(90.0));
        assert_eq!(percentile(&samples, 91.0), None);
        // The median of 19 samples has only nine beyond it.
        assert_eq!(percentile(&samples[..19], 50.0), None);
        assert_eq!(percentile(&samples[..20], 50.0), Some(10.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn p95_needs_two_hundred_samples() {
        let samples: Vec<f64> = (1..=224).map(f64::from).collect();
        assert_eq!(percentile(&samples, 95.0), Some(213.0));
        assert_eq!(percentile(&samples[..199], 95.0), None);
    }
}
