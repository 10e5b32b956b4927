//! Statistics helpers: medians, guarded percentiles, geometric means and
//! layer times derived by subtraction.

/// Minimum number of samples that must lie beyond a percentile before it is
/// reported; with fewer, the percentile is one or two outliers, not a tail.
pub const MIN_BEYOND: usize = 10;

/// Median of `samples` (mean of the two middle values for an even count).
/// `None` for an empty slice.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let sorted = sorted(samples);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// Nearest-rank percentile `p` (0 < p < 1) of `samples`, reported only when
/// at least [`MIN_BEYOND`] samples lie strictly above its rank.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 1.0, "percentile must lie in (0, 1)");
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted(samples)[rank - 1])
}

/// Nearest-rank lower decile of `samples`: the figure of the fastest tenth
/// of a run's windows. `None` for an empty slice.
pub fn lower_decile(samples: &[f64]) -> Option<f64> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let rank = ((0.1 * n as f64).ceil() as usize).clamp(1, n);
    Some(sorted(samples)[rank - 1])
}

/// Geometric mean of strictly positive values; `None` when the slice is
/// empty or holds a value that is not positive.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| v.is_nan() || *v <= 0.0) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

/// A layer time derived as `total - parts…` from separately measured
/// medians. Timer noise can make the difference negative; such a value is
/// kept as measured and flagged, never clamped to zero.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Derived {
    pub value: f64,
    pub negative: bool,
}

/// `total` minus every value in `parts`, flagged when the result is negative.
pub fn derive(total: f64, parts: &[f64]) -> Derived {
    let value = total - parts.iter().sum::<f64>();
    Derived {
        value,
        negative: value < 0.0,
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled 1..=n, so the helpers must sort.
        let mut v: Vec<f64> = (1..=n).map(|i| i as f64).collect();
        v.reverse();
        v.swap(0, n / 2);
        v
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples has exactly 10 above its rank (990).
        assert_eq!(percentile(&ramp(1000), 0.99), Some(990.0));
        // With 999 samples only 9 lie beyond: not reported.
        assert_eq!(percentile(&ramp(999), 0.99), None);
        // p50 of 20 samples has 10 above rank 10.
        assert_eq!(percentile(&ramp(20), 0.5), Some(10.0));
        assert_eq!(percentile(&ramp(19), 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn lower_decile_takes_the_nearest_rank() {
        assert_eq!(lower_decile(&ramp(100)), Some(10.0));
        assert_eq!(lower_decile(&ramp(25)), Some(3.0));
        // Few windows clamp to the fastest.
        assert_eq!(lower_decile(&[3.0, 1.0, 2.0]), Some(1.0));
        assert_eq!(lower_decile(&[]), None);
    }

    #[test]
    fn geomean_of_positive_values() {
        let g = geomean(&[1.0, 100.0]).unwrap();
        assert!((g - 10.0).abs() < 1e-9, "{g}");
        let g = geomean(&[2.0, 2.0, 2.0]).unwrap();
        assert!((g - 2.0).abs() < 1e-12, "{g}");
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[1.0, -3.0]), None);
        assert_eq!(geomean(&[f64::NAN]), None);
    }

    #[test]
    fn derived_times_are_flagged_when_negative() {
        let d = derive(10.0, &[3.0, 2.0]);
        assert_eq!(d.value, 5.0);
        assert!(!d.negative);
        // Noise: the parts' medians exceed the total's median.
        let d = derive(4.0, &[3.0, 2.0]);
        assert_eq!(d.value, -1.0);
        assert!(
            d.negative,
            "a negative difference must be flagged, not clamped"
        );
        assert!(!derive(5.0, &[5.0]).negative);
    }
}
