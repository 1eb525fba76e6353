//! Order statistics over timing samples.

/// Median (mean of the two middle values for an even count). `NaN` on an
/// empty slice.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile (`p` in 0..=100) — the same definition the
/// serving layer uses for its own latency reports.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    s[rank.clamp(1, n) - 1]
}

/// The highest whole percentile with at least ten samples beyond it: for
/// 1,000 samples that is p99, for 400 it is p97. `None` below 40 samples,
/// where no percentile above the median leaves ten samples out.
pub fn tail_percentile(count: usize) -> Option<f64> {
    (count >= 40).then(|| ((100 * (count - 10)) / count) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(400), Some(97.0));
        assert_eq!(tail_percentile(39), None);
        for n in [40usize, 123, 1000, 4096] {
            let p = tail_percentile(n).unwrap();
            let beyond = n - (p / 100.0 * n as f64).ceil() as usize;
            assert!(beyond >= 10, "n={n} p={p} leaves {beyond}");
        }
    }
}
