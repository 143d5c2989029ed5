//! Order statistics for timing samples.

/// Median with quartiles and the sample count, as every timing is reported.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples summarised.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

/// Percentiles a timing may be reported at, ascending, each with the
/// number of samples of which one lies beyond it (p99: one in 100).
const TAILS: [(f64, usize); 5] = [
    (50.0, 2),
    (90.0, 10),
    (99.0, 100),
    (99.9, 1_000),
    (99.99, 10_000),
];

/// The highest percentile of [`TAILS`] that still has at least ten of
/// `n` samples beyond it; `None` below twenty samples.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    TAILS
        .iter()
        .filter(|(_, one_in)| n / one_in >= 10)
        .map(|(p, _)| *p)
        .next_back()
}

/// Linear-interpolated percentile `p` (0–100) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Sort `samples` in place and summarise them.
pub fn summarize(samples: &mut [f64]) -> Summary {
    samples.sort_by(f64::total_cmp);
    Summary {
        n: samples.len(),
        q1: percentile(samples, 25.0),
        median: percentile(samples, 50.0),
        q3: percentile(samples, 75.0),
    }
}

/// `percentile(p)` of the samples if at least ten samples lie beyond
/// it, otherwise the highest percentile that is supported. Sorts in place.
pub fn tail(samples: &mut [f64], p: f64) -> f64 {
    samples.sort_by(f64::total_cmp);
    let p = highest_supported_percentile(samples.len()).map_or(50.0, |best| best.min(p));
    percentile(samples, p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picker_keeps_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(100_000), Some(99.99));
        assert_eq!(highest_supported_percentile(10_000_000), Some(99.99));
    }

    #[test]
    fn summary_of_known_samples() {
        let mut s: Vec<f64> = (1..=9).rev().map(f64::from).collect();
        let sum = summarize(&mut s);
        assert_eq!(sum.n, 9);
        assert_eq!((sum.q1, sum.median, sum.q3), (3.0, 5.0, 7.0));
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 100.0), 9.0);
        assert_eq!(percentile(&[1.0, 2.0], 50.0), 1.5);
    }

    #[test]
    fn tail_falls_back_when_too_few_samples() {
        let mut few: Vec<f64> = (0..100).map(f64::from).collect();
        // 100 samples support p90, not p99.
        assert_eq!(tail(&mut few, 99.0), percentile(&few, 90.0));
        let mut many: Vec<f64> = (0..2_000).map(f64::from).collect();
        assert_eq!(tail(&mut many, 99.0), percentile(&many, 99.0));
    }
}
