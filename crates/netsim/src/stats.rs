//! Streaming statistics shared by the experiment harnesses.
//!
//! Small, dependency-free estimators used everywhere the paper reports a
//! statistic: exact percentiles over retained samples (the evaluation's
//! CDFs and tail-jitter plots), EWMA (the §5.3 feedback filter), and
//! fixed-width time-series binning.

use crate::time::{SimDuration, SimTime};

/// Percentile estimator that retains all samples (exact; suitable for the
/// 10^5–10^6 sample sizes of these experiments).
#[derive(Debug, Clone, Default)]
pub struct Percentiles {
    samples: Vec<f64>,
    sorted: bool,
}

impl Percentiles {
    /// Create an empty estimator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a sample.
    pub fn add(&mut self, x: f64) {
        self.samples.push(x);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// The `q`-quantile (`q` in `[0,1]`), by nearest-rank on the sorted
    /// samples. Returns `None` when empty.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
            self.sorted = true;
        }
        let q = q.clamp(0.0, 1.0);
        // Nearest-rank definition: smallest value with CDF >= q.
        let rank = (q * self.samples.len() as f64).ceil() as usize;
        let idx = rank.saturating_sub(1).min(self.samples.len() - 1);
        Some(self.samples[idx])
    }

    /// Median (p50).
    pub fn median(&mut self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// Evaluate the empirical CDF at evenly spaced sample points, returning
    /// `(value, cumulative_fraction)` pairs — the format Fig. 19 plots.
    pub fn cdf_points(&mut self, points: usize) -> Vec<(f64, f64)> {
        if self.samples.is_empty() || points == 0 {
            return Vec::new();
        }
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
            self.sorted = true;
        }
        let n = self.samples.len();
        (0..points)
            .map(|i| {
                let frac = (i as f64 + 1.0) / points as f64;
                let idx = ((n as f64 * frac).ceil() as usize - 1).min(n - 1);
                (self.samples[idx], frac)
            })
            .collect()
    }

    /// Mean of all samples.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }
}

/// Exponentially weighted moving average — the filter Scallop's switch
/// agent applies to per-downlink REMB estimates (§5.3).
#[derive(Debug, Clone, Copy)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// `alpha` is the weight of a new observation (`0 < alpha <= 1`).
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0,1]");
        Ewma { alpha, value: None }
    }

    /// Fold in an observation and return the new average.
    pub fn update(&mut self, x: f64) -> f64 {
        let v = match self.value {
            None => x,
            Some(prev) => prev + self.alpha * (x - prev),
        };
        self.value = Some(v);
        v
    }

    /// Current average, if any observation has been folded in.
    pub fn value(&self) -> Option<f64> {
        self.value
    }
}

/// Accumulates a value per fixed-width time bin — used for every
/// "X over time" figure (bitrate series, concurrency series).
#[derive(Debug, Clone)]
pub struct TimeSeries {
    bin: SimDuration,
    bins: Vec<f64>,
}

impl TimeSeries {
    /// Create a series with the given bin width.
    pub fn new(bin: SimDuration) -> Self {
        assert!(bin > SimDuration::ZERO, "bin width must be positive");
        TimeSeries {
            bin,
            bins: Vec::new(),
        }
    }

    /// Add `value` into the bin containing `at`.
    pub fn add(&mut self, at: SimTime, value: f64) {
        let idx = (at.as_nanos() / self.bin.as_nanos()) as usize;
        if idx >= self.bins.len() {
            self.bins.resize(idx + 1, 0.0);
        }
        self.bins[idx] += value;
    }

    /// `(bin_start_seconds, sum)` for every bin.
    pub fn points(&self) -> Vec<(f64, f64)> {
        let w = self.bin.as_secs_f64();
        self.bins
            .iter()
            .enumerate()
            .map(|(i, v)| (i as f64 * w, *v))
            .collect()
    }

    /// Maximum bin value.
    pub fn max(&self) -> f64 {
        self.bins.iter().cloned().fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_exact() {
        let mut p = Percentiles::new();
        for x in 1..=100 {
            p.add(x as f64);
        }
        assert_eq!(p.quantile(0.0), Some(1.0));
        assert_eq!(p.quantile(1.0), Some(100.0));
        assert_eq!(p.median(), Some(50.0));
        assert_eq!(p.quantile(0.95), Some(95.0));
        assert_eq!(Percentiles::new().median(), None);
    }

    #[test]
    fn percentiles_interleaved_adds() {
        let mut p = Percentiles::new();
        p.add(5.0);
        assert_eq!(p.median(), Some(5.0));
        p.add(1.0);
        p.add(9.0);
        assert_eq!(p.median(), Some(5.0));
        assert_eq!(p.count(), 3);
    }

    #[test]
    fn cdf_points_are_monotone() {
        let mut p = Percentiles::new();
        for x in [5.0, 1.0, 3.0, 2.0, 4.0] {
            p.add(x);
        }
        let cdf = p.cdf_points(5);
        assert_eq!(cdf.len(), 5);
        for w in cdf.windows(2) {
            assert!(w[1].0 >= w[0].0);
            assert!(w[1].1 > w[0].1);
        }
        assert_eq!(cdf.last().unwrap().0, 5.0);
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ewma_converges() {
        let mut e = Ewma::new(0.5);
        assert_eq!(e.value(), None);
        assert_eq!(e.update(10.0), 10.0);
        assert_eq!(e.update(20.0), 15.0);
        assert_eq!(e.update(20.0), 17.5);
        assert_eq!(e.value(), Some(17.5));
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn ewma_rejects_bad_alpha() {
        let _ = Ewma::new(0.0);
    }

    #[test]
    fn time_series_bins_and_rates() {
        let mut ts = TimeSeries::new(SimDuration::from_secs(1));
        ts.add(SimTime::from_millis(100), 10.0);
        ts.add(SimTime::from_millis(900), 20.0);
        ts.add(SimTime::from_millis(1500), 5.0);
        // One-second bins: each sum is also the bin's per-second rate.
        let pts = ts.points();
        assert_eq!(pts, vec![(0.0, 30.0), (1.0, 5.0)]);
        assert_eq!(ts.max(), 30.0);
    }
}
