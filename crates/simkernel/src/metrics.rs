//! The exact histogram behind the trace registry's distributions.
//!
//! It is a deliberately simple, exact-by-construction recorder: experiments
//! run at most a few million samples, so storing raw values and sorting on
//! demand is both affordable and free of estimator bias, which matters when a
//! result is a p99.99 (Figure 23 of the paper).

/// A collection of scalar samples with exact quantile queries.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    samples: Vec<f64>,
    sorted: bool,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample. Non-finite values are rejected (and counted as a
    /// programming error in debug builds) so quantiles stay well-defined.
    pub fn record(&mut self, value: f64) {
        debug_assert!(value.is_finite(), "recorded non-finite sample: {value}");
        if value.is_finite() {
            self.samples.push(value);
            self.sorted = false;
        }
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Arithmetic mean, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.samples.iter().sum::<f64>() / self.samples.len() as f64)
        }
    }

    /// Maximum sample, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        self.samples.iter().copied().reduce(f64::max)
    }

    /// Exact quantile with linear interpolation, `q` in `[0, 1]`.
    ///
    /// Returns `None` when empty or when `q` is out of range / non-finite.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        if self.samples.is_empty() || !(0.0..=1.0).contains(&q) {
            return None;
        }
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
            self.sorted = true;
        }
        let n = self.samples.len();
        if n == 1 {
            return Some(self.samples[0]);
        }
        let pos = q * (n - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        Some(self.samples[lo] * (1.0 - frac) + self.samples[hi] * frac)
    }

    /// Convenience percentile query, `p` in `[0, 100]`.
    pub fn percentile(&mut self, p: f64) -> Option<f64> {
        self.quantile(p / 100.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_queries() {
        let mut h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn mean_and_max() {
        let mut h = Histogram::new();
        for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            h.record(v);
        }
        assert!((h.mean().unwrap() - 5.0).abs() < 1e-12);
        assert_eq!(h.max(), Some(9.0));
    }

    #[test]
    fn quantiles_interpolate() {
        let mut h = Histogram::new();
        for v in 1..=4 {
            h.record(v as f64);
        }
        assert_eq!(h.quantile(0.0), Some(1.0));
        assert_eq!(h.quantile(1.0), Some(4.0));
        assert!((h.quantile(0.5).unwrap() - 2.5).abs() < 1e-12);
        assert!((h.percentile(25.0).unwrap() - 1.75).abs() < 1e-12);
        assert_eq!(h.quantile(1.5), None);
        assert_eq!(h.quantile(-0.1), None);
    }

    #[test]
    fn single_sample_quantile() {
        let mut h = Histogram::new();
        h.record(3.5);
        assert_eq!(h.quantile(0.999), Some(3.5));
    }

    #[test]
    fn non_finite_samples_rejected_in_release() {
        let mut h = Histogram::new();
        // This would debug_assert, so only exercise the release path shape.
        if !cfg!(debug_assertions) {
            h.record(f64::NAN);
            assert!(h.is_empty());
        }
        h.record(1.0);
        assert_eq!(h.len(), 1);
    }
}
