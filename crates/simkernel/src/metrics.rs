//! Measurement primitives used by experiments and the online logger.
//!
//! These are deliberately simple, exact-by-construction recorders: experiments
//! run at most a few million samples, so storing raw values and sorting on
//! demand is both affordable and free of estimator bias, which matters when a
//! result is a p99.99 (Figure 23 of the paper).

use crate::time::{SimDuration, SimTime};

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

    /// Records a duration in seconds.
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_secs_f64());
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

    /// Sample standard deviation (n-1 denominator), or `None` with < 2 samples.
    pub fn std_dev(&self) -> Option<f64> {
        if self.samples.len() < 2 {
            return None;
        }
        let mean = self.mean()?;
        let var = self
            .samples
            .iter()
            .map(|x| (x - mean) * (x - mean))
            .sum::<f64>()
            / (self.samples.len() - 1) as f64;
        Some(var.sqrt())
    }

    /// Minimum sample, or `None` if empty.
    pub fn min(&self) -> Option<f64> {
        self.samples.iter().copied().reduce(f64::min)
    }

    /// Maximum sample, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        self.samples.iter().copied().reduce(f64::max)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.samples.iter().sum()
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

    /// A copy of the raw samples (unsorted recording order not guaranteed
    /// after a quantile query).
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Buckets samples into `[edges[i], edges[i+1])` counts, with a final
    /// overflow bucket for values `>= edges.last()`. Used to print the paper's
    /// distribution figures (e.g. Figure 2).
    pub fn bucket_counts(&self, edges: &[f64]) -> Vec<u64> {
        let mut counts = vec![0u64; edges.len()];
        for &s in &self.samples {
            let mut idx = edges.len() - 1;
            for (i, window) in edges.windows(2).enumerate() {
                if s >= window[0] && s < window[1] {
                    idx = i;
                    break;
                }
            }
            if s < edges[0] {
                continue;
            }
            counts[idx] += 1;
        }
        counts
    }
}

/// A time-stamped scalar series, e.g. per-minute throughput (Figure 3) or a
/// rolling p99.99 (Figure 23).
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        TimeSeries::default()
    }

    /// Appends a point. Timestamps are expected to be non-decreasing.
    pub fn push(&mut self, at: SimTime, value: f64) {
        debug_assert!(
            self.points.last().is_none_or(|(t, _)| *t <= at),
            "TimeSeries points must be pushed in time order"
        );
        self.points.push((at, value));
    }

    /// All recorded points.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when no points have been recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Groups points into fixed windows and returns `(window_start, f(values))`
    /// per non-empty window.
    pub fn windowed<F: Fn(&[f64]) -> f64>(&self, window: SimDuration, f: F) -> Vec<(SimTime, f64)> {
        if self.points.is_empty() || window.is_zero() {
            return Vec::new();
        }
        let mut out = Vec::new();
        let mut bucket: Vec<f64> = Vec::new();
        let mut window_start = SimTime::ZERO;
        for &(t, v) in &self.points {
            while t >= window_start + window {
                if !bucket.is_empty() {
                    out.push((window_start, f(&bucket)));
                    bucket.clear();
                }
                window_start += window;
            }
            bucket.push(v);
        }
        if !bucket.is_empty() {
            out.push((window_start, f(&bucket)));
        }
        out
    }
}

/// Summary statistics of a histogram, for table printing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (0 when < 2 samples).
    pub std_dev: f64,
    /// Minimum sample.
    pub min: f64,
    /// Median (p50).
    pub p50: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum sample.
    pub max: f64,
}

impl Summary {
    /// Computes a summary; returns `None` on an empty histogram.
    pub fn of(hist: &mut Histogram) -> Option<Summary> {
        if hist.is_empty() {
            return None;
        }
        Some(Summary {
            count: hist.len(),
            mean: hist.mean()?,
            std_dev: hist.std_dev().unwrap_or(0.0),
            min: hist.min()?,
            p50: hist.percentile(50.0)?,
            p99: hist.percentile(99.0)?,
            max: hist.max()?,
        })
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
        assert_eq!(h.std_dev(), None);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(Summary::of(&mut h), None);
    }

    #[test]
    fn mean_and_std_dev() {
        let mut h = Histogram::new();
        for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            h.record(v);
        }
        assert!((h.mean().unwrap() - 5.0).abs() < 1e-12);
        // Sample std dev of this classic data set is sqrt(32/7).
        assert!((h.std_dev().unwrap() - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert_eq!(h.min(), Some(2.0));
        assert_eq!(h.max(), Some(9.0));
        assert_eq!(h.sum(), 40.0);
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

    #[test]
    fn bucket_counts_respect_edges() {
        let mut h = Histogram::new();
        for v in [0.5, 1.0, 1.5, 2.0, 10.0] {
            h.record(v);
        }
        // Buckets: [1,2), [2,4), overflow >= 4. The 0.5 sample is below range.
        let counts = h.bucket_counts(&[1.0, 2.0, 4.0]);
        assert_eq!(counts, vec![2, 1, 1]);
    }

    #[test]
    fn record_duration_converts_to_seconds() {
        let mut h = Histogram::new();
        h.record_duration(SimDuration::from_millis(1500));
        assert!((h.mean().unwrap() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn timeseries_windowing() {
        let mut ts = TimeSeries::new();
        for i in 0..10u64 {
            ts.push(SimTime::from_nanos(i * 1_000_000_000), i as f64);
        }
        let sums = ts.windowed(SimDuration::from_secs(5), |vals| vals.iter().sum());
        assert_eq!(sums.len(), 2);
        assert_eq!(sums[0], (SimTime::ZERO, 10.0)); // 0+1+2+3+4
        assert_eq!(sums[1], (SimTime::from_nanos(5_000_000_000), 35.0)); // 5..9
    }

    #[test]
    fn timeseries_windowing_skips_empty_windows() {
        let mut ts = TimeSeries::new();
        ts.push(SimTime::from_nanos(0), 1.0);
        ts.push(SimTime::from_nanos(20_000_000_000), 2.0);
        let means = ts.windowed(SimDuration::from_secs(5), |vals| {
            vals.iter().sum::<f64>() / vals.len() as f64
        });
        assert_eq!(means.len(), 2);
        assert_eq!(means[1].0, SimTime::from_nanos(20_000_000_000));
    }

    #[test]
    fn timeseries_windowing_degenerate_inputs() {
        let empty = TimeSeries::new();
        assert!(empty
            .windowed(SimDuration::from_secs(5), |vals| vals.iter().sum())
            .is_empty());

        let mut ts = TimeSeries::new();
        ts.push(SimTime::from_nanos(1), 1.0);
        // A zero window can never advance; it must yield nothing rather
        // than loop or divide by zero.
        assert!(ts
            .windowed(SimDuration::ZERO, |vals| vals.iter().sum())
            .is_empty());
        // A single point lands in exactly one window.
        let one = ts.windowed(SimDuration::from_secs(5), |vals| vals.iter().sum());
        assert_eq!(one, vec![(SimTime::ZERO, 1.0)]);
    }

    #[test]
    fn timeseries_window_boundaries_are_half_open() {
        // A point at exactly `window_start + window` belongs to the NEXT
        // window ([start, start+window) half-open), and a rolling-percentile
        // consumer sees each window's population separately.
        let mut ts = TimeSeries::new();
        let w = SimDuration::from_secs(5);
        ts.push(SimTime::ZERO, 1.0);
        ts.push(SimTime::ZERO + w, 2.0); // first nanosecond of window 1
        ts.push((SimTime::ZERO + w) + w, 3.0); // first nanosecond of window 2
        let maxes = ts.windowed(w, |vals| vals.iter().fold(f64::MIN, |a, &b| a.max(b)));
        assert_eq!(
            maxes,
            vec![
                (SimTime::ZERO, 1.0),
                (SimTime::ZERO + w, 2.0),
                ((SimTime::ZERO + w) + w, 3.0),
            ]
        );
    }

    #[test]
    fn timeseries_windowed_percentile_tail() {
        // Per-window p99-style reduction over a long gap: windows with no
        // points are skipped entirely (no zero-filled percentiles), and the
        // reduction only ever sees its own window's samples.
        let mut ts = TimeSeries::new();
        for i in 0..100u64 {
            ts.push(SimTime::from_nanos(i * 10_000_000), (i % 10) as f64);
        }
        // One straggler far in the future.
        ts.push(SimTime::from_nanos(3_600_000_000_000), 42.0);
        let p90 = ts.windowed(SimDuration::from_secs(1), |vals| {
            let mut v = vals.to_vec();
            v.sort_by(f64::total_cmp);
            v[((v.len() - 1) as f64 * 0.9).round() as usize]
        });
        assert_eq!(p90.len(), 2, "empty windows must be skipped: {p90:?}");
        // Ten of each value 0..=9; sorted index round(99 * 0.9) = 89 -> 8.
        assert_eq!(p90[0].1, 8.0);
        assert_eq!(p90[1], (SimTime::from_nanos(3_600_000_000_000), 42.0));
    }

    #[test]
    fn summary_snapshot() {
        let mut h = Histogram::new();
        for v in 1..=100 {
            h.record(v as f64);
        }
        let s = Summary::of(&mut h).unwrap();
        assert_eq!(s.count, 100);
        assert!((s.mean - 50.5).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert!((s.p50 - 50.5).abs() < 1e-9);
        assert!(s.p99 > 98.0 && s.p99 <= 100.0);
    }
}
