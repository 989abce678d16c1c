//! Parameter fitting from profiler samples.
//!
//! §5.3 of the paper: "unless we clearly notice an unusually long tail, we fit
//! the samples to a normal distribution". The profiler collects samples of
//! *I, D, P, S, C, C′* and fits them here; [`fit_auto`] applies the paper's
//! rule by switching to a LogNormal fit when the sample skewness indicates a
//! long right tail.

use crate::dist::Dist;

/// Errors from fitting routines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FitError {
    /// Fewer than two samples were provided.
    TooFewSamples,
    /// A sample was NaN or infinite.
    NonFiniteSample,
    /// LogNormal fitting requires strictly positive samples.
    NonPositiveSample,
}

impl std::fmt::Display for FitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FitError::TooFewSamples => write!(f, "need at least two samples to fit"),
            FitError::NonFiniteSample => write!(f, "samples must be finite"),
            FitError::NonPositiveSample => {
                write!(f, "lognormal fit requires strictly positive samples")
            }
        }
    }
}

impl std::error::Error for FitError {}

fn validate(samples: &[f64]) -> Result<(), FitError> {
    if samples.len() < 2 {
        return Err(FitError::TooFewSamples);
    }
    if samples.iter().any(|x| !x.is_finite()) {
        return Err(FitError::NonFiniteSample);
    }
    Ok(())
}

/// Sample mean.
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Sample standard deviation (n-1 denominator).
pub fn std_dev(samples: &[f64]) -> f64 {
    if samples.len() < 2 {
        return 0.0;
    }
    let m = mean(samples);
    (samples.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (samples.len() - 1) as f64).sqrt()
}

/// Adjusted Fisher–Pearson sample skewness (g1 with bias correction).
pub fn skewness(samples: &[f64]) -> f64 {
    let n = samples.len() as f64;
    if n < 3.0 {
        return 0.0;
    }
    let m = mean(samples);
    let s = std_dev(samples);
    if s == 0.0 {
        return 0.0;
    }
    let g1 = samples.iter().map(|x| ((x - m) / s).powi(3)).sum::<f64>() / n;
    ((n * (n - 1.0)).sqrt() / (n - 2.0)) * g1
}

/// Fits a Normal by the method of moments.
pub fn fit_normal(samples: &[f64]) -> Result<Dist, FitError> {
    validate(samples)?;
    Ok(Dist::normal(mean(samples), std_dev(samples)))
}

/// Fits a LogNormal by moment matching in log space.
pub fn fit_lognormal(samples: &[f64]) -> Result<Dist, FitError> {
    validate(samples)?;
    if samples.iter().any(|&x| x <= 0.0) {
        return Err(FitError::NonPositiveSample);
    }
    let logs: Vec<f64> = samples.iter().map(|x| x.ln()).collect();
    Ok(Dist::lognormal(mean(&logs), std_dev(&logs)))
}

/// Skewness threshold beyond which a sample set is considered to have "an
/// unusually long tail" and gets a LogNormal fit instead of a Normal one.
pub const LONG_TAIL_SKEWNESS: f64 = 1.0;

/// The paper's fitting rule: Normal by default, LogNormal when the right tail
/// is unusually long (positive skewness above [`LONG_TAIL_SKEWNESS`] and all
/// samples positive). Falls back to Normal if the LogNormal fit is not
/// applicable.
pub fn fit_auto(samples: &[f64]) -> Result<Dist, FitError> {
    validate(samples)?;
    if skewness(samples) > LONG_TAIL_SKEWNESS {
        if let Ok(d) = fit_lognormal(samples) {
            return Ok(d);
        }
    }
    fit_normal(samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rejects_degenerate_inputs() {
        assert_eq!(fit_normal(&[]), Err(FitError::TooFewSamples));
        assert_eq!(fit_normal(&[1.0]), Err(FitError::TooFewSamples));
        assert_eq!(fit_normal(&[1.0, f64::NAN]), Err(FitError::NonFiniteSample));
        assert_eq!(
            fit_lognormal(&[1.0, -2.0]),
            Err(FitError::NonPositiveSample)
        );
        assert_eq!(fit_lognormal(&[1.0, 0.0]), Err(FitError::NonPositiveSample));
    }

    #[test]
    fn normal_fit_recovers_parameters() {
        let truth = Dist::normal(5.0, 1.5);
        let mut rng = StdRng::seed_from_u64(1);
        let samples: Vec<f64> = (0..20_000).map(|_| truth.sample(&mut rng)).collect();
        let fit = fit_normal(&samples).unwrap();
        assert!((fit.mean() - 5.0).abs() < 0.05);
        assert!((fit.std_dev() - 1.5).abs() < 0.05);
    }

    #[test]
    fn lognormal_fit_recovers_parameters() {
        let truth = Dist::lognormal(1.0, 0.4);
        let mut rng = StdRng::seed_from_u64(2);
        let samples: Vec<f64> = (0..20_000).map(|_| truth.sample(&mut rng)).collect();
        let fit = fit_lognormal(&samples).unwrap();
        match fit {
            Dist::LogNormal { mu, sigma } => {
                assert!((mu - 1.0).abs() < 0.02, "mu {mu}");
                assert!((sigma - 0.4).abs() < 0.02, "sigma {sigma}");
            }
            other => panic!("expected lognormal, got {other:?}"),
        }
    }

    #[test]
    fn skewness_of_symmetric_data_is_small() {
        let truth = Dist::normal(0.0, 1.0);
        let mut rng = StdRng::seed_from_u64(3);
        let samples: Vec<f64> = (0..20_000).map(|_| truth.sample(&mut rng)).collect();
        assert!(skewness(&samples).abs() < 0.1);
    }

    #[test]
    fn skewness_detects_long_tail() {
        let truth = Dist::lognormal(0.0, 1.0);
        let mut rng = StdRng::seed_from_u64(4);
        let samples: Vec<f64> = (0..20_000).map(|_| truth.sample(&mut rng)).collect();
        assert!(skewness(&samples) > 2.0);
    }

    #[test]
    fn fit_auto_picks_normal_for_symmetric() {
        let truth = Dist::normal(10.0, 1.0);
        let mut rng = StdRng::seed_from_u64(5);
        let samples: Vec<f64> = (0..5_000).map(|_| truth.sample(&mut rng)).collect();
        assert!(matches!(fit_auto(&samples).unwrap(), Dist::Normal { .. }));
    }

    #[test]
    fn fit_auto_picks_lognormal_for_long_tail() {
        let truth = Dist::lognormal(0.0, 1.2);
        let mut rng = StdRng::seed_from_u64(6);
        let samples: Vec<f64> = (0..5_000).map(|_| truth.sample(&mut rng)).collect();
        assert!(matches!(
            fit_auto(&samples).unwrap(),
            Dist::LogNormal { .. }
        ));
    }

    #[test]
    fn fit_auto_falls_back_when_lognormal_inapplicable() {
        // Heavily skewed but containing zeros/negatives: must fall back.
        let mut samples = vec![0.0; 50];
        samples.extend(std::iter::repeat_n(100.0, 3));
        assert!(matches!(fit_auto(&samples).unwrap(), Dist::Normal { .. }));
    }

    #[test]
    fn skewness_of_constant_data_is_zero() {
        assert_eq!(skewness(&[2.0, 2.0, 2.0, 2.0]), 0.0);
    }
}
