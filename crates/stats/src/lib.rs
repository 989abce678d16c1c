//! # stats — statistics substrate for AReplica
//!
//! Distributions, parameter fitting, and max-of-n machinery backing the
//! paper's distribution-aware performance model (§5.3):
//!
//! * [`Dist`] — the distribution enum (Constant / Normal / LogNormal /
//!   Uniform / Gumbel / Empirical) with sampling, quantiles, CDFs, and the
//!   scale/shift/sum algebra the planner composes `T_rep` with.
//! * [`fit`] — method-of-moments fitting with the paper's long-tail rule
//!   (Normal by default, LogNormal when skewness is high).
//! * [`extremes`] — Monte-Carlo max-of-n for moderate parallelism and the
//!   Gumbel extreme-value approximation for large `n`.
//! * [`special`] — `erf` / inverse normal CDF implemented locally (no
//!   special-function crates in the approved dependency set).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dist;
pub mod extremes;
pub mod fit;
pub mod special;

pub use dist::{
    sample_std_normal, select_quantile, sum_as_normal, Dist, EmpiricalDist, EULER_GAMMA,
};
pub use extremes::{
    gumbel_max_of_normals, max_of_n, monte_carlo_max, monte_carlo_max_from_std, std_normal_maxima,
    GUMBEL_THRESHOLD_N,
};
pub use fit::{fit_auto, fit_empirical, fit_lognormal, fit_normal, FitError};
