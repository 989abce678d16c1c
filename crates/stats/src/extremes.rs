//! Max-of-n machinery for parallel replication planning (§5.3).
//!
//! The parallel-replication time is the maximum over `n` instances'
//! completion times. The paper uses two regimes:
//!
//! * **Monte Carlo** for most `n`: draw the per-instance time `n` times, take
//!   the max, repeat, and keep the empirical distribution. Simulations are
//!   cached and re-run on demand, not per planning request.
//! * **Gumbel (extreme value theory)** for large `n`: the max of `n` i.i.d.
//!   variables with an exponential-class tail converges to a Gumbel
//!   distribution; for Normal parents the classical normalizing sequence
//!   `(a_n, b_n)` gives `max ≈ mu + sigma * (a_n + G / b_n)` with `G` standard
//!   Gumbel.

use rand::Rng;

use crate::dist::{box_muller, box_muller_uniforms, Dist, EmpiricalDist};

/// Empirical distribution of `max(X_1..X_n)` via Monte Carlo.
///
/// Draws `trials` independent maxima of `n` samples from `parent`.
///
/// # Panics
///
/// Panics if `n == 0` or `trials == 0` (a planner bug, not a data condition).
pub fn monte_carlo_max<R: Rng + ?Sized>(
    parent: &Dist,
    n: usize,
    trials: usize,
    rng: &mut R,
) -> EmpiricalDist {
    assert!(n > 0, "max over zero variables is undefined");
    assert!(trials > 0, "need at least one trial");
    let mut maxima = Vec::with_capacity(trials);
    for _ in 0..trials {
        let mut m = f64::NEG_INFINITY;
        for _ in 0..n {
            m = m.max(parent.sample(rng));
        }
        maxima.push(m);
    }
    EmpiricalDist::new(maxima).expect("maxima of finite samples are finite")
}

/// Slack in [`std_normal_maxima`]'s pruning guards. It keeps every skipped
/// draw short of the running maximum by far more than libm's sub-ulp error
/// in `exp`, `ln` and `cos`, so which draws are skipped, and hence the
/// result, does not depend on the host's libm.
const PRUNE_MARGIN: f64 = 1e-9;

/// Per-trial maxima of `n` standard normal draws, in trial order.
///
/// Consumes exactly the RNG stream that [`monte_carlo_max`] would over a
/// [`Dist::Normal`] or [`Dist::LogNormal`] parent — both draw one standard
/// normal per sample — so the result can stand in for a full Monte Carlo run
/// via [`monte_carlo_max_from_std`].
///
/// Both uniforms of every Box–Muller draw `sqrt(−2 ln u1)·cos(2π u2)` are
/// taken from the stream, but once the trial's maximum `m` is positive the
/// transform is skipped for draws that provably stay below it:
///
/// * radius: `u1 > exp(−m²/2)·(1 + PRUNE_MARGIN)` gives `sqrt(−2 ln u1) < m`,
///   and `|cos| <= 1`;
/// * half-plane: `u2` in `(0.25 + PRUNE_MARGIN, 0.75 − PRUNE_MARGIN)` gives
///   `cos(2π u2) < −6e-9`, so the draw is negative.
///
/// # Panics
///
/// Panics if `n == 0` or `trials == 0`, matching [`monte_carlo_max`].
pub fn std_normal_maxima<R: Rng + ?Sized>(n: usize, trials: usize, rng: &mut R) -> Vec<f64> {
    assert!(n > 0, "max over zero variables is undefined");
    assert!(trials > 0, "need at least one trial");
    let mut maxima = Vec::with_capacity(trials);
    for _ in 0..trials {
        let mut m = f64::NEG_INFINITY;
        // The radius guard's threshold for `m`, updated whenever `m` rises.
        let mut u1_cut = f64::INFINITY;
        for _ in 0..n {
            let (u1, u2) = box_muller_uniforms(rng);
            if m > 0.0 && (u1 > u1_cut || (0.25 + PRUNE_MARGIN < u2 && u2 < 0.75 - PRUNE_MARGIN)) {
                continue;
            }
            let z = box_muller(u1, u2);
            if z > m {
                m = z;
                u1_cut = (-m * m / 2.0).exp() * (1.0 + PRUNE_MARGIN);
            }
        }
        maxima.push(m);
    }
    maxima
}

/// Rebuilds `monte_carlo_max(parent, n, trials, rng)` bit-identically from
/// cached standardized maxima, for parents that are monotone non-decreasing
/// transforms of a single standard normal draw (Normal and LogNormal).
///
/// Both `z -> mu + sigma * z` and `z -> (mu + sigma * z).exp()` are monotone
/// in `z` operation by operation (`sigma >= 0`; IEEE rounding preserves
/// monotonicity per operation), so the max of the transformed draws equals
/// the transform of the max draw: `max_i fl(T(z_i)) == fl(T(max_i z_i))`.
/// [`StdNormalMap`] mirrors [`Dist::sample`]'s expressions exactly to keep
/// the float-for-float guarantee. Returns `None` for parents outside that
/// family, in which case callers must fall back to the full Monte Carlo.
pub fn monte_carlo_max_from_std(parent: &Dist, std_maxima: &[f64]) -> Option<EmpiricalDist> {
    let map = StdNormalMap::of(parent)?;
    let maxima = std_maxima.iter().map(|&z| map.apply(z)).collect();
    Some(EmpiricalDist::new(maxima).expect("maxima of finite samples are finite"))
}

/// A Normal or LogNormal parent as the map from one standard normal draw `z`
/// to the sample [`Dist::sample`] makes of it: `mu + sigma * z`, then `exp`
/// for a LogNormal. With `sigma >= 0` it is monotone non-decreasing in `z`,
/// operation by operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StdNormalMap {
    mu: f64,
    sigma: f64,
    log_normal: bool,
}

impl StdNormalMap {
    /// The map of `parent`, or `None` outside the Normal/LogNormal family.
    pub fn of(parent: &Dist) -> Option<StdNormalMap> {
        let (mu, sigma, log_normal) = match *parent {
            Dist::Normal { mu, sigma } => (mu, sigma, false),
            Dist::LogNormal { mu, sigma } => (mu, sigma, true),
            _ => return None,
        };
        Some(StdNormalMap {
            mu,
            sigma,
            log_normal,
        })
    }

    /// The parent's sample for the standard normal draw `z`.
    pub fn apply(&self, z: f64) -> f64 {
        let y = self.mu + self.sigma * z;
        if self.log_normal {
            y.exp()
        } else {
            y
        }
    }
}

/// Classical normalizing constants `(a_n, b_n)` for the maximum of `n`
/// standard normals: `P(max <= a_n + x / b_n) -> exp(-exp(-x))`.
pub fn normal_max_norming(n: usize) -> (f64, f64) {
    assert!(n >= 2, "norming constants need n >= 2");
    let ln_n = (n as f64).ln();
    let b_n = (2.0 * ln_n).sqrt();
    let a_n = b_n - ((4.0 * std::f64::consts::PI).ln() + ln_n.ln()) / (2.0 * b_n);
    (a_n, b_n)
}

/// Gumbel approximation of `max(X_1..X_n)` for `X_i ~ Normal(mu, sigma)`.
///
/// Returns a [`Dist::Gumbel`] with location `mu + sigma * a_n` and scale
/// `sigma / b_n`. For `sigma == 0` the max is the constant `mu`.
pub fn gumbel_max_of_normals(mu: f64, sigma: f64, n: usize) -> Dist {
    assert!(n >= 1);
    if sigma == 0.0 || n == 1 {
        if n == 1 {
            return Dist::normal(mu, sigma);
        }
        return Dist::Constant(mu);
    }
    let (a_n, b_n) = normal_max_norming(n);
    Dist::Gumbel {
        mu: mu + sigma * a_n,
        beta: sigma / b_n,
    }
}

/// The threshold above which the planner switches from Monte Carlo to the
/// Gumbel approximation ("for large n, resampling will be too
/// time-consuming").
pub const GUMBEL_THRESHOLD_N: usize = 128;

/// Distribution of the max of `n` i.i.d. draws from `parent`.
///
/// Dispatches per the paper: exact for `n == 1`, Monte Carlo (with the given
/// trial budget) below [`GUMBEL_THRESHOLD_N`], Gumbel EVT at or above it.
/// Non-normal parents above the threshold are moment-matched to a Normal
/// before applying EVT, which preserves the right-tail growth rate well for
/// the light-tailed parents used here.
pub fn max_of_n<R: Rng + ?Sized>(parent: &Dist, n: usize, trials: usize, rng: &mut R) -> Dist {
    assert!(n > 0);
    if n == 1 {
        return parent.clone();
    }
    if n < GUMBEL_THRESHOLD_N {
        Dist::Empirical(monte_carlo_max(parent, n, trials, rng))
    } else {
        gumbel_max_of_normals(parent.mean(), parent.std_dev(), n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(11)
    }

    #[test]
    fn monte_carlo_max_exceeds_parent_mean() {
        let parent = Dist::normal(10.0, 2.0);
        let max_dist = monte_carlo_max(&parent, 16, 2_000, &mut rng());
        assert!(max_dist.mean() > 12.0, "mean of max {}", max_dist.mean());
        assert!(max_dist.mean() < 18.0);
    }

    #[test]
    fn monte_carlo_max_of_one_matches_parent() {
        let parent = Dist::normal(5.0, 1.0);
        let d = monte_carlo_max(&parent, 1, 20_000, &mut rng());
        assert!((d.mean() - 5.0).abs() < 0.05);
        assert!((d.std_dev() - 1.0).abs() < 0.05);
    }

    #[test]
    fn max_is_monotone_in_n() {
        let parent = Dist::normal(10.0, 2.0);
        let mut r = rng();
        let m4 = monte_carlo_max(&parent, 4, 4_000, &mut r).mean();
        let m16 = monte_carlo_max(&parent, 16, 4_000, &mut r).mean();
        let m64 = monte_carlo_max(&parent, 64, 4_000, &mut r).mean();
        assert!(m4 < m16 && m16 < m64, "{m4} {m16} {m64}");
    }

    #[test]
    fn norming_constants_grow_slowly() {
        let (a64, _) = normal_max_norming(64);
        let (a1024, _) = normal_max_norming(1024);
        assert!(a64 > 1.5 && a64 < 3.0, "a64 = {a64}");
        assert!(a1024 > a64);
        assert!(a1024 < 4.5);
    }

    #[test]
    fn gumbel_approximation_matches_monte_carlo_for_large_n() {
        let mu = 10.0;
        let sigma = 2.0;
        let n = 256;
        let gumbel = gumbel_max_of_normals(mu, sigma, n);
        let mc = monte_carlo_max(&Dist::normal(mu, sigma), n, 8_000, &mut rng());
        // Mean and p95 of the two approaches agree within a few percent.
        let mc_mean = mc.mean();
        assert!(
            (gumbel.mean() - mc_mean).abs() / mc_mean < 0.02,
            "gumbel mean {} vs mc {}",
            gumbel.mean(),
            mc_mean
        );
        let mc_p95 = mc.quantile(0.95);
        let gb_p95 = gumbel.quantile(0.95);
        assert!(
            (gb_p95 - mc_p95).abs() / mc_p95 < 0.03,
            "gumbel p95 {gb_p95} vs mc {mc_p95}"
        );
    }

    #[test]
    fn gumbel_degenerate_cases() {
        assert_eq!(gumbel_max_of_normals(5.0, 0.0, 100), Dist::Constant(5.0));
        assert_eq!(gumbel_max_of_normals(5.0, 1.0, 1), Dist::normal(5.0, 1.0));
    }

    #[test]
    fn max_of_n_dispatches_by_regime() {
        let parent = Dist::normal(10.0, 1.0);
        let mut r = rng();
        assert_eq!(max_of_n(&parent, 1, 100, &mut r), parent);
        assert!(matches!(
            max_of_n(&parent, 8, 500, &mut r),
            Dist::Empirical(_)
        ));
        assert!(matches!(
            max_of_n(&parent, 512, 500, &mut r),
            Dist::Gumbel { .. }
        ));
    }

    #[test]
    #[should_panic(expected = "max over zero variables")]
    fn monte_carlo_rejects_zero_n() {
        monte_carlo_max(&Dist::Constant(1.0), 0, 10, &mut rng());
    }

    #[test]
    fn std_maxima_path_is_bit_identical_to_full_monte_carlo() {
        // The standardized-maxima shortcut must reproduce the full Monte
        // Carlo float for float: same RNG stream, monotone transform of the
        // per-trial max. Sweep parents (Normal and LogNormal, including
        // degenerate sigma), sizes, and seeds.
        let parents = [
            Dist::normal(10.0, 2.0),
            Dist::normal(0.3, 0.0),
            Dist::normal(-4.0, 17.5),
            Dist::lognormal(1.2, 0.4),
            Dist::lognormal(-3.0, 2.5),
            Dist::lognormal_mean_cv(8.0, 0.35),
        ];
        for (pi, parent) in parents.iter().enumerate() {
            for (n, trials, seed) in [(2, 400, 7u64), (16, 250, 99), (127, 60, 12345)] {
                let seed = seed ^ (pi as u64) << 8;
                let full = monte_carlo_max(parent, n, trials, &mut StdRng::seed_from_u64(seed));
                let std_max = std_normal_maxima(n, trials, &mut StdRng::seed_from_u64(seed));
                let fast = monte_carlo_max_from_std(parent, &std_max)
                    .expect("Normal/LogNormal parents take the fast path");
                assert_eq!(
                    full.samples(),
                    fast.samples(),
                    "drift for parent #{pi} n={n} trials={trials}"
                );
            }
        }
    }

    #[test]
    fn pruned_maxima_match_full_monte_carlo_at_every_monte_carlo_n() {
        // Every n the model bootstraps below the Gumbel threshold, at the
        // planner's trial budgets: the skipped transforms must change no
        // maximum, and the stream must be left where the full run leaves it.
        let parent = Dist::normal(0.0, 1.0);
        for trials in [2_500, 3_000] {
            for n in 2..GUMBEL_THRESHOLD_N {
                let seed = (n as u64) << 32 ^ trials as u64;
                let (mut full_rng, mut pruned_rng) =
                    (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
                let full = monte_carlo_max(&parent, n, trials, &mut full_rng);
                let pruned = std_normal_maxima(n, trials, &mut pruned_rng);
                let pruned = monte_carlo_max_from_std(&parent, &pruned).unwrap();
                let bits = |e: EmpiricalDist| -> Vec<u64> {
                    e.samples().iter().map(|x| x.to_bits()).collect()
                };
                assert!(bits(full) == bits(pruned), "n={n} trials={trials}");
                assert!(
                    full_rng == pruned_rng,
                    "stream drift at n={n} trials={trials}"
                );
            }
        }
    }

    #[test]
    fn std_maxima_declines_unsupported_parents() {
        let std_max = std_normal_maxima(4, 50, &mut rng());
        assert!(monte_carlo_max_from_std(&Dist::Constant(1.0), &std_max).is_none());
        assert!(monte_carlo_max_from_std(&Dist::Uniform { lo: 0.0, hi: 1.0 }, &std_max).is_none());
    }

    #[test]
    fn gumbel_is_cheap_relative_to_monte_carlo() {
        // Not a timing test (flaky); just confirm the Gumbel path does no
        // sampling by checking it works with a zero-trial budget implied.
        let d = max_of_n(&Dist::normal(0.0, 1.0), 100_000, 1, &mut rng());
        assert!(matches!(d, Dist::Gumbel { .. }));
        assert!(d.mean() > 4.0); // max of 1e5 std normals is ~4.5
    }
}
