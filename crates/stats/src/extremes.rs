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

use std::f64::consts::{LN_2, TAU};
use std::ops::Range;

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

/// Slack in [`std_normal_maxima`]'s bounds: every upper bound is inflated
/// and every lower bound deflated by it. It is far above libm's sub-ulp error
/// in `ln`, `sqrt` and `cos` and the bounds' own rounding, so which draws are
/// transformed, and hence the result, does not depend on the host's libm.
const PRUNE_MARGIN: f64 = 1e-9;

/// Per-trial maxima of `n` standard normal draws, in trial order.
///
/// Consumes exactly the RNG stream that [`monte_carlo_max`] would over a
/// [`Dist::Normal`] or [`Dist::LogNormal`] parent — both draw one standard
/// normal per sample — so the result can stand in for a full Monte Carlo run
/// via [`monte_carlo_max_from_std`].
///
/// Both words of every Box–Muller draw `z = sqrt(−2 ln u1)·cos(2π u2)` are
/// taken from the stream, but only the draws that can be the trial's
/// maximum go through `ln`, `sqrt` and `cos`. Each trial keeps `lb²`, the
/// square of a lower bound on its maximum, positive once one is known. It
/// draws its `n` word pairs first, and seeds `lb` with the lower bound of
/// the draw with the largest radius among those within `π/4` of the
/// positive axis. Then, in draw order:
///
/// * a draw is skipped on integer compares of its words' top 53 bits when
///   `u1` lies above the radius cut for `lb` (`radius_cut`), so that
///   `sqrt(−2 ln u1) < lb`, or when `u2` lies in
///   `(0.25 + PRUNE_MARGIN, 0.75 − PRUNE_MARGIN)` and `lb > 0`, so that the
///   draw is negative;
/// * every other draw is bounded from both sides without libm
///   (`draw_bounds`). It is dropped if its upper bound is below `lb`; else
///   it is kept, and its lower bound raises `lb` if larger.
///
/// At the end of the trial the kept draws whose upper bound still reaches
/// the final `lb` are transformed, and the largest is the maximum. Until a
/// positive bound is known nothing is skipped or dropped, so a trial whose
/// draws are all negative transforms them all.
///
/// The result is bit-identical to transforming every draw: `lb` is at most
/// some draw's computed `z`, a draw left untransformed has an upper bound
/// below `lb`, and the maximizing draw goes through the same `box_muller`
/// on the same `(u1, u2)`.
///
/// # Panics
///
/// Panics if `n == 0` or `trials == 0`, matching [`monte_carlo_max`].
pub fn std_normal_maxima<R: Rng + ?Sized>(n: usize, trials: usize, rng: &mut R) -> Vec<f64> {
    assert!(n > 0, "max over zero variables is undefined");
    assert!(trials > 0, "need at least one trial");
    let mut maxima = Vec::with_capacity(trials);
    // The trial's stream words, two per draw.
    let mut words = vec![(0u64, 0u64); n];
    // The trial's kept draws: `(u1, u2)` and the square of the upper bound.
    let mut kept: Vec<(f64, f64, f64)> = Vec::new();
    for _ in 0..trials {
        // The seed: the smallest `k1`, so the largest radius, among draws
        // whose `u2` lies within 1/8 of 0 or 1, where `cos ≥ 0.7`.
        let (mut seed_k1, mut seed) = (u64::MAX, 0);
        for (i, w) in words.iter_mut().enumerate() {
            *w = (rng.next_u64(), rng.next_u64());
            let k2 = w.1 >> 11;
            let k1 = if OFF_AXIS.contains(&k2) {
                u64::MAX
            } else {
                w.0 >> 11
            };
            if k1 < seed_k1 {
                (seed_k1, seed) = (k1, i);
            }
        }
        let (mut lb2, mut k1_cut) = (0.0, u64::MAX);
        if seed_k1 < u64::MAX {
            let (u1, u2) = box_muller_uniforms(words[seed].0, words[seed].1);
            lb2 = draw_bounds(u1, u2).0;
            k1_cut = radius_cut(lb2);
        }
        kept.clear();
        for &(w1, w2) in &words {
            let k2 = w2 >> 11;
            if w1 >> 11 > k1_cut || (lb2 > 0.0 && NEGATIVE_HALF_PLANE.contains(&k2)) {
                continue;
            }
            let (u1, u2) = box_muller_uniforms(w1, w2);
            let (lo2, hi2) = draw_bounds(u1, u2);
            if hi2 < lb2 {
                continue;
            }
            if lo2 > lb2 {
                lb2 = lo2;
                k1_cut = radius_cut(lb2);
            }
            kept.push((u1, u2, hi2));
        }
        let mut m = f64::NEG_INFINITY;
        for &(u1, u2, hi2) in &kept {
            if hi2 >= lb2 {
                let z = box_muller(u1, u2);
                if z > m {
                    m = z;
                }
            }
        }
        maxima.push(m);
    }
    maxima
}

/// `k2 = w2 >> 11` outside this range puts `u2` within 1/8 of 0 or 1: the
/// draw's angle is within `π/4` of the positive axis.
const OFF_AXIS: Range<u64> = 1 << 50..7 << 50;

/// `2^52`, the weight of a float's lowest exponent bit.
const TWO_POW_52: f64 = (1u64 << 52) as f64;

/// `2^53`: a word's top 53 bits `k` are the unit float `k / 2^53`.
const TWO_POW_53: f64 = (1u64 << 53) as f64;

/// The bits of `1.0`: biased exponent 1023, zero fraction.
const ONE_BITS: u64 = 1.0f64.to_bits();

/// `k2 = w2 >> 11` in this range gives `u2` in
/// `(0.25 + PRUNE_MARGIN, 0.75 − PRUNE_MARGIN)`, where
/// `cos(2π u2) < −6e-9`: the draw is negative.
const NEGATIVE_HALF_PLANE: Range<u64> =
    ((0.25 + PRUNE_MARGIN) * TWO_POW_53) as u64 + 1..((0.75 - PRUNE_MARGIN) * TWO_POW_53) as u64;

/// A cut on `k1 = w1 >> 11` for the lower bound `sqrt(lb2)`: every larger
/// `k1` gives `−2 ln u1 < lb2·(1 − PRUNE_MARGIN)`, so its draw, whatever
/// its angle, stays below `sqrt(lb2)`.
///
/// With `u1 = 2^E·(1 + F)`, the octave chord `ln(1 + F) ≥ F·ln 2` gives
/// `−2 ln u1 ≤ −2 ln 2·(E + F)`, and `E + F` is `u1`'s bits over `2^52`,
/// less 1023. So bits above `ONE_BITS − s·2^52`, with
/// `s = lb2·(1 − PRUNE_MARGIN)/(2 ln 2)`, suffice; truncating `s·2^52` only
/// raises that threshold. The threshold float `u1_cut` maps back to `k1`
/// through `u1 ≥ k1·2^−53·(1 − 2^−50)`, which the factor `1 + 2^−40`
/// covers. No `exp` and no division.
fn radius_cut(lb2: f64) -> u64 {
    let s = lb2 * ((1.0 - PRUNE_MARGIN) / (2.0 * LN_2));
    let u1_cut = f64::from_bits(ONE_BITS - (s * TWO_POW_52) as u64);
    (u1_cut * (TWO_POW_53 + (1u64 << 13) as f64)) as u64
}

/// Squares `(lo², hi²)` of bounds `0 ≤ lo ≤ max(z, 0) ≤ hi` on the
/// Box–Muller draw `z = sqrt(−2 ln u1)·cos(2π u2)` as `box_muller` computes
/// it.
fn draw_bounds(u1: f64, u2: f64) -> (f64, f64) {
    let (q_lo, q_hi) = radius2_bounds(u1);
    let (c_lo, c_hi) = cos_bounds(TAU * u2.min(1.0 - u2));
    let (c_lo, c_hi) = (c_lo.max(0.0), c_hi.max(0.0));
    (q_lo * c_lo * c_lo, q_hi * c_hi * c_hi)
}

/// `ln(1 + j/64)` for `j` in `0..=64`, correctly rounded.
const LN_1P_64THS: [f64; 65] = [
    0.0,
    0.015504186535965254,
    0.030771658666753687,
    0.0458095360312942,
    0.06062462181643484,
    0.07522342123758753,
    0.08961215868968714,
    0.10379679368164356,
    0.11778303565638346,
    0.13157635778871926,
    0.1451820098444979,
    0.15860503017663857,
    0.17185025692665923,
    0.184922338494012,
    0.19782574332991987,
    0.21056476910734964,
    0.22314355131420976,
    0.2355660713127669,
    0.24783616390458127,
    0.25995752443692605,
    0.27193371548364176,
    0.2837681731306446,
    0.2954642128938359,
    0.3070250352949119,
    0.3184537311185346,
    0.329753286372468,
    0.3409265869705932,
    0.3519764231571782,
    0.3629054936893685,
    0.37371640979358406,
    0.38441169891033206,
    0.394993808240869,
    0.4054651081081644,
    0.415827895143711,
    0.4260843953109001,
    0.43623676677491807,
    0.44628710262841953,
    0.4562374334815876,
    0.46608972992459924,
    0.4758459048699639,
    0.4855078157817008,
    0.4950772667978515,
    0.5045560107523953,
    0.5139457511022343,
    0.5232481437645479,
    0.5324647988694718,
    0.5415972824327444,
    0.5506471179526623,
    0.5596157879354227,
    0.5685047353526688,
    0.5773153650348236,
    0.5860490450035782,
    0.5947071077466928,
    0.6032908514380843,
    0.6118015411059929,
    0.6202404097518576,
    0.6286086594223741,
    0.6369074622370692,
    0.6451379613735847,
    0.6533012720127457,
    0.661398482245365,
    0.6694306539426292,
    0.6773988235918061,
    0.6853040030989194,
    LN_2,
];

/// Largest gap between `ln(1 + F)` and its chord over `[j/64, (j + 1)/64]`:
/// `(1/64)²/8·max|ln''| = 1/32,768`.
const CHORD_GAP: f64 = 1.0 / 32_768.0;

/// Bounds `(lo, hi)` on `−2 ln u1` for `u1` in `[ε, 1)`, without libm.
///
/// With `u1 = 2^E·(1 + F)`, `ln u1 = E·ln 2 + ln(1 + F)`, and `ln(1 + F)`
/// lies at most [`CHORD_GAP`] above the chord through the two
/// [`LN_1P_64THS`] entries around `F` (`ln` is concave). `lo` is clamped at 0.
fn radius2_bounds(u1: f64) -> (f64, f64) {
    let bits = u1.to_bits();
    let e = (bits >> 52) as f64 - 1023.0;
    let j = ((bits >> 46) & 63) as usize;
    let frac = (bits & ((1 << 46) - 1)) as f64 * (1.0 / (1u64 << 46) as f64);
    let chord = LN_1P_64THS[j] + (LN_1P_64THS[j + 1] - LN_1P_64THS[j]) * frac;
    let hi = -2.0 * (e * LN_2 + chord);
    (
        (hi - 2.0 * CHORD_GAP - PRUNE_MARGIN).max(0.0),
        hi + PRUNE_MARGIN,
    )
}

/// Bounds `(lo, hi)` on `cos t`, without libm: the Taylor polynomials of
/// degree 6 (below `cos` for every `t`) and degree 4 (above it).
fn cos_bounds(t: f64) -> (f64, f64) {
    let p = t * t;
    let hi = 1.0 + p * (-0.5 + p * (1.0 / 24.0));
    let lo = hi - p * p * p * (1.0 / 720.0);
    (lo - PRUNE_MARGIN, hi + PRUNE_MARGIN)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::tests::Words;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

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

    /// `std_normal_maxima(n, trials, ..)` against the unpruned
    /// `monte_carlo_max` under `seed`: the same maxima bit for bit, and the
    /// stream left where the full run leaves it.
    fn assert_matches_full_monte_carlo(n: usize, trials: usize, seed: u64) {
        let parent = Dist::normal(0.0, 1.0);
        let (mut full_rng, mut pruned_rng) =
            (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
        let full = monte_carlo_max(&parent, n, trials, &mut full_rng);
        let pruned = std_normal_maxima(n, trials, &mut pruned_rng);
        let pruned = monte_carlo_max_from_std(&parent, &pruned).unwrap();
        let bits =
            |e: EmpiricalDist| -> Vec<u64> { e.samples().iter().map(|x| x.to_bits()).collect() };
        assert!(
            bits(full) == bits(pruned),
            "n={n} trials={trials} seed={seed}"
        );
        assert!(
            full_rng == pruned_rng,
            "stream drift at n={n} trials={trials} seed={seed}"
        );
    }

    #[test]
    fn pruned_maxima_match_full_monte_carlo_at_every_monte_carlo_n() {
        // Every n the model bootstraps below the Gumbel threshold, n = 1
        // included, at the trial budgets of the model and the planner tests.
        for trials in [800, 1_500, 2_500, 3_000] {
            for n in 1..GUMBEL_THRESHOLD_N {
                assert_matches_full_monte_carlo(n, trials, (n as u64) << 32 ^ trials as u64);
            }
        }
    }

    #[test]
    fn maxima_drawn_in_stages_match_one_call_at_every_monte_carlo_n() {
        // The model's staged bootstrap: 32 trials, then doubling, then the
        // rest of the budget, all from one RNG.
        for trials in [2_500, 3_000] {
            let (mut batches, mut held) = (vec![32], 32);
            while held * 2 < trials {
                batches.push(held);
                held *= 2;
            }
            batches.push(trials - held);
            for n in 1..GUMBEL_THRESHOLD_N {
                let seed = (n as u64) << 32 ^ trials as u64;
                let mut one_rng = StdRng::seed_from_u64(seed);
                let one = std_normal_maxima(n, trials, &mut one_rng);
                let mut rng = StdRng::seed_from_u64(seed);
                let staged: Vec<f64> = batches
                    .iter()
                    .flat_map(|&batch| std_normal_maxima(n, batch, &mut rng))
                    .collect();
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert!(bits(&staged) == bits(&one), "n={n} trials={trials}");
                assert!(rng == one_rng, "stream drift at n={n} trials={trials}");
            }
        }
    }

    #[test]
    #[ignore = "release-mode sweep, about 15 s: cargo test --release -p stats -- --ignored"]
    fn pruned_maxima_match_full_monte_carlo_over_ten_seeds() {
        for seed in 0..10u64 {
            for n in 1..GUMBEL_THRESHOLD_N {
                assert_matches_full_monte_carlo(n, 3_000, seed << 40 ^ 0x5eed ^ n as u64);
            }
        }
    }

    #[test]
    fn all_negative_trial_transforms_every_draw() {
        // `u2` near 0.5 puts every draw in the negative half-plane, so no
        // positive bound exists and every draw must be transformed: the
        // maximum is the least negative one.
        let draws: Vec<(u64, u64)> = (1..=16u64)
            .map(|i| (i.wrapping_mul(0x9e37_79b9_7f4a_7c15), (1 << 63) + (i << 40)))
            .collect();
        let words = || {
            Words(
                draws
                    .iter()
                    .flat_map(|&(w1, w2)| [w1, w2])
                    .collect::<Vec<_>>()
                    .into_iter(),
            )
        };
        let expected = draws
            .iter()
            .map(|&(w1, w2)| {
                let (u1, u2) = box_muller_uniforms(w1, w2);
                box_muller(u1, u2)
            })
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(expected < 0.0);
        assert_eq!(std_normal_maxima(16, 1, &mut words()), vec![expected]);
        let full = monte_carlo_max(&Dist::normal(0.0, 1.0), 16, 1, &mut words());
        assert_eq!(full.samples(), &[expected]);
    }

    #[test]
    fn ln_table_matches_libm() {
        for (j, &ln) in LN_1P_64THS.iter().enumerate() {
            let libm = (1.0 + j as f64 / 64.0).ln();
            assert!(
                (ln - libm).abs() <= f64::EPSILON * libm,
                "j={j}: {ln} vs {libm}"
            );
        }
    }

    #[test]
    fn radius_bounds_hold_at_edge_inputs() {
        let mut inputs = vec![f64::EPSILON, 0.5, 1.0f64.next_down()];
        inputs.extend((1..=52).map(|k| 2f64.powi(-k)));
        for u1 in inputs {
            let exact = -2.0 * u1.ln();
            let (lo, hi) = radius2_bounds(u1);
            assert!(
                lo <= exact && exact <= hi,
                "u1={u1:e}: {lo} <= {exact} <= {hi}"
            );
            assert!(hi - lo <= 2.0 * CHORD_GAP + 3.0 * PRUNE_MARGIN, "u1={u1:e}");
        }
    }

    #[test]
    fn cos_bounds_hold_at_edge_inputs() {
        use std::f64::consts::{FRAC_PI_2, FRAC_PI_4};
        for t in [0.0, 1e-8, FRAC_PI_4, FRAC_PI_2] {
            let (lo, hi) = cos_bounds(t);
            assert!(
                lo <= t.cos() && t.cos() <= hi,
                "t={t}: {lo} <= {} <= {hi}",
                t.cos()
            );
        }
        // Tight where the maximum usually lies, loose only near pi/2.
        let (lo, hi) = cos_bounds(FRAC_PI_4);
        assert!(hi - lo < 4e-4);
    }

    #[test]
    fn draw_bounds_contain_the_transform() {
        // The bounds must hold for `box_muller` as computed, across the
        // whole range of both uniforms.
        let mut rng = rng();
        for _ in 0..200_000 {
            let (u1, u2) = box_muller_uniforms(rng.next_u64(), rng.next_u64());
            let z = box_muller(u1, u2);
            let (lo2, hi2) = draw_bounds(u1, u2);
            assert!(
                lo2 == 0.0 || lo2 <= z * z && z > 0.0,
                "u1={u1} u2={u2}: lo2 {lo2}, z {z}"
            );
            assert!(
                z <= 0.0 || z * z <= hi2,
                "u1={u1} u2={u2}: hi2 {hi2}, z {z}"
            );
        }
    }

    #[test]
    fn radius_cut_skips_only_draws_below_the_bound() {
        // Every k1 above the cut for lb2 has -2 ln u1 < lb2.
        for lb2 in [1e-12, 0.01, 1.0, 4.0, 9.5, 30.0, 72.0] {
            let cut = radius_cut(lb2);
            for k1 in [cut + 1, cut + 2, cut + 1000] {
                if k1 >= 1 << 53 {
                    continue;
                }
                let (u1, _) = box_muller_uniforms(k1 << 11, 0);
                assert!(-2.0 * u1.ln() < lb2, "lb2={lb2} k1={k1}");
            }
            // The octave chord loses at most a factor 1/(2 ln 2), near u1 = 1.
            if cut < 1 << 53 {
                let (u1, _) = box_muller_uniforms(cut.saturating_sub(1 << 20) << 11, 0);
                assert!(-2.0 * u1.ln() > lb2 * 0.72, "lb2={lb2}: cut far too low");
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
        // Not a timing test (flaky): the Gumbel approximation takes no RNG,
        // so it draws nothing however large `n` is.
        let d = gumbel_max_of_normals(0.0, 1.0, 100_000);
        assert!(matches!(d, Dist::Gumbel { .. }));
        assert!(d.mean() > 4.0); // max of 1e5 std normals is ~4.5
    }
}
