//! Probability distributions used throughout the simulator and the planner.
//!
//! A single enum, [`Dist`], covers every distribution the system needs:
//! degenerate constants, Normal (the paper's default parameter fit), LogNormal
//! (bandwidth/instance-speed factors), Uniform, Gumbel (extreme-value tail
//! approximation for max-of-n, §5.3), and Empirical (Monte-Carlo output). The
//! enum form keeps distributions `Clone + Debug` and serializable-by-hand,
//! which trait objects would not.

use rand::Rng;

use crate::special::{inv_std_normal_cdf, std_normal_cdf};

/// A univariate probability distribution.
#[derive(Debug, Clone, PartialEq)]
pub enum Dist {
    /// A point mass at `value`.
    Constant(f64),
    /// Normal with mean `mu` and standard deviation `sigma >= 0`.
    Normal {
        /// Mean.
        mu: f64,
        /// Standard deviation.
        sigma: f64,
    },
    /// LogNormal: `exp(N(mu, sigma))` of the underlying normal.
    LogNormal {
        /// Mean of the underlying normal.
        mu: f64,
        /// Standard deviation of the underlying normal.
        sigma: f64,
    },
    /// Uniform on `[lo, hi)`.
    Uniform {
        /// Inclusive lower bound.
        lo: f64,
        /// Exclusive upper bound.
        hi: f64,
    },
    /// Gumbel (type-I extreme value) with location `mu` and scale `beta > 0`.
    Gumbel {
        /// Location parameter.
        mu: f64,
        /// Scale parameter.
        beta: f64,
    },
    /// Empirical distribution over stored samples (sorted at construction).
    Empirical(EmpiricalDist),
}

/// An empirical distribution backed by a sorted sample vector.
#[derive(Debug, Clone, PartialEq)]
pub struct EmpiricalDist {
    sorted: Vec<f64>,
}

impl EmpiricalDist {
    /// Builds an empirical distribution from samples.
    ///
    /// Returns `None` if `samples` is empty or contains non-finite values.
    pub fn new(mut samples: Vec<f64>) -> Option<Self> {
        if samples.is_empty() || samples.iter().any(|x| !x.is_finite()) {
            return None;
        }
        sort_ascending(&mut samples);
        Some(EmpiricalDist { sorted: samples })
    }

    /// Number of stored samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True if no samples (cannot occur for a constructed value).
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Linear-interpolated quantile, `q` clamped to `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        interpolate_ranks(self.sorted.len(), q, |lo, hi| {
            (self.sorted[lo], self.sorted[hi])
        })
    }

    /// Empirical CDF at `x` (fraction of samples `<= x`).
    pub fn cdf(&self, x: f64) -> f64 {
        let idx = self.sorted.partition_point(|&s| s <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// Sample mean.
    pub fn mean(&self) -> f64 {
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }

    /// Sample standard deviation (n-1), 0 for a single sample.
    pub fn std_dev(&self) -> f64 {
        if self.sorted.len() < 2 {
            return 0.0;
        }
        let m = self.mean();
        (self.sorted.iter().map(|x| (x - m) * (x - m)).sum::<f64>()
            / (self.sorted.len() - 1) as f64)
            .sqrt()
    }

    /// The sorted samples.
    pub fn samples(&self) -> &[f64] {
        &self.sorted
    }
}

/// Sorts NaN-free `values` ascending, exactly as the stable
/// `values.sort_by(|a, b| a.partial_cmp(b).unwrap())` does: by value, with
/// equal values in input order.
///
/// Input already in order returns after one check pass. Otherwise this is a
/// stable LSD radix sort, on 8-bit digits, of keys whose unsigned order is
/// the floats' total order; digits on which every key agrees are skipped.
/// Equal values share their bits except `−0.0` and `+0.0`, which the key
/// orders `−0.0` first, so the zeros are then rewritten in input order.
pub fn sort_ascending(values: &mut [f64]) {
    if values.windows(2).all(|w| w[0] <= w[1]) {
        return;
    }
    let len = values.len();
    let mut keys: Vec<u64> = values.iter().map(|&x| order_key(x)).collect();
    let mut counts = [[0usize; 256]; 8];
    for &key in &keys {
        for (d, c) in counts.iter_mut().enumerate() {
            c[digit(key, d)] += 1;
        }
    }
    let mut sorted = vec![0; len];
    for (d, c) in counts.iter().enumerate() {
        if c.contains(&len) {
            continue;
        }
        let mut next = [0usize; 256];
        let mut start = 0;
        for (n, &count) in next.iter_mut().zip(c) {
            *n = start;
            start += count;
        }
        for &key in &keys {
            let b = digit(key, d);
            sorted[next[b]] = key;
            next[b] += 1;
        }
        std::mem::swap(&mut keys, &mut sorted);
    }
    let zeros = keys.partition_point(|&k| k < order_key(-0.0))
        ..keys.partition_point(|&k| k <= order_key(0.0));
    let input_zeros: Vec<f64> = if zeros.is_empty() {
        Vec::new()
    } else {
        values.iter().copied().filter(|&x| x == 0.0).collect()
    };
    for (x, &key) in values.iter_mut().zip(&keys) {
        *x = f64::from_bits(key ^ sign_mask(!key));
    }
    values[zeros].copy_from_slice(&input_zeros);
}

/// Extends `values`, which [`sort_ascending`] left sorted, by `batch`, so
/// that `values` ends as `sort_ascending` leaves its earlier inputs
/// followed by `batch`, bit for bit.
///
/// Only the batch is sorted. It is then merged into `values` from the
/// back, in place: a held value goes first on a tie, since its input came
/// first, which keeps `−0.0` and `+0.0` in input order. The merge stops
/// once the batch is placed, so a batch whose smallest value is at least
/// the largest held one moves no held value.
pub fn extend_ascending(values: &mut Vec<f64>, mut batch: Vec<f64>) {
    sort_ascending(&mut batch);
    // `values[..held]` holds the held values not yet moved, and
    // `values[free..]` the merged tail.
    let mut held = values.len();
    let mut free = held + batch.len();
    values.resize(free, 0.0);
    for b in batch.into_iter().rev() {
        while held > 0 && values[held - 1] > b {
            held -= 1;
            free -= 1;
            values[free] = values[held];
        }
        free -= 1;
        values[free] = b;
    }
}

/// A key whose unsigned order is `x`'s total order: the sign bit set for
/// positives, every bit flipped for negatives.
fn order_key(x: f64) -> u64 {
    let bits = x.to_bits();
    bits ^ sign_mask(bits)
}

/// Every bit if `bits`'s top bit is set, else the top bit alone. A float's
/// bits XOR the mask of themselves give its key, and a key XOR the mask of
/// its complement gives the bits back.
fn sign_mask(bits: u64) -> u64 {
    ((bits as i64 >> 63) as u64) | 1 << 63
}

/// Byte `d` of `key`, counted from the least significant.
fn digit(key: u64, d: usize) -> usize {
    (key >> (8 * d)) as u8 as usize
}

/// [`EmpiricalDist::quantile`]'s interpolation over `len >= 1` sorted
/// samples, `q` clamped to `[0, 1]`: `ranks(lo, hi)` returns the samples at
/// the two ranks it reads (0 is the smallest), and the answer weighs them by
/// `1 − frac` and `frac`, both `>= 0`.
pub fn interpolate_ranks(
    len: usize,
    q: f64,
    ranks: impl FnOnce(usize, usize) -> (f64, f64),
) -> f64 {
    let q = q.clamp(0.0, 1.0);
    if len == 1 {
        return ranks(0, 0).0;
    }
    let pos = q * (len - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    let (x_lo, x_hi) = ranks(lo, hi);
    x_lo * (1.0 - frac) + x_hi * frac
}

/// `EmpiricalDist::new(v).quantile(q)` for `v_i = base(i) + shift(i)`,
/// `i < len`, bit for bit, computing only the sums the answer can depend on.
///
/// Preconditions: `base` is non-decreasing in `i`, and `by_shift` lists
/// `0..len` with `shift` non-increasing along it. The interpolation reads
/// the `k = len − ⌊q(len − 1)⌋` largest sums. Two cursors find them, as in
/// Fagin, Lotem and Naor's threshold algorithm: `a` walks down the indices
/// from `len`, `b` walks up `by_shift` from 0, and each step sums the index
/// under each cursor unless it is already summed. The pass stops once `k`
/// sums are held and `base(a − 1) + shift(by_shift[b])` is no greater than
/// the `k`-th largest. An unsummed index lies below `a`, so its base is at
/// most `base(a − 1)`, and past `b` in `by_shift`, so its shift is at most
/// `shift(by_shift[b])`; rounded addition is monotone in both operands, so
/// its sum is at most that bound, and it cannot change the values the `k`
/// largest hold, ties included. Values that compare equal have the same
/// bits except `−0.0` and `+0.0`, whose order `new`'s stable sort takes from
/// the input. So a `k`-th largest sum `<= 0`, a non-finite sum and
/// `len < 2` go through `new` itself.
pub fn quantile_of_sums(
    len: usize,
    q: f64,
    base: impl Fn(usize) -> f64,
    shift: impl Fn(usize) -> f64,
    by_shift: &[u32],
) -> Option<f64> {
    debug_assert!(
        lists_in_shift_order(len, &shift, by_shift),
        "by_shift must list 0..len with shift non-increasing along it"
    );
    if len >= 2 {
        let mut exact = false;
        let x = interpolate_ranks(len, q, |lo, hi| {
            let k = len - lo;
            // The largest sums so far, descending.
            let mut top: Vec<f64> = Vec::with_capacity(k + 1);
            let mut seen = vec![0u64; len.div_ceil(64)];
            let mut prev = f64::INFINITY;
            let (mut a, mut b) = (len, 0);
            while a > 0 && b < len {
                let base_a = base(a - 1);
                debug_assert!(base_a <= prev, "base must be non-decreasing");
                prev = base_a;
                let j = by_shift[b] as usize;
                if top.len() == k && base_a + shift(j) <= top[k - 1] {
                    break;
                }
                for (i, base_i) in [(a - 1, Some(base_a)), (j, None)] {
                    if seen[i / 64] >> (i % 64) & 1 == 1 {
                        continue;
                    }
                    seen[i / 64] |= 1 << (i % 64);
                    let v = base_i.unwrap_or_else(|| base(i)) + shift(i);
                    if !v.is_finite() {
                        return (v, v);
                    }
                    if top.len() < k || v > top[k - 1] {
                        top.insert(top.partition_point(|&t| t >= v), v);
                        top.truncate(k);
                    }
                }
                a -= 1;
                b += 1;
            }
            exact = top[k - 1] > 0.0;
            (top[k - 1], top[len - 1 - hi])
        });
        if exact {
            return Some(x);
        }
    }
    EmpiricalDist::new((0..len).map(|i| base(i) + shift(i)).collect()).map(|e| e.quantile(q))
}

/// [`quantile_of_sums`]' precondition on `by_shift`: it lists `0..len`,
/// each index once, with `shift` non-increasing along it.
fn lists_in_shift_order(len: usize, shift: impl Fn(usize) -> f64, by_shift: &[u32]) -> bool {
    let mut listed = vec![false; len];
    by_shift.len() == len
        && by_shift.iter().all(|&i| {
            listed
                .get_mut(i as usize)
                .is_some_and(|l| !std::mem::replace(l, true))
        })
        && by_shift
            .windows(2)
            .all(|w| shift(w[0] as usize) >= shift(w[1] as usize))
}

/// Euler–Mascheroni constant, used in Gumbel moments.
pub const EULER_GAMMA: f64 = 0.577_215_664_901_532_9;

impl Dist {
    /// Normal distribution constructor with validation.
    pub fn normal(mu: f64, sigma: f64) -> Dist {
        debug_assert!(sigma >= 0.0 && sigma.is_finite() && mu.is_finite());
        Dist::Normal { mu, sigma }
    }

    /// LogNormal constructor from the underlying normal's parameters.
    pub fn lognormal(mu: f64, sigma: f64) -> Dist {
        debug_assert!(sigma >= 0.0 && sigma.is_finite() && mu.is_finite());
        Dist::LogNormal { mu, sigma }
    }

    /// LogNormal constructor from the *target* mean and coefficient of
    /// variation of the lognormal variable itself (convenient for modelling
    /// "mean bandwidth X with Y% spread").
    pub fn lognormal_mean_cv(mean: f64, cv: f64) -> Dist {
        debug_assert!(mean > 0.0 && cv >= 0.0);
        let sigma2 = (1.0 + cv * cv).ln();
        let mu = mean.ln() - sigma2 / 2.0;
        Dist::LogNormal {
            mu,
            sigma: sigma2.sqrt(),
        }
    }

    /// Samples one value.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match self {
            Dist::Constant(v) => *v,
            Dist::Normal { mu, sigma } => mu + sigma * sample_std_normal(rng),
            Dist::LogNormal { mu, sigma } => (mu + sigma * sample_std_normal(rng)).exp(),
            Dist::Uniform { lo, hi } => rng.gen_range(*lo..*hi),
            Dist::Gumbel { mu, beta } => {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                mu - beta * (-u.ln()).ln()
            }
            Dist::Empirical(e) => {
                let idx = rng.gen_range(0..e.sorted.len());
                e.sorted[idx]
            }
        }
    }

    /// Samples one value clamped to be non-negative.
    ///
    /// Service times and bandwidths are physically non-negative; unbounded
    /// fitted Normals can produce negative draws in the left tail, which are
    /// clamped here once rather than at every call site.
    pub fn sample_nonneg<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.sample(rng).max(0.0)
    }

    /// The distribution mean.
    pub fn mean(&self) -> f64 {
        match self {
            Dist::Constant(v) => *v,
            Dist::Normal { mu, .. } => *mu,
            Dist::LogNormal { mu, sigma } => (mu + sigma * sigma / 2.0).exp(),
            Dist::Uniform { lo, hi } => (lo + hi) / 2.0,
            Dist::Gumbel { mu, beta } => mu + beta * EULER_GAMMA,
            Dist::Empirical(e) => e.mean(),
        }
    }

    /// The distribution standard deviation.
    pub fn std_dev(&self) -> f64 {
        match self {
            Dist::Constant(_) => 0.0,
            Dist::Normal { sigma, .. } => *sigma,
            Dist::LogNormal { mu, sigma } => {
                let s2 = sigma * sigma;
                ((s2.exp() - 1.0) * (2.0 * mu + s2).exp()).sqrt()
            }
            Dist::Uniform { lo, hi } => (hi - lo) / 12f64.sqrt(),
            Dist::Gumbel { beta, .. } => beta * std::f64::consts::PI / 6f64.sqrt(),
            Dist::Empirical(e) => e.std_dev(),
        }
    }

    /// The quantile function at probability `q` in `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        let q = q.clamp(0.0, 1.0);
        match self {
            Dist::Constant(v) => *v,
            Dist::Normal { mu, sigma } => mu + sigma * inv_std_normal_cdf(q),
            Dist::LogNormal { mu, sigma } => (mu + sigma * inv_std_normal_cdf(q)).exp(),
            Dist::Uniform { lo, hi } => lo + q * (hi - lo),
            Dist::Gumbel { mu, beta } => {
                if q <= 0.0 {
                    f64::NEG_INFINITY
                } else if q >= 1.0 {
                    f64::INFINITY
                } else {
                    mu - beta * (-q.ln()).ln()
                }
            }
            Dist::Empirical(e) => e.quantile(q),
        }
    }

    /// The CDF at `x`.
    pub fn cdf(&self, x: f64) -> f64 {
        match self {
            Dist::Constant(v) => {
                if x >= *v {
                    1.0
                } else {
                    0.0
                }
            }
            Dist::Normal { mu, sigma } => {
                if *sigma == 0.0 {
                    if x >= *mu {
                        1.0
                    } else {
                        0.0
                    }
                } else {
                    std_normal_cdf((x - mu) / sigma)
                }
            }
            Dist::LogNormal { mu, sigma } => {
                if x <= 0.0 {
                    0.0
                } else if *sigma == 0.0 {
                    if x.ln() >= *mu {
                        1.0
                    } else {
                        0.0
                    }
                } else {
                    std_normal_cdf((x.ln() - mu) / sigma)
                }
            }
            Dist::Uniform { lo, hi } => ((x - lo) / (hi - lo)).clamp(0.0, 1.0),
            Dist::Gumbel { mu, beta } => (-(-(x - mu) / beta).exp()).exp(),
            Dist::Empirical(e) => e.cdf(x),
        }
    }

    /// Scales the distribution by a positive constant `k` (the law of `kX`).
    pub fn scale(&self, k: f64) -> Dist {
        debug_assert!(k > 0.0 && k.is_finite());
        match self {
            Dist::Constant(v) => Dist::Constant(v * k),
            Dist::Normal { mu, sigma } => Dist::Normal {
                mu: mu * k,
                sigma: sigma * k,
            },
            Dist::LogNormal { mu, sigma } => Dist::LogNormal {
                mu: mu + k.ln(),
                sigma: *sigma,
            },
            Dist::Uniform { lo, hi } => Dist::Uniform {
                lo: lo * k,
                hi: hi * k,
            },
            Dist::Gumbel { mu, beta } => Dist::Gumbel {
                mu: mu * k,
                beta: beta * k,
            },
            Dist::Empirical(e) => Dist::Empirical(
                EmpiricalDist::new(e.sorted.iter().map(|x| x * k).collect())
                    .expect("scaling preserves validity"),
            ),
        }
    }

    /// The law of the sum of `k` independent copies of this distribution,
    /// moment-matched to a Normal (`mu' = k·mu`, `sigma' = sqrt(k)·sigma`).
    ///
    /// By the CLT this is increasingly exact as `k` grows; it is how the
    /// planner composes per-chunk transfer times `C` into whole-object times
    /// (`C × ⌈size/c⌉` in the paper's notation denotes this sum, not a
    /// scalar multiplication — the variance grows linearly, not
    /// quadratically).
    pub fn iid_sum(&self, k: u64) -> Dist {
        assert!(k >= 1, "sum of zero copies is degenerate");
        if k == 1 {
            return self.clone();
        }
        Dist::Normal {
            mu: self.mean() * k as f64,
            sigma: self.std_dev() * (k as f64).sqrt(),
        }
    }

    /// Shifts the distribution by `c` (the law of `X + c`).
    pub fn shift(&self, c: f64) -> Dist {
        debug_assert!(c.is_finite());
        match self {
            Dist::Constant(v) => Dist::Constant(v + c),
            Dist::Normal { mu, sigma } => Dist::Normal {
                mu: mu + c,
                sigma: *sigma,
            },
            Dist::Uniform { lo, hi } => Dist::Uniform {
                lo: lo + c,
                hi: hi + c,
            },
            Dist::Gumbel { mu, beta } => Dist::Gumbel {
                mu: mu + c,
                beta: *beta,
            },
            Dist::LogNormal { .. } | Dist::Empirical(_) => {
                // No closed form for a shifted lognormal; fall back to an
                // empirical shift for empirical, and approximate lognormal by
                // moment-matched normal shift (shift only occurs on composed
                // sums in the planner, which are normal by then).
                match self {
                    Dist::Empirical(e) => Dist::Empirical(
                        EmpiricalDist::new(e.sorted.iter().map(|x| x + c).collect())
                            .expect("shift preserves validity"),
                    ),
                    _ => Dist::Normal {
                        mu: self.mean() + c,
                        sigma: self.std_dev(),
                    },
                }
            }
        }
    }
}

/// Sums independent Normal-or-Constant distributions into a Normal.
///
/// This is the "weighted sums of the parameters" composition from §5.3:
/// `T_rep` is a sum of fitted Normals, so the result stays Normal with
/// `mu = Σ mu_i`, `sigma = sqrt(Σ sigma_i²)`. Non-normal inputs are moment-
/// matched (mean/std) before summing, which is the standard practical
/// treatment and errs toward overestimating tail mass for our right-skewed
/// inputs.
pub fn sum_as_normal(parts: &[Dist]) -> Dist {
    let mu: f64 = parts.iter().map(|d| d.mean()).sum();
    let var: f64 = parts.iter().map(|d| d.std_dev().powi(2)).sum();
    Dist::Normal {
        mu,
        sigma: var.sqrt(),
    }
}

/// Samples a standard normal via the Box–Muller transform.
///
/// One of the pair is discarded for simplicity; the simulator is not
/// RNG-throughput-bound.
pub fn sample_std_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let (u1, u2) = box_muller_uniforms(rng.next_u64(), rng.next_u64());
    box_muller(u1, u2)
}

/// The two uniforms one Box–Muller sample makes of two consecutive stream
/// words, exactly as `gen_range(f64::EPSILON..1.0)` and `gen_range(0.0..1.0)`
/// map them: `u1` in `[ε, 1)` (so its log is finite), then `u2` in `[0, 1)`.
/// Each word's top 53 bits `k` give the unit float `k · 2^−53`.
pub(crate) fn box_muller_uniforms(w1: u64, w2: u64) -> (f64, f64) {
    let unit = |w: u64| (w >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    let u1 = f64::EPSILON + (1.0 - f64::EPSILON) * unit(w1);
    // `gen_range`'s guard against rounding up onto the excluded endpoint.
    let u1 = if u1 < 1.0 { u1 } else { 1.0f64.next_down() };
    // `0.0 + (1.0 − 0.0) · x` is `x` exactly.
    (u1, unit(w2))
}

/// The Box–Muller transform `sqrt(−2 ln u1) · cos(2π u2)`.
pub(crate) fn box_muller(u1: f64, u2: f64) -> f64 {
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    fn sample_stats(d: &Dist, n: usize) -> (f64, f64) {
        let mut r = rng();
        let samples: Vec<f64> = (0..n).map(|_| d.sample(&mut r)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64;
        (mean, var.sqrt())
    }

    #[test]
    fn constant_is_degenerate() {
        let d = Dist::Constant(3.0);
        assert_eq!(d.sample(&mut rng()), 3.0);
        assert_eq!(d.mean(), 3.0);
        assert_eq!(d.std_dev(), 0.0);
        assert_eq!(d.quantile(0.99), 3.0);
        assert_eq!(d.cdf(2.9), 0.0);
        assert_eq!(d.cdf(3.0), 1.0);
    }

    #[test]
    fn normal_moments_match_samples() {
        let d = Dist::normal(10.0, 2.0);
        let (m, s) = sample_stats(&d, 40_000);
        assert!((m - 10.0).abs() < 0.05, "mean {m}");
        assert!((s - 2.0).abs() < 0.05, "std {s}");
    }

    #[test]
    fn normal_quantiles() {
        let d = Dist::normal(0.0, 1.0);
        assert!((d.quantile(0.5)).abs() < 1e-9);
        assert!((d.quantile(0.975) - 1.96).abs() < 1e-2);
        assert!((d.cdf(1.96) - 0.975).abs() < 1e-3);
    }

    #[test]
    fn lognormal_moments() {
        let d = Dist::lognormal(1.0, 0.5);
        let expected_mean = (1.0f64 + 0.125).exp();
        assert!((d.mean() - expected_mean).abs() < 1e-9);
        let (m, _) = sample_stats(&d, 60_000);
        assert!((m - expected_mean).abs() / expected_mean < 0.03, "mean {m}");
    }

    #[test]
    fn lognormal_mean_cv_constructor() {
        let d = Dist::lognormal_mean_cv(100.0, 0.3);
        assert!((d.mean() - 100.0).abs() < 1e-9);
        assert!((d.std_dev() / d.mean() - 0.3).abs() < 1e-9);
    }

    #[test]
    fn uniform_basics() {
        let d = Dist::Uniform { lo: 2.0, hi: 6.0 };
        assert_eq!(d.mean(), 4.0);
        assert!((d.quantile(0.25) - 3.0).abs() < 1e-12);
        assert_eq!(d.cdf(6.5), 1.0);
        assert_eq!(d.cdf(1.0), 0.0);
        let mut r = rng();
        for _ in 0..100 {
            let x = d.sample(&mut r);
            assert!((2.0..6.0).contains(&x));
        }
    }

    #[test]
    fn gumbel_moments_and_quantile_roundtrip() {
        let d = Dist::Gumbel { mu: 3.0, beta: 2.0 };
        assert!((d.mean() - (3.0 + 2.0 * EULER_GAMMA)).abs() < 1e-9);
        let q = d.quantile(0.9);
        assert!((d.cdf(q) - 0.9).abs() < 1e-9);
        let (m, _) = sample_stats(&d, 60_000);
        assert!((m - d.mean()).abs() < 0.05, "mean {m} vs {}", d.mean());
    }

    #[test]
    fn empirical_distribution() {
        let e = EmpiricalDist::new(vec![3.0, 1.0, 2.0]).unwrap();
        assert_eq!(e.samples(), &[1.0, 2.0, 3.0]);
        assert_eq!(e.quantile(0.5), 2.0);
        assert_eq!(e.quantile(0.0), 1.0);
        assert_eq!(e.quantile(1.0), 3.0);
        assert!((e.cdf(2.0) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(e.mean(), 2.0);
        assert_eq!(EmpiricalDist::new(vec![]), None);
        assert_eq!(EmpiricalDist::new(vec![f64::NAN]), None);
        let inf = f64::INFINITY;
        assert_eq!(quantile_of_sums(0, 0.5, |_| 1.0, |_| 0.0, &[]), None);
        assert_eq!(
            quantile_of_sums(2, 0.5, |i| i as f64, |_| inf, &[0, 1]),
            None
        );
    }

    #[test]
    fn empirical_sampling_draws_from_samples() {
        let e = EmpiricalDist::new(vec![1.0, 2.0]).unwrap();
        let d = Dist::Empirical(e);
        let mut r = rng();
        for _ in 0..50 {
            let x = d.sample(&mut r);
            assert!(x == 1.0 || x == 2.0);
        }
    }

    #[test]
    fn sample_nonneg_clamps() {
        let d = Dist::normal(-10.0, 0.1);
        let mut r = rng();
        for _ in 0..20 {
            assert_eq!(d.sample_nonneg(&mut r), 0.0);
        }
    }

    #[test]
    fn scale_and_shift_laws() {
        let d = Dist::normal(2.0, 1.0);
        let scaled = d.scale(3.0);
        assert_eq!(scaled.mean(), 6.0);
        assert_eq!(scaled.std_dev(), 3.0);
        let shifted = d.shift(5.0);
        assert_eq!(shifted.mean(), 7.0);
        assert_eq!(shifted.std_dev(), 1.0);

        let ln = Dist::lognormal_mean_cv(10.0, 0.2).scale(2.0);
        assert!((ln.mean() - 20.0).abs() < 1e-9);

        let g = Dist::Gumbel { mu: 1.0, beta: 0.5 }.shift(1.0);
        assert!(matches!(g, Dist::Gumbel { mu, .. } if (mu - 2.0).abs() < 1e-12));
    }

    #[test]
    fn iid_sum_moments() {
        let d = Dist::normal(2.0, 0.5);
        let s = d.iid_sum(4);
        assert!((s.mean() - 8.0).abs() < 1e-12);
        assert!((s.std_dev() - 1.0).abs() < 1e-12);
        assert_eq!(d.iid_sum(1), d);
        // Matches empirical sums.
        let mut r = rng();
        let n = 20_000;
        let sums: Vec<f64> = (0..n)
            .map(|_| (0..4).map(|_| d.sample(&mut r)).sum::<f64>())
            .collect();
        let mean = sums.iter().sum::<f64>() / n as f64;
        assert!((mean - s.mean()).abs() < 0.05);
    }

    #[test]
    fn sum_as_normal_composes_moments() {
        let parts = vec![
            Dist::normal(1.0, 0.3),
            Dist::Constant(2.0),
            Dist::normal(3.0, 0.4),
        ];
        let total = sum_as_normal(&parts);
        assert!((total.mean() - 6.0).abs() < 1e-12);
        assert!((total.std_dev() - 0.5).abs() < 1e-12);
    }

    /// Replays fixed stream words.
    pub(crate) struct Words(pub(crate) std::vec::IntoIter<u64>);

    impl rand::RngCore for Words {
        fn next_u64(&mut self) -> u64 {
            self.0.next().expect("the test supplies every word")
        }
    }

    #[test]
    fn box_muller_uniforms_map_words_as_gen_range_does() {
        let mut r = rng();
        let mut words: Vec<u64> = (0..10_000).map(|_| r.gen()).collect();
        // The ends of the range and their neighbours.
        words.extend([0, u64::MAX, 1 << 11, u64::MAX - (1 << 11), u64::MAX << 2]);
        for &w1 in &words {
            let w2 = w1.rotate_left(17);
            let mut replay = Words(vec![w1, w2].into_iter());
            let u1: f64 = replay.gen_range(f64::EPSILON..1.0);
            let u2: f64 = replay.gen_range(0.0..1.0);
            let (v1, v2) = box_muller_uniforms(w1, w2);
            assert_eq!(
                (v1.to_bits(), v2.to_bits()),
                (u1.to_bits(), u2.to_bits()),
                "{w1:#x}"
            );
        }
        assert_eq!(box_muller_uniforms(0, 0), (f64::EPSILON, 0.0));
        assert_eq!(
            box_muller_uniforms(u64::MAX, u64::MAX).0,
            1.0f64.next_down()
        );
    }

    #[test]
    fn sort_ascending_keeps_signed_zeros_in_input_order() {
        let mut v = vec![1.0, -0.0, 0.0, -2.0, -0.0, f64::MIN_POSITIVE, 0.0];
        sort_ascending(&mut v);
        let bits: Vec<u64> = v.iter().map(|x| x.to_bits()).collect();
        let expected = [-2.0, -0.0, 0.0, -0.0, 0.0, f64::MIN_POSITIVE, 1.0];
        assert_eq!(bits, expected.map(f64::to_bits));
    }

    #[test]
    fn std_normal_sampler_moments() {
        let mut r = rng();
        let n = 60_000;
        let samples: Vec<f64> = (0..n).map(|_| sample_std_normal(&mut r)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| x * x).sum::<f64>() / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }
}
