//! The distribution-aware performance model (§5.3).
//!
//! Predicts the replication time `T_rep = T_func + T_transfer` of a candidate
//! plan as a *distribution*, so the planner can query the user's percentile:
//!
//! * single replicator:   `T_func = 0 | I + D`,
//!   `T_transfer = S + Σ_{⌈size/c⌉} C`
//! * parallel replicators: `T_func = I×n + D + P`,
//!   `T_transfer = max_{1..n} ( S + Σ_{⌈size/(c·n)⌉} C′ )`
//!
//! All parameters are distributions fitted by the profiler. Sums compose
//! analytically (Normal); the max over `n` instances uses cached Monte-Carlo
//! simulation for moderate `n` and the Gumbel extreme-value approximation for
//! large `n`, exactly as the paper prescribes. The cache is populated
//! on demand (bootstrap) and invalidated by the online logger on persistent
//! prediction drift.
//!
//! The planner's percentile queries are memoised exactly: a `T_rep` quantile
//! depends on the object size only through one chunk count, so repeated
//! queries for sizes that share that count are answered from a map, with
//! the same bits a fresh computation would produce.

use std::collections::BTreeMap;
use std::rc::Rc;

use cloudapi::RegionId;
use rand::rngs::StdRng;
use rand::SeedableRng;
use stats::{sum_as_normal, Dist, EmpiricalDist, EULER_GAMMA, GUMBEL_THRESHOLD_N};

/// Where the replicator functions run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ExecSide {
    /// At the source region.
    Source,
    /// At the destination region.
    Destination,
}

impl ExecSide {
    /// Both sides, in the planner's evaluation order.
    pub const BOTH: [ExecSide; 2] = [ExecSide::Source, ExecSide::Destination];

    /// Resolves the side to a concrete region.
    pub fn region(self, src: RegionId, dst: RegionId) -> RegionId {
        match self {
            ExecSide::Source => src,
            ExecSide::Destination => dst,
        }
    }
}

/// Per-execution-region parameters (`I`, `D`, `P`), in seconds.
#[derive(Debug, Clone)]
pub struct LocParams {
    /// Invocation API latency `I`.
    pub invoke: Dist,
    /// Cold-start delay `D`.
    pub cold: Dist,
    /// Scale-out scheduling postponement `P` (only incurred by parallel
    /// scale-out).
    pub postpone: Dist,
}

/// Per-path parameters (`S`, `C`, `C′`), in seconds, keyed by
/// `(src, dst, exec side)`.
#[derive(Debug, Clone)]
pub struct PathParams {
    /// Transfer client setup overhead `S`.
    pub setup: Dist,
    /// Per-chunk replication time `C` (download + upload of one part,
    /// single-replicator mode).
    pub chunk: Dist,
    /// Per-chunk time `C′` in distributed mode (adds the two cloud-database
    /// accesses per part).
    pub chunk_distributed: Dist,
    /// Between-instance coefficient of variation of the mean chunk time
    /// (Challenge #2): one instance's chunks are *correlated* through its
    /// persistent speed factor, so a whole-object time is not an i.i.d. sum.
    /// The profiler fits this from per-invocation chunk means.
    pub instance_cv: f64,
}

impl PathParams {
    /// Convenience constructor with no between-instance variability.
    pub fn new(setup: Dist, chunk: Dist, chunk_distributed: Dist) -> PathParams {
        PathParams {
            setup,
            chunk,
            chunk_distributed,
            instance_cv: 0.0,
        }
    }
}

/// Widens a per-instance total-time distribution by the correlated
/// between-instance component: `sigma' = sqrt(sigma^2 + (mean * cv)^2)`.
///
/// The result is moment-matched to a **LogNormal**, not a Normal: the
/// dominant term is a multiplicative instance speed factor, whose right tail
/// a Normal badly under-covers at extreme percentiles (the paper's fitting
/// rule switches distribution families exactly when "we clearly notice an
/// unusually long tail" — a per-instance total is such a case). Planning at
/// p99.99 with a Normal here produced systematic tail misses.
fn inflate_instance_cv(base: Dist, cv: f64) -> Dist {
    if cv <= 0.0 {
        return base;
    }
    let mu = base.mean();
    if mu <= 0.0 {
        return base;
    }
    let sigma = (base.std_dev().powi(2) + (mu * cv).powi(2)).sqrt();
    Dist::lognormal_mean_cv(mu, sigma / mu)
}

/// A path between two regions with a chosen execution side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PathKey {
    /// Source region.
    pub src: RegionId,
    /// Destination region.
    pub dst: RegionId,
    /// Where functions run.
    pub side: ExecSide,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct MaxCacheKey {
    path: PathKey,
    n: u32,
    chunks_per_fn: u64,
}

/// Everything a `t_rep_quantile` answer depends on, given the model's
/// parameters: the size enters only through [`PerfModel::plan_chunks`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct QuantileKey {
    path: PathKey,
    n: u32,
    local: bool,
    chunks: u64,
    p_bits: u64,
}

/// The fitted performance model.
#[derive(Debug, Clone, Default)]
pub struct PerfModel {
    loc: BTreeMap<RegionId, LocParams>,
    path: BTreeMap<PathKey, PathParams>,
    notif: BTreeMap<RegionId, Dist>,
    max_cache: BTreeMap<MaxCacheKey, Rc<Dist>>,
    /// Memoised `t_rep_quantile` answers. Invalidated with `max_cache` per
    /// path, and entirely by `set_loc` (`T_func` reads the location).
    quantile_memo: BTreeMap<QuantileKey, f64>,
    /// Standardized per-trial maxima keyed by `(n, chunks_per_fn)`, sorted
    /// ascending. The derived MC seed depends only on that pair — never on
    /// path parameters — so these survive `set_path` / `rescale_path_chunks`
    /// invalidation and make drift-triggered re-fits an affine remap instead
    /// of a fresh Monte Carlo (the fig23 replay hot path).
    std_max_cache: BTreeMap<(u32, u64), Rc<Vec<f64>>>,
    /// The standard-normal draws [`PerfModel::add_normal`] shifts a
    /// `len`-sample empirical distribution by, keyed by `len`. Their seed
    /// depends on `len` alone, so they never need invalidating.
    shift_draws: BTreeMap<usize, Vec<f64>>,
    /// Chunk size `c` in bytes the parameters were profiled at.
    chunk_size: u64,
    /// Monte-Carlo trial budget per cached distribution.
    mc_trials: usize,
    mc_seed: u64,
}

/// Errors from model queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// No parameters profiled for this execution region.
    UnknownLocation(RegionId),
    /// No parameters profiled for this path.
    UnknownPath(PathKey),
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::UnknownLocation(r) => write!(f, "no profile for region {r:?}"),
            ModelError::UnknownPath(p) => write!(f, "no profile for path {p:?}"),
        }
    }
}

impl std::error::Error for ModelError {}

impl PerfModel {
    /// Creates an empty model for the given chunk size.
    pub fn new(chunk_size: u64, mc_trials: usize, mc_seed: u64) -> PerfModel {
        PerfModel {
            chunk_size,
            mc_trials,
            mc_seed,
            ..PerfModel::default()
        }
    }

    /// Installs (or replaces) a region's `I/D/P` parameters, invalidating
    /// every memoised quantile.
    pub fn set_loc(&mut self, region: RegionId, params: LocParams) {
        self.quantile_memo.clear();
        self.loc.insert(region, params);
    }

    /// Installs (or replaces) a path's `S/C/C′` parameters, invalidating any
    /// cached max-of-n distributions and quantiles for it.
    pub fn set_path(&mut self, key: PathKey, params: PathParams) {
        self.invalidate_path(key);
        self.path.insert(key, params);
    }

    fn invalidate_path(&mut self, key: PathKey) {
        self.max_cache.retain(|k, _| k.path != key);
        self.quantile_memo.retain(|k, _| k.path != key);
    }

    /// Installs the notification-delay distribution for a source region.
    pub fn set_notif(&mut self, region: RegionId, dist: Dist) {
        self.notif.insert(region, dist);
    }

    /// The path parameters, if profiled.
    pub fn path_params(&self, key: PathKey) -> Option<&PathParams> {
        self.path.get(&key)
    }

    /// The location parameters, if profiled.
    pub fn loc_params(&self, region: RegionId) -> Option<&LocParams> {
        self.loc.get(&region)
    }

    /// Expected notification delay quantile for a source region (zero if not
    /// profiled — the conservative choice is handled by callers budgeting
    /// `SLO - T_n` from the event timestamp instead).
    pub fn notif_delay_quantile(&self, region: RegionId, q: f64) -> f64 {
        self.notif
            .get(&region)
            .map_or(0.0, |d| d.quantile(q).max(0.0))
    }

    /// True when a path has been profiled.
    pub fn has_path(&self, key: PathKey) -> bool {
        self.path.contains_key(&key) && self.loc.contains_key(&key.side.region(key.src, key.dst))
    }

    /// `T_func` as a distribution for parallelism `n` at `loc`.
    ///
    /// `local` indicates the orchestrator handles the object itself
    /// (`T_func = 0`).
    pub fn t_func(&self, loc: RegionId, n: u32, local: bool) -> Result<Dist, ModelError> {
        if local {
            return Ok(Dist::Constant(0.0));
        }
        let p = self.loc.get(&loc).ok_or(ModelError::UnknownLocation(loc))?;
        if n <= 1 {
            Ok(sum_as_normal(&[p.invoke.clone(), p.cold.clone()]))
        } else {
            // I × n models the pipelined invocation loop; D once (pipelined
            // starts); P once (platform scale-out batching).
            Ok(sum_as_normal(&[
                p.invoke.iid_sum(n as u64),
                p.cold.clone(),
                p.postpone.clone(),
            ]))
        }
    }

    /// The one chunk count `T_rep` at parallelism `n` depends on: the whole
    /// object's `⌈size/c⌉` for a single replicator, one instance's share
    /// `⌈size/(c·n)⌉` for `n >= 2`.
    fn plan_chunks(&self, size: u64, n: u32) -> u64 {
        let chunks = size.div_ceil(self.chunk_size).max(1);
        if n <= 1 {
            chunks
        } else {
            chunks.div_ceil(n as u64).max(1)
        }
    }

    /// `T_transfer` for a single replicator.
    pub fn t_transfer_single(&self, path: PathKey, size: u64) -> Result<Dist, ModelError> {
        let p = self.path.get(&path).ok_or(ModelError::UnknownPath(path))?;
        let base = sum_as_normal(&[p.setup.clone(), p.chunk.iid_sum(self.plan_chunks(size, 1))]);
        Ok(inflate_instance_cv(base, p.instance_cv))
    }

    /// `T_transfer` for `n` parallel replicators: the max over instances of
    /// `S + Σ_{⌈size/(c·n)⌉} C′`, via cached Monte Carlo or Gumbel EVT.
    pub fn t_transfer_parallel(
        &mut self,
        path: PathKey,
        size: u64,
        n: u32,
    ) -> Result<Rc<Dist>, ModelError> {
        assert!(n >= 2, "use t_transfer_single for n = 1");
        let chunks_per_fn = self.plan_chunks(size, n);
        let key = MaxCacheKey {
            path,
            n,
            chunks_per_fn,
        };
        if let Some(cached) = self.max_cache.get(&key) {
            return Ok(Rc::clone(cached));
        }
        let p = self.path.get(&path).ok_or(ModelError::UnknownPath(path))?;
        let per_instance = inflate_instance_cv(
            sum_as_normal(&[p.setup.clone(), p.chunk_distributed.iid_sum(chunks_per_fn)]),
            p.instance_cv,
        );
        let dist = if (n as usize) >= GUMBEL_THRESHOLD_N {
            stats::gumbel_max_of_normals(per_instance.mean(), per_instance.std_dev(), n as usize)
        } else {
            let std_maxima = self.std_maxima(n, chunks_per_fn);
            Dist::Empirical(
                stats::monte_carlo_max_from_std(&per_instance, &std_maxima)
                    // xlint::allow(no-unwrap-in-lib, per_instance is sum_as_normal's Normal or inflate_instance_cv's LogNormal, the family the shortcut covers)
                    .expect("per-instance time is Normal or LogNormal"),
            )
        };
        let dist = Rc::new(dist);
        self.max_cache.insert(key, Rc::clone(&dist));
        Ok(dist)
    }

    /// Full `T_rep` distribution for a plan.
    pub fn t_rep_dist(
        &mut self,
        path: PathKey,
        size: u64,
        n: u32,
        local: bool,
    ) -> Result<Dist, ModelError> {
        if n <= 1 {
            let loc = path.side.region(path.src, path.dst);
            let t_func = self.t_func(loc, n, local)?;
            let t_transfer = self.t_transfer_single(path, size)?;
            return Ok(sum_as_normal(&[t_func, t_transfer]));
        }
        let (t_transfer, mu, sigma) = self.parallel_terms(path, size, n, local)?;
        Ok(self.add_normal(&t_transfer, mu, sigma))
    }

    /// `T_rep`'s two terms at `n >= 2`: the max-of-`n` `T_transfer`, and
    /// the mean and standard deviation of the Normal `T_func`.
    fn parallel_terms(
        &mut self,
        path: PathKey,
        size: u64,
        n: u32,
        local: bool,
    ) -> Result<(Rc<Dist>, f64, f64), ModelError> {
        let t_func = self.t_func(path.side.region(path.src, path.dst), n, local)?;
        let t_transfer = self.t_transfer_parallel(path, size, n)?;
        Ok((t_transfer, t_func.mean(), t_func.std_dev()))
    }

    /// The planner's scalar query: `t` such that `P(T_rep <= t) >= p`,
    /// in seconds.
    ///
    /// Answers are memoised on `(path, n, local, chunk count, p)`, which
    /// with the current parameters determines the answer exactly. A miss
    /// answers `t_rep_dist(..).quantile(p).max(0.0)`, bit for bit, but for
    /// an Empirical `T_transfer` it selects the quantile from the shifted
    /// samples instead of sorting them.
    pub fn t_rep_quantile(
        &mut self,
        path: PathKey,
        size: u64,
        n: u32,
        local: bool,
        p: f64,
    ) -> Result<f64, ModelError> {
        let key = QuantileKey {
            path,
            n,
            local,
            chunks: self.plan_chunks(size, n),
            p_bits: p.to_bits(),
        };
        if let Some(&q) = self.quantile_memo.get(&key) {
            return Ok(q);
        }
        let q = if n <= 1 {
            self.t_rep_dist(path, size, n, local)?.quantile(p)
        } else {
            let (t_transfer, mu, sigma) = self.parallel_terms(path, size, n, local)?;
            match &*t_transfer {
                Dist::Empirical(e) => {
                    stats::select_quantile(&mut self.shifted_samples(e, mu, sigma), p)
                        // xlint::allow(no-unwrap-in-lib, samples come from an existing EmpiricalDist plus a finite normal shift, so they stay finite and non-empty)
                        .expect("finite samples")
                }
                other => self.add_normal(other, mu, sigma).quantile(p),
            }
        }
        .max(0.0);
        self.quantile_memo.insert(key, q);
        Ok(q)
    }

    /// Scales a path's chunk parameters by `factor` (online logger drift
    /// correction) and invalidates the affected cache entries.
    pub fn rescale_path_chunks(&mut self, key: PathKey, factor: f64) {
        assert!(factor > 0.0 && factor.is_finite());
        if let Some(p) = self.path.get_mut(&key) {
            p.chunk = p.chunk.scale(factor);
            p.chunk_distributed = p.chunk_distributed.scale(factor);
        }
        self.invalidate_path(key);
    }

    /// Number of cached max-of-n distributions (test/inspection hook).
    pub fn cached_max_dists(&self) -> usize {
        self.max_cache.len()
    }

    /// Number of memoised `t_rep_quantile` answers (test/inspection hook).
    pub fn cached_quantiles(&self) -> usize {
        self.quantile_memo.len()
    }

    /// Number of cached standardized-maxima vectors (test/inspection hook).
    pub fn cached_std_maxima(&self) -> usize {
        self.std_max_cache.len()
    }

    /// Standardized per-trial maxima for `(n, chunks_per_fn)`, computed once
    /// per key from an RNG seeded by the key alone, so the bootstrap does not
    /// depend on query order, and [`stats::monte_carlo_max_from_std`]
    /// reproduces `stats::monte_carlo_max` under that seed bit-for-bit.
    ///
    /// The maxima are cached sorted: the maps `monte_carlo_max_from_std`
    /// applies are monotone, so its output is then already in the order
    /// `EmpiricalDist::new` sorts into, and that sort finds nothing to move.
    fn std_maxima(&mut self, n: u32, chunks_per_fn: u64) -> Rc<Vec<f64>> {
        if let Some(v) = self.std_max_cache.get(&(n, chunks_per_fn)) {
            return v.clone();
        }
        let mut rng = StdRng::seed_from_u64(self.mc_seed ^ (n as u64) << 32 ^ chunks_per_fn);
        let mut v = stats::std_normal_maxima(n as usize, self.mc_trials, &mut rng);
        v.sort_by(f64::total_cmp);
        let v = Rc::new(v);
        self.std_max_cache.insert((n, chunks_per_fn), v.clone());
        v
    }

    /// The standard-normal draws that shift a `len`-sample empirical
    /// distribution in [`PerfModel::add_normal`]: the fixed stream of a
    /// `StdRng` seeded by `len`, drawn once per length.
    fn shift_draws(&mut self, len: usize) -> &[f64] {
        self.shift_draws.entry(len).or_insert_with(|| {
            let mut rng = StdRng::seed_from_u64(0x5eed ^ len as u64);
            (0..len)
                .map(|_| stats::sample_std_normal(&mut rng))
                .collect()
        })
    }

    /// Adds an independent Normal(`mu`, `sigma`) to a distribution:
    /// exact for Normal, moment-matched Gumbel for Gumbel (preserving the
    /// tail shape of the max), sample-shifted for Empirical.
    fn add_normal(&mut self, base: &Dist, mu: f64, sigma: f64) -> Dist {
        match base {
            Dist::Normal { mu: m, sigma: s } => Dist::Normal {
                mu: m + mu,
                sigma: (s * s + sigma * sigma).sqrt(),
            },
            Dist::Gumbel { mu: m, beta } => {
                // Match the combined variance on a Gumbel, keeping the mean
                // exact: Var(Gumbel) = pi^2 beta^2 / 6.
                let pi2_6 = std::f64::consts::PI.powi(2) / 6.0;
                let beta2 = (beta * beta + sigma * sigma / pi2_6).sqrt();
                let mean_total = m + EULER_GAMMA * beta + mu;
                Dist::Gumbel {
                    mu: mean_total - EULER_GAMMA * beta2,
                    beta: beta2,
                }
            }
            Dist::Empirical(e) => {
                let shifted = self.shifted_samples(e, mu, sigma);
                // xlint::allow(no-unwrap-in-lib, samples come from an existing EmpiricalDist plus a finite normal shift, so they stay finite and non-empty)
                Dist::Empirical(EmpiricalDist::new(shifted).expect("finite samples"))
            }
            other => other.shift(mu),
        }
    }

    /// `e`'s samples, each shifted by an independent Normal(`mu`, `sigma`)
    /// draw. `mu + sigma * z` is the float expression `Dist::sample` uses
    /// for a Normal, so the result matches a per-call RNG drawing
    /// `Dist::normal(mu, sigma)` bit-for-bit.
    fn shifted_samples(&mut self, e: &EmpiricalDist, mu: f64, sigma: f64) -> Vec<f64> {
        e.samples()
            .iter()
            .zip(self.shift_draws(e.len()))
            .map(|(x, z)| x + (mu + sigma * z))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudapi::{Cloud, RegionRegistry};

    fn regions() -> RegionRegistry {
        RegionRegistry::paper_regions()
    }

    fn test_model(regions: &RegionRegistry) -> (PerfModel, PathKey) {
        let src = regions.lookup(Cloud::Aws, "us-east-1").unwrap();
        let dst = regions.lookup(Cloud::Azure, "eastus").unwrap();
        let mut m = PerfModel::new(8 << 20, 2000, 99);
        m.set_loc(
            src,
            LocParams {
                invoke: Dist::normal(0.03, 0.01),
                cold: Dist::normal(0.25, 0.08),
                postpone: Dist::Constant(0.0),
            },
        );
        m.set_loc(
            dst,
            LocParams {
                invoke: Dist::normal(0.05, 0.02),
                cold: Dist::normal(1.1, 0.5),
                postpone: Dist::Uniform { lo: 0.0, hi: 4.0 },
            },
        );
        let path = PathKey {
            src,
            dst,
            side: ExecSide::Source,
        };
        m.set_path(
            path,
            PathParams::new(
                Dist::normal(0.25, 0.05),
                Dist::normal(0.20, 0.04),
                Dist::normal(0.22, 0.05),
            ),
        );
        (m, path)
    }

    #[test]
    fn t_func_cases() {
        let r = regions();
        let (m, path) = test_model(&r);
        let src = path.src;
        // Local handling: zero.
        let local = m.t_func(src, 1, true).unwrap();
        assert_eq!(local.mean(), 0.0);
        // Single remote function: I + D.
        let single = m.t_func(src, 1, false).unwrap();
        assert!((single.mean() - 0.28).abs() < 1e-9);
        // Parallel: I*n + D + P.
        let par = m.t_func(src, 16, false).unwrap();
        assert!((par.mean() - (0.03 * 16.0 + 0.25)).abs() < 1e-9);
        // Variance of I*n grows linearly (iid sum), not quadratically.
        assert!(par.std_dev() < 0.2, "std {}", par.std_dev());
    }

    #[test]
    fn unknown_location_errors() {
        let r = regions();
        let (m, _) = test_model(&r);
        let unknown = r.lookup(Cloud::Gcp, "us-west1").unwrap();
        assert!(matches!(
            m.t_func(unknown, 1, false),
            Err(ModelError::UnknownLocation(_))
        ));
    }

    #[test]
    fn single_transfer_scales_with_chunks() {
        let r = regions();
        let (m, path) = test_model(&r);
        let one = m.t_transfer_single(path, 8 << 20).unwrap();
        let four = m.t_transfer_single(path, 32 << 20).unwrap();
        // 1 chunk: S + C = 0.45; 4 chunks: S + 4C = 1.05.
        assert!((one.mean() - 0.45).abs() < 1e-9);
        assert!((four.mean() - 1.05).abs() < 1e-9);
    }

    #[test]
    fn parallel_transfer_beats_single_for_large_objects() {
        let r = regions();
        let (mut m, path) = test_model(&r);
        let size = 1 << 30; // 128 chunks
        let single = m.t_transfer_single(path, size).unwrap().quantile(0.99);
        let par16 = m
            .t_transfer_parallel(path, size, 16)
            .unwrap()
            .quantile(0.99);
        assert!(par16 < single / 4.0, "16-way {par16} vs single {single}");
    }

    #[test]
    fn parallel_transfer_monotone_in_n_at_fixed_chunks() {
        let r = regions();
        let (mut m, path) = test_model(&r);
        let size = 1 << 30;
        let p8 = m.t_transfer_parallel(path, size, 8).unwrap().quantile(0.9);
        let p64 = m.t_transfer_parallel(path, size, 64).unwrap().quantile(0.9);
        assert!(p64 < p8, "more parallelism should shorten transfer");
    }

    #[test]
    fn monte_carlo_cache_hits() {
        let r = regions();
        let (mut m, path) = test_model(&r);
        assert_eq!(m.cached_max_dists(), 0);
        let a = m.t_transfer_parallel(path, 1 << 30, 16).unwrap();
        assert_eq!(m.cached_max_dists(), 1);
        let b = m.t_transfer_parallel(path, 1 << 30, 16).unwrap();
        assert_eq!(m.cached_max_dists(), 1);
        assert!(
            Rc::ptr_eq(&a, &b),
            "a hit must share the cached distribution, not copy it"
        );
    }

    #[test]
    fn large_n_uses_gumbel() {
        let r = regions();
        let (mut m, path) = test_model(&r);
        let d = m.t_transfer_parallel(path, 100 << 30, 256).unwrap();
        assert!(matches!(*d, Dist::Gumbel { .. }));
        // And it must still be a sane, finite prediction.
        let q = d.quantile(0.99);
        assert!(q.is_finite() && q > 0.0);
    }

    #[test]
    fn t_rep_combines_func_and_transfer() {
        let r = regions();
        let (mut m, path) = test_model(&r);
        // Small object, local: just the transfer.
        let local = m.t_rep_quantile(path, 1 << 20, 1, true, 0.5).unwrap();
        assert!((local - 0.45).abs() < 0.02, "local median {local}");
        // Same object via one remote function adds I + D.
        let remote = m.t_rep_quantile(path, 1 << 20, 1, false, 0.5).unwrap();
        assert!((remote - (0.45 + 0.28)).abs() < 0.02, "remote {remote}");
        // Percentile ordering.
        let p50 = m.t_rep_quantile(path, 1 << 30, 16, false, 0.5).unwrap();
        let p99 = m.t_rep_quantile(path, 1 << 30, 16, false, 0.99).unwrap();
        assert!(p99 > p50);
    }

    #[test]
    fn std_maxima_reuse_matches_cold_recompute_bitwise() {
        // The standardized-maxima cache survives rescale invalidation; the
        // re-fit after a drift correction must be float-identical to what a
        // cold model (same rescale, no prior queries) computes from scratch.
        let r = regions();
        let (mut warm, path) = test_model(&r);
        let _ = warm.t_transfer_parallel(path, 1 << 30, 16).unwrap(); // warm the std cache
        assert_eq!(warm.cached_std_maxima(), 1);
        warm.rescale_path_chunks(path, 1.7);
        let reused = warm.t_transfer_parallel(path, 1 << 30, 16).unwrap();

        let (mut cold, _) = test_model(&r);
        cold.rescale_path_chunks(path, 1.7);
        let fresh = cold.t_transfer_parallel(path, 1 << 30, 16).unwrap();
        assert_eq!(reused, fresh, "std-maxima reuse drifted from cold path");

        // The cached maxima are sorted, yet the distribution built from
        // them is the full Monte Carlo's, float for float, for the same
        // derived seed: 1 GiB at 8 MiB chunks over 16 instances is 8 chunks
        // per instance.
        let p = cold.path_params(path).unwrap().clone();
        let per_instance = inflate_instance_cv(
            sum_as_normal(&[p.setup.clone(), p.chunk_distributed.iid_sum(8)]),
            p.instance_cv,
        );
        let mut rng = StdRng::seed_from_u64(99 ^ 16u64 << 32 ^ 8);
        let full = stats::monte_carlo_max(&per_instance, 16, 2000, &mut rng);
        assert_eq!(*fresh, Dist::Empirical(full));
        let std_max = cold.std_maxima(16, 8);
        assert!(std_max.windows(2).all(|w| w[0] <= w[1]));
    }

    /// `add_normal`'s Empirical arm with a fresh RNG per call: the reference
    /// the cached shift draws must reproduce.
    fn add_normal_per_call_rng(e: &stats::EmpiricalDist, mu: f64, sigma: f64) -> Dist {
        let mut rng = StdRng::seed_from_u64(0x5eed ^ e.len() as u64);
        let shifted: Vec<f64> = e
            .samples()
            .iter()
            .map(|x| x + Dist::normal(mu, sigma).sample(&mut rng))
            .collect();
        Dist::Empirical(stats::EmpiricalDist::new(shifted).unwrap())
    }

    #[test]
    fn cached_shift_draws_match_per_call_rng() {
        let mut m = PerfModel::default();
        let mut rng = StdRng::seed_from_u64(3);
        for len in [1, 7, 3000] {
            let e = stats::monte_carlo_max(&Dist::normal(4.0, 1.3), 8, len, &mut rng);
            for (mu, sigma) in [(0.78, 0.21), (0.0, 0.0), (12.5, 3.25), (0.1, 1e-9)] {
                // Twice: once drawing, once from the cache.
                for _ in 0..2 {
                    assert_eq!(
                        m.add_normal(&Dist::Empirical(e.clone()), mu, sigma),
                        add_normal_per_call_rng(&e, mu, sigma),
                        "len {len} mu {mu} sigma {sigma}"
                    );
                }
            }
        }
        assert_eq!(m.shift_draws.len(), 3);
    }

    #[test]
    fn sizes_with_one_chunk_count_share_a_memo_entry() {
        let r = regions();
        let (mut m, path) = test_model(&r);
        // 121..=128 chunks all give 8 chunks per instance at n = 16.
        let sizes = [1 << 30, (1 << 30) - 5, 121 * (8 << 20)];
        let first = m.t_rep_quantile(path, sizes[0], 16, false, 0.99).unwrap();
        assert_eq!(m.cached_quantiles(), 1);
        for &size in &sizes[1..] {
            let q = m.t_rep_quantile(path, size, 16, false, 0.99).unwrap();
            assert_eq!(q.to_bits(), first.to_bits());
            let (mut cold, _) = test_model(&r);
            let fresh = cold.t_rep_quantile(path, size, 16, false, 0.99).unwrap();
            assert_eq!(q.to_bits(), fresh.to_bits(), "size {size}");
        }
        assert_eq!(m.cached_quantiles(), 1);
        // At n = 1 the whole-object count matters: 120 chunks is a new entry.
        m.t_rep_quantile(path, 120 * (8 << 20), 1, false, 0.99)
            .unwrap();
        m.t_rep_quantile(path, 1 << 30, 1, false, 0.99).unwrap();
        m.t_rep_quantile(path, (1 << 30) - 5, 1, false, 0.99)
            .unwrap();
        assert_eq!(m.cached_quantiles(), 3);
    }

    #[test]
    fn set_loc_empties_the_memo() {
        let r = regions();
        let (mut m, path) = test_model(&r);
        let before = m.t_rep_quantile(path, 1 << 30, 16, false, 0.9).unwrap();
        m.t_rep_quantile(path, 1 << 20, 1, true, 0.9).unwrap();
        assert_eq!(m.cached_quantiles(), 2);
        let mut slower = m.loc_params(path.src).unwrap().clone();
        slower.cold = Dist::normal(2.0, 0.5);
        m.set_loc(path.src, slower);
        assert_eq!(m.cached_quantiles(), 0);
        assert_eq!(m.cached_max_dists(), 1, "max-of-n does not read I/D/P");
        let after = m.t_rep_quantile(path, 1 << 30, 16, false, 0.9).unwrap();
        assert!(after > before + 1.0, "{before} -> {after}");
    }

    #[test]
    fn rescale_keeps_the_other_sides_memo() {
        let r = regions();
        let (mut m, src_side) = test_model(&r);
        let dst_side = PathKey {
            side: ExecSide::Destination,
            ..src_side
        };
        m.set_path(
            dst_side,
            PathParams::new(
                Dist::normal(0.3, 0.05),
                Dist::normal(0.25, 0.04),
                Dist::normal(0.27, 0.05),
            ),
        );
        for path in [src_side, dst_side] {
            for n in [1, 4, 16] {
                m.t_rep_quantile(path, 1 << 30, n, false, 0.99).unwrap();
            }
        }
        assert_eq!(m.cached_quantiles(), 6);
        m.rescale_path_chunks(src_side, 1.3);
        assert_eq!(m.cached_quantiles(), 3);
        assert_eq!(m.cached_max_dists(), 2, "only the dst side's n = 4, 16");
        m.set_path(dst_side, m.path_params(dst_side).unwrap().clone());
        assert_eq!(m.cached_quantiles(), 0);
    }

    #[test]
    fn gumbel_plus_normal_keeps_mean_and_variance() {
        let g = Dist::Gumbel {
            mu: 10.0,
            beta: 2.0,
        };
        let combined = PerfModel::default().add_normal(&g, 3.0, 1.5);
        assert!((combined.mean() - (g.mean() + 3.0)).abs() < 1e-9);
        let var_expected = g.std_dev().powi(2) + 1.5f64.powi(2);
        assert!((combined.std_dev().powi(2) - var_expected).abs() < 1e-9);
    }

    #[test]
    fn rescale_invalidates_cache_and_moves_predictions() {
        let r = regions();
        let (mut m, path) = test_model(&r);
        let before = m.t_rep_quantile(path, 1 << 30, 16, false, 0.9).unwrap();
        m.rescale_path_chunks(path, 2.0);
        assert_eq!(m.cached_max_dists(), 0);
        let after = m.t_rep_quantile(path, 1 << 30, 16, false, 0.9).unwrap();
        assert!(
            after > before * 1.4,
            "rescale had no effect: {before} -> {after}"
        );
    }

    #[test]
    fn notif_quantile_defaults_to_zero() {
        let r = regions();
        let (mut m, path) = test_model(&r);
        assert_eq!(m.notif_delay_quantile(path.src, 0.99), 0.0);
        m.set_notif(path.src, Dist::normal(0.45, 0.1));
        assert!(m.notif_delay_quantile(path.src, 0.99) > 0.45);
    }
}
