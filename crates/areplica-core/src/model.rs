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
//! large `n`, exactly as the paper prescribes. The Monte Carlo is
//! bootstrapped on demand as standardized maxima, which no parameter change
//! invalidates: every answer maps them through the path's current
//! per-instance time.
//!
//! The planner's percentile queries and the online logger's mean
//! predictions are memoised exactly, in one map: a `T_rep` quantile or mean
//! depends on the object size only through one chunk count, so repeated
//! queries for sizes that share that count are answered from the map, with
//! the same bits a fresh computation would produce. The online logger's
//! drift corrections invalidate the memo. Under a LogNormal per-instance
//! time, a memo miss below the Gumbel threshold bootstraps in stages
//! ([`PerfModel::t_rep_quantile_unless`]): after each batch of trials a
//! floor on the answer is exact, so the planner stops a level as soon as
//! its floor loses. The memo keeps that floor in the answer's place, and a
//! later miss on the same bootstrap resumes it.

use std::collections::BTreeMap;

use cloudapi::RegionId;
use rand::rngs::StdRng;
use rand::SeedableRng;
use stats::{sum_as_normal, Dist, EmpiricalDist, StdNormalMap, EULER_GAMMA, GUMBEL_THRESHOLD_N};

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
    if !widens(&base, cv) {
        return base;
    }
    let mu = base.mean();
    let sigma = (base.std_dev().powi(2) + (mu * cv).powi(2)).sqrt();
    Dist::lognormal_mean_cv(mu, sigma / mu)
}

/// Whether [`inflate_instance_cv`] turns `base` into a LogNormal: a
/// positive CV on a positive mean.
fn widens(base: &Dist, cv: f64) -> bool {
    !(cv <= 0.0 || base.mean() <= 0.0)
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

/// Everything a memoised `T_rep` statistic depends on, given the model's
/// parameters: the size enters only through [`PerfModel::plan_chunks`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct MemoKey {
    path: PathKey,
    n: u32,
    local: bool,
    chunks: u64,
    stat: Stat,
}

/// Which statistic of `T_rep` a memo entry holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Stat {
    /// The `p`-quantile clamped at zero, keyed by `p`'s bits.
    Quantile(u64),
    /// The mean.
    Mean,
}

/// One length's shift draws, in draw order, and their indices sorted by
/// draw, largest first. A shift `mu + sigma * z` with `sigma >= 0` is
/// non-decreasing in `z`, so `by_z` is every shift's descending order too.
#[derive(Debug, Clone)]
struct ShiftDraws {
    z: Vec<f64>,
    by_z: Vec<u32>,
}

impl ShiftDraws {
    /// The draws for `len` samples from `cache`: the fixed stream of a
    /// `StdRng` seeded by `len`, drawn once per length, with their
    /// descending order.
    fn cached(cache: &mut BTreeMap<usize, ShiftDraws>, len: usize) -> &ShiftDraws {
        cache.entry(len).or_insert_with(|| {
            let mut rng = StdRng::seed_from_u64(0x5eed ^ len as u64);
            let z: Vec<f64> = (0..len)
                .map(|_| stats::sample_std_normal(&mut rng))
                .collect();
            #[expect(
                clippy::expect_used,
                reason = "the length is the model's mc_trials, a trial count far below 2^32"
            )]
            let mut by_z: Vec<u32> =
                (0..u32::try_from(len).expect("fewer than 2^32 draws")).collect();
            by_z.sort_by(|&i, &j| z[j as usize].total_cmp(&z[i as usize]));
            ShiftDraws { z, by_z }
        })
    }

    /// Shift `i`: the Normal(`mu`, `sigma`) `T_func` draw `mu + sigma * z[i]`.
    fn shift(&self, mu: f64, sigma: f64, i: usize) -> f64 {
        mu + sigma * self.z[i]
    }

    /// The shifts' `p`-quantile, as [`EmpiricalDist::quantile`] reads it
    /// over them, from two shifts: the `r`-th smallest is shift
    /// `by_z[len − 1 − r]`. `None` for no draws.
    fn quantile(&self, mu: f64, sigma: f64, p: f64) -> Option<f64> {
        let len = self.by_z.len();
        let ascending = |r: usize| self.shift(mu, sigma, self.by_z[len - 1 - r] as usize);
        (len > 0).then(|| stats::interpolate_ranks(len, p, |lo, hi| (ascending(lo), ascending(hi))))
    }
}

/// `T_rep`'s samples at `2 <= n < GUMBEL_THRESHOLD_N`, read straight from
/// the cached standardized maxima and shift draws: sample `i` is the
/// max-of-`n` transfer time `map(maxima[i])`, ascending in `i`, plus the
/// independent Normal `T_func` draw `mu + sigma * draws.z[i]`. Those are
/// [`Dist::sample`]'s float expressions, so the samples match a fresh Monte
/// Carlo plus a per-call RNG shift, bit for bit.
///
/// A stage of the bootstrap holds fewer maxima than draws: the `m` drawn
/// trials' maxima fill the highest indices, and every lower index's
/// transfer reads 0. The `j`-th largest of `m` trials' maxima is at most
/// the `j`-th largest of all of them, and a LogNormal map is monotone and
/// `>= 0`, so every such transfer is at most the complete bootstrap's at
/// its index, and every quantile of the sums at most the answer's.
struct FusedSamples<'a> {
    map: StdNormalMap,
    maxima: &'a [f64],
    draws: &'a ShiftDraws,
    mu: f64,
    sigma: f64,
}

impl FusedSamples<'_> {
    /// The number of samples: one per trial of the complete bootstrap.
    fn len(&self) -> usize {
        self.draws.z.len()
    }

    fn transfer(&self, i: usize) -> f64 {
        match i.checked_sub(self.len() - self.maxima.len()) {
            Some(drawn) => self.map.apply(self.maxima[drawn]),
            None => 0.0,
        }
    }

    fn shift(&self, i: usize) -> f64 {
        self.draws.shift(self.mu, self.sigma, i)
    }

    /// The samples as a distribution, summed in index order.
    fn dist(&self) -> Dist {
        let samples = (0..self.len())
            .map(|i| self.transfer(i) + self.shift(i))
            .collect();
        #[expect(
            clippy::expect_used,
            reason = "finite maxima through a Normal or LogNormal map plus a finite normal shift stay finite, and mc_trials > 0"
        )]
        Dist::Empirical(EmpiricalDist::new(samples).expect("finite samples"))
    }

    /// `self.dist().quantile(p)`, bit for bit, without building it: a
    /// two-cursor pass down the ascending maxima and the descending draws,
    /// which stops once the next maximum plus the next shift proves no
    /// unread sample reaches the ranks `p` reads.
    fn quantile(&self, p: f64) -> f64 {
        let len = self.len();
        #[expect(
            clippy::expect_used,
            reason = "finite maxima through a Normal or LogNormal map plus a finite normal shift stay finite, and mc_trials > 0"
        )]
        stats::quantile_of_sums(
            len,
            p,
            |i| self.transfer(i),
            |i| self.shift(i),
            &self.draws.by_z,
        )
        .expect("finite samples")
    }
}

/// The fitted performance model.
#[derive(Debug, Clone, Default)]
pub struct PerfModel {
    loc: BTreeMap<RegionId, LocParams>,
    path: BTreeMap<PathKey, PathParams>,
    notif: BTreeMap<RegionId, Dist>,
    /// Memoised `t_rep_quantile` and `t_rep_mean` answers, and the floors
    /// staged quantile misses stopped at. Invalidated per path by
    /// `set_path` and `rescale_path_chunks`, and entirely by `set_loc`
    /// (`T_func` reads the location).
    memo: BTreeMap<MemoKey, Memo>,
    /// Each `(n, chunks_per_fn)` key's bootstrap of standardized per-trial
    /// maxima: the model's only max-of-n cache. The derived MC seed
    /// depends only on that pair — never on path parameters — so these
    /// survive `set_path` / `rescale_path_chunks`, and an answer after a
    /// drift correction maps them instead of running a fresh Monte Carlo
    /// (the fig23 replay hot path). A bootstrap stopped at a stage resumes
    /// where it stopped.
    bootstraps: BTreeMap<(u32, u64), Bootstrap>,
    /// The standard-normal draws that add `T_func` to a `len`-sample
    /// max-of-n, keyed by `len`. Their seed depends on `len` alone, so they
    /// never need invalidating.
    shift_draws: BTreeMap<usize, ShiftDraws>,
    /// Chunk size `c` in bytes the parameters were profiled at.
    chunk_size: u64,
    /// Monte-Carlo trial budget per cached distribution.
    mc_trials: usize,
    mc_seed: u64,
}

/// A memoised statistic: the answer, or, for a quantile, the floor on it at
/// which a staged miss stopped, which the next miss tries before any stage.
#[derive(Debug, Clone, Copy)]
enum Memo {
    Answer(f64),
    Floor(f64),
}

/// One `(n, chunks_per_fn)` key's bootstrap so far: the standardized maxima
/// of its first trials, sorted ascending, and the RNG that draws the rest.
/// It is complete once it holds the model's `mc_trials` maxima.
#[derive(Debug, Clone)]
struct Bootstrap {
    maxima: Vec<f64>,
    rng: StdRng,
}

impl Bootstrap {
    /// `(n, chunks_per_fn)`'s standardized maxima in `cache`, sorted
    /// ascending, after drawing trials until it holds at least `trials`.
    /// Trials come in order from one RNG seeded by `mc_seed` and the key
    /// alone, so the bootstrap depends neither on query order nor on how it
    /// was staged: [`stats::std_normal_maxima`] carries nothing from one
    /// trial to the next but the RNG, and complete, it reproduces
    /// [`stats::monte_carlo_max`] under that seed bit for bit through
    /// [`stats::monte_carlo_max_from_std`].
    ///
    /// The maxima are kept sorted: the maps `monte_carlo_max_from_std`
    /// applies are monotone, so its output is then already in the order
    /// `EmpiricalDist::new` sorts into, and that sort returns after its
    /// check pass. Each batch is sorted alone and merged into the held
    /// maxima, held first on a tie ([`stats::extend_ascending`]), so the
    /// complete vector is the one-shot maxima's stable sort and each
    /// trial's maximum is sorted once.
    fn drawn(
        cache: &mut BTreeMap<(u32, u64), Bootstrap>,
        mc_seed: u64,
        n: u32,
        chunks_per_fn: u64,
        trials: usize,
    ) -> &[f64] {
        let b = cache
            .entry((n, chunks_per_fn))
            .or_insert_with(|| Bootstrap {
                maxima: Vec::new(),
                rng: StdRng::seed_from_u64(mc_seed ^ (n as u64) << 32 ^ chunks_per_fn),
            });
        let more = trials.saturating_sub(b.maxima.len());
        if more > 0 {
            b.maxima.reserve_exact(more);
            let batch = stats::std_normal_maxima(n as usize, more, &mut b.rng);
            stats::extend_ascending(&mut b.maxima, batch);
        }
        &b.maxima
    }
}

/// The trials a staged bootstrap holds at its first stage that reads any
/// maxima. Each later stage doubles them, and the last holds the model's
/// whole trial budget.
const FIRST_STAGE_TRIALS: usize = 32;

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
    /// every memoised answer.
    pub fn set_loc(&mut self, region: RegionId, params: LocParams) {
        self.memo.clear();
        self.loc.insert(region, params);
    }

    /// Installs (or replaces) a path's `S/C/C′` parameters, invalidating its
    /// memoised answers.
    pub fn set_path(&mut self, key: PathKey, params: PathParams) {
        self.invalidate_path(key);
        self.path.insert(key, params);
    }

    fn invalidate_path(&mut self, key: PathKey) {
        self.memo.retain(|k, _| k.path != key);
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
    /// `S + Σ_{⌈size/(c·n)⌉} C′`, via the cached Monte-Carlo maxima or
    /// Gumbel EVT.
    pub fn t_transfer_parallel(
        &mut self,
        path: PathKey,
        size: u64,
        n: u32,
    ) -> Result<Dist, ModelError> {
        assert!(n >= 2, "use t_transfer_single for n = 1");
        let chunks_per_fn = self.plan_chunks(size, n);
        let per_instance = self.per_instance(path, chunks_per_fn)?;
        if (n as usize) >= GUMBEL_THRESHOLD_N {
            return Ok(stats::gumbel_max_of_normals(
                per_instance.mean(),
                per_instance.std_dev(),
                n as usize,
            ));
        }
        let std_maxima = self.std_maxima(n, chunks_per_fn);
        #[expect(
            clippy::expect_used,
            reason = "per_instance is sum_as_normal's Normal or inflate_instance_cv's LogNormal, the family the shortcut covers"
        )]
        Ok(Dist::Empirical(
            stats::monte_carlo_max_from_std(&per_instance, std_maxima)
                .expect("per-instance time is Normal or LogNormal"),
        ))
    }

    /// One instance's share of a parallel transfer, `S + Σ_{chunks} C′`,
    /// widened by the path's between-instance CV: a Normal, or a LogNormal
    /// when that CV is positive.
    fn per_instance(&self, path: PathKey, chunks_per_fn: u64) -> Result<Dist, ModelError> {
        let (base, cv) = self.per_instance_base(path, chunks_per_fn)?;
        Ok(inflate_instance_cv(base, cv))
    }

    /// [`per_instance`](Self::per_instance) before the widening, and the
    /// path's instance CV.
    fn per_instance_base(
        &self,
        path: PathKey,
        chunks_per_fn: u64,
    ) -> Result<(Dist, f64), ModelError> {
        let p = self.path.get(&path).ok_or(ModelError::UnknownPath(path))?;
        let base = sum_as_normal(&[p.setup.clone(), p.chunk_distributed.iid_sum(chunks_per_fn)]);
        Ok((base, p.instance_cv))
    }

    /// Full `T_rep` distribution for a plan.
    pub fn t_rep_dist(
        &mut self,
        path: PathKey,
        size: u64,
        n: u32,
        local: bool,
    ) -> Result<Dist, ModelError> {
        let loc = path.side.region(path.src, path.dst);
        if n <= 1 {
            let t_func = self.t_func(loc, n, local)?;
            let t_transfer = self.t_transfer_single(path, size)?;
            return Ok(sum_as_normal(&[t_func, t_transfer]));
        }
        if (n as usize) < GUMBEL_THRESHOLD_N {
            let trials = self.mc_trials;
            return Ok(self.fused_samples(path, size, n, local, trials)?.dist());
        }
        let t_func = self.t_func(loc, n, local)?;
        let t_transfer = self.t_transfer_parallel(path, size, n)?;
        Ok(add_normal(&t_transfer, t_func.mean(), t_func.std_dev()))
    }

    /// What a `T_rep` answer or stage at `2 <= n < GUMBEL_THRESHOLD_N`
    /// reads: the per-instance map, the cached shift draws, the mean and
    /// standard deviation of the Normal `T_func`, and the key's standardized
    /// maxima once its bootstrap holds at least `trials` (at most
    /// `mc_trials`, which completes it).
    fn fused_samples(
        &mut self,
        path: PathKey,
        size: u64,
        n: u32,
        local: bool,
        trials: usize,
    ) -> Result<FusedSamples<'_>, ModelError> {
        let t_func = self.t_func(path.side.region(path.src, path.dst), n, local)?;
        let chunks_per_fn = self.plan_chunks(size, n);
        let per_instance = self.per_instance(path, chunks_per_fn)?;
        #[expect(
            clippy::expect_used,
            reason = "per_instance is sum_as_normal's Normal or inflate_instance_cv's LogNormal"
        )]
        let map =
            StdNormalMap::of(&per_instance).expect("per-instance time is Normal or LogNormal");
        Ok(FusedSamples {
            map,
            maxima: Bootstrap::drawn(&mut self.bootstraps, self.mc_seed, n, chunks_per_fn, trials),
            draws: ShiftDraws::cached(&mut self.shift_draws, self.mc_trials),
            mu: t_func.mean(),
            sigma: t_func.std_dev(),
        })
    }

    /// The planner's scalar query: `t` such that `P(T_rep <= t) >= p`,
    /// in seconds.
    ///
    /// Answers are memoised on `(path, n, local, chunk count, p)`, which
    /// with the current parameters determines the answer exactly. A miss
    /// answers `t_rep_dist(..).quantile(p).max(0.0)`, bit for bit, but below
    /// the Gumbel threshold it reads the quantile from the cached maxima and
    /// shift draws instead of building and sorting the samples.
    pub fn t_rep_quantile(
        &mut self,
        path: PathKey,
        size: u64,
        n: u32,
        local: bool,
        p: f64,
    ) -> Result<f64, ModelError> {
        let key = self.memo_key(path, size, n, local, Stat::Quantile(p.to_bits()));
        match self.memo.get(&key) {
            Some(&Memo::Answer(q)) => Ok(q),
            _ => self.answer(key, size, p),
        }
    }

    /// `t_rep_dist(..).mean()`, bit for bit: the online logger's mean
    /// prediction. It is memoised with the quantiles, on
    /// `(path, n, local, chunk count)`, so it is computed once per model
    /// state.
    pub fn t_rep_mean(
        &mut self,
        path: PathKey,
        size: u64,
        n: u32,
        local: bool,
    ) -> Result<f64, ModelError> {
        let key = self.memo_key(path, size, n, local, Stat::Mean);
        if let Some(&Memo::Answer(mean)) = self.memo.get(&key) {
            return Ok(mean);
        }
        let mean = self.t_rep_dist(path, size, n, local)?.mean();
        self.memo.insert(key, Memo::Answer(mean));
        Ok(mean)
    }

    /// [`t_rep_quantile`](Self::t_rep_quantile)'s answer, unless it is not
    /// memoised and a floor on it satisfies `loses`: then `None`, with that
    /// floor memoised in the answer's place.
    ///
    /// Below the Gumbel threshold, under a LogNormal per-instance time (any
    /// positive instance CV), a miss bootstraps in stages. Each stage reads
    /// the answer's `p`-quantile over the trials drawn so far, every undrawn
    /// trial's transfer counted as 0: a floor on the answer, bit for bit,
    /// that never falls from one stage to the next. Stage 0 reads no
    /// maxima: it is `T_func`'s quantile over the shift draws, read from two
    /// of them. The next stage reads the trials the key's bootstrap already
    /// holds: all of them, and then it is the answer, or those a stopped
    /// miss drew. A new key instead draws 32 trials. Each later stage
    /// doubles the trials, up to the whole budget. The first stage value
    /// short of the answer that satisfies `loses` returns `None`; the drawn
    /// trials stay cached for the next miss to resume from, and the floor is
    /// memoised, so the next miss on the same key tries it in place of
    /// stage 0. Elsewhere `loses` is not called.
    pub fn t_rep_quantile_unless(
        &mut self,
        path: PathKey,
        size: u64,
        n: u32,
        local: bool,
        p: f64,
        loses: impl Fn(f64) -> bool,
    ) -> Result<Option<f64>, ModelError> {
        let key = self.memo_key(path, size, n, local, Stat::Quantile(p.to_bits()));
        let stopped = match self.memo.get(&key) {
            Some(&Memo::Answer(q)) => return Ok(Some(q)),
            Some(&Memo::Floor(floor)) => Some(floor),
            None => None,
        };
        let staged = n >= 2
            && (n as usize) < GUMBEL_THRESHOLD_N
            && self
                .per_instance_base(path, key.chunks)
                .is_ok_and(|(base, cv)| widens(&base, cv));
        if !staged {
            return self.answer(key, size, p).map(Some);
        }
        let mut floor = match stopped {
            Some(floor) => Some(floor),
            None => self.stage_zero(path, n, local, p)?,
        };
        let held = self
            .bootstraps
            .get(&(n, key.chunks))
            .map_or(0, |b| b.maxima.len());
        let mut trials = held.max(FIRST_STAGE_TRIALS).min(self.mc_trials);
        loop {
            if let Some(floor) = floor.filter(|&floor| loses(floor)) {
                self.memo.insert(key, Memo::Floor(floor));
                return Ok(None);
            }
            let q = self.fused_samples(path, size, n, local, trials)?;
            let q = q.quantile(p).max(0.0);
            if trials == self.mc_trials {
                self.memo.insert(key, Memo::Answer(q));
                return Ok(Some(q));
            }
            floor = Some(q);
            trials = (trials * 2).min(self.mc_trials);
        }
    }

    /// Stage 0 of a staged miss: `T_func`'s `p`-quantile over the cached
    /// shift draws, clamped at zero, from two shifts and no maxima. It is
    /// the stage with every trial undrawn, each sample its shift alone.
    /// `None` for no draws.
    fn stage_zero(
        &mut self,
        path: PathKey,
        n: u32,
        local: bool,
        p: f64,
    ) -> Result<Option<f64>, ModelError> {
        let t_func = self.t_func(path.side.region(path.src, path.dst), n, local)?;
        let draws = ShiftDraws::cached(&mut self.shift_draws, self.mc_trials);
        let floor = draws.quantile(t_func.mean(), t_func.std_dev(), p);
        Ok(floor.map(|q| q.max(0.0)))
    }

    fn memo_key(&self, path: PathKey, size: u64, n: u32, local: bool, stat: Stat) -> MemoKey {
        MemoKey {
            path,
            n,
            local,
            chunks: self.plan_chunks(size, n),
            stat,
        }
    }

    /// Computes and memoises the `p`-quantile at `key` for an object of
    /// `size`.
    fn answer(&mut self, key: MemoKey, size: u64, p: f64) -> Result<f64, ModelError> {
        let MemoKey { path, n, local, .. } = key;
        let q = if n >= 2 && (n as usize) < GUMBEL_THRESHOLD_N {
            let trials = self.mc_trials;
            self.fused_samples(path, size, n, local, trials)?
                .quantile(p)
        } else {
            self.t_rep_dist(path, size, n, local)?.quantile(p)
        }
        .max(0.0);
        self.memo.insert(key, Memo::Answer(q));
        Ok(q)
    }

    /// Scales a path's chunk parameters by `factor` (online logger drift
    /// correction) and invalidates the path's memoised answers.
    pub fn rescale_path_chunks(&mut self, key: PathKey, factor: f64) {
        assert!(factor > 0.0 && factor.is_finite());
        if let Some(p) = self.path.get_mut(&key) {
            p.chunk = p.chunk.scale(factor);
            p.chunk_distributed = p.chunk_distributed.scale(factor);
        }
        self.invalidate_path(key);
    }

    /// Number of complete max-of-n Monte-Carlo runs, each a vector of the
    /// model's `mc_trials` standardized maxima for one
    /// `(n, chunks per instance)`. A bootstrap stopped at a stage does not
    /// count (test/inspection hook).
    pub fn cached_max_dists(&self) -> usize {
        self.bootstraps
            .values()
            .filter(|b| b.maxima.len() == self.mc_trials)
            .count()
    }

    /// Number of memoised `t_rep_quantile` answers; a memoised floor or
    /// mean does not count (test/inspection hook).
    pub fn cached_quantiles(&self) -> usize {
        self.memo
            .iter()
            .filter(|(k, m)| matches!((k.stat, m), (Stat::Quantile(_), Memo::Answer(_))))
            .count()
    }

    /// The complete bootstrap's standardized per-trial maxima for
    /// `(n, chunks_per_fn)`, sorted ascending.
    fn std_maxima(&mut self, n: u32, chunks_per_fn: u64) -> &[f64] {
        let trials = self.mc_trials;
        Bootstrap::drawn(&mut self.bootstraps, self.mc_seed, n, chunks_per_fn, trials)
    }
}

/// Adds an independent Normal(`mu`, `sigma`) to a closed-form distribution:
/// exact for Normal, moment-matched Gumbel for Gumbel (preserving the tail
/// shape of the max), a plain shift by `mu` otherwise.
fn add_normal(base: &Dist, mu: f64, sigma: f64) -> Dist {
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
        other => other.shift(mu),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudapi::{Cloud, RegionRegistry};
    use proptest::prelude::*;
    use rand::Rng;

    fn regions() -> RegionRegistry {
        RegionRegistry::paper_regions()
    }

    fn test_model(regions: &RegionRegistry) -> (PerfModel, PathKey) {
        model_with(regions, 2000, 0.0)
    }

    fn model_with(
        regions: &RegionRegistry,
        mc_trials: usize,
        instance_cv: f64,
    ) -> (PerfModel, PathKey) {
        let src = regions.lookup(Cloud::Aws, "us-east-1").unwrap();
        let dst = regions.lookup(Cloud::Azure, "eastus").unwrap();
        let mut m = PerfModel::new(8 << 20, mc_trials, 99);
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
            PathParams {
                instance_cv,
                ..PathParams::new(
                    Dist::normal(0.25, 0.05),
                    Dist::normal(0.20, 0.04),
                    Dist::normal(0.22, 0.05),
                )
            },
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
        let other_side = PathKey {
            side: ExecSide::Destination,
            ..path
        };
        m.set_path(other_side, m.path_params(path).unwrap().clone());
        assert_eq!(m.cached_max_dists(), 0);
        let a = m.t_transfer_parallel(path, 1 << 30, 16).unwrap();
        assert_eq!(m.cached_max_dists(), 1);
        let maxima = m.std_maxima(16, 8).as_ptr();
        // Every answer at 8 chunks per instance over 16 instances, on either
        // path, reads the one bootstrap.
        m.t_rep_quantile(path, 1 << 30, 16, false, 0.99).unwrap();
        m.t_rep_dist(path, (1 << 30) - 5, 16, false).unwrap();
        m.t_rep_quantile(other_side, 121 * (8 << 20), 16, false, 0.5)
            .unwrap();
        let b = m.t_transfer_parallel(path, 1 << 30, 16).unwrap();
        assert_eq!(a, b);
        assert_eq!(m.cached_max_dists(), 1);
        assert_eq!(
            maxima,
            m.std_maxima(16, 8).as_ptr(),
            "a hit must read the cached maxima, not redraw them"
        );
        // Another chunk count per instance bootstraps its own.
        m.t_transfer_parallel(path, 1 << 29, 16).unwrap();
        assert_eq!(m.cached_max_dists(), 2);
    }

    #[test]
    fn large_n_uses_gumbel() {
        let r = regions();
        let (mut m, path) = test_model(&r);
        let d = m.t_transfer_parallel(path, 100 << 30, 256).unwrap();
        assert!(matches!(d, Dist::Gumbel { .. }));
        assert_eq!(m.cached_max_dists(), 0, "the closed form caches nothing");
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
        let maxima = warm.std_maxima(16, 8).as_ptr();
        warm.rescale_path_chunks(path, 1.7);
        let reused = warm.t_transfer_parallel(path, 1 << 30, 16).unwrap();
        assert_eq!(warm.cached_max_dists(), 1);
        assert_eq!(maxima, warm.std_maxima(16, 8).as_ptr());

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
        assert_eq!(fresh, Dist::Empirical(full));
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
        let parent = Dist::normal(4.0, 1.3);
        for len in [1, 7, 3000] {
            let seed = 3 ^ len as u64;
            let e = stats::monte_carlo_max(&parent, 8, len, &mut StdRng::seed_from_u64(seed));
            let mut maxima = stats::std_normal_maxima(8, len, &mut StdRng::seed_from_u64(seed));
            stats::sort_ascending(&mut maxima);
            for (mu, sigma) in [(0.78, 0.21), (0.0, 0.0), (12.5, 3.25), (0.1, 1e-9)] {
                let reference = add_normal_per_call_rng(&e, mu, sigma);
                // Twice: once drawing, once from the cache.
                for _ in 0..2 {
                    let fused = FusedSamples {
                        map: StdNormalMap::of(&parent).unwrap(),
                        maxima: &maxima,
                        draws: ShiftDraws::cached(&mut m.shift_draws, len),
                        mu,
                        sigma,
                    };
                    assert_eq!(fused.dist(), reference, "len {len} mu {mu} sigma {sigma}");
                    for p in [0.0, 0.5, 0.99, 0.9999, 1.0] {
                        assert_eq!(
                            fused.quantile(p).to_bits(),
                            reference.quantile(p).to_bits(),
                            "len {len} mu {mu} sigma {sigma} p {p}"
                        );
                    }
                }
            }
            // `by_z` lists every draw once, largest first.
            let draws = ShiftDraws::cached(&mut m.shift_draws, len);
            let mut listed = draws.by_z.clone();
            listed.sort_unstable();
            assert!(listed.into_iter().eq(0..len as u32));
            let z = |&i: &u32| draws.z[i as usize];
            assert!(draws.by_z.windows(2).all(|w| z(&w[0]) >= z(&w[1])));
        }
        assert_eq!(m.shift_draws.len(), 3);
    }

    /// `T_rep` at `n >= 2` rebuilt with no cache: the unpruned Monte Carlo
    /// under the model's seed, shifted by a per-call RNG, and in the Gumbel
    /// regime the closed form.
    fn uncached_t_rep(m: &PerfModel, path: PathKey, size: u64, n: u32) -> Dist {
        let loc = path.side.region(path.src, path.dst);
        let t_func = m.t_func(loc, n, false).unwrap();
        let chunks = m.plan_chunks(size, n);
        let p = m.path_params(path).unwrap();
        let per_instance = inflate_instance_cv(
            sum_as_normal(&[p.setup.clone(), p.chunk_distributed.iid_sum(chunks)]),
            p.instance_cv,
        );
        if n as usize >= GUMBEL_THRESHOLD_N {
            let (mean, sd) = (per_instance.mean(), per_instance.std_dev());
            let max = stats::gumbel_max_of_normals(mean, sd, n as usize);
            return add_normal(&max, t_func.mean(), t_func.std_dev());
        }
        let mut rng = StdRng::seed_from_u64(m.mc_seed ^ (n as u64) << 32 ^ chunks);
        let max = stats::monte_carlo_max(&per_instance, n as usize, m.mc_trials, &mut rng);
        add_normal_per_call_rng(&max, t_func.mean(), t_func.std_dev())
    }

    /// A change to the model, as the profiler and the online logger make
    /// them.
    #[derive(Debug, Clone)]
    enum Edit {
        Rescale(f64),
        SetPath { chunk_s: f64, instance_cv: f64 },
        SetLoc { cold_s: f64 },
    }

    impl Edit {
        fn apply(&self, m: &mut PerfModel, path: PathKey) {
            match *self {
                Edit::Rescale(factor) => m.rescale_path_chunks(path, factor),
                Edit::SetPath {
                    chunk_s,
                    instance_cv,
                } => m.set_path(
                    path,
                    PathParams {
                        instance_cv,
                        ..PathParams::new(
                            Dist::normal(0.25, 0.05),
                            Dist::normal(chunk_s, chunk_s * 0.2),
                            Dist::normal(chunk_s * 1.1, chunk_s * 0.25),
                        )
                    },
                ),
                Edit::SetLoc { cold_s } => m.set_loc(
                    path.src,
                    LocParams {
                        invoke: Dist::normal(0.03, 0.01),
                        cold: Dist::normal(cold_s, cold_s * 0.4),
                        postpone: Dist::Constant(0.0),
                    },
                ),
            }
        }
    }

    /// No instance CV (a Normal per-instance time), or a profiled-like one
    /// (LogNormal).
    fn arb_instance_cv() -> impl Strategy<Value = f64> {
        prop_oneof![Just(0.0), 0.05f64..0.4]
    }

    fn arb_edit() -> impl Strategy<Value = Edit> {
        prop_oneof![
            (0.3f64..3.0).prop_map(Edit::Rescale),
            (0.05f64..0.5, arb_instance_cv()).prop_map(|(chunk_s, instance_cv)| Edit::SetPath {
                chunk_s,
                instance_cv
            }),
            (0.1f64..2.0).prop_map(|cold_s| Edit::SetLoc { cold_s }),
        ]
    }

    proptest! {
        #[test]
        fn fused_answers_match_an_uncached_reference(
            instance_cv in arb_instance_cv(),
            edits in proptest::collection::vec(arb_edit(), 0..4),
            // Every Monte-Carlo n, and one Gumbel n; sizes of 1..=400 chunks.
            queries in proptest::collection::vec(
                (prop_oneof![2u32..128, Just(200u32)], 1u64..401),
                1..3,
            ),
            p_any in 0.0f64..1.0,
        ) {
            let r = regions();
            let (mut m, path) = model_with(&r, 400, instance_cv);
            for step in 0..=edits.len() {
                for &(n, chunks) in &queries {
                    let size = chunks * (8 << 20);
                    let reference = uncached_t_rep(&m, path, size, n);
                    let dist = m.t_rep_dist(path, size, n, false).unwrap();
                    prop_assert_eq!(format!("{dist:?}"), format!("{reference:?}"), "n {}", n);
                    prop_assert_eq!(dist.mean().to_bits(), reference.mean().to_bits());
                    let mean = m.t_rep_mean(path, size, n, false).unwrap();
                    prop_assert_eq!(mean.to_bits(), reference.mean().to_bits());
                    for p in [0.5, 0.9, 0.99, 0.995, 0.999, 0.9999, 1.0, p_any] {
                        let q = m.t_rep_quantile(path, size, n, false, p).unwrap();
                        let want = reference.quantile(p).max(0.0);
                        prop_assert_eq!(q.to_bits(), want.to_bits(), "n {} p {}", n, p);
                    }
                }
                if let Some(e) = edits.get(step) {
                    e.apply(&mut m, path);
                }
            }
        }
    }

    #[test]
    fn a_non_positive_kth_largest_sum_takes_the_full_path() {
        // A setup time far below zero puts every T_rep sample below zero, so
        // every rank the interpolation reads holds a negative sum.
        let r = regions();
        let (mut m, path) = model_with(&r, 400, 0.0);
        let setup = Dist::normal(-60.0, 0.5);
        let chunk = Dist::normal(0.2, 0.04);
        m.set_path(path, PathParams::new(setup, chunk.clone(), chunk));
        let reference = uncached_t_rep(&m, path, 1 << 30, 16);
        for p in [0.0, 0.5, 0.99, 0.9999, 1.0] {
            let fused = m.fused_samples(path, 1 << 30, 16, false, 400).unwrap();
            let q = fused.quantile(p);
            assert!(q < 0.0, "p {p}: {q}");
            assert_eq!(q.to_bits(), reference.quantile(p).to_bits(), "p {p}");
            let clamped = m.t_rep_quantile(path, 1 << 30, 16, false, p).unwrap();
            assert_eq!(clamped.to_bits(), 0.0f64.to_bits());
        }
        // Both signed zeros at the ranks read: a `-0.0` shift leaves each
        // sum equal to its maximum, and `new`'s stable sort orders the zeros.
        let draws = ShiftDraws {
            z: vec![-1.0; 6],
            by_z: (0..6).collect(),
        };
        let fused = FusedSamples {
            map: StdNormalMap::of(&Dist::normal(-0.0, 1.0)).unwrap(),
            maxima: &[-2.0, -0.0, 0.0, -0.0, 0.0, -0.0],
            draws: &draws,
            mu: -0.0,
            sigma: 0.0,
        };
        for p in [0.0, 0.2, 0.3, 0.5, 0.7, 0.9, 1.0] {
            let want = fused.dist().quantile(p);
            assert_eq!(fused.quantile(p).to_bits(), want.to_bits(), "p {p}");
        }
    }

    /// `fused.quantile(p)` through the two-list pass, with the number of
    /// maxima it maps (`base` evaluations, each an `exp` under a LogNormal).
    fn counted_quantile(fused: &FusedSamples, p: f64) -> (f64, usize) {
        let reads = std::cell::Cell::new(0);
        let base = |i| {
            reads.set(reads.get() + 1);
            fused.transfer(i)
        };
        let len = fused.len();
        let shift = |i| fused.shift(i);
        let q = stats::quantile_of_sums(len, p, base, shift, &fused.draws.by_z).unwrap();
        (q, reads.get())
    }

    /// How many maxima the single descending pass that the two-list pass
    /// replaced mapped for the same answer: it bounded every shift by the
    /// largest, and stopped at the first `i` with `transfer(i) + s_max` no
    /// greater than the `k`-th largest sum so far.
    fn single_pass_reads(fused: &FusedSamples, p: f64) -> usize {
        let len = fused.len();
        let s_max = fused.shift(fused.draws.by_z[0] as usize);
        let k = len - (p.clamp(0.0, 1.0) * (len - 1) as f64).floor() as usize;
        let mut top: Vec<f64> = Vec::with_capacity(k + 1);
        for i in (0..len).rev() {
            let b = fused.transfer(i);
            if top.len() == k && b + s_max <= top[k - 1] {
                return len - i;
            }
            let v = b + fused.shift(i);
            top.insert(top.partition_point(|&t| t >= v), v);
            top.truncate(k);
        }
        len
    }

    #[test]
    fn a_miss_at_fig23s_shape_maps_few_maxima() {
        // fig23's shape: a LogNormal per-instance time (instance CV 0.15)
        // planned at p99.99 over 3,000 trials, after a drift correction
        // flushed the memo. The interpolation reads the two largest sums.
        let r = regions();
        let (mut m, path) = model_with(&r, 3000, 0.15);
        m.rescale_path_chunks(path, 1.3);
        for (n, chunks) in [(2, 2), (4, 16), (16, 64), (64, 200), (127, 400)] {
            let size = chunks * (8 << 20);
            let fused = m.fused_samples(path, size, n, false, 3000).unwrap();
            let (q, reads) = counted_quantile(&fused, 0.9999);
            let want = fused.dist().quantile(0.9999);
            assert_eq!(q.to_bits(), want.to_bits(), "n {n}");
            assert!(reads <= 50, "n {n}: {reads} of 3,000 maxima mapped");
        }
    }

    #[test]
    #[ignore = "release-mode sweep, about 15 s: cargo test --release -p areplica-core -- --ignored"]
    fn two_list_misses_match_the_sorted_reference_within_the_work_bound() {
        let r = regions();
        let mut rng = StdRng::seed_from_u64(24);
        let (mut misses, mut reads, mut single_pass, mut stages) = (0, 0, 0, 0);
        for _ in 0..40 {
            let instance_cv = [0.0, rng.gen_range(0.05..0.4)][rng.gen_range(0..2)];
            let (mut m, path) = model_with(&r, 3000, instance_cv);
            for step in 0..4 {
                if step > 0 {
                    let edit = match rng.gen_range(0..3) {
                        0 => Edit::Rescale(rng.gen_range(0.3..3.0)),
                        1 => Edit::SetPath {
                            chunk_s: rng.gen_range(0.05..0.5),
                            instance_cv,
                        },
                        _ => Edit::SetLoc {
                            cold_s: rng.gen_range(0.1..2.0),
                        },
                    };
                    edit.apply(&mut m, path);
                }
                for _ in 0..30 {
                    let n = rng.gen_range(2..GUMBEL_THRESHOLD_N as u32);
                    let size = rng.gen_range(1..401u64) * (8 << 20) - rng.gen_range(0..8 << 20);
                    let p = [
                        0.0,
                        0.5,
                        0.9,
                        0.99,
                        0.999,
                        0.9999,
                        1.0,
                        rng.gen_range(0.0..1.0),
                    ][rng.gen_range(0..8)];
                    // The staged miss, stopped at a random stage and resumed.
                    let stop = rng.gen_range(0..8);
                    let seen = &std::cell::RefCell::new(Vec::new());
                    let record = |stops: bool| {
                        move |v: f64| {
                            seen.borrow_mut().push(v);
                            stops && seen.borrow().len() > stop
                        }
                    };
                    let stopped = m.t_rep_quantile_unless(path, size, n, false, p, record(true));
                    let first = seen.take();
                    let staged = m.t_rep_quantile_unless(path, size, n, false, p, record(false));
                    let staged = stopped.unwrap().or(staged.unwrap()).unwrap();
                    // A Normal map has no stages; a memoised key needs none.
                    assert!(first.is_empty() || instance_cv > 0.0);
                    let fused = m.fused_samples(path, size, n, false, 3000).unwrap();
                    let (q, new_reads) = counted_quantile(&fused, p);
                    let want = fused.dist().quantile(p);
                    assert_eq!(q.to_bits(), want.to_bits(), "n {n} size {size} p {p}");
                    assert!(q > 0.0, "the exact path, not the fallback");
                    assert_eq!(staged.to_bits(), q.to_bits(), "n {n} size {size} p {p}");
                    for seen in [first, seen.take()] {
                        assert!(
                            seen.windows(2).all(|w| w[0] <= w[1]),
                            "n {n} p {p}: {seen:?}"
                        );
                        assert!(seen.iter().all(|&v| v <= q), "n {n} p {p}: {seen:?} > {q}");
                        stages += seen.len();
                    }
                    // Each step of the two-list pass maps at most two maxima,
                    // and it stops no later in base steps than the single pass.
                    let old_reads = single_pass_reads(&fused, p);
                    assert!(
                        new_reads <= 2 * old_reads,
                        "n {n} p {p}: {new_reads} against {old_reads}"
                    );
                    misses += 1;
                    reads += new_reads;
                    single_pass += old_reads;
                }
            }
        }
        println!(
            "{misses} misses: {reads} maxima mapped, against {single_pass} by the single pass; \
             {stages} stage values at most their answers"
        );
    }

    /// The trials each stage after stage 0 of a staged miss reads, for a
    /// new key under a budget of `total`: 32, 64, … below `total`, then
    /// `total`.
    fn stage_trials(total: usize) -> Vec<usize> {
        let doubling = std::iter::successors(Some(FIRST_STAGE_TRIALS), |t| Some(t * 2));
        let mut trials: Vec<usize> = doubling.take_while(|&t| t < total).collect();
        trials.push(total);
        trials
    }

    #[test]
    fn every_stage_is_at_most_the_answer_and_never_falls() {
        let r = regions();
        let ps = [0.0, 0.5, 0.9, 0.99, 0.9999, 1.0];
        for (instance_cv, rescale) in [(0.05, 1.0), (0.15, 0.6), (0.4, 2.5)] {
            let (mut m, path) = model_with(&r, 400, instance_cv);
            let (mut cold, _) = model_with(&r, 400, instance_cv);
            m.rescale_path_chunks(path, rescale);
            cold.rescale_path_chunks(path, rescale);
            let mut stages = 0;
            for n in 2..GUMBEL_THRESHOLD_N as u32 {
                for size in [1, 33 * (8 << 20) - 5, 5 << 30] {
                    // Sizes can share a key: stage each from scratch.
                    m.bootstraps.remove(&(n, m.plan_chunks(size, n)));
                    let mut last = ps.map(|p| m.stage_zero(path, n, false, p).unwrap().unwrap());
                    for trials in stage_trials(400) {
                        let fused = m.fused_samples(path, size, n, false, trials).unwrap();
                        assert_eq!(fused.maxima.len(), trials);
                        for (&p, last) in ps.iter().zip(&mut last) {
                            let v = fused.quantile(p).max(0.0);
                            assert!(*last <= v, "n {n} size {size} p {p} at {trials}: fell");
                            *last = v;
                            stages += 1;
                        }
                    }
                    // The last stage is the answer of a cold model, which
                    // draws its trials in one batch.
                    for (&p, last) in ps.iter().zip(&last) {
                        let q = cold.t_rep_quantile(path, size, n, false, p).unwrap();
                        assert_eq!(last.to_bits(), q.to_bits(), "n {n} size {size} p {p}");
                    }
                }
            }
            assert_eq!(stages, 126 * 3 * 6 * stage_trials(400).len());
            assert_eq!(stage_trials(400), [32, 64, 128, 256, 400]);
        }
    }

    #[test]
    fn a_stopped_bootstrap_resumes_and_completes_like_a_cold_one() {
        let r = regions();
        let (size, n, p) = (1 << 30, 16, 0.9999);
        let mut schedule = vec![0];
        schedule.extend(stage_trials(3000));
        for (stop, &drawn) in schedule[..schedule.len() - 1].iter().enumerate() {
            for through_dist in [false, true] {
                let (mut m, path) = model_with(&r, 3000, 0.15);
                let seen = &std::cell::RefCell::new(Vec::new());
                let stops_at = |stop: usize| {
                    move |v: f64| {
                        seen.borrow_mut().push(v);
                        seen.borrow().len() > stop
                    }
                };
                let stopped = m.t_rep_quantile_unless(path, size, n, false, p, stops_at(stop));
                assert_eq!(stopped, Ok(None));
                let held = |m: &PerfModel| m.bootstraps.get(&(n, 8)).map_or(0, |b| b.maxima.len());
                assert_eq!(held(&m), drawn, "stopped at stage {stop}");
                assert_eq!((m.cached_max_dists(), m.cached_quantiles()), (0, 0));
                // A second miss tries the memoised floor in place of stage
                // 0, then resumes at the trials held, whose stage is that
                // floor again, and stops there.
                let first = seen.take();
                let resumes = usize::from(stop > 0);
                let resumed = m.t_rep_quantile_unless(path, size, n, false, p, stops_at(resumes));
                assert_eq!(resumed, Ok(None));
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&seen.take()), bits(&[first[stop]; 2][..=resumes]));
                assert_eq!(held(&m), drawn);
                // A drift correction drops the memoised floor with the
                // answers: the next miss starts at stage 0 again.
                m.rescale_path_chunks(path, 1.0);
                let dropped = m.t_rep_quantile_unless(path, size, n, false, p, stops_at(0));
                assert_eq!(dropped, Ok(None));
                assert_eq!(bits(&seen.take()), bits(&first[..1]));
                let (mut cold, _) = model_with(&r, 3000, 0.15);
                if through_dist {
                    let dist = m.t_rep_dist(path, size, n, false).unwrap();
                    assert_eq!(dist, cold.t_rep_dist(path, size, n, false).unwrap());
                } else {
                    let q = m.t_rep_quantile(path, size, n, false, p).unwrap();
                    let fresh = cold.t_rep_quantile(path, size, n, false, p).unwrap();
                    assert_eq!(q.to_bits(), fresh.to_bits());
                }
                assert_eq!(m.cached_max_dists(), 1);
                assert_eq!(bits(m.std_maxima(n, 8)), bits(cold.std_maxima(n, 8)));
            }
        }
        // Two stopped keys and one complete one: only the complete one counts.
        let (mut m, path) = model_with(&r, 3000, 0.15);
        for n in [4, 8] {
            let stopped = m.t_rep_quantile_unless(path, size, n, false, p, |v| v > 0.0);
            assert_eq!(stopped, Ok(None));
            m.fused_samples(path, size, n, false, 64).unwrap();
        }
        m.t_rep_quantile(path, size, 16, false, p).unwrap();
        assert_eq!((m.bootstraps.len(), m.cached_max_dists()), (3, 1));
    }

    #[test]
    fn no_stages_without_a_lognormal_map_below_the_gumbel_threshold() {
        let r = regions();
        let (mut normal, path) = model_with(&r, 400, 0.0);
        let (mut lognormal, _) = model_with(&r, 400, 0.15);
        let never = |_: f64| -> bool { unreachable!("no stage to lose") };
        for n in [2, 16, 127] {
            // A Normal map can go below zero: no floor, the answer at once.
            let q = normal.t_rep_quantile_unless(path, 1 << 30, n, false, 0.99, never);
            let fresh = normal.t_rep_quantile(path, 1 << 30, n, false, 0.99);
            assert_eq!(q, fresh.map(Some), "n {n}");
        }
        assert_eq!(normal.cached_max_dists(), 3);
        for n in [1, 128, 200] {
            let q = lognormal.t_rep_quantile_unless(path, 1 << 30, n, false, 0.99, never);
            assert!(q.unwrap().is_some(), "no maxima at n {n}");
        }
        assert_eq!(lognormal.cached_max_dists(), 0);
        // An unknown location or path errors as the answer would.
        let elsewhere = PathKey {
            side: ExecSide::Destination,
            ..path
        };
        assert_eq!(
            lognormal.t_rep_quantile_unless(elsewhere, 1 << 30, 16, false, 0.99, never),
            Err(ModelError::UnknownPath(elsewhere))
        );
    }

    #[test]
    fn a_floor_that_loses_is_memoised_as_a_floor() {
        let r = regions();
        let (mut m, path) = model_with(&r, 400, 0.15);
        let (size, n, p) = (1 << 30, 16, 0.9999);
        // The first stage of a new key reads no maxima: it is `T_func`'s
        // quantile over the shift draws.
        let t_func = m.t_func(path.src, n, false).unwrap();
        let draws = ShiftDraws::cached(&mut m.shift_draws, 400);
        let shifts = (0..400).map(|i| draws.shift(t_func.mean(), t_func.std_dev(), i));
        let floor = EmpiricalDist::new(shifts.collect()).unwrap().quantile(p);
        let seen = std::cell::Cell::new(None);
        let skipped = m.t_rep_quantile_unless(path, size, n, false, p, |f| {
            seen.set(Some(f));
            true
        });
        assert_eq!(skipped, Ok(None));
        let floor = floor.max(0.0).to_bits();
        assert_eq!(seen.get().map(f64::to_bits), Some(floor));
        assert!(m.bootstraps.is_empty());
        assert_eq!(m.cached_quantiles(), 0, "a floor is not an answer");
        // The next miss tries the memoised floor first.
        let again = m.t_rep_quantile_unless(path, size, n, false, p, |f| {
            seen.set(Some(f));
            true
        });
        assert_eq!(again, Ok(None));
        assert_eq!(seen.get().map(f64::to_bits), Some(floor));
        assert!(m.bootstraps.is_empty(), "stage 0 reads no maxima");
        // A floor that does not lose gives the answer, and memoises it; a
        // memoised answer no longer consults the floor.
        let q = m.t_rep_quantile_unless(path, size, n, false, p, |_| false);
        let q = q.unwrap().unwrap();
        assert_eq!((m.cached_max_dists(), m.cached_quantiles()), (1, 1));
        let again = m.t_rep_quantile_unless(path, size, n, false, p, |_| unreachable!());
        assert_eq!(again.unwrap().map(f64::to_bits), Some(q.to_bits()));
        let (mut cold, _) = model_with(&r, 400, 0.15);
        let fresh = cold.t_rep_quantile(path, size, n, false, p).unwrap();
        assert_eq!(q.to_bits(), fresh.to_bits());
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
        let maxima = m.std_maxima(16, 8).as_ptr();
        m.set_loc(path.src, slower);
        assert_eq!(m.cached_quantiles(), 0);
        assert_eq!(m.cached_max_dists(), 1, "the maxima do not read I/D/P");
        assert_eq!(maxima, m.std_maxima(16, 8).as_ptr());
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
        // One bootstrap per (n, chunks per instance), shared by both sides.
        assert_eq!(m.cached_max_dists(), 2);
        m.rescale_path_chunks(src_side, 1.3);
        assert_eq!(m.cached_quantiles(), 3);
        assert_eq!(m.cached_max_dists(), 2, "the maxima survive a rescale");
        m.set_path(dst_side, m.path_params(dst_side).unwrap().clone());
        assert_eq!(m.cached_quantiles(), 0);
    }

    #[test]
    fn means_share_the_quantiles_memo_and_its_invalidations() {
        let r = regions();
        let (mut m, path) = test_model(&r);
        let mean = |m: &mut PerfModel, n| m.t_rep_mean(path, 1 << 30, n, false).unwrap();
        for n in [1, 16, 200] {
            let want = m.t_rep_dist(path, 1 << 30, n, false).unwrap().mean();
            assert_eq!(mean(&mut m, n).to_bits(), want.to_bits(), "n {n}");
        }
        assert_eq!(m.memo.len(), 3);
        assert_eq!(m.cached_quantiles(), 0, "a mean is not a quantile");
        m.t_rep_quantile(path, 1 << 30, 16, false, 0.99).unwrap();
        let before = mean(&mut m, 16);
        assert_eq!((m.memo.len(), m.cached_quantiles()), (4, 1));
        m.rescale_path_chunks(path, 2.0);
        assert!(m.memo.is_empty());
        assert!(mean(&mut m, 16) > before * 1.4);
        m.set_loc(path.src, m.loc_params(path.src).unwrap().clone());
        assert!(m.memo.is_empty());
    }

    #[test]
    fn gumbel_plus_normal_keeps_mean_and_variance() {
        let g = Dist::Gumbel {
            mu: 10.0,
            beta: 2.0,
        };
        let combined = add_normal(&g, 3.0, 1.5);
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
        assert_eq!(m.cached_quantiles(), 0);
        assert_eq!(m.cached_max_dists(), 1, "the maxima survive a rescale");
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
