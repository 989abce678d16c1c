//! Property-based tests of AReplica's protocol building blocks: the
//! replication lock, the batcher, the planner's monotonicity, the
//! exactness of the performance model's memo, and the planner's
//! level pruning against the exhaustive search.

use areplica_core::batching::{BatchDecision, Batcher};
use areplica_core::lock::{self, LockOutcome};
use areplica_core::model::{ExecSide, LocParams, PathKey, PathParams, PerfModel};
use areplica_core::{generate_plan, EngineConfig, Plan};
use cloudsim::clouddb::KvDb;
use cloudsim::objstore::ETag;
use cloudsim::{Cloud, RegionRegistry};
use proptest::prelude::*;
use simkernel::{SimDuration, SimTime};
use stats::Dist;

/// A random interleaving of lock operations on a handful of keys.
#[derive(Debug, Clone)]
enum LockOp {
    Lock { key: u8, seq: u64 },
    Unlock { key: u8 },
}

fn arb_lock_ops() -> impl Strategy<Value = Vec<LockOp>> {
    proptest::collection::vec(
        prop_oneof![
            (0u8..3, 1u64..50).prop_map(|(key, seq)| LockOp::Lock { key, seq }),
            (0u8..3).prop_map(|key| LockOp::Unlock { key }),
        ],
        1..60,
    )
}

proptest! {
    #[test]
    fn lock_protocol_invariants(ops in arb_lock_ops()) {
        let mut db = KvDb::new();
        // Reference state: who holds each key (by seq), best pending seq.
        let mut holder: std::collections::HashMap<u8, u64> = Default::default();

        for op in ops {
            match op {
                LockOp::Lock { key, seq } => {
                    let outcome = db.transact(
                        lock::LOCK_TABLE,
                        &key.to_string(),
                        lock::try_lock_tx(ETag(seq), seq),
                    );
                    match (holder.get(&key), outcome) {
                        // Free or re-entrant by the same seq: must acquire.
                        (None, o) => {
                            prop_assert_eq!(o, LockOutcome::Acquired);
                            holder.insert(key, seq);
                        }
                        (Some(&h), o) if h == seq => {
                            prop_assert_eq!(o, LockOutcome::Acquired);
                        }
                        // Held by another seq: must be busy.
                        (Some(_), o) => prop_assert_eq!(o, LockOutcome::Busy),
                    }
                }
                LockOp::Unlock { key } => {
                    let held = holder.remove(&key);
                    let pending = db.transact(
                        lock::LOCK_TABLE,
                        &key.to_string(),
                        lock::unlock_tx(held.map(ETag)),
                    );
                    // Pending versions returned are strictly newer than the
                    // replicated one.
                    if let (Some(h), Some(p)) = (held, pending) {
                        prop_assert!(p.seq > h, "pending {} not newer than holder {}", p.seq, h);
                    }
                }
            }
        }
    }

    #[test]
    fn batcher_never_fires_past_the_latest_safe_start(
        events in proptest::collection::vec((0u64..100, 1u64..40), 1..30),
        slo_s in 10u64..120,
        t_rep_s in 1u64..8,
    ) {
        let mut b = Batcher::new();
        let slo = SimDuration::from_secs(slo_s);
        let t_rep = SimDuration::from_secs(t_rep_s);
        for (at_s, etag) in events {
            let now = SimTime::ZERO + SimDuration::from_secs(at_s);
            let deadline = now + slo;
            match b.on_event("k", ETag(etag), now, deadline, t_rep) {
                BatchDecision::Buffered { fire_at, .. } => {
                    // Firing at fire_at leaves at least t_rep before the
                    // earliest buffered deadline.
                    prop_assert!(fire_at + t_rep <= deadline,
                        "fire_at {fire_at} + t_rep exceeds deadline {deadline}");
                    prop_assert!(fire_at >= now);
                }
                BatchDecision::ReplicateNow { .. } => {}
            }
        }
    }

    #[test]
    fn batcher_accounts_every_version_exactly_once(
        n_events in 1usize..40,
        slo_s in 30u64..90,
    ) {
        // All events arrive at t=0 in a burst: the first buffers, the rest
        // ride along; one drain must account all of them.
        let mut b = Batcher::new();
        let slo = SimDuration::from_secs(slo_s);
        let t_rep = SimDuration::from_secs(2);
        let mut buffered = 0u64;
        let mut immediate = 0u64;
        for i in 0..n_events {
            let now = SimTime::ZERO + SimDuration::from_millis(i as u64);
            match b.on_event("k", ETag(i as u64), now, now + slo, t_rep) {
                BatchDecision::Buffered { .. } => buffered += 1,
                BatchDecision::ReplicateNow { absorbed, .. } => immediate += 1 + absorbed,
            }
        }
        let drained = b.take_pending("k").map_or(0, |d| d.absorbed + 1);
        prop_assert_eq!(buffered + immediate, n_events as u64);
        // Drained = buffered count (one transferred + absorbed).
        prop_assert_eq!(drained, buffered);
    }

    #[test]
    fn planner_predictions_monotone_in_size(
        size_a in 1u64..(1 << 30),
        size_b in 1u64..(1 << 30),
    ) {
        prop_assume!(size_a < size_b);
        let (mut model, src, dst) = fixed_model();
        let cfg = EngineConfig::default();
        // With parallelism capped at 1 the prediction must grow with size.
        let mut cfg1 = cfg.clone();
        cfg1.max_parallelism = 1;
        let pa = generate_plan(&mut model, &cfg1, src, dst, size_a, None, 0.9).unwrap();
        let pb = generate_plan(&mut model, &cfg1, src, dst, size_b, None, 0.9).unwrap();
        prop_assert!(pa.predicted <= pb.predicted + SimDuration::from_millis(1));
    }

    #[test]
    fn planner_slo_met_implies_prediction_within_slo(
        size in 1u64..(2u64 << 30),
        slo_s in 1u64..60,
    ) {
        let (mut model, src, dst) = fixed_model();
        let cfg = EngineConfig::default();
        let slo = SimDuration::from_secs(slo_s);
        let plan = generate_plan(&mut model, &cfg, src, dst, size, Some(slo), 0.95).unwrap();
        if plan.slo_met {
            prop_assert!(plan.predicted <= slo);
        }
    }

    #[test]
    fn memoised_model_answers_like_a_cold_model(
        edits in arb_model_edits(),
        queries in proptest::collection::vec((arb_size(), 1u32..128, 0usize..3), 1..4),
    ) {
        // The warm model is queried before every edit, so stale memo entries
        // would surface. Each answer must equal, bit for bit, the answer of
        // a cold model that saw the same edits and was never queried, and
        // the quantile of the sorted `t_rep_dist` it selects from; each
        // memoised mean, the cold model's `t_rep_dist` mean.
        let cfg = EngineConfig::default();
        let (mut warm, src, dst) = fixed_model();
        for step in 0..=edits.len() {
            let cold = || {
                let (mut m, _, _) = fixed_model();
                for e in &edits[..step] {
                    e.apply(&mut m, src, dst);
                }
                m
            };
            for &(size, n, pi) in &queries {
                let p = [0.5, 0.99, 0.9999][pi];
                for side in ExecSide::BOTH {
                    let path = PathKey { src, dst, side };
                    let local = n == 1 && side == ExecSide::Source;
                    let w = warm.t_rep_quantile(path, size, n, local, p).unwrap();
                    let c = cold().t_rep_quantile(path, size, n, local, p).unwrap();
                    prop_assert_eq!(w.to_bits(), c.to_bits());
                    let dist = warm.t_rep_dist(path, size, n, local).unwrap();
                    prop_assert_eq!(w.to_bits(), dist.quantile(p).max(0.0).to_bits());
                    let c = cold().t_rep_dist(path, size, n, local).unwrap().mean();
                    prop_assert_eq!(dist.mean().to_bits(), c.to_bits());
                    let mean = warm.t_rep_mean(path, size, n, local).unwrap();
                    prop_assert_eq!(mean.to_bits(), c.to_bits());
                }
                let w = generate_plan(&mut warm, &cfg, src, dst, size, None, p).unwrap();
                let c = generate_plan(&mut cold(), &cfg, src, dst, size, None, p).unwrap();
                prop_assert_eq!(w, c);
            }
            if let Some(e) = edits.get(step) {
                e.apply(&mut warm, src, dst);
            }
        }
    }
}

proptest! {
    #[test]
    fn pruned_plans_match_the_exhaustive_search(
        setup in arb_planner_setup(),
        queries in proptest::collection::vec(
            (arb_plan_size(), 0.0f64..1.0, arb_budget(), 0.5f64..2.0),
            1..4,
        ),
    ) {
        // Two copies of one model: the planner's pruned search on one, the
        // search with every level computed on the other, and the logger's
        // drift correction applied to both between queries. Each query
        // plans at the rules' percentiles and at a uniform one.
        let cfg = EngineConfig::default();
        let (mut pruned, src, dst) = fixed_model();
        let (mut exhaustive, _, _) = fixed_model();
        for e in &setup {
            e.apply(&mut pruned, src, dst);
            e.apply(&mut exhaustive, src, dst);
        }
        for (i, &(size, p_any, budget, factor)) in queries.iter().enumerate() {
            for p in [0.5, 0.9, 0.99, 0.9999, p_any] {
                let slo = budget.slo(&mut exhaustive, &cfg, src, dst, size, p);
                let want = exhaustive_plan(&mut exhaustive, &cfg, src, dst, size, slo, p);
                let got = generate_plan(&mut pruned, &cfg, src, dst, size, slo, p).unwrap();
                prop_assert_eq!(got, want, "size {} p {} slo {:?}", size, p, slo);
            }
            let rescale = ModelEdit::Rescale { side: i % 2, factor };
            rescale.apply(&mut pruned, src, dst);
            rescale.apply(&mut exhaustive, src, dst);
        }
    }
}

/// Algorithm 3's search with every level-side's prediction computed, in
/// ascending order: the planner's loop before it reordered and skipped
/// levels, with the same comparisons.
fn exhaustive_plan(
    model: &mut PerfModel,
    cfg: &EngineConfig,
    src: cloudsim::RegionId,
    dst: cloudsim::RegionId,
    size: u64,
    slo_rep: Option<SimDuration>,
    p: f64,
) -> Plan {
    let max_n = cfg.max_parallelism.min(cfg.num_parts(size)).max(1);
    let mut best: Option<Plan> = None;
    let mut n = 1u32;
    loop {
        for side in ExecSide::BOTH {
            let path = PathKey { src, dst, side };
            if !model.has_path(path) {
                continue;
            }
            let local = n == 1 && side == ExecSide::Source && size <= cfg.local_threshold;
            let predicted_s = model.t_rep_quantile(path, size, n, local, p).unwrap();
            let predicted = SimDuration::from_secs_f64(predicted_s);
            let slo_met = slo_rep.is_some_and(|slo| predicted <= slo);
            let candidate = Plan {
                n,
                side,
                local,
                predicted,
                slo_met,
            };
            if best.is_none_or(|b| candidate.predicted < b.predicted) {
                best = Some(candidate);
            }
            if slo_met {
                return candidate;
            }
        }
        if n >= max_n {
            break;
        }
        n = (n * 2).min(max_n);
    }
    best.unwrap()
}

#[test]
fn pruning_at_fig23s_shape_bootstraps_less_for_the_same_plans() {
    // fig23's shape: LogNormal per-instance times (instance CV 0.15) on
    // both sides, planned at p99.99 with no SLO budget, over bulk-xcloud's
    // part counts 33..=127 and 1 GiB.
    let cfg = EngineConfig::default();
    let (mut pruned, src, dst) = fixed_model();
    let (mut exhaustive, _, _) = fixed_model();
    for side in 0..2 {
        let lognormal = ModelEdit::SetPath {
            side,
            chunk_s: 0.2,
            instance_cv: 0.15,
        };
        lognormal.apply(&mut pruned, src, dst);
        lognormal.apply(&mut exhaustive, src, dst);
    }
    let sizes = (33..=127).map(|parts| parts * cfg.part_size);
    for size in sizes.chain([1 << 30]) {
        let want = exhaustive_plan(&mut exhaustive, &cfg, src, dst, size, None, 0.9999);
        let got = generate_plan(&mut pruned, &cfg, src, dst, size, None, 0.9999).unwrap();
        assert_eq!(got, want, "size {size}");
    }
    let (bootstrapped, exhaustive_keys) =
        (pruned.cached_max_dists(), exhaustive.cached_max_dists());
    // A `T_func` floor alone, ascending, completed 142: the stages and the
    // closed-form levels first complete 101.
    assert_eq!(
        (bootstrapped, exhaustive_keys),
        (101, 189),
        "(n, chunks) keys bootstrapped, pruned against exhaustive"
    );
}

#[test]
fn bulk_plans_complete_no_bootstrap_below_the_last_monte_carlo_level() {
    // bulk-xcloud's shape: LogNormal per-instance times (instance CV 0.15)
    // and a cross-cloud chunk time on both sides, planned at p99 with no
    // SLO budget, for objects of 128 parts and more. The Gumbel levels are
    // priced first, and every level at n = 2..=32 stops at a stage that
    // loses to them.
    let cfg = EngineConfig::default();
    let (mut pruned, src, dst) = fixed_model();
    let (mut exhaustive, _, _) = fixed_model();
    for side in 0..2 {
        let lognormal = ModelEdit::SetPath {
            side,
            chunk_s: 0.8,
            instance_cv: 0.15,
        };
        lognormal.apply(&mut pruned, src, dst);
        lognormal.apply(&mut exhaustive, src, dst);
    }
    // Distinct part counts at every level: no two sizes share a bootstrap.
    let sizes = [128, 192, 256, 384, 512, 768, 1024].map(|parts| parts * cfg.part_size);
    for size in sizes {
        let want = exhaustive_plan(&mut exhaustive, &cfg, src, dst, size, None, 0.99);
        let got = generate_plan(&mut pruned, &cfg, src, dst, size, None, 0.99).unwrap();
        assert_eq!(got, want, "size {size}");
        assert!(got.n >= 64, "size {size}: n = {}", got.n);
    }
    // Only n = 64 can have completed a bootstrap, once per size.
    let completed = pruned.cached_max_dists();
    assert!(completed <= sizes.len(), "{completed} bootstraps completed");
    // A miss on a complete bootstrap answers after at most one floor (the
    // memoised one, or stage 0); on a stopped one it reads that floor, then
    // resumes at the trials held. Both sides share each `(n, chunks)`
    // bootstrap, so one side's query probes it.
    let path = PathKey {
        src,
        dst,
        side: ExecSide::Source,
    };
    for size in sizes {
        for n in [2, 4, 8, 16, 32] {
            let stages = std::cell::Cell::new(0);
            let q = pruned.t_rep_quantile_unless(path, size, n, false, 0.99, |_| {
                stages.set(stages.get() + 1);
                false
            });
            assert!(q.unwrap().is_some());
            assert!(stages.get() >= 2, "size {size} n {n}: complete");
        }
    }
}

/// A profiled model as the planner meets it: each side's chunk time and
/// instance CV (0 for a Normal per-instance time, 0.05–0.4 for a
/// LogNormal), a drift correction on each side, and each location's cold
/// start. In one model in four the destination's parameters are the
/// source's, so that predictions tie across sides.
fn arb_planner_setup() -> impl Strategy<Value = Vec<ModelEdit>> {
    let side = || {
        (
            0.05f64..0.5,
            prop_oneof![Just(0.0), 0.05f64..0.4],
            0.5f64..2.0,
            0.1f64..2.0,
        )
    };
    (side(), side(), 0u8..4).prop_map(|(s, d, mirror)| {
        let d = if mirror == 0 { s } else { d };
        let mut edits = Vec::new();
        for (side, (chunk_s, instance_cv, factor, cold_s)) in [s, d].into_iter().enumerate() {
            edits.extend([
                ModelEdit::SetPath {
                    side,
                    chunk_s,
                    instance_cv,
                },
                ModelEdit::Rescale { side, factor },
            ]);
            edits.push(ModelEdit::SetLoc {
                at_dst: side == 1,
                cold_s,
            });
        }
        edits
    })
}

/// Sizes from 1 B to 8 GiB, a third of them under 64 MiB.
fn arb_plan_size() -> impl Strategy<Value = u64> {
    prop_oneof![1u64..(64 << 20), 1u64..(8 << 30) + 1, 1u64..(8 << 30) + 1]
}

/// An SLO budget for one query.
#[derive(Debug, Clone, Copy)]
enum Budget {
    /// No budget (the fastest plan wins), or a fixed one.
    Fixed(Option<SimDuration>),
    /// One level-side's exhaustive prediction, give or take a nanosecond,
    /// so that it is (or just misses being) compliant. The last level is
    /// often the first compliant one, and at 128 parts or more it is in
    /// the Gumbel regime.
    AtLevel {
        level: usize,
        side: usize,
        nudge: i64,
    },
}

impl Budget {
    fn slo(
        self,
        exhaustive: &mut PerfModel,
        cfg: &EngineConfig,
        src: cloudsim::RegionId,
        dst: cloudsim::RegionId,
        size: u64,
        p: f64,
    ) -> Option<SimDuration> {
        let (level, side, nudge) = match self {
            Budget::Fixed(slo) => return slo,
            Budget::AtLevel { level, side, nudge } => (level, side, nudge),
        };
        let max_n = cfg.max_parallelism.min(cfg.num_parts(size)).max(1);
        let levels =
            std::iter::successors(Some(1u32), |&n| (n < max_n).then(|| (n * 2).min(max_n)));
        let n = levels.take(level.saturating_add(1)).last().unwrap();
        let side = ExecSide::BOTH[side];
        let local = n == 1 && side == ExecSide::Source && size <= cfg.local_threshold;
        let path = PathKey { src, dst, side };
        let q = exhaustive.t_rep_quantile(path, size, n, local, p).unwrap();
        let nanos = SimDuration::from_secs_f64(q).as_nanos() as i64 + nudge;
        Some(SimDuration::from_nanos(nanos.max(0) as u64))
    }
}

/// No budget, one from 1 ms to 2 minutes, or one at a level-side's
/// prediction, most often the last level's.
fn arb_budget() -> impl Strategy<Value = Budget> {
    prop_oneof![
        Just(Budget::Fixed(None)),
        (1u64..120_000).prop_map(|ms| Budget::Fixed(Some(SimDuration::from_millis(ms)))),
        (
            prop_oneof![Just(usize::MAX), 0usize..12],
            0usize..2,
            -1i64..=1
        )
            .prop_map(|(level, side, nudge)| Budget::AtLevel { level, side, nudge }),
    ]
}

/// One change to a model's parameters, as the profiler and the online
/// logger make them.
#[derive(Debug, Clone)]
enum ModelEdit {
    Rescale {
        side: usize,
        factor: f64,
    },
    SetPath {
        side: usize,
        chunk_s: f64,
        instance_cv: f64,
    },
    SetLoc {
        at_dst: bool,
        cold_s: f64,
    },
}

impl ModelEdit {
    fn apply(&self, m: &mut PerfModel, src: cloudsim::RegionId, dst: cloudsim::RegionId) {
        let path = |side: usize| PathKey {
            src,
            dst,
            side: ExecSide::BOTH[side],
        };
        match *self {
            ModelEdit::Rescale { side, factor } => m.rescale_path_chunks(path(side), factor),
            ModelEdit::SetPath {
                side,
                chunk_s,
                instance_cv,
            } => m.set_path(
                path(side),
                PathParams {
                    instance_cv,
                    ..PathParams::new(
                        Dist::normal(0.25, 0.04),
                        Dist::normal(chunk_s, chunk_s * 0.15),
                        Dist::normal(chunk_s * 1.1, chunk_s * 0.2),
                    )
                },
            ),
            ModelEdit::SetLoc { at_dst, cold_s } => m.set_loc(
                if at_dst { dst } else { src },
                LocParams {
                    invoke: Dist::normal(0.03, 0.01),
                    cold: Dist::normal(cold_s, cold_s * 0.3),
                    postpone: Dist::Constant(0.0),
                },
            ),
        }
    }
}

fn arb_model_edits() -> impl Strategy<Value = Vec<ModelEdit>> {
    proptest::collection::vec(
        prop_oneof![
            (0usize..2, 0.5f64..2.0).prop_map(|(side, factor)| ModelEdit::Rescale { side, factor }),
            // No instance CV (a Normal per-instance time) or a profiled-like
            // one (LogNormal).
            (
                0usize..2,
                0.05f64..0.5,
                prop_oneof![Just(0.0), 0.05f64..0.4]
            )
                .prop_map(|(side, chunk_s, instance_cv)| ModelEdit::SetPath {
                    side,
                    chunk_s,
                    instance_cv
                }),
            (0u8..2, 0.1f64..2.0).prop_map(|(d, cold_s)| ModelEdit::SetLoc {
                at_dst: d == 1,
                cold_s
            }),
        ],
        0..4,
    )
}

/// Sizes up to 127 chunks of 8 MiB, so plans reach the capped levels
/// 33..=127, often a few bytes short of a chunk boundary, so that distinct
/// sizes share chunk counts.
fn arb_size() -> impl Strategy<Value = u64> {
    (1u64..128, 0u64..(8 << 20)).prop_map(|(chunks, short)| (chunks * (8 << 20) - short).max(1))
}

fn fixed_model() -> (PerfModel, cloudsim::RegionId, cloudsim::RegionId) {
    let regions = RegionRegistry::paper_regions();
    let src = regions.lookup(Cloud::Aws, "us-east-1").unwrap();
    let dst = regions.lookup(Cloud::Azure, "eastus").unwrap();
    let mut m = PerfModel::new(8 << 20, 400, 11);
    for r in [src, dst] {
        m.set_loc(
            r,
            LocParams {
                invoke: Dist::normal(0.03, 0.01),
                cold: Dist::normal(0.3, 0.08),
                postpone: Dist::Constant(0.0),
            },
        );
    }
    for side in ExecSide::BOTH {
        m.set_path(
            PathKey { src, dst, side },
            PathParams::new(
                Dist::normal(0.25, 0.04),
                Dist::normal(0.2, 0.03),
                Dist::normal(0.22, 0.04),
            ),
        );
    }
    (m, src, dst)
}
