//! Property-based tests of AReplica's protocol building blocks: the
//! replication lock, the batcher, the planner's monotonicity, and the
//! exactness of the performance model's quantile memo.

use areplica_core::batching::{BatchDecision, Batcher};
use areplica_core::lock::{self, LockOutcome};
use areplica_core::model::{ExecSide, LocParams, PathKey, PathParams, PerfModel};
use areplica_core::{generate_plan, EngineConfig};
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
        // the quantile of the sorted `t_rep_dist` it selects from.
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

/// One change to a model's parameters, as the profiler and the online
/// logger make them.
#[derive(Debug, Clone)]
enum ModelEdit {
    Rescale { side: usize, factor: f64 },
    SetPath { side: usize, chunk_s: f64 },
    SetLoc { at_dst: bool, cold_s: f64 },
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
            ModelEdit::SetPath { side, chunk_s } => m.set_path(
                path(side),
                PathParams::new(
                    Dist::normal(0.25, 0.04),
                    Dist::normal(chunk_s, chunk_s * 0.15),
                    Dist::normal(chunk_s * 1.1, chunk_s * 0.2),
                ),
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
            (0usize..2, 0.05f64..0.5)
                .prop_map(|(side, chunk_s)| ModelEdit::SetPath { side, chunk_s }),
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
