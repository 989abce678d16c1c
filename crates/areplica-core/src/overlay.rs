//! Overlay relay replication (§6 "Resource limitations and overlay
//! networks" — the paper's flagged extension).
//!
//! "An overlay network can accelerate cross-cloud/region replication at
//! extra cost ... useful when a user's target throughput is extremely high
//! and the resource limit cannot be lifted further." A relay routes the
//! object through an intermediate region when both direct-path sides are
//! quota-starved or the direct link is much slower than the two relay hops:
//! the object is staged in a bucket at the relay region and re-replicated
//! from there, paying egress twice (source→relay, relay→destination).
//!
//! The relay planner evaluates two-hop candidates with the same
//! distribution-aware model as direct plans: the two hops execute
//! sequentially, so the predicted time composes as a sum, and each hop's
//! percentile budget is split proportionally to its predicted share.

use cloudapi::RegionId;
use simkernel::SimDuration;

use crate::config::EngineConfig;
use crate::model::{ModelError, PerfModel};
use crate::planner::{generate_plan_with_caps, Plan, SideCaps};

/// A two-hop relay plan: `src → relay → dst`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RelayPlan {
    /// The intermediate region.
    pub relay: RegionId,
    /// Plan for the first hop (`src → relay`).
    pub first_hop: Plan,
    /// Plan for the second hop (`relay → dst`).
    pub second_hop: Plan,
    /// Combined percentile prediction (sequential hops).
    pub predicted: SimDuration,
}

/// Direct-or-relay decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RoutedPlan {
    /// The ordinary single-hop plan.
    Direct(Plan),
    /// A two-hop relay plan (strictly faster than the best direct plan under
    /// the given quotas, by at least the configured advantage factor).
    Relay(RelayPlan),
}

impl RoutedPlan {
    /// The predicted replication time of the routed plan.
    pub fn predicted(&self) -> SimDuration {
        match self {
            RoutedPlan::Direct(p) => p.predicted,
            RoutedPlan::Relay(r) => r.predicted,
        }
    }
}

/// Minimum speed advantage a relay must show over the best direct plan to be
/// chosen — relays double the egress cost, so a marginal win is not worth it.
pub const RELAY_ADVANTAGE: f64 = 1.5;

/// Plans a replication allowing two-hop relays through `relay_candidates`.
///
/// Both relay hops must be profiled (`src→relay` and `relay→dst` paths);
/// unprofiled candidates are skipped. `caps` applies to the direct plan's
/// sides; relay hops are planned unconstrained (the relay region's quota is
/// assumed dedicated, which is how an overlay deployment provisions them).
#[expect(
    clippy::too_many_arguments,
    reason = "planner entry point: every parameter is an independent input to the plan search"
)]
pub fn generate_routed_plan(
    model: &mut PerfModel,
    cfg: &EngineConfig,
    src: RegionId,
    dst: RegionId,
    size: u64,
    slo_rep: Option<SimDuration>,
    p: f64,
    caps: SideCaps,
    relay_candidates: &[RegionId],
) -> Result<RoutedPlan, ModelError> {
    let direct = generate_plan_with_caps(model, cfg, src, dst, size, slo_rep, p, caps)?;
    // A direct plan that already meets the SLO is always preferred: it is
    // cheaper (one egress) and simpler.
    if direct.slo_met {
        return Ok(RoutedPlan::Direct(direct));
    }

    let mut best_relay: Option<RelayPlan> = None;
    for &relay in relay_candidates {
        if relay == src || relay == dst {
            continue;
        }
        // Per-hop percentile: two sequential hops each planned at sqrt(p)
        // would jointly hold p under independence; the simpler and more
        // conservative choice (used here) plans both hops at p.
        let Ok(first_hop) =
            generate_plan_with_caps(model, cfg, src, relay, size, None, p, SideCaps::UNLIMITED)
        else {
            continue;
        };
        let Ok(second_hop) =
            generate_plan_with_caps(model, cfg, relay, dst, size, None, p, SideCaps::UNLIMITED)
        else {
            continue;
        };
        let predicted = first_hop.predicted + second_hop.predicted;
        if best_relay.is_none_or(|b| predicted < b.predicted) {
            best_relay = Some(RelayPlan {
                relay,
                first_hop,
                second_hop,
                predicted,
            });
        }
    }

    match best_relay {
        Some(relay)
            if relay.predicted.as_secs_f64() * RELAY_ADVANTAGE < direct.predicted.as_secs_f64() =>
        {
            Ok(RoutedPlan::Relay(relay))
        }
        _ => Ok(RoutedPlan::Direct(direct)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ExecSide, LocParams, PathKey, PathParams};
    use cloudapi::{Cloud, RegionRegistry};
    use stats::Dist;

    /// A model where the direct path crawls but both relay hops are fast.
    fn setup() -> (PerfModel, RegionId, RegionId, RegionId) {
        let regions = RegionRegistry::paper_regions();
        let src = regions.lookup(Cloud::Azure, "southeastasia").unwrap();
        let dst = regions.lookup(Cloud::Gcp, "europe-west6").unwrap();
        let relay = regions.lookup(Cloud::Aws, "us-east-1").unwrap();
        let mut m = PerfModel::new(8 << 20, 600, 23);
        for r in [src, dst, relay] {
            m.set_loc(
                r,
                LocParams {
                    invoke: Dist::normal(0.03, 0.01),
                    cold: Dist::normal(0.3, 0.1),
                    postpone: Dist::Constant(0.0),
                },
            );
        }
        let set = |m: &mut PerfModel, a: RegionId, b: RegionId, chunk_s: f64| {
            for side in ExecSide::BOTH {
                m.set_path(
                    PathKey {
                        src: a,
                        dst: b,
                        side,
                    },
                    PathParams::new(
                        Dist::normal(0.25, 0.05),
                        Dist::normal(chunk_s, chunk_s * 0.15),
                        Dist::normal(chunk_s * 1.1, chunk_s * 0.18),
                    ),
                );
            }
        };
        set(&mut m, src, dst, 2.0); // slow direct link
        set(&mut m, src, relay, 0.2); // fast hop 1
        set(&mut m, relay, dst, 0.2); // fast hop 2
        (m, src, dst, relay)
    }

    #[test]
    fn relay_wins_when_quota_pins_the_slow_direct_link() {
        // The paper's motivating case: the direct link crawls AND the quota
        // on both direct sides is exhausted down to a few instances, so the
        // direct path cannot buy its way out with parallelism. The overlay's
        // dedicated relay capacity routes around it.
        let (mut m, src, dst, relay) = setup();
        let cfg = EngineConfig::default();
        let routed = generate_routed_plan(
            &mut m,
            &cfg,
            src,
            dst,
            1 << 30,
            None,
            0.99,
            SideCaps { src: 4, dst: 4 },
            &[relay],
        )
        .unwrap();
        match routed {
            RoutedPlan::Relay(r) => {
                assert_eq!(r.relay, relay);
                assert!(r.predicted < SimDuration::from_secs(30));
            }
            RoutedPlan::Direct(d) => {
                panic!("expected relay, direct predicted {}", d.predicted)
            }
        }
    }

    #[test]
    fn unconstrained_direct_parallelism_beats_a_relay() {
        // Without quota pressure, the direct path hides the slow link with
        // parallelism, while a relay pays `T_func` twice — the planner must
        // keep the (cheaper) direct plan.
        let (mut m, src, dst, relay) = setup();
        let cfg = EngineConfig::default();
        let routed = generate_routed_plan(
            &mut m,
            &cfg,
            src,
            dst,
            1 << 30,
            None,
            0.99,
            SideCaps::UNLIMITED,
            &[relay],
        )
        .unwrap();
        assert!(matches!(routed, RoutedPlan::Direct(_)));
    }

    #[test]
    fn direct_wins_when_slo_is_met() {
        let (mut m, src, dst, relay) = setup();
        let cfg = EngineConfig::default();
        // A loose SLO the (slow) direct path can still meet with parallelism.
        let routed = generate_routed_plan(
            &mut m,
            &cfg,
            src,
            dst,
            256 << 20,
            Some(SimDuration::from_secs(120)),
            0.99,
            SideCaps::UNLIMITED,
            &[relay],
        )
        .unwrap();
        assert!(matches!(routed, RoutedPlan::Direct(p) if p.slo_met));
    }

    #[test]
    fn marginal_relay_advantage_is_rejected() {
        let (mut m, src, dst, relay) = setup();
        // Make the relay hops only slightly faster than direct: not worth 2x
        // egress.
        let set = |m: &mut PerfModel, a: RegionId, b: RegionId, chunk_s: f64| {
            for side in ExecSide::BOTH {
                m.set_path(
                    PathKey {
                        src: a,
                        dst: b,
                        side,
                    },
                    PathParams::new(
                        Dist::normal(0.25, 0.05),
                        Dist::normal(chunk_s, chunk_s * 0.15),
                        Dist::normal(chunk_s * 1.1, chunk_s * 0.18),
                    ),
                );
            }
        };
        set(&mut m, src, relay, 0.45);
        set(&mut m, relay, dst, 0.45);
        let cfg = EngineConfig::default();
        let routed = generate_routed_plan(
            &mut m,
            &cfg,
            src,
            dst,
            1 << 30,
            None,
            0.99,
            SideCaps::UNLIMITED,
            &[relay],
        )
        .unwrap();
        assert!(matches!(routed, RoutedPlan::Direct(_)));
    }

    #[test]
    fn unprofiled_relays_are_skipped() {
        let (mut m, src, dst, _relay) = setup();
        let regions = RegionRegistry::paper_regions();
        let stranger = regions.lookup(Cloud::Gcp, "us-west1").unwrap();
        let cfg = EngineConfig::default();
        let routed = generate_routed_plan(
            &mut m,
            &cfg,
            src,
            dst,
            1 << 30,
            None,
            0.99,
            SideCaps::UNLIMITED,
            &[stranger],
        )
        .unwrap();
        assert!(matches!(routed, RoutedPlan::Direct(_)));
    }

    #[test]
    fn src_and_dst_are_never_relays() {
        let (mut m, src, dst, _r) = setup();
        let cfg = EngineConfig::default();
        let routed = generate_routed_plan(
            &mut m,
            &cfg,
            src,
            dst,
            1 << 30,
            None,
            0.99,
            SideCaps::UNLIMITED,
            &[src, dst],
        )
        .unwrap();
        assert!(matches!(routed, RoutedPlan::Direct(_)));
    }
}
