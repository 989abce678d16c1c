//! SLO-compliant plan generation (Algorithm 3).
//!
//! Iterates parallelism exponentially from a single function upward; at each
//! level it compares running functions at the source vs the destination, and
//! returns the *first* (cheapest) SLO-compliant plan. If no plan can meet the
//! SLO, it returns the fastest one — with an SLO of zero this degenerates to
//! "always fastest", the configuration the paper's delay tables use.

use simkernel::SimDuration;

use crate::config::EngineConfig;
use crate::model::{ExecSide, ModelError, PathKey, PerfModel};
use cloudapi::RegionId;

/// A replication plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Plan {
    /// Number of replicator functions (1 = single; with `local`, zero extra
    /// functions are invoked).
    pub n: u32,
    /// Where the functions run.
    pub side: ExecSide,
    /// Whether the orchestrator replicates the object itself (`T_func = 0`).
    pub local: bool,
    /// The model's percentile prediction for this plan.
    pub predicted: SimDuration,
    /// Whether the prediction meets the (remaining) SLO.
    pub slo_met: bool,
}

/// Generates a plan for replicating `size` bytes from `src` to `dst` with a
/// remaining budget of `slo_rep` (already net of the notification delay) at
/// percentile `p`.
///
/// `slo_rep = None` means the SLO is unattainable/zero: every parallelism
/// level is evaluated and the fastest plan wins.
pub fn generate_plan(
    model: &mut PerfModel,
    cfg: &EngineConfig,
    src: RegionId,
    dst: RegionId,
    size: u64,
    slo_rep: Option<SimDuration>,
    p: f64,
) -> Result<Plan, ModelError> {
    let num_parts = cfg.num_parts(size);
    let max_n = cfg.max_parallelism.min(num_parts).max(1);

    let mut best: Option<Plan> = None;
    let mut n = 1u32;
    loop {
        for side in ExecSide::BOTH {
            let path = PathKey { src, dst, side };
            if !model.has_path(path) {
                continue;
            }
            // Local handling is only possible for a single "function" on the
            // source side (the orchestrator itself) and small objects.
            let local = n == 1 && side == ExecSide::Source && size <= cfg.local_threshold;
            let predicted_s = model.t_rep_quantile(path, size, n, local, p)?;
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
                // First SLO-compliant plan is the cheapest: fewer functions
                // mean fewer API calls and less aggregate execution time.
                return Ok(candidate);
            }
        }
        if n >= max_n {
            break;
        }
        n = (n * 2).min(max_n);
    }
    best.ok_or(ModelError::UnknownPath(PathKey {
        src,
        dst,
        side: ExecSide::Source,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{LocParams, PathParams};
    use cloudapi::{Cloud, RegionRegistry};
    use stats::Dist;

    fn setup() -> (PerfModel, RegionId, RegionId) {
        let regions = RegionRegistry::paper_regions();
        let src = regions.lookup(Cloud::Aws, "us-east-1").unwrap();
        let dst = regions.lookup(Cloud::Azure, "eastus").unwrap();
        let mut m = PerfModel::new(8 << 20, 1500, 7);
        for r in [src, dst] {
            m.set_loc(
                r,
                LocParams {
                    invoke: Dist::normal(0.03, 0.01),
                    cold: Dist::normal(0.3, 0.1),
                    postpone: Dist::Constant(0.5),
                },
            );
        }
        // Source-side functions are twice as fast per chunk.
        m.set_path(
            PathKey {
                src,
                dst,
                side: ExecSide::Source,
            },
            PathParams::new(
                Dist::normal(0.25, 0.05),
                Dist::normal(0.15, 0.03),
                Dist::normal(0.17, 0.04),
            ),
        );
        m.set_path(
            PathKey {
                src,
                dst,
                side: ExecSide::Destination,
            },
            PathParams::new(
                Dist::normal(0.30, 0.06),
                Dist::normal(0.30, 0.06),
                Dist::normal(0.34, 0.07),
            ),
        );
        (m, src, dst)
    }

    #[test]
    fn small_object_is_handled_locally() {
        let (mut m, src, dst) = setup();
        let cfg = EngineConfig::default();
        let plan = generate_plan(&mut m, &cfg, src, dst, 1 << 20, None, 0.99).unwrap();
        assert_eq!(plan.n, 1);
        assert!(plan.local, "1 MB should be replicated by the orchestrator");
        assert_eq!(plan.side, ExecSide::Source);
    }

    #[test]
    fn zero_slo_returns_fastest_plan_with_parallelism() {
        let (mut m, src, dst) = setup();
        let cfg = EngineConfig::default();
        // 1 GiB: 128 parts; single function needs ~19 s, parallel much less.
        let plan = generate_plan(&mut m, &cfg, src, dst, 1 << 30, None, 0.99).unwrap();
        assert!(plan.n >= 16, "expected high parallelism, got {}", plan.n);
        assert!(!plan.slo_met, "a None SLO is never met");
        assert_eq!(plan.side, ExecSide::Source, "faster side must win");
    }

    #[test]
    fn loose_slo_picks_minimal_parallelism() {
        let (mut m, src, dst) = setup();
        let cfg = EngineConfig::default();
        // Single-function p99 for 1 GiB is ~ 0.25 + 128*0.15 + I + D ≈ 20 s.
        let plan = generate_plan(
            &mut m,
            &cfg,
            src,
            dst,
            1 << 30,
            Some(SimDuration::from_secs(60)),
            0.99,
        )
        .unwrap();
        assert_eq!(plan.n, 1, "loose SLO should avoid extra functions");
        assert!(plan.slo_met);
    }

    #[test]
    fn moderate_slo_picks_first_compliant_parallelism() {
        let (mut m, src, dst) = setup();
        let cfg = EngineConfig::default();
        let tight = generate_plan(
            &mut m,
            &cfg,
            src,
            dst,
            1 << 30,
            Some(SimDuration::from_secs(5)),
            0.99,
        )
        .unwrap();
        assert!(tight.slo_met, "5 s is attainable with parallelism");
        assert!(tight.n > 1 && tight.n < 128, "n = {}", tight.n);
        // A looser SLO must never pick more functions.
        let looser = generate_plan(
            &mut m,
            &cfg,
            src,
            dst,
            1 << 30,
            Some(SimDuration::from_secs(10)),
            0.99,
        )
        .unwrap();
        assert!(looser.n <= tight.n);
    }

    #[test]
    fn unattainable_slo_returns_fastest() {
        let (mut m, src, dst) = setup();
        let cfg = EngineConfig::default();
        let plan = generate_plan(
            &mut m,
            &cfg,
            src,
            dst,
            1 << 30,
            Some(SimDuration::from_millis(1)),
            0.99,
        )
        .unwrap();
        assert!(!plan.slo_met);
        assert!(plan.n > 8, "must fall back to the fastest plan");
    }

    #[test]
    fn parallelism_never_exceeds_part_count() {
        let (mut m, src, dst) = setup();
        let cfg = EngineConfig::default();
        // 24 MiB = 3 parts: no point invoking more than 3 functions.
        let plan = generate_plan(&mut m, &cfg, src, dst, 24 << 20, None, 0.99).unwrap();
        assert!(plan.n <= 3);
    }

    #[test]
    fn side_choice_follows_path_speed() {
        let (mut m, src, dst) = setup();
        let cfg = EngineConfig::default();
        // Make destination-side functions dramatically faster.
        m.set_path(
            PathKey {
                src,
                dst,
                side: ExecSide::Destination,
            },
            PathParams::new(
                Dist::normal(0.05, 0.01),
                Dist::normal(0.02, 0.005),
                Dist::normal(0.03, 0.005),
            ),
        );
        let plan = generate_plan(&mut m, &cfg, src, dst, 256 << 20, None, 0.99).unwrap();
        assert_eq!(plan.side, ExecSide::Destination);
    }

    #[test]
    fn unprofiled_paths_error() {
        let regions = RegionRegistry::paper_regions();
        let src = regions.lookup(Cloud::Aws, "us-east-1").unwrap();
        let dst = regions.lookup(Cloud::Gcp, "us-east1").unwrap();
        let mut m = PerfModel::new(8 << 20, 100, 1);
        let cfg = EngineConfig::default();
        assert!(generate_plan(&mut m, &cfg, src, dst, 1 << 20, None, 0.99).is_err());
    }
}
