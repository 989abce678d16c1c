//! The inter-region network model.
//!
//! Ground truth for the paper's two challenges:
//!
//! * **Asymmetric performance (Challenge #1, Fig. 8):** a WAN leg's rate is
//!   the executor's NIC rate for that direction (which depends on the cloud
//!   *the function runs in* and its configuration), attenuated by geographic
//!   distance and a cross-cloud penalty. Replicating A→B therefore differs
//!   depending on whether functions run at A or B.
//! * **Instance variability (Challenge #2, Fig. 9):** every function instance
//!   carries a persistent lognormal speed factor plus a slowly drifting
//!   component resampled per transfer; some clouds add variance as
//!   concurrency on the same link grows.

use pricing::Cloud;
use rand::rngs::StdRng;
use simkernel::SimDuration;
use stats::Dist;

use std::collections::BTreeMap;

use crate::params::WorldParams;
use crate::region::{RegionId, RegionRegistry};

/// Direction of a leg relative to the executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Remote region → executor (a GET).
    Download,
    /// Executor → remote region (a PUT).
    Upload,
}

/// Resolved executor characteristics for a transfer.
#[derive(Debug, Clone, Copy)]
pub struct ExecProfile {
    /// Region the executor runs in.
    pub region: RegionId,
    /// Cloud the executor runs in.
    pub cloud: Cloud,
    /// Download NIC rate in Mbps (before factors).
    pub down_mbps: f64,
    /// Upload NIC rate in Mbps (before factors).
    pub up_mbps: f64,
    /// Persistent per-instance speed factor (mean ~1).
    pub speed_factor: f64,
}

/// Live network state: concurrent WAN legs per directed region pair.
#[derive(Debug, Default)]
pub struct NetState {
    active: BTreeMap<(RegionId, RegionId), u32>,
}

impl NetState {
    /// Creates empty state.
    pub fn new() -> Self {
        NetState::default()
    }

    /// Registers a starting leg and returns the concurrency level including
    /// this leg.
    pub fn begin_leg(&mut self, from: RegionId, to: RegionId) -> u32 {
        let c = self.active.entry((from, to)).or_insert(0);
        *c += 1;
        *c
    }

    /// Unregisters a finished leg.
    pub fn end_leg(&mut self, from: RegionId, to: RegionId) {
        let c = self
            .active
            .get_mut(&(from, to))
            .expect("end_leg without begin_leg");
        *c = c.checked_sub(1).expect("leg count underflow");
    }

    /// Current concurrency on a directed pair.
    pub fn active_on(&self, from: RegionId, to: RegionId) -> u32 {
        self.active.get(&(from, to)).copied().unwrap_or(0)
    }
}

/// Computes the expected (noise-free) rate in Mbps for a leg.
///
/// Exposed separately so the characterization experiments (Figs. 6–8) can
/// report the underlying curve as well as sampled transfers.
pub fn base_rate_mbps(
    params: &WorldParams,
    regions: &RegionRegistry,
    exec: &ExecProfile,
    remote: RegionId,
    dir: Direction,
) -> f64 {
    let exec_geo = regions.geo(exec.region);
    let remote_geo = regions.geo(remote);
    let remote_cloud = regions.cloud(remote);
    let nic = match dir {
        Direction::Download => exec.down_mbps,
        Direction::Upload => exec.up_mbps,
    };
    if exec.region == remote {
        // Local storage access: NIC-bound, with a small protocol discount.
        return nic * 0.95;
    }
    let mut rate = nic * params.distance_quality(exec_geo.distance_factor(remote_geo));
    if exec.cloud != remote_cloud {
        rate *= params.cross_cloud_factor;
    }
    if dir == Direction::Upload {
        rate *= params.cloud(exec.cloud).wan_up_factor;
    }
    rate
}

/// Samples the duration of transferring `bytes` on a leg at concurrency
/// level `n_active` (including the leg itself).
#[expect(
    clippy::too_many_arguments,
    reason = "pure sampler: every parameter is an independent input to the leg-duration draw"
)]
pub fn sample_leg_duration(
    params: &WorldParams,
    regions: &RegionRegistry,
    exec: &ExecProfile,
    remote: RegionId,
    dir: Direction,
    bytes: u64,
    n_active: u32,
    rng: &mut StdRng,
) -> SimDuration {
    let cp = params.cloud(exec.cloud);
    let base = base_rate_mbps(params, regions, exec, remote, dir);

    // Concurrency effects: slight mean loss and growing variance per
    // doubling of concurrent legs (pronounced on Azure/GCP).
    let doublings = (n_active.max(1) as f64).log2();
    let mean_factor = cp.parallel_mean_retention.powf(doublings);
    let cv = cp.transfer_noise_cv + cp.parallel_cv_growth * doublings;
    let noise = Dist::lognormal_mean_cv(1.0, cv.max(1e-6)).sample(rng);

    let rate_mbps = (base * exec.speed_factor * mean_factor * noise).max(1.0);
    let seconds = (bytes as f64 * 8.0) / (rate_mbps * 1e6);
    SimDuration::from_secs_f64(seconds)
}

/// Samples a persistent per-instance speed factor for a cloud.
pub fn sample_instance_factor(params: &WorldParams, cloud: Cloud, rng: &mut StdRng) -> f64 {
    let cv = params.cloud(cloud).instance_speed_cv;
    Dist::lognormal_mean_cv(1.0, cv.max(1e-6)).sample(rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pricing::Geo;
    use rand::SeedableRng;

    fn setup() -> (WorldParams, RegionRegistry) {
        (
            WorldParams::paper_defaults(),
            RegionRegistry::paper_regions(),
        )
    }

    fn profile(regions: &RegionRegistry, cloud: Cloud, name: &str) -> ExecProfile {
        let params = WorldParams::paper_defaults();
        let cp = params.cloud(cloud);
        let (down, up) = cp.nic_mbps(cloud, cp.default_fn_config);
        ExecProfile {
            region: regions.lookup(cloud, name).unwrap(),
            cloud,
            down_mbps: down,
            up_mbps: up,
            speed_factor: 1.0,
        }
    }

    #[test]
    fn local_access_is_nic_bound() {
        let (params, regions) = setup();
        let p = profile(&regions, Cloud::Aws, "us-east-1");
        let rate = base_rate_mbps(&params, &regions, &p, p.region, Direction::Download);
        assert!((rate - p.down_mbps * 0.95).abs() < 1e-9);
    }

    #[test]
    fn distance_slows_links() {
        let (params, regions) = setup();
        let p = profile(&regions, Cloud::Aws, "us-east-1");
        let ca = regions.lookup(Cloud::Aws, "ca-central-1").unwrap();
        let eu = regions.lookup(Cloud::Aws, "eu-west-1").unwrap();
        let asia = regions.lookup(Cloud::Aws, "ap-northeast-1").unwrap();
        let r_ca = base_rate_mbps(&params, &regions, &p, ca, Direction::Upload);
        let r_eu = base_rate_mbps(&params, &regions, &p, eu, Direction::Upload);
        let r_asia = base_rate_mbps(&params, &regions, &p, asia, Direction::Upload);
        assert!(r_ca > r_eu && r_eu > r_asia, "{r_ca} {r_eu} {r_asia}");
        // Even the slowest link stays usable (hundreds of Mbps aggregate is
        // reachable with modest parallelism).
        assert!(r_asia > 50.0);
    }

    #[test]
    fn cross_cloud_penalty_applies() {
        let (params, regions) = setup();
        let p = profile(&regions, Cloud::Aws, "us-east-1");
        let aws_east2 = regions.lookup(Cloud::Aws, "us-east-2").unwrap();
        let azure_east = regions.lookup(Cloud::Azure, "eastus").unwrap();
        let same = base_rate_mbps(&params, &regions, &p, aws_east2, Direction::Upload);
        let cross = base_rate_mbps(&params, &regions, &p, azure_east, Direction::Upload);
        assert!(cross < same);
        assert!((cross / same - params.cross_cloud_factor).abs() < 1e-9);
    }

    #[test]
    fn asymmetry_depends_on_executor_side() {
        // Challenge #1: AWS-side functions replicate AWS->Azure differently
        // than Azure-side functions on the same pair.
        let (params, regions) = setup();
        let aws_p = profile(&regions, Cloud::Aws, "us-east-1");
        let az_p = profile(&regions, Cloud::Azure, "eastus");
        let azure_east = az_p.region;
        let aws_east = aws_p.region;
        // Functions at source (AWS): upload leg AWS->Azure.
        let from_aws = base_rate_mbps(&params, &regions, &aws_p, azure_east, Direction::Upload);
        // Functions at destination (Azure): download leg AWS->Azure.
        let from_azure = base_rate_mbps(&params, &regions, &az_p, aws_east, Direction::Download);
        assert_ne!(from_aws, from_azure);
        // Both sides are usable, but the achievable rate differs by where
        // the functions run — exactly the asymmetry the planner must learn.
        assert!((from_aws - from_azure).abs() / from_aws.max(from_azure) > 0.01);
    }

    #[test]
    fn sampled_duration_scales_with_bytes() {
        let (params, regions) = setup();
        let p = profile(&regions, Cloud::Aws, "us-east-1");
        let eu = regions.lookup(Cloud::Aws, "eu-west-1").unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let mut avg = |bytes: u64| -> f64 {
            (0..200)
                .map(|_| {
                    sample_leg_duration(
                        &params,
                        &regions,
                        &p,
                        eu,
                        Direction::Upload,
                        bytes,
                        1,
                        &mut rng,
                    )
                    .as_secs_f64()
                })
                .sum::<f64>()
                / 200.0
        };
        let d1 = avg(8 << 20);
        let d4 = avg(32 << 20);
        assert!((d4 / d1 - 4.0).abs() < 0.4, "d1={d1} d4={d4}");
    }

    #[test]
    fn duration_reflects_speed_factor() {
        let (params, regions) = setup();
        let mut slow = profile(&regions, Cloud::Aws, "us-east-1");
        slow.speed_factor = 0.5;
        let fast = profile(&regions, Cloud::Aws, "us-east-1");
        let eu = regions.lookup(Cloud::Aws, "eu-west-1").unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let avg = |p: &ExecProfile, rng: &mut StdRng| -> f64 {
            (0..300)
                .map(|_| {
                    sample_leg_duration(
                        &params,
                        &regions,
                        p,
                        eu,
                        Direction::Download,
                        8 << 20,
                        1,
                        rng,
                    )
                    .as_secs_f64()
                })
                .sum::<f64>()
                / 300.0
        };
        let slow_d = avg(&slow, &mut rng);
        let fast_d = avg(&fast, &mut rng);
        assert!((slow_d / fast_d - 2.0).abs() < 0.25, "{slow_d} vs {fast_d}");
    }

    #[test]
    fn azure_parallelism_raises_variance() {
        let (params, regions) = setup();
        let p = profile(&regions, Cloud::Azure, "eastus");
        let gcp_asia = regions.lookup(Cloud::Gcp, "asia-northeast1").unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let cv_at = |n: u32, rng: &mut StdRng| -> f64 {
            let d: Vec<f64> = (0..600)
                .map(|_| {
                    sample_leg_duration(
                        &params,
                        &regions,
                        &p,
                        gcp_asia,
                        Direction::Upload,
                        8 << 20,
                        n,
                        rng,
                    )
                    .as_secs_f64()
                })
                .collect();
            let m = d.iter().sum::<f64>() / d.len() as f64;
            let v = d.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (d.len() - 1) as f64;
            v.sqrt() / m
        };
        let cv1 = cv_at(1, &mut rng);
        let cv32 = cv_at(32, &mut rng);
        assert!(cv32 > cv1 * 1.5, "cv1={cv1} cv32={cv32}");
    }

    #[test]
    fn instance_factors_vary_by_cloud() {
        let (params, _) = setup();
        let mut rng = StdRng::seed_from_u64(6);
        let spread = |cloud: Cloud, rng: &mut StdRng| -> f64 {
            let f: Vec<f64> = (0..2000)
                .map(|_| sample_instance_factor(&params, cloud, rng))
                .collect();
            let max = f.iter().cloned().fold(f64::MIN, f64::max);
            let min = f.iter().cloned().fold(f64::MAX, f64::min);
            max / min
        };
        // Figure 9: more than 2x difference between instances on Azure.
        assert!(spread(Cloud::Azure, &mut rng) > 2.0);
        assert!(spread(Cloud::Aws, &mut rng) < spread(Cloud::Azure, &mut rng));
    }

    #[test]
    fn net_state_tracks_concurrency() {
        let regions = RegionRegistry::paper_regions();
        let a = regions.lookup(Cloud::Aws, "us-east-1").unwrap();
        let b = regions.lookup(Cloud::Azure, "eastus").unwrap();
        let mut net = NetState::new();
        assert_eq!(net.begin_leg(a, b), 1);
        assert_eq!(net.begin_leg(a, b), 2);
        assert_eq!(net.active_on(a, b), 2);
        assert_eq!(net.active_on(b, a), 0);
        net.end_leg(a, b);
        assert_eq!(net.active_on(a, b), 1);
    }

    #[test]
    #[should_panic(expected = "end_leg without begin_leg")]
    fn end_without_begin_panics() {
        let regions = RegionRegistry::paper_regions();
        let a = regions.lookup(Cloud::Aws, "us-east-1").unwrap();
        let mut net = NetState::new();
        net.end_leg(a, a);
    }

    #[test]
    fn geo_sanity() {
        // Guard against registry edits breaking the distance model.
        let regions = RegionRegistry::paper_regions();
        let use1 = regions.lookup(Cloud::Aws, "us-east-1").unwrap();
        assert_eq!(regions.geo(use1), Geo::UsEast);
    }
}
