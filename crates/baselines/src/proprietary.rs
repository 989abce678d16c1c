//! Proprietary cross-region replication baselines: AWS S3 Replication Time
//! Control (S3 RTC) and Azure object replication (AZ Rep).
//!
//! Both are modelled as managed services with the delay characteristics the
//! paper measures (§8.1): S3 RTC typically lands in 15–26 s with a p99.99
//! that degrades past 30 s under bursts (Figure 23); AZ Rep consistently
//! shows >60 s with no SLO. Cost follows the public pricing: the RTC
//! per-GB surcharge, inter-region egress, replication PUT requests, and the
//! versioning storage overhead both services require.

use std::cell::RefCell;
use std::rc::Rc;

use cloudsim::world::{self, CloudSim};
use cloudsim::{Cloud, RegionId};
use pricing::{CostCategory, Money};
use simkernel::{SimDuration, SimTime};
use stats::Dist;

/// Which managed service is being modelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ManagedKind {
    /// AWS S3 Replication Time Control.
    S3Rtc,
    /// Azure object replication (no SLO).
    AzRep,
}

/// Configuration of a managed-replication baseline.
#[derive(Debug, Clone)]
pub struct ManagedConfig {
    /// Service kind.
    pub kind: ManagedKind,
    /// Base replication latency (seconds), independent of size.
    pub base_delay: Dist,
    /// Service-side replication bandwidth per object (MB/s) added on top of
    /// the base delay.
    pub mb_per_sec: f64,
    /// Aggregate service throughput capacity (MB/s) across concurrent
    /// replications; beyond it a backlog queue builds (the Figure 23 burst
    /// tail).
    pub capacity_mb_per_sec: f64,
    /// Aggregate request capacity (objects/s).
    pub capacity_req_per_sec: f64,
    /// Retention period assumed for non-current versions when estimating the
    /// versioning storage overhead (a day: "a non-current version must wait
    /// for at least a day to expire").
    pub versioning_retention: SimDuration,
}

impl ManagedConfig {
    /// S3 RTC with the paper's measured characteristics.
    pub fn s3_rtc() -> ManagedConfig {
        ManagedConfig {
            kind: ManagedKind::S3Rtc,
            base_delay: Dist::lognormal_mean_cv(17.0, 0.22),
            mb_per_sec: 160.0,
            capacity_mb_per_sec: 4000.0,
            capacity_req_per_sec: 3000.0,
            versioning_retention: SimDuration::from_secs(24 * 3600),
        }
    }

    /// Azure object replication with the paper's measured characteristics.
    pub fn az_rep() -> ManagedConfig {
        ManagedConfig {
            kind: ManagedKind::AzRep,
            base_delay: Dist::lognormal_mean_cv(60.0, 0.04),
            mb_per_sec: 120.0,
            capacity_mb_per_sec: 2000.0,
            capacity_req_per_sec: 1000.0,
            versioning_retention: SimDuration::from_secs(24 * 3600),
        }
    }
}

/// Result of one managed replication.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ManagedResult {
    /// Source PUT completion time.
    pub event_time: SimTime,
    /// When the version was retrievable at the destination.
    pub completed: SimTime,
}

impl ManagedResult {
    /// The replication delay.
    pub fn delay(&self) -> SimDuration {
        self.completed.saturating_since(self.event_time)
    }
}

/// Completion callback.
pub type OnManagedDone = Rc<dyn Fn(&mut CloudSim, ManagedResult)>;

struct ManagedState {
    cfg: ManagedConfig,
    src_region: RegionId,
    src_bucket: String,
    dst_region: RegionId,
    dst_bucket: String,
    on_done: OnManagedDone,
    /// Virtual time the service's data backlog drains (for burst queueing).
    data_backlog_free: SimTime,
    /// Virtual time the request backlog drains.
    req_backlog_free: SimTime,
    /// Completed replications.
    pub completed: u64,
}

/// A managed cross-region replication rule instance.
pub struct ManagedReplication {
    state: Rc<RefCell<ManagedState>>,
}

impl ManagedReplication {
    /// Installs the managed baseline on a bucket pair: every PUT event
    /// replicates after the modelled service delay. Both services require
    /// versioning on both sides; its storage overhead is billed per
    /// replication ([`ManagedConfig::versioning_retention`]), not stored.
    ///
    /// # Panics
    ///
    /// Panics if the service kind does not match the regions' clouds
    /// (S3 RTC is AWS→AWS; AZ Rep is Azure→Azure).
    pub fn install(
        sim: &mut CloudSim,
        cfg: ManagedConfig,
        src_region: RegionId,
        src_bucket: &str,
        dst_region: RegionId,
        dst_bucket: &str,
        on_done: OnManagedDone,
    ) -> ManagedReplication {
        let src_cloud = sim.world.regions.cloud(src_region);
        let dst_cloud = sim.world.regions.cloud(dst_region);
        match cfg.kind {
            ManagedKind::S3Rtc => {
                assert_eq!(
                    src_cloud,
                    Cloud::Aws,
                    "S3 RTC replicates between AWS buckets"
                );
                assert_eq!(
                    dst_cloud,
                    Cloud::Aws,
                    "S3 RTC replicates between AWS buckets"
                );
            }
            ManagedKind::AzRep => {
                assert_eq!(
                    src_cloud,
                    Cloud::Azure,
                    "AZ Rep replicates between Azure buckets"
                );
                assert_eq!(
                    dst_cloud,
                    Cloud::Azure,
                    "AZ Rep replicates between Azure buckets"
                );
            }
        }
        sim.world.objstore_mut(src_region).create_bucket(src_bucket);
        sim.world.objstore_mut(dst_region).create_bucket(dst_bucket);

        let state = Rc::new(RefCell::new(ManagedState {
            cfg,
            src_region,
            src_bucket: src_bucket.to_string(),
            dst_region,
            dst_bucket: dst_bucket.to_string(),
            on_done,
            data_backlog_free: SimTime::ZERO,
            req_backlog_free: SimTime::ZERO,
            completed: 0,
        }));
        let me = ManagedReplication {
            state: state.clone(),
        };

        let target = sim.world.register_handler(Rc::new(move |sim, _region, ev| {
            if ev.kind != cloudsim::objstore::EventKind::Put {
                return;
            }
            replicate_version(sim, state.clone(), ev.key.clone(), ev.size, ev.event_time);
        }));
        world::subscribe_bucket(&mut sim.world, src_region, src_bucket, target)
            .expect("bucket exists");
        me
    }

    /// Completed replications so far.
    pub fn completed(&self) -> u64 {
        self.state.borrow().completed
    }
}

/// Replicates one PUT of `key` after the modelled service delay.
fn replicate_version(
    sim: &mut CloudSim,
    state: Rc<RefCell<ManagedState>>,
    key: String,
    size: u64,
    event_time: SimTime,
) {
    let now = sim.now();
    let delay = {
        let mut s = state.borrow_mut();
        let base = SimDuration::from_secs_f64(s.cfg.base_delay.sample_nonneg(sim.rng()));
        let mb = size as f64 / (1 << 20) as f64;
        let transfer = SimDuration::from_secs_f64(mb / s.cfg.mb_per_sec);

        // Aggregate-capacity queueing: each object occupies the service's
        // shared pipes for size/capacity (data) and 1/capacity (requests);
        // during bursts the backlog pushes completions out (Figure 23).
        let data_occupancy = SimDuration::from_secs_f64(mb / s.cfg.capacity_mb_per_sec);
        let req_occupancy = SimDuration::from_secs_f64(1.0 / s.cfg.capacity_req_per_sec);
        let data_start = s.data_backlog_free.max(now);
        let req_start = s.req_backlog_free.max(now);
        s.data_backlog_free = data_start + data_occupancy;
        s.req_backlog_free = req_start + req_occupancy;
        let queue_wait = s
            .data_backlog_free
            .max(s.req_backlog_free)
            .saturating_since(now)
            .saturating_sub(data_occupancy.max(req_occupancy));

        base + transfer + queue_wait
    };

    sim.schedule_in(delay, move |sim| {
        let s = state.borrow();
        let (src_region, dst_region) = (s.src_region, s.dst_region);
        // Replicate the *specific* version if it is still current; the
        // services replicate every version (versioning is on), but for delay
        // accounting we follow the paper's definition (the version or a
        // newer one is retrievable).
        let read = sim
            .world
            .objstore(src_region)
            .read_full(&s.src_bucket, &key);
        let Ok((content, _)) = read else {
            return; // deleted meanwhile
        };
        let size_now = content.size();
        let now = sim.now();
        let applied = sim
            .world
            .objstore_mut(dst_region)
            .apply_put(&s.dst_bucket, &key, content, now)
            .expect("destination bucket exists");
        let (kind, retention, on_done) =
            (s.cfg.kind, s.cfg.versioning_retention, s.on_done.clone());
        drop(s);
        world::fanout_notifications(sim, dst_region, &applied);

        // Metering.
        let (src_cloud, src_geo, dst_cloud, dst_geo) = {
            let r = &sim.world.regions;
            (
                r.cloud(src_region),
                r.geo(src_region),
                r.cloud(dst_region),
                r.geo(dst_region),
            )
        };
        let egress = sim
            .world
            .catalog
            .egress_cost(src_cloud, src_geo, dst_cloud, dst_geo, size_now);
        match kind {
            ManagedKind::S3Rtc => {
                sim.world.charge(src_cloud, CostCategory::Egress, egress);
                world::charge_rtc_fee(&mut sim.world, size_now);
                let put_fee = sim.world.catalog.cloud(dst_cloud).storage.per_1k_put / 1_000.0;
                sim.world.charge(
                    dst_cloud,
                    CostCategory::StorageRequests,
                    Money::from_dollars(put_fee),
                );
            }
            ManagedKind::AzRep => {
                // Azure object replication is free of charge beyond the
                // regular storage primitives it rides on.
                let put_fee = sim.world.catalog.cloud(dst_cloud).storage.per_1k_put / 1_000.0;
                sim.world.charge(
                    dst_cloud,
                    CostCategory::StorageRequests,
                    Money::from_dollars(put_fee),
                );
            }
        }
        // Versioning overhead: the overwritten non-current version lingers
        // for the retention window on both sides.
        world::charge_storage(&mut sim.world, src_region, size, retention);
        world::charge_storage(&mut sim.world, dst_region, size, retention);

        state.borrow_mut().completed += 1;
        on_done(
            sim,
            ManagedResult {
                event_time,
                completed: now,
            },
        );
    });
}
