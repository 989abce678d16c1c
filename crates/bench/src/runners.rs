//! Shared measurement runners used by the experiment modules.
//!
//! The fixed-plan experiments (the part-size ablation and Figures 8, 12/17,
//! 16, 18–19 and 20, with Table 4) each isolate one design choice by
//! replicating one object at a fixed parallelism: [`pair_sim`] sets up their
//! world and [`replicate_fixed`] drives one replication on the engine. The
//! service-driven experiments measure through [`measure_areplica_once`].
//!
//! The shared-world experiments (multi-tenant fairness, SLO burn-rate
//! alerting and the region outage) run several tenants on one world through
//! the tenant runner: each tenant is a [`TenantLoad`], [`install_tenants`]
//! installs every tenant's service and schedules its PUTs under its scope,
//! and [`run_observed`] ticks the world, evaluating alerts and rendering a
//! dashboard frame per tick, and asserts the alert contract.

use std::cell::RefCell;
use std::rc::Rc;

use areplica_core::engine::{self, TaskOutcome, TaskSpec, TaskStatus};
use areplica_core::health::HealthHandle;
use areplica_core::model::ExecSide;
use areplica_core::{
    build_model_for, AReplica, AReplicaBuilder, EngineConfig, PerfModel, Plan, ProfilerConfig,
    ReplicationRule, TenantCtx,
};
use cloudsim::world::{self, schedule_scoped, CloudSim};
use cloudsim::{Cloud, RegionId, World};
use pricing::CostSnapshot;
use simkernel::{SimDuration, SimTime};
use simtrace::alert::{AlertEngine, AlertKind, SLOW_WINDOW};
use simtrace::dash::{DashFrame, DashRow};

/// Most events one [`replicate_fixed`] call may run: a backstop against a
/// replication that never drains, far above what the largest (100 GB, 512
/// replicators) needs.
const EVENT_BACKSTOP: u64 = 100_000_000;

/// The standard profiler budget experiments use (tuned for fidelity at an
/// affordable one-off cost per binary).
pub fn experiment_profiler() -> ProfilerConfig {
    ProfilerConfig {
        warm_samples: 6,
        cold_samples: 5,
        transfer_samples: 6,
        chunks_per_invocation: 3,
        notif_samples: 8,
        mc_trials: 2500,
    }
}

/// Profiles `pairs` against a sandbox copy of `sim`'s world.
pub fn profile_pairs(sim: &CloudSim, pairs: &[(RegionId, RegionId)]) -> PerfModel {
    build_model_for(
        &sim.world.regions,
        &sim.world.params,
        &sim.world.catalog,
        pairs,
        &experiment_profiler(),
    )
    .expect("profiling")
}

/// A fresh paper-world simulator with the harness seed offset.
pub fn fresh_sim(seed_offset: u64) -> CloudSim {
    World::paper_sim(crate::harness::seed().wrapping_add(seed_offset))
}

/// A fresh simulator (as [`fresh_sim`]) with bucket `src` at `src`'s region
/// and bucket `dst` at `dst`'s, returning the `(src, dst)` region pair.
pub fn pair_sim(
    seed_offset: u64,
    src: (Cloud, &str),
    dst: (Cloud, &str),
) -> (CloudSim, (RegionId, RegionId)) {
    let mut sim = fresh_sim(seed_offset);
    let src = sim.world.regions.lookup(src.0, src.1).unwrap();
    let dst = sim.world.regions.lookup(dst.0, dst.1).unwrap();
    sim.world.objstore_mut(src).create_bucket("src");
    sim.world.objstore_mut(dst).create_bucket("dst");
    (sim, (src, dst))
}

/// Replicates one object at a fixed plan, without the service: writes `key`
/// of `size` into bucket `src`, executes `n` replicators on `side` toward
/// bucket `dst` under `cfg`, and runs until the event queue drains. Returns
/// the replication time in seconds (from the write to the completion) and
/// the outcome, whose `replicator_stats` are complete once the queue drains.
pub fn replicate_fixed(
    sim: &mut CloudSim,
    cfg: &EngineConfig,
    (src, dst): (RegionId, RegionId),
    key: &str,
    size: u64,
    n: u32,
    side: ExecSide,
) -> (f64, TaskOutcome) {
    let put = world::user_put(sim, src, "src", key, size).expect("source bucket exists");
    let start = sim.now();
    let done: Rc<RefCell<Option<TaskOutcome>>> = Rc::default();
    let slot = done.clone();
    engine::execute(
        sim,
        cfg.clone(),
        TaskSpec {
            src_region: src,
            src_bucket: "src".into(),
            dst_region: dst,
            dst_bucket: "dst".into(),
            key: key.into(),
            etag: put.etag,
            seq: put.event.seq,
            size,
            event_time: start,
        },
        // The engine reads neither the prediction nor the SLO verdict.
        Plan {
            n,
            side,
            local: false,
            predicted: SimDuration::ZERO,
            slo_met: false,
        },
        None,
        Rc::new(move |_, outcome| *slot.borrow_mut() = Some(outcome)),
    );
    sim.run_to_completion(EVENT_BACKSTOP);
    let outcome = done.take().expect("replication completed");
    assert!(
        matches!(outcome.status, TaskStatus::Replicated { .. }),
        "replication of {key} ended {:?}",
        outcome.status
    );
    ((outcome.completed_at - start).as_secs_f64(), outcome)
}

/// Measures one AReplica replication: writes `key` of `size` into the rule's
/// source bucket, runs until the completion lands, and returns
/// `(delay_seconds, cost_delta)`.
pub fn measure_areplica_once(
    sim: &mut CloudSim,
    service: &AReplica,
    src: RegionId,
    bucket: &str,
    key: &str,
    size: u64,
) -> (f64, CostSnapshot) {
    let before = sim.world.ledger.snapshot();
    let target = service.metrics().completions.len() + 1;
    world::user_put(sim, src, bucket, key, size).expect("source bucket exists");
    let ok = sim.run_while_pending(|_| service.metrics().completions.len() >= target);
    assert!(ok, "replication of {key} never completed");
    let delay = {
        let m = service.metrics();
        m.completions
            .last()
            .expect("completion")
            .delay()
            .as_secs_f64()
    };
    // Let stragglers (slow replicators draining, unlock writes) settle so
    // their cost lands in this measurement, not the next one.
    let settle = sim.now() + SimDuration::from_secs(30);
    sim.run_until(settle);
    (delay, sim.world.ledger.since(&before))
}

/// The replication SLO every tenant load carries.
pub const TENANT_SLO: SimDuration = SimDuration::from_secs(30);

/// Sim-time cadence of [`run_observed`]'s ticks (alert evaluation and
/// dashboard frames), in seconds.
pub const TICK_SECS: u64 = 60;

/// How long [`run_observed`] keeps ticking after the last PUT, in seconds:
/// long enough for the 5-minute fast window to drain, so an alert can
/// resolve before the run ends.
const DRAIN_SECS: u64 = 420;

/// One tenant's load on a shared world: the tenant, the region its
/// `dst-{id}` bucket lives in, and its PUTs as `(offset, size)`, the `i`-th
/// written as `obj-{i}` into its `src-{id}` bucket.
pub struct TenantLoad {
    /// The tenant: named, with its FaaS quota and [`TENANT_SLO`].
    tenant: TenantCtx,
    /// The destination region.
    pub dst: RegionId,
    /// The PUT schedule.
    pub puts: Vec<(SimDuration, u64)>,
}

impl TenantLoad {
    /// Tenant `id` with FaaS quota `quota`, replicating to `dst`.
    pub fn new(id: &str, quota: u32, dst: RegionId, puts: Vec<(SimDuration, u64)>) -> TenantLoad {
        TenantLoad {
            tenant: TenantCtx::named(id)
                .with_faas_concurrency(quota)
                .with_slo(TENANT_SLO),
            dst,
            puts,
        }
    }

    /// Attaches a breaker set the tenant's service consults before
    /// replication writes.
    pub fn with_health(mut self, health: HealthHandle) -> TenantLoad {
        self.tenant = self.tenant.with_health(health);
        self
    }

    /// The tenant id.
    pub fn id(&self) -> &str {
        self.tenant.id().expect("a tenant load is named")
    }

    /// The tenant's FaaS quota.
    pub fn quota(&self) -> u32 {
        self.tenant
            .faas_concurrency
            .expect("a tenant load has a quota")
    }

    /// The report cell for the SLO attainment of `service`'s completions,
    /// `"met/puts (pct%)"`, once every one of this load's PUTs replicated.
    pub fn slo_attainment(&self, service: &AReplica) -> String {
        let m = service.metrics();
        let puts = self.puts.len();
        assert_eq!(
            m.completions.len(),
            puts,
            "tenant {} must replicate its whole workload",
            self.id()
        );
        let met = m
            .completions
            .iter()
            .filter(|r| r.delay() <= TENANT_SLO)
            .count();
        format!("{met}/{puts} ({:.0}%)", 100.0 * met as f64 / puts as f64)
    }

    /// The `i`-th PUT's offset, in whole seconds.
    pub fn put_secs(&self, i: usize) -> u64 {
        self.puts[i].0.as_nanos() / 1_000_000_000
    }

    /// The cost attributed to the tenant so far, in nanodollars.
    pub fn cost_nanos(&self, sim: &CloudSim) -> i64 {
        sim.world
            .tenant_ledger(self.id())
            .map(|ledger| ledger.grand_total().as_nanos())
            .unwrap_or(0)
    }
}

/// `n` PUTs of `size` bytes, one every `spacing_secs` from `start_secs`.
pub fn steady_puts(
    start_secs: u64,
    spacing_secs: u64,
    n: usize,
    size: u64,
) -> Vec<(SimDuration, u64)> {
    (0..n as u64)
        .map(|i| (SimDuration::from_secs(start_secs + i * spacing_secs), size))
        .collect()
}

/// Nanodollars as cents.
pub fn cents(nanos: i64) -> f64 {
    nanos as f64 / 1e9 * 100.0
}

/// The profiler budget of the tenant runner's services, with `mc_trials`
/// Monte-Carlo trials.
pub fn tenant_profiler(mc_trials: usize) -> ProfilerConfig {
    ProfilerConfig {
        warm_samples: 4,
        cold_samples: 3,
        transfer_samples: 4,
        chunks_per_invocation: 2,
        notif_samples: 4,
        mc_trials,
    }
}

/// Installs every load's service (rule `src-{id}` at `src` to `dst-{id}`,
/// batching off) in load order, then schedules every load's PUTs in load
/// order, each under its tenant's scope. Returns the services in load
/// order.
pub fn install_tenants(
    sim: &mut CloudSim,
    src: RegionId,
    loads: &[TenantLoad],
    profiler: &ProfilerConfig,
) -> Vec<AReplica> {
    let services = loads
        .iter()
        .map(|l| {
            let id = l.id();
            AReplicaBuilder::new()
                .rule(
                    ReplicationRule::new(src, format!("src-{id}"), l.dst, format!("dst-{id}"))
                        .with_batching(false),
                )
                .profiler_config(profiler.clone())
                .tenant(l.tenant.clone())
                .install(sim)
        })
        .collect();
    // `schedule_scoped` captures the ambient scope at schedule time and
    // re-establishes it when the event fires, so the PUT and every
    // continuation it spawns stay attributed to the tenant.
    for l in loads {
        sim.world.set_tenant_scope(l.tenant.tenant_id());
        let bucket: Rc<str> = Rc::from(format!("src-{}", l.id()));
        for (i, &(offset, size)) in l.puts.iter().enumerate() {
            let bucket = bucket.clone();
            schedule_scoped(sim, offset, move |sim| {
                world::user_put(sim, src, &bucket, &format!("obj-{i}"), size).expect("tenant PUT");
            });
        }
        sim.world.set_tenant_scope(None);
    }
    services
}

/// Drives a shared world every [`TICK_SECS`] until `DRAIN_SECS` (420 s)
/// after the last PUT: each tick runs the world to the tick, calls
/// `at_tick(sim, tick)`, evaluates `alerts` (with every load's tenant
/// registered) and renders one dashboard frame; the first FIRE of tenant
/// `watched` captures its flight dump. Then it drains the queue, evaluates
/// once more and asserts the alert contract: `watched`'s alert fired and
/// resolved, no other tenant ever alerted, and the dump was captured.
/// Returns `(dashboards, flight_dump)`.
///
/// Alert evaluation and dashboards neither touch the event queue nor draw
/// randomness, so the run computes what an unobserved one would.
pub fn run_observed(
    sim: &mut CloudSim,
    alerts: &mut AlertEngine,
    loads: &[TenantLoad],
    watched: &str,
    mut at_tick: impl FnMut(&mut CloudSim, u64),
) -> (String, String) {
    for l in loads {
        alerts.register(l.id());
    }
    let last_put = loads.iter().map(|l| l.put_secs(l.puts.len() - 1)).max();
    let horizon_secs = last_put.unwrap_or(0) + DRAIN_SECS;
    let mut dashboards = String::new();
    let mut flight_dump = String::new();
    let mut tick = TICK_SECS;
    while tick <= horizon_secs {
        sim.run_until(SimTime::from_nanos(tick * 1_000_000_000));
        let now = sim.now();
        at_tick(sim, tick);
        let evs = alerts.observe(now, sim.world.trace.windows());
        if flight_dump.is_empty()
            && evs
                .iter()
                .any(|e| e.tenant == watched && e.kind == AlertKind::Fired)
        {
            flight_dump = sim.world.trace.flight_dump(Some(watched));
        }
        let rows = loads.iter().map(|l| dash_row(sim, alerts, l)).collect();
        dashboards.push_str(&DashFrame { at: now, rows }.render());
        tick += TICK_SECS;
    }
    sim.run_to_completion(u64::MAX);
    // One final evaluation after the queue drains, so late completions
    // are seen.
    alerts.observe(sim.now(), sim.world.trace.windows());

    let fired = |kind| alerts.alerts(watched).iter().any(|e| e.kind == kind);
    assert!(
        fired(AlertKind::Fired),
        "{watched}'s burn-rate alert must fire"
    );
    assert!(fired(AlertKind::Resolved), "{watched}'s alert must resolve");
    for l in loads.iter().filter(|l| l.id() != watched) {
        let seen = alerts.alerts(l.id());
        assert!(
            seen.is_empty(),
            "tenant {} must not alert: {seen:?}",
            l.id()
        );
    }
    assert!(
        !flight_dump.is_empty(),
        "the first FIRE must capture a flight dump"
    );
    (dashboards, flight_dump)
}

/// One tenant's dashboard row at the current instant.
fn dash_row(sim: &CloudSim, alerts: &AlertEngine, load: &TenantLoad) -> DashRow {
    let id = load.id();
    let now = sim.now();
    let windows = sim.world.trace.windows();
    let snap = alerts.snapshot(id, now, windows);
    let good = simtrace::scoped(id, "slo.good");
    let bad = simtrace::scoped(id, "slo.bad");
    DashRow {
        tenant: id.to_string(),
        slo_attainment: windows
            .error_ratio(&bad, &good, now, SLOW_WINDOW)
            .map(|r| 1.0 - r),
        fast_burn: snap.as_ref().map(|s| s.fast_burn).unwrap_or(0.0),
        slow_burn: snap.as_ref().map(|s| s.slow_burn).unwrap_or(0.0),
        firing: snap.as_ref().map(|s| s.firing).unwrap_or(false),
        faas_active: sim.world.faas.tenant_active(id),
        faas_limit: Some(load.quota()),
        cost_cents: cents(load.cost_nanos(sim)),
    }
}
