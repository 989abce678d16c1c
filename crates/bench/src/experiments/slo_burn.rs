//! SLO burn-rate alerting under a mid-run FaaS degradation: two tenants
//! share one world, a slowdown is injected into one tenant's FaaS
//! instances partway through, and that tenant's burn-rate alert must fire
//! — and only that tenant's — then resolve after the slowdown is lifted
//! and the fast window drains.
//!
//! The experiment is also the reference driver for the observability
//! plane: it steps the simulation on a fixed sim-time cadence and, between
//! steps, evaluates the [`AlertEngine`], emits a deterministic dashboard
//! frame, and (on the first FIRE) dumps the tenant's recent trace events.
//! Everything it writes — report, dashboard stream, alert log, flight
//! dump — is a pure function of the seed: two identically-seeded runs are
//! byte-identical, which CI enforces with `cmp`.

use std::rc::Rc;

use areplica_core::{AReplica, AReplicaBuilder, ProfilerConfig, ReplicationRule, TenantCtx};
use cloudsim::world::{schedule_scoped, user_put, CloudSim};
use cloudsim::Cloud;
use simkernel::SimDuration;
use simtrace::alert::{AlertEngine, AlertKind, SLOW_WINDOW};
use simtrace::dash::{DashFrame, DashRow};

use crate::harness::{scaled, Table};
use crate::runners::fresh_sim;

/// Replication SLO both tenants carry.
const SLO_SECS: u64 = 30;
/// FaaS bandwidth divisor injected into the noisy tenant mid-run.
const SLOWDOWN: f64 = 40.0;
/// Object size: large enough that a 40x-slower wire blows the 30s SLO.
const OBJ_BYTES: u64 = 32 << 20;
/// Sim-time cadence of the driver loop (dashboard frames, alert ticks).
const TICK_SECS: u64 = 60;

/// One tenant's steady load: `puts` PUTs, one every `spacing_secs`,
/// starting at `start_secs`.
struct Load {
    id: &'static str,
    quota: u32,
    start_secs: u64,
    spacing_secs: u64,
    puts: usize,
}

fn noisy_load() -> Load {
    Load {
        id: "noisy",
        quota: 6,
        start_secs: 10,
        spacing_secs: 20,
        puts: scaled(42, 24),
    }
}

fn quiet_load() -> Load {
    Load {
        id: "quiet",
        quota: 6,
        start_secs: 15,
        spacing_secs: 25,
        puts: scaled(30, 18),
    }
}

pub(crate) fn bench_profiler() -> ProfilerConfig {
    ProfilerConfig {
        warm_samples: 4,
        cold_samples: 3,
        transfer_samples: 4,
        chunks_per_invocation: 2,
        notif_samples: 4,
        mc_trials: 600,
        ..ProfilerConfig::default()
    }
}

/// Everything one run produces. Each field is seed-deterministic.
pub struct Artifacts {
    /// The experiment report (goes to `results/slo_burn.txt`).
    pub report: String,
    /// The dashboard stream: one [`DashFrame`] per driver tick.
    pub dashboards: String,
    /// The alert engine's rendered alert log.
    pub alert_log: String,
    /// Flight dump of the noisy tenant, captured at first FIRE.
    pub flight_dump: String,
}

pub(crate) fn dash_row(sim: &CloudSim, alerts: &AlertEngine, id: &str, quota: u32) -> DashRow {
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
        faas_limit: Some(quota),
        cost_cents: sim
            .world
            .tenant_ledger(id)
            .map(|l| l.grand_total().as_nanos())
            .unwrap_or(0) as f64
            / 1e9
            * 100.0,
    }
}

/// Runs the experiment and returns every artifact.
pub fn run_full() -> Artifacts {
    let loads = [noisy_load(), quiet_load()];
    let mut sim: CloudSim = fresh_sim(0x8000);
    // The observability plane needs the tracer on: windows, flight ring,
    // and SLO counters all hang off it. Passivity (PR 3's contract,
    // re-checked by `tracing_does_not_perturb_results`) guarantees this
    // cannot change what the simulation computes.
    sim.world.trace.set_enabled(true);
    let src = sim.world.regions.lookup(Cloud::Aws, "us-east-1").unwrap();
    let dst = sim.world.regions.lookup(Cloud::Azure, "eastus").unwrap();

    let mut alerts = AlertEngine::default();
    let mut services: Vec<(&Load, AReplica)> = Vec::new();
    for l in &loads {
        alerts.register(l.id);
        let tenant = TenantCtx::named(l.id)
            .with_faas_concurrency(l.quota)
            .with_slo(SimDuration::from_secs(SLO_SECS));
        let service = AReplicaBuilder::new()
            .rule(
                ReplicationRule::new(src, format!("src-{}", l.id), dst, format!("dst-{}", l.id))
                    .with_batching(false),
            )
            .profiler_config(bench_profiler())
            .tenant(tenant)
            .install(&mut sim);
        services.push((l, service));
    }
    for l in &loads {
        sim.world.set_tenant_scope(Some(Rc::from(l.id)));
        let bucket: Rc<str> = Rc::from(format!("src-{}", l.id));
        for i in 0..l.puts {
            let bucket = bucket.clone();
            let offset = SimDuration::from_secs(l.start_secs + i as u64 * l.spacing_secs);
            schedule_scoped(&mut sim, offset, move |sim| {
                user_put(sim, src, &bucket, &format!("obj-{i}"), OBJ_BYTES).expect("tenant PUT");
            });
        }
        sim.world.set_tenant_scope(None);
    }

    // Timeline, derived from the noisy tenant's load shape: degrade its
    // FaaS fleet a third of the way through the PUT schedule, recover at
    // two thirds, then idle long enough for the 5m fast window to drain
    // so the alert resolves before the run ends.
    let noisy = noisy_load();
    let put_at = |i: usize| noisy.start_secs + i as u64 * noisy.spacing_secs;
    let degrade_secs = put_at(noisy.puts / 3);
    let recover_secs = put_at(2 * noisy.puts / 3);
    let last_put = loads
        .iter()
        .map(|l| put_at_load(l, l.puts - 1))
        .max()
        .unwrap();
    let horizon_secs = last_put + 420;

    let mut dashboards = String::new();
    let mut flight_dump = String::new();
    let mut degraded = false;
    let mut recovered = false;
    let mut tick = TICK_SECS;
    while tick <= horizon_secs {
        sim.run_until(simkernel::SimTime::from_nanos(tick * 1_000_000_000));
        let now = sim.now();
        if !degraded && tick >= degrade_secs {
            sim.world.faas.set_tenant_slowdown("noisy", SLOWDOWN);
            degraded = true;
        }
        if !recovered && tick >= recover_secs {
            sim.world.faas.set_tenant_slowdown("noisy", 1.0);
            recovered = true;
        }
        // Driver-side observability: evaluate alerts, then render one
        // dashboard frame. Neither touches the event queue or the RNG.
        let evs = alerts.observe(now, sim.world.trace.windows());
        if flight_dump.is_empty()
            && evs
                .iter()
                .any(|e| e.tenant == "noisy" && e.kind == AlertKind::Fired)
        {
            flight_dump = sim.world.trace.flight_dump(Some("noisy"));
        }
        let rows = loads
            .iter()
            .map(|l| dash_row(&sim, &alerts, l.id, l.quota))
            .collect();
        dashboards.push_str(&DashFrame { at: now, rows }.render());
        tick += TICK_SECS;
    }
    sim.run_to_completion(u64::MAX);
    // One final tick after the queue drains so late completions are seen.
    let final_evs = alerts.observe(sim.now(), sim.world.trace.windows());
    assert!(
        final_evs.iter().all(|e| e.tenant != "quiet"),
        "quiet tenant must never transition"
    );

    // The headline contract: the degraded tenant's alert fired and then
    // resolved; the healthy tenant never alerted at all.
    let noisy_alerts = alerts.alerts("noisy");
    let quiet_alerts = alerts.alerts("quiet");
    assert!(
        noisy_alerts.iter().any(|e| e.kind == AlertKind::Fired),
        "the degraded tenant's burn-rate alert must fire"
    );
    assert!(
        noisy_alerts.iter().any(|e| e.kind == AlertKind::Resolved),
        "the alert must resolve after recovery"
    );
    assert!(
        quiet_alerts.is_empty(),
        "the healthy tenant must not alert: {quiet_alerts:?}"
    );
    assert!(
        !flight_dump.is_empty(),
        "the first FIRE must capture a flight-recorder dump"
    );

    let mut table = Table::new([
        "tenant",
        "objects",
        "SLO attained",
        "fired",
        "resolved",
        "FaaS peak",
        "cost (¢)",
    ]);
    for (l, service) in &services {
        let m = service.metrics();
        assert_eq!(
            m.completions.len(),
            l.puts,
            "tenant {} must replicate its whole workload",
            l.id
        );
        let attained = m
            .completions
            .iter()
            .filter(|r| r.delay() <= SimDuration::from_secs(SLO_SECS))
            .count();
        let transitions = alerts.alerts(l.id);
        table.row([
            l.id.to_string(),
            l.puts.to_string(),
            format!(
                "{}/{} ({:.0}%)",
                attained,
                l.puts,
                100.0 * attained as f64 / l.puts as f64
            ),
            transitions
                .iter()
                .filter(|e| e.kind == AlertKind::Fired)
                .count()
                .to_string(),
            transitions
                .iter()
                .filter(|e| e.kind == AlertKind::Resolved)
                .count()
                .to_string(),
            sim.world.faas.tenant_peak(l.id).to_string(),
            format!(
                "{:.2}",
                sim.world
                    .tenant_ledger(l.id)
                    .map(|led| led.grand_total().as_nanos())
                    .unwrap_or(0) as f64
                    / 1e9
                    * 100.0
            ),
        ]);
    }

    let alert_log = alerts.alert_log();
    let report = format!(
        "SLO burn-rate alerting — mid-run FaaS degradation of one tenant\n\n{}\n\
         timeline: slowdown x{SLOWDOWN:.0} injected into tenant `noisy` at t={degrade_secs}s,\n\
         lifted at t={recover_secs}s; driver ticks every {TICK_SECS}s of sim time.\n\
         contract: the degraded tenant's multi-window burn-rate alert fires and\n\
         later resolves; the healthy tenant sharing the world never alerts.\n\n{}",
        table.render(),
        alert_log,
    );
    Artifacts {
        report,
        dashboards,
        alert_log,
        flight_dump,
    }
}

fn put_at_load(l: &Load, i: usize) -> u64 {
    l.start_secs + i as u64 * l.spacing_secs
}

/// Runs the experiment and returns the report.
pub fn run() -> String {
    run_full().report
}
