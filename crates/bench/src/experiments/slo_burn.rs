//! SLO burn-rate alerting under a mid-run FaaS degradation: two tenants
//! share one world, a slowdown is injected into one tenant's FaaS
//! instances partway through, and that tenant's burn-rate alert must fire
//! — and only that tenant's — then resolve after the slowdown is lifted
//! and the fast window drains.
//!
//! The experiment is also the reference driver for the observability
//! plane: the tenant runner ([`run_observed`]) steps the simulation on a
//! fixed sim-time cadence and, between steps, evaluates the
//! [`AlertEngine`], emits a deterministic dashboard frame, and (on the
//! first FIRE) dumps the tenant's recent trace events. Everything it
//! writes — report, dashboard stream, alert log, flight dump — is a pure
//! function of the seed: two identically-seeded runs are byte-identical,
//! which CI enforces with `cmp`.

use cloudsim::Cloud;
use simtrace::alert::{AlertEngine, AlertKind};

use crate::harness::{scaled, Table};
use crate::runners::{
    cents, fresh_sim, install_tenants, run_observed, steady_puts, tenant_profiler, TenantLoad,
    TICK_SECS,
};

/// FaaS bandwidth divisor injected into the noisy tenant mid-run.
const SLOWDOWN: f64 = 40.0;
/// Object size: large enough that a 40x-slower wire blows the 30s SLO.
const OBJ_BYTES: u64 = 32 << 20;

/// Everything one run produces. Each field is seed-deterministic.
pub struct Artifacts {
    /// The experiment report (goes to `results/slo_burn.txt`).
    pub report: String,
    /// The dashboard stream: one frame per driver tick.
    pub dashboards: String,
    /// The alert engine's rendered alert log.
    pub alert_log: String,
    /// Flight dump of the noisy tenant, captured at first FIRE.
    pub flight_dump: String,
}

/// Runs the experiment and returns every artifact.
pub fn run_full() -> Artifacts {
    let mut sim = fresh_sim(0x8000);
    // The observability plane needs the tracer on: the burn-rate windows,
    // the flight dump and the SLO counters all read its record. Tracing is
    // passive (`tracing_does_not_perturb_results` re-checks it), so this
    // cannot change what the simulation computes.
    sim.world.trace.set_enabled(true);
    let src = sim.world.regions.lookup(Cloud::Aws, "us-east-1").unwrap();
    let dst = sim.world.regions.lookup(Cloud::Azure, "eastus").unwrap();
    let loads = [
        TenantLoad::new(
            "noisy",
            6,
            dst,
            steady_puts(10, 20, scaled(42, 24), OBJ_BYTES),
        ),
        TenantLoad::new(
            "quiet",
            6,
            dst,
            steady_puts(15, 25, scaled(30, 18), OBJ_BYTES),
        ),
    ];
    let services = install_tenants(&mut sim, src, &loads, &tenant_profiler(600));

    // Timeline, derived from the noisy tenant's load shape: its FaaS fleet
    // runs degraded from the first tick a third of the way through the PUT
    // schedule to the first tick at two thirds.
    let noisy = &loads[0];
    let degrade_secs = noisy.put_secs(noisy.puts.len() / 3);
    let recover_secs = noisy.put_secs(2 * noisy.puts.len() / 3);
    let mut alerts = AlertEngine::default();
    let (dashboards, flight_dump) =
        run_observed(&mut sim, &mut alerts, &loads, "noisy", |sim, tick| {
            let degraded = (degrade_secs..recover_secs).contains(&tick);
            let factor = if degraded { SLOWDOWN } else { 1.0 };
            sim.world.faas.set_tenant_slowdown("noisy", factor);
        });

    let mut table = Table::new([
        "tenant",
        "objects",
        "SLO attained",
        "fired",
        "resolved",
        "FaaS peak",
        "cost (¢)",
    ]);
    for (l, service) in loads.iter().zip(&services) {
        let transitions = alerts.alerts(l.id());
        let count = |kind| transitions.iter().filter(|e| e.kind == kind).count();
        table.row([
            l.id().to_string(),
            l.puts.len().to_string(),
            l.slo_attainment(service),
            count(AlertKind::Fired).to_string(),
            count(AlertKind::Resolved).to_string(),
            sim.world.faas.tenant_peak(l.id()).to_string(),
            format!("{:.2}", cents(l.cost_nanos(&sim))),
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

/// Runs the experiment and returns the report.
pub fn run() -> String {
    run_full().report
}
