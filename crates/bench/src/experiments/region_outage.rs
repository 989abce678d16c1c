//! Full fault-domain arc under a mid-run regional object-store outage: two
//! tenants share one world, the destination region of one tenant goes dark
//! (a timed [`FailureMode::Timeout`] window — requests black-hole) for a
//! stretch of the run, and the whole recovery protocol must play out end to
//! end:
//!
//! 1. in-flight replications stall past the victim's SLO, the burn-rate
//!    alert fires and the circuit breaker trips on the windowed error ratio;
//! 2. subsequent writes divert into the durable catch-up log instead of
//!    hammering the dark region, and reads of not-yet-converged keys fall
//!    back to the source replica;
//! 3. when the window lifts, the breaker's probe half-opens and then closes
//!    it, the failback replicator drains the catch-up log to convergence,
//!    and the alert resolves;
//! 4. the quiet tenant, replicating to a different region, never alerts and
//!    its breaker never leaves Closed.
//!
//! Like `slo_burn`, the driver steps the simulation on a fixed sim-time
//! cadence and emits a deterministic dashboard frame per tick; every
//! artifact (report, dashboards, alert log, breaker log, flight dump) is a
//! pure function of the seed, which CI enforces with a double-run `cmp`.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use areplica_control::breaker::BreakerState;
use areplica_control::{BreakerConfig, BreakerSet};
use areplica_core::health::HealthHandle;
use areplica_core::{catchup, AReplica, AReplicaBuilder, ReplicationRule, TenantCtx};
use cloudsim::outage::FailureMode;
use cloudsim::world::{schedule_scoped, user_put, CloudSim};
use cloudsim::{Cloud, RegionId};
use simkernel::SimDuration;
use simtrace::alert::{AlertEngine, AlertKind};
use simtrace::dash::DashFrame;

use super::slo_burn::{bench_profiler, dash_row};
use crate::harness::{scaled, Table};
use crate::runners::fresh_sim;

/// Replication SLO both tenants carry.
const SLO_SECS: u64 = 30;
/// Object size: small enough that a healthy replication lands well inside
/// the SLO, so every miss during the outage is the window's doing.
const OBJ_BYTES: u64 = 8 << 20;
/// Sim-time cadence of the driver loop (dashboard frames, alert ticks).
const TICK_SECS: u64 = 60;

/// One tenant's steady load and destination fault domain.
struct Load {
    id: &'static str,
    quota: u32,
    dst: (Cloud, &'static str),
    dst_label: &'static str,
    start_secs: u64,
    spacing_secs: u64,
    puts: usize,
}

/// The tenant whose destination region goes dark mid-run.
fn victim_load() -> Load {
    Load {
        id: "victim",
        quota: 6,
        dst: (Cloud::Azure, "eastus"),
        dst_label: "azure/eastus",
        start_secs: 10,
        spacing_secs: 20,
        puts: scaled(36, 20),
    }
}

/// The control tenant: same source region, different destination region,
/// so the outage's fault domain does not contain it.
fn quiet_load() -> Load {
    Load {
        id: "quiet",
        quota: 6,
        dst: (Cloud::Gcp, "us-east1"),
        dst_label: "gcp/us-east1",
        start_secs: 15,
        spacing_secs: 25,
        puts: scaled(24, 14),
    }
}

fn put_at(l: &Load, i: usize) -> u64 {
    l.start_secs + i as u64 * l.spacing_secs
}

/// Everything one run produces. Each field is seed-deterministic.
pub struct Artifacts {
    /// The experiment report (goes to `results/region_outage.txt`).
    pub report: String,
    /// The dashboard stream: one [`DashFrame`] per driver tick.
    pub dashboards: String,
    /// The alert engine's rendered alert log.
    pub alert_log: String,
    /// The breaker sets' transition logs, in tenant-id order.
    pub breaker_log: String,
    /// Flight dump of the victim tenant, captured at first FIRE.
    pub flight_dump: String,
}

/// Runs the experiment and returns every artifact.
pub fn run_full() -> Artifacts {
    let loads = [victim_load(), quiet_load()];
    let mut sim: CloudSim = fresh_sim(0x9000);
    sim.world.trace.set_enabled(true);
    let src = sim.world.regions.lookup(Cloud::Aws, "us-east-1").unwrap();
    let dsts: Vec<RegionId> = loads
        .iter()
        .map(|l| sim.world.regions.lookup(l.dst.0, l.dst.1).unwrap())
        .collect();

    let mut alerts = AlertEngine::default();

    // One circuit breaker per tenant, watching its destination region and
    // logging its own transitions. The typed handles are kept, by tenant
    // id, so the end-of-run assertions and logs can read them directly.
    let mut breakers: BTreeMap<&str, Rc<RefCell<BreakerSet>>> = BTreeMap::new();
    let mut services: Vec<(&Load, AReplica)> = Vec::new();
    for (l, &dst) in loads.iter().zip(&dsts) {
        alerts.register(l.id);
        let mut set = BreakerSet::new(l.id, BreakerConfig::default());
        set.add_destination(dst, l.dst_label);
        let set = Rc::new(RefCell::new(set));
        let handle: HealthHandle = set.clone();
        breakers.insert(l.id, set);
        let service = AReplicaBuilder::new()
            .rule(
                ReplicationRule::new(src, format!("src-{}", l.id), dst, format!("dst-{}", l.id))
                    .with_batching(false),
            )
            .profiler_config(bench_profiler())
            .tenant(
                TenantCtx::named(l.id)
                    .with_faas_concurrency(l.quota)
                    .with_slo(SimDuration::from_secs(SLO_SECS))
                    .with_health(handle),
            )
            .install(&mut sim);
        services.push((l, service));
    }
    for l in &loads {
        sim.world.set_tenant_scope(Some(Rc::from(l.id)));
        let bucket: Rc<str> = Rc::from(format!("src-{}", l.id));
        for i in 0..l.puts {
            let bucket = bucket.clone();
            let offset = SimDuration::from_secs(put_at(l, i));
            schedule_scoped(&mut sim, offset, move |sim| {
                user_put(sim, src, &bucket, &format!("obj-{i}"), OBJ_BYTES).expect("tenant PUT");
            });
        }
        sim.world.set_tenant_scope(None);
    }

    // The outage: the victim's destination object store black-holes every
    // request for the middle third of the victim's PUT schedule. Timeout
    // mode means stalled requests go through once the window lifts — the
    // realistic shape for a regional brown-to-black event, and the one that
    // exercises both the SLO watchdog (stalls blow the deadline) and the
    // breaker probe (the half-open probe itself stalls until recovery).
    let victim = victim_load();
    let outage_from_secs = put_at(&victim, victim.puts / 3);
    let outage_until_secs = put_at(&victim, 2 * victim.puts / 3);
    sim.world.outage.region_window(
        dsts[0],
        simkernel::SimTime::from_nanos(outage_from_secs * 1_000_000_000),
        simkernel::SimTime::from_nanos(outage_until_secs * 1_000_000_000),
        FailureMode::Timeout,
    );

    // Degraded-read demonstration: mid-window, a destination-side consumer
    // asks for a key whose write was diverted into the catch-up log. The
    // replica cannot serve it (the key has not converged), so the read
    // falls back to the source region.
    let read_at_secs = outage_from_secs + 3 * (outage_until_secs - outage_from_secs) / 4;
    let read_idx = (read_at_secs - victim.start_secs) / victim.spacing_secs - 1;
    let fallback_read: Rc<RefCell<Option<RegionId>>> = Rc::new(RefCell::new(None));
    {
        let service = services[0].1.clone();
        let slot = fallback_read.clone();
        sim.world.set_tenant_scope(Some(Rc::from(victim.id)));
        schedule_scoped(&mut sim, SimDuration::from_secs(read_at_secs), move |sim| {
            service.read_with_fallback(sim, 0, format!("obj-{read_idx}"), move |_sim, res| {
                let (_content, _etag, region) = res.expect("degraded read must serve");
                *slot.borrow_mut() = Some(region);
            });
        });
        sim.world.set_tenant_scope(None);
    }

    let last_put = loads.iter().map(|l| put_at(l, l.puts - 1)).max().unwrap();
    let horizon_secs = last_put + 420;

    let mut dashboards = String::new();
    let mut flight_dump = String::new();
    let mut tick = TICK_SECS;
    while tick <= horizon_secs {
        sim.run_until(simkernel::SimTime::from_nanos(tick * 1_000_000_000));
        let now = sim.now();
        let evs = alerts.observe(now, sim.world.trace.windows());
        if flight_dump.is_empty()
            && evs
                .iter()
                .any(|e| e.tenant == "victim" && e.kind == AlertKind::Fired)
        {
            flight_dump = sim.world.trace.flight_dump(Some("victim"));
        }
        let rows = loads
            .iter()
            .map(|l| dash_row(&sim, &alerts, l.id, l.quota))
            .collect();
        dashboards.push_str(&DashFrame { at: now, rows }.render());
        tick += TICK_SECS;
    }
    sim.run_to_completion(u64::MAX);
    let final_evs = alerts.observe(sim.now(), sim.world.trace.windows());
    assert!(
        final_evs.iter().all(|e| e.tenant != "quiet"),
        "quiet tenant must never transition"
    );

    // The headline contract, stage by stage.
    let victim_alerts = alerts.alerts("victim");
    let quiet_alerts = alerts.alerts("quiet");
    assert!(
        victim_alerts.iter().any(|e| e.kind == AlertKind::Fired),
        "the victim's burn-rate alert must fire during the outage"
    );
    assert!(
        victim_alerts.iter().any(|e| e.kind == AlertKind::Resolved),
        "the alert must resolve after failback"
    );
    assert!(
        quiet_alerts.is_empty(),
        "the quiet tenant must not alert: {quiet_alerts:?}"
    );
    assert!(
        !flight_dump.is_empty(),
        "the first FIRE must capture a flight-recorder dump"
    );

    let victim_transitions: Vec<_> = breakers["victim"]
        .borrow()
        .events()
        .iter()
        .map(|e| (e.from, e.to))
        .collect();
    for arc in [
        (BreakerState::Closed, BreakerState::Open),
        (BreakerState::Open, BreakerState::HalfOpen),
        (BreakerState::HalfOpen, BreakerState::Closed),
    ] {
        assert!(
            victim_transitions.contains(&arc),
            "victim breaker must walk {arc:?}; saw {victim_transitions:?}"
        );
    }
    assert!(
        breakers["quiet"].borrow().events().is_empty(),
        "quiet tenant's breaker must never transition"
    );
    assert_eq!(
        breakers["victim"].borrow().state(dsts[0]),
        BreakerState::Closed,
        "victim breaker must end Closed"
    );
    assert_eq!(
        breakers["quiet"].borrow().state(dsts[1]),
        BreakerState::Closed
    );

    assert_eq!(
        sim.world.db(src).table_len(catchup::CATCHUP_TABLE),
        0,
        "failback must drain the catch-up log"
    );
    assert_eq!(
        *fallback_read.borrow(),
        Some(src),
        "the mid-outage read must be served by the source region"
    );

    let mut table = Table::new([
        "tenant",
        "objects",
        "SLO attained",
        "diverted",
        "failbacks",
        "read fallbacks",
        "breaker transitions",
        "fired",
        "resolved",
    ]);
    for (l, service) in &services {
        let m = service.metrics();
        assert_eq!(
            m.completions.len(),
            l.puts,
            "tenant {} must replicate its whole workload",
            l.id
        );
        if l.id == "victim" {
            assert!(m.diverted > 0, "outage writes must divert to catch-up");
            assert!(
                m.failbacks > 0,
                "failback must re-replicate diverted versions"
            );
            assert!(m.deadline_missed > 0, "stalled writes must miss the SLO");
            assert!(m.read_fallbacks > 0, "the degraded read must fall back");
        } else {
            assert_eq!(m.diverted, 0, "quiet tenant must never divert");
        }
        let attained = m
            .completions
            .iter()
            .filter(|r| r.delay() <= SimDuration::from_secs(SLO_SECS))
            .count();
        let tenant_alerts = alerts.alerts(l.id);
        let transitions = breakers[l.id].borrow().events().len();
        table.row([
            l.id.to_string(),
            l.puts.to_string(),
            format!(
                "{}/{} ({:.0}%)",
                attained,
                l.puts,
                100.0 * attained as f64 / l.puts as f64
            ),
            m.diverted.to_string(),
            m.failbacks.to_string(),
            m.read_fallbacks.to_string(),
            transitions.to_string(),
            tenant_alerts
                .iter()
                .filter(|e| e.kind == AlertKind::Fired)
                .count()
                .to_string(),
            tenant_alerts
                .iter()
                .filter(|e| e.kind == AlertKind::Resolved)
                .count()
                .to_string(),
        ]);
    }

    let alert_log = alerts.alert_log();
    let breaker_log: String = breakers.values().map(|b| b.borrow().render_log()).collect();
    let report = format!(
        "Fault-domain outage — regional object-store blackout with breaker + failback\n\n{}\n\
         timeline: `{}` (tenant `victim`'s destination) black-holes object-store\n\
         requests from t={outage_from_secs}s to t={outage_until_secs}s; driver ticks every {TICK_SECS}s.\n\
         contract: the victim's burn alert fires and the breaker trips on the\n\
         windowed error ratio; writes divert to the catch-up log and a mid-outage\n\
         read is served by the source region; after the window the probe closes\n\
         the breaker, failback drains the log to convergence, and the alert\n\
         resolves. The quiet tenant (destination `{}`) rides through untouched.\n\n{}\n{}",
        table.render(),
        victim.dst_label,
        quiet_load().dst_label,
        breaker_log,
        alert_log,
    );
    Artifacts {
        report,
        dashboards,
        alert_log,
        breaker_log,
        flight_dump,
    }
}

/// Runs the experiment and returns the report.
pub fn run() -> String {
    run_full().report
}
