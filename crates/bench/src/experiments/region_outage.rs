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
//! Like `slo_burn`, it runs on the tenant runner ([`run_observed`]), which
//! steps the simulation on a fixed sim-time cadence and emits a
//! deterministic dashboard frame per tick; every artifact (report,
//! dashboards, alert log, breaker log, flight dump) is a pure function of
//! the seed, which CI enforces with a double-run `cmp`.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use areplica_control::breaker::BreakerState;
use areplica_control::{BreakerConfig, BreakerSet};
use areplica_core::{catchup, ProfilerConfig};
use cloudsim::outage::FailureMode;
use cloudsim::world::{schedule_scoped, CloudSim};
use cloudsim::{Cloud, RegionId};
use simkernel::{SimDuration, SimTime};
use simtrace::alert::{AlertEngine, AlertKind};

use crate::harness::{scaled, Table};
use crate::runners::{
    fresh_sim, install_tenants, run_observed, steady_puts, TenantLoad, TICK_SECS,
};

/// Object size: small enough that a healthy replication lands well inside
/// the SLO, so every miss during the outage is the window's doing.
const OBJ_BYTES: u64 = 8 << 20;

/// The victim's destination `(cloud, region, label)`: it goes dark mid-run.
const VICTIM_DST: (Cloud, &str, &str) = (Cloud::Azure, "eastus", "azure/eastus");
/// The quiet tenant's destination: same source region, different
/// destination region, so the outage's fault domain does not contain it.
const QUIET_DST: (Cloud, &str, &str) = (Cloud::Gcp, "us-east1", "gcp/us-east1");

/// Tenant `id`'s load of `puts` toward `dst`, under a circuit breaker that
/// watches `dst` and logs its own transitions. Returns the load and the
/// breaker set.
fn breaker_load(
    sim: &CloudSim,
    id: &str,
    (cloud, region, label): (Cloud, &str, &str),
    puts: Vec<(SimDuration, u64)>,
) -> (TenantLoad, Rc<RefCell<BreakerSet>>) {
    let dst = sim.world.regions.lookup(cloud, region).unwrap();
    let mut set = BreakerSet::new(id, BreakerConfig::default());
    set.add_destination(dst, label);
    let set = Rc::new(RefCell::new(set));
    let load = TenantLoad::new(id, 6, dst, puts).with_health(set.clone());
    (load, set)
}

/// Everything one run produces. Each field is seed-deterministic.
pub struct Artifacts {
    /// The experiment report (goes to `results/region_outage.txt`).
    pub report: String,
    /// The dashboard stream: one frame per driver tick.
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
    let mut sim = fresh_sim(0x9000);
    sim.world.trace.set_enabled(true);
    let src = sim.world.regions.lookup(Cloud::Aws, "us-east-1").unwrap();
    let victim_puts = steady_puts(10, 20, scaled(36, 20), OBJ_BYTES);
    let (victim, victim_breakers) = breaker_load(&sim, "victim", VICTIM_DST, victim_puts);
    let quiet_puts = steady_puts(15, 25, scaled(24, 14), OBJ_BYTES);
    let (quiet, quiet_breakers) = breaker_load(&sim, "quiet", QUIET_DST, quiet_puts);
    // The breaker sets are kept by tenant id, so the end-of-run assertions
    // and logs can read them directly.
    let breakers = BTreeMap::from([("victim", victim_breakers), ("quiet", quiet_breakers)]);
    let loads = [victim, quiet];
    let services = install_tenants(&mut sim, src, &loads, &ProfilerConfig::small());

    // The outage: the victim's destination object store black-holes every
    // request for the middle third of the victim's PUT schedule. Timeout
    // mode means stalled requests go through once the window lifts — the
    // realistic shape for a regional brown-to-black event, and the one that
    // exercises both the SLO watchdog (stalls blow the deadline) and the
    // breaker probe (the half-open probe itself stalls until recovery).
    let victim = &loads[0];
    let outage_from_secs = victim.put_secs(victim.puts.len() / 3);
    let outage_until_secs = victim.put_secs(2 * victim.puts.len() / 3);
    sim.world.outage.region_window(
        victim.dst,
        SimTime::from_nanos(outage_from_secs * 1_000_000_000),
        SimTime::from_nanos(outage_until_secs * 1_000_000_000),
        FailureMode::Timeout,
    );

    // Degraded-read demonstration: mid-window, a destination-side consumer
    // asks for a key whose write was diverted into the catch-up log (the
    // PUT before the newest one issued by then). The replica cannot serve
    // it (the key has not converged), so the read falls back to the source
    // region.
    let read_at =
        SimDuration::from_secs(outage_from_secs + 3 * (outage_until_secs - outage_from_secs) / 4);
    let read_idx = victim.puts.iter().filter(|&&(at, _)| at <= read_at).count() - 2;
    let fallback_read: Rc<RefCell<Option<RegionId>>> = Rc::new(RefCell::new(None));
    {
        let service = services[0].clone();
        let slot = fallback_read.clone();
        sim.world.set_tenant_scope(Some(Rc::from(victim.id())));
        schedule_scoped(&mut sim, read_at, move |sim| {
            service.read_with_fallback(sim, 0, format!("obj-{read_idx}"), move |_sim, res| {
                let (_content, _etag, region) = res.expect("degraded read must serve");
                *slot.borrow_mut() = Some(region);
            });
        });
        sim.world.set_tenant_scope(None);
    }

    let mut alerts = AlertEngine::default();
    let (dashboards, flight_dump) =
        run_observed(&mut sim, &mut alerts, &loads, "victim", |_, _| {});

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
    for l in &loads {
        assert_eq!(
            breakers[l.id()].borrow().state(l.dst),
            BreakerState::Closed,
            "{}'s breaker must end Closed",
            l.id()
        );
    }

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
    for (l, service) in loads.iter().zip(&services) {
        let slo_attainment = l.slo_attainment(service);
        let m = service.metrics();
        if l.id() == "victim" {
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
        let tenant_alerts = alerts.alerts(l.id());
        let count = |kind| tenant_alerts.iter().filter(|e| e.kind == kind).count();
        table.row([
            l.id().to_string(),
            l.puts.len().to_string(),
            slo_attainment,
            m.diverted.to_string(),
            m.failbacks.to_string(),
            m.read_fallbacks.to_string(),
            breakers[l.id()].borrow().events().len().to_string(),
            count(AlertKind::Fired).to_string(),
            count(AlertKind::Resolved).to_string(),
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
        VICTIM_DST.2,
        QUIET_DST.2,
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
