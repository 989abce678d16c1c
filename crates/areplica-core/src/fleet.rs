//! Fleet services: the watchdog and tombstone-janitor machinery, promoted
//! out of the per-replication code paths into a reusable fleet layer.
//!
//! A production deployment runs dead-letter watchdogs and TTL janitors
//! *beside* the replication engine, scanning every tenant's task tables on
//! a deterministic cadence — not as ad-hoc logic inside each task. This
//! module owns that mechanism; the engine registers a [`TaskWatch`] per
//! distributed task and a tombstone cleanup per abort, and the control
//! plane (`areplica-control`) supervises cadences and per-tenant activity
//! ledgers on top.
//!
//! **Determinism rules** (see DESIGN.md "Control plane / data plane"):
//!
//! * Cadences are fixed [`SimDuration`]s of simulated time; fleet services
//!   never consult wall clock or RNG.
//! * Checks are scheduled relative to the registering event, so the event
//!   sequence is a pure function of the workload and the cadence.
//! * With [`FleetCadence::default`] the op sequence is exactly the
//!   historical engine behavior (90 s interval, 40 checks, 3×1800 s
//!   tombstone TTL) — default-tenant runs stay bit-identical.
//! * Ledger updates ([`FleetLedger`]) are pure memory: they never schedule
//!   events, issue cloud ops, or draw randomness.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use cloudapi::clouddb::Item;
use cloudapi::RegionId;
use simkernel::SimDuration;
use simtrace::alert::AlertEvent;

use crate::backend::{Backend, Exec};
use crate::tenant::TenantId;

/// Cadence parameters for the fleet services watching one tenant's tasks.
///
/// The `Default` values are the constants the engine historically inlined;
/// using them reproduces the pre-fleet event sequence exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetCadence {
    /// How often the watchdog inspects a distributed task.
    pub watchdog_interval: SimDuration,
    /// Maximum watchdog inspections before giving up (bounds runaway
    /// tasks).
    pub watchdog_max_checks: u32,
    /// How long an aborted task's tombstone outlives the abort before the
    /// janitor deletes it. Comfortably beyond any straggler replicator's
    /// lifetime (the longest per-cloud function timeout is 1800 s, plus
    /// retry backoffs), so every late claim still observes the terminal
    /// state before the row disappears.
    pub aborted_pool_ttl: SimDuration,
}

impl Default for FleetCadence {
    fn default() -> Self {
        FleetCadence {
            watchdog_interval: SimDuration::from_secs(90),
            watchdog_max_checks: 40,
            aborted_pool_ttl: SimDuration::from_secs(3 * 1800),
        }
    }
}

/// Per-tenant fleet activity counters (pure memory; diagnostic only).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Tasks registered with the watchdog.
    pub watches: u64,
    /// Watchdog inspections performed.
    pub checks: u64,
    /// Rescue replicators dispatched for stalled tasks.
    pub rescues: u64,
    /// Aborted-pool tombstones reaped by the janitor.
    pub cleanups: u64,
}

/// Circuit-breaker state (recorded in [`BreakerEvent`]s; the state machine
/// itself lives in the control plane).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: writes route normally.
    Closed,
    /// Tripped: writes divert to the catch-up log.
    Open,
    /// Probe in flight: one test write decides close vs re-open.
    HalfOpen,
}

impl std::fmt::Display for BreakerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BreakerState::Closed => "CLOSED",
            BreakerState::Open => "OPEN",
            BreakerState::HalfOpen => "HALF_OPEN",
        })
    }
}

/// One circuit-breaker transition, recorded in the fleet ledger by the
/// control plane's breaker set (pure memory, like every ledger update).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BreakerEvent {
    /// Owning tenant.
    pub tenant: String,
    /// Destination label (e.g. `azure/eastus`).
    pub region: String,
    /// Transition time.
    pub at: simkernel::SimTime,
    /// State before.
    pub from: BreakerState,
    /// State after.
    pub to: BreakerState,
    /// Why (fixed vocabulary: `error-ratio`, `probe-ok`, `probe-failed`).
    pub reason: &'static str,
}

impl BreakerEvent {
    /// Fixed-format single-line rendering (byte-deterministic).
    pub fn render(&self) -> String {
        format!(
            "{:>10.3}s BRK  tenant={} region={} {}->{} reason={}",
            self.at.as_secs_f64(),
            self.tenant,
            self.region,
            self.from,
            self.to,
            self.reason
        )
    }
}

/// Fleet activity ledger, keyed by tenant (the default tenant records
/// under `"default"`). BTreeMap so iteration order is deterministic.
///
/// Besides the fleet-service counters, the ledger is where the control
/// plane's SLO monitor deposits burn-rate [`AlertEvent`]s — the per-tenant
/// activity record a future adaptive planner consumes. Alert recording is
/// pure memory (no scheduling, no randomness), like every other ledger
/// update.
#[derive(Debug, Default)]
pub struct FleetLedger {
    per_tenant: BTreeMap<String, FleetStats>,
    alerts: BTreeMap<String, Vec<AlertEvent>>,
    breakers: BTreeMap<String, Vec<BreakerEvent>>,
}

impl FleetLedger {
    /// New empty ledger.
    pub fn new() -> Self {
        FleetLedger::default()
    }

    fn bump(&mut self, tenant: Option<&str>, f: impl FnOnce(&mut FleetStats)) {
        f(self
            .per_tenant
            .entry(tenant.unwrap_or("default").to_string())
            .or_default());
    }

    /// This tenant's counters (zero if it never registered activity).
    pub fn stats(&self, tenant: &str) -> FleetStats {
        self.per_tenant.get(tenant).copied().unwrap_or_default()
    }

    /// All tenants with recorded activity, in deterministic (sorted) order.
    pub fn tenants(&self) -> impl Iterator<Item = (&str, &FleetStats)> {
        self.per_tenant.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Records one burn-rate alert transition under the event's tenant.
    pub fn record_alert(&mut self, ev: AlertEvent) {
        self.alerts.entry(ev.tenant.clone()).or_default().push(ev);
    }

    /// One tenant's alert transitions, in recording order.
    pub fn alerts(&self, tenant: &str) -> &[AlertEvent] {
        self.alerts.get(tenant).map_or(&[], Vec::as_slice)
    }

    /// Tenants with recorded alerts, in deterministic (sorted) order.
    pub fn alert_tenants(&self) -> impl Iterator<Item = &str> {
        self.alerts.keys().map(|k| k.as_str())
    }

    /// Renders every recorded alert as fixed-format lines, grouped by
    /// tenant in sorted order (byte-deterministic; see
    /// [`AlertEvent::render`]).
    pub fn render_alert_log(&self) -> String {
        let mut out = String::new();
        for (tenant, evs) in &self.alerts {
            out.push_str(&format!("# alerts tenant={tenant}\n"));
            for ev in evs {
                out.push_str(&ev.render());
                out.push('\n');
            }
        }
        out
    }

    /// Records one circuit-breaker transition under the event's tenant.
    pub fn record_breaker(&mut self, ev: BreakerEvent) {
        self.breakers.entry(ev.tenant.clone()).or_default().push(ev);
    }

    /// One tenant's breaker transitions, in recording order.
    pub fn breaker_events(&self, tenant: &str) -> &[BreakerEvent] {
        self.breakers.get(tenant).map_or(&[], Vec::as_slice)
    }

    /// Renders every breaker transition as fixed-format lines, grouped by
    /// tenant in sorted order (byte-deterministic).
    pub fn render_breaker_log(&self) -> String {
        let mut out = String::new();
        for (tenant, evs) in &self.breakers {
            out.push_str(&format!("# breakers tenant={tenant}\n"));
            for ev in evs {
                out.push_str(&ev.render());
                out.push('\n');
            }
        }
        out
    }
}

/// Shared handle to a fleet ledger (one per supervisor, spanning tenants).
pub type FleetHandle = Rc<RefCell<FleetLedger>>;

/// One task under fleet watch: where its state row lives, how to tell it
/// has concluded, and what to do when it stalls.
pub struct TaskWatch<B> {
    /// Owning tenant (`None` for the default tenant).
    pub tenant: Option<TenantId>,
    /// Region of the database holding the task row.
    pub db_region: RegionId,
    /// Table holding the task row.
    pub table: &'static str,
    /// Task row key.
    pub task_id: String,
    /// Returns true once the task reached a terminal state (the watchdog
    /// then stops rescheduling).
    pub concluded: Rc<dyn Fn() -> bool>,
    /// Dispatches a rescue for a stalled task (the engine invokes one
    /// rescue replicator whose claim loop drains stale leases).
    pub rescue: Rc<dyn Fn(&mut B)>,
}

/// Registers a task with the fleet watchdog.
///
/// The watchdog models the dead-letter/janitor machinery a production
/// deployment runs beside the engine: if every replicator (and its platform
/// retries) died while holding part leases, the pool stalls with
/// live-looking leases that nobody will ever re-claim. The watchdog notices
/// a pool row that still exists after a full lease window, runs the
/// watch's `rescue`, and re-inspects on the cadence until the task
/// concludes or `watchdog_max_checks` is exhausted.
pub fn watch_task<B: Backend>(
    sim: &mut B,
    cadence: FleetCadence,
    ledger: Option<FleetHandle>,
    watch: TaskWatch<B>,
) {
    if let Some(l) = &ledger {
        l.borrow_mut()
            .bump(watch.tenant.as_deref(), |s| s.watches += 1);
    }
    schedule_check(sim, cadence, ledger, Rc::new(watch), 0);
}

fn schedule_check<B: Backend>(
    sim: &mut B,
    cadence: FleetCadence,
    ledger: Option<FleetHandle>,
    watch: Rc<TaskWatch<B>>,
    checks: u32,
) {
    sim.schedule_in(cadence.watchdog_interval, move |sim| {
        check_task(sim, cadence, ledger, watch, checks);
    });
}

fn check_task<B: Backend>(
    sim: &mut B,
    cadence: FleetCadence,
    ledger: Option<FleetHandle>,
    watch: Rc<TaskWatch<B>>,
    checks: u32,
) {
    if (watch.concluded)() || checks >= cadence.watchdog_max_checks {
        return;
    }
    if let Some(l) = &ledger {
        l.borrow_mut()
            .bump(watch.tenant.as_deref(), |s| s.checks += 1);
    }
    let exec = Exec::Platform {
        region: watch.db_region,
        mbps: 1000.0,
    };
    let db_region = watch.db_region;
    let table = watch.table;
    let task_id = watch.task_id.clone();
    let w = watch.clone();
    sim.db_get(exec, db_region, table.into(), task_id, move |sim, item| {
        // Any surviving task row while the watch is unconcluded is a stall
        // — including an `aborted` tombstone: the rescue path maps the
        // tombstone to its recorded terminal status and re-runs the
        // idempotent conclusion (found by simcheck, see EXPERIMENTS.md).
        let stalled = item.is_some();
        if stalled && !(w.concluded)() {
            if let Some(l) = &ledger {
                l.borrow_mut().bump(w.tenant.as_deref(), |s| s.rescues += 1);
            }
            (w.rescue)(sim);
            schedule_check(sim, cadence, ledger, w, checks + 1);
        }
    });
}

/// Schedules the janitor delete of a concluded task's tombstone after
/// `cadence.aborted_pool_ttl`.
///
/// Mirrors the TTL-based cleanup a production deployment configures on the
/// task table (TTL reaping is a free background process, so it goes through
/// [`Backend::db_ttl_expire`] rather than the metered request path). The
/// delete is guarded by `guard` so it can never reap a live row; `reap`
/// runs on the expired item to tear down anything it recorded (orphan
/// uploads, for the engine).
#[expect(
    clippy::too_many_arguments,
    reason = "every parameter is an independent input to the deferred cleanup job"
)]
pub fn schedule_tombstone_cleanup<B: Backend>(
    sim: &mut B,
    cadence: FleetCadence,
    ledger: Option<FleetHandle>,
    tenant: Option<TenantId>,
    db_region: RegionId,
    table: &'static str,
    task_id: String,
    guard: impl FnOnce(&Item) -> bool + 'static,
    reap: impl FnOnce(&mut B, Item) + 'static,
) {
    sim.schedule_in(cadence.aborted_pool_ttl, move |sim| {
        let expired = sim.db_ttl_expire(db_region, table, &task_id, guard);
        if let Some(item) = expired {
            if let Some(l) = &ledger {
                l.borrow_mut().bump(tenant.as_deref(), |s| s.cleanups += 1);
            }
            reap(sim, item);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_cadence_matches_historical_engine_constants() {
        let c = FleetCadence::default();
        assert_eq!(c.watchdog_interval, SimDuration::from_secs(90));
        assert_eq!(c.watchdog_max_checks, 40);
        assert_eq!(c.aborted_pool_ttl, SimDuration::from_secs(5400));
    }

    #[test]
    fn alert_log_groups_by_tenant_in_sorted_order() {
        use simkernel::SimTime;
        use simtrace::alert::AlertKind;
        let ev = |tenant: &str, kind| AlertEvent {
            at: SimTime::from_nanos(930 * 1_000_000_000),
            rule: "slo-burn".into(),
            tenant: tenant.into(),
            kind,
            fast_burn: 50.0,
            slow_burn: 7.5,
            fast_bad: 3,
            fast_total: 4,
        };
        let mut l = FleetLedger::new();
        l.record_alert(ev("zeta", AlertKind::Fired));
        l.record_alert(ev("alpha", AlertKind::Fired));
        l.record_alert(ev("zeta", AlertKind::Resolved));
        assert_eq!(l.alerts("zeta").len(), 2);
        assert_eq!(l.alerts("missing").len(), 0);
        assert_eq!(l.alert_tenants().collect::<Vec<_>>(), vec!["alpha", "zeta"]);
        let log = l.render_alert_log();
        assert!(log.starts_with("# alerts tenant=alpha\n"));
        assert!(log.contains("930.000 FIRE slo-burn tenant=zeta"));
        assert!(log.contains("RESOLVE"));
        assert_eq!(log, l.render_alert_log());
    }

    #[test]
    fn ledger_orders_tenants_deterministically() {
        let mut l = FleetLedger::new();
        l.bump(Some("zeta"), |s| s.watches += 1);
        l.bump(Some("alpha"), |s| s.rescues += 2);
        l.bump(None, |s| s.checks += 3);
        let names: Vec<&str> = l.tenants().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["alpha", "default", "zeta"]);
        assert_eq!(l.stats("alpha").rescues, 2);
        assert_eq!(l.stats("missing"), FleetStats::default());
    }
}
