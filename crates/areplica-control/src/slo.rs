//! The control plane's SLO monitor: burn-rate alert rules derived from
//! tenant specs, evaluated on sim-time ticks against the data plane's
//! windowed metrics.
//!
//! The *mechanism* (windows, burn math, fire/resolve state) lives in
//! [`simtrace::alert`]; this module owns the *policy*: which tenants get a
//! rule (every registered tenant with an SLO spec), which metric names the
//! rule watches (the tenant-scoped `slo.good`/`slo.bad` counters the data
//! plane records at task conclusion), and where transitions are deposited
//! (the [`FleetSupervisor`]'s per-tenant activity ledger, beside the fleet
//! counters — the record ROADMAP item 5's adaptive planner will consume).
//!
//! The monitor is driver-clocked: bench binaries and simcheck call
//! [`SloMonitor::observe`] *between* `run_until` steps. Nothing inside the
//! simulation observes the monitor, so registering it cannot perturb
//! results — the same passivity contract as the tracer itself.

use simkernel::SimTime;
use simtrace::alert::{AlertEngine, AlertEvent, BurnRateRule, BurnSnapshot};
use simtrace::window::WindowStore;

use crate::fleet::FleetSupervisor;
use crate::registry::TenantRegistry;

/// Name shared by every tenant's burn-rate rule.
pub const SLO_BURN_RULE: &str = "slo-burn";

/// Burn-rate monitoring over every tenant with an SLO spec.
#[derive(Debug, Default)]
pub struct SloMonitor {
    engine: AlertEngine,
}

impl SloMonitor {
    /// Builds one burn-rate rule per SLO-carrying tenant in `reg`, in id
    /// order, under [`simtrace::alert`]'s windows and thresholds.
    pub fn from_registry(reg: &TenantRegistry) -> Self {
        let mut engine = AlertEngine::new();
        for spec in reg.iter().filter(|s| s.slo.is_some()) {
            engine.register(BurnRateRule {
                name: SLO_BURN_RULE.to_string(),
                tenant: spec.id.clone(),
                good: simtrace::scoped(&spec.id, "slo.good"),
                bad: simtrace::scoped(&spec.id, "slo.bad"),
            });
        }
        SloMonitor { engine }
    }

    /// Evaluates every rule at `now` against `windows`, records each
    /// transition in the supervisor's activity ledger, and returns the
    /// transitions this tick produced.
    pub fn observe(
        &mut self,
        now: SimTime,
        windows: &WindowStore,
        fleet: &FleetSupervisor,
    ) -> Vec<AlertEvent> {
        let evs = self.engine.evaluate(now, windows);
        for ev in &evs {
            fleet.record_alert(ev.clone());
        }
        evs
    }

    /// True while the named tenant's rule is firing.
    pub fn tenant_firing(&self, tenant: &str) -> bool {
        self.engine.tenant_firing(tenant)
    }

    /// Current burn rates for the named tenant's rule (no state change);
    /// `None` for tenants without a rule.
    pub fn snapshot_for(
        &self,
        tenant: &str,
        now: SimTime,
        windows: &WindowStore,
    ) -> Option<BurnSnapshot> {
        let idx = self
            .engine
            .rules()
            .iter()
            .position(|r| r.tenant == tenant)?;
        Some(self.engine.snapshot(idx, now, windows))
    }
}

#[cfg(test)]
mod tests {
    use simkernel::SimDuration;
    use simtrace::alert::AlertKind;
    use simtrace::window::{WindowSpec, WindowStore};

    use super::*;
    use crate::registry::TenantSpec;

    fn t(secs: u64) -> SimTime {
        SimTime::from_nanos(secs * 1_000_000_000)
    }

    fn registry() -> TenantRegistry {
        let mut reg = TenantRegistry::new();
        reg.register(TenantSpec::new("noisy").with_slo(SimDuration::from_secs(30)));
        reg.register(TenantSpec::new("quiet").with_slo(SimDuration::from_secs(30)));
        reg.register(TenantSpec::new("unmonitored")); // no SLO → no rule
        reg
    }

    #[test]
    fn rules_come_from_slo_specs_in_id_order() {
        let mut w = WindowStore::new(WindowSpec::DEFAULT);
        let fleet = FleetSupervisor::new();
        // Registered out of id order: rules follow the ids.
        let mut reg = TenantRegistry::new();
        reg.register(TenantSpec::new("quiet").with_slo(SimDuration::from_secs(30)));
        reg.register(TenantSpec::new("noisy").with_slo(SimDuration::from_secs(30)));
        reg.register(TenantSpec::new("unmonitored"));
        let mut mon = SloMonitor::from_registry(&reg);
        for tenant in ["noisy", "quiet", "unmonitored"] {
            w.counter_add(t(0), &format!("tenant.{tenant}.slo.bad"), 3);
            w.counter_add(t(0), &format!("tenant.{tenant}.slo.good"), 1);
        }
        // Each rule reads its own tenant's scoped counters.
        for tenant in ["noisy", "quiet"] {
            let snap = mon.snapshot_for(tenant, t(30), &w).unwrap();
            assert_eq!((snap.fast_bad, snap.fast_total), (3, 4));
        }
        assert!(mon.snapshot_for("unmonitored", t(30), &w).is_none());
        // Both fire on one tick, in id order.
        let fired: Vec<String> = mon
            .observe(t(30), &w, &fleet)
            .into_iter()
            .map(|e| e.tenant)
            .collect();
        assert_eq!(fired, vec!["noisy", "quiet"]);
    }

    #[test]
    fn transitions_land_in_the_fleet_ledger_for_the_right_tenant_only() {
        let mut w = WindowStore::new(WindowSpec::DEFAULT);
        let fleet = FleetSupervisor::new();
        let mut mon = SloMonitor::from_registry(&registry());

        // Both tenants complete work; only noisy's completions violate.
        for m in 0..10u64 {
            w.counter_add(t(m * 60), "tenant.noisy.slo.bad", 5);
            w.counter_add(t(m * 60), "tenant.quiet.slo.good", 5);
            let evs = mon.observe(t(m * 60 + 30), &w, &fleet);
            assert!(evs.iter().all(|e| e.tenant == "noisy"));
        }
        assert!(mon.tenant_firing("noisy"));
        assert!(!mon.tenant_firing("quiet"));
        fleet.with_ledger(|l| {
            assert_eq!(l.alerts("noisy").len(), 1);
            assert_eq!(l.alerts("noisy")[0].kind, AlertKind::Fired);
            assert!(l.alerts("quiet").is_empty());
        });
        assert!(fleet.alert_log().contains("FIRE slo-burn tenant=noisy"));

        let snap = mon.snapshot_for("noisy", t(600), &w).unwrap();
        assert!(snap.firing && snap.fast_burn > 14.4);
        assert!(mon.snapshot_for("unmonitored", t(600), &w).is_none());
    }
}
