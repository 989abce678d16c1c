//! The control plane's SLO monitor: burn-rate alert rules derived from
//! tenant specs, evaluated on sim-time ticks against the data plane's
//! windowed metrics.
//!
//! The *mechanism* (windows, burn math, fire/resolve state) lives in
//! [`simtrace::alert`]; this module owns the *policy*: which tenants get a
//! rule (every registered tenant with an SLO spec, each watching its
//! tenant-scoped `slo.good`/`slo.bad` counters, which the data plane
//! records at task conclusion), and the per-tenant log of the transitions.
//!
//! The monitor is driver-clocked: bench binaries and simcheck call
//! [`SloMonitor::observe`] *between* `run_until` steps. Nothing inside the
//! simulation observes the monitor, so registering it cannot perturb
//! results — the same passivity contract as the tracer itself.

use std::collections::BTreeMap;

use simkernel::SimTime;
use simtrace::alert::{AlertEngine, AlertEvent, BurnSnapshot};
use simtrace::window::WindowStore;

use crate::registry::TenantRegistry;

/// Burn-rate monitoring over every tenant with an SLO spec.
#[derive(Debug, Default)]
pub struct SloMonitor {
    engine: AlertEngine,
    /// Every transition so far, per tenant in id order.
    log: BTreeMap<String, Vec<AlertEvent>>,
}

impl SloMonitor {
    /// Builds one burn-rate rule per SLO-carrying tenant in `reg`, in id
    /// order, under [`simtrace::alert`]'s windows and thresholds.
    pub fn from_registry(reg: &TenantRegistry) -> Self {
        let mut mon = SloMonitor::default();
        for spec in reg.iter().filter(|s| s.slo.is_some()) {
            mon.engine.register(&spec.id);
        }
        mon
    }

    /// Evaluates every rule at `now` against `windows`, logs each
    /// transition under its tenant, and returns the transitions this tick
    /// produced.
    pub fn observe(&mut self, now: SimTime, windows: &WindowStore) -> Vec<AlertEvent> {
        let evs = self.engine.evaluate(now, windows);
        for ev in &evs {
            self.log
                .entry(ev.tenant.clone())
                .or_default()
                .push(ev.clone());
        }
        evs
    }

    /// One tenant's transitions, in recording order.
    pub fn alerts(&self, tenant: &str) -> &[AlertEvent] {
        self.log.get(tenant).map_or(&[], Vec::as_slice)
    }

    /// Every transition as fixed-format lines (see [`AlertEvent::render`]),
    /// grouped under a `# alerts tenant=<id>` header per tenant in id order;
    /// empty when nothing fired (byte-deterministic).
    pub fn alert_log(&self) -> String {
        let mut out = String::new();
        for (tenant, evs) in &self.log {
            out.push_str(&format!("# alerts tenant={tenant}\n"));
            for ev in evs {
                out.push_str(&ev.render());
                out.push('\n');
            }
        }
        out
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
        self.engine.snapshot(tenant, now, windows)
    }
}

#[cfg(test)]
mod tests {
    use simkernel::SimDuration;
    use simtrace::alert::AlertKind;

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
        let mut w = WindowStore::default();
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
            .observe(t(30), &w)
            .into_iter()
            .map(|e| e.tenant)
            .collect();
        assert_eq!(fired, vec!["noisy", "quiet"]);
    }

    #[test]
    fn transitions_are_logged_for_the_right_tenant_only() {
        let mut w = WindowStore::default();
        let mut mon = SloMonitor::from_registry(&registry());

        // Both tenants complete work; only noisy's completions violate.
        for m in 0..10u64 {
            w.counter_add(t(m * 60), "tenant.noisy.slo.bad", 5);
            w.counter_add(t(m * 60), "tenant.quiet.slo.good", 5);
            let evs = mon.observe(t(m * 60 + 30), &w);
            assert!(evs.iter().all(|e| e.tenant == "noisy"));
        }
        assert!(mon.tenant_firing("noisy"));
        assert!(!mon.tenant_firing("quiet"));
        assert_eq!(mon.alerts("noisy").len(), 1);
        assert_eq!(mon.alerts("noisy")[0].kind, AlertKind::Fired);
        assert!(mon.alerts("quiet").is_empty());
        assert!(mon.alert_log().contains("FIRE slo-burn tenant=noisy"));

        let snap = mon.snapshot_for("noisy", t(600), &w).unwrap();
        assert!(snap.firing && snap.fast_burn > 14.4);
        assert!(mon.snapshot_for("unmonitored", t(600), &w).is_none());
    }

    #[test]
    fn alert_log_groups_by_tenant_in_sorted_order() {
        let mut w = WindowStore::default();
        let mut mon = SloMonitor::from_registry(&registry());
        assert_eq!(mon.alert_log(), "");
        // quiet fires first, noisy a tick later; both resolve at t=630.
        w.counter_add(t(0), "tenant.quiet.slo.bad", 3);
        w.counter_add(t(0), "tenant.quiet.slo.good", 1);
        mon.observe(t(30), &w);
        w.counter_add(t(60), "tenant.noisy.slo.bad", 2);
        mon.observe(t(90), &w);
        w.counter_add(t(600), "tenant.quiet.slo.good", 4);
        mon.observe(t(630), &w);
        assert_eq!(mon.alerts("quiet").len(), 2);
        assert!(mon.alerts("unmonitored").is_empty());
        assert_eq!(
            mon.alert_log(),
            concat!(
                "# alerts tenant=noisy\n",
                "90.000 FIRE slo-burn tenant=noisy fast_burn=100.00 slow_burn=100.00 fast_bad=2/2\n",
                "630.000 RESOLVE slo-burn tenant=noisy fast_burn=0.00 slow_burn=100.00 fast_bad=0/0\n",
                "# alerts tenant=quiet\n",
                "30.000 FIRE slo-burn tenant=quiet fast_burn=75.00 slow_burn=75.00 fast_bad=3/4\n",
                "630.000 RESOLVE slo-burn tenant=quiet fast_burn=0.00 slow_burn=37.50 fast_bad=0/4\n",
            )
        );
    }
}
