//! Multi-window burn-rate alerting over [`crate::window::WindowStore`]
//! metrics — the SRE-style "fast + slow window" construction: an alert
//! fires when the error budget is burning fast enough *right now* (fast
//! window) **and** has been burning long enough to matter (slow window),
//! and resolves as soon as the fast window recovers.
//!
//! Burn rate is `error_ratio / error_budget` where the budget is
//! `1 − target` (a 99 % SLO leaves a 1 % budget, so a 10 % error ratio is
//! a 10× burn). A window with no events has *no* burn — silence is not an
//! outage in a discrete-event simulation where a tenant may simply be idle.
//!
//! [`AlertEngine`] keeps one rule per registered tenant, in id order, and
//! each rule keeps its firing state and every transition it made. The
//! engine is pure: [`AlertEngine::observe`] reads window state and mutates
//! only its own rules. It never schedules events, draws randomness, or
//! touches wall clock, so alert logs from identically-seeded runs are
//! byte-identical. The `slo_burn` and `region_outage` experiments call
//! `observe` between `run_until` steps on a sim-time cadence; nothing
//! inside the simulation observes the engine, preserving the passivity
//! invariant.

use std::collections::BTreeMap;

use simkernel::{SimDuration, SimTime};

use crate::window::WindowStore;

// The classic page-severity construction: a 99 % target, 5 m fast / 1 h
// slow windows, and a 14.4×/6× threshold pair (14.4× burns 2 % of a
// 30-day budget in an hour; 6× sustained for the slow window
// distinguishes a real incident from a blip).

/// The error budget `1 − target` of the 99 % attainment target.
pub const ERROR_BUDGET: f64 = 1.0 - 0.99;
/// Fast ("is it burning now?") window.
pub const FAST_WINDOW: SimDuration = SimDuration::from_mins(5);
/// Slow ("has it burned long enough?") window.
pub const SLOW_WINDOW: SimDuration = SimDuration::from_mins(60);
/// Minimum fast-window burn rate to fire (and to stay firing).
pub const FAST_THRESHOLD: f64 = 14.4;
/// Minimum slow-window burn rate to fire.
pub const SLOW_THRESHOLD: f64 = 6.0;
/// Name every alert line carries: each tenant has one burn-rate rule.
pub const SLO_BURN_RULE: &str = "slo-burn";

/// Fire/resolve transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertKind {
    /// The rule's condition became true.
    Fired,
    /// The rule's fast window recovered below threshold.
    Resolved,
}

/// One deterministic alert transition, with the window evidence that
/// justified it.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertEvent {
    /// Evaluation instant (sim time).
    pub at: SimTime,
    /// Tenant whose rule transitioned.
    pub tenant: String,
    /// Transition direction.
    pub kind: AlertKind,
    /// Fast-window burn rate at the transition.
    pub fast_burn: f64,
    /// Slow-window burn rate at the transition.
    pub slow_burn: f64,
    /// Fast-window bad count (evidence).
    pub fast_bad: u64,
    /// Fast-window total count (evidence).
    pub fast_total: u64,
}

impl AlertEvent {
    /// Renders the event as one fixed-format line (stable field order and
    /// float precision, so alert logs diff cleanly across runs).
    pub fn render(&self) -> String {
        let kind = match self.kind {
            AlertKind::Fired => "FIRE",
            AlertKind::Resolved => "RESOLVE",
        };
        format!(
            "{:.3} {kind} {SLO_BURN_RULE} tenant={} fast_burn={:.2} slow_burn={:.2} fast_bad={}/{}",
            self.at.as_nanos() as f64 / 1e9,
            self.tenant,
            self.fast_burn,
            self.slow_burn,
            self.fast_bad,
            self.fast_total,
        )
    }
}

/// Burn rates and window evidence for one rule at one instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurnSnapshot {
    /// Fast-window burn rate (0 when the window is empty).
    pub fast_burn: f64,
    /// Slow-window burn rate (0 when the window is empty).
    pub slow_burn: f64,
    /// Fast-window bad count.
    pub fast_bad: u64,
    /// Fast-window good+bad count.
    pub fast_total: u64,
    /// Whether the rule is firing after this evaluation.
    pub firing: bool,
}

/// Evaluates one burn-rate rule per registered tenant against a
/// [`WindowStore`] on sim-time ticks, keeping each rule's firing state and
/// its log of transitions. A tenant's rule judges its
/// tenant-[`crate::scoped`] `slo.good`/`slo.bad` counters against the
/// [`ERROR_BUDGET`] over the fast and slow windows.
#[derive(Debug, Default)]
pub struct AlertEngine {
    /// Each tenant's rule, keyed (and so evaluated) in id order.
    rules: BTreeMap<String, Rule>,
}

/// One tenant's rule: whether it is firing, and every transition so far.
#[derive(Debug, Default)]
struct Rule {
    firing: bool,
    log: Vec<AlertEvent>,
}

impl AlertEngine {
    /// Registers `tenant`'s rule. Rules are evaluated in id order whatever
    /// the registration order; registering a tenant again keeps its rule.
    pub fn register(&mut self, tenant: &str) {
        self.rules.entry(tenant.to_string()).or_default();
    }

    /// Burn rates for `tenant`'s rule right now (no state change); `None`
    /// for a tenant without a rule.
    pub fn snapshot(
        &self,
        tenant: &str,
        now: SimTime,
        windows: &WindowStore,
    ) -> Option<BurnSnapshot> {
        let rule = self.rules.get(tenant)?;
        let (fast_burn, fast_bad, fast_total) = burn(tenant, now, FAST_WINDOW, windows);
        let (slow_burn, _, _) = burn(tenant, now, SLOW_WINDOW, windows);
        Some(BurnSnapshot {
            fast_burn,
            slow_burn,
            fast_bad,
            fast_total,
            firing: rule.firing,
        })
    }

    /// Evaluates every rule at `now` in id order, logs each transition
    /// under its tenant, and returns the transitions this tick produced.
    pub fn observe(&mut self, now: SimTime, windows: &WindowStore) -> Vec<AlertEvent> {
        let mut out = Vec::new();
        for (tenant, rule) in &mut self.rules {
            let (fast_burn, fast_bad, fast_total) = burn(tenant, now, FAST_WINDOW, windows);
            let (slow_burn, _, _) = burn(tenant, now, SLOW_WINDOW, windows);
            let was = rule.firing;
            let is = if was {
                // Hysteresis: stay firing until the fast window recovers.
                fast_burn >= FAST_THRESHOLD
            } else {
                fast_burn >= FAST_THRESHOLD && slow_burn >= SLOW_THRESHOLD
            };
            if is != was {
                rule.firing = is;
                let ev = AlertEvent {
                    at: now,
                    tenant: tenant.clone(),
                    kind: if is {
                        AlertKind::Fired
                    } else {
                        AlertKind::Resolved
                    },
                    fast_burn,
                    slow_burn,
                    fast_bad,
                    fast_total,
                };
                rule.log.push(ev.clone());
                out.push(ev);
            }
        }
        out
    }

    /// One tenant's transitions, in recording order; empty for a tenant
    /// without a rule.
    pub fn alerts(&self, tenant: &str) -> &[AlertEvent] {
        self.rules.get(tenant).map_or(&[], |r| r.log.as_slice())
    }

    /// Every transition as fixed-format lines (see [`AlertEvent::render`]),
    /// under a `# alerts tenant=<id>` header per tenant that has one, in id
    /// order; empty when nothing fired (byte-deterministic).
    pub fn alert_log(&self) -> String {
        let mut out = String::new();
        for (tenant, rule) in self.rules.iter().filter(|(_, r)| !r.log.is_empty()) {
            out.push_str(&format!("# alerts tenant={tenant}\n"));
            for ev in &rule.log {
                out.push_str(&ev.render());
                out.push('\n');
            }
        }
        out
    }
}

/// (burn, bad, total) for `tenant`'s rule over one lookback. An empty
/// window burns nothing.
fn burn(
    tenant: &str,
    now: SimTime,
    lookback: SimDuration,
    windows: &WindowStore,
) -> (f64, u64, u64) {
    let bad = windows.counter_sum(&crate::scoped(tenant, "slo.bad"), now, lookback);
    let good = windows.counter_sum(&crate::scoped(tenant, "slo.good"), now, lookback);
    let total = bad + good;
    if total == 0 {
        return (0.0, 0, 0);
    }
    let ratio = bad as f64 / total as f64;
    (ratio / ERROR_BUDGET, bad, total)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_nanos(secs * 1_000_000_000)
    }

    #[test]
    fn fires_on_fast_and_slow_then_resolves_on_fast_recovery() {
        let mut w = WindowStore::default();
        let mut eng = AlertEngine::default();
        eng.register("noisy");

        // Healthy traffic: plenty of good, no bad → no alert.
        for m in 0..10u64 {
            w.counter_add(t(m * 60), "tenant.noisy.slo.good", 10);
        }
        assert!(eng.observe(t(600), &w).is_empty());

        // Total failure for 6 minutes: fast burn = 1/0.01 = 100 ≥ 14.4 and
        // the hour window accumulates enough bad to clear the 6× slow bar.
        for m in 10..16u64 {
            w.counter_add(t(m * 60), "tenant.noisy.slo.bad", 10);
        }
        let evs = eng.observe(t(16 * 60), &w);
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].kind, AlertKind::Fired);
        assert_eq!(evs[0].tenant, "noisy");
        assert!(evs[0].fast_burn >= 14.4, "fast={}", evs[0].fast_burn);
        assert!(evs[0].slow_burn >= 6.0, "slow={}", evs[0].slow_burn);
        assert!(eng.snapshot("noisy", t(16 * 60), &w).unwrap().firing);
        // Still firing on the next tick: no duplicate transition.
        assert!(eng.observe(t(17 * 60), &w).is_empty());

        // Recovery: good traffic resumes; once the fast window is clean the
        // alert resolves, even though the slow window still remembers.
        for m in 17..25u64 {
            w.counter_add(t(m * 60), "tenant.noisy.slo.good", 10);
        }
        let evs = eng.observe(t(24 * 60), &w);
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].kind, AlertKind::Resolved);
        assert!(!eng.snapshot("noisy", t(24 * 60), &w).unwrap().firing);
        // The rule logged both transitions, in order.
        let kinds: Vec<AlertKind> = eng.alerts("noisy").iter().map(|e| e.kind).collect();
        assert_eq!(kinds, [AlertKind::Fired, AlertKind::Resolved]);
    }

    #[test]
    fn fast_spike_without_slow_burn_does_not_fire() {
        let mut w = WindowStore::default();
        let mut eng = AlertEngine::default();
        eng.register("t1");
        // A long healthy history…
        for m in 0..55u64 {
            w.counter_add(t(m * 60), "tenant.t1.slo.good", 100);
        }
        // …then one bad minute: fast window burns hot, slow window shrugs.
        w.counter_add(t(55 * 60), "tenant.t1.slo.bad", 100);
        let snap_time = t(56 * 60);
        assert!(eng.observe(snap_time, &w).is_empty());
        let snap = eng.snapshot("t1", snap_time, &w).unwrap();
        assert!(snap.fast_burn >= 14.4, "fast={}", snap.fast_burn);
        assert!(snap.slow_burn < 6.0, "slow={}", snap.slow_burn);
        assert!(!snap.firing);
    }

    #[test]
    fn idle_tenant_never_fires() {
        let w = WindowStore::default();
        let mut eng = AlertEngine::default();
        eng.register("idle");
        for m in 0..120u64 {
            assert!(eng.observe(t(m * 60), &w).is_empty());
        }
    }

    /// An engine with `order`'s tenants registered in that order.
    fn engine(order: &[&str]) -> AlertEngine {
        let mut eng = AlertEngine::default();
        for tenant in order {
            eng.register(tenant);
        }
        eng
    }

    #[test]
    fn observe_runs_in_id_order_whatever_the_registration_order() {
        let mut w = WindowStore::default();
        for tenant in ["noisy", "quiet"] {
            w.counter_add(t(0), &crate::scoped(tenant, "slo.bad"), 3);
            w.counter_add(t(0), &crate::scoped(tenant, "slo.good"), 1);
        }
        let mut fwd = engine(&["noisy", "quiet"]);
        let mut rev = engine(&["quiet", "noisy"]);
        // Each rule reads its own tenant's scoped counters.
        for tenant in ["noisy", "quiet"] {
            let snap = rev.snapshot(tenant, t(30), &w).unwrap();
            assert_eq!((snap.fast_bad, snap.fast_total), (3, 4));
        }
        // Both fire on one tick, in id order, on either engine.
        let a = fwd.observe(t(30), &w);
        let b = rev.observe(t(30), &w);
        assert_eq!(a, b);
        let fired: Vec<&str> = b.iter().map(|e| e.tenant.as_str()).collect();
        assert_eq!(fired, ["noisy", "quiet"]);
        assert_eq!(fwd.alert_log(), rev.alert_log());
    }

    #[test]
    fn transitions_are_logged_for_the_right_tenant_only() {
        let mut w = WindowStore::default();
        let mut eng = engine(&["noisy", "quiet", "idle"]);

        // Both tenants complete work; only noisy's completions violate.
        for m in 0..10u64 {
            w.counter_add(t(m * 60), "tenant.noisy.slo.bad", 5);
            w.counter_add(t(m * 60), "tenant.quiet.slo.good", 5);
            let evs = eng.observe(t(m * 60 + 30), &w);
            assert!(evs.iter().all(|e| e.tenant == "noisy"));
        }
        let snap = eng.snapshot("noisy", t(600), &w).unwrap();
        assert!(snap.firing && snap.fast_burn > 14.4);
        assert!(!eng.snapshot("quiet", t(600), &w).unwrap().firing);
        assert_eq!(eng.alerts("noisy").len(), 1);
        assert_eq!(eng.alerts("noisy")[0].kind, AlertKind::Fired);
        assert!(eng.alerts("quiet").is_empty());
        assert!(eng.alerts("idle").is_empty());
        assert!(eng.alert_log().contains("FIRE slo-burn tenant=noisy"));
    }

    #[test]
    fn alert_log_groups_by_tenant_in_sorted_order() {
        let mut w = WindowStore::default();
        let mut eng = engine(&["quiet", "noisy", "idle"]);
        assert_eq!(eng.alert_log(), "");
        // quiet fires first, noisy a tick later; both resolve at t=630.
        w.counter_add(t(0), "tenant.quiet.slo.bad", 3);
        w.counter_add(t(0), "tenant.quiet.slo.good", 1);
        eng.observe(t(30), &w);
        w.counter_add(t(60), "tenant.noisy.slo.bad", 2);
        eng.observe(t(90), &w);
        w.counter_add(t(600), "tenant.quiet.slo.good", 4);
        eng.observe(t(630), &w);
        assert_eq!(eng.alerts("quiet").len(), 2);
        // A tenant without transitions gets no header.
        assert!(eng.alerts("idle").is_empty());
        assert_eq!(
            eng.alert_log(),
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

    #[test]
    fn an_unregistered_tenant_has_no_alerts_and_no_snapshot() {
        let mut w = WindowStore::default();
        let mut eng = engine(&["noisy"]);
        w.counter_add(t(0), "tenant.stranger.slo.bad", 10);
        assert!(eng.observe(t(30), &w).is_empty());
        assert!(eng.alerts("stranger").is_empty());
        assert!(eng.snapshot("stranger", t(30), &w).is_none());
        assert_eq!(eng.alert_log(), "");
    }

    #[test]
    fn registering_a_tenant_twice_keeps_one_rule() {
        let mut w = WindowStore::default();
        let mut eng = engine(&["noisy", "noisy"]);
        w.counter_add(t(0), "tenant.noisy.slo.bad", 3);
        assert_eq!(eng.observe(t(30), &w).len(), 1);
        // A second registration of a firing tenant keeps its state and log.
        eng.register("noisy");
        assert!(eng.snapshot("noisy", t(30), &w).unwrap().firing);
        assert_eq!(eng.alerts("noisy").len(), 1);
        assert_eq!(eng.alert_log().matches("# alerts tenant=noisy").count(), 1);
    }

    #[test]
    fn render_is_fixed_format() {
        let ev = AlertEvent {
            at: t(930),
            tenant: "noisy".into(),
            kind: AlertKind::Fired,
            fast_burn: 100.0,
            slow_burn: 8.333,
            fast_bad: 5,
            fast_total: 5,
        };
        assert_eq!(
            ev.render(),
            "930.000 FIRE slo-burn tenant=noisy fast_burn=100.00 slow_burn=8.33 fast_bad=5/5"
        );
    }
}
