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
//! The engine is pure: [`AlertEngine::evaluate`] reads window state and
//! mutates only its own rule/firing bookkeeping. It never schedules events,
//! draws randomness, or touches wall clock, so alert logs from
//! identically-seeded runs are byte-identical. Drivers (bench binaries,
//! simcheck) call `evaluate` between `run_until` steps on a sim-time
//! cadence; nothing inside the simulation observes the engine, preserving
//! the passivity invariant.

use simkernel::{SimDuration, SimTime};

use crate::window::WindowStore;

/// Thresholds and windows for one burn-rate rule.
///
/// Defaults follow the classic page-severity construction: a 99 % target,
/// 5 m fast / 1 h slow windows, and a 14.4×/6× threshold pair (14.4× burns
/// 2 % of a 30-day budget in an hour; 6× sustained for the slow window
/// distinguishes a real incident from a blip).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurnRatePolicy {
    /// SLO attainment target in (0, 1), e.g. `0.99`.
    pub target: f64,
    /// Fast ("is it burning now?") window.
    pub fast: SimDuration,
    /// Slow ("has it burned long enough?") window.
    pub slow: SimDuration,
    /// Minimum fast-window burn rate to fire (and to stay firing).
    pub fast_threshold: f64,
    /// Minimum slow-window burn rate to fire.
    pub slow_threshold: f64,
}

impl Default for BurnRatePolicy {
    fn default() -> Self {
        BurnRatePolicy {
            target: 0.99,
            fast: SimDuration::from_mins(5),
            slow: SimDuration::from_mins(60),
            fast_threshold: 14.4,
            slow_threshold: 6.0,
        }
    }
}

impl BurnRatePolicy {
    /// The error budget `1 − target`, floored at a tiny epsilon so a 100 %
    /// target cannot divide by zero.
    pub fn budget(&self) -> f64 {
        (1.0 - self.target).max(1e-9)
    }
}

/// One declarative alert rule: a good/bad counter pair (already
/// tenant-[`crate::scoped`] by the registrar) judged under a policy.
#[derive(Debug, Clone)]
pub struct BurnRateRule {
    /// Rule name, e.g. `"slo-burn"`.
    pub name: String,
    /// Owning tenant label (`"default"` for the default tenant); carried
    /// into events so ledgers and dashboards can attribute them.
    pub tenant: String,
    /// Windowed counter counting SLO-conformant completions.
    pub good: String,
    /// Windowed counter counting SLO violations.
    pub bad: String,
    /// Thresholds and windows.
    pub policy: BurnRatePolicy,
}

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
    /// Rule name.
    pub rule: String,
    /// Tenant label (`"default"` for the default tenant).
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
            "{:.3} {kind} {} tenant={} fast_burn={:.2} slow_burn={:.2} fast_bad={}/{}",
            self.at.as_nanos() as f64 / 1e9,
            self.rule,
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

/// Evaluates a set of [`BurnRateRule`]s against a [`WindowStore`] on
/// sim-time ticks, tracking firing state and accumulating a deterministic
/// transition log.
#[derive(Debug, Default)]
pub struct AlertEngine {
    rules: Vec<BurnRateRule>,
    firing: Vec<bool>,
    log: Vec<AlertEvent>,
}

impl AlertEngine {
    /// Empty engine.
    pub fn new() -> Self {
        AlertEngine::default()
    }

    /// Registers a rule; evaluation order is registration order.
    pub fn register(&mut self, rule: BurnRateRule) {
        self.rules.push(rule);
        self.firing.push(false);
    }

    /// Registered rules, in evaluation order.
    pub fn rules(&self) -> &[BurnRateRule] {
        &self.rules
    }

    /// Burn rates for one rule right now (no state change).
    pub fn snapshot(&self, idx: usize, now: SimTime, windows: &WindowStore) -> BurnSnapshot {
        let r = &self.rules[idx];
        let (fast_burn, fast_bad, fast_total) = burn(r, now, r.policy.fast, windows);
        let (slow_burn, _, _) = burn(r, now, r.policy.slow, windows);
        BurnSnapshot {
            fast_burn,
            slow_burn,
            fast_bad,
            fast_total,
            firing: self.firing[idx],
        }
    }

    /// True if the named tenant has any rule currently firing.
    pub fn tenant_firing(&self, tenant: &str) -> bool {
        self.rules
            .iter()
            .zip(&self.firing)
            .any(|(r, f)| *f && r.tenant == tenant)
    }

    /// Evaluates every rule at `now` and returns the transitions this tick
    /// produced (also appended to [`AlertEngine::log`]).
    pub fn evaluate(&mut self, now: SimTime, windows: &WindowStore) -> Vec<AlertEvent> {
        let mut out = Vec::new();
        for (idx, rule) in self.rules.iter().enumerate() {
            let (fast_burn, fast_bad, fast_total) = burn(rule, now, rule.policy.fast, windows);
            let (slow_burn, _, _) = burn(rule, now, rule.policy.slow, windows);
            let was = self.firing[idx];
            let is = if was {
                // Hysteresis: stay firing until the fast window recovers.
                fast_burn >= rule.policy.fast_threshold
            } else {
                fast_burn >= rule.policy.fast_threshold && slow_burn >= rule.policy.slow_threshold
            };
            if is != was {
                self.firing[idx] = is;
                out.push(AlertEvent {
                    at: now,
                    rule: rule.name.clone(),
                    tenant: rule.tenant.clone(),
                    kind: if is {
                        AlertKind::Fired
                    } else {
                        AlertKind::Resolved
                    },
                    fast_burn,
                    slow_burn,
                    fast_bad,
                    fast_total,
                });
            }
        }
        self.log.extend(out.iter().cloned());
        out
    }

    /// Every transition ever emitted, in emission order.
    pub fn log(&self) -> &[AlertEvent] {
        &self.log
    }
}

/// (burn, bad, total) for one rule over one lookback. An empty window burns
/// nothing.
fn burn(
    rule: &BurnRateRule,
    now: SimTime,
    lookback: SimDuration,
    windows: &WindowStore,
) -> (f64, u64, u64) {
    let bad = windows.counter_sum(&rule.bad, now, lookback);
    let good = windows.counter_sum(&rule.good, now, lookback);
    let total = bad + good;
    if total == 0 {
        return (0.0, 0, 0);
    }
    let ratio = bad as f64 / total as f64;
    (ratio / rule.policy.budget(), bad, total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::{WindowSpec, WindowStore};

    fn t(secs: u64) -> SimTime {
        SimTime::from_nanos(secs * 1_000_000_000)
    }

    fn rule(tenant: &str) -> BurnRateRule {
        BurnRateRule {
            name: "slo-burn".into(),
            tenant: tenant.into(),
            good: format!("tenant.{tenant}.slo.good"),
            bad: format!("tenant.{tenant}.slo.bad"),
            policy: BurnRatePolicy::default(),
        }
    }

    #[test]
    fn fires_on_fast_and_slow_then_resolves_on_fast_recovery() {
        let mut w = WindowStore::new(WindowSpec::DEFAULT);
        let mut eng = AlertEngine::new();
        eng.register(rule("noisy"));

        // Healthy traffic: plenty of good, no bad → no alert.
        for m in 0..10u64 {
            w.counter_add(t(m * 60), "tenant.noisy.slo.good", 10);
        }
        assert!(eng.evaluate(t(600), &w).is_empty());

        // Total failure for 6 minutes: fast burn = 1/0.01 = 100 ≥ 14.4 and
        // the hour window accumulates enough bad to clear the 6× slow bar.
        for m in 10..16u64 {
            w.counter_add(t(m * 60), "tenant.noisy.slo.bad", 10);
        }
        let evs = eng.evaluate(t(16 * 60), &w);
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].kind, AlertKind::Fired);
        assert_eq!(evs[0].tenant, "noisy");
        assert!(evs[0].fast_burn >= 14.4, "fast={}", evs[0].fast_burn);
        assert!(evs[0].slow_burn >= 6.0, "slow={}", evs[0].slow_burn);
        assert!(eng.tenant_firing("noisy"));
        // Still firing on the next tick: no duplicate transition.
        assert!(eng.evaluate(t(17 * 60), &w).is_empty());

        // Recovery: good traffic resumes; once the fast window is clean the
        // alert resolves, even though the slow window still remembers.
        for m in 17..25u64 {
            w.counter_add(t(m * 60), "tenant.noisy.slo.good", 10);
        }
        let evs = eng.evaluate(t(24 * 60), &w);
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].kind, AlertKind::Resolved);
        assert!(!eng.tenant_firing("noisy"));
    }

    #[test]
    fn fast_spike_without_slow_burn_does_not_fire() {
        let mut w = WindowStore::new(WindowSpec::DEFAULT);
        let mut eng = AlertEngine::new();
        eng.register(rule("t1"));
        // A long healthy history…
        for m in 0..55u64 {
            w.counter_add(t(m * 60), "tenant.t1.slo.good", 100);
        }
        // …then one bad minute: fast window burns hot, slow window shrugs.
        w.counter_add(t(55 * 60), "tenant.t1.slo.bad", 100);
        let snap_time = t(56 * 60);
        assert!(eng.evaluate(snap_time, &w).is_empty());
        let snap = eng.snapshot(0, snap_time, &w);
        assert!(snap.fast_burn >= 14.4, "fast={}", snap.fast_burn);
        assert!(snap.slow_burn < 6.0, "slow={}", snap.slow_burn);
        assert!(!snap.firing);
    }

    #[test]
    fn idle_tenant_never_fires() {
        let w = WindowStore::new(WindowSpec::DEFAULT);
        let mut eng = AlertEngine::new();
        eng.register(rule("idle"));
        for m in 0..120u64 {
            assert!(eng.evaluate(t(m * 60), &w).is_empty());
        }
    }

    #[test]
    fn render_is_fixed_format() {
        let ev = AlertEvent {
            at: t(930),
            rule: "slo-burn".into(),
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
