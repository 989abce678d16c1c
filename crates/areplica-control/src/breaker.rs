//! Per-(tenant, destination) circuit breakers over windowed error ratios.
//!
//! The mechanism the data plane consults through
//! [`areplica_core::health::BreakerProbe`]: each destination region gets a
//! Closed → Open → HalfOpen state machine driven by the error ratio of a
//! sliding window ([`simtrace::window`]) of replication outcomes. The
//! policy knobs live in [`BreakerConfig`]; every transition is recorded as
//! a typed [`BreakerEvent`] in the fleet supervisor's ledger (pure memory),
//! so breaker history sits beside burn-rate alerts in the per-tenant
//! activity record.
//!
//! State machine:
//!
//! * **Closed → Open** when the windowed error ratio reaches
//!   [`BreakerConfig::error_threshold`] over at least
//!   [`BreakerConfig::min_events`] outcomes (`reason=error-ratio`).
//! * **Open → HalfOpen** when the data plane's recheck loop acquires the
//!   single probe ticket after the cooldown. Consecutive failed probes
//!   stretch the cooldown by the unified retry policy's backoff schedule
//!   ([`areplica_core::retry::RetryPolicy`]) — decorrelated jitter from a
//!   derived RNG stream, so breakers for different (tenant, region) pairs
//!   retest at uncorrelated times without sharing any latency RNG.
//! * **HalfOpen → Closed** on probe success (`reason=probe-ok`); the error
//!   window restarts (a fresh episode) so stale outage failures cannot
//!   immediately re-trip the breaker.
//! * **HalfOpen → Open** on probe failure (`reason=probe-failed`).
//!
//! Determinism: decisions depend only on sim time, recorded outcomes, and
//! the jittered backoff stream derived from the config seed — identical
//! runs see identical transitions.

use std::collections::BTreeMap;

use areplica_core::fleet::{BreakerEvent, BreakerState, FleetHandle};
use areplica_core::health::{BreakerProbe, RecheckAdvice, WriteRoute};
use areplica_core::retry::{BackoffSchedule, RetryPolicy};
use cloudapi::RegionId;
use simkernel::{SimDuration, SimTime};
use simtrace::window::{WindowSpec, WindowStore};

/// Breaker policy knobs (defaults sized for replication SLO scales).
#[derive(Debug, Clone)]
pub struct BreakerConfig {
    /// Trip when the windowed error ratio reaches this (0..=1).
    pub error_threshold: f64,
    /// Minimum outcomes in the window before the ratio is trusted.
    pub min_events: u64,
    /// Error-window lookback.
    pub lookback: SimDuration,
    /// Base cooldown before the first probe of an open episode.
    pub cooldown: SimDuration,
    /// Ring geometry of the outcome windows.
    pub window: WindowSpec,
    /// Backoff policy stretching the cooldown across consecutive failed
    /// probes (jitter seed drives the decorrelated retest times).
    pub probe_backoff: RetryPolicy,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            error_threshold: 0.5,
            min_events: 5,
            lookback: SimDuration::from_secs(300),
            cooldown: SimDuration::from_secs(60),
            window: WindowSpec::DEFAULT,
            probe_backoff: RetryPolicy::resilient(0xB_4EA_CE4),
        }
    }
}

/// One destination's breaker.
#[derive(Debug)]
struct Breaker {
    label: String,
    state: BreakerState,
    /// Earliest time a probe may half-open an Open breaker.
    retest_at: SimTime,
    /// Window-name episode: bumped on every close, so a fresh episode
    /// starts with empty error counters.
    episode: u64,
    /// Cooldown stretcher across consecutive failed probes (rebuilt on
    /// close).
    backoff: BackoffSchedule,
}

/// The per-tenant breaker set the data plane holds as its
/// [`HealthHandle`](areplica_core::health::HealthHandle).
#[derive(Debug)]
pub struct BreakerSet {
    tenant: String,
    cfg: BreakerConfig,
    windows: WindowStore,
    breakers: BTreeMap<RegionId, Breaker>,
    ledger: Option<FleetHandle>,
}

impl BreakerSet {
    /// A breaker set for one tenant.
    pub fn new(tenant: &str, cfg: BreakerConfig) -> Self {
        let window = cfg.window;
        BreakerSet {
            tenant: tenant.to_string(),
            cfg,
            windows: WindowStore::new(window),
            breakers: BTreeMap::new(),
            ledger: None,
        }
    }

    /// Records transitions into this fleet ledger.
    pub fn with_ledger(mut self, ledger: FleetHandle) -> Self {
        self.ledger = Some(ledger);
        self
    }

    /// Registers a destination with a human-readable label for the ledger
    /// (unregistered destinations are auto-labelled `region-<index>`).
    pub fn add_destination(&mut self, region: RegionId, label: &str) {
        let (tenant, cfg) = (self.tenant.clone(), &self.cfg);
        let b = Self::fresh_breaker(cfg, &tenant, region, Some(label));
        self.breakers.insert(region, b);
    }

    /// Current state of a destination's breaker.
    pub fn state(&self, region: RegionId) -> BreakerState {
        self.breakers
            .get(&region)
            .map_or(BreakerState::Closed, |b| b.state)
    }

    fn fresh_breaker(
        cfg: &BreakerConfig,
        tenant: &str,
        region: RegionId,
        label: Option<&str>,
    ) -> Breaker {
        let label = label
            .map(str::to_string)
            .unwrap_or_else(|| format!("region-{}", region.index()));
        // Per-(tenant, destination) jitter stream: different breakers
        // retest at uncorrelated times from the same seeded policy.
        let backoff = cfg
            .probe_backoff
            .schedule(&format!("breaker:{tenant}:{label}"));
        Breaker {
            label,
            state: BreakerState::Closed,
            retest_at: SimTime::ZERO,
            episode: 0,
            backoff,
        }
    }

    fn breaker(&mut self, region: RegionId) -> &mut Breaker {
        let (tenant, cfg) = (self.tenant.clone(), &self.cfg);
        self.breakers
            .entry(region)
            .or_insert_with(|| Self::fresh_breaker(cfg, &tenant, region, None))
    }

    fn counter(&self, region: RegionId, episode: u64, kind: &str) -> String {
        format!("breaker.{}.{}.{}", region.index(), episode, kind)
    }

    fn transition(
        &mut self,
        now: SimTime,
        region: RegionId,
        to: BreakerState,
        reason: &'static str,
    ) {
        let tenant = self.tenant.clone();
        let b = self.breaker(region);
        let from = b.state;
        if from == to {
            return;
        }
        b.state = to;
        let ev = BreakerEvent {
            tenant,
            region: b.label.clone(),
            at: now,
            from,
            to,
            reason,
        };
        if let Some(ledger) = &self.ledger {
            ledger.borrow_mut().record_breaker(ev);
        }
    }

    /// Arms the retest time for a (re-)opened breaker: base cooldown plus
    /// the next jittered backoff delay (capped at the policy max once the
    /// schedule is exhausted).
    fn arm_retest(&mut self, now: SimTime, region: RegionId) {
        let max = self.cfg.probe_backoff.max_backoff;
        let cooldown = self.cfg.cooldown;
        let b = self.breaker(region);
        let extra = b.backoff.next_delay().unwrap_or(max);
        b.retest_at = now + cooldown + extra;
    }
}

impl BreakerProbe for BreakerSet {
    fn write_route(&mut self, _now: SimTime, region: RegionId) -> WriteRoute {
        match self.breaker(region).state {
            BreakerState::Closed => WriteRoute::Primary,
            BreakerState::Open | BreakerState::HalfOpen => WriteRoute::Divert,
        }
    }

    fn record_outcome(&mut self, now: SimTime, region: RegionId, ok: bool) {
        let episode = self.breaker(region).episode;
        let kind = if ok { "good" } else { "bad" };
        let name = self.counter(region, episode, kind);
        self.windows.counter_add(now, &name, 1);
        if self.breaker(region).state != BreakerState::Closed {
            return;
        }
        let bad = self.counter(region, episode, "bad");
        let good = self.counter(region, episode, "good");
        let total = self.windows.counter_sum(&bad, now, self.cfg.lookback)
            + self.windows.counter_sum(&good, now, self.cfg.lookback);
        let ratio = self
            .windows
            .error_ratio(&bad, &good, now, self.cfg.lookback);
        if total >= self.cfg.min_events && ratio.is_some_and(|r| r >= self.cfg.error_threshold) {
            self.transition(now, region, BreakerState::Open, "error-ratio");
            self.arm_retest(now, region);
        }
    }

    fn recheck(&mut self, now: SimTime, region: RegionId) -> RecheckAdvice {
        let b = self.breaker(region);
        match b.state {
            BreakerState::Closed => RecheckAdvice::Healthy,
            BreakerState::HalfOpen => {
                // A probe is in flight; check back one cooldown later.
                RecheckAdvice::Wait(self.cfg.cooldown)
            }
            BreakerState::Open => {
                if now < b.retest_at {
                    RecheckAdvice::Wait(b.retest_at.saturating_since(now))
                } else {
                    RecheckAdvice::Probe
                }
            }
        }
    }

    fn probe_open(&mut self, now: SimTime, region: RegionId) -> bool {
        let b = self.breaker(region);
        match b.state {
            BreakerState::Open if now >= b.retest_at => {
                self.transition(now, region, BreakerState::HalfOpen, "probe-open");
                true
            }
            _ => false,
        }
    }

    fn probe_resolve(&mut self, now: SimTime, region: RegionId, ok: bool) {
        if self.breaker(region).state != BreakerState::HalfOpen {
            return;
        }
        if ok {
            self.transition(now, region, BreakerState::Closed, "probe-ok");
            // Fresh episode: the outage's failures must not re-trip the
            // breaker, and the backoff stretcher resets.
            let (tenant, policy) = (self.tenant.clone(), self.cfg.probe_backoff.clone());
            let b = self.breaker(region);
            b.episode += 1;
            b.backoff = policy.schedule(&format!("breaker:{tenant}:{}:{}", b.label, b.episode));
        } else {
            self.transition(now, region, BreakerState::Open, "probe-failed");
            self.arm_retest(now, region);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_nanos(secs * 1_000_000_000)
    }

    fn region() -> RegionId {
        cloudapi::RegionRegistry::paper_regions()
            .lookup(cloudapi::Cloud::Azure, "eastus")
            .unwrap()
    }

    fn set() -> BreakerSet {
        let mut s = BreakerSet::new("noisy", BreakerConfig::default());
        s.add_destination(region(), "azure/eastus");
        s
    }

    fn trip(s: &mut BreakerSet, at: SimTime) {
        for _ in 0..5 {
            s.record_outcome(at, region(), false);
        }
    }

    #[test]
    fn transition_table() {
        let r = region();
        let mut s = set();

        // Closed: healthy routing, successes keep it closed.
        assert_eq!(s.write_route(t(0), r), WriteRoute::Primary);
        for i in 0..20 {
            s.record_outcome(t(i), r, true);
        }
        assert_eq!(s.state(r), BreakerState::Closed);
        assert_eq!(s.recheck(t(20), r), RecheckAdvice::Healthy);

        // Closed -> Open on error ratio over min_events (the warm-up
        // successes have aged out of the 300s lookback by t=400).
        trip(&mut s, t(400));
        assert_eq!(s.state(r), BreakerState::Open);
        assert_eq!(s.write_route(t(400), r), WriteRoute::Divert);

        // Open: no probe before the retest time.
        assert!(matches!(s.recheck(t(401), r), RecheckAdvice::Wait(_)));
        assert!(!s.probe_open(t(401), r), "cooldown must gate the probe");

        // Open -> HalfOpen once the cooldown elapsed; ticket is exclusive.
        let probe_at = t(400) + SimDuration::from_secs(120);
        assert_eq!(s.recheck(probe_at, r), RecheckAdvice::Probe);
        assert!(s.probe_open(probe_at, r));
        assert_eq!(s.state(r), BreakerState::HalfOpen);
        assert!(!s.probe_open(probe_at, r), "single probe in flight");
        assert_eq!(s.write_route(probe_at, r), WriteRoute::Divert);

        // HalfOpen -> Open on probe failure.
        s.probe_resolve(probe_at, r, false);
        assert_eq!(s.state(r), BreakerState::Open);

        // Failed probes stretch the cooldown.
        assert!(matches!(s.recheck(probe_at, r), RecheckAdvice::Wait(_)));

        // HalfOpen -> Closed on probe success.
        let again = probe_at + SimDuration::from_secs(300);
        assert!(s.probe_open(again, r));
        s.probe_resolve(again, r, true);
        assert_eq!(s.state(r), BreakerState::Closed);
        assert_eq!(s.write_route(again, r), WriteRoute::Primary);
        assert_eq!(s.recheck(again, r), RecheckAdvice::Healthy);
    }

    #[test]
    fn close_starts_a_fresh_error_episode() {
        let r = region();
        let mut s = set();
        trip(&mut s, t(30));
        let again = t(30) + SimDuration::from_secs(120);
        assert!(s.probe_open(again, r));
        s.probe_resolve(again, r, true);
        assert_eq!(s.state(r), BreakerState::Closed);
        // One more failure right after close: the outage-era failures are
        // in the previous episode's counters, so this cannot re-trip.
        s.record_outcome(again, r, false);
        assert_eq!(s.state(r), BreakerState::Closed);
    }

    #[test]
    fn successes_dilute_the_error_ratio() {
        let r = region();
        let mut s = set();
        for i in 0..20 {
            s.record_outcome(t(i), r, true);
        }
        // 5 failures against 20 successes: ratio 0.2 < 0.5 threshold.
        trip(&mut s, t(30));
        assert_eq!(s.state(r), BreakerState::Closed);
    }

    #[test]
    fn min_events_gate_small_samples() {
        let r = region();
        let mut s = set();
        for _ in 0..4 {
            s.record_outcome(t(10), r, false);
        }
        // 4 failures, 100% ratio, but below min_events=5.
        assert_eq!(s.state(r), BreakerState::Closed);
    }

    #[test]
    fn transitions_land_in_the_fleet_ledger() {
        let fleet = crate::fleet::FleetSupervisor::new();
        let r = region();
        let mut s = BreakerSet::new("noisy", BreakerConfig::default()).with_ledger(fleet.ledger());
        s.add_destination(r, "azure/eastus");
        trip(&mut s, t(30));
        let again = t(30) + SimDuration::from_secs(120);
        assert!(s.probe_open(again, r));
        s.probe_resolve(again, r, true);
        fleet.with_ledger(|l| {
            let evs = l.breaker_events("noisy");
            let arc: Vec<(BreakerState, BreakerState)> =
                evs.iter().map(|e| (e.from, e.to)).collect();
            assert_eq!(
                arc,
                vec![
                    (BreakerState::Closed, BreakerState::Open),
                    (BreakerState::Open, BreakerState::HalfOpen),
                    (BreakerState::HalfOpen, BreakerState::Closed),
                ]
            );
            assert!(evs[0].render().contains("region=azure/eastus"));
            assert!(l
                .render_breaker_log()
                .starts_with("# breakers tenant=noisy"));
        });
    }

    #[test]
    fn retest_times_are_deterministic_and_decorrelated() {
        let r = region();
        let arm = |label: &str| -> SimTime {
            let mut s = BreakerSet::new("noisy", BreakerConfig::default());
            s.add_destination(r, label);
            trip(&mut s, t(30));
            s.breakers.get(&r).unwrap().retest_at
        };
        // Same (seed, tenant, label) => identical jittered retest time.
        assert_eq!(arm("azure/eastus"), arm("azure/eastus"));
        // Different destination label => decorrelated stream.
        assert_ne!(arm("azure/eastus"), arm("gcp/us-east1"));
    }

    #[test]
    fn unregistered_destination_gets_a_default_breaker() {
        let r = region();
        let mut s = BreakerSet::new("noisy", BreakerConfig::default());
        assert_eq!(s.write_route(t(0), r), WriteRoute::Primary);
        trip(&mut s, t(30));
        assert_eq!(s.state(r), BreakerState::Open);
    }
}
