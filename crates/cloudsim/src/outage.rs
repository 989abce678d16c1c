//! Deterministic fault-domain outage windows.
//!
//! Point faults (a single PUT erroring, one invocation dropped) are the
//! province of `areplica-core`'s `Faulty` wrapper; this module models the
//! failure shape real multi-vendor clouds actually exhibit: a whole fault
//! domain — one cloud service in one region, or one WAN link — going dark
//! for a *window* of time and then coming back. An [`OutageSchedule`] is a
//! plain list of timed [`OutageWindow`]s the world consults at each
//! operation; while a window covering the operation's domain is open, the
//! operation is shaped by the window's [`FailureMode`]:
//!
//! * **hard error** — the request fails immediately (after its normal RTT)
//!   with [`StoreError::Unavailable`](cloudapi::objstore::StoreError);
//! * **timeout** — the request is black-holed until the window closes, as a
//!   hung connection: no error ever surfaces, the caller's own deadline
//!   machinery must notice;
//! * **brownout** — the request completes but its latency is multiplied, a
//!   degraded-but-alive service.
//!
//! Determinism: a schedule is pure data consulted with pure functions — the
//! default (empty) schedule draws no RNG and schedules no events, so runs
//! without outages stay byte-identical to runs built before this module
//! existed.

use cloudapi::RegionId;
use simkernel::{SimDuration, SimTime};

/// Which cloud service a regional outage window covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Service {
    /// Object storage (data-plane GET/PUT/multipart and metadata RTTs).
    ObjStore,
    /// The serverless KV database.
    CloudDb,
    /// The cloud-function runtime (invocation dispatch).
    Faas,
}

/// How a domain misbehaves while its window is open.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FailureMode {
    /// Requests fail fast with an explicit unavailability error.
    HardError,
    /// Requests hang until the window closes (black-holed connection).
    Timeout,
    /// Requests complete with latency multiplied by the factor (> 1.0).
    Brownout(f64),
}

/// A whole fault domain an outage window can cover.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Domain {
    /// One cloud service in one region.
    Region {
        /// The region that is down.
        region: RegionId,
        /// The service within it.
        service: Service,
    },
    /// The WAN link between two regions (symmetric: covers both
    /// directions).
    Link {
        /// One endpoint.
        a: RegionId,
        /// The other endpoint.
        b: RegionId,
    },
}

impl Domain {
    fn covers_region(&self, region: RegionId, service: Service) -> bool {
        matches!(self, Domain::Region { region: r, service: s }
            if *r == region && *s == service)
    }

    fn covers_link(&self, x: RegionId, y: RegionId) -> bool {
        matches!(self, Domain::Link { a, b }
            if (*a == x && *b == y) || (*a == y && *b == x))
    }
}

/// One timed failure window over one fault domain. Half-open interval:
/// active for `from <= now < until`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutageWindow {
    /// The fault domain that is down.
    pub domain: Domain,
    /// When the window opens (inclusive).
    pub from: SimTime,
    /// When the window closes (exclusive).
    pub until: SimTime,
    /// How the domain fails while the window is open.
    pub mode: FailureMode,
}

impl OutageWindow {
    fn active(&self, now: SimTime) -> bool {
        self.from <= now && now < self.until
    }

    fn gate(&self, now: SimTime) -> Gate {
        match self.mode {
            FailureMode::HardError => Gate::Fail,
            FailureMode::Timeout => Gate::Stall(self.until - now),
            FailureMode::Brownout(k) => Gate::Slow(k),
        }
    }
}

/// What an operation hitting a domain right now should do.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Gate {
    /// No window open: proceed normally.
    Clear,
    /// Brownout: multiply the operation's latency by the factor.
    Slow(f64),
    /// Timeout window: delay the operation by this much (to the window's
    /// close) before retrying the gate.
    Stall(SimDuration),
    /// Hard-error window: fail the operation.
    Fail,
}

/// A deterministic list of outage windows consulted by the world's timed
/// operation wrappers. The default schedule is empty and costs one `Vec`
/// emptiness check per operation.
#[derive(Debug, Clone, Default)]
pub struct OutageSchedule {
    windows: Vec<OutageWindow>,
}

impl OutageSchedule {
    /// An empty schedule (no outages ever).
    pub fn new() -> Self {
        OutageSchedule::default()
    }

    /// Adds a window. Overlapping windows are legal; the earliest-added
    /// active window wins at query time.
    pub fn add(&mut self, window: OutageWindow) {
        self.windows.push(window);
    }

    /// Convenience: one regional window.
    pub fn region_window(
        &mut self,
        region: RegionId,
        service: Service,
        from: SimTime,
        until: SimTime,
        mode: FailureMode,
    ) {
        self.add(OutageWindow {
            domain: Domain::Region { region, service },
            from,
            until,
            mode,
        });
    }

    /// Convenience: one symmetric link-partition window.
    pub fn link_window(
        &mut self,
        a: RegionId,
        b: RegionId,
        from: SimTime,
        until: SimTime,
        mode: FailureMode,
    ) {
        self.add(OutageWindow {
            domain: Domain::Link { a, b },
            from,
            until,
            mode,
        });
    }

    /// Whether any window exists at all (fast path for the default world).
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// The windows, in insertion order.
    pub fn windows(&self) -> &[OutageWindow] {
        &self.windows
    }

    /// Gate for a `(region, service)` operation issued at `now`.
    pub fn gate(&self, now: SimTime, region: RegionId, service: Service) -> Gate {
        if self.windows.is_empty() {
            return Gate::Clear;
        }
        self.windows
            .iter()
            .find(|w| w.active(now) && w.domain.covers_region(region, service))
            .map_or(Gate::Clear, |w| w.gate(now))
    }

    /// Gate for traffic between `a` and `b` at `now` (symmetric).
    pub fn link_gate(&self, now: SimTime, a: RegionId, b: RegionId) -> Gate {
        if self.windows.is_empty() {
            return Gate::Clear;
        }
        self.windows
            .iter()
            .find(|w| w.active(now) && w.domain.covers_link(a, b))
            .map_or(Gate::Clear, |w| w.gate(now))
    }

    /// Shaping-only gate for a `(region, service)` operation: never returns
    /// [`Gate::Fail`]. Contexts with no error channel (DB latencies, network
    /// legs, FaaS dispatch) use this — a hard-errored domain behaves there
    /// like a black-holed one and stalls to window close, which is what a
    /// dead WAN path or DB endpoint looks like from a client that only has
    /// its own deadline (connections hang; nothing sends an RST).
    pub fn shaping(&self, now: SimTime, region: RegionId, service: Service) -> Gate {
        match self.gate(now, region, service) {
            Gate::Fail => Gate::Stall(self.region_close(now, region, service) - now),
            g => g,
        }
    }

    /// Shaping-only gate for link traffic (see [`OutageSchedule::shaping`]).
    pub fn link_shaping(&self, now: SimTime, a: RegionId, b: RegionId) -> Gate {
        match self.link_gate(now, a, b) {
            Gate::Fail => {
                let until = self
                    .windows
                    .iter()
                    .find(|w| w.active(now) && w.domain.covers_link(a, b))
                    .map(|w| w.until)
                    .unwrap_or(now);
                Gate::Stall(until - now)
            }
            g => g,
        }
    }

    fn region_close(&self, now: SimTime, region: RegionId, service: Service) -> SimTime {
        self.windows
            .iter()
            .find(|w| w.active(now) && w.domain.covers_region(region, service))
            .map(|w| w.until)
            .unwrap_or(now)
    }

    /// Applies a shaping gate to a sampled duration: `Slow` multiplies,
    /// `Stall` prepends, `Clear`/`Fail` leave it alone (callers must branch
    /// on `Fail` before shaping).
    pub fn shape(gate: Gate, dur: SimDuration) -> SimDuration {
        match gate {
            Gate::Clear | Gate::Fail => dur,
            Gate::Slow(k) => SimDuration::from_secs_f64(dur.as_secs_f64() * k),
            Gate::Stall(d) => d + dur,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_nanos(secs * 1_000_000_000)
    }

    fn r(n: u16) -> RegionId {
        use cloudapi::{Cloud, RegionRegistry};
        let regions = RegionRegistry::paper_regions();
        let all = [
            regions.lookup(Cloud::Aws, "us-east-1").unwrap(),
            regions.lookup(Cloud::Azure, "eastus").unwrap(),
            regions.lookup(Cloud::Gcp, "us-east1").unwrap(),
        ];
        all[n as usize]
    }

    #[test]
    fn empty_schedule_is_always_clear() {
        let s = OutageSchedule::new();
        assert!(s.is_empty());
        assert_eq!(s.gate(t(10), r(0), Service::ObjStore), Gate::Clear);
        assert_eq!(s.link_gate(t(10), r(0), r(1)), Gate::Clear);
    }

    #[test]
    fn window_bounds_are_half_open() {
        let mut s = OutageSchedule::new();
        s.region_window(
            r(0),
            Service::ObjStore,
            t(10),
            t(20),
            FailureMode::HardError,
        );
        assert_eq!(s.gate(t(9), r(0), Service::ObjStore), Gate::Clear);
        assert_eq!(s.gate(t(10), r(0), Service::ObjStore), Gate::Fail);
        assert_eq!(s.gate(t(19), r(0), Service::ObjStore), Gate::Fail);
        assert_eq!(s.gate(t(20), r(0), Service::ObjStore), Gate::Clear);
    }

    #[test]
    fn gate_matches_domain_exactly() {
        let mut s = OutageSchedule::new();
        s.region_window(
            r(0),
            Service::ObjStore,
            t(0),
            t(100),
            FailureMode::HardError,
        );
        // Same region, other service: clear. Other region: clear.
        assert_eq!(s.gate(t(5), r(0), Service::CloudDb), Gate::Clear);
        assert_eq!(s.gate(t(5), r(1), Service::ObjStore), Gate::Clear);
        assert_eq!(s.gate(t(5), r(0), Service::ObjStore), Gate::Fail);
    }

    #[test]
    fn timeout_stalls_to_window_close() {
        let mut s = OutageSchedule::new();
        s.region_window(r(1), Service::Faas, t(30), t(90), FailureMode::Timeout);
        match s.gate(t(40), r(1), Service::Faas) {
            Gate::Stall(d) => assert_eq!(d, SimDuration::from_secs(50)),
            g => panic!("expected stall, got {g:?}"),
        }
    }

    #[test]
    fn brownout_reports_multiplier() {
        let mut s = OutageSchedule::new();
        s.region_window(
            r(2),
            Service::CloudDb,
            t(0),
            t(10),
            FailureMode::Brownout(7.5),
        );
        assert_eq!(s.gate(t(1), r(2), Service::CloudDb), Gate::Slow(7.5));
    }

    #[test]
    fn link_windows_are_symmetric() {
        let mut s = OutageSchedule::new();
        s.link_window(r(0), r(1), t(0), t(10), FailureMode::Brownout(3.0));
        assert_eq!(s.link_gate(t(1), r(0), r(1)), Gate::Slow(3.0));
        assert_eq!(s.link_gate(t(1), r(1), r(0)), Gate::Slow(3.0));
        assert_eq!(s.link_gate(t(1), r(0), r(2)), Gate::Clear);
    }

    #[test]
    fn first_active_window_wins_on_overlap() {
        let mut s = OutageSchedule::new();
        s.region_window(
            r(0),
            Service::ObjStore,
            t(0),
            t(50),
            FailureMode::Brownout(2.0),
        );
        s.region_window(
            r(0),
            Service::ObjStore,
            t(10),
            t(60),
            FailureMode::HardError,
        );
        assert_eq!(s.gate(t(20), r(0), Service::ObjStore), Gate::Slow(2.0));
        // After the first closes the second still covers.
        assert_eq!(s.gate(t(55), r(0), Service::ObjStore), Gate::Fail);
    }

    #[test]
    fn shaping_maps_hard_error_to_stall() {
        let mut s = OutageSchedule::new();
        s.region_window(r(0), Service::CloudDb, t(10), t(40), FailureMode::HardError);
        s.link_window(r(0), r(1), t(10), t(40), FailureMode::HardError);
        match s.shaping(t(20), r(0), Service::CloudDb) {
            Gate::Stall(d) => assert_eq!(d, SimDuration::from_secs(20)),
            g => panic!("expected stall, got {g:?}"),
        }
        match s.link_shaping(t(30), r(1), r(0)) {
            Gate::Stall(d) => assert_eq!(d, SimDuration::from_secs(10)),
            g => panic!("expected stall, got {g:?}"),
        }
        assert_eq!(
            OutageSchedule::shape(Gate::Slow(2.0), SimDuration::from_secs(3)),
            SimDuration::from_secs(6)
        );
        assert_eq!(
            OutageSchedule::shape(
                Gate::Stall(SimDuration::from_secs(5)),
                SimDuration::from_secs(3)
            ),
            SimDuration::from_secs(8)
        );
    }
}
