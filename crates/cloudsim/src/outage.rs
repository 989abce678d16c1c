//! Deterministic regional object-store outage windows.
//!
//! Point faults (a single PUT erroring, one invocation dropped) are the
//! province of an installed [`FaultDecider`](crate::fault::FaultDecider);
//! this module models the failure shape real multi-vendor clouds actually
//! exhibit: one region's object store going dark for a *window* of time and
//! then coming back. An
//! [`OutageSchedule`] is a plain list of timed [`OutageWindow`]s the world
//! consults at each object-store request; while a window covering the
//! request's region is open, the request is shaped by the window's
//! [`FailureMode`]:
//!
//! * **hard error** — the request fails immediately (after its normal RTT)
//!   with [`StoreError::Unavailable`](cloudapi::objstore::StoreError);
//! * **timeout** — the request is black-holed until the window closes, as a
//!   hung connection: no error ever surfaces, the caller's own deadline
//!   machinery must notice.
//!
//! Determinism: a schedule is pure data consulted with pure functions — the
//! default (empty) schedule draws no RNG and schedules no events, so runs
//! without outages stay byte-identical to runs built before this module
//! existed.

use cloudapi::RegionId;
use simkernel::{SimDuration, SimTime};

/// How a region's object store misbehaves while its window is open.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FailureMode {
    /// Requests fail fast with an explicit unavailability error.
    HardError,
    /// Requests hang until the window closes (black-holed connection).
    Timeout,
}

/// One timed failure window over one region's object store. Half-open
/// interval: active for `from <= now < until`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutageWindow {
    /// The region whose object store is down.
    pub region: RegionId,
    /// When the window opens (inclusive).
    pub from: SimTime,
    /// When the window closes (exclusive).
    pub until: SimTime,
    /// How the store fails while the window is open.
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
        }
    }
}

/// What an object-store request issued right now should do.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Gate {
    /// No window open: proceed normally.
    Clear,
    /// Timeout window: delay the request by this much (to the window's
    /// close) before retrying the gate.
    Stall(SimDuration),
    /// Hard-error window: fail the request.
    Fail,
}

/// A deterministic list of outage windows consulted by the world's timed
/// object-store wrappers. The default schedule is empty and costs one `Vec`
/// emptiness check per request.
#[derive(Debug, Clone, Default)]
pub struct OutageSchedule {
    windows: Vec<OutageWindow>,
}

impl OutageSchedule {
    /// An empty schedule (no outages ever).
    pub fn new() -> Self {
        OutageSchedule::default()
    }

    /// Adds a window over `region`'s object store. Overlapping windows are
    /// legal; the earliest-added active window wins at query time.
    pub fn region_window(
        &mut self,
        region: RegionId,
        from: SimTime,
        until: SimTime,
        mode: FailureMode,
    ) {
        self.windows.push(OutageWindow {
            region,
            from,
            until,
            mode,
        });
    }

    /// Whether any window exists at all (fast path for the default world).
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Gate for a request to `region`'s object store issued at `now`.
    pub fn gate(&self, now: SimTime, region: RegionId) -> Gate {
        self.windows
            .iter()
            .find(|w| w.active(now) && w.region == region)
            .map_or(Gate::Clear, |w| w.gate(now))
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
        assert_eq!(s.gate(t(10), r(0)), Gate::Clear);
    }

    #[test]
    fn window_bounds_are_half_open() {
        let mut s = OutageSchedule::new();
        s.region_window(r(0), t(10), t(20), FailureMode::HardError);
        assert_eq!(s.gate(t(9), r(0)), Gate::Clear);
        assert_eq!(s.gate(t(10), r(0)), Gate::Fail);
        assert_eq!(s.gate(t(19), r(0)), Gate::Fail);
        assert_eq!(s.gate(t(20), r(0)), Gate::Clear);
    }

    #[test]
    fn gate_matches_region_exactly() {
        let mut s = OutageSchedule::new();
        s.region_window(r(0), t(0), t(100), FailureMode::HardError);
        assert_eq!(s.gate(t(5), r(1)), Gate::Clear);
        assert_eq!(s.gate(t(5), r(0)), Gate::Fail);
    }

    #[test]
    fn timeout_stalls_to_window_close() {
        let mut s = OutageSchedule::new();
        s.region_window(r(1), t(30), t(90), FailureMode::Timeout);
        match s.gate(t(40), r(1)) {
            Gate::Stall(d) => assert_eq!(d, SimDuration::from_secs(50)),
            g => panic!("expected stall, got {g:?}"),
        }
    }

    #[test]
    fn first_active_window_wins_on_overlap() {
        let mut s = OutageSchedule::new();
        s.region_window(r(0), t(0), t(50), FailureMode::Timeout);
        s.region_window(r(0), t(10), t(60), FailureMode::HardError);
        assert_eq!(s.gate(t(20), r(0)), Gate::Stall(SimDuration::from_secs(30)));
        // After the first closes the second still covers.
        assert_eq!(s.gate(t(55), r(0)), Gate::Fail);
    }
}
