//! Sliding-window aggregation over sim time: ring-buffer windows that turn
//! the registry's monotonically-growing counters/histograms into *live*
//! rates, ratios, and quantiles ("how many SLO misses in the last 5
//! minutes?") without retaining unbounded history.
//!
//! **Slot-aligned semantics.** Time is divided into fixed-width slots
//! (`WindowSpec::slot`); an event at time `t` lands in the slot with epoch
//! `t / slot`. A query over lookback `L` ending at `now` covers the
//! `ceil(L / slot)` slots ending at (and including) the slot containing
//! `now` — i.e. the lookback is rounded up to whole slots. Events recorded
//! at exactly `now` are always included; events older than the ring's
//! coverage (`slot × slots`) are gone. Slots are reused ring-style and
//! tagged with their epoch, so a gap longer than the coverage leaves stale
//! slots that queries (and the next write) ignore by epoch mismatch —
//! nothing is ever counted twice or resurrected.
//!
//! **Determinism rules** (same contract as the rest of `simtrace`): updates
//! are pure memory keyed to [`SimTime`] — no wall clock, no randomness, no
//! event scheduling — and every query iterates `BTreeMap`s or fixed-order
//! rings, so identically-seeded runs produce identical window contents and
//! identically-rendered output.

use std::collections::BTreeMap;

use simkernel::{SimDuration, SimTime};

/// Ring geometry: `slots` slots of `slot` width each; total coverage is
/// `slot × slots`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowSpec {
    /// Width of one slot.
    pub slot: SimDuration,
    /// Number of slots in the ring.
    pub slots: usize,
}

impl WindowSpec {
    /// Default geometry: 60 slots of 60 s — one hour of coverage at
    /// one-minute resolution, matching the classic 5 m/1 h fast/slow
    /// burn-rate windows exactly.
    pub const DEFAULT: WindowSpec = WindowSpec {
        slot: SimDuration::from_secs(60),
        slots: 60,
    };

    /// Total time span the ring can cover.
    pub fn coverage(&self) -> SimDuration {
        SimDuration::from_nanos(self.slot.as_nanos() * self.slots as u64)
    }

    /// Slot epoch containing `at` (monotone in `at`).
    fn epoch(&self, at: SimTime) -> u64 {
        at.as_nanos() / self.slot.as_nanos().max(1)
    }

    /// Number of slots a lookback of `l` covers (≥ 1, capped at the ring).
    fn span_slots(&self, l: SimDuration) -> u64 {
        let slot = self.slot.as_nanos().max(1);
        (l.as_nanos().div_ceil(slot)).clamp(1, self.slots as u64)
    }
}

impl Default for WindowSpec {
    fn default() -> Self {
        WindowSpec::DEFAULT
    }
}

#[derive(Debug, Clone, Default)]
struct CounterSlot {
    epoch: u64,
    value: u64,
}

/// A counter bucketed into ring slots: `add` is O(1), `sum` over a lookback
/// is O(slots).
#[derive(Debug, Clone)]
pub struct SlidingCounter {
    spec: WindowSpec,
    ring: Vec<CounterSlot>,
}

impl SlidingCounter {
    /// Empty counter with the given geometry.
    pub fn new(spec: WindowSpec) -> Self {
        SlidingCounter {
            spec,
            ring: vec![CounterSlot::default(); spec.slots.max(1)],
        }
    }

    /// Adds `delta` at sim time `at`.
    pub fn add(&mut self, at: SimTime, delta: u64) {
        let epoch = self.spec.epoch(at);
        let idx = (epoch % self.ring.len() as u64) as usize;
        let slot = &mut self.ring[idx];
        if slot.epoch != epoch {
            // The ring wrapped past this slot (or it was never written):
            // whatever it held belongs to an older epoch.
            slot.epoch = epoch;
            slot.value = 0;
        }
        slot.value += delta;
    }

    /// Sum over the `ceil(lookback / slot)` slots ending at the slot
    /// containing `now`. Slots whose stored epoch falls outside that range
    /// (stale ring entries, future writes) contribute nothing.
    pub fn sum(&self, now: SimTime, lookback: SimDuration) -> u64 {
        let end = self.spec.epoch(now);
        let span = self.spec.span_slots(lookback);
        let start = end.saturating_sub(span - 1);
        self.ring
            .iter()
            .filter(|s| s.epoch >= start && s.epoch <= end)
            .map(|s| s.value)
            .sum()
    }
}

#[derive(Debug, Clone, Default)]
struct HistogramSlot {
    epoch: u64,
    samples: Vec<f64>,
}

/// A histogram bucketed into ring slots; quantile queries gather the raw
/// samples from the covered slots (bounded by ring coverage, so memory stays
/// proportional to recent activity).
#[derive(Debug, Clone)]
pub struct SlidingHistogram {
    spec: WindowSpec,
    ring: Vec<HistogramSlot>,
}

impl SlidingHistogram {
    /// Empty histogram with the given geometry.
    pub fn new(spec: WindowSpec) -> Self {
        SlidingHistogram {
            spec,
            ring: vec![HistogramSlot::default(); spec.slots.max(1)],
        }
    }

    /// Records one sample at sim time `at`.
    pub fn record(&mut self, at: SimTime, value: f64) {
        let epoch = self.spec.epoch(at);
        let idx = (epoch % self.ring.len() as u64) as usize;
        let slot = &mut self.ring[idx];
        if slot.epoch != epoch {
            slot.epoch = epoch;
            slot.samples.clear();
        }
        slot.samples.push(value);
    }

    /// All samples in the window, in (epoch, recording) order.
    pub fn samples(&self, now: SimTime, lookback: SimDuration) -> Vec<f64> {
        let end = self.spec.epoch(now);
        let span = self.spec.span_slots(lookback);
        let start = end.saturating_sub(span - 1);
        let mut covered: Vec<&HistogramSlot> = self
            .ring
            .iter()
            .filter(|s| s.epoch >= start && s.epoch <= end && !s.samples.is_empty())
            .collect();
        covered.sort_by_key(|s| s.epoch);
        covered
            .iter()
            .flat_map(|s| s.samples.iter().copied())
            .collect()
    }

    /// Number of samples in the window.
    pub fn count(&self, now: SimTime, lookback: SimDuration) -> usize {
        let end = self.spec.epoch(now);
        let span = self.spec.span_slots(lookback);
        let start = end.saturating_sub(span - 1);
        self.ring
            .iter()
            .filter(|s| s.epoch >= start && s.epoch <= end)
            .map(|s| s.samples.len())
            .sum()
    }

    /// The `q`-th percentile (0–100, nearest-rank) over the window, or
    /// `None` when the window holds no samples. Sorting uses `total_cmp`,
    /// so the result is deterministic even with NaN-free-but-odd floats.
    pub fn percentile(&self, now: SimTime, lookback: SimDuration, q: f64) -> Option<f64> {
        let mut v = self.samples(now, lookback);
        if v.is_empty() {
            return None;
        }
        v.sort_by(f64::total_cmp);
        let rank = ((q / 100.0) * (v.len() - 1) as f64).round() as usize;
        Some(v[rank.min(v.len() - 1)])
    }
}

/// Named sliding counters/histograms sharing one geometry — the windowed
/// twin of [`crate::Registry`]. Keyed by the same dotted (and
/// tenant-[`crate::scoped`]) metric names; stored in `BTreeMap`s for
/// deterministic iteration.
#[derive(Debug, Clone)]
pub struct WindowStore {
    spec: WindowSpec,
    counters: BTreeMap<String, SlidingCounter>,
    histograms: BTreeMap<String, SlidingHistogram>,
}

impl Default for WindowStore {
    fn default() -> Self {
        WindowStore::new(WindowSpec::DEFAULT)
    }
}

impl WindowStore {
    /// Empty store; every metric created through it shares `spec`.
    pub fn new(spec: WindowSpec) -> Self {
        WindowStore {
            spec,
            counters: BTreeMap::new(),
            histograms: BTreeMap::new(),
        }
    }

    /// The shared ring geometry.
    pub fn spec(&self) -> WindowSpec {
        self.spec
    }

    /// Adds `delta` to the named windowed counter at `at`.
    pub fn counter_add(&mut self, at: SimTime, name: &str, delta: u64) {
        let spec = self.spec;
        self.counters
            .entry(name.to_string())
            .or_insert_with(|| SlidingCounter::new(spec))
            .add(at, delta);
    }

    /// Records one sample into the named windowed histogram at `at`.
    pub fn histogram_record(&mut self, at: SimTime, name: &str, value: f64) {
        let spec = self.spec;
        self.histograms
            .entry(name.to_string())
            .or_insert_with(|| SlidingHistogram::new(spec))
            .record(at, value);
    }

    /// Windowed sum of a counter (0 for unknown names).
    pub fn counter_sum(&self, name: &str, now: SimTime, lookback: SimDuration) -> u64 {
        self.counters.get(name).map_or(0, |c| c.sum(now, lookback))
    }

    /// Windowed rate of a counter in events per second.
    pub fn counter_rate(&self, name: &str, now: SimTime, lookback: SimDuration) -> f64 {
        let secs = lookback.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.counter_sum(name, now, lookback) as f64 / secs
    }

    /// Windowed error ratio `bad / (bad + good)` from a pair of counters,
    /// or `None` when the window saw no events of either kind (no data is
    /// not the same as a zero error rate).
    pub fn error_ratio(
        &self,
        bad: &str,
        good: &str,
        now: SimTime,
        lookback: SimDuration,
    ) -> Option<f64> {
        let b = self.counter_sum(bad, now, lookback);
        let g = self.counter_sum(good, now, lookback);
        let total = b + g;
        if total == 0 {
            None
        } else {
            Some(b as f64 / total as f64)
        }
    }

    /// Windowed percentile of a histogram (`None` for unknown names or an
    /// empty window).
    pub fn percentile(
        &self,
        name: &str,
        now: SimTime,
        lookback: SimDuration,
        q: f64,
    ) -> Option<f64> {
        self.histograms
            .get(name)
            .and_then(|h| h.percentile(now, lookback, q))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_nanos(secs * 1_000_000_000)
    }

    fn spec_10x6() -> WindowSpec {
        // 6 slots of 10 s: 60 s coverage, small enough to wrap in tests.
        WindowSpec {
            slot: SimDuration::from_secs(10),
            slots: 6,
        }
    }

    #[test]
    fn empty_window_is_zero_and_none() {
        let c = SlidingCounter::new(spec_10x6());
        assert_eq!(c.sum(t(100), SimDuration::from_secs(30)), 0);
        let h = SlidingHistogram::new(spec_10x6());
        assert_eq!(h.count(t(100), SimDuration::from_secs(30)), 0);
        assert_eq!(h.percentile(t(100), SimDuration::from_secs(30), 50.0), None);
        let w = WindowStore::new(spec_10x6());
        assert_eq!(
            w.error_ratio("bad", "good", t(5), SimDuration::from_secs(30)),
            None
        );
        assert_eq!(w.counter_rate("x", t(5), SimDuration::from_secs(30)), 0.0);
    }

    #[test]
    fn exact_boundary_events_follow_slot_alignment() {
        let mut c = SlidingCounter::new(spec_10x6());
        // A 20 s lookback ending at t=35 covers the slots for [20,30) and
        // [30,40): an event at exactly t=20 (slot boundary) is in, one at
        // t=19.999… (previous slot) is out, one at exactly `now` is in.
        c.add(t(20), 1);
        c.add(SimTime::from_nanos(19_999_999_999), 10);
        c.add(t(35), 100);
        assert_eq!(c.sum(t(35), SimDuration::from_secs(20)), 101);
        // Widening the lookback by one slot picks up the t≈19.999 event.
        assert_eq!(c.sum(t(35), SimDuration::from_secs(30)), 111);
        // A lookback that is not a slot multiple rounds *up* to whole slots.
        assert_eq!(c.sum(t(35), SimDuration::from_secs(11)), 101);
    }

    #[test]
    fn gap_spanning_several_windows_drops_stale_slots() {
        let spec = spec_10x6();
        let mut c = SlidingCounter::new(spec);
        c.add(t(5), 7);
        c.add(t(15), 3);
        // Within coverage the events are visible…
        assert_eq!(c.sum(t(20), spec.coverage()), 10);
        // …after a gap several times the 60 s coverage, the ring still
        // *contains* those slots, but their epochs are stale: full-coverage
        // queries at the new time must see nothing.
        assert_eq!(c.sum(t(500), spec.coverage()), 0);
        // Writing after the gap reuses the stale slots without resurrecting
        // their old values.
        c.add(t(505), 1);
        assert_eq!(c.sum(t(505), spec.coverage()), 1);
        assert_eq!(c.sum(t(505), SimDuration::from_secs(10)), 1);
    }

    #[test]
    fn counter_wraps_ring_without_double_count() {
        let mut c = SlidingCounter::new(spec_10x6());
        for s in 0..12 {
            c.add(t(s * 10 + 1), 1); // one event per slot, 12 slots
        }
        // Coverage is 6 slots: only the last 6 events remain.
        assert_eq!(c.sum(t(111), SimDuration::from_secs(60)), 6);
        assert_eq!(c.sum(t(111), SimDuration::from_secs(20)), 2);
    }

    #[test]
    fn histogram_percentiles_over_window() {
        let mut h = SlidingHistogram::new(spec_10x6());
        for (i, v) in [5.0, 1.0, 9.0, 3.0, 7.0].iter().enumerate() {
            h.record(t(i as u64 * 10 + 2), *v);
        }
        assert_eq!(h.count(t(45), SimDuration::from_secs(50)), 5);
        assert_eq!(
            h.percentile(t(45), SimDuration::from_secs(50), 50.0),
            Some(5.0)
        );
        assert_eq!(
            h.percentile(t(45), SimDuration::from_secs(50), 99.0),
            Some(9.0)
        );
        assert_eq!(
            h.percentile(t(45), SimDuration::from_secs(50), 0.0),
            Some(1.0)
        );
        // A narrower window sees only the tail samples [3, 7]; nearest-rank
        // on an even count rounds up.
        assert_eq!(
            h.percentile(t(45), SimDuration::from_secs(20), 50.0),
            Some(7.0)
        );
        assert_eq!(h.count(t(45), SimDuration::from_secs(20)), 2);
    }

    #[test]
    fn store_rates_ratios_and_determinism() {
        let mut w = WindowStore::new(spec_10x6());
        for s in 0..6u64 {
            w.counter_add(t(s * 10), "slo.good", 9);
            w.counter_add(t(s * 10), "slo.bad", 1);
        }
        let now = t(59);
        let win = SimDuration::from_secs(60);
        assert_eq!(w.counter_sum("slo.good", now, win), 54);
        assert_eq!(w.error_ratio("slo.bad", "slo.good", now, win), Some(0.1));
        assert!((w.counter_rate("slo.bad", now, win) - 0.1).abs() < 1e-12);
        // Clones are value-identical: window state is pure data.
        let w2 = w.clone();
        assert_eq!(
            w2.counter_sum("slo.bad", now, win),
            w.counter_sum("slo.bad", now, win)
        );
    }
}
