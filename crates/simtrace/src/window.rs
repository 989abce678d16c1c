//! Sliding-window aggregation over sim time: ring-buffer counters that turn
//! the registry's monotonically-growing counters into *live* sums and
//! ratios ("how many SLO misses in the last 5 minutes?") without retaining
//! unbounded history.
//!
//! **Slot-aligned semantics.** Time is divided into fixed-width slots
//! ([`SLOT`]); an event at time `t` lands in the slot with epoch
//! `t / SLOT`. A query over lookback `L` ending at `now` covers the
//! `ceil(L / SLOT)` slots ending at (and including) the slot containing
//! `now` — i.e. the lookback is rounded up to whole slots. Events recorded
//! at exactly `now` are always included; events older than the ring's
//! coverage (`SLOT × SLOTS`) are gone. Slots are reused ring-style and
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

/// Width of one ring slot: one-minute resolution.
pub const SLOT: SimDuration = SimDuration::from_secs(60);
/// Slots in each ring: with [`SLOT`], one hour of coverage, matching the
/// classic 5 m/1 h fast/slow burn-rate windows exactly.
pub const SLOTS: usize = 60;

/// Slot epoch containing `at` (monotone in `at`).
fn epoch(at: SimTime) -> u64 {
    at.as_nanos() / SLOT.as_nanos()
}

/// Number of slots a lookback of `l` covers (≥ 1, capped at the ring).
fn span_slots(l: SimDuration) -> u64 {
    l.as_nanos()
        .div_ceil(SLOT.as_nanos())
        .clamp(1, SLOTS as u64)
}

#[derive(Debug, Clone, Copy, Default)]
struct CounterSlot {
    epoch: u64,
    value: u64,
}

/// A counter bucketed into ring slots: `add` is O(1), `sum` over a lookback
/// is O(slots).
#[derive(Debug, Clone)]
struct SlidingCounter {
    ring: [CounterSlot; SLOTS],
}

impl SlidingCounter {
    fn new() -> Self {
        SlidingCounter {
            ring: [CounterSlot::default(); SLOTS],
        }
    }

    /// Adds `delta` at sim time `at`.
    fn add(&mut self, at: SimTime, delta: u64) {
        let epoch = epoch(at);
        let slot = &mut self.ring[(epoch % SLOTS as u64) as usize];
        if slot.epoch != epoch {
            // The ring wrapped past this slot (or it was never written):
            // whatever it held belongs to an older epoch.
            slot.epoch = epoch;
            slot.value = 0;
        }
        slot.value += delta;
    }

    /// Sum over the `ceil(lookback / SLOT)` slots ending at the slot
    /// containing `now`. Slots whose stored epoch falls outside that range
    /// (stale ring entries, future writes) contribute nothing.
    fn sum(&self, now: SimTime, lookback: SimDuration) -> u64 {
        let end = epoch(now);
        let start = end.saturating_sub(span_slots(lookback) - 1);
        self.ring
            .iter()
            .filter(|s| s.epoch >= start && s.epoch <= end)
            .map(|s| s.value)
            .sum()
    }
}

/// Named sliding counters — the windowed twin of [`crate::Registry`]'s
/// counters. Keyed by the same dotted (and tenant-[`crate::scoped`]) metric
/// names; stored in a `BTreeMap` for deterministic iteration.
#[derive(Debug, Clone, Default)]
pub struct WindowStore {
    counters: BTreeMap<String, SlidingCounter>,
}

impl WindowStore {
    /// Adds `delta` to the named windowed counter at `at`.
    pub fn counter_add(&mut self, at: SimTime, name: &str, delta: u64) {
        self.counters
            .entry(name.to_string())
            .or_insert_with(SlidingCounter::new)
            .add(at, delta);
    }

    /// Windowed sum of a counter (0 for unknown names).
    pub fn counter_sum(&self, name: &str, now: SimTime, lookback: SimDuration) -> u64 {
        self.counters.get(name).map_or(0, |c| c.sum(now, lookback))
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_nanos(secs * 1_000_000_000)
    }

    const COVERAGE: SimDuration = SimDuration::from_mins(60);

    #[test]
    fn empty_window_is_zero_and_none() {
        let c = SlidingCounter::new();
        assert_eq!(c.sum(t(6000), SimDuration::from_secs(180)), 0);
        let w = WindowStore::default();
        assert_eq!(w.counter_sum("x", t(5), COVERAGE), 0);
        assert_eq!(
            w.error_ratio("bad", "good", t(5), SimDuration::from_secs(180)),
            None
        );
    }

    #[test]
    fn exact_boundary_events_follow_slot_alignment() {
        let mut c = SlidingCounter::new();
        // A 120 s lookback ending at t=210 covers the slots for [120,180)
        // and [180,240): an event at exactly t=120 (slot boundary) is in,
        // one at t=119.999… (previous slot) is out, one at exactly `now` is
        // in.
        c.add(t(120), 1);
        c.add(SimTime::from_nanos(119_999_999_999), 10);
        c.add(t(210), 100);
        assert_eq!(c.sum(t(210), SimDuration::from_secs(120)), 101);
        // Widening the lookback by one slot picks up the t≈119.999 event.
        assert_eq!(c.sum(t(210), SimDuration::from_secs(180)), 111);
        // A lookback that is not a slot multiple rounds *up* to whole slots.
        assert_eq!(c.sum(t(210), SimDuration::from_secs(61)), 101);
    }

    #[test]
    fn gap_spanning_several_windows_drops_stale_slots() {
        let mut c = SlidingCounter::new();
        c.add(t(30), 7);
        c.add(t(90), 3);
        // Within coverage the events are visible…
        assert_eq!(c.sum(t(120), COVERAGE), 10);
        // …after a gap of nine rings (epoch 540), the ring still *contains*
        // those slots, but their epochs are stale: full-coverage queries at
        // the new time must see nothing.
        let later = t(32_430);
        assert_eq!(c.sum(later, COVERAGE), 0);
        // Epoch 540 maps to the stale slot that held the 7: writing there
        // reuses it without resurrecting its old value.
        c.add(later, 1);
        assert_eq!(c.sum(later, COVERAGE), 1);
        assert_eq!(c.sum(later, SimDuration::from_secs(60)), 1);
    }

    #[test]
    fn counter_wraps_ring_without_double_count() {
        let mut c = SlidingCounter::new();
        for s in 0..2 * SLOTS as u64 {
            c.add(t(s * 60 + 1), 1); // one event per slot, two rings' worth
        }
        // Coverage is SLOTS slots: only the last SLOTS events remain.
        let now = t((2 * SLOTS as u64 - 1) * 60 + 1);
        assert_eq!(c.sum(now, COVERAGE), SLOTS as u64);
        assert_eq!(c.sum(now, SimDuration::from_secs(120)), 2);
    }

    #[test]
    fn store_sums_ratios_and_determinism() {
        let mut w = WindowStore::default();
        for s in 0..6u64 {
            w.counter_add(t(s * 60), "slo.good", 9);
            w.counter_add(t(s * 60), "slo.bad", 1);
        }
        let now = t(359);
        let win = SimDuration::from_secs(360);
        assert_eq!(w.counter_sum("slo.good", now, win), 54);
        assert_eq!(w.error_ratio("slo.bad", "slo.good", now, win), Some(0.1));
        // Clones are value-identical: window state is pure data.
        let w2 = w.clone();
        assert_eq!(
            w2.counter_sum("slo.bad", now, win),
            w.counter_sum("slo.bad", now, win)
        );
    }
}
