//! The central metrics registry: typed counters, gauges, and histograms
//! keyed by dotted names, stored in `BTreeMap`s so every snapshot renders in
//! one deterministic order.

use std::collections::BTreeMap;

use simkernel::{Histogram, SimTime};

use crate::window::WindowStore;

/// Counters, gauges, and histograms under sorted string names.
///
/// Naming convention (see DESIGN.md "Observability"):
/// `<subsystem>.<event>[.<qualifier>]`, e.g. `faas.cold_starts`,
/// `logger.window_evictions`, `store.ops.put`.
///
/// Counters recorded through [`Registry::counter_add_at`] additionally feed
/// a [`WindowStore`] of sliding time windows — the live-query side consumed
/// by burn-rate alerting and dashboards. Windowed state never appears in
/// [`Registry::render`], so snapshot output is independent of window
/// geometry.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
    windows: WindowStore,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Adds `delta` to the named counter, creating it at zero.
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Sets the named gauge to `value` (last write wins).
    pub fn gauge_set(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Records one sample into the named histogram.
    pub fn histogram_record(&mut self, name: &str, value: f64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .record(value);
    }

    /// Adds `delta` to the named counter *and* its sliding window at sim
    /// time `at` — the timestamped variant live instrumentation uses so the
    /// same event feeds both the cumulative snapshot and windowed queries.
    pub fn counter_add_at(&mut self, at: SimTime, name: &str, delta: u64) {
        self.counter_add(name, delta);
        self.windows.counter_add(at, name, delta);
    }

    /// The sliding-window store (read side, for alert engines and
    /// dashboards).
    pub fn windows(&self) -> &WindowStore {
        &self.windows
    }

    /// Current value of a counter (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of a gauge, if ever set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// The named histogram, if any samples were recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Renders the registry as deterministic plain text: one line per
    /// metric, grouped by kind, sorted by name, fixed float formatting.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("# counters\n");
            for (name, v) in &self.counters {
                out.push_str(&format!("{name} {v}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("# gauges\n");
            for (name, v) in &self.gauges {
                out.push_str(&format!("{name} {v:.6}\n"));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("# histograms (count mean p50 p99 max)\n");
            for (name, h) in &self.histograms {
                // Quantile queries need `&mut` (lazy sort); clone — snapshot
                // rendering is a cold path.
                let mut h = h.clone();
                out.push_str(&format!(
                    "{name} {} {:.6} {:.6} {:.6} {:.6}\n",
                    h.len(),
                    h.mean().unwrap_or(0.0),
                    h.percentile(50.0).unwrap_or(0.0),
                    h.percentile(99.0).unwrap_or(0.0),
                    h.max().unwrap_or(0.0),
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut r = Registry::new();
        assert_eq!(r.counter("x"), 0);
        r.counter_add("x", 2);
        r.counter_add("x", 3);
        assert_eq!(r.counter("x"), 5);
        assert_eq!(r.counter("y"), 0);
    }

    #[test]
    fn gauges_last_write_wins() {
        let mut r = Registry::new();
        assert_eq!(r.gauge("g"), None);
        r.gauge_set("g", 1.0);
        r.gauge_set("g", 2.0);
        assert_eq!(r.gauge("g"), Some(2.0));
    }

    #[test]
    fn histograms_record() {
        let mut r = Registry::new();
        r.histogram_record("h", 1.0);
        r.histogram_record("h", 3.0);
        assert_eq!(r.histogram("h").unwrap().len(), 2);
        assert!(r.histogram("missing").is_none());
    }

    #[test]
    fn timestamped_counter_feeds_both_sides_and_never_renders() {
        use simkernel::SimDuration;
        let mut r = Registry::new();
        let at = SimTime::from_nanos(90_000_000_000);
        r.counter_add_at(at, "slo.bad", 2);
        // Cumulative side sees the event…
        assert_eq!(r.counter("slo.bad"), 2);
        // …and so does the windowed side…
        let w = r.windows();
        assert_eq!(w.counter_sum("slo.bad", at, SimDuration::from_secs(60)), 2);
        // …but render output is exactly what the plain variant produces:
        // window geometry never leaks into snapshots.
        let mut plain = Registry::new();
        plain.counter_add("slo.bad", 2);
        assert_eq!(r.render(), plain.render());
    }

    #[test]
    fn render_is_deterministic_and_sorted() {
        let mut r = Registry::new();
        r.counter_add("b", 1);
        r.counter_add("a", 1);
        r.gauge_set("g", 0.5);
        r.histogram_record("h", 2.0);
        let text = r.render();
        assert_eq!(text, r.render());
        assert!(text.find("a 1").unwrap() < text.find("b 1").unwrap());
        assert!(text.contains("g 0.500000"));
        assert!(text.contains("h 1 2.000000 2.000000 2.000000 2.000000"));
    }
}
