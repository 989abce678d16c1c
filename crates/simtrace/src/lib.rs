//! # simtrace — deterministic, sim-time-clocked tracing and metrics
//!
//! A zero-dependency structured tracing layer for the discrete-event
//! simulation stack. Everything is clocked by [`simkernel::SimTime`] — no
//! wall clock, no OS entropy, no background threads — so a trace is a pure
//! function of the simulation seed: two identically-seeded runs produce
//! byte-identical output, which makes traces a *test surface* (see
//! [`TraceQuery`]) and not just a debugging aid.
//!
//! The three primitives:
//!
//! * **spans** — named intervals with start/end timestamps and string tags,
//!   opened with [`Tracer::span_begin`] / closed with [`Tracer::span_end`],
//!   or recorded in one shot with [`Tracer::span_complete`] when the
//!   duration is known up front (the common case in the simulator, where
//!   every latency is sampled before it is scheduled);
//! * **instants** — point events ([`Tracer::instant`]);
//! * **metrics** — typed counters/gauges/histograms in a central
//!   [`Registry`] keyed by dotted names (`faas.cold_starts`), stored in
//!   `BTreeMap`s so snapshots render in one deterministic order.
//!
//! The tracer starts **disabled** and every recording call is a cheap
//! early-return until [`Tracer::set_enabled`] turns it on. Instrumentation
//! sites that build tag strings guard on [`Tracer::enabled`] so a disabled
//! tracer costs one branch. Crucially, recording draws no randomness and
//! schedules no events, so enabling tracing cannot perturb simulation
//! results.
//!
//! Traces export to Chrome trace-event JSON ([`Tracer::export_chrome_json`],
//! loadable in `chrome://tracing` or Perfetto) and metrics to a plain-text
//! snapshot ([`Tracer::render_metrics_snapshot`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code must not silently discard a `Result`.
#![warn(clippy::let_underscore_must_use)]

pub mod alert;
mod chrome;
pub mod dash;
mod query;
mod recorder;
mod registry;
pub mod window;

pub use query::TraceQuery;
pub use recorder::FLIGHT_CAPACITY;
pub use registry::Registry;

use simkernel::{SimDuration, SimTime};

/// Scopes a metric name to a tenant: `scoped("acme", "faas.throttled")` →
/// `"tenant.acme.faas.throttled"`. Per-tenant metrics live beside the global
/// ones in the same registry, so one snapshot renders both in deterministic
/// order. The default tenant records under the unscoped name only — callers
/// scope a metric only when operating for a named tenant, which keeps
/// default-path snapshots byte-identical to the pre-tenancy output.
pub fn scoped(tenant: &str, name: &str) -> String {
    format!("tenant.{tenant}.{name}")
}

/// Canonical span/instant/counter names, shared by every instrumented crate
/// so queries and per-phase breakdowns agree on the taxonomy. See DESIGN.md
/// "Observability" for what each phase means in the paper's delay model.
pub mod names {
    /// Whole-task service span: notification → commit (or abort).
    pub const TASK: &str = "task";
    /// Per-object replication-lock acquisition (KV transaction).
    pub const TASK_LOCK: &str = "task.lock";
    /// Changelog-hint lookup and opportunistic destination-side apply.
    pub const TASK_CHANGELOG: &str = "task.changelog";
    /// Instant: the planner produced a plan (tags: n, side, local, predicted).
    pub const TASK_PLAN: &str = "task.plan";
    /// Instant: a notification was absorbed by SLO-bounded batching.
    pub const TASK_BATCHED: &str = "task.batched";
    /// Engine execution of one plan (dispatch → last part committed).
    pub const ENGINE_EXECUTE: &str = "engine.execute";
    /// One replicator function's lifetime inside a task.
    pub const ENGINE_REPLICATOR: &str = "engine.replicator";
    /// Instant: a part-pool claim succeeded (tags: part).
    pub const ENGINE_CLAIM: &str = "engine.claim";
    /// Instant: a task aborted (tags: reason).
    pub const ENGINE_ABORT: &str = "engine.abort";
    /// Phase `I`: FaaS invocation API latency.
    pub const FAAS_INVOKE_API: &str = "faas.invoke_api";
    /// Phase `P`: scheduler postponement before a cold sandbox is placed.
    pub const FAAS_POSTPONE: &str = "faas.postpone";
    /// Phase `D`: cold-start sandbox initialization.
    pub const FAAS_COLD_START: &str = "faas.cold_start";
    /// Phase `S` (setup half): provider-specific transfer setup overhead.
    pub const TRANSFER_SETUP: &str = "transfer.setup";
    /// Phase `S` (wire half): one network leg of a ranged GET or PUT.
    pub const NET_LEG: &str = "net.leg";
    /// Phase `C`: multipart-commit round trip at the destination store.
    pub const STORE_COMMIT: &str = "store.complete_multipart";
    /// Byte-range GET issued against an object store (tags: region).
    pub const STORE_GET_RANGE: &str = "store.get_range";
    /// Single-shot PUT issued against an object store (tags: region).
    pub const STORE_PUT: &str = "store.put";
    /// Instant: the online logger closed a window and judged drift.
    pub const LOGGER_WINDOW: &str = "logger.window";
}

/// Handle to a span opened with [`Tracer::span_begin`].
///
/// The null id (`0`) is returned while the tracer is disabled; closing it is
/// a no-op, so call sites never need to branch on enablement around the
/// begin/end pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u64);

impl SpanId {
    /// The inert id handed out while tracing is disabled.
    pub const NULL: SpanId = SpanId(0);
}

/// A named interval on the simulation clock.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id within this tracer (1-based; 0 is reserved as null).
    pub id: u64,
    /// Span name, from the shared [`names`] taxonomy.
    pub name: &'static str,
    /// Start instant.
    pub start: SimTime,
    /// End instant; `None` while the span is still open.
    pub end: Option<SimTime>,
    /// Key/value tags. Keys are static; values are formatted at the site.
    pub tags: Vec<(&'static str, String)>,
}

impl Span {
    /// Duration of a closed span; `None` while open.
    pub fn duration(&self) -> Option<SimDuration> {
        self.end.map(|e| e.saturating_since(self.start))
    }

    /// Looks up a tag value by key (first match wins).
    pub fn tag(&self, key: &str) -> Option<&str> {
        self.tags
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// A point event on the simulation clock.
#[derive(Debug, Clone)]
pub struct InstantEvent {
    /// When the event happened.
    pub at: SimTime,
    /// Event name, from the shared [`names`] taxonomy.
    pub name: &'static str,
    /// Key/value tags.
    pub tags: Vec<(&'static str, String)>,
}

impl InstantEvent {
    /// Looks up a tag value by key (first match wins).
    pub fn tag(&self, key: &str) -> Option<&str> {
        self.tags
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Emission-ordered export records, so the Chrome JSON reproduces the exact
/// order events were recorded in (deterministic, and close to chronological).
#[derive(Debug, Clone)]
pub(crate) enum Rec {
    /// `spans[i]` opened.
    Begin(usize),
    /// `spans[span]` closed; end-event args are `tags[first_extra_tag..]`.
    End { span: usize, first_extra_tag: usize },
    /// `spans[i]` recorded in one shot (Chrome "X" complete event).
    Complete(usize),
    /// `instants[i]`.
    Mark(usize),
}

/// The collector: spans, instants, and the metrics [`Registry`], all keyed
/// to sim time. One tracer lives in each simulated world (see
/// `cloudsim::World::trace`); backends expose it via `Backend::tracer`.
#[derive(Debug, Default)]
pub struct Tracer {
    enabled: bool,
    spans: Vec<Span>,
    instants: Vec<InstantEvent>,
    recs: Vec<Rec>,
    /// Open span id → index into `spans`.
    open: std::collections::BTreeMap<u64, usize>,
    next_id: u64,
    registry: Registry,
}

impl Tracer {
    /// Creates a disabled tracer; call [`Tracer::set_enabled`] to record.
    pub fn new() -> Self {
        Tracer::default()
    }

    /// Turns recording on or off. Off (the default) makes every recording
    /// call an early return.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// True when recording. Instrumentation sites guard tag construction on
    /// this so a disabled tracer costs one branch and zero allocation.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span at `at`. Returns [`SpanId::NULL`] while disabled.
    pub fn span_begin(
        &mut self,
        at: SimTime,
        name: &'static str,
        tags: Vec<(&'static str, String)>,
    ) -> SpanId {
        if !self.enabled {
            return SpanId::NULL;
        }
        self.next_id += 1;
        let id = self.next_id;
        let idx = self.spans.len();
        self.spans.push(Span {
            id,
            name,
            start: at,
            end: None,
            tags,
        });
        self.open.insert(id, idx);
        self.recs.push(Rec::Begin(idx));
        SpanId(id)
    }

    /// Closes a span at `at`. No-op for [`SpanId::NULL`] or unknown ids.
    pub fn span_end(&mut self, at: SimTime, id: SpanId) {
        self.span_end_tagged(at, id, Vec::new());
    }

    /// Closes a span, appending `extra` tags recorded at close time (e.g.
    /// the task outcome). No-op for [`SpanId::NULL`] or unknown ids.
    pub fn span_end_tagged(&mut self, at: SimTime, id: SpanId, extra: Vec<(&'static str, String)>) {
        if !self.enabled || id == SpanId::NULL {
            return;
        }
        if let Some(idx) = self.open.remove(&id.0) {
            let span = &mut self.spans[idx];
            let first_extra_tag = span.tags.len();
            span.end = Some(at);
            span.tags.extend(extra);
            self.recs.push(Rec::End {
                span: idx,
                first_extra_tag,
            });
        }
    }

    /// Records a span whose duration is already known — the common case in
    /// the simulator, where every latency is sampled before being scheduled.
    pub fn span_complete(
        &mut self,
        start: SimTime,
        duration: SimDuration,
        name: &'static str,
        tags: Vec<(&'static str, String)>,
    ) {
        if !self.enabled {
            return;
        }
        self.next_id += 1;
        let idx = self.spans.len();
        self.spans.push(Span {
            id: self.next_id,
            name,
            start,
            end: Some(start + duration),
            tags,
        });
        self.recs.push(Rec::Complete(idx));
    }

    /// Records a point event at `at`.
    pub fn instant(&mut self, at: SimTime, name: &'static str, tags: Vec<(&'static str, String)>) {
        if !self.enabled {
            return;
        }
        let idx = self.instants.len();
        self.instants.push(InstantEvent { at, name, tags });
        self.recs.push(Rec::Mark(idx));
    }

    /// Adds `delta` to a named counter. No-op while disabled.
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        if self.enabled {
            self.registry.counter_add(name, delta);
        }
    }

    /// Sets a named gauge. No-op while disabled.
    pub fn gauge_set(&mut self, name: &str, value: f64) {
        if self.enabled {
            self.registry.gauge_set(name, value);
        }
    }

    /// Records a sample into a named histogram. No-op while disabled.
    pub fn histogram_record(&mut self, name: &str, value: f64) {
        if self.enabled {
            self.registry.histogram_record(name, value);
        }
    }

    /// Adds `delta` to a named counter *and* its sliding window at sim time
    /// `at` (see [`Registry::counter_add_at`]). No-op while disabled.
    pub fn counter_add_at(&mut self, at: SimTime, name: &str, delta: u64) {
        if self.enabled {
            self.registry.counter_add_at(at, name, delta);
        }
    }

    /// The sliding-window store (read side; shorthand for
    /// `registry().windows()`).
    pub fn windows(&self) -> &window::WindowStore {
        self.registry.windows()
    }

    /// Serializes a flight dump as Chrome trace-event JSON: the newest
    /// [`FLIGHT_CAPACITY`] closed spans and instants of one tenant
    /// (`Some`), or of every tenant in sorted-tenant order (`None`), oldest
    /// first. An event belongs to its first `"tenant"` tag, else to
    /// `"default"`; spans still open are left out.
    pub fn flight_dump(&self, tenant: Option<&str>) -> String {
        recorder::dump(self, tenant)
    }

    /// All recorded spans, in creation order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// All recorded instants, in creation order.
    pub fn instants(&self) -> &[InstantEvent] {
        &self.instants
    }

    /// The metrics registry (read side; see [`Registry`]).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Starts a query over the recorded spans and instants.
    pub fn query(&self) -> TraceQuery<'_> {
        TraceQuery::new(&self.spans, &self.instants)
    }

    /// Serializes the trace as Chrome trace-event JSON (load the file in
    /// `chrome://tracing` or <https://ui.perfetto.dev>). Events are emitted
    /// in recording order with microsecond timestamps derived exactly from
    /// sim-time nanoseconds, so output is byte-deterministic.
    pub fn export_chrome_json(&self) -> String {
        chrome::export(self)
    }

    /// Renders the metrics registry plus span totals as a deterministic
    /// plain-text snapshot (one line per metric, sorted by name).
    pub fn render_metrics_snapshot(&self) -> String {
        let mut out = self.registry.render();
        let mut by_name: std::collections::BTreeMap<&'static str, (usize, SimDuration)> =
            std::collections::BTreeMap::new();
        for s in &self.spans {
            let e = by_name.entry(s.name).or_insert((0, SimDuration::ZERO));
            e.0 += 1;
            if let Some(d) = s.duration() {
                e.1 += d;
            }
        }
        if !by_name.is_empty() {
            out.push_str("# spans (count total_secs)\n");
            for (name, (count, total)) in by_name {
                out.push_str(&format!("{name} {count} {:.6}\n", total.as_secs_f64()));
            }
        }
        out
    }

    pub(crate) fn recs(&self) -> &[Rec] {
        &self.recs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_nanos(secs * 1_000_000_000)
    }

    #[test]
    fn scoped_names_nest_under_tenant() {
        assert_eq!(
            scoped("acme", "faas.throttled"),
            "tenant.acme.faas.throttled"
        );
        let mut tr = Tracer::new();
        tr.set_enabled(true);
        tr.counter_add(&scoped("acme", "tasks"), 2);
        tr.counter_add("tasks", 1);
        let snap = tr.render_metrics_snapshot();
        assert!(snap.contains("tenant.acme.tasks"));
        assert!(snap.contains("tasks"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new();
        let id = tr.span_begin(t(1), names::TASK, vec![("key", "a".into())]);
        assert_eq!(id, SpanId::NULL);
        tr.span_end(t(2), id);
        tr.span_complete(t(1), SimDuration::from_secs(1), names::NET_LEG, vec![]);
        tr.instant(t(1), names::ENGINE_CLAIM, vec![]);
        tr.counter_add("x", 1);
        assert!(tr.spans().is_empty());
        assert!(tr.instants().is_empty());
        assert_eq!(tr.registry().counter("x"), 0);
    }

    #[test]
    fn span_lifecycle_and_tags() {
        let mut tr = Tracer::new();
        tr.set_enabled(true);
        let id = tr.span_begin(t(1), names::TASK, vec![("key", "obj/1".into())]);
        assert_ne!(id, SpanId::NULL);
        tr.span_end_tagged(t(4), id, vec![("status", "replicated".into())]);
        let span = &tr.spans()[0];
        assert_eq!(span.name, names::TASK);
        assert_eq!(span.duration(), Some(SimDuration::from_secs(3)));
        assert_eq!(span.tag("key"), Some("obj/1"));
        assert_eq!(span.tag("status"), Some("replicated"));
        assert_eq!(span.tag("missing"), None);
    }

    #[test]
    fn null_and_unknown_span_ends_are_noops() {
        let mut tr = Tracer::new();
        tr.set_enabled(true);
        tr.span_end(t(1), SpanId::NULL);
        tr.span_end(t(1), SpanId(99));
        assert!(tr.spans().is_empty());
        // Double-end is also a no-op.
        let id = tr.span_begin(t(1), names::TASK, vec![]);
        tr.span_end(t(2), id);
        tr.span_end_tagged(t(3), id, vec![("status", "late".into())]);
        assert_eq!(tr.spans()[0].end, Some(t(2)));
        assert_eq!(tr.spans()[0].tag("status"), None);
    }

    #[test]
    fn complete_spans_and_instants() {
        let mut tr = Tracer::new();
        tr.set_enabled(true);
        tr.span_complete(
            t(2),
            SimDuration::from_secs(5),
            names::NET_LEG,
            vec![("bytes", "1024".into())],
        );
        tr.instant(t(3), names::ENGINE_ABORT, vec![("reason", "etag".into())]);
        assert_eq!(tr.spans()[0].end, Some(t(7)));
        assert_eq!(tr.instants()[0].tag("reason"), Some("etag"));
    }

    #[test]
    fn registry_counts_only_when_enabled() {
        let mut tr = Tracer::new();
        tr.counter_add("a", 5);
        tr.set_enabled(true);
        tr.counter_add("a", 2);
        tr.gauge_set("g", 1.5);
        tr.histogram_record("h", 3.0);
        assert_eq!(tr.registry().counter("a"), 2);
        assert_eq!(tr.registry().gauge("g"), Some(1.5));
        assert_eq!(tr.registry().histogram("h").map(|h| h.len()), Some(1));
    }

    #[test]
    fn flight_dump_keeps_the_newest_closed_events_per_tenant() {
        let mut tr = Tracer::new();
        tr.set_enabled(true);
        // Still open at dump time: never dumped.
        let open = tr.span_begin(t(0), names::TASK, vec![("tenant", "acme".into())]);
        tr.instant(t(0), names::ENGINE_ABORT, vec![("tenant", "zeta".into())]);
        for i in 0..FLIGHT_CAPACITY + 6 {
            tr.span_complete(
                t(i as u64),
                SimDuration::from_secs(2),
                names::NET_LEG,
                vec![("tenant", "acme".into()), ("seq", i.to_string())],
            );
        }
        // An untagged begin/end span and an untagged instant inside it:
        // the span is dumped where it closed, with its full duration.
        let id = tr.span_begin(t(3), names::TASK, vec![]);
        tr.instant(t(4), names::LOGGER_WINDOW, vec![]);
        tr.span_end(t(5), id);

        // One serialized event per line, and one string field of an event.
        fn events(dump: &str) -> Vec<&str> {
            dump.lines()
                .filter(|l| l.starts_with("{\"ph\""))
                .map(|l| l.trim_end_matches(','))
                .collect()
        }
        fn field<'a>(event: &'a str, key: &str) -> &'a str {
            let (_, rest) = event.split_once(&format!("\"{key}\":\"")).unwrap();
            rest.split('"').next().unwrap()
        }

        let acme = tr.flight_dump(Some("acme"));
        assert!(acme.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"));
        assert!(acme.ends_with("\n]}\n"));
        assert_eq!(acme, tr.flight_dump(Some("acme")), "not byte-deterministic");
        // Only the newest FLIGHT_CAPACITY survive, oldest first.
        let seqs: Vec<&str> = events(&acme).iter().map(|e| field(e, "seq")).collect();
        let newest: Vec<String> = (6..FLIGHT_CAPACITY + 6).map(|i| i.to_string()).collect();
        assert_eq!(seqs, newest);
        assert!(!acme.contains("\"name\":\"task\""), "open span dumped");

        assert_eq!(
            events(&tr.flight_dump(Some("default"))),
            vec![
                "{\"ph\":\"i\",\"s\":\"g\",\"cat\":\"flight\",\"name\":\"logger.window\",\"pid\":1,\"tid\":1,\"ts\":4000000.000,\"args\":{\"tenant\":\"default\"}}",
                "{\"ph\":\"X\",\"cat\":\"flight\",\"name\":\"task\",\"pid\":1,\"tid\":1,\"ts\":3000000.000,\"dur\":2000000.000,\"args\":{\"tenant\":\"default\"}}",
            ]
        );

        // `None` dumps every tenant in sorted order, whatever the
        // recording order.
        let all = tr.flight_dump(None);
        let mut owners: Vec<&str> = events(&all).iter().map(|e| field(e, "tenant")).collect();
        assert_eq!(owners.len(), FLIGHT_CAPACITY + 3);
        owners.dedup();
        assert_eq!(owners, vec!["acme", "default", "zeta"]);

        tr.span_end(t(200), open);
        assert!(tr.flight_dump(Some("acme")).contains("\"name\":\"task\""));
    }

    #[test]
    fn disabled_tracer_dumps_no_flight_events() {
        let mut tr = Tracer::new();
        tr.span_complete(t(1), SimDuration::from_secs(1), names::TASK, vec![]);
        tr.instant(t(2), names::ENGINE_ABORT, vec![]);
        assert_eq!(
            tr.flight_dump(None),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n\n]}\n"
        );
    }

    #[test]
    fn metrics_snapshot_is_sorted_and_stable() {
        let mut tr = Tracer::new();
        tr.set_enabled(true);
        tr.counter_add("z.last", 1);
        tr.counter_add("a.first", 2);
        tr.span_complete(t(0), SimDuration::from_secs(1), names::NET_LEG, vec![]);
        let a = tr.render_metrics_snapshot();
        let b = tr.render_metrics_snapshot();
        assert_eq!(a, b);
        let first = a.find("a.first").unwrap();
        let last = a.find("z.last").unwrap();
        assert!(first < last, "counters must render in sorted order:\n{a}");
        assert!(a.contains("net.leg 1 1.000000"));
    }
}
