//! Flight dumps: the last [`FLIGHT_CAPACITY`] closed spans and instants
//! *per tenant*, read from the tracer's own recording-order record so that
//! when an alert fires or a simcheck oracle fails, the recent history of
//! exactly the affected tenant can be dumped as a small, byte-deterministic
//! Chrome trace — evidence that travels with a shrunken failing schedule
//! instead of a multi-megabyte full export.
//!
//! An event belongs to the tenant named by its first `"tenant"` tag,
//! falling back to `"default"`. A span counts once it closes, at its
//! recording position; a span's tags cannot change after close, so a dump
//! is a pure function of the trace and inherits simtrace's passivity
//! invariant wholesale.

use std::collections::{BTreeMap, VecDeque};

use simkernel::{SimDuration, SimTime};

use crate::{chrome, Rec, Tracer};

/// Events kept per tenant: enough to hold several whole-task event
/// sequences without letting dumps grow past a screenful.
pub const FLIGHT_CAPACITY: usize = 64;

/// A closed span (`dur = Some`) or an instant (`dur = None`).
type Entry<'a> = (
    SimTime,
    Option<SimDuration>,
    &'static str,
    &'a [(&'static str, String)],
);

/// Serializes one tenant's (`Some`) or every tenant's (`None`, in sorted
/// tenant order) newest [`FLIGHT_CAPACITY`] events, oldest first.
pub(crate) fn dump(tr: &Tracer, tenant: Option<&str>) -> String {
    let mut rings: BTreeMap<&str, VecDeque<Entry<'_>>> = BTreeMap::new();
    for rec in tr.recs() {
        let (at, dur, name, tags): Entry<'_> = match *rec {
            Rec::Begin(_) => continue,
            Rec::End { span, .. } | Rec::Complete(span) => {
                let s = &tr.spans()[span];
                (s.start, s.duration(), s.name, &s.tags)
            }
            Rec::Mark(i) => {
                let e = &tr.instants()[i];
                (e.at, None, e.name, &e.tags)
            }
        };
        let owner = tags
            .iter()
            .find(|(k, _)| *k == "tenant")
            .map_or("default", |(_, v)| v.as_str());
        if tenant.is_some_and(|t| t != owner) {
            continue;
        }
        let ring = rings.entry(owner).or_default();
        if ring.len() == FLIGHT_CAPACITY {
            ring.pop_front();
        }
        ring.push_back((at, dur, name, tags));
    }

    let events: Vec<String> = rings
        .iter()
        .flat_map(|(owner, ring)| ring.iter().map(move |e| event(owner, e)))
        .collect();
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
        events.join(",\n")
    )
}

/// One Chrome trace event, tagged with its owner when it carries no
/// `"tenant"` tag of its own.
fn event(owner: &str, &(at, dur, name, tags): &Entry<'_>) -> String {
    let mut tags = tags.to_vec();
    if !tags.iter().any(|(k, _)| *k == "tenant") {
        tags.push(("tenant", owner.to_string()));
    }
    match dur {
        Some(d) => format!(
            "{{\"ph\":\"X\",\"cat\":\"flight\",\"name\":{},\"pid\":1,\"tid\":1,\"ts\":{},\"dur\":{},\"args\":{{{}}}}}",
            chrome::json_str(name),
            chrome::ts(at),
            chrome::micros(d.as_nanos()),
            chrome::args(&tags),
        ),
        None => format!(
            "{{\"ph\":\"i\",\"s\":\"g\",\"cat\":\"flight\",\"name\":{},\"pid\":1,\"tid\":1,\"ts\":{},\"args\":{{{}}}}}",
            chrome::json_str(name),
            chrome::ts(at),
            chrome::args(&tags),
        ),
    }
}
