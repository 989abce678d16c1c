//! Chrome trace-event JSON export (the `chrome://tracing` / Perfetto
//! format). Hand-rolled serialization: the format is a flat event array,
//! and writing it directly keeps the crate zero-dependency and the output
//! byte-deterministic (fixed field order, fixed timestamp formatting).

use simkernel::SimTime;

use crate::{Rec, Tracer};

/// Serializes the whole trace. Spans become async begin/end pairs (`"b"` /
/// `"e"`) matched by name+id, one-shot spans become complete events (`"X"`),
/// instants become `"i"`. Timestamps are microseconds with exactly three
/// decimals, computed from sim-time nanoseconds by integer arithmetic.
pub(crate) fn export(tracer: &Tracer) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let mut first = true;
    for rec in tracer.recs() {
        let ev = match rec {
            Rec::Begin(i) => {
                let s = &tracer.spans()[*i];
                format!(
                    "{{\"ph\":\"b\",\"cat\":\"sim\",\"name\":{},\"id\":{},\"pid\":1,\"tid\":1,\"ts\":{},\"args\":{{{}}}}}",
                    json_str(s.name),
                    s.id,
                    ts(s.start),
                    args(&s.tags),
                )
            }
            Rec::End {
                span,
                first_extra_tag,
            } => {
                let s = &tracer.spans()[*span];
                let end = s.end.expect("End record implies closed span");
                format!(
                    "{{\"ph\":\"e\",\"cat\":\"sim\",\"name\":{},\"id\":{},\"pid\":1,\"tid\":1,\"ts\":{},\"args\":{{{}}}}}",
                    json_str(s.name),
                    s.id,
                    ts(end),
                    args(&s.tags[*first_extra_tag..]),
                )
            }
            Rec::Complete(i) => {
                let s = &tracer.spans()[*i];
                let end = s.end.expect("Complete record implies closed span");
                format!(
                    "{{\"ph\":\"X\",\"cat\":\"sim\",\"name\":{},\"pid\":1,\"tid\":1,\"ts\":{},\"dur\":{},\"args\":{{{}}}}}",
                    json_str(s.name),
                    ts(s.start),
                    micros(end.as_nanos() - s.start.as_nanos()),
                    args(&s.tags),
                )
            }
            Rec::Mark(i) => {
                let ev = &tracer.instants()[*i];
                format!(
                    "{{\"ph\":\"i\",\"s\":\"g\",\"cat\":\"sim\",\"name\":{},\"pid\":1,\"tid\":1,\"ts\":{},\"args\":{{{}}}}}",
                    json_str(ev.name),
                    ts(ev.at),
                    args(&ev.tags),
                )
            }
        };
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&ev);
    }
    out.push_str("\n]}\n");
    out
}

/// Microsecond timestamp with exactly three decimals, e.g. `1500000.250`.
/// Shared with the flight dump so both artifacts format time
/// identically.
pub(crate) fn ts(at: SimTime) -> String {
    micros(at.as_nanos())
}

pub(crate) fn micros(nanos: u64) -> String {
    format!("{}.{:03}", nanos / 1_000, nanos % 1_000)
}

/// `"k":"v"` pairs for an `args` object, in tag recording order.
pub(crate) fn args(tags: &[(&'static str, String)]) -> String {
    let mut out = String::new();
    for (i, (k, v)) in tags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&json_str(k));
        out.push(':');
        out.push_str(&json_str(v));
    }
    out
}

/// Minimal JSON string encoder (quotes, backslashes, control chars).
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use simkernel::{SimDuration, SimTime};

    use crate::{names, Tracer};

    #[test]
    fn export_shape_and_determinism() {
        let mut tr = Tracer::new();
        tr.set_enabled(true);
        let id = tr.span_begin(
            SimTime::from_nanos(1_500_000_250),
            names::TASK,
            vec![("key", "a\"b".into())],
        );
        tr.span_complete(
            SimTime::from_nanos(2_000_000_000),
            SimDuration::from_millis(5),
            names::NET_LEG,
            vec![],
        );
        tr.instant(
            SimTime::from_nanos(3_000_000_000),
            names::ENGINE_CLAIM,
            vec![],
        );
        tr.span_end_tagged(
            SimTime::from_nanos(4_000_000_000),
            id,
            vec![("status", "ok".into())],
        );
        let json = tr.export_chrome_json();
        assert_eq!(json, tr.export_chrome_json());
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.trim_end().ends_with("]}"));
        assert!(json.contains("\"ph\":\"b\""));
        assert!(json.contains("\"ph\":\"e\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"ts\":1500000.250"));
        assert!(json.contains("\"dur\":5000.000"));
        // Close-time tags land on the end event, not the begin event.
        assert!(json.contains("\"args\":{\"status\":\"ok\"}"));
        // Quote in a tag value is escaped.
        assert!(json.contains("a\\\"b"));
    }

    #[test]
    fn empty_trace_is_valid() {
        let tr = Tracer::new();
        assert_eq!(
            tr.export_chrome_json(),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n\n]}\n"
        );
    }
}
