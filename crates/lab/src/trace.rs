//! Chrome trace-event export of the runner's scheduler spans.
//!
//! [`chrome_trace`] turns the per-run [`SpanRec`] lists collected by the
//! fan-out scheduler into the Trace Event Format consumed by
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev): one process
//! per experiment spec, one track (`tid`) per worker thread, one complete
//! (`ph: "X"`) event per group. Interpreted instruction counts ride along
//! in each event's `args`.
//!
//! Written by `momlab run --trace-out <file>`; the output is wall-clock
//! data and therefore *informational* — the deterministic results sections
//! never reference it.

use crate::json::Value;
use crate::runner::SpanRec;

/// Build a Trace Event Format document from per-spec span lists: each
/// `(name, spans)` pair becomes one trace process (pid = index + 1, named
/// via a `process_name` metadata event) whose spans appear as complete
/// events on their worker's track. Timestamps and durations convert from
/// the runner's nanoseconds to the format's microseconds.
pub fn chrome_trace(processes: &[(String, Vec<SpanRec>)]) -> Value {
    let mut events: Vec<Value> = Vec::new();
    for (i, (name, spans)) in processes.iter().enumerate() {
        let pid = (i + 1) as i64;
        events.push(Value::object(vec![
            ("name", Value::Str("process_name".into())),
            ("ph", Value::Str("M".into())),
            ("pid", Value::Int(pid)),
            ("tid", Value::Int(0)),
            ("args", Value::object(vec![("name", Value::Str(name.clone()))])),
        ]));
        for span in spans {
            events.push(Value::object(vec![
                ("name", Value::Str(span.name.clone())),
                ("ph", Value::Str("X".into())),
                ("ts", Value::Float(span.start_ns as f64 / 1000.0)),
                ("dur", Value::Float(span.dur_ns as f64 / 1000.0)),
                ("pid", Value::Int(pid)),
                ("tid", Value::Int(span.tid as i64)),
                ("args", Value::object(vec![("insts", Value::Int(span.insts as i64))])),
            ]));
        }
    }
    Value::object(vec![
        ("traceEvents", Value::Array(events)),
        ("displayTimeUnit", Value::Str("ms".into())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, tid: usize, start_ns: u64, dur_ns: u64) -> SpanRec {
        SpanRec { name: name.into(), tid, start_ns, dur_ns, insts: 42 }
    }

    #[test]
    fn trace_document_has_one_process_per_spec() {
        let doc = chrome_trace(&[
            ("figure5".into(), vec![span("idct [mom]", 0, 0, 5_000)]),
            ("figure7".into(), vec![span("jpeg [alpha+mmx+mdmx+mom]", 1, 2_000, 3_000)]),
        ]);
        let events = doc.get("traceEvents").and_then(Value::as_array).unwrap();
        // Two metadata events + two span events.
        assert_eq!(events.len(), 4);
        let phases: Vec<&str> =
            events.iter().filter_map(|e| e.get("ph").and_then(Value::as_str)).collect();
        assert_eq!(phases, ["M", "X", "M", "X"]);
        // Span timestamps are microseconds.
        let app = &events[3];
        assert_eq!(app.get("ts").and_then(Value::as_f64), Some(2.0));
        assert_eq!(app.get("dur").and_then(Value::as_f64), Some(3.0));
        assert_eq!(app.get("pid").and_then(Value::as_i64), Some(2));
        assert_eq!(app.get("tid").and_then(Value::as_i64), Some(1));
        let args = app.get("args").unwrap();
        assert_eq!(args.get("insts").and_then(Value::as_i64), Some(42));
        // The document parses back as JSON (what --trace-out writes).
        let text = doc.to_pretty();
        assert!(Value::parse(&text).is_ok(), "trace JSON parses back: {text}");
    }

    #[test]
    fn empty_span_lists_still_name_their_process() {
        let doc = chrome_trace(&[("table1".into(), Vec::new())]);
        let events = doc.get("traceEvents").and_then(Value::as_array).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].get("ph").and_then(Value::as_str), Some("M"));
    }
}
