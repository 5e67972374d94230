//! In-memory span recorder of the traced run.
//!
//! Every span wraps one public call into a simulator crate (or one rung of
//! the ladder around such calls) and records its name, extent, parent,
//! workload and rung. Nothing is written until the run ends; then
//! [`Tracer::chrome_trace`] emits the Trace Event Format that
//! `momlab run --trace-out` uses, so Perfetto opens both.

use std::time::Instant;

use mom_lab::json::Value;
use mom_lab::runner::SpanRec;

/// One recorded span; times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub rung: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The runner's own spans from one in-process `run_cached` call, shifted
/// onto the tracer's clock.
pub struct RunnerSpans {
    pub label: String,
    pub spans: Vec<SpanRec>,
}

pub struct Tracer {
    epoch: Instant,
    workload: String,
    spans: Vec<Span>,
    open: Vec<usize>,
    runner: Vec<RunnerSpans>,
}

impl Tracer {
    pub fn new(workload: &str) -> Self {
        Self {
            epoch: Instant::now(),
            workload: workload.to_string(),
            spans: Vec::new(),
            open: Vec::new(),
            runner: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span and return its result with the span's duration
    /// in nanoseconds. Spans opened inside `f` become its children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        rung: &'static str,
        f: impl FnOnce(&mut Self) -> T,
    ) -> (T, u64) {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            rung,
            start_ns: 0,
            end_ns: 0,
            parent,
        });
        self.open.push(id);
        let start_ns = self.now_ns();
        let out = f(self);
        let end_ns = self.now_ns();
        self.open.pop();
        self.spans[id].start_ns = start_ns;
        self.spans[id].end_ns = end_ns;
        (out, end_ns - start_ns)
    }

    /// Keep the spans a runner call recorded, offset by when the call
    /// started on this tracer's clock.
    pub fn add_runner_spans(&mut self, label: String, offset_ns: u64, spans: &[SpanRec]) {
        let spans = spans
            .iter()
            .map(|s| SpanRec {
                start_ns: s.start_ns + offset_ns,
                ..s.clone()
            })
            .collect();
        self.runner.push(RunnerSpans { label, spans });
    }

    /// Self time of every span: its duration minus the part its children
    /// cover (children never overlap: they run in sequence on one thread).
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                own[p] = own[p].saturating_sub(span.dur_ns());
            }
        }
        own
    }

    /// Total self time per `(rung, name)`, largest first.
    pub fn self_time_table(&self) -> Vec<(&'static str, &'static str, u64)> {
        let own = self.self_times();
        let mut table: Vec<(&'static str, &'static str, u64)> = Vec::new();
        for (span, ns) in self.spans.iter().zip(own) {
            match table
                .iter_mut()
                .find(|(r, n, _)| *r == span.rung && *n == span.name)
            {
                Some(row) => row.2 += ns,
                None => table.push((span.rung, span.name, ns)),
            }
        }
        table.sort_by_key(|row| std::cmp::Reverse(row.2));
        table
    }

    /// The Chrome trace-event document: the runner's spans (one process per
    /// runner call, one track per worker, via `mom_lab::trace`) followed by
    /// the ladder's spans on a process of their own, plus `otherData`.
    pub fn chrome_trace(&self, other: Value) -> Value {
        let processes: Vec<(String, Vec<SpanRec>)> = self
            .runner
            .iter()
            .map(|r| (r.label.clone(), r.spans.clone()))
            .collect();
        let mut doc = mom_lab::trace::chrome_trace(&processes);
        let ladder_pid = processes.len() as i64 + 1;
        let own = self.self_times();
        let mut events = vec![Value::object(vec![
            ("name", Value::Str("process_name".into())),
            ("ph", Value::Str("M".into())),
            ("pid", Value::Int(ladder_pid)),
            ("tid", Value::Int(0)),
            (
                "args",
                Value::object(vec![(
                    "name",
                    Value::Str(format!("ladder {}", self.workload)),
                )]),
            ),
        ])];
        for (id, (span, self_ns)) in self.spans.iter().zip(own).enumerate() {
            events.push(Value::object(vec![
                ("name", Value::Str(span.name.into())),
                ("cat", Value::Str(span.rung.into())),
                ("ph", Value::Str("X".into())),
                ("ts", Value::Float(span.start_ns as f64 / 1000.0)),
                ("dur", Value::Float(span.dur_ns() as f64 / 1000.0)),
                ("pid", Value::Int(ladder_pid)),
                ("tid", Value::Int(0)),
                (
                    "args",
                    Value::object(vec![
                        ("id", Value::Int(id as i64)),
                        (
                            "parent",
                            span.parent.map_or(Value::Null, |p| Value::Int(p as i64)),
                        ),
                        ("workload", Value::Str(self.workload.clone())),
                        ("rung", Value::Str(span.rung.into())),
                        ("self_us", Value::Float(self_ns as f64 / 1000.0)),
                    ]),
                ),
            ]));
        }
        if let Value::Object(members) = &mut doc {
            for (key, value) in members.iter_mut() {
                if key == "traceEvents" {
                    if let Value::Array(all) = value {
                        all.append(&mut events);
                    }
                }
            }
            members.push(("otherData".into(), other));
        }
        doc
    }
}
