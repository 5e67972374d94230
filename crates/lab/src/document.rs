//! The JSON documents of a run: the deterministic results document and the
//! full on-disk document with its `meta` section (schema in
//! `EXPERIMENTS.md`).

use mom_cpu::{IntervalStats, StallBreakdown};
use mom_mem::cache::CacheStats;
use mom_mem::{MemModelKind, MemSystemStats};

use crate::json::Value;
use crate::runner::{CellResult, CellSampling, ExecMode, RunData, RunResult, SpanRec};
use crate::tables::StaticRows;

impl RunResult {
    /// The deterministic results document: everything except the `meta`
    /// section. Two runs of the same spec serialize to identical bytes
    /// regardless of worker count. A sampled run additionally carries a
    /// `sampling` section — its parameters and per-cell IPC estimates with
    /// confidence intervals — and is byte-identical to other sampled runs
    /// with the same parameters.
    pub fn results_json(&self) -> Value {
        let mut members = vec![
            ("schema", Value::Str("momlab/v1".into())),
            ("experiment", Value::Str(self.spec.name.clone())),
            ("title", Value::Str(self.spec.title.clone())),
            ("config_hash", Value::Str(self.config_hash.clone())),
            ("fast", Value::Bool(self.spec.fast)),
        ];
        match (&self.data, self.spec.grid()) {
            (RunData::Grid(cells), Some(grid)) => {
                members.push(("kind", Value::Str("grid".into())));
                members.push(("scale", Value::Int(grid.scale as i64)));
                members.push(("seed", Value::Int(grid.seed as i64)));
                members.push((
                    "widths",
                    Value::Array(grid.widths.iter().map(|&w| Value::Int(w as i64)).collect()),
                ));
                members.push((
                    "configs",
                    Value::Array(
                        grid.configs
                            .iter()
                            .map(|c| {
                                let mut fields = vec![
                                    ("label", Value::Str(c.label.clone())),
                                    ("isa", Value::Str(c.isa.label().into())),
                                    ("mem", Value::Str(mem_label(c.mem))),
                                ];
                                // Overrides appear only when present, so
                                // pre-override documents stay byte-identical.
                                if let Some(rob) = c.rob {
                                    fields.push(("rob", Value::Int(rob as i64)));
                                }
                                Value::object(fields)
                            })
                            .collect(),
                    ),
                ));
                members.push((
                    "cells",
                    Value::Array(cells.iter().map(cell_json).collect()),
                ));
                if let ExecMode::Sampled { unit_insts, warmup_insts, period } = self.mode {
                    members.push((
                        "sampling",
                        Value::object(vec![
                            ("unit_insts", Value::Int(unit_insts as i64)),
                            ("warmup_insts", Value::Int(warmup_insts as i64)),
                            ("period", Value::Int(period as i64)),
                            (
                                "cells",
                                Value::Array(
                                    cells
                                        .iter()
                                        .filter_map(|c| {
                                            c.sampling.as_ref().map(|s| sampling_json(c, s))
                                        })
                                        .collect(),
                                ),
                            ),
                        ]),
                    ));
                }
            }
            (RunData::Static(rows), _) => {
                members.push(("kind", Value::Str("static".into())));
                members.push(("rows", static_rows_json(rows)));
            }
            (RunData::Grid(_), None) => unreachable!("grid data implies a grid spec"),
        }
        Value::object(members)
    }

    /// The full on-disk document: [`RunResult::results_json`] plus a `meta`
    /// section with wall-clock, worker-count, execution-mode, span and
    /// sharing information (the only part that may differ between two runs
    /// of the same spec).
    pub fn document_json(&self) -> Value {
        let mut doc = self.results_json();
        let mut meta_members = vec![
            ("workers", Value::Int(self.workers as i64)),
            ("wall_ms", Value::Int(self.wall_ms as i64)),
            ("mode", Value::Str(self.mode.label().into())),
            ("generated_by", Value::Str(format!("momlab {}", env!("CARGO_PKG_VERSION")))),
            // Retired lane-backend provenance, kept only because
            // `perfbench/run.py` indexes these keys: there is one portable
            // lane-kernel implementation, so both are constant `false`.
            (
                "engine",
                Value::object(vec![
                    ("swar", Value::Bool(false)),
                    ("simd_feature", Value::Bool(false)),
                ]),
            ),
            // The host the numbers were measured on, so committed BENCH
            // documents are comparable: wall-clock figures from different
            // core counts or architectures are not.
            (
                "host",
                Value::object(vec![
                    (
                        "cpus",
                        Value::Int(
                            std::thread::available_parallelism()
                                .map(|n| n.get())
                                .unwrap_or(1) as i64,
                        ),
                    ),
                    ("arch", Value::Str(std::env::consts::ARCH.into())),
                    ("os", Value::Str(std::env::consts::OS.into())),
                    // Constant `false`; kept for `perfbench/run.py` (see
                    // `engine` above).
                    ("simd_active", Value::Bool(false)),
                ]),
            ),
        ];
        if let Some(cells) = self.cells() {
            // The functional-sharing accounting: how many interpreter passes
            // this run performed, how many instructions they executed, and
            // what per-cell interpretation would have cost instead. The
            // sharing factor is the instruction-weighted amortization of the
            // fan-out runner (1.0 in streamed mode by construction).
            meta_members.push((
                "shared_passes",
                Value::object(vec![
                    ("cells", Value::Int(cells.len() as i64)),
                    ("functional_passes", Value::Int(self.functional_passes as i64)),
                    (
                        "cell_instructions",
                        Value::Int(cells.iter().map(|c| c.instructions).sum::<u64>() as i64),
                    ),
                    (
                        "functional_instructions",
                        Value::Int(self.functional_instructions as i64),
                    ),
                    (
                        "sharing_factor",
                        self.sharing_factor().map(Value::Float).unwrap_or(Value::Null),
                    ),
                ]),
            ));
            // Machine-pool reuse accounting for this run (wall-clock-free but
            // scheduling-dependent, hence meta).
            meta_members.push((
                "pool",
                Value::object(vec![
                    ("hits", Value::Int(self.pool.hits as i64)),
                    ("builds", Value::Int(self.pool.builds as i64)),
                ]),
            ));
        }
        if let Some(cache) = &self.cache {
            // Result-cache accounting: present exactly when the run had a
            // cache, so cache-free documents stay byte-identical.
            meta_members.push((
                "cache",
                Value::object(vec![
                    ("hits", Value::Int(cache.hits as i64)),
                    ("misses", Value::Int(cache.misses as i64)),
                    ("fills", Value::Int(cache.fills as i64)),
                    ("bytes", Value::Int(cache.bytes as i64)),
                    ("dir", Value::Str(cache.dir.clone())),
                ]),
            ));
        }
        if !self.spans.is_empty() {
            // Scheduler span trace: one entry per group, chronological.
            // Informational — never diffed.
            meta_members.push((
                "spans",
                Value::Array(self.spans.iter().map(span_json).collect()),
            ));
        }
        let meta = Value::object(meta_members);
        if let Value::Object(members) = &mut doc {
            members.push(("meta".into(), meta));
        }
        doc
    }
}

/// The `mem` field of a `configs` entry in the JSON schema and of a
/// cell-cache key. Unlike [`MemModelKind::label`], the perfect model embeds
/// its latency, so the latency study's configs stay distinguishable.
pub fn mem_label(mem: MemModelKind) -> String {
    match mem {
        MemModelKind::Perfect { latency } => format!("perfect-{latency}"),
        other => other.label().to_string(),
    }
}

/// The memory model a [`mem_label`] names; `None` for any other text.
pub(crate) fn mem_from_label(label: &str) -> Option<MemModelKind> {
    use MemModelKind::{CollapsingBuffer, Conventional, MultiAddress, Perfect, VectorCache};
    match label.strip_prefix("perfect-") {
        Some(latency) => latency.parse().ok().map(|latency| Perfect { latency }),
        None => [Conventional, MultiAddress, VectorCache, CollapsingBuffer]
            .into_iter()
            .find(|mem| mem.label() == label),
    }
}

fn cell_json(cell: &CellResult) -> Value {
    Value::object(vec![
        ("workload", Value::Str(cell.workload.label().into())),
        ("workload_kind", Value::Str(cell.workload.kind_label().into())),
        ("config", Value::Str(cell.config_label.clone())),
        ("isa", Value::Str(cell.isa.label().into())),
        ("way", Value::Int(cell.way as i64)),
        ("cycles", Value::Int(cell.cycles as i64)),
        ("instructions", Value::Int(cell.instructions as i64)),
        ("branches", Value::Int(cell.branches as i64)),
        ("mispredictions", Value::Int(cell.mispredictions as i64)),
        ("mem_accesses", Value::Int(cell.mem_accesses as i64)),
        ("ipc", Value::Float(cell.ipc())),
        ("speedup", cell.speedup.map(Value::Float).unwrap_or(Value::Null)),
        ("mispredict_rate", Value::Float(cell.mispredict_rate())),
        ("mem", mem_json(&cell.mem_stats)),
        ("breakdown", breakdown_json(&cell.breakdown)),
        ("intervals", intervals_json(&cell.intervals)),
    ])
}

/// One entry of the `sampling.cells` array: the cell's identity (the same
/// `(workload, config, way)` key `momlab diff` matches on) plus its sampling
/// accounting and IPC estimate.
fn sampling_json(cell: &CellResult, s: &CellSampling) -> Value {
    let mut fields = vec![
        ("workload", Value::Str(cell.workload.label().into())),
        ("config", Value::Str(cell.config_label.clone())),
        ("way", Value::Int(cell.way as i64)),
    ];
    fields.extend(sampling_fields(s));
    Value::object(fields)
}

/// A cell's sampling accounting and IPC estimate, shared by the document's
/// `sampling.cells` entries and the cell-cache record.
pub(crate) fn sampling_fields(s: &CellSampling) -> Vec<(&'static str, Value)> {
    vec![
        ("units_measured", Value::Int(s.units_measured as i64)),
        ("measured_insts", Value::Int(s.measured_insts as i64)),
        ("warmup_insts", Value::Int(s.warmup_insts as i64)),
        ("total_insts", Value::Int(s.total_insts as i64)),
        ("ipc_mean", Value::Float(s.ipc_mean)),
        ("ipc_ci95", Value::Float(s.ipc_ci95)),
    ]
}

/// The `mem` member of a cell: per-cell memory-system counters, split by
/// hierarchy level. Deterministic — diffed at tolerance zero like `cycles`.
pub(crate) fn mem_json(stats: &MemSystemStats) -> Value {
    let cache = |c: &CacheStats| {
        let hit_rate =
            if c.accesses() == 0 { 0.0 } else { c.hits as f64 / c.accesses() as f64 };
        Value::object(vec![
            ("hits", Value::Int(c.hits as i64)),
            ("misses", Value::Int(c.misses as i64)),
            ("writebacks", Value::Int(c.writebacks as i64)),
            ("hit_rate", Value::Float(hit_rate)),
        ])
    };
    Value::object(vec![
        ("requests", Value::Int(stats.requests as i64)),
        ("element_accesses", Value::Int(stats.element_accesses as i64)),
        ("port_stalls", Value::Int(stats.port_stalls as i64)),
        ("bank_conflicts", Value::Int(stats.bank_conflicts as i64)),
        ("mshr_stalls", Value::Int(stats.mshr_stalls as i64)),
        ("vector_transactions", Value::Int(stats.vector_transactions as i64)),
        ("l1", cache(&stats.l1)),
        ("l2", cache(&stats.l2)),
        (
            "dram",
            Value::object(vec![
                ("transfers", Value::Int(stats.dram.transfers as i64)),
                ("busy_cycles", Value::Int(stats.dram.busy_cycles as i64)),
                ("queue_cycles", Value::Int(stats.dram.queue_cycles as i64)),
            ]),
        ),
    ])
}

/// The `breakdown` member of a cell: every commit-slot cycle attributed to
/// exactly one cause, keyed by [`StallCause::label`]. The components sum to
/// `total_cycles` — an invariant asserted when the probe is read out.
pub(crate) fn breakdown_json(b: &StallBreakdown) -> Value {
    let mut fields = vec![("total_cycles", Value::Int(b.total_cycles as i64))];
    for (cause, cycles) in b.components() {
        fields.push((cause.label(), Value::Int(cycles as i64)));
    }
    Value::object(fields)
}

/// The `intervals` member of a cell: the windowed IPC timeline with the
/// dominant stall cause per window.
pub(crate) fn intervals_json(iv: &IntervalStats) -> Value {
    Value::object(vec![
        ("window_cycles", Value::Int(iv.window_cycles as i64)),
        (
            "windows",
            Value::Array(
                iv.windows
                    .iter()
                    .map(|w| {
                        Value::object(vec![
                            ("committed", Value::Int(w.committed as i64)),
                            ("cycles", Value::Int(w.cycles as i64)),
                            ("ipc", Value::Float(w.ipc())),
                            ("top", Value::Str(w.top.label().into())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// One scheduler span for the `meta.spans` array (wall-clock data: lives in
/// `meta`, never in `results`).
fn span_json(span: &SpanRec) -> Value {
    Value::object(vec![
        ("name", Value::Str(span.name.clone())),
        ("tid", Value::Int(span.tid as i64)),
        ("start_ns", Value::Int(span.start_ns as i64)),
        ("dur_ns", Value::Int(span.dur_ns as i64)),
        ("insts", Value::Int(span.insts as i64)),
    ])
}

fn static_rows_json(rows: &StaticRows) -> Value {
    let pair = |(a, b): (usize, usize)| Value::Array(vec![Value::Int(a as i64), Value::Int(b as i64)]);
    match rows {
        StaticRows::Table1(rows) => Value::Array(
            rows.iter()
                .map(|r| {
                    Value::object(vec![
                        ("way", Value::Int(r.way as i64)),
                        ("rob", Value::Int(r.rob as i64)),
                        ("lsq", Value::Int(r.lsq as i64)),
                        ("bimodal", Value::Int(r.bimodal as i64)),
                        ("btb", Value::Int(r.btb as i64)),
                        ("int_units", pair(r.int_units)),
                        ("fp_units", pair(r.fp_units)),
                        ("media_units", pair(r.media_units)),
                        ("mem_ports", Value::Int(r.mem_ports as i64)),
                        ("int_regs", pair(r.int_regs)),
                    ])
                })
                .collect(),
        ),
        StaticRows::Table2(rows) => Value::Array(
            rows.iter()
                .map(|r| {
                    Value::object(vec![
                        ("isa", Value::Str(r.isa.to_string())),
                        ("media_regs", pair(r.media_regs)),
                        ("acc_regs", pair(r.acc_regs)),
                        ("media_ports", pair(r.media_ports)),
                        ("acc_ports", pair(r.acc_ports)),
                        ("size_kb", Value::Float(r.size_kb)),
                        ("normalized_area", Value::Float(r.normalized_area)),
                    ])
                })
                .collect(),
        ),
        StaticRows::Table3(rows) => Value::Array(
            rows.iter()
                .map(|r| {
                    let c = r.config;
                    Value::object(vec![
                        ("label", Value::Str(r.label.clone())),
                        ("l1_ports", Value::Int(c.l1_ports as i64)),
                        ("l1_banks", Value::Int(c.l1_banks as i64)),
                        ("l1_latency", Value::Int(c.l1_latency as i64)),
                        ("l2_vector_ports", Value::Int(c.l2_vector_ports as i64)),
                        ("l2_vector_width", Value::Int(c.l2_vector_width as i64)),
                        ("l2_banks", Value::Int(c.l2_banks as i64)),
                        ("l2_latency", Value::Int(c.l2_latency as i64)),
                    ])
                })
                .collect(),
        ),
        StaticRows::Inventory(rows) => Value::Array(
            rows.iter()
                .map(|r| {
                    Value::object(vec![
                        ("isa", Value::Str(r.isa.label().into())),
                        ("modelled", Value::Int(r.modelled as i64)),
                        ("paper", r.paper.map(|p| Value::Int(p as i64)).unwrap_or(Value::Null)),
                    ])
                })
                .collect(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use crate::json::Value;
    use crate::runner::{run, RunOptions};
    use crate::spec::ExperimentSpec;

    #[test]
    fn document_keeps_the_lane_backend_keys_perfbench_reads() {
        let spec = ExperimentSpec::builtin("table1", 1, true).expect("table1 is built in");
        let doc = run(&spec, &RunOptions::with_workers(1)).document_json();
        let meta = doc.get("meta").expect("meta present");
        for (section, key) in [("engine", "swar"), ("engine", "simd_feature"), ("host", "simd_active")] {
            let value = meta.get(section).and_then(|s| s.get(key));
            assert_eq!(value, Some(&Value::Bool(false)), "meta.{section}.{key}");
        }
    }

    /// Asserts that no object under `v` repeats a key: JSON readers disagree
    /// on which duplicate wins.
    fn assert_unique_keys(v: &Value, path: &str) {
        match v {
            Value::Object(members) => {
                for (i, (key, value)) in members.iter().enumerate() {
                    assert!(members[..i].iter().all(|(k, _)| k != key), "{path} repeats {key:?}");
                    assert_unique_keys(value, &format!("{path}.{key}"));
                }
            }
            Value::Array(items) => {
                for (i, item) in items.iter().enumerate() {
                    assert_unique_keys(item, &format!("{path}[{i}]"));
                }
            }
            _ => {}
        }
    }

    #[test]
    fn no_object_of_a_results_document_repeats_a_key() {
        let spec = ExperimentSpec::builtin("figure7", 1, true).expect("figure7 is built in");
        assert_unique_keys(&run(&spec, &RunOptions::with_workers(1)).results_json(), "$");
    }
}
