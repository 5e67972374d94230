//! Comparing a fresh `BENCH_*.json` result with a saved baseline.
//!
//! **Tolerance 0, the default, is the one exact comparison**
//! ([`exact_diff`]): every member but the host-dependent `meta`, in order,
//! down to each leaf, with numbers compared by value. It reports the first
//! differing JSON path (for example `cells[0].breakdown.mem-dram`) with both
//! values, and it compares static tables as well as grids. One rule is read
//! from the inputs: a top-level `sampling` section only the *new* document
//! has is skipped with a note, so a sampled run can be held to an exact one;
//! a `sampling` section only the baseline has is a difference.
//!
//! A tolerance above 0 ([`diff_documents`]) compares the `cycles` of two
//! runs of one grid, cell by cell: growth beyond the relative tolerance is a
//! **regression**, shrinkage an **improvement**. Both documents come from
//! the same cell list (equal `config_hash`), so their `cells` arrays pair by
//! index; a pair whose `(workload, config, way)` differs, or a cell only one
//! array has, fails the comparison. Documents of different grids (a
//! different hash, fast flag or scale) are an error, as different
//! experiments are: comparing their cycles would be meaningless.

use crate::json::Value;

/// The outcome of the exact comparison ([`exact_diff`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Exact {
    /// Whether a `sampling` section only the new document has was skipped.
    pub skipped_sampling: bool,
    /// The first differing member: its JSON path and both values, one line.
    pub difference: Option<String>,
}

impl std::fmt::Display for Exact {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.skipped_sampling {
            writeln!(f, "note: skipped the `sampling` section only the new document has")?;
        }
        match &self.difference {
            Some(d) => writeln!(f, "DIFFERS at {d}"),
            None => writeln!(f, "identical: every member but meta"),
        }
    }
}

/// Both documents must be momlab results of the same experiment.
fn check_experiments(new: &Value, baseline: &Value) -> Result<(), String> {
    let name = |doc: &Value| doc.get("experiment").and_then(Value::as_str).map(str::to_string);
    match (name(new), name(baseline)) {
        (Some(a), Some(b)) if a != b => {
            Err(format!("experiment mismatch: new is {a:?}, baseline is {b:?}"))
        }
        (Some(_), Some(_)) => Ok(()),
        _ => Err("not a momlab result document (missing \"experiment\")".into()),
    }
}

/// Compare two `momlab/v1` documents exactly — what `momlab diff
/// --tolerance 0` runs, and the comparison every equality gate shares.
///
/// Every top-level member but `meta` is compared, in order, down to each
/// leaf. A `sampling` section only `new` has is skipped with a note.
///
/// # Errors
///
/// Returns an error when either document is not a momlab result or when the
/// two describe different experiments.
pub fn exact_diff(new: &Value, baseline: &Value) -> Result<Exact, String> {
    check_experiments(new, baseline)?;
    let skipped_sampling = new.get("sampling").is_some() && baseline.get("sampling").is_none();
    let kept = |(k, _): &&(String, Value)| k != "meta" && !(skipped_sampling && k == "sampling");
    let results = |doc: &Value| match doc {
        Value::Object(members) => Value::Object(members.iter().filter(kept).cloned().collect()),
        other => other.clone(),
    };
    let difference = first_difference("", &results(new), &results(baseline));
    Ok(Exact { skipped_sampling, difference })
}

/// One line of text for a value in a report, cut to a readable length.
fn brief(value: &Value) -> String {
    let text = value.to_compact();
    text.char_indices().nth(80).map_or(text.clone(), |(cut, _)| format!("{}...", &text[..cut]))
}

/// The first path at which `new` and `baseline` differ, with both values.
fn first_difference(path: &str, new: &Value, baseline: &Value) -> Option<String> {
    let at = |p: &str, a: &str, b: &str| Some(format!("{p}: new {a}, baseline {b}"));
    let text = |v: Option<&Value>| v.map_or("absent".to_string(), brief);
    let member = |key: &str| format!("{path}{}{key}", if path.is_empty() { "" } else { "." });
    match (new, baseline) {
        (Value::Array(a), Value::Array(b)) => (0..a.len().max(b.len())).find_map(|i| {
            let p = format!("{path}[{i}]");
            match (a.get(i), b.get(i)) {
                (Some(x), Some(y)) => first_difference(&p, x, y),
                (x, y) => at(&p, &text(x), &text(y)),
            }
        }),
        (Value::Object(a), Value::Object(b)) => {
            (0..a.len().max(b.len())).find_map(|i| match (a.get(i), b.get(i)) {
                (Some((ka, x)), Some((kb, y))) if ka == kb => first_difference(&member(ka), x, y),
                (Some((ka, _)), Some((kb, _))) => {
                    let container = if path.is_empty() { "top level" } else { path };
                    at(&format!("{container} key {i}"), ka, kb)
                }
                (Some((k, x)), None) => at(&member(k), &brief(x), "absent"),
                (None, Some((k, y))) => at(&member(k), "absent", &brief(y)),
                (None, None) => None,
            })
        }
        _ if new == baseline => None,
        _ => at(path, &brief(new), &brief(baseline)),
    }
}


/// The outcome of the cycle comparison ([`diff_documents`]).
#[derive(Debug, Clone, Default)]
pub struct Diff {
    /// Cells whose cycles grew beyond the tolerance, and pairs that are not
    /// the same cell (a different identity, or a cell only one document has).
    pub regressions: Vec<String>,
    /// Cells whose cycles shrank beyond the tolerance.
    pub improvements: Vec<String>,
    /// Cells within tolerance.
    pub unchanged: usize,
}

impl Diff {
    /// Whether the comparison fails: a regression or an unpaired cell.
    pub fn failed(&self) -> bool {
        !self.regressions.is_empty()
    }
}

impl std::fmt::Display for Diff {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for r in &self.regressions {
            writeln!(f, "REGRESSION: {r}")?;
        }
        for i in &self.improvements {
            writeln!(f, "improvement: {i}")?;
        }
        writeln!(
            f,
            "{} regression(s), {} improvement(s), {} unchanged cell(s)",
            self.regressions.len(),
            self.improvements.len(),
            self.unchanged
        )
    }
}

/// A cell's `(workload, config, way)` identity, as the report names it.
fn cell_key(cell: &Value) -> String {
    let field = |k: &str| cell.get(k).and_then(Value::as_str).unwrap_or("?").to_string();
    let way = cell.get("way").and_then(Value::as_i64).unwrap_or(-1);
    format!("{} / {} / {}-way", field("workload"), field("config"), way)
}

/// Compare two `momlab/v1` grid documents on cycles — what `momlab diff
/// --tolerance T` runs for a `T` above 0.
///
/// # Errors
///
/// Returns an error when either document is not a grid result with a
/// `cells` array of readable cycle counts, or when the two documents
/// describe different experiments or different grids.
pub fn diff_documents(new: &Value, baseline: &Value, tolerance: f64) -> Result<Diff, String> {
    let kind = |doc: &Value| doc.get("kind").and_then(Value::as_str).map(str::to_string);
    check_experiments(new, baseline)?;
    if kind(new).as_deref() != Some("grid") || kind(baseline).as_deref() != Some("grid") {
        return Err("a tolerance above 0 compares grid cells; compare static tables at 0".into());
    }

    let text = |v: Option<&Value>| v.map_or("absent".to_string(), Value::to_compact);
    let drift: Vec<String> = ["config_hash", "fast", "scale"]
        .into_iter()
        .filter(|&field| new.get(field) != baseline.get(field))
        .map(|field| {
            format!("{field} new {}, baseline {}", text(new.get(field)), text(baseline.get(field)))
        })
        .collect();
    if !drift.is_empty() {
        return Err(format!(
            "different grids ({}): a tolerance above 0 compares the cells of one grid",
            drift.join("; ")
        ));
    }

    let [new_cells, base_cells] = [(new, "new document"), (baseline, "baseline")].map(|(doc, of)| {
        doc.get("cells").and_then(Value::as_array).ok_or(format!("the {of} has no cells array"))
    });
    let (new_cells, base_cells) = (new_cells?, base_cells?);
    let cycles = |cell: &Value| {
        cell.get("cycles").and_then(Value::as_f64).filter(|c| c.is_finite() && *c > 0.0)
    };
    let mut diff = Diff::default();
    for (i, (new_cell, base_cell)) in new_cells.iter().zip(base_cells).enumerate() {
        let (key, new_key) = (cell_key(base_cell), cell_key(new_cell));
        if new_key != key {
            let line = format!("cells[{i}]: new {new_key}, baseline {key}: not the same cell");
            diff.regressions.push(line);
            continue;
        }
        let (Some(old_cycles), Some(new_cycles)) = (cycles(base_cell), cycles(new_cell)) else {
            return Err(format!("cells[{i}] ({key}): unreadable cycle counts"));
        };
        let ratio = new_cycles / old_cycles;
        if ratio > 1.0 + tolerance {
            diff.regressions.push(format!(
                "{key}: cycles {old_cycles:.0} -> {new_cycles:.0} (+{:.1}%)",
                (ratio - 1.0) * 100.0
            ));
        } else if ratio < 1.0 - tolerance {
            diff.improvements.push(format!(
                "{key}: cycles {old_cycles:.0} -> {new_cycles:.0} ({:.1}%)",
                (ratio - 1.0) * 100.0
            ));
        } else {
            diff.unchanged += 1;
        }
    }
    if new_cells.len() != base_cells.len() {
        diff.regressions.push(format!(
            "cells: new has {}, baseline {}: a cell only one document has",
            new_cells.len(),
            base_cells.len()
        ));
    }
    Ok(diff)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(workload: &str, config: &str, way: i64, cycles: i64) -> Value {
        Value::object(vec![
            ("workload", Value::Str(workload.into())),
            ("config", Value::Str(config.into())),
            ("way", Value::Int(way)),
            ("cycles", Value::Int(cycles)),
        ])
    }

    fn grid(hash: &str, cells: Vec<Value>) -> Value {
        Value::object(vec![
            ("experiment", Value::Str("figure5".into())),
            ("config_hash", Value::Str(hash.into())),
            ("fast", Value::Bool(false)),
            ("scale", Value::Int(1)),
            ("kind", Value::Str("grid".into())),
            ("cells", Value::Array(cells)),
        ])
    }

    fn doc(cycles: i64, hash: &str) -> Value {
        grid(hash, vec![cell("idct", "mom", 4, cycles)])
    }

    /// `document` with `member` appended at the top level.
    fn with(mut document: Value, member: &str, value: Value) -> Value {
        if let Value::Object(members) = &mut document {
            members.push((member.into(), value));
        }
        document
    }

    #[test]
    fn identical_documents_have_no_findings() {
        let d = diff_documents(&doc(1000, "h"), &doc(1000, "h"), 0.02).unwrap();
        assert!(!d.failed());
        assert!(d.improvements.is_empty());
        assert_eq!(d.unchanged, 1);
        assert_eq!(format!("{d}"), "0 regression(s), 0 improvement(s), 1 unchanged cell(s)\n");
    }

    fn doc_with_breakdown(total: i64, base: i64, mem_l1: i64) -> Value {
        let breakdown = Value::object(vec![
            ("total_cycles", Value::Int(total)),
            ("base", Value::Int(base)),
            ("mem-l1", Value::Int(mem_l1)),
        ]);
        let Value::Object(mut members) = cell("idct", "mom", 4, total) else { unreachable!() };
        members.push(("breakdown".into(), breakdown));
        grid("h", vec![Value::Object(members)])
    }

    fn with_sampling(document: Value, mean: f64, ci: f64) -> Value {
        let sampling = Value::object(vec![
            ("unit_insts", Value::Int(1000)),
            ("warmup_insts", Value::Int(2000)),
            ("period", Value::Int(100_000)),
            (
                "cells",
                Value::Array(vec![Value::object(vec![
                    ("workload", Value::Str("idct".into())),
                    ("config", Value::Str("mom".into())),
                    ("way", Value::Int(4)),
                    ("ipc_mean", Value::Float(mean)),
                    ("ipc_ci95", Value::Float(ci)),
                ])]),
            ),
        ]);
        with(document, "sampling", sampling)
    }

    #[test]
    fn only_cycles_are_compared_above_0() {
        // Equal cycles, everything else moved: a breakdown share, a sampled
        // IPC estimate and the host-dependent meta. Only the summary prints.
        let meta = |ips: f64| {
            Value::object(vec![("sim_wall_ns", Value::Int(1000)), ("ips", Value::Float(ips))])
        };
        let new =
            with(with_sampling(doc_with_breakdown(1000, 600, 400), 2.0, 0.1), "meta", meta(2e7));
        let base =
            with(with_sampling(doc_with_breakdown(1000, 700, 300), 1.5, 0.1), "meta", meta(1e7));
        let d = diff_documents(&new, &base, 0.02).unwrap();
        assert!(!d.failed());
        assert_eq!(format!("{d}"), "0 regression(s), 0 improvement(s), 1 unchanged cell(s)\n");
    }

    #[test]
    fn cycle_growth_beyond_tolerance_is_a_regression() {
        let d = diff_documents(&doc(1100, "h"), &doc(1000, "h"), 0.02).unwrap();
        assert!(d.failed());
        assert_eq!(d.regressions, ["idct / mom / 4-way: cycles 1000 -> 1100 (+10.0%)"]);
        // Within tolerance: no finding.
        let d = diff_documents(&doc(1010, "h"), &doc(1000, "h"), 0.02).unwrap();
        assert!(!d.failed());
        // Shrinkage: improvement.
        let d = diff_documents(&doc(900, "h"), &doc(1000, "h"), 0.02).unwrap();
        assert!(!d.failed());
        assert_eq!(d.improvements, ["idct / mom / 4-way: cycles 1000 -> 900 (-10.0%)"]);
    }

    #[test]
    fn grid_drift_is_an_error() {
        let err = diff_documents(&doc(1000, "a"), &doc(1000, "b"), 0.02).unwrap_err();
        assert_eq!(
            err,
            r#"different grids (config_hash new "a", baseline "b"): a tolerance above 0 compares the cells of one grid"#
        );
    }

    #[test]
    fn mismatched_experiments_are_an_error() {
        let mut other = doc(1000, "h");
        if let Value::Object(members) = &mut other {
            members[0].1 = Value::Str("figure7".into());
        }
        assert!(diff_documents(&other, &doc(1000, "h"), 0.02).is_err());
        assert!(diff_documents(&Value::Null, &doc(1000, "h"), 0.02).is_err());
    }

    #[test]
    fn a_grid_without_cells_or_cycles_is_an_error() {
        let Value::Object(mut members) = doc(1000, "h") else { unreachable!() };
        members.retain(|(k, _)| k != "cells");
        let bare = Value::Object(members);
        let err = diff_documents(&bare, &doc(1000, "h"), 0.02).unwrap_err();
        assert_eq!(err, "the new document has no cells array");
        let err = diff_documents(&doc(1000, "h"), &bare, 0.02).unwrap_err();
        assert_eq!(err, "the baseline has no cells array");
        let err = diff_documents(&doc(0, "h"), &doc(1000, "h"), 0.02).unwrap_err();
        assert_eq!(err, "cells[0] (idct / mom / 4-way): unreadable cycle counts");
    }

    #[test]
    fn cells_pair_by_index_and_a_different_identity_fails() {
        let cells =
            |a: &str, b: &str| grid("h", vec![cell(a, "mom", 4, 1000), cell(b, "mom", 4, 1000)]);
        let d = diff_documents(&cells("idct", "sad"), &cells("idct", "sad"), 0.02).unwrap();
        assert_eq!(d.unchanged, 2);
        let d = diff_documents(&cells("sad", "idct"), &cells("idct", "sad"), 0.02).unwrap();
        assert!(d.failed());
        assert_eq!(d.unchanged, 0);
        assert_eq!(
            d.regressions[0],
            "cells[0]: new sad / mom / 4-way, baseline idct / mom / 4-way: not the same cell"
        );
        assert_eq!(d.regressions.len(), 2);
    }

    #[test]
    fn added_and_missing_cells_are_reported() {
        let bigger = grid("h", vec![cell("idct", "mom", 4, 1000), cell("addblock", "mom", 8, 5)]);
        let line = |new, base| {
            format!("cells: new has {new}, baseline {base}: a cell only one document has")
        };
        let d = diff_documents(&bigger, &doc(1000, "h"), 0.02).unwrap();
        assert!(d.failed());
        assert_eq!((d.regressions, d.unchanged), (vec![line(2, 1)], 1));
        let d = diff_documents(&doc(1000, "h"), &bigger, 0.02).unwrap();
        assert_eq!((d.regressions, d.unchanged), (vec![line(1, 2)], 1));
    }

    #[test]
    fn exact_diff_names_the_first_differing_leaf_and_both_values() {
        let same =
            exact_diff(&doc_with_breakdown(1000, 600, 400), &doc_with_breakdown(1000, 600, 400));
        assert_eq!(same.unwrap(), Exact::default());
        // Equal cycles, one cycle moved between causes: the cycle diff sees
        // nothing, the exact diff names the path.
        let (new, base) = (doc_with_breakdown(1000, 599, 401), doc_with_breakdown(1000, 600, 400));
        assert!(!diff_documents(&new, &base, 0.02).unwrap().failed());
        let exact = exact_diff(&new, &base).unwrap();
        let line = exact.difference.as_deref().expect("a difference");
        assert_eq!(line, "cells[0].breakdown.base: new 599, baseline 600");
        assert_eq!(format!("{exact}"), format!("DIFFERS at {line}\n"));
    }

    #[test]
    fn exact_diff_skips_meta_and_compares_numbers_by_value() {
        let meta = Value::object(vec![("sim_wall_ns", Value::Int(1000))]);
        let new = with(doc(1000, "h"), "meta", meta);
        assert_eq!(exact_diff(&new, &doc(1000, "h")).unwrap(), Exact::default());
        let mut float = doc(1000, "h");
        if let Value::Object(members) = &mut float {
            members[3].1 = Value::Float(1.0);
        }
        assert_eq!(exact_diff(&float, &doc(1000, "h")).unwrap(), Exact::default());
        let d = exact_diff(&doc(1000, "a"), &doc(1000, "b")).unwrap();
        assert_eq!(d.difference.as_deref(), Some(r#"config_hash: new "a", baseline "b""#));
    }

    #[test]
    fn exact_diff_reports_missing_extra_and_reordered_members() {
        let cell = |way: i64| {
            Value::object(vec![("workload", Value::Str("idct".into())), ("way", Value::Int(way))])
        };
        let grid = |cells: Vec<Value>| {
            Value::object(vec![
                ("experiment", Value::Str("figure5".into())),
                ("cells", Value::Array(cells)),
            ])
        };
        let d = exact_diff(&grid(vec![cell(4)]), &grid(vec![cell(4), cell(8)])).unwrap();
        assert_eq!(
            d.difference.as_deref(),
            Some(r#"cells[1]: new absent, baseline {"workload":"idct","way":8}"#)
        );
        let swapped =
            Value::object(vec![("way", Value::Int(4)), ("workload", Value::Str("idct".into()))]);
        let d = exact_diff(&grid(vec![swapped]), &grid(vec![cell(4)])).unwrap();
        assert_eq!(d.difference.as_deref(), Some("cells[0] key 0: new way, baseline workload"));
        let mut extra = grid(vec![cell(4)]);
        if let Value::Object(members) = &mut extra {
            members.push(("note".into(), Value::Str("x".into())));
        }
        let d = exact_diff(&extra, &grid(vec![cell(4)])).unwrap();
        assert_eq!(d.difference.as_deref(), Some(r#"note: new "x", baseline absent"#));
    }

    #[test]
    fn exact_diff_compares_static_tables() {
        let table = |rob: i64| {
            Value::object(vec![
                ("experiment", Value::Str("table1".into())),
                ("kind", Value::Str("static".into())),
                (
                    "rows",
                    Value::Array(vec![Value::object(vec![
                        ("way", Value::Int(1)),
                        ("rob", Value::Int(rob)),
                    ])]),
                ),
            ])
        };
        assert!(
            diff_documents(&table(8), &table(8), 0.02).is_err(),
            "the cycle diff takes grids only"
        );
        assert_eq!(exact_diff(&table(8), &table(8)).unwrap(), Exact::default());
        let d = exact_diff(&table(16), &table(8)).unwrap();
        assert_eq!(d.difference.as_deref(), Some("rows[0].rob: new 16, baseline 8"));
    }

    #[test]
    fn a_sampling_section_only_the_new_document_has_is_skipped_with_a_note() {
        let sampled = with_sampling(doc(1000, "h"), 2.0, 0.1);
        let d = exact_diff(&sampled, &doc(1000, "h")).unwrap();
        assert_eq!(d.difference, None);
        assert!(d.skipped_sampling);
        assert!(format!("{d}").starts_with("note: skipped the `sampling` section only"), "{d}");
        // The reverse is a difference, and two sampled documents compare
        // their sections.
        let d = exact_diff(&doc(1000, "h"), &sampled).unwrap();
        assert!(!d.skipped_sampling);
        assert!(
            d.difference.as_deref().unwrap().starts_with("sampling: new absent, baseline {"),
            "{d}"
        );
        let other = with_sampling(doc(1000, "h"), 2.5, 0.1);
        let d = exact_diff(&other, &sampled).unwrap();
        assert_eq!(
            d.difference.as_deref(),
            Some("sampling.cells[0].ipc_mean: new 2.5, baseline 2")
        );
    }

    #[test]
    fn exact_diff_refuses_documents_of_different_experiments() {
        let mut other = doc(1000, "h");
        if let Value::Object(members) = &mut other {
            members[0].1 = Value::Str("figure7".into());
        }
        assert!(exact_diff(&other, &doc(1000, "h")).unwrap_err().contains("experiment mismatch"));
        assert!(exact_diff(&Value::Null, &doc(1000, "h")).is_err());
    }
}
