//! Comparing a fresh `BENCH_*.json` result with a saved baseline.
//!
//! **Tolerance 0 is the one exact comparison** ([`exact_diff`]): every
//! member but the host-dependent `meta`, in order, down to each leaf, with
//! numbers compared by value. It reports the first differing JSON path (for
//! example `cells[0].breakdown.mem-dram`) with both values, and it compares
//! static tables as well as grids. One rule is read from the inputs: a
//! top-level `sampling` section only the *new* document has is skipped with
//! a note, so a sampled run can be held to an exact one; a `sampling`
//! section only the baseline has is a difference.
//!
//! A tolerance above 0 ([`diff_documents`]) compares grid cells, matched
//! by their `(workload, config, way)` identity key, on cycles alone: growth
//! beyond the relative tolerance is a **regression**, shrinkage an
//! **improvement**; a cell only one document has fails the comparison too.
//! Documents of different grids (a different hash, fast flag or scale) are
//! an error, as different experiments are: comparing their cycles would be
//! meaningless.

use crate::json::Value;

/// Default relative cycle tolerance: 2%.
pub const DEFAULT_TOLERANCE: f64 = 0.02;

/// The outcome of the cycle comparison ([`diff_documents`]).
///
/// Regressions and cells only one document has fail it. The informational
/// lines — `throughput` and `sharing` from `meta`, `breakdown` share shifts
/// and `sampling` moves — never affect [`Diff::failed`]: they explain a
/// cycle change or keep simulator-performance changes visible in CI logs,
/// while wall-clock noise and sampling error stay out of the exit code.
#[derive(Debug, Clone, Default)]
pub struct Diff {
    /// Duplicate keys and unreadable cycle counts.
    pub warnings: Vec<String>,
    /// Cells whose cycles grew beyond the tolerance.
    pub regressions: Vec<String>,
    /// Cells whose cycles shrank beyond the tolerance.
    pub improvements: Vec<String>,
    /// Cells present in the baseline but absent from the new result.
    pub missing: Vec<String>,
    /// Cells present in the new result but absent from the baseline.
    pub added: Vec<String>,
    /// Cells within tolerance.
    pub unchanged: usize,
    /// Per-cell `insts_per_sec` deltas from the `meta.throughput` sections,
    /// present only when **both** documents carry them.
    pub throughput: Vec<String>,
    /// The functional-sharing factors of both `meta.shared_passes`
    /// sections, so a drop in the fan-out runner's amortization is visible
    /// next to the `insts_per_sec` deltas it would explain.
    pub sharing: Option<String>,
    /// Stall causes whose share of a cell's total cycles moved by at least
    /// one percentage point (from the per-cell `breakdown` objects).
    pub breakdown: Vec<String>,
    /// Cells whose sampled `ipc_mean` moved by more than the **union of
    /// both confidence intervals** (`|Δ| > ci_new + ci_base`); smaller moves
    /// are statistically indistinguishable at 95% confidence.
    pub sampling: Vec<String>,
}

impl Diff {
    /// Whether the comparison fails: a cell regressed, or only one of the
    /// two documents has it.
    pub fn failed(&self) -> bool {
        !(self.regressions.is_empty() && self.missing.is_empty() && self.added.is_empty())
    }
}

impl std::fmt::Display for Diff {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for w in &self.warnings {
            writeln!(f, "warning: {w}")?;
        }
        for r in &self.regressions {
            writeln!(f, "REGRESSION: {r}")?;
        }
        for i in &self.improvements {
            writeln!(f, "improvement: {i}")?;
        }
        for m in &self.missing {
            writeln!(f, "missing cell: {m}")?;
        }
        for a in &self.added {
            writeln!(f, "new cell: {a}")?;
        }
        for b in &self.breakdown {
            writeln!(f, "breakdown: {b}")?;
        }
        for s in &self.sampling {
            writeln!(f, "sampling: {s}")?;
        }
        for t in &self.throughput {
            writeln!(f, "throughput: {t}")?;
        }
        if let Some(s) = &self.sharing {
            writeln!(f, "sharing: {s}")?;
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

fn cell_key(cell: &Value) -> String {
    let field = |k: &str| cell.get(k).and_then(Value::as_str).unwrap_or("?").to_string();
    let way = cell.get("way").and_then(Value::as_i64).unwrap_or(-1);
    format!("{} / {} / {}-way", field("workload"), field("config"), way)
}

/// A document's cell-like entries indexed by `(workload, config, way)` key:
/// first-appearance order for deterministic iteration, a hash map for O(1)
/// lookup (the per-cell linear `find` this replaced made the diff
/// O(cells²)). Duplicate keys keep their **first** occurrence and push a
/// warning into `warnings` — silently comparing against the first of several
/// identical keys hid the later ones entirely.
struct CellIndex<'a> {
    ordered: Vec<(String, &'a Value)>,
    by_key: std::collections::HashMap<String, usize>,
}

impl<'a> CellIndex<'a> {
    fn build(entries: &'a [Value], which: &str, warnings: &mut Vec<String>) -> Self {
        let mut ordered: Vec<(String, &Value)> = Vec::with_capacity(entries.len());
        let mut by_key = std::collections::HashMap::with_capacity(entries.len());
        for entry in entries {
            let key = cell_key(entry);
            match by_key.entry(key.clone()) {
                std::collections::hash_map::Entry::Vacant(slot) => {
                    slot.insert(ordered.len());
                    ordered.push((key, entry));
                }
                std::collections::hash_map::Entry::Occupied(_) => warnings.push(format!(
                    "duplicate cell key `{key}` in {which} — first occurrence wins"
                )),
            }
        }
        Self { ordered, by_key }
    }

    fn get(&self, key: &str) -> Option<&'a Value> {
        self.by_key.get(key).map(|&i| self.ordered[i].1)
    }
}

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

/// Compare two `momlab/v1` grid documents on cycles — what `momlab diff
/// --tolerance T` runs for a `T` above 0.
///
/// # Errors
///
/// Returns an error when either document is not a grid result or when the
/// two documents describe different experiments or different grids.
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

    let mut diff = Diff::default();
    let [new_cells, base_cells] =
        [new, baseline].map(|doc| doc.get("cells").and_then(Value::as_array).unwrap_or_default());
    let base_index = CellIndex::build(base_cells, "the baseline document", &mut diff.warnings);
    let new_index = CellIndex::build(new_cells, "the new document", &mut diff.warnings);

    for (key, base_cell) in &base_index.ordered {
        let Some(new_cell) = new_index.get(key) else {
            diff.missing.push(key.clone());
            continue;
        };
        let old_cycles = base_cell.get("cycles").and_then(Value::as_f64).unwrap_or(f64::NAN);
        let new_cycles = new_cell.get("cycles").and_then(Value::as_f64).unwrap_or(f64::NAN);
        if !old_cycles.is_finite() || !new_cycles.is_finite() || old_cycles <= 0.0 {
            diff.warnings.push(format!("{key}: unreadable cycle counts"));
            continue;
        }
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
        diff.breakdown.extend(breakdown_shifts(key, new_cell, base_cell));
    }
    for (key, _) in &new_index.ordered {
        if base_index.get(key).is_none() {
            diff.added.push(key.clone());
        }
    }
    diff.throughput = throughput_deltas(new, baseline, &mut diff.warnings);
    diff.sharing = sharing_delta(new, baseline);
    diff.sampling = sampling_deltas(new, baseline, &mut diff.warnings);
    Ok(diff)
}

/// The entries of one keyed array section (`section` picks it from a
/// document) paired by cell key, in baseline order. Empty unless both
/// documents have entries; duplicate keys warn, naming `what`.
fn paired<'a>(
    new: &'a Value,
    baseline: &'a Value,
    section: impl Fn(&'a Value) -> Option<&'a Value>,
    what: &str,
    warnings: &mut Vec<String>,
) -> Vec<(String, &'a Value, &'a Value)> {
    let entries = |doc: &'a Value| section(doc).and_then(Value::as_array).unwrap_or_default();
    let (new_entries, base_entries) = (entries(new), entries(baseline));
    if new_entries.is_empty() || base_entries.is_empty() {
        return Vec::new();
    }
    let base_index = CellIndex::build(base_entries, &format!("baseline {what}"), warnings);
    let new_index = CellIndex::build(new_entries, &format!("new {what}"), warnings);
    let pairs = base_index.ordered.into_iter();
    pairs.filter_map(|(key, base)| Some((key.clone(), new_index.get(&key)?, base))).collect()
}

/// Informational sampled-IPC deltas between the top-level `sampling`
/// sections of two documents, matched by `(workload, config, way)`. A line
/// is emitted only when the means differ by more than the **union of both
/// 95% confidence intervals** — the coarsest test under which the two
/// estimates are distinguishable at all. Empty when either document lacks a
/// `sampling` section (exact-mode results).
fn sampling_deltas(new: &Value, baseline: &Value, warnings: &mut Vec<String>) -> Vec<String> {
    let section = |doc| Value::get(doc, "sampling").and_then(|s| s.get("cells"));
    let mut out = Vec::new();
    for (key, new_entry, base_entry) in paired(new, baseline, section, "sampling metadata", warnings) {
        let field = |e: &Value, k: &str| {
            e.get(k).and_then(Value::as_f64).filter(|v| v.is_finite())
        };
        let (Some(old_mean), Some(new_mean)) =
            (field(base_entry, "ipc_mean"), field(new_entry, "ipc_mean"))
        else {
            continue;
        };
        let old_ci = field(base_entry, "ipc_ci95").unwrap_or(0.0);
        let new_ci = field(new_entry, "ipc_ci95").unwrap_or(0.0);
        let delta = new_mean - old_mean;
        if delta.abs() > new_ci + old_ci {
            out.push(format!(
                "{key}: ipc {old_mean:.3}±{old_ci:.3} -> {new_mean:.3}±{new_ci:.3} \
                 ({delta:+.3}, outside both CIs)"
            ));
        }
    }
    out
}

/// Informational stall-attribution comparison between one cell's
/// `breakdown` objects: one line per cause whose share of the cell's total
/// cycles moved by at least one percentage point. Empty when either cell
/// lacks the object (pre-probe baselines). Never contributes to the exit
/// code — these lines explain cycle deltas, they don't gate on their own.
fn breakdown_shifts(key: &str, new_cell: &Value, base_cell: &Value) -> Vec<String> {
    let section = |cell: &Value| cell.get("breakdown").cloned();
    let (Some(new_b), Some(base_b)) = (section(new_cell), section(base_cell)) else {
        return Vec::new();
    };
    let total = |b: &Value| {
        b.get("total_cycles").and_then(Value::as_f64).filter(|&t| t > 0.0 && t.is_finite())
    };
    let (Some(new_total), Some(base_total)) = (total(&new_b), total(&base_b)) else {
        return Vec::new();
    };
    let Value::Object(members) = &new_b else { return Vec::new() };
    let mut out = Vec::new();
    for (cause, cycles) in members {
        if cause == "total_cycles" {
            continue;
        }
        let new_share = cycles.as_f64().unwrap_or(0.0) / new_total;
        let base_share =
            base_b.get(cause).and_then(Value::as_f64).unwrap_or(0.0) / base_total;
        let shift = (new_share - base_share) * 100.0;
        if shift.abs() >= 1.0 {
            out.push(format!(
                "{key}: {cause} share {:.1}% -> {:.1}% ({shift:+.1}pp)",
                base_share * 100.0,
                new_share * 100.0,
            ));
        }
    }
    out
}

/// Informational functional-sharing comparison between the
/// `meta.shared_passes` sections of two documents. `None` when either
/// document lacks the section (e.g. the committed `--results-only`
/// baselines). Never contributes to the exit code.
fn sharing_delta(new: &Value, baseline: &Value) -> Option<String> {
    let section = |doc: &Value| doc.get("meta").and_then(|m| m.get("shared_passes")).cloned();
    let (new_sp, base_sp) = (section(new)?, section(baseline)?);
    let field = |sp: &Value, k: &str| sp.get(k).and_then(Value::as_f64).filter(|v| v.is_finite());
    let new_factor = field(&new_sp, "sharing_factor")?;
    let base_factor = field(&base_sp, "sharing_factor")?;
    let passes = field(&new_sp, "functional_passes").unwrap_or(f64::NAN);
    let cells = field(&new_sp, "cells").unwrap_or(f64::NAN);
    Some(format!(
        "{passes:.0} functional passes for {cells:.0} cells ({new_factor:.2}x amortized) vs baseline {base_factor:.2}x"
    ))
}

/// Informational `insts_per_sec` deltas between the `meta.throughput`
/// sections of two documents, matched by `(workload, config, way)`. Empty
/// when either document lacks throughput metadata (e.g. the committed
/// `--results-only` baselines).
fn throughput_deltas(new: &Value, baseline: &Value, warnings: &mut Vec<String>) -> Vec<String> {
    let section = |doc| Value::get(doc, "meta").and_then(|m| m.get("throughput"));
    let mut out = Vec::new();
    for (key, new_entry, base_entry) in
        paired(new, baseline, section, "throughput metadata", warnings)
    {
        // A cell served from the persistent cache was never simulated, so its
        // `insts_per_sec` measures a file read — a delta against (or from) it
        // would be meaningless. Say so instead of printing a bogus ratio.
        let cached =
            |e: &Value| e.get("cached").and_then(Value::as_bool).unwrap_or(false);
        if cached(base_entry) || cached(new_entry) {
            out.push(format!("{key}: cached"));
            continue;
        }
        let ips = |e: &Value| e.get("insts_per_sec").and_then(Value::as_f64).unwrap_or(f64::NAN);
        let (old_ips, new_ips) = (ips(base_entry), ips(new_entry));
        if !old_ips.is_finite() || !new_ips.is_finite() || old_ips <= 0.0 {
            continue;
        }
        out.push(format!(
            "{key}: {:.1} -> {:.1} Minst/s ({:+.1}%)",
            old_ips / 1e6,
            new_ips / 1e6,
            (new_ips / old_ips - 1.0) * 100.0
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(cycles: i64, hash: &str) -> Value {
        Value::object(vec![
            ("experiment", Value::Str("figure5".into())),
            ("config_hash", Value::Str(hash.into())),
            ("fast", Value::Bool(false)),
            ("scale", Value::Int(1)),
            ("kind", Value::Str("grid".into())),
            (
                "cells",
                Value::Array(vec![Value::object(vec![
                    ("workload", Value::Str("idct".into())),
                    ("config", Value::Str("mom".into())),
                    ("way", Value::Int(4)),
                    ("cycles", Value::Int(cycles)),
                ])]),
            ),
        ])
    }

    #[test]
    fn identical_documents_have_no_findings() {
        let d = diff_documents(&doc(1000, "h"), &doc(1000, "h"), DEFAULT_TOLERANCE).unwrap();
        assert!(!d.failed());
        assert!(d.improvements.is_empty() && d.warnings.is_empty());
        assert_eq!(d.unchanged, 1);
    }

    fn doc_with_breakdown(total: i64, base: i64, mem_l1: i64) -> Value {
        Value::object(vec![
            ("experiment", Value::Str("figure5".into())),
            ("config_hash", Value::Str("h".into())),
            ("fast", Value::Bool(false)),
            ("scale", Value::Int(1)),
            ("kind", Value::Str("grid".into())),
            (
                "cells",
                Value::Array(vec![Value::object(vec![
                    ("workload", Value::Str("idct".into())),
                    ("config", Value::Str("mom".into())),
                    ("way", Value::Int(4)),
                    ("cycles", Value::Int(total)),
                    (
                        "breakdown",
                        Value::object(vec![
                            ("total_cycles", Value::Int(total)),
                            ("base", Value::Int(base)),
                            ("mem-l1", Value::Int(mem_l1)),
                        ]),
                    ),
                ])]),
            ),
        ])
    }

    #[test]
    fn breakdown_share_shifts_are_informational_only() {
        let new = doc_with_breakdown(1000, 600, 400);
        let base = doc_with_breakdown(1000, 700, 300);
        let d = diff_documents(&new, &base, DEFAULT_TOLERANCE).unwrap();
        assert!(!d.failed(), "share shifts never gate");
        assert_eq!(d.breakdown.len(), 2, "{:?}", d.breakdown);
        assert!(
            d.breakdown.iter().any(|l| l.contains("mem-l1") && l.contains("+10.0pp")),
            "{:?}",
            d.breakdown
        );
        assert!(format!("{d}").contains("breakdown: "));
        // Sub-point moves stay quiet; pre-probe baselines produce no lines.
        let d = diff_documents(&new, &new, DEFAULT_TOLERANCE).unwrap();
        assert!(d.breakdown.is_empty(), "{:?}", d.breakdown);
        let d = diff_documents(&new, &doc(1000, "h"), DEFAULT_TOLERANCE).unwrap();
        assert!(d.breakdown.is_empty(), "{:?}", d.breakdown);
    }

    #[test]
    fn cycle_growth_beyond_tolerance_is_a_regression() {
        let d = diff_documents(&doc(1100, "h"), &doc(1000, "h"), 0.02).unwrap();
        assert!(d.failed());
        assert!(d.regressions[0].contains("idct / mom / 4-way"), "{:?}", d.regressions);
        // Within tolerance: no finding.
        let d = diff_documents(&doc(1010, "h"), &doc(1000, "h"), 0.02).unwrap();
        assert!(!d.failed());
        // Shrinkage: improvement.
        let d = diff_documents(&doc(900, "h"), &doc(1000, "h"), 0.02).unwrap();
        assert!(!d.failed());
        assert_eq!(d.improvements.len(), 1);
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

    fn with_throughput(mut document: Value, ips: f64) -> Value {
        let meta = Value::object(vec![(
            "throughput",
            Value::Array(vec![Value::object(vec![
                ("workload", Value::Str("idct".into())),
                ("config", Value::Str("mom".into())),
                ("way", Value::Int(4)),
                ("insts_per_sec", Value::Float(ips)),
            ])]),
        )]);
        if let Value::Object(members) = &mut document {
            members.push(("meta".into(), meta));
        }
        document
    }

    #[test]
    fn throughput_deltas_are_informational_only() {
        // Twice the throughput at identical cycles: the delta is reported
        // but the diff stays clean (throughput never gates).
        let new = with_throughput(doc(1000, "h"), 20e6);
        let base = with_throughput(doc(1000, "h"), 10e6);
        let d = diff_documents(&new, &base, DEFAULT_TOLERANCE).unwrap();
        assert!(!d.failed());
        assert_eq!(d.throughput.len(), 1);
        assert!(d.throughput[0].contains("10.0 -> 20.0 Minst/s"), "{:?}", d.throughput);
        assert!(d.throughput[0].contains("+100.0%"), "{:?}", d.throughput);
        assert!(format!("{d}").contains("throughput: idct / mom / 4-way"));

        // Halved throughput is still not a regression — cycles gate, wall
        // clock informs.
        let d = diff_documents(&base, &new, DEFAULT_TOLERANCE).unwrap();
        assert!(!d.failed());
        assert!(d.throughput[0].contains("-50.0%"), "{:?}", d.throughput);
    }

    #[test]
    fn throughput_section_is_absent_without_meta() {
        // The committed --results-only baselines carry no meta: no lines.
        let d = diff_documents(&with_throughput(doc(1000, "h"), 20e6), &doc(1000, "h"), 0.02)
            .unwrap();
        assert!(d.throughput.is_empty());
        let d = diff_documents(&doc(1000, "h"), &with_throughput(doc(1000, "h"), 20e6), 0.02)
            .unwrap();
        assert!(d.throughput.is_empty());
    }

    fn with_sharing(mut document: Value, passes: i64, cells: i64, factor: f64) -> Value {
        let sp = Value::object(vec![(
            "shared_passes",
            Value::object(vec![
                ("cells", Value::Int(cells)),
                ("functional_passes", Value::Int(passes)),
                ("sharing_factor", Value::Float(factor)),
            ]),
        )]);
        if let Value::Object(members) = &mut document {
            members.push(("meta".into(), sp));
        }
        document
    }

    #[test]
    fn sharing_factor_is_reported_when_both_documents_carry_it() {
        let new = with_sharing(doc(1000, "h"), 4, 16, 4.0);
        let base = with_sharing(doc(1000, "h"), 16, 16, 1.0);
        let d = diff_documents(&new, &base, DEFAULT_TOLERANCE).unwrap();
        assert!(!d.failed(), "sharing never gates");
        let line = d.sharing.as_deref().expect("sharing line present");
        assert!(line.contains("4 functional passes for 16 cells"), "{line}");
        assert!(line.contains("4.00x"), "{line}");
        assert!(line.contains("baseline 1.00x"), "{line}");
        assert!(format!("{d}").contains("sharing: "));
        // Either side missing the section: no line (the committed
        // --results-only baselines carry no meta).
        let d = diff_documents(&new, &doc(1000, "h"), DEFAULT_TOLERANCE).unwrap();
        assert!(d.sharing.is_none());
        let d = diff_documents(&doc(1000, "h"), &base, DEFAULT_TOLERANCE).unwrap();
        assert!(d.sharing.is_none());
    }

    fn with_sampling(mut document: Value, mean: f64, ci: f64) -> Value {
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
        if let Value::Object(members) = &mut document {
            members.push(("sampling".into(), sampling));
        }
        document
    }

    #[test]
    fn sampling_deltas_use_the_union_of_both_cis() {
        // Means 1.5±0.2 vs 2.0±0.1: |Δ| = 0.5 > 0.3, distinguishable.
        let new = with_sampling(doc(1000, "h"), 2.0, 0.1);
        let base = with_sampling(doc(1000, "h"), 1.5, 0.2);
        let d = diff_documents(&new, &base, DEFAULT_TOLERANCE).unwrap();
        assert!(!d.failed(), "sampling lines never gate");
        assert_eq!(d.sampling.len(), 1, "{:?}", d.sampling);
        assert!(d.sampling[0].contains("1.500±0.200 -> 2.000±0.100"), "{:?}", d.sampling);
        assert!(d.sampling[0].contains("+0.500"), "{:?}", d.sampling);
        assert!(format!("{d}").contains("sampling: idct / mom / 4-way"));

        // A move inside the CI union is statistically indistinguishable.
        let close = with_sampling(doc(1000, "h"), 1.55, 0.1);
        let d = diff_documents(&close, &base, DEFAULT_TOLERANCE).unwrap();
        assert!(d.sampling.is_empty(), "{:?}", d.sampling);

        // Either side lacking the section (exact-mode results): no lines.
        let d = diff_documents(&new, &doc(1000, "h"), DEFAULT_TOLERANCE).unwrap();
        assert!(d.sampling.is_empty());
        let d = diff_documents(&doc(1000, "h"), &base, DEFAULT_TOLERANCE).unwrap();
        assert!(d.sampling.is_empty());
    }

    #[test]
    fn duplicate_cell_keys_warn_and_first_occurrence_wins() {
        // Two cells with the same (workload, config, way) key: the linear
        // scan this module used to do silently matched the first one. The
        // keyed index keeps that first-occurrence behaviour but warns.
        let mut dup = doc(1000, "h");
        if let Value::Object(members) = &mut dup {
            if let Some((_, Value::Array(cells))) = members.iter_mut().find(|(k, _)| k == "cells") {
                cells.push(Value::object(vec![
                    ("workload", Value::Str("idct".into())),
                    ("config", Value::Str("mom".into())),
                    ("way", Value::Int(4)),
                    ("cycles", Value::Int(9999)),
                ]));
            }
        }
        let d = diff_documents(&dup, &doc(1000, "h"), 0.02).unwrap();
        let warning = d
            .warnings
            .iter()
            .find(|w| w.contains("duplicate cell key"))
            .expect("duplicate key warned");
        assert!(warning.contains("idct / mom / 4-way"), "{warning}");
        assert!(warning.contains("the new document"), "{warning}");
        // The first occurrence (1000 cycles, identical to baseline) is the
        // one compared — the shadowed 9999-cycle duplicate does not regress.
        assert!(!d.failed(), "{:?}", d.regressions);
        assert_eq!(d.unchanged, 1);
        assert!(d.added.is_empty() && d.missing.is_empty());

        // Duplicate in the baseline document warns with the other label.
        let d = diff_documents(&doc(1000, "h"), &dup, 0.02).unwrap();
        assert!(
            d.warnings.iter().any(|w| w.contains("the baseline document")),
            "{:?}",
            d.warnings
        );
        assert!(!d.failed());
    }

    #[test]
    fn duplicate_throughput_keys_warn_without_gating() {
        fn with_dup_throughput(mut document: Value) -> Value {
            let entry = |ips: f64| {
                Value::object(vec![
                    ("workload", Value::Str("idct".into())),
                    ("config", Value::Str("mom".into())),
                    ("way", Value::Int(4)),
                    ("insts_per_sec", Value::Float(ips)),
                ])
            };
            let meta =
                Value::object(vec![("throughput", Value::Array(vec![entry(10e6), entry(99e6)]))]);
            if let Value::Object(members) = &mut document {
                members.push(("meta".into(), meta));
            }
            document
        }
        let d = diff_documents(
            &with_dup_throughput(doc(1000, "h")),
            &with_throughput(doc(1000, "h"), 10e6),
            0.02,
        )
        .unwrap();
        assert!(
            d.warnings.iter().any(|w| w.contains("new throughput metadata")),
            "{:?}",
            d.warnings
        );
        // First occurrence wins: 10 -> 10 Minst/s, not 99.
        assert!(d.throughput[0].contains("10.0 -> 10.0 Minst/s"), "{:?}", d.throughput);
        assert!(!d.failed());
    }

    #[test]
    fn added_and_missing_cells_are_reported() {
        let mut bigger = doc(1000, "h");
        if let Value::Object(members) = &mut bigger {
            if let Some((_, Value::Array(cells))) = members.iter_mut().find(|(k, _)| k == "cells") {
                cells.push(Value::object(vec![
                    ("workload", Value::Str("addblock".into())),
                    ("config", Value::Str("mom".into())),
                    ("way", Value::Int(8)),
                    ("cycles", Value::Int(5)),
                ]));
            }
        }
        let d = diff_documents(&bigger, &doc(1000, "h"), 0.02).unwrap();
        assert_eq!(d.added.len(), 1);
        assert!(d.failed() && d.regressions.is_empty());
        let d = diff_documents(&doc(1000, "h"), &bigger, 0.02).unwrap();
        assert_eq!(d.missing.len(), 1);
        assert!(d.failed());
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
        let new = with_sharing(with_throughput(doc(1000, "h"), 20e6), 4, 16, 4.0);
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
