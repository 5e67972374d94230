//! End-to-end tests of the `momlab` binary: what a user types, spawned as a
//! real process, with its stdout checked against the golden files under
//! `tests/golden/` (the experiment tables captured from the historic
//! per-experiment binaries with `MOM_BENCH_FAST=1` and scale 1; the
//! `diff_*` files pin what `momlab diff --tolerance 0.02` prints).
//!
//! Cargo builds the package's binaries before its integration tests and
//! exposes their paths through `CARGO_BIN_EXE_<name>`.

use std::ffi::OsStr;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use mom_lab::json::Value;

fn momlab<S: AsRef<OsStr>>(args: &[S]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_momlab"))
        .args(args)
        .env("MOM_BENCH_FAST", "1")
        .output()
        .expect("failed to spawn momlab")
}

/// `momlab run <name> --no-json --workers 1` in fast mode; returns stdout.
fn run_stdout(name: &str) -> String {
    let output = momlab(&["run", name, "--no-json", "--workers", "1"]);
    assert!(
        output.status.success(),
        "momlab run {name} exited with {:?}; stderr:\n{}",
        output.status.code(),
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("momlab prints UTF-8")
}

/// The static tables print exactly the golden text.
fn check_exact(name: &str, golden: &str) {
    assert_eq!(
        run_stdout(name),
        golden,
        "momlab run {name}: stdout drifted from the golden file"
    );
}

/// Grid experiments print the golden text, then the stall-breakdown stack.
fn check_prefix(name: &str, golden: &str) {
    let stdout = run_stdout(name);
    assert!(
        stdout.starts_with(golden),
        "momlab run {name}: stdout does not start with the golden file:\n{stdout}"
    );
    assert!(
        stdout.len() > golden.len(),
        "momlab run {name}: no stall-breakdown stack"
    );
}

#[test]
fn table1_stdout_is_the_golden_file() {
    check_exact("table1", include_str!("golden/table1_fast.txt"));
}

#[test]
fn table2_stdout_is_the_golden_file() {
    check_exact("table2", include_str!("golden/table2_fast.txt"));
}

#[test]
fn table3_stdout_is_the_golden_file() {
    check_exact("table3", include_str!("golden/table3_fast.txt"));
}

#[test]
fn isa_inventory_stdout_is_the_golden_file() {
    check_exact(
        "isa_inventory",
        include_str!("golden/isa_inventory_fast.txt"),
    );
}

#[test]
fn figure5_stdout_starts_with_the_golden_file() {
    check_prefix("figure5", include_str!("golden/figure5_fast.txt"));
}

#[test]
fn figure7_stdout_starts_with_the_golden_file() {
    check_prefix("figure7", include_str!("golden/figure7_fast.txt"));
}

#[test]
fn latency_tolerance_stdout_starts_with_the_golden_file() {
    check_prefix(
        "latency_tolerance",
        include_str!("golden/latency_tolerance_fast.txt"),
    );
}

/// What `momlab --help` lists: each command's words, and each flag with
/// its value's metavar (empty for a switch) and the commands of its table.
struct Help {
    commands: Vec<String>,
    flags: Vec<(String, String, Vec<String>)>,
}

fn help() -> Help {
    let output = momlab(&["--help"]);
    assert!(output.status.success());
    let text = String::from_utf8(output.stdout).expect("momlab prints UTF-8");
    let mut help = Help { commands: Vec::new(), flags: Vec::new() };
    let mut section = "";
    let mut owners: Vec<String> = Vec::new();
    for line in text.lines() {
        if let Some(heading) = line.strip_suffix(':').filter(|l| !l.starts_with(' ')) {
            section = if heading.starts_with("Flags of ") { "flags" } else { heading };
            let names = heading.trim_start_matches("Flags of ").replace(" and ", ", ");
            owners = names.split(", ").map(str::to_string).collect();
            continue;
        }
        // An entry is its name and metavar, two spaces, then its help line.
        let entry = line.trim_start().split("  ").next().unwrap_or_default();
        match section {
            "Commands" if !entry.is_empty() => {
                let words = entry.split(' ').skip(1);
                let words = words.take_while(|w| w.chars().all(|c| c.is_ascii_lowercase()));
                help.commands.push(words.collect::<Vec<_>>().join(" "));
            }
            "flags" if entry.starts_with("--") => {
                let (name, value) = entry.split_once(' ').unwrap_or((entry, ""));
                help.flags.push((name.to_string(), value.to_string(), owners.clone()));
            }
            _ => {}
        }
    }
    assert!(help.commands.len() >= 7 && help.flags.len() >= 25, "help not understood:\n{text}");
    for (_, _, owners) in &help.flags {
        assert!(owners.iter().all(|o| help.commands.contains(o)), "{owners:?}");
    }
    help
}

/// The argument list of `command` (its words) given `flag`, with a value
/// when the flag takes one.
fn command_line(command: &str, flag: &str, value: &str) -> Vec<String> {
    let mut args: Vec<String> = command.split(' ').map(str::to_string).collect();
    args.push(flag.to_string());
    if !value.is_empty() {
        args.push("1".to_string());
    }
    args
}

/// Runs `command` with `flag` first and checks the one error line: it names
/// the flag and each command that owns it, or calls the flag unknown.
fn check_rejected(help: &Help, command: &str, flag: &str, value: &str) {
    let owners: Vec<&String> = help
        .flags
        .iter()
        .filter(|(f, _, _)| f == flag)
        .flat_map(|(_, _, owners)| owners)
        .collect();
    // The foreign flag comes first, so parsing stops before any run:
    // a bug that accepted it would run the static table1 and exit 0.
    let mut args = command_line(command, flag, value);
    if command == "run" {
        args.extend(["table1", "--no-json"].map(String::from));
    }
    let output = momlab(&args);
    let stderr = String::from_utf8_lossy(&output.stderr);
    let context = format!("momlab {}; stderr:\n{stderr}", args.join(" "));
    assert_eq!(output.status.code(), Some(1), "{context}");
    let errors: Vec<&str> = stderr.lines().filter(|l| l.starts_with("error:")).collect();
    assert_eq!(errors.len(), 1, "{context}");
    assert!(errors[0].contains(flag) && stderr.contains("Usage:"), "{context}");
    for owner in &owners {
        assert!(errors[0].contains(&format!("`momlab {owner}`")), "{context}");
    }
    if owners.is_empty() {
        assert_eq!(errors[0], format!("error: unknown flag {flag}"), "{context}");
    }
}

#[test]
fn every_command_rejects_the_flags_it_does_not_own() {
    let help = help();
    for command in &help.commands {
        for (flag, value, _) in &help.flags {
            // A flag may sit in several tables; it is foreign only to a
            // command that none of them names.
            let owned = help.flags.iter().any(|(f, _, o)| f == flag && o.contains(command));
            if !owned {
                check_rejected(&help, command, flag, value);
            }
        }
    }
}

#[test]
fn removed_flags_are_errors() {
    // Flags that existed once and must stay errors, not be ignored.
    let help = help();
    for command in &help.commands {
        for (flag, value) in [
            ("--no-cache", ""),
            ("--materialized", ""),
            ("--checkpoint-dir", "DIR"),
            ("--resume", ""),
            ("--throughput-gate", "N"),
            ("--compare", "FILE"),
        ] {
            check_rejected(&help, command, flag, value);
        }
    }
}

#[test]
fn run_rejects_the_flags_of_diff_and_names_it() {
    let baseline = concat!(env!("CARGO_MANIFEST_DIR"), "/../../baselines/BENCH_table1.json");
    for flags in [["--baseline", baseline], ["--tolerance", "0"]] {
        let output = momlab(&[&["run", "table1", "--no-json"], &flags[..]].concat());
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{flags:?}; stderr:\n{stderr}");
        let first = stderr.lines().next().unwrap_or_default();
        assert!(
            first.starts_with("error:") && first.contains(flags[0]) && first.contains("momlab diff"),
            "stderr:\n{stderr}"
        );
    }
}

#[test]
fn every_flag_in_the_help_parses_for_each_command_of_its_table() {
    // A flag the parser takes, with its value, leaves the unknown flag after
    // it as the first error; no command runs.
    for (flag, value, owners) in help().flags {
        for command in owners {
            let mut args = command_line(&command, &flag, &value);
            args.push("--no-such-flag".to_string());
            let output = momlab(&args);
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert!(
                stderr.starts_with("error: unknown flag --no-such-flag\n"),
                "momlab {}; stderr:\n{stderr}",
                args.join(" ")
            );
        }
    }
}

#[test]
fn a_zero_sampling_period_is_one_error_line() {
    let output = momlab(&["run", "stress", "--no-json", "--sample-period", "0"]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "stderr:\n{stderr}");
    assert_eq!(stderr.lines().count(), 1, "stderr:\n{stderr}");
    assert!(stderr.starts_with("error: --sample-period 0 is shorter"), "stderr:\n{stderr}");
    assert!(!stderr.contains("measure everything"), "stderr:\n{stderr}");
    assert!(output.stdout.is_empty(), "no document is written");
}

#[test]
fn diff_of_a_deeply_nested_document_is_an_error_not_a_crash() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("deeply_nested.json");
    std::fs::write(&path, "[".repeat(200_000)).expect("write the nested document");
    let file = path.to_str().expect("UTF-8 temp path");
    let output = momlab(&["diff", file, "--baseline", file]);
    assert_eq!(
        output.status.code(),
        Some(1),
        "momlab diff did not exit 1; stderr:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("error:") && stderr.contains("nesting"), "stderr:\n{stderr}");
}

#[test]
fn an_error_about_a_file_prints_one_line_and_no_usage() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("malformed.json");
    std::fs::write(&path, "{\"results\": [1, 2").expect("write the malformed document");
    let file = path.to_str().expect("UTF-8 temp path");
    let output = momlab(&["diff", file, "--baseline", file]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "stderr:\n{stderr}");
    assert_eq!(stderr.lines().count(), 1, "stderr:\n{stderr}");
    assert!(stderr.starts_with("error:") && !stderr.contains("Usage:"), "stderr:\n{stderr}");
}

#[test]
fn a_sampling_window_that_overflows_u64_is_one_error_line() {
    let warmup = u64::MAX.to_string();
    let output = momlab(&[
        "run", "stress", "--no-json", "--sampled", "--sample-period", "5", "--sample-warmup", &warmup,
        "--sample-unit", "2",
    ]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "stderr:\n{stderr}");
    assert_eq!(stderr.lines().count(), 1, "stderr:\n{stderr}");
    assert!(stderr.starts_with("error: --sample-period 5 is shorter"), "stderr:\n{stderr}");
    assert!(output.stdout.is_empty(), "no document is written");
}

#[test]
fn an_unknown_flag_prints_the_usage() {
    let output = momlab(&["run", "--bogus"]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "stderr:\n{stderr}");
    assert!(stderr.starts_with("error: unknown flag --bogus"), "stderr:\n{stderr}");
    assert!(stderr.contains("Usage:"), "stderr:\n{stderr}");
}

#[test]
fn an_error_written_to_a_closed_pipe_exits_1_instead_of_panicking() {
    let (reader, writer) = std::io::pipe().expect("create a pipe");
    drop(reader);
    let status = Command::new(env!("CARGO_BIN_EXE_momlab"))
        .args(["run", "--bogus"])
        .stderr(writer)
        .status()
        .expect("failed to spawn momlab");
    assert_eq!(status.code(), Some(1), "a panic exits 101");
    // Progress and summary lines to a closed stderr do not fail a run.
    let (reader, writer) = std::io::pipe().expect("create a pipe");
    drop(reader);
    let status = Command::new(env!("CARGO_BIN_EXE_momlab"))
        .args(["run", "figure5", "--no-json", "--workers", "1"])
        .env("MOM_BENCH_FAST", "1")
        .stdout(std::process::Stdio::null())
        .stderr(writer)
        .status()
        .expect("failed to spawn momlab");
    assert_eq!(status.code(), Some(0), "a panic exits 101");
}

#[test]
fn output_to_a_closed_stdout_exits_1_instead_of_panicking() {
    for args in [&["describe", "--all"][..], &["run", "figure5", "--no-json", "--workers", "1"]] {
        let (reader, writer) = std::io::pipe().expect("create a pipe");
        drop(reader);
        let output = Command::new(env!("CARGO_BIN_EXE_momlab"))
            .args(args)
            .env("MOM_BENCH_FAST", "1")
            .stdout(writer)
            .output()
            .expect("failed to spawn momlab");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "momlab {}; stderr:\n{stderr}", args.join(" "));
        assert!(!stderr.contains("panicked"), "momlab {}; stderr:\n{stderr}", args.join(" "));
    }
}

#[test]
fn cache_inspection_of_a_missing_directory_fails_without_creating_it() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cache-missing-dir");
    let dir_arg = dir.to_str().expect("UTF-8 temp path");
    for verb in ["ls", "verify", "gc"] {
        let _ = std::fs::remove_dir_all(&dir);
        let mut args = vec!["cache", verb, "--cache-dir", dir_arg];
        args.extend(["--max-bytes", "0"].into_iter().filter(|_| verb == "gc"));
        let output = momlab(&args);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "cache {verb}; stderr:\n{stderr}");
        assert_eq!(stderr.lines().count(), 1, "one error line; stderr:\n{stderr}");
        assert!(stderr.starts_with("error:") && stderr.contains(dir_arg), "stderr:\n{stderr}");
        assert!(!dir.exists(), "cache {verb} created {}", dir.display());
    }
}

#[test]
fn a_cache_usage_error_creates_no_directory() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cache-usage-error");
    let dir_arg = dir.to_str().expect("UTF-8 temp path");
    for verb in ["bogus", "gc"] {
        let _ = std::fs::remove_dir_all(&dir);
        let output = momlab(&["cache", verb, "--cache-dir", dir_arg]);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "cache {verb}; stderr:\n{stderr}");
        assert!(stderr.contains("Usage:"), "cache {verb}; stderr:\n{stderr}");
        assert!(!dir.exists(), "cache {verb} created {}", dir.display());
    }
}

/// A committed file, by its path from the repository root.
fn committed(path: &str) -> String {
    format!("{}/../../{path}", env!("CARGO_MANIFEST_DIR"))
}

/// An empty directory of the test's own under Cargo's scratch area.
fn scratch_dir(test: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(test);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the test's scratch directory");
    dir
}

fn read_json(path: &str) -> Value {
    Value::parse(&std::fs::read_to_string(path).expect("read a document")).expect("parse it")
}

/// Write `doc` into `dir` and return the file's path.
fn write_json(dir: &Path, name: &str, doc: &Value) -> String {
    let path = dir.join(name);
    std::fs::write(&path, doc.to_pretty()).expect("write a document");
    path.to_str().expect("UTF-8 temp path").to_string()
}

/// Add `delta` to the integer at `path` (array indices as numbers) of
/// `doc`; returns the old value.
fn bump(doc: &mut Value, path: &[&str], delta: i64) -> i64 {
    let leaf = path.iter().fold(doc, |v, key| match v {
        Value::Array(items) => &mut items[key.parse::<usize>().expect("an index")],
        Value::Object(members) => &mut members.iter_mut().find(|(k, _)| k == key).expect(key).1,
        _ => panic!("no member {key}"),
    });
    let old = leaf.as_i64().expect("an integer");
    *leaf = Value::Int(old + delta);
    old
}

/// `momlab diff NEW --baseline OLD --tolerance T`: exit code and stdout.
fn diff(new: &str, baseline: &str, tolerance: &str) -> (Option<i32>, String) {
    let output = momlab(&["diff", new, "--baseline", baseline, "--tolerance", tolerance]);
    let stdout = String::from_utf8(output.stdout).expect("momlab prints UTF-8");
    (output.status.code(), stdout)
}

#[test]
fn diff_at_tolerance_0_passes_every_baseline_against_itself() {
    let identical = "identical: every member but meta\n";
    for name in mom_lab::BUILTIN_EXPERIMENTS {
        let file = committed(&format!("baselines/BENCH_{name}.json"));
        assert_eq!(diff(&file, &file, "0"), (Some(0), identical.into()), "{name}");
        // Tolerance 0 is the default.
        let output = momlab(&["diff", &file, "--baseline", &file]);
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert_eq!((output.status.code(), stdout.as_ref()), (Some(0), identical), "{name}");
    }
}

#[test]
fn diff_at_tolerance_0_names_a_moved_breakdown_cycle() {
    let dir = scratch_dir("diff-moved-breakdown-cycle");
    let baseline = committed("baselines/BENCH_figure7.json");
    let mut doc = read_json(&baseline);
    let base = bump(&mut doc, &["cells", "0", "breakdown", "base"], -1);
    bump(&mut doc, &["cells", "0", "breakdown", "mem-dram"], 1);
    let moved = write_json(&dir, "BENCH_figure7.json", &doc);
    let want = format!("DIFFERS at cells[0].breakdown.base: new {}, baseline {base}\n", base - 1);
    assert_eq!(diff(&moved, &baseline, "0"), (Some(2), want));
    // The cycle comparison above 0 sees no cell change.
    let (code, stdout) = diff(&moved, &baseline, "0.02");
    assert_eq!(code, Some(0), "{stdout}");
}

#[test]
fn diff_at_tolerance_0_compares_static_tables() {
    let dir = scratch_dir("diff-static-table");
    let baseline = committed("baselines/BENCH_table1.json");
    assert_eq!(diff(&baseline, &baseline, "0").0, Some(0));
    let mut doc = read_json(&baseline);
    let rob = bump(&mut doc, &["rows", "0", "rob"], 1);
    let changed = write_json(&dir, "BENCH_table1.json", &doc);
    let want = format!("DIFFERS at rows[0].rob: new {}, baseline {rob}\n", rob + 1);
    assert_eq!(diff(&changed, &baseline, "0"), (Some(2), want));
}

#[test]
fn diff_skips_a_sampling_section_only_the_new_document_has() {
    let dir = scratch_dir("diff-sampling-rule");
    let exact = committed("baselines/BENCH_stress.json");
    let Value::Object(mut members) = read_json(&exact) else { panic!("an object") };
    let sampling = read_json(&committed("baselines/sampled/BENCH_stress.json"));
    members
        .push(("sampling".into(), sampling.get("sampling").expect("a sampling section").clone()));
    let sampled = write_json(&dir, "BENCH_stress.json", &Value::Object(members));
    let (code, stdout) = diff(&sampled, &exact, "0");
    assert_eq!(code, Some(0), "{stdout}");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "{stdout}");
    assert_eq!(
        lines[0], "note: skipped the `sampling` section only the new document has",
        "{stdout}"
    );
    // An exact result held to a sampled baseline lacks its section.
    let (code, stdout) = diff(&exact, &sampled, "0");
    assert_eq!(code, Some(2), "{stdout}");
    assert!(stdout.starts_with("DIFFERS at sampling: new absent, baseline {"), "{stdout}");
    assert_eq!(stdout.lines().count(), 1, "{stdout}");
}

#[test]
fn diff_above_tolerance_0_still_compares_cycles_only() {
    // Sampled against exact results of one grid: cycles within tolerance.
    let (new, baseline) =
        (committed("BENCH_stress_sampled.json"), committed("BENCH_stress_exact.json"));
    let golden = include_str!("golden/diff_stress_sampled_vs_exact.txt");
    assert_eq!(diff(&new, &baseline, "0.02"), (Some(0), golden.to_string()));
    // Full mode against fast mode: different grids are one error line.
    let (new, baseline) =
        (committed("BENCH_figure7.json"), committed("baselines/BENCH_figure7.json"));
    let output = momlab(&["diff", &new, "--baseline", &baseline, "--tolerance", "0.02"]);
    assert_eq!(output.status.code(), Some(1));
    assert!(output.stdout.is_empty());
    let golden = include_str!("golden/diff_figure7_full_vs_fast.txt");
    assert_eq!(String::from_utf8_lossy(&output.stderr), golden);
}

#[test]
fn diff_above_tolerance_0_fails_on_a_cell_only_one_document_has() {
    let dir = scratch_dir("diff-missing-cell");
    let baseline = committed("baselines/BENCH_figure7.json");
    let Value::Object(mut members) = read_json(&baseline) else { panic!("an object") };
    let Some((_, Value::Array(cells))) = members.iter_mut().find(|(k, _)| k == "cells") else {
        panic!("a cells array")
    };
    cells.pop();
    let n = cells.len();
    let fewer = write_json(&dir, "BENCH_figure7.json", &Value::Object(members.clone()));
    for (new, baseline, counts) in
        [(&fewer, &baseline, (n, n + 1)), (&baseline, &fewer, (n + 1, n))]
    {
        let (code, stdout) = diff(new, baseline, "0.02");
        assert_eq!(code, Some(2), "{stdout}");
        let line = format!(
            "REGRESSION: cells: new has {}, baseline {}: a cell only one document has",
            counts.0, counts.1
        );
        assert_eq!(stdout.lines().filter(|l| l.starts_with("REGRESSION: ")).count(), 1, "{stdout}");
        assert!(stdout.starts_with(&format!("{line}\n")), "{stdout}");
    }
    // A document without a `cells` array is not a grid result to compare.
    members.retain(|(k, _)| k != "cells");
    let bare = write_json(&dir, "bare.json", &Value::Object(members));
    let output = momlab(&["diff", &bare, "--baseline", &baseline, "--tolerance", "0.02"]);
    assert_eq!(output.status.code(), Some(1));
    assert!(output.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(stderr, "error: the new document has no cells array\n");
}

#[test]
fn diff_above_tolerance_0_names_a_cell_whose_cycles_grew() {
    let dir = scratch_dir("diff-cycles-grew");
    let baseline = committed("baselines/BENCH_figure7.json");
    let mut doc = read_json(&baseline);
    let cell = doc.get("cells").and_then(Value::as_array).and_then(|c| c.first()).cloned();
    let cell = cell.expect("a first cell");
    let field = |k: &str| cell.get(k).expect(k).to_compact();
    let key = format!("{} / {} / {}-way", field("workload"), field("config"), field("way"));
    let key = key.replace('"', "");
    let cycles = cell.get("cycles").and_then(Value::as_i64).expect("cycles");
    bump(&mut doc, &["cells", "0", "cycles"], cycles * 3 / 100);
    let grown = write_json(&dir, "BENCH_figure7.json", &doc);
    let (code, stdout) = diff(&grown, &baseline, "0.02");
    assert_eq!(code, Some(2), "{stdout}");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "{stdout}");
    assert!(lines[0].starts_with(&format!("REGRESSION: {key}: cycles {cycles} -> ")), "{stdout}");
    assert!(lines[1].starts_with("1 regression(s), 0 improvement(s), "), "{stdout}");
}

#[test]
fn cache_verify_verifies_every_stress_record() {
    let dir = scratch_dir("cache-verify-stress");
    let dir_arg = dir.join("cache");
    let dir_arg = dir_arg.to_str().expect("UTF-8 temp path");
    let run = momlab(&[
        "run",
        "stress",
        "--workers",
        "1",
        "--no-json",
        "--quiet",
        "--cache-dir",
        dir_arg,
    ]);
    assert!(run.status.success(), "{}", String::from_utf8_lossy(&run.stderr));
    let output = momlab(&["cache", "verify", "--cache-dir", dir_arg, "--workers", "1"]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(0), "stderr:\n{stderr}");
    assert_eq!(
        stderr.lines().last(),
        Some("verified 8 record(s) across 1 group(s); 0 skipped, 0 mismatch(es)"),
        "stderr:\n{stderr}"
    );
}

/// `text`, a record file, with `from` replaced by `to` and its checksum
/// recomputed, so that it still reads as a valid record.
fn reseal(text: &str, from: &str, to: &str) -> String {
    let (body, _) = text.rsplit_once(",\"fnv1a\":\"").expect("a sealed record");
    assert!(body.contains(from), "{from} not in {body}");
    let body = body.replacen(from, to, 1);
    let fnv1a = body.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |hash, b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    format!("{body},\"fnv1a\":\"{fnv1a:016x}\"}}")
}

#[test]
fn cache_verify_rebuilds_filtered_and_custom_grids_from_their_keys() {
    let dir = scratch_dir("cache-verify-keys");
    let (cache, tmp) = (dir.join("cache"), dir.join("tmp"));
    std::fs::create_dir_all(&tmp).expect("create a temporary directory");
    let cache_arg = cache.to_str().expect("UTF-8 temp path");
    for args in [
        &["run", "figure5", "--isa", "mom"][..],
        &["run", "sweep", "--sweep-dims", "rob=16:lat=1:way=4"],
    ] {
        let output = momlab(&[args, &["--no-json", "--quiet", "--cache-dir", cache_arg]].concat());
        assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));
    }
    // The scratch cache goes where TMPDIR points, and must be gone after
    // every outcome.
    let verify = |want: i32| {
        let output = Command::new(env!("CARGO_BIN_EXE_momlab"))
            .args(["cache", "verify", "--cache-dir", cache_arg, "--workers", "1"])
            .env("TMPDIR", &tmp)
            .output()
            .expect("failed to spawn momlab");
        let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
        assert_eq!(output.status.code(), Some(want), "stderr:\n{stderr}");
        let left: Vec<_> = std::fs::read_dir(&tmp).expect("list TMPDIR").collect();
        assert!(left.is_empty(), "verify left {left:?}");
        stderr
    };
    assert_eq!(
        verify(0).lines().last(),
        Some("verified 12 record(s) across 2 group(s); 0 skipped, 0 mismatch(es)")
    );

    let mut records: Vec<PathBuf> =
        std::fs::read_dir(&cache).expect("list the cache").map(|e| e.expect("entry").path()).collect();
    records.sort();
    let record = &records[0];
    let good = std::fs::read_to_string(record).expect("read a record");
    std::fs::write(record, reseal(&good, "\"branches\":", "\"branches\":1")).expect("tamper");
    let stderr = verify(2);
    assert!(stderr.contains("MISMATCH"), "stderr:\n{stderr}");
    assert!(stderr.ends_with("verified 11 record(s) across 2 group(s); 0 skipped, 1 mismatch(es)\n"));

    std::fs::write(record, reseal(&good, "\"isa\":\"", "\"isa\":\"x")).expect("tamper");
    let stderr = verify(1);
    assert!(stderr.contains("does not decode (unknown ISA"), "stderr:\n{stderr}");
}

/// The command lines of `perfbench/run.py`, flag for flag and in its order:
/// `momlab run <exp> [--sampled|--streamed] --workers N --scale N --seed S
/// --quiet --json F [--cache-dir D]`.
#[test]
fn the_benchmark_command_lines_run() {
    let dir = scratch_dir("benchmark-command-lines");
    let cache = dir.join("cache");
    let cache = cache.to_str().expect("UTF-8 temp path");
    for (experiment, extra) in [
        ("stress", &["--streamed", "--workers", "1"][..]),
        ("stress", &["--sampled", "--workers", "2"]),
        ("stress", &["--workers", "1"]),
        ("figure7", &["--workers", "1"]),
        ("sweep", &["--workers", "1"]),
    ] {
        let json = dir.join(format!("{experiment}.json"));
        let json = json.to_str().expect("UTF-8 temp path");
        let mut args = vec!["run", experiment];
        args.extend(extra);
        args.extend(["--scale", "1", "--seed", "42", "--quiet", "--json", json]);
        if experiment == "sweep" {
            args.extend(["--cache-dir", cache]);
        }
        let output = momlab(&args);
        assert_eq!(
            output.status.code(),
            Some(0),
            "momlab {}: {}",
            args.join(" "),
            String::from_utf8_lossy(&output.stderr)
        );
        let doc = read_json(json);
        assert_eq!(doc.get("experiment").and_then(Value::as_str), Some(experiment));
    }
}
