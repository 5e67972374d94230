//! End-to-end tests of the `momlab` binary: what a user types, spawned as a
//! real process, with its stdout checked against the golden files under
//! `tests/golden/` (captured from the historic per-experiment binaries with
//! `MOM_BENCH_FAST=1` and scale 1).
//!
//! Cargo builds the package's binaries before its integration tests and
//! exposes their paths through `CARGO_BIN_EXE_<name>`.

use std::process::{Command, Output};

fn momlab(args: &[&str]) -> Output {
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

/// A removed flag, given with its old value if it took one, must fail
/// loudly with one error line naming it, not be ignored.
fn check_rejected(flag_and_value: &[&str]) {
    let flag = flag_and_value[0];
    let output = momlab(&[&["run", "table1", "--no-json"], flag_and_value].concat());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "momlab accepted the removed flag {flag}");
    let errors: Vec<&str> = stderr.lines().filter(|l| l.starts_with("error:")).collect();
    assert_eq!(errors.len(), 1, "stderr:\n{stderr}");
    assert!(errors[0].contains(flag), "no error naming {flag}; stderr:\n{stderr}");
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

#[test]
fn removed_flags_are_errors() {
    check_rejected(&["--no-cache"]);
    check_rejected(&["--materialized"]);
    check_rejected(&["--checkpoint-dir"]);
    check_rejected(&["--resume"]);
    check_rejected(&["--throughput-gate", "10"]);
    let existing = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_stress_exact.json");
    check_rejected(&["--compare", existing]);
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
}

#[test]
fn cache_inspection_of_a_missing_directory_fails_without_creating_it() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cache-missing-dir");
    let dir_arg = dir.to_str().expect("UTF-8 temp path");
    for verb in ["ls", "verify", "gc"] {
        let _ = std::fs::remove_dir_all(&dir);
        let output = momlab(&["cache", verb, "--cache-dir", dir_arg, "--max-bytes", "0"]);
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
