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

/// A removed flag must fail loudly, not be ignored.
fn check_rejected(flag: &str) {
    let output = momlab(&["run", "table1", "--no-json", flag]);
    assert!(
        !output.status.success(),
        "momlab accepted the removed flag {flag}"
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains(flag),
        "no error naming {flag}; stderr:\n{stderr}"
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

#[test]
fn removed_flags_are_errors() {
    check_rejected("--no-cache");
    check_rejected("--materialized");
    check_rejected("--checkpoint-dir");
    check_rejected("--resume");
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
