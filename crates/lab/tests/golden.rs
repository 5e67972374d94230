//! Golden-output tests: the renderers must reproduce the legacy `mom-bench`
//! binary output **byte-for-byte**. The files under `tests/golden/` were
//! captured from the pre-`mom-lab` binaries running with `MOM_BENCH_FAST=1`
//! and scale 1; these tests rebuild the same specs in-process (explicit
//! `fast = true`, no environment dependence) and compare bytes.

use mom_lab::report::render;
use mom_lab::runner::{run, RunOptions};
use mom_lab::spec::ExperimentSpec;

fn check(name: &str, golden: &str) {
    let spec = ExperimentSpec::builtin(name, 1, true).expect("built-in spec");
    let rendered = render(&run(&spec, &RunOptions::with_workers(4)));
    assert_eq!(
        rendered, golden,
        "{name}: rendered output drifted from the legacy binary format"
    );
}

#[test]
fn table1_matches_the_legacy_binary() {
    check("table1", include_str!("golden/table1_fast.txt"));
}

#[test]
fn table2_matches_the_legacy_binary() {
    check("table2", include_str!("golden/table2_fast.txt"));
}

#[test]
fn table3_matches_the_legacy_binary() {
    check("table3", include_str!("golden/table3_fast.txt"));
}

#[test]
fn isa_inventory_matches_the_legacy_binary() {
    check("isa_inventory", include_str!("golden/isa_inventory_fast.txt"));
}

#[test]
fn figure5_matches_the_legacy_binary() {
    check("figure5", include_str!("golden/figure5_fast.txt"));
}

#[test]
fn latency_tolerance_matches_the_legacy_binary() {
    check("latency_tolerance", include_str!("golden/latency_tolerance_fast.txt"));
}

#[test]
fn figure7_matches_the_legacy_binary() {
    check("figure7", include_str!("golden/figure7_fast.txt"));
}
