//! The runner's determinism guarantee: for any spec, a parallel run and a
//! serial run produce **byte-identical** results documents. Wall-clock and
//! worker count live only in the `meta` section, which is excluded from
//! `results_json` by construction.

use mom_lab::baseline::exact_diff;
use mom_lab::json::Value;
use mom_lab::runner::{run, ExecMode, RunOptions, RunResult};
use mom_lab::spec::ExperimentSpec;

fn run_with(spec: &ExperimentSpec, workers: usize) -> RunResult {
    run(spec, &RunOptions::with_workers(workers))
}

/// Hold every simulated cell of `result` to the counter identities.
fn check_identities(result: &RunResult) {
    for cell in result.cells().unwrap_or_default() {
        if let Err(e) = cell.check_identities() {
            panic!("{}: {e}", result.spec.name);
        }
    }
}

/// `results` equals the committed document at `rel` (from the repository
/// root) through `exact_diff`, which skips `meta`.
fn assert_matches_committed(results: &Value, rel: &str) {
    let path = format!("{}/../../{rel}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let committed = Value::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
    let exact = exact_diff(results, &committed).unwrap_or_else(|e| panic!("{path}: {e}"));
    assert!(exact.difference.is_none(), "{rel}: {exact}");
}

/// The five grid experiments in full mode (2 workers) equal the committed
/// root `BENCH_<name>.json` documents, and every cell holds the counter
/// identities.
#[test]
fn full_mode_grids_equal_the_committed_documents() {
    for name in ["stress", "figure7", "figure5", "latency_tolerance", "sweep"] {
        let spec = ExperimentSpec::builtin(name, 1, false).expect("built-in spec");
        let result = run_with(&spec, 2);
        check_identities(&result);
        assert_matches_committed(&result.results_json(), &format!("BENCH_{name}.json"));
    }
}

/// A representative grid spec (the reduced Figure 5: 2 kernels x 4 ISAs x
/// 4 widths = 32 simulations) run serially and with 4 workers must serialize
/// to the same bytes.
#[test]
fn figure5_parallel_and_serial_runs_are_byte_identical() {
    let spec = ExperimentSpec::builtin("figure5", 1, true).expect("built-in spec");
    let serial = run_with(&spec, 1);
    let parallel = run_with(&spec, 4);
    assert_eq!(serial.workers, 1);
    assert_eq!(parallel.workers, 4);

    let serial_bytes = serial.results_json().to_pretty();
    let parallel_bytes = parallel.results_json().to_pretty();
    assert_eq!(serial_bytes, parallel_bytes, "worker count leaked into the results");

    // The structured cells agree too (not just their serialization).
    assert_eq!(serial.cells().unwrap(), parallel.cells().unwrap());
}

/// The guarantee holds across every built-in experiment, including the
/// paired-config latency study and the application-level Figure 7, and for an
/// oversubscribed worker count (more threads than cells of some stages).
/// The serial run also equals the committed fast-mode
/// `baselines/BENCH_<name>.json` field for field, static tables included —
/// the comparison behind `momlab diff --tolerance 0` — and every cell it
/// simulates holds the counter identities.
#[test]
fn every_builtin_experiment_is_deterministic_across_worker_counts() {
    for name in mom_lab::BUILTIN_EXPERIMENTS {
        let spec = ExperimentSpec::builtin(name, 1, true).expect("built-in spec");
        let result = run_with(&spec, 1);
        check_identities(&result);
        let serial = result.results_json();
        assert_matches_committed(&serial, &format!("baselines/BENCH_{name}.json"));
        let reference = serial.to_pretty();
        for workers in [2, 7] {
            let run = run_with(&spec, workers).results_json().to_pretty();
            assert_eq!(reference, run, "{name} differed at {workers} workers");
        }
    }
}

/// The guarantee also spans the execution mode: the default fan-out grouping
/// (one shared functional pass per `(workload, ISA)` group broadcast to all
/// member simulators) and the per-cell streamed grouping serialize
/// byte-identically for every built-in experiment.
#[test]
fn fanout_and_streamed_are_byte_identical() {
    for name in mom_lab::BUILTIN_EXPERIMENTS {
        let spec = ExperimentSpec::builtin(name, 1, true).expect("built-in spec");
        let fanout = run(&spec, &RunOptions { workers: 2, ..Default::default() });
        let streamed =
            run(&spec, &RunOptions { workers: 2, mode: ExecMode::Streamed, ..Default::default() });
        assert_eq!(fanout.mode, ExecMode::Fanout);
        assert_eq!(
            fanout.results_json().to_pretty(),
            streamed.results_json().to_pretty(),
            "{name}: fan-out and streamed runs diverged"
        );
        // The sharing accounting: fan-out shares functional passes across
        // grid cells (and scalar app phases across ISA lanes); the per-cell
        // streamed grouping shares nothing.
        if let Some(cells) = fanout.cells() {
            assert!(fanout.functional_passes <= cells.len());
            assert_eq!(streamed.functional_passes, cells.len());
            assert!(fanout.functional_instructions <= streamed.functional_instructions);
            assert!(streamed.sharing_factor().is_none_or(|f| (f - 1.0).abs() < 1e-12));
        }
    }
}

/// The full document (with `meta`) differs from the results document only by
/// the `meta` member, and both reparse.
#[test]
fn meta_is_the_only_nondeterministic_section() {
    let spec = ExperimentSpec::builtin("latency_tolerance", 1, true).expect("built-in spec");
    let result = run_with(&spec, 3);
    let results = result.results_json();
    let document = Value::parse(&result.document_json().to_pretty()).expect("document parses");
    let Value::Object(mut members) = document else { panic!("document is an object") };
    let meta_pos = members.iter().position(|(k, _)| k == "meta").expect("meta present");
    let (_, meta) = members.remove(meta_pos);
    assert_eq!(meta.get("workers").and_then(Value::as_i64), Some(3));
    assert!(meta.get("wall_ms").and_then(Value::as_i64).is_some());
    assert_eq!(Value::Object(members), Value::parse(&results.to_pretty()).unwrap());
}
