//! The sampled execution mode's correctness contracts.
//!
//! * **One whole-workload window is exact**: a sampled run whose single
//!   measured unit covers the whole workload goes through the sampled group
//!   loop yet equals [`ExecMode::Streamed`], minus its `sampling` section,
//!   for every built-in experiment. This is the gate that keeps the sampling
//!   machinery honest — a phase, window or measurement the loop drops shows
//!   up as a byte diff here.
//! * **Sampling is deterministic**: the periodic schedule depends only on
//!   instruction indices, never on worker count or timing.
//! * **Estimates are anchored**: committed-instruction counts stay exact
//!   (the functional interpreter executes the whole workload either way) and
//!   every cell carries a [`CellSampling`] section.
//! * **Estimates are pinned**: at the CI sampling knobs the fast-mode
//!   `stress` and `figure7` documents equal the committed
//!   `baselines/sampled/` documents minus `meta`.
//!
//! Every comparison is [`exact_diff`], the one behind `momlab diff
//! --tolerance 0`, so a failure names the first differing JSON path.

use mom_lab::baseline::exact_diff;
use mom_lab::json::Value;
use mom_lab::runner::{run, ExecMode, RunOptions, RunResult};
use mom_lab::spec::ExperimentSpec;

fn run_with_mode(spec: &ExperimentSpec, workers: usize, mode: ExecMode) -> RunResult {
    run(spec, &RunOptions { workers, mode, ..Default::default() })
}

/// Fail with the first differing path unless `new` equals `baseline`
/// (minus `meta`, and minus a `sampling` section only `new` has).
fn assert_equal(new: &Value, baseline: &Value, what: &str) {
    let exact = exact_diff(new, baseline).unwrap_or_else(|e| panic!("{what}: {e}"));
    assert!(exact.difference.is_none(), "{what}: {exact}");
}

/// A sampled mode whose period is small enough that scale-1 fast kernels
/// alternate between detailed and fast-forwarded execution several times.
const SMALL_SAMPLED: ExecMode =
    ExecMode::Sampled { unit_insts: 100, warmup_insts: 100, period: 500 };

#[test]
fn a_whole_workload_window_equals_streamed_for_every_builtin() {
    // One window with no warm-up whose unit outlasts every workload.
    let whole = ExecMode::Sampled { unit_insts: 1 << 40, warmup_insts: 0, period: 1 << 40 };
    for name in mom_lab::BUILTIN_EXPERIMENTS {
        let spec = ExperimentSpec::builtin(name, 1, true).expect("built-in spec");
        let exact = run_with_mode(&spec, 2, ExecMode::Streamed).results_json();
        let sampled = run_with_mode(&spec, 2, whole).results_json();
        assert_equal(&sampled, &exact, &format!("{name}: one whole-workload window vs streamed"));
    }
}

#[test]
fn sampled_runs_are_deterministic_across_worker_counts() {
    for name in ["figure5", "figure7"] {
        let spec = ExperimentSpec::builtin(name, 1, true).expect("built-in spec");
        let reference = run_with_mode(&spec, 1, SMALL_SAMPLED).results_json();
        for workers in [2, 7] {
            let run = run_with_mode(&spec, workers, SMALL_SAMPLED).results_json();
            assert_equal(&run, &reference, &format!("{name} at {workers} workers vs 1"));
        }
    }
}

#[test]
fn sampled_estimates_stay_anchored_to_the_exact_run() {
    let spec = ExperimentSpec::builtin("figure5", 1, true).expect("built-in spec");
    let exact = run_with_mode(&spec, 2, ExecMode::Streamed);
    let sampled = run_with_mode(&spec, 2, SMALL_SAMPLED);
    let exact_cells = exact.cells().expect("grid");
    let sampled_cells = sampled.cells().expect("grid");
    assert_eq!(exact_cells.len(), sampled_cells.len());
    for (e, s) in exact_cells.iter().zip(sampled_cells) {
        assert_eq!((&e.workload, &e.config_label, e.way), (&s.workload, &s.config_label, s.way));
        // Committed work is exact by construction; only cycles are estimated.
        assert_eq!(e.instructions, s.instructions, "{} committed count drifted", e.workload);
        let sampling = s.sampling.as_ref().expect("sampled cells carry a sampling section");
        assert_eq!(sampling.total_insts, s.instructions);
        assert!(sampling.measured_insts <= sampling.total_insts);
        assert!(sampling.ipc_mean > 0.0 && sampling.ipc_mean.is_finite());
        assert!(sampling.ipc_ci95 >= 0.0);
        assert!(s.cycles > 0);
        // A loose accuracy envelope: with a 500-instruction period most of
        // the stream is detailed, so the estimate must land in the right
        // ballpark (the tight ≤2% bound is asserted on the committed BENCH
        // artifacts, not here, where units are deliberately tiny).
        let err = (s.ipc() - e.ipc()).abs() / e.ipc();
        assert!(err < 0.5, "{}: sampled IPC {} vs exact {}", e.workload, s.ipc(), e.ipc());
        // Exact cells never carry the section.
        assert!(e.sampling.is_none());
    }
    // The sampling section serializes.
    let doc = sampled.results_json().to_pretty();
    assert!(doc.contains("\"sampling\""), "results document lacks a sampling section");
    assert!(doc.contains("\"ipc_mean\""));
}

#[test]
fn ci_knob_sampled_runs_equal_the_committed_baselines() {
    // The knobs of the CI sampled gate; phases, windows and fast-forwards
    // must land exactly where the committed estimates put them.
    let mode = ExecMode::Sampled { unit_insts: 50, warmup_insts: 50, period: 400 };
    for name in ["stress", "figure7"] {
        let spec = ExperimentSpec::builtin(name, 1, true).expect("built-in spec");
        let path =
            format!("{}/../../baselines/sampled/BENCH_{name}.json", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let want = Value::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
        let got = run_with_mode(&spec, 1, mode).results_json();
        assert_equal(
            &got,
            &want,
            &format!("{name}: sampled estimates vs baselines/sampled/"),
        );
    }
}
