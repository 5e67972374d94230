//! # mom-lab — the parallel experiment-orchestration engine
//!
//! The paper's evaluation is a grid of (workload x ISA x issue-width x
//! memory-model) simulations. This crate turns that grid into data:
//!
//! * [`spec`] — declarative [`ExperimentSpec`]s describing a simulation grid;
//!   every table and figure of the paper is a named built-in spec
//!   ([`ExperimentSpec::builtin`]);
//! * [`runner`] — a multi-threaded runner (scoped threads, work-stealing
//!   cursor) with a determinism guarantee: parallel and serial runs produce
//!   bit-identical results;
//! * [`json`] — a dependency-free JSON writer/parser behind the
//!   `BENCH_<experiment>.json` result files;
//! * [`report`] — text renderers reproducing the historic experiment output
//!   byte-for-byte from the structured results (pinned by golden files);
//! * [`tables`] — the config-derived static experiments (Tables 1-3, opcode
//!   inventories);
//! * [`baseline`] — regression diffing of result files;
//! * [`trace`] — Chrome trace-event export of the runner's scheduler spans
//!   (`momlab run --trace-out <file>`).
//!
//! The `momlab` binary is the CLI: `momlab list`, `momlab run figure5 --json
//! out.json`, `momlab run --all`, `momlab diff new.json --baseline old.json`.
//! See `EXPERIMENTS.md` at the repository root for the JSON schema.
//!
//! ```
//! use mom_lab::spec::ExperimentSpec;
//! use mom_lab::{report, runner, RunOptions};
//!
//! // Run a reduced Figure 5 on 4 workers; serial would give identical bytes.
//! let spec = ExperimentSpec::builtin("figure5", 1, true).expect("built-in name");
//! let result = runner::run(&spec, &RunOptions::with_workers(4));
//! let serial = runner::run(&spec, &RunOptions::with_workers(1));
//! assert_eq!(result.results_json(), serial.results_json());
//! assert!(report::render(&result).starts_with("Figure 5"));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod baseline;
pub mod cache;
mod document;
pub mod json;
pub mod report;
pub mod runner;
mod sampling;
pub mod spec;
pub mod tables;
pub mod trace;

pub use cache::{
    engine_fingerprint, CacheMeta, CellCache, CellKey, CellRecord, SamplingKnobs, MODEL_DIGEST,
};
pub use runner::{
    run, CellResult, CellSampling, ExecMode, PoolStats, RunOptions, RunResult,
    SpanRec, DEFAULT_SAMPLE_PERIOD, DEFAULT_SAMPLE_UNIT, DEFAULT_SAMPLE_WARMUP,
};
pub use spec::{ExperimentSpec, GridSpec, SweepDims, Workload, BUILTIN_EXPERIMENTS};

use std::sync::OnceLock;

/// Whether the `MOM_BENCH_FAST` environment variable requests reduced runs.
///
/// In fast mode the experiments evaluate a two-element subset of the
/// kernels/applications so smoke tests and CI can exercise every experiment
/// in seconds instead of minutes. Any non-empty value other than `0` enables
/// it. The lookup is cached in a [`OnceLock`] — the environment is read at
/// most once per process, so every caller sees the same answer.
pub fn fast_mode() -> bool {
    static FAST: OnceLock<bool> = OnceLock::new();
    *FAST.get_or_init(|| {
        std::env::var("MOM_BENCH_FAST").map(|v| !v.is_empty() && v != "0").unwrap_or(false)
    })
}

/// Instructions per pipeline batch: [`mom_isa::pipe::DEFAULT_BATCH_INSTS`].
///
/// No command uses it. Kept only because the `perfbench` ladder's `L2p`
/// rung calls it; goes with the benchmark change (ROADMAP item 2).
pub fn pipeline_batch_insts() -> usize {
    mom_isa::pipe::DEFAULT_BATCH_INSTS
}

/// Per-member channel capacity in batches:
/// [`mom_isa::pipe::DEFAULT_CHANNEL_BATCHES`].
///
/// No command uses it. Kept only because the `perfbench` ladder's `L2p`
/// rung calls it; goes with the benchmark change (ROADMAP item 2).
pub fn pipeline_channel_batches() -> usize {
    mom_isa::pipe::DEFAULT_CHANNEL_BATCHES
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_mode_is_cached_and_consistent() {
        // Whatever the environment says, repeated calls agree (the OnceLock
        // pins the first answer).
        let first = fast_mode();
        for _ in 0..3 {
            assert_eq!(fast_mode(), first);
        }
    }

    #[test]
    fn pipeline_knobs_are_cached_and_positive() {
        assert!(pipeline_batch_insts() >= 1);
        assert!(pipeline_channel_batches() >= 1);
        assert_eq!(pipeline_batch_insts(), mom_isa::pipe::DEFAULT_BATCH_INSTS);
        assert_eq!(pipeline_channel_batches(), mom_isa::pipe::DEFAULT_CHANNEL_BATCHES);
    }
}
