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
//! * [`report`] — text renderers reproducing the legacy `mom-bench` binary
//!   output byte-for-byte from the structured results;
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

pub use cache::{engine_fingerprint, CacheMeta, CellCache, CellKey, CellRecord, SamplingKnobs};
pub use runner::{
    run, CellResult, CellSampling, CheckpointConfig, ExecMode, PoolStats, RunOptions, RunResult,
    SpanRec, DEFAULT_SAMPLE_PERIOD, DEFAULT_SAMPLE_UNIT, DEFAULT_SAMPLE_WARMUP,
};
pub use spec::{ExperimentSpec, GridSpec, SweepDims, Workload, BUILTIN_EXPERIMENTS};

use std::path::PathBuf;
use std::sync::OnceLock;

/// Whether the `MOM_BENCH_FAST` environment variable requests reduced runs.
///
/// In fast mode the experiments evaluate a two-element subset of the
/// kernels/applications so smoke tests and CI can exercise every experiment
/// in seconds instead of minutes. Any non-empty value other than `0` enables
/// it. The lookup is cached in a [`OnceLock`] — the environment is read at
/// most once per process, and every caller (the `momlab` CLI, the legacy
/// `mom-bench` binaries and the Criterion benches) sees the same answer.
pub fn fast_mode() -> bool {
    static FAST: OnceLock<bool> = OnceLock::new();
    *FAST.get_or_init(|| {
        std::env::var("MOM_BENCH_FAST").map(|v| !v.is_empty() && v != "0").unwrap_or(false)
    })
}

/// Header suffix marking reduced runs (the [`fast_mode`] flavour of
/// [`report::fast_marker`]).
pub fn fast_mode_marker() -> &'static str {
    report::fast_marker(fast_mode())
}

/// Whether the `MOM_LAB_STREAM` environment variable requests the per-cell
/// execution mode ([`ExecMode::Streamed`]) by default.
///
/// In streamed mode every grid cell is a group of its own: it re-interprets
/// its workload and feeds its timing simulator directly, producing results
/// byte-identical to the shared fan-out. Any non-empty value other than `0`
/// enables it; the `momlab --streamed` flag does the same per invocation.
/// Cached in a [`OnceLock`] like [`fast_mode`].
pub fn stream_mode() -> bool {
    static STREAM: OnceLock<bool> = OnceLock::new();
    *STREAM.get_or_init(|| {
        std::env::var("MOM_LAB_STREAM").map(|v| !v.is_empty() && v != "0").unwrap_or(false)
    })
}

/// Worker-count override from the `MOM_LAB_WORKERS` environment variable.
///
/// [`runner::default_workers`] caps at 8 threads, which undersizes pipelined
/// fan-out groups (one interpreter + N member simulators each) on big hosts.
/// A non-empty value other than `0` that parses as a positive integer
/// overrides the default; empty, `0` or unparsable values mean "no override"
/// — the same disable semantics as `MOM_BENCH_FAST` / `MOM_LAB_STREAM`.
/// Cached in a [`OnceLock`] like [`fast_mode`]. The explicit `--workers`
/// CLI flag still wins over this variable.
pub fn worker_override() -> Option<usize> {
    static WORKERS: OnceLock<Option<usize>> = OnceLock::new();
    *WORKERS.get_or_init(|| env_positive_usize("MOM_LAB_WORKERS"))
}

/// Instructions per pipeline batch, from `MOM_LAB_BATCH` (default
/// [`mom_isa::pipe::DEFAULT_BATCH_INSTS`]).
///
/// Same empty/`0` disable semantics and [`OnceLock`] caching as
/// [`worker_override`]. Larger batches amortize channel synchronization;
/// smaller ones tighten the pipeline's memory bound (O(batch × capacity ×
/// members) per group).
pub fn pipeline_batch_insts() -> usize {
    static BATCH: OnceLock<usize> = OnceLock::new();
    *BATCH.get_or_init(|| {
        env_positive_usize("MOM_LAB_BATCH").unwrap_or(mom_isa::pipe::DEFAULT_BATCH_INSTS)
    })
}

/// Per-member channel capacity in batches, from `MOM_LAB_CHANNEL` (default
/// [`mom_isa::pipe::DEFAULT_CHANNEL_BATCHES`]).
///
/// Same empty/`0` disable semantics and [`OnceLock`] caching as
/// [`worker_override`].
pub fn pipeline_channel_batches() -> usize {
    static CHANNEL: OnceLock<usize> = OnceLock::new();
    *CHANNEL.get_or_init(|| {
        env_positive_usize("MOM_LAB_CHANNEL").unwrap_or(mom_isa::pipe::DEFAULT_CHANNEL_BATCHES)
    })
}

/// The persistent cell-cache directory requested via `MOM_LAB_CACHE`.
///
/// `momlab run` enables the content-addressed result cache
/// ([`cache::CellCache`]) when this variable names a directory — the same
/// effect as `--cache-dir DIR`, which still wins when both are given;
/// `--no-cache` disables both. An empty value means "no cache". Cached in a
/// [`OnceLock`] like [`fast_mode`].
pub fn cache_env_dir() -> Option<PathBuf> {
    static DIR: OnceLock<Option<PathBuf>> = OnceLock::new();
    DIR.get_or_init(|| {
        std::env::var_os("MOM_LAB_CACHE").filter(|v| !v.is_empty()).map(PathBuf::from)
    })
    .clone()
}

/// Parse an environment variable as a positive integer, treating empty, `0`
/// and unparsable values as unset.
fn env_positive_usize(name: &str) -> Option<usize> {
    std::env::var(name).ok().and_then(|v| v.parse::<usize>().ok()).filter(|&n| n > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_mode_is_cached_and_consistent() {
        // Whatever the environment says, repeated calls agree (the OnceLock
        // pins the first answer) and the marker matches the flag.
        let first = fast_mode();
        for _ in 0..3 {
            assert_eq!(fast_mode(), first);
        }
        assert_eq!(fast_mode_marker().is_empty(), !first);
    }

    #[test]
    fn pipeline_knobs_are_cached_and_positive() {
        assert!(pipeline_batch_insts() >= 1);
        assert!(pipeline_channel_batches() >= 1);
        for _ in 0..3 {
            assert_eq!(pipeline_batch_insts(), pipeline_batch_insts());
            assert_eq!(pipeline_channel_batches(), pipeline_channel_batches());
            assert_eq!(worker_override(), worker_override());
        }
    }

    #[test]
    fn env_override_parser_treats_empty_zero_and_garbage_as_unset() {
        // Distinct variable names so the OnceLock-cached accessors above are
        // unaffected; this tests the shared parser the accessors use.
        for (name, value, expect) in [
            ("MOM_LAB_TEST_EMPTY", "", None),
            ("MOM_LAB_TEST_ZERO", "0", None),
            ("MOM_LAB_TEST_GARBAGE", "lots", None),
            ("MOM_LAB_TEST_NEG", "-3", None),
            ("MOM_LAB_TEST_OK", "12", Some(12)),
        ] {
            std::env::set_var(name, value);
            assert_eq!(env_positive_usize(name), expect, "{name}={value:?}");
        }
        assert_eq!(env_positive_usize("MOM_LAB_TEST_UNSET_NEVER"), None);
    }
}
