//! `momlab` — the experiment-orchestration CLI.
//!
//! ```text
//! momlab list [--experiment NAME]...
//! momlab describe <NAME>... [--sweep-dims SPEC]
//! momlab run <NAME>... | --all [options]
//! momlab --all                      # shorthand for `momlab run --all`
//! momlab diff <NEW.json> --baseline <OLD.json> [--tolerance F]
//! momlab cache ls|verify|gc [--cache-dir DIR] [--max-bytes N]
//! ```
//!
//! `momlab describe` prints the resolved machine grid of an experiment: one
//! line per cell with the full `MachineDescriptor` (core organisation, ROB,
//! memory system, register files) the runner would instantiate.
//!
//! Run options:
//!
//! * `--experiment NAME` — with `--all`, restrict which experiments run
//! * `--kernel K` / `--app A` / `--isa I` — restrict grid experiments
//!   (repeatable)
//! * `--scale N` — workload scale (default 1)
//! * `--seed N` — workload seed override (recorded in the spec and its
//!   `config_hash`)
//! * `--workers N` — worker threads (default: min(cpus, 8); 1 = serial)
//! * `--streamed` — *per-cell* groups: each cell re-interprets its workload
//!   and feeds its simulator directly (byte-identical results; O(ROB) memory
//!   per cell). Without it the runner uses the **fan-out** grouping: one
//!   functional pass per `(workload, ISA)` group, fanned out to all member
//!   simulators (byte-identical, and the functional work drops by the
//!   factor reported in `meta.shared_passes`). Each group runs whole on
//!   one worker; `--workers` spreads the groups. `--materialized` (trace
//!   replay) was removed and is rejected with an error
//! * `--sampled` — SMARTS-style sampled simulation: each cell simulates a
//!   detailed warm-up + measurement unit at the head of every sampling
//!   period and functionally fast-forwards the rest, so wall-clock scales
//!   with the number of samples instead of the workload length. Cells are
//!   IPC *estimates* with 95% confidence intervals (reported in a `sampling`
//!   results section); `--sample-period 0` measures everything and is
//!   byte-identical to `--streamed`
//! * `--sample-unit N` / `--sample-warmup N` / `--sample-period N` — the
//!   sampling knobs (defaults 1000 / 2000 / 100000 dynamic instructions;
//!   each implies `--sampled`)
//! * `--sweep-dims SPEC` — override the `sweep` experiment's grid, e.g.
//!   `rob=16,32:lat=1,50:way=4,8` (axes: `rob`, `lat`, `way`; omitted axes
//!   keep their defaults)
//! * `--json FILE` — result file path (single experiment only)
//! * `--out-dir DIR` — directory for `BENCH_<name>.json` files (default `.`)
//! * `--results-only` — write only the deterministic results document (no
//!   `meta` section with wall-clock/throughput data); use when regenerating
//!   the committed `baselines/`, so baseline diffs stay free of
//!   machine-specific noise
//! * `--no-json` — skip writing result files
//! * `--quiet` — suppress the text tables
//! * `--baseline FILE` — diff the result against a saved JSON document;
//!   exit code 2 when a regression is found
//! * `--compare FILE` — embed a `comparison` section into the written
//!   document: wall-clock speedup over the exact run saved in FILE plus the
//!   per-cell IPC error against it (how the committed sampled BENCH
//!   artifacts carry their own accuracy evidence)
//! * `--tolerance F` — relative cycle tolerance for `--baseline` (default 0.02)
//! * `--throughput-gate MINST` — exit 2 when an experiment's aggregate
//!   simulator throughput lands below MINST million instructions per second
//!   (full mode only; skipped with a stderr note under `MOM_BENCH_FAST=1`,
//!   and cache-hit cells are exempt from the aggregate — an all-hit run
//!   skips the gate with a note)
//! * `--cache-dir DIR` — persistent content-addressed cell cache: store
//!   every simulated cell as a binary record and serve identical cells from
//!   disk on later runs, byte-identically, across all execution modes
//!   (`meta.cache` in the document and a stderr summary report hit counts)
//! * `--trace-out FILE` — write a Chrome trace-event JSON of the runner's
//!   scheduler spans (one trace process per experiment, one track per worker;
//!   load it in `chrome://tracing` or Perfetto)
//!
//! `momlab diff` (and `--baseline`) gate on simulated cycles only. When both
//! documents carry a `meta.throughput` section, the report additionally
//! prints informational per-cell `insts_per_sec` deltas (`throughput:`
//! lines), and when both carry `meta.shared_passes` it prints the
//! functional-sharing factors (`sharing:` line) — so simulator-performance
//! changes stay visible in CI logs without wall-clock noise ever affecting
//! the exit code.
//!
//! `MOM_BENCH_FAST=1` selects the reduced fast-mode workload subsets (the
//! ones the golden files under `tests/golden/` were captured with).

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;

use mom_apps::AppKind;
use mom_isa::trace::IsaKind;
use mom_kernels::KernelKind;
use mom_lab::baseline::{diff_documents, DEFAULT_TOLERANCE};
use mom_lab::cache::{CacheEntry, CellCache};
use mom_lab::json::Value;
use mom_lab::runner::ExecMode;
use mom_lab::spec::{sweep_spec, ExperimentKind, ExperimentSpec, SweepDims, BUILTIN_EXPERIMENTS};
use mom_lab::{report, runner, RunOptions};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run_cli(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
Usage:
  momlab list [--experiment NAME]...
  momlab describe <NAME>... [--sweep-dims SPEC]
  momlab run <NAME>... | --all [--experiment NAME]... [--kernel K]... [--app A]...
             [--isa I]... [--scale N] [--seed N] [--workers N] [--streamed]
             [--sampled] [--sample-unit N] [--sample-warmup N]
             [--sample-period N] [--sweep-dims SPEC] [--json FILE]
             [--out-dir DIR] [--results-only] [--no-json] [--quiet]
             [--baseline FILE] [--compare FILE] [--tolerance F]
             [--trace-out FILE] [--throughput-gate MINST] [--cache-dir DIR]
  momlab --all
  momlab diff <NEW.json> --baseline <OLD.json> [--tolerance F]
  momlab cache ls|verify|gc [--cache-dir DIR] [--max-bytes N] [--workers N]

Built-in experiments: table1 table2 table3 isa_inventory figure5
                      latency_tolerance figure7 stress sweep

Execution modes: the default fan-out runner shares one functional pass per
(workload, ISA) group across all member machines, each group run whole by
one worker; --streamed makes every cell a group of its own. Both are
byte-identical in their results.
--sampled trades exactness for wall-clock: per sampling period (default
100000 insts) it simulates a detailed warm-up (2000) plus a measured unit
(1000) and fast-forwards the rest, reporting per-cell IPC estimates with
95% confidence intervals in a `sampling` results section. --sample-period 0
measures every instruction and is byte-identical to --streamed.

--sweep-dims overrides the sweep grid, e.g. rob=16,32:lat=1,50:way=4,8.

--trace-out FILE writes a Chrome trace-event JSON of the runner's scheduler
spans (one process per experiment; open in chrome://tracing or Perfetto).

--throughput-gate MINST exits 2 when any selected experiment's aggregate
simulator throughput falls below MINST million instructions per second.
Full-mode runs only: under MOM_BENCH_FAST=1 the gate is skipped (with a
note on stderr), since reduced workloads measure nothing comparable.
Cache hits skip simulation, so cached cells are exempt from the aggregate
and an all-hit run skips the gate entirely (with a stderr note).

--cache-dir DIR enables the persistent content-addressed cell cache: each
grid cell's simulation result is stored as one binary record keyed by the
experiment's config_hash, the cell identity and the engine fingerprint, so
re-running an identical cell costs a file read instead of a simulation —
byte-identical results, any execution mode can serve any other (sampled
runs key separately per sampling knobs). Warm runs report hits on stderr
and in the document's meta.cache section.

momlab cache ls lists the records in a cache directory; cache verify
re-simulates every record this binary can rebuild and diffs at tolerance 0
(exit 2 on mismatch); cache gc --max-bytes N evicts least-recently-used
records until the directory fits in N bytes.

MOM_BENCH_FAST=1 selects the reduced fast-mode workload subsets.";

/// Everything `momlab run` / `momlab list` / `momlab diff` accept.
#[derive(Debug, Default)]
struct Options {
    all: bool,
    names: Vec<String>,
    experiments: Vec<String>,
    kernels: Vec<KernelKind>,
    isas: Vec<IsaKind>,
    apps: Vec<AppKind>,
    scale: usize,
    seed: Option<u64>,
    workers: Option<usize>,
    streamed: bool,
    sampled: bool,
    sample_unit: Option<u64>,
    sample_warmup: Option<u64>,
    sample_period: Option<u64>,
    sweep_dims: Option<String>,
    json: Option<PathBuf>,
    out_dir: PathBuf,
    results_only: bool,
    no_json: bool,
    quiet: bool,
    baseline: Option<PathBuf>,
    compare: Option<PathBuf>,
    tolerance: f64,
    trace_out: Option<PathBuf>,
    throughput_gate: Option<f64>,
    cache_dir: Option<PathBuf>,
    max_bytes: Option<u64>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        scale: 1,
        out_dir: PathBuf::from("."),
        tolerance: DEFAULT_TOLERANCE,
        ..Options::default()
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next().map(String::as_str).ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--all" => opts.all = true,
            "--experiment" => opts.experiments.push(value("--experiment")?.to_string()),
            "--kernel" => opts.kernels.push(KernelKind::from_str(value("--kernel")?)?),
            "--isa" => opts.isas.push(IsaKind::from_str(value("--isa")?)?),
            "--app" => opts.apps.push(AppKind::from_str(value("--app")?)?),
            "--scale" => {
                opts.scale = value("--scale")?
                    .parse()
                    .map_err(|e| format!("--scale: {e}"))
                    .and_then(|s| if s == 0 { Err("--scale must be >= 1".into()) } else { Ok(s) })?
            }
            "--workers" => {
                opts.workers = Some(
                    value("--workers")?
                        .parse()
                        .map_err(|e| format!("--workers: {e}"))
                        .and_then(|w| {
                            if w == 0 {
                                Err("--workers must be >= 1".to_string())
                            } else {
                                Ok(w)
                            }
                        })?,
                )
            }
            "--seed" => {
                opts.seed =
                    Some(value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?)
            }
            "--streamed" => opts.streamed = true,
            "--materialized" => {
                return Err("--materialized was removed: the runner no longer replays \
                            materialized traces; --streamed gives byte-identical per-cell runs"
                    .into())
            }
            "--sampled" => opts.sampled = true,
            "--sample-unit" => {
                opts.sample_unit = Some(
                    value("--sample-unit")?
                        .parse()
                        .map_err(|e| format!("--sample-unit: {e}"))
                        .and_then(|u| {
                            if u == 0 {
                                Err("--sample-unit must be >= 1".to_string())
                            } else {
                                Ok(u)
                            }
                        })?,
                );
                opts.sampled = true;
            }
            "--sample-warmup" => {
                opts.sample_warmup = Some(
                    value("--sample-warmup")?
                        .parse()
                        .map_err(|e| format!("--sample-warmup: {e}"))?,
                );
                opts.sampled = true;
            }
            "--sample-period" => {
                opts.sample_period = Some(
                    value("--sample-period")?
                        .parse()
                        .map_err(|e| format!("--sample-period: {e}"))?,
                );
                opts.sampled = true;
            }
            "--sweep-dims" => opts.sweep_dims = Some(value("--sweep-dims")?.to_string()),
            "--json" => opts.json = Some(PathBuf::from(value("--json")?)),
            "--out-dir" => opts.out_dir = PathBuf::from(value("--out-dir")?),
            "--results-only" => opts.results_only = true,
            "--no-json" => opts.no_json = true,
            "--quiet" => opts.quiet = true,
            "--baseline" => opts.baseline = Some(PathBuf::from(value("--baseline")?)),
            "--compare" => opts.compare = Some(PathBuf::from(value("--compare")?)),
            "--trace-out" => opts.trace_out = Some(PathBuf::from(value("--trace-out")?)),
            "--cache-dir" => opts.cache_dir = Some(PathBuf::from(value("--cache-dir")?)),
            "--max-bytes" => {
                opts.max_bytes = Some(
                    value("--max-bytes")?.parse().map_err(|e| format!("--max-bytes: {e}"))?,
                )
            }
            "--throughput-gate" => {
                opts.throughput_gate = Some(
                    value("--throughput-gate")?
                        .parse()
                        .map_err(|e| format!("--throughput-gate: {e}"))
                        .and_then(|g: f64| {
                            if g.is_finite() && g > 0.0 {
                                Ok(g)
                            } else {
                                Err("--throughput-gate must be a finite value > 0".to_string())
                            }
                        })?,
                )
            }
            "--tolerance" => {
                opts.tolerance = value("--tolerance")?
                    .parse()
                    .map_err(|e| format!("--tolerance: {e}"))
                    .and_then(|t: f64| {
                        if t.is_finite() && t >= 0.0 {
                            Ok(t)
                        } else {
                            Err("--tolerance must be a finite value >= 0".to_string())
                        }
                    })?
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            name => opts.names.push(name.to_string()),
        }
    }
    Ok(opts)
}

fn run_cli(args: &[String]) -> Result<ExitCode, String> {
    // `--help`/`-h` anywhere (including after a subcommand) prints usage and
    // succeeds.
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return Ok(ExitCode::SUCCESS);
    }
    match args.first().map(String::as_str) {
        None => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        Some("list") => cmd_list(&parse_options(&args[1..])?),
        Some("describe") => cmd_describe(&parse_options(&args[1..])?),
        Some("run") => cmd_run(&parse_options(&args[1..])?),
        Some("diff") => cmd_diff(&parse_options(&args[1..])?),
        Some("cache") => cmd_cache(&parse_options(&args[1..])?),
        // `momlab --all` is a shorthand for `momlab run --all`.
        Some(_) => cmd_run(&parse_options(args)?),
    }
}

/// Which experiments the name/--experiment/--all selection resolves to.
fn selected_specs(opts: &Options) -> Result<Vec<ExperimentSpec>, String> {
    let fast = mom_lab::fast_mode();
    // Validate --experiment names up front: with --all a misspelled filter
    // would otherwise silently select nothing and exit 0.
    for name in &opts.experiments {
        if !BUILTIN_EXPERIMENTS.contains(&name.as_str()) {
            return Err(format!(
                "unknown experiment {name:?} (try: {})",
                BUILTIN_EXPERIMENTS.join(", ")
            ));
        }
    }
    let mut names: Vec<String> = opts.names.clone();
    names.extend(opts.experiments.iter().cloned());
    if opts.all || names.is_empty() {
        names = BUILTIN_EXPERIMENTS.iter().map(|&n| n.to_string()).collect();
        if !opts.experiments.is_empty() {
            names.retain(|n| opts.experiments.contains(n));
        }
    }
    if opts.sweep_dims.is_some() && !names.iter().any(|n| n == "sweep") {
        return Err("--sweep-dims applies to the sweep experiment; select it explicitly".into());
    }
    let mut specs = Vec::new();
    for name in &names {
        let mut spec = if name == "sweep" && opts.sweep_dims.is_some() {
            let dims = SweepDims::parse(opts.sweep_dims.as_deref().unwrap_or_default(), fast)?;
            sweep_spec(&dims, opts.scale, fast)
        } else {
            ExperimentSpec::builtin(name, opts.scale, fast).ok_or_else(|| {
                format!("unknown experiment {name:?} (try: {})", BUILTIN_EXPERIMENTS.join(", "))
            })?
        };
        if let ExperimentKind::Grid(grid) = &mut spec.kind {
            // The seed is part of the spec, so the override flows into the
            // config_hash and the results document automatically.
            if let Some(seed) = opts.seed {
                grid.seed = seed;
            }
            if !opts.kernels.is_empty() {
                grid.retain_kernels(&opts.kernels);
            }
            if !opts.apps.is_empty() {
                grid.retain_apps(&opts.apps);
            }
            if !opts.isas.is_empty() {
                grid.retain_isas(&opts.isas);
            }
            if grid.workloads.is_empty() || grid.configs.is_empty() {
                return Err(format!(
                    "the --kernel/--app/--isa filters leave {name} with an empty grid"
                ));
            }
        }
        specs.push(spec);
    }
    Ok(specs)
}

fn cmd_list(opts: &Options) -> Result<ExitCode, String> {
    let specs = selected_specs(opts)?;
    println!("{:<20} {:<6} {:>6} title", "experiment", "kind", "cells");
    for spec in &specs {
        let (kind, cells) = match spec.grid() {
            Some(grid) => ("grid", grid.cells().len().to_string()),
            None => ("static", "-".to_string()),
        };
        println!("{:<20} {:<6} {:>6} {}", spec.name, kind, cells, spec.title);
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_describe(opts: &Options) -> Result<ExitCode, String> {
    if opts.names.is_empty() && opts.experiments.is_empty() && !opts.all {
        return Err("describe takes at least one experiment name".into());
    }
    let specs = selected_specs(opts)?;
    for (i, spec) in specs.iter().enumerate() {
        if i > 0 {
            println!();
        }
        print!("{}", report::describe(spec));
    }
    Ok(ExitCode::SUCCESS)
}

fn read_document(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Value::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Build the `comparison` member `--compare` embeds in the written document:
/// wall-clock speedup against the exact baseline run plus the per-cell IPC
/// error of this run's estimates, so a committed sampled BENCH artifact
/// carries its own accuracy evidence. Both documents must be grid results of
/// the same experiment at the same scale, and the baseline must carry
/// `meta.wall_ms` (i.e. not be a `--results-only` document).
fn comparison_section(
    new: &Value,
    exact: &Value,
    exact_path: &Path,
    wall_ms: u64,
) -> Result<Value, String> {
    for field in ["experiment", "scale", "config_hash"] {
        let (a, b) = (new.get(field), exact.get(field));
        if a != b {
            return Err(format!(
                "--compare: {field} mismatch (this run: {}, {}: {})",
                a.map(Value::to_compact).unwrap_or_else(|| "absent".into()),
                exact_path.display(),
                b.map(Value::to_compact).unwrap_or_else(|| "absent".into()),
            ));
        }
    }
    let exact_wall = exact
        .get("meta")
        .and_then(|m| m.get("wall_ms"))
        .and_then(Value::as_i64)
        .ok_or_else(|| {
            format!(
                "--compare: {} carries no meta.wall_ms (written with --results-only?)",
                exact_path.display()
            )
        })?;
    let exact_mode = exact
        .get("meta")
        .and_then(|m| m.get("mode"))
        .and_then(Value::as_str)
        .unwrap_or("?")
        .to_string();
    let cells = |doc: &Value| -> Result<Vec<Value>, String> {
        doc.get("cells")
            .and_then(Value::as_array)
            .map(<[Value]>::to_vec)
            .ok_or_else(|| "--compare applies to grid results only".into())
    };
    let key = |c: &Value| {
        (
            c.get("workload").and_then(Value::as_str).unwrap_or("?").to_string(),
            c.get("config").and_then(Value::as_str).unwrap_or("?").to_string(),
            c.get("way").and_then(Value::as_i64).unwrap_or(-1),
        )
    };
    let ipc = |c: &Value| -> Option<f64> {
        let insts = c.get("instructions").and_then(Value::as_f64)?;
        let cycles = c.get("cycles").and_then(Value::as_f64).filter(|&v| v > 0.0)?;
        Some(insts / cycles)
    };
    let exact_cells = cells(exact)?;
    let mut rows = Vec::new();
    let mut max_error = 0.0f64;
    for cell in &cells(new)? {
        let (workload, config, way) = key(cell);
        let Some(exact_cell) = exact_cells.iter().find(|c| key(c) == key(cell)) else {
            return Err(format!(
                "--compare: cell {workload} / {config} / {way}-way is missing from {}",
                exact_path.display()
            ));
        };
        let (Some(this_ipc), Some(exact_ipc)) = (ipc(cell), ipc(exact_cell)) else {
            return Err(format!(
                "--compare: cell {workload} / {config} / {way}-way has unreadable IPC"
            ));
        };
        let error_pct = (this_ipc - exact_ipc).abs() / exact_ipc * 100.0;
        max_error = max_error.max(error_pct);
        rows.push(Value::object(vec![
            ("workload", Value::Str(workload)),
            ("config", Value::Str(config)),
            ("way", Value::Int(way)),
            ("ipc_exact", Value::Float(exact_ipc)),
            ("ipc_this", Value::Float(this_ipc)),
            ("ipc_error_pct", Value::Float(error_pct)),
        ]));
    }
    Ok(Value::object(vec![
        ("baseline", Value::Str(exact_path.display().to_string())),
        ("baseline_mode", Value::Str(exact_mode)),
        ("baseline_wall_ms", Value::Int(exact_wall)),
        ("wall_ms", Value::Int(wall_ms as i64)),
        ("speedup", Value::Float(exact_wall as f64 / (wall_ms.max(1)) as f64)),
        ("max_ipc_error_pct", Value::Float(max_error)),
        ("cells", Value::Array(rows)),
    ]))
}

fn cmd_run(opts: &Options) -> Result<ExitCode, String> {
    let specs = selected_specs(opts)?;
    if opts.json.is_some() && specs.len() != 1 {
        return Err("--json FILE applies to a single experiment; use --out-dir for several".into());
    }
    if opts.baseline.is_some() && specs.len() != 1 {
        return Err("--baseline applies to a single experiment; use `momlab diff` per file".into());
    }
    if opts.compare.is_some() && specs.len() != 1 {
        return Err("--compare applies to a single experiment".into());
    }
    let workers = opts.workers.unwrap_or_else(runner::default_workers);
    if opts.streamed && opts.sampled {
        return Err("--streamed and --sampled are mutually exclusive".into());
    }
    let mode = if opts.sampled {
        let unit_insts = opts.sample_unit.unwrap_or(runner::DEFAULT_SAMPLE_UNIT);
        let warmup_insts = opts.sample_warmup.unwrap_or(runner::DEFAULT_SAMPLE_WARMUP);
        let period = opts.sample_period.unwrap_or(runner::DEFAULT_SAMPLE_PERIOD);
        if period != 0 && period < warmup_insts + unit_insts {
            return Err(format!(
                "--sample-period {period} is shorter than --sample-warmup {warmup_insts} \
                 + --sample-unit {unit_insts} (use 0 to measure everything)"
            ));
        }
        ExecMode::Sampled { unit_insts, warmup_insts, period }
    } else if opts.streamed {
        ExecMode::Streamed
    } else {
        ExecMode::Fanout
    };
    let cache = opts
        .cache_dir
        .as_ref()
        .map(|dir| {
            CellCache::open(dir)
                .map_err(|e| format!("cannot open cache directory {}: {e}", dir.display()))
        })
        .transpose()?;

    let mut exit = ExitCode::SUCCESS;
    // The throughput gate compares against full-mode workloads; fast mode's
    // reduced subsets would pass or fail it meaninglessly.
    let gate = opts.throughput_gate.filter(|_| {
        if mom_lab::fast_mode() {
            eprintln!("throughput gate skipped: fast mode (MOM_BENCH_FAST=1) runs reduced workloads");
            false
        } else {
            true
        }
    });
    let mut trace_processes: Vec<(String, Vec<runner::SpanRec>)> = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let result = runner::run(
            spec,
            &RunOptions { workers, mode, progress: !opts.quiet, cache: cache.as_ref() },
        );
        if let Some(meta) = &result.cache {
            eprintln!(
                "cache: {} hit(s), {} miss(es), {} fill(s), {} bytes in {}",
                meta.hits, meta.misses, meta.fills, meta.bytes, meta.dir
            );
        }
        if opts.trace_out.is_some() {
            trace_processes.push((spec.name.clone(), result.spans.clone()));
        }
        if !opts.quiet {
            if i > 0 {
                println!();
            }
            print!("{}", report::render(&result));
            if let Some(stack) = report::render_breakdown(&result) {
                println!();
                print!("{stack}");
            }
        }
        if !opts.no_json {
            let path = match &opts.json {
                Some(path) => path.clone(),
                None => opts.out_dir.join(format!("BENCH_{}.json", spec.name)),
            };
            if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
                std::fs::create_dir_all(dir)
                    .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
            }
            let mut document = if opts.results_only {
                result.results_json()
            } else {
                result.document_json()
            };
            if let Some(exact_path) = &opts.compare {
                let exact = read_document(exact_path)?;
                let section = comparison_section(&document, &exact, exact_path, result.wall_ms)?;
                let Value::Object(members) = &mut document else {
                    return Err("result document is not a JSON object".into());
                };
                members.push(("comparison".into(), section));
            }
            std::fs::write(&path, document.to_pretty())
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            let throughput = result
                .total_insts_per_sec()
                .map(|ips| format!(", {:.1} Minst/s", ips / 1e6))
                .unwrap_or_default();
            let sharing = result
                .sharing_factor()
                .filter(|&f| f > 1.0)
                .map(|f| format!(", {f:.1}x shared functional pass"))
                .unwrap_or_default();
            eprintln!(
                "wrote {} ({} workers, {} ms, {}{}{})",
                path.display(),
                result.workers,
                result.wall_ms,
                result.mode.label(),
                throughput,
                sharing,
            );
        }
        if let Some(baseline_path) = &opts.baseline {
            let baseline = read_document(baseline_path)?;
            let diff = diff_documents(&result.document_json(), &baseline, opts.tolerance)?;
            eprint!("{diff}");
            if diff.has_regressions() {
                exit = ExitCode::from(2);
            }
        }
        // Static experiments read configuration tables and time nothing, so
        // they are exempt rather than failed — `run --all --throughput-gate`
        // must stay usable. A *grid* run with no measurement still fails:
        // a gate that silently passes unmeasured runs is no gate.
        if let Some(gate_minst) = gate.filter(|_| !matches!(spec.kind, ExperimentKind::Static(_))) {
            // Cache hits skip simulation entirely, so an all-hit run measures
            // cache I/O, not simulator throughput — exempt, like fast mode.
            if result.all_cells_cached() {
                eprintln!(
                    "throughput gate: {}: skipped (all {} cell(s) served from cache)",
                    spec.name,
                    result.cells().map_or(0, <[runner::CellResult]>::len)
                );
                continue;
            }
            match result.total_insts_per_sec() {
                Some(ips) if ips >= gate_minst * 1e6 => {
                    eprintln!(
                        "throughput gate: {}: {:.1} Minst/s >= {gate_minst} Minst/s",
                        spec.name,
                        ips / 1e6
                    );
                }
                Some(ips) => {
                    eprintln!(
                        "throughput gate FAILED: {}: {:.1} Minst/s < {gate_minst} Minst/s",
                        spec.name,
                        ips / 1e6
                    );
                    exit = ExitCode::from(2);
                }
                None => {
                    eprintln!(
                        "throughput gate FAILED: {}: run produced no throughput measurement",
                        spec.name
                    );
                    exit = ExitCode::from(2);
                }
            }
        }
    }
    if let Some(path) = &opts.trace_out {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
        let document = mom_lab::trace::chrome_trace(&trace_processes);
        std::fs::write(path, document.to_pretty())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        let spans: usize = trace_processes.iter().map(|(_, s)| s.len()).sum();
        eprintln!("wrote {} ({spans} span(s))", path.display());
    }
    Ok(exit)
}

/// `momlab cache <ls|verify|gc>` — inspect and maintain a persistent cell
/// cache named by `--cache-dir`.
fn cmd_cache(opts: &Options) -> Result<ExitCode, String> {
    let verb = opts
        .names
        .first()
        .map(String::as_str)
        .ok_or_else(|| "cache takes a subcommand: ls, verify or gc".to_string())?;
    let dir = opts.cache_dir.as_ref().ok_or("cache needs --cache-dir DIR")?;
    let cache = CellCache::open(dir)
        .map_err(|e| format!("cannot open cache directory {}: {e}", dir.display()))?;
    match verb {
        "ls" => cmd_cache_ls(&cache),
        "verify" => cmd_cache_verify(&cache, opts),
        "gc" => {
            let max = opts.max_bytes.ok_or("cache gc needs --max-bytes N")?;
            let (evicted, evicted_bytes, remaining) = cache
                .gc(max)
                .map_err(|e| format!("cache gc in {}: {e}", cache.dir().display()))?;
            eprintln!(
                "evicted {evicted} record(s) ({evicted_bytes} bytes); {remaining} bytes remain in {}",
                cache.dir().display()
            );
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown cache subcommand {other:?} (try: ls, verify, gc)")),
    }
}

fn cmd_cache_ls(cache: &CellCache) -> Result<ExitCode, String> {
    let entries = cache
        .entries()
        .map_err(|e| format!("cannot list cache {}: {e}", cache.dir().display()))?;
    println!("{:<22} {:>8} key", "record", "bytes");
    let mut total = 0u64;
    for entry in &entries {
        total += entry.bytes;
        let name = entry.path.file_name().unwrap_or_default().to_string_lossy().into_owned();
        match &entry.key {
            Some(key) => println!("{name:<22} {:>8} {}", entry.bytes, key.canonical()),
            None => println!("{name:<22} {:>8} (unreadable record)", entry.bytes),
        }
    }
    println!("{} record(s), {total} bytes in {}", entries.len(), cache.dir().display());
    Ok(ExitCode::SUCCESS)
}

/// `momlab cache verify` — re-simulate every verifiable record and diff at
/// tolerance 0. Records are grouped by (experiment, fast, scale, seed,
/// sampling, config_hash) so each group costs one run of its spec into a
/// throwaway cache; the freshly filled record files are then compared
/// byte-for-byte against the stored ones (records carry no timestamps, so
/// equal bytes means equal results). Records from another engine fingerprint
/// or a spec this binary cannot rebuild (custom `--sweep-dims`, filtered
/// grids) are skipped with a note — they are unverifiable here, not wrong.
fn cmd_cache_verify(cache: &CellCache, opts: &Options) -> Result<ExitCode, String> {
    let entries = cache
        .entries()
        .map_err(|e| format!("cannot list cache {}: {e}", cache.dir().display()))?;
    let engine = mom_lab::engine_fingerprint();
    let workers = opts.workers.unwrap_or_else(runner::default_workers);
    let mut groups: Vec<(String, Vec<&CacheEntry>)> = Vec::new();
    let mut skipped = 0usize;
    for entry in &entries {
        let name = entry.path.file_name().unwrap_or_default().to_string_lossy().into_owned();
        let Some(key) = &entry.key else {
            eprintln!("skip {name}: unreadable record (a clean miss on the next run)");
            skipped += 1;
            continue;
        };
        if key.engine != engine {
            eprintln!("skip {name}: engine {:?} (this binary is {engine:?})", key.engine);
            skipped += 1;
            continue;
        }
        let group_id = format!(
            "{} fast:{} {} scale:{} seed:{} {:?}",
            key.experiment, key.fast, key.config_hash, key.scale, key.seed, key.sampling
        );
        match groups.iter_mut().find(|(id, _)| *id == group_id) {
            Some((_, members)) => members.push(entry),
            None => groups.push((group_id, vec![entry])),
        }
    }
    let tmp_dir = std::env::temp_dir().join(format!("momlab-verify-{}", std::process::id()));
    let tmp = CellCache::open(&tmp_dir)
        .map_err(|e| format!("cannot create scratch cache {}: {e}", tmp_dir.display()))?;
    let mut verified = 0usize;
    let mut mismatches = 0usize;
    for (group_id, members) in &groups {
        let key = members[0].key.as_ref().expect("grouped entries have keys");
        let spec = ExperimentSpec::builtin(&key.experiment, key.scale as usize, key.fast)
            .map(|mut spec| {
                if let ExperimentKind::Grid(grid) = &mut spec.kind {
                    grid.seed = key.seed;
                }
                spec
            })
            .filter(|spec| spec.config_hash() == key.config_hash);
        let Some(spec) = spec else {
            eprintln!(
                "skip {} record(s) of [{group_id}]: cannot rebuild the spec \
                 (filtered grid, custom --sweep-dims, or a renamed experiment)",
                members.len()
            );
            skipped += members.len();
            continue;
        };
        let mode = match key.sampling {
            Some(s) => {
                ExecMode::Sampled { unit_insts: s.unit, warmup_insts: s.warmup, period: s.period }
            }
            None => ExecMode::Streamed,
        };
        runner::run(&spec, &RunOptions { workers, mode, cache: Some(&tmp), ..Default::default() });
        for entry in members {
            let key = entry.key.as_ref().expect("grouped entries have keys");
            let stored = std::fs::read(&entry.path)
                .map_err(|e| format!("cannot read {}: {e}", entry.path.display()))?;
            let fresh = std::fs::read(tmp.record_path(key)).ok();
            if fresh.as_deref() == Some(stored.as_slice()) {
                verified += 1;
            } else {
                mismatches += 1;
                eprintln!(
                    "MISMATCH {}: re-simulation disagrees with the stored record ({})",
                    entry.path.file_name().unwrap_or_default().to_string_lossy(),
                    key.canonical()
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(&tmp_dir);
    eprintln!(
        "verified {verified} record(s) across {} group(s); {skipped} skipped, {mismatches} mismatch(es)",
        groups.len()
    );
    Ok(if mismatches > 0 { ExitCode::from(2) } else { ExitCode::SUCCESS })
}

fn cmd_diff(opts: &Options) -> Result<ExitCode, String> {
    let [new_path] = opts.names.as_slice() else {
        return Err("diff takes exactly one result file plus --baseline <file>".into());
    };
    let baseline_path =
        opts.baseline.as_ref().ok_or_else(|| "diff needs --baseline <file>".to_string())?;
    let new_doc = read_document(Path::new(new_path))?;
    let baseline = read_document(baseline_path)?;
    let diff = diff_documents(&new_doc, &baseline, opts.tolerance)?;
    print!("{diff}");
    Ok(if diff.has_regressions() { ExitCode::from(2) } else { ExitCode::SUCCESS })
}
