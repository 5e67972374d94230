//! `momlab` — the experiment-orchestration CLI: `list`, `describe`, `run`,
//! `diff` and `cache ls|verify|gc`.
//!
//! Each command accepts exactly the flags of the `TABLES` that name it; any
//! other flag is a usage error naming the commands that own it. `momlab
//! --help` is rendered from `COMMANDS` and `TABLES`, so the help text and
//! the parser cannot drift apart. `MOM_BENCH_FAST=1` selects the reduced
//! fast-mode workload subsets (the ones the golden files under
//! `tests/golden/` were captured with).

use std::borrow::Borrow;
use std::fmt::Display;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;

use mom_apps::AppKind;
use mom_isa::trace::IsaKind;
use mom_kernels::KernelKind;
use mom_lab::baseline::{diff_documents, exact_diff};
use mom_lab::cache::{CacheEntry, CellCache};
use mom_lab::json::Value;
use mom_lab::runner::ExecMode;
use mom_lab::spec::{
    sweep_spec, ExperimentKind, ExperimentSpec, GridSpec, SweepDims, BUILTIN_EXPERIMENTS,
};
use mom_lab::{note, report, runner, RunOptions};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (msg, usage) = match run_cli(&args) {
        Ok(code) => return code,
        Err(Failure::Usage(msg)) => (msg, true),
        Err(Failure::Error(msg)) => (msg, false),
    };
    note(format_args!("error: {msg}"));
    if usage {
        note(format_args!("\n{}", help()));
    }
    ExitCode::FAILURE
}

/// Why a command failed. Only an argument error is followed by the usage
/// text; an error about a file's contents or a run is its one line.
enum Failure {
    /// An unknown command or flag, or a missing or malformed value.
    Usage(String),
    /// Any other error.
    Error(String),
}

impl From<String> for Failure {
    fn from(msg: String) -> Self {
        Failure::Error(msg)
    }
}

fn usage(msg: &str) -> Failure {
    Failure::Usage(msg.to_string())
}

/// Print `text` on stdout, the one way the commands write there. A write
/// error (stdout closed early, as by `| head -1`) is an ordinary failure:
/// exit 1, not a panic.
fn out(text: impl Display) -> Result<(), String> {
    let mut stdout = std::io::stdout().lock();
    write!(stdout, "{text}")
        .and_then(|()| stdout.flush())
        .map_err(|e| format!("cannot write to stdout: {e}"))
}

/// The commands: their words, their operands and what they do.
const COMMANDS: &[(&str, &str, &str)] = &[
    ("list", "[NAME]...", "list the selected experiments (all by default)"),
    ("describe", "<NAME>...", "print the machine grid of each selected experiment"),
    ("run", "<NAME>... | --all", "run experiments: print their tables, write BENCH_*.json"),
    ("diff", "<NEW.json>", "compare a result with a saved one (exit 2 on a difference)"),
    ("cache ls", "", "list the records of a cell cache"),
    ("cache verify", "", "re-simulate every record and compare (exit 2 on a mismatch)"),
    ("cache gc", "", "evict least-recently-used records"),
];

/// A flag: its name, the metavar of its value (empty for a switch) and its
/// help line.
type Flag = (&'static str, &'static str, &'static str);

/// Every flag, in tables; each table names the commands that accept its
/// flags. The first is the experiment selection `selected_specs` reads.
const TABLES: &[(&[&str], &[Flag])] = &[
    (
        &["list", "describe", "run"],
        &[
            ("--all", "", "every built-in experiment (the default without a NAME)"),
            ("--experiment", "NAME", "select NAME; with --all, keep only these (repeatable)"),
            ("--kernel", "K", "keep only these kernels in grid experiments (repeatable)"),
            ("--app", "A", "keep only these applications (repeatable)"),
            ("--isa", "I", "keep only these ISAs (repeatable)"),
            ("--scale", "N", "workload scale, at least 1 (default 1)"),
            ("--seed", "N", "workload seed override (part of the config_hash)"),
            ("--sweep-dims", "SPEC", "the sweep grid, e.g. rob=16,32:lat=1,50:way=4,8"),
        ],
    ),
    (
        &["run"],
        &[
            ("--workers", "N", "worker threads, at least 1 (default: min(cpus, 8))"),
            ("--streamed", "", "one group per cell instead of one per (workload, ISA)"),
            ("--sampled", "", "sampled simulation: IPC estimates with 95% CIs"),
            ("--sample-unit", "N", "measured instructions per period (default 1000)"),
            ("--sample-warmup", "N", "detailed warm-up per period (default 2000)"),
            ("--sample-period", "N", "instructions per sampling period (default 100000)"),
            ("--json", "FILE", "the result file (one experiment only)"),
            ("--out-dir", "DIR", "where BENCH_<name>.json files go (default .)"),
            ("--results-only", "", "write no host-dependent meta section"),
            ("--no-json", "", "write no result file"),
            ("--quiet", "", "print no text tables"),
            ("--trace-out", "FILE", "write a Chrome trace of the scheduler's spans"),
            ("--cache-dir", "DIR", "serve identical cells from this persistent cache"),
        ],
    ),
    (
        &["diff"],
        &[
            ("--baseline", "OLD.json", "the saved result to compare with (required)"),
            ("--tolerance", "F", "0: exact (the default); above 0: cycles per cell"),
        ],
    ),
    (&["cache ls", "cache verify", "cache gc"], &[("--cache-dir", "DIR", "the cache (required)")]),
    (
        &["cache verify"],
        &[("--workers", "N", "worker threads, at least 1 (default: min(cpus, 8))")],
    ),
    (&["cache gc"], &[("--max-bytes", "N", "evict until at most N bytes remain (required)")]),
];

const NOTES: &str = "\
Execution modes: by default one functional pass per (workload, ISA) group
feeds all of its machines, each group run whole by one worker; --streamed
gives every cell a group of its own, with the same results. --sampled (or
any --sample-* flag) simulates a detailed warm-up plus a measured unit at
the head of every sampling period and fast-forwards the rest. The unit must
be at least 1 and the period at least warm-up + unit.

momlab diff at --tolerance 0 (the default) compares every member but meta
(a sampling section only the new result has is skipped) and names the
first differing path. Above 0 it compares the cycles of two runs of one
grid cell by cell; documents of different grids are an error.

The cell cache stores each simulated cell as a JSON record keyed by its
inputs (workload, scale, seed, ISA, memory model, ROB size, width) and the
engine fingerprint, so identical cells of different experiments share one
record and any execution mode serves any other; sampled runs key separately
per sampling knobs. The cache commands fail on a directory that does not
exist.

MOM_BENCH_FAST=1 selects the reduced fast-mode workload subsets.";

/// The flags `command` accepts.
fn flags(command: &str) -> impl Iterator<Item = &'static Flag> + '_ {
    TABLES.iter().filter(move |(commands, _)| commands.contains(&command)).flat_map(|(_, f)| *f)
}

/// `a`, `a and b`, `a, b and c`.
fn and_list<S: Borrow<str>>(items: &[S]) -> String {
    match items.split_last() {
        Some((last, rest)) if !rest.is_empty() => {
            format!("{} and {}", rest.join(", "), last.borrow())
        }
        _ => items.concat(),
    }
}

/// The help text, rendered from `COMMANDS` and `TABLES`.
fn help() -> String {
    let mut out = String::from("Usage: momlab <COMMAND> [FLAGS]\n\nCommands:\n");
    for (name, operands, about) in COMMANDS {
        out += &format!("  {:<30}  {about}\n", format!("momlab {name} {operands}").trim_end());
    }
    for (commands, flags) in TABLES {
        out += &format!("\nFlags of {}:\n", and_list(commands));
        for (name, value, text) in *flags {
            out += &format!("  {:<20}  {text}\n", format!("{name} {value}").trim_end());
        }
    }
    format!("{out}\nBuilt-in experiments:\n  {}\n\n{NOTES}", BUILTIN_EXPERIMENTS.join(" "))
}

/// A command line read against one command's flags: its operands, and each
/// flag given, in order, with its value (empty for a switch).
struct Args {
    operands: Vec<String>,
    flags: Vec<(&'static str, String)>,
}

impl Args {
    fn parse(command: &str, args: &[String]) -> Result<Args, Failure> {
        let mut parsed = Args { operands: Vec::new(), flags: Vec::new() };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if !arg.starts_with("--") {
                parsed.operands.push(arg.clone());
                continue;
            }
            let Some(&(name, value, _)) = flags(command).find(|f| f.0 == arg) else {
                let owners: Vec<String> = COMMANDS
                    .iter()
                    .filter(|(c, _, _)| flags(c).any(|f| f.0 == arg))
                    .map(|(c, _, _)| format!("`momlab {c}`"))
                    .collect();
                return Err(usage(&if owners.is_empty() {
                    format!("unknown flag {arg}")
                } else {
                    format!("{arg} is a flag of {}, not of `momlab {command}`", and_list(&owners))
                }));
            };
            let value = match value {
                "" => String::new(),
                _ => it.next().ok_or_else(|| usage(&format!("{name} needs a value")))?.clone(),
            };
            parsed.flags.push((name, value));
        }
        Ok(parsed)
    }

    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| *f == flag)
    }

    /// The last value given for `flag`.
    fn text(&self, flag: &str) -> Option<&str> {
        self.flags.iter().rev().find(|(f, _)| *f == flag).map(|(_, v)| v.as_str())
    }

    /// Every value given for `flag`, parsed.
    fn all<T: FromStr<Err: Display>>(&self, flag: &str) -> Result<Vec<T>, Failure> {
        let values = self.flags.iter().filter(|(f, _)| *f == flag);
        values.map(|(_, v)| v.parse().map_err(|e| usage(&format!("{flag}: {e}")))).collect()
    }

    /// The last value given for `flag`, parsed.
    fn last<T: FromStr<Err: Display>>(&self, flag: &str) -> Result<Option<T>, Failure> {
        Ok(self.all(flag)?.pop())
    }

    /// The last value given for a count `flag`, which must be at least 1.
    fn count(&self, flag: &str) -> Result<Option<usize>, Failure> {
        match self.last(flag)? {
            Some(0) => Err(usage(&format!("{flag} must be >= 1"))),
            count => Ok(count),
        }
    }
}

fn run_cli(args: &[String]) -> Result<ExitCode, Failure> {
    // `--help`/`-h` anywhere (including after a command) prints the help
    // and succeeds.
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        out(format_args!("{}\n", help()))?;
        return Ok(ExitCode::SUCCESS);
    }
    let words = |name: &str| name.split(' ').count();
    let Some(&(command, operands, _)) = COMMANDS
        .iter()
        .find(|(name, _, _)| args.get(..words(name)).is_some_and(|w| w.join(" ") == *name))
    else {
        let names: Vec<&str> = COMMANDS.iter().map(|c| c.0).collect();
        return Err(usage(&format!("unknown command {:?} (try: {})", args[0], names.join(", "))));
    };
    let args = Args::parse(command, &args[words(command)..])?;
    if let Some(extra) = args.operands.first().filter(|_| operands.is_empty()) {
        return Err(usage(&format!("`momlab {command}` takes no operand, got {extra:?}")));
    }
    match command {
        "list" => cmd_list(&args),
        "describe" => cmd_describe(&args),
        "run" => cmd_run(&args),
        "diff" => cmd_diff(&args),
        "cache ls" => Ok(cmd_cache_ls(&open_cache(&args)?)?),
        "cache verify" => {
            let workers = args.count("--workers")?.unwrap_or_else(runner::default_workers);
            Ok(cmd_cache_verify(&open_cache(&args)?, workers)?)
        }
        "cache gc" => {
            let max = args.last("--max-bytes")?;
            let max = max.ok_or_else(|| usage("cache gc needs --max-bytes N"))?;
            let cache = open_cache(&args)?;
            let (evicted, evicted_bytes, remaining) =
                cache.gc(max).map_err(|e| format!("cache gc in {}: {e}", cache.dir().display()))?;
            note(format_args!(
                "evicted {evicted} record(s) ({evicted_bytes} bytes); {remaining} bytes remain in {}",
                cache.dir().display()
            ));
            Ok(ExitCode::SUCCESS)
        }
        other => unreachable!("{other} is not in COMMANDS"),
    }
}

/// Which experiments the name/--experiment/--all selection resolves to.
fn selected_specs(args: &Args) -> Result<Vec<ExperimentSpec>, Failure> {
    let fast = mom_lab::fast_mode();
    let experiments: Vec<String> = args.all("--experiment")?;
    let kernels: Vec<KernelKind> = args.all("--kernel")?;
    let apps: Vec<AppKind> = args.all("--app")?;
    let isas: Vec<IsaKind> = args.all("--isa")?;
    let scale = args.count("--scale")?.unwrap_or(1);
    let seed: Option<u64> = args.last("--seed")?;
    let sweep_dims = args.text("--sweep-dims");
    let unknown = |name: &str| {
        format!("unknown experiment {name:?} (try: {})", BUILTIN_EXPERIMENTS.join(", "))
    };
    // Validate --experiment names up front: with --all a misspelled filter
    // would otherwise silently select nothing and exit 0.
    if let Some(name) = experiments.iter().find(|n| !BUILTIN_EXPERIMENTS.contains(&n.as_str())) {
        return Err(unknown(name).into());
    }
    let mut names: Vec<String> = args.operands.clone();
    names.extend(experiments.iter().cloned());
    if args.has("--all") || names.is_empty() {
        names = BUILTIN_EXPERIMENTS.iter().map(|&n| n.to_string()).collect();
        if !experiments.is_empty() {
            names.retain(|n| experiments.contains(n));
        }
    }
    if sweep_dims.is_some() && !names.iter().any(|n| n == "sweep") {
        return Err(Failure::Error(
            "--sweep-dims applies to the sweep experiment; select it explicitly".into(),
        ));
    }
    let mut specs = Vec::new();
    for name in &names {
        let mut spec = match sweep_dims.filter(|_| name == "sweep") {
            Some(dims) => sweep_spec(&SweepDims::parse(dims, fast)?, scale, fast),
            None => ExperimentSpec::builtin(name, scale, fast).ok_or_else(|| unknown(name))?,
        };
        if let ExperimentKind::Grid(grid) = &mut spec.kind {
            // The seed is part of the spec, so the override flows into the
            // config_hash and the results document automatically.
            if let Some(seed) = seed {
                grid.seed = seed;
            }
            if !kernels.is_empty() {
                grid.retain_kernels(&kernels);
            }
            if !apps.is_empty() {
                grid.retain_apps(&apps);
            }
            if !isas.is_empty() {
                grid.retain_isas(&isas);
            }
            if grid.workloads.is_empty() || grid.configs.is_empty() {
                let msg =
                    format!("the --kernel/--app/--isa filters leave {name} with an empty grid");
                return Err(msg.into());
            }
        }
        specs.push(spec);
    }
    Ok(specs)
}

fn cmd_list(args: &Args) -> Result<ExitCode, Failure> {
    let specs = selected_specs(args)?;
    out(format_args!("{:<20} {:<6} {:>6} title\n", "experiment", "kind", "cells"))?;
    for spec in &specs {
        let (kind, cells) = match spec.grid() {
            Some(grid) => ("grid", grid.cells().len().to_string()),
            None => ("static", "-".to_string()),
        };
        out(format_args!("{:<20} {:<6} {:>6} {}\n", spec.name, kind, cells, spec.title))?;
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_describe(args: &Args) -> Result<ExitCode, Failure> {
    if args.operands.is_empty() && !args.has("--experiment") && !args.has("--all") {
        return Err(usage("describe takes at least one experiment name"));
    }
    let specs = selected_specs(args)?;
    for (i, spec) in specs.iter().enumerate() {
        if i > 0 {
            out("\n")?;
        }
        out(report::describe(spec))?;
    }
    Ok(ExitCode::SUCCESS)
}

fn read_document(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Value::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn cmd_run(args: &Args) -> Result<ExitCode, Failure> {
    let specs = selected_specs(args)?;
    let json = args.text("--json").map(PathBuf::from);
    if json.is_some() && specs.len() != 1 {
        return Err(Failure::Error(
            "--json FILE applies to a single experiment; use --out-dir for several".into(),
        ));
    }
    let workers = args.count("--workers")?.unwrap_or_else(runner::default_workers);
    // Each sampling knob implies --sampled.
    let sampled = args.flags.iter().any(|(f, _)| f.starts_with("--sample"));
    let quiet = args.has("--quiet");
    if args.has("--streamed") && sampled {
        return Err(Failure::Error("--streamed and --sampled are mutually exclusive".into()));
    }
    let mode = if sampled {
        ExecMode::Sampled {
            unit_insts: args.last("--sample-unit")?.unwrap_or(runner::DEFAULT_SAMPLE_UNIT),
            warmup_insts: args.last("--sample-warmup")?.unwrap_or(runner::DEFAULT_SAMPLE_WARMUP),
            period: args.last("--sample-period")?.unwrap_or(runner::DEFAULT_SAMPLE_PERIOD),
        }
    } else if args.has("--streamed") {
        ExecMode::Streamed
    } else {
        ExecMode::Fanout
    };
    mode.check()?;
    let trace_out = args.text("--trace-out").map(PathBuf::from);
    let cache = args
        .text("--cache-dir")
        .map(Path::new)
        .map(|dir| {
            CellCache::open(dir)
                .map_err(|e| format!("cannot open cache directory {}: {e}", dir.display()))
        })
        .transpose()?;

    let mut trace_processes: Vec<(String, Vec<runner::SpanRec>)> = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let result = runner::run(
            spec,
            &RunOptions { workers, mode, progress: !quiet, cache: cache.as_ref() },
        );
        if let Some(meta) = &result.cache {
            note(format_args!(
                "cache: {} hit(s), {} miss(es), {} fill(s), {} bytes in {}",
                meta.hits, meta.misses, meta.fills, meta.bytes, meta.dir
            ));
        }
        if trace_out.is_some() {
            trace_processes.push((spec.name.clone(), result.spans.clone()));
        }
        if !quiet {
            if i > 0 {
                out("\n")?;
            }
            out(report::render(&result))?;
            if let Some(stack) = report::render_breakdown(&result) {
                out(format_args!("\n{stack}"))?;
            }
        }
        if !args.has("--no-json") {
            let path = json.clone().unwrap_or_else(|| {
                Path::new(args.text("--out-dir").unwrap_or("."))
                    .join(format!("BENCH_{}.json", spec.name))
            });
            if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
                std::fs::create_dir_all(dir)
                    .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
            }
            let document = if args.has("--results-only") {
                result.results_json()
            } else {
                result.document_json()
            };
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
            note(format_args!(
                "wrote {} ({} workers, {} ms, {}{}{})",
                path.display(),
                result.workers,
                result.wall_ms,
                result.mode.label(),
                throughput,
                sharing,
            ));
        }
    }
    if let Some(path) = &trace_out {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
        let document = mom_lab::trace::chrome_trace(&trace_processes);
        std::fs::write(path, document.to_pretty())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        let spans: usize = trace_processes.iter().map(|(_, s)| s.len()).sum();
        note(format_args!("wrote {} ({spans} span(s))", path.display()));
    }
    Ok(ExitCode::SUCCESS)
}

/// The existing cache directory `--cache-dir` names: inspection must not
/// create what it inspects, so only `run` creates a cache.
fn open_cache(args: &Args) -> Result<CellCache, Failure> {
    let dir =
        Path::new(args.text("--cache-dir").ok_or_else(|| usage("cache needs --cache-dir DIR"))?);
    if !dir.is_dir() {
        return Err(format!("no cache directory at {}", dir.display()).into());
    }
    Ok(CellCache::open(dir)
        .map_err(|e| format!("cannot open cache directory {}: {e}", dir.display()))?)
}

fn cmd_cache_ls(cache: &CellCache) -> Result<ExitCode, String> {
    let entries =
        cache.entries().map_err(|e| format!("cannot list cache {}: {e}", cache.dir().display()))?;
    out(format_args!("{:<22} {:>8} key\n", "record", "bytes"))?;
    let mut total = 0u64;
    for entry in &entries {
        total += entry.bytes;
        let name = entry.path.file_name().unwrap_or_default().to_string_lossy().into_owned();
        match &entry.key {
            Some(key) => out(format_args!("{name:<22} {:>8} {}\n", entry.bytes, key.canonical()))?,
            None => out(format_args!("{name:<22} {:>8} (unreadable record)\n", entry.bytes))?,
        }
    }
    out(format_args!("{} record(s), {total} bytes in {}\n", entries.len(), cache.dir().display()))?;
    Ok(ExitCode::SUCCESS)
}

/// A scratch cache that removes its directory when dropped, so no return
/// path, and no panicking run, leaves it behind.
struct ScratchCache(CellCache);

impl Drop for ScratchCache {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(self.0.dir());
    }
}

/// `momlab cache verify` — re-simulate every record from its own key and
/// compare byte for byte. Each key decodes into a one-cell grid
/// ([`mom_lab::CellKey::grid`]); the cells of one (workload, scale, seed,
/// sampling) group merge into one grid (the union of their machines and
/// widths) that runs once into a throwaway cache, streamed for exact
/// records, and the freshly filled record files are compared with the
/// stored ones (records carry no timestamps, so equal bytes means equal
/// results). Unreadable records and records of another engine are skipped
/// and counted by reason; a record of this engine whose key does not decode
/// is an error.
fn cmd_cache_verify(cache: &CellCache, workers: usize) -> Result<ExitCode, String> {
    let entries =
        cache.entries().map_err(|e| format!("cannot list cache {}: {e}", cache.dir().display()))?;
    let engine = mom_lab::engine_fingerprint();
    let mut groups: Vec<(GridSpec, ExecMode, Vec<&CacheEntry>)> = Vec::new();
    let (mut unreadable, mut other_engine) = (0usize, 0usize);
    for entry in &entries {
        let name = entry.path.file_name().unwrap_or_default().to_string_lossy().into_owned();
        let Some(key) = &entry.key else {
            note(format_args!("skip {name}: unreadable record (a clean miss on the next run)"));
            unreadable += 1;
            continue;
        };
        if key.engine != engine {
            note(format_args!("skip {name}: engine {:?} (this binary is {engine:?})", key.engine));
            other_engine += 1;
            continue;
        }
        let (cell, mode) = key
            .grid()
            .map_err(|e| format!("{name}: key does not decode ({e}): {}", key.canonical()))?;
        let group = groups.iter_mut().find(|(grid, m, _)| {
            (*m, &grid.workloads, grid.scale, grid.seed)
                == (mode, &cell.workloads, cell.scale, cell.seed)
        });
        let Some((grid, _, members)) = group else {
            groups.push((cell, mode, vec![entry]));
            continue;
        };
        let (config, way) = (&cell.configs[0], cell.widths[0]);
        if !grid.configs.contains(config) {
            grid.configs.push(config.clone());
        }
        if !grid.widths.contains(&way) {
            grid.widths.push(way);
        }
        members.push(entry);
    }
    let tmp_dir = std::env::temp_dir().join(format!("momlab-verify-{}", std::process::id()));
    let tmp = ScratchCache(
        CellCache::open(&tmp_dir)
            .map_err(|e| format!("cannot create scratch cache {}: {e}", tmp_dir.display()))?,
    );
    let mut verified = 0usize;
    let mut mismatches = 0usize;
    for (grid, mode, members) in &groups {
        let spec = ExperimentSpec {
            name: "cache-verify".into(),
            title: String::new(),
            fast: false,
            kind: ExperimentKind::Grid(grid.clone()),
        };
        let opts = RunOptions { workers, mode: *mode, cache: Some(&tmp.0), ..Default::default() };
        runner::run(&spec, &opts);
        for entry in members {
            let key = entry.key.as_ref().expect("grouped entries have keys");
            let stored = std::fs::read(&entry.path)
                .map_err(|e| format!("cannot read {}: {e}", entry.path.display()))?;
            let fresh = std::fs::read(tmp.0.record_path(key)).ok();
            if fresh.as_deref() == Some(stored.as_slice()) {
                verified += 1;
            } else {
                mismatches += 1;
                note(format_args!(
                    "MISMATCH {}: re-simulation disagrees with the stored record ({})",
                    entry.path.file_name().unwrap_or_default().to_string_lossy(),
                    key.canonical()
                ));
            }
        }
    }
    let skipped = unreadable + other_engine;
    if skipped > 0 {
        note(format_args!(
            "skipped {unreadable} unreadable record(s), {other_engine} of another engine"
        ));
    }
    note(format_args!(
        "verified {verified} record(s) across {} group(s); {skipped} skipped, {mismatches} mismatch(es)",
        groups.len()
    ));
    Ok(if mismatches > 0 { ExitCode::from(2) } else { ExitCode::SUCCESS })
}

fn cmd_diff(args: &Args) -> Result<ExitCode, Failure> {
    let [new_path] = args.operands.as_slice() else {
        return Err(usage("diff takes exactly one result file plus --baseline <file>"));
    };
    let baseline_path =
        args.text("--baseline").ok_or_else(|| usage("diff needs --baseline <file>"))?;
    let tolerance: f64 = args.last("--tolerance")?.unwrap_or(0.0);
    if !(tolerance.is_finite() && tolerance >= 0.0) {
        return Err(usage("--tolerance must be a finite value >= 0"));
    }
    let new_doc = read_document(Path::new(new_path))?;
    let baseline = read_document(Path::new(baseline_path))?;
    let failed = if tolerance == 0.0 {
        let exact = exact_diff(&new_doc, &baseline)?;
        out(&exact)?;
        exact.difference.is_some()
    } else {
        let diff = diff_documents(&new_doc, &baseline, tolerance)?;
        out(&diff)?;
        diff.failed()
    };
    Ok(if failed { ExitCode::from(2) } else { ExitCode::SUCCESS })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_help_lists_every_table_entry_under_its_commands() {
        let help = help();
        for (name, operands, about) in COMMANDS {
            let entry = format!("momlab {name} {operands}");
            assert!(help.contains(entry.trim_end()) && help.contains(about), "{entry}");
        }
        for (commands, flags) in TABLES {
            let heading = format!("\nFlags of {}:\n", and_list(commands));
            let start = help.find(&heading).expect("a heading per table") + heading.len();
            let section = help[start..].split("\n\n").next().unwrap_or_default();
            for (name, value, text) in *flags {
                let entry = format!("{name} {value}");
                let line = section.lines().find(|l| l.trim_start().starts_with(entry.trim_end()));
                assert!(line.is_some_and(|l| l.ends_with(text)), "{heading}{entry}");
            }
        }
    }
}
