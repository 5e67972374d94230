//! `perfbench` — the in-process half of the momsim benchmark.
//!
//! ```text
//! perfbench spawn  PROGRAM [ARGS...]
//! perfbench setup  --experiment NAME --scale N --seed S --seconds T
//! perfbench ladder --workload W --experiment NAME --scale N --e2e-scale N
//!                  --seed S --seconds T --mode fanout|sampled
//!                  --work-dir DIR --trace-out FILE [--fresh-cache]
//! ```
//!
//! `spawn` runs one command and reports its wall clock, CPU time and peak
//! memory (see `spawn.rs`). `setup` times building one run's workload inputs
//! and machines, repeated for `--seconds`, and prints the median. `ladder`
//! times the layer ladder (see `ladder.rs`) for `--seconds`, checks its
//! simulated rungs against the runner, runs the workload three times in
//! process at end-to-end scale to collect the runner's own spans, and writes
//! every span as a Chrome trace. Each prints one JSON object as the last line
//! of stdout. `run.py` drives them; see `perfbench/README.md`.

mod ladder;
mod spans;
mod spawn;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use mom_lab::json::Value;
use mom_lab::runner::{
    ExecMode, DEFAULT_SAMPLE_PERIOD, DEFAULT_SAMPLE_UNIT, DEFAULT_SAMPLE_WARMUP,
};

use ladder::{Check, Ladder, Rep};
use spans::Tracer;

/// Repetitions every timed loop makes, however short `--seconds` is.
const MIN_REPS: usize = 3;
/// In-process runs at end-to-end scale in a traced run.
const TRACED_RUNS: usize = 3;
/// Worker threads of the traced in-process runs: two, so the runner's
/// pipelined scheduler runs and reports its occupancy.
const WORKERS: usize = 2;

struct Args {
    command: String,
    workload: String,
    experiment: String,
    scale: usize,
    e2e_scale: usize,
    seed: u64,
    seconds: f64,
    sampled: bool,
    fresh_cache: bool,
    work_dir: PathBuf,
    trace_out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let command = args
        .first()
        .cloned()
        .ok_or("missing command (spawn | setup | ladder)")?;
    let mut a = Args {
        command,
        workload: String::new(),
        experiment: String::new(),
        scale: 1,
        e2e_scale: 1,
        seed: 42,
        seconds: 1.0,
        sampled: false,
        fresh_cache: false,
        work_dir: PathBuf::from("."),
        trace_out: None,
    };
    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--experiment" => a.experiment = value()?,
            "--scale" => a.scale = value()?.parse().map_err(|e| format!("--scale: {e}"))?,
            "--e2e-scale" => {
                a.e2e_scale = value()?.parse().map_err(|e| format!("--e2e-scale: {e}"))?
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--mode" => {
                a.sampled = match value()?.as_str() {
                    "fanout" => false,
                    "sampled" => true,
                    other => return Err(format!("--mode: unknown mode {other:?}")),
                }
            }
            "--fresh-cache" => a.fresh_cache = true,
            "--work-dir" => a.work_dir = PathBuf::from(value()?),
            "--trace-out" => a.trace_out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if a.experiment.is_empty() {
        return Err("--experiment is required".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("spawn") {
        return match spawn::run(&args[1..]) {
            Ok(o) => {
                let out = Value::object(vec![
                    ("code", Value::Int(o.code as i64)),
                    ("wall_s", num(o.wall_s)),
                    ("cpu_s", num(o.cpu_s)),
                    ("maxrss_kb", Value::Int(o.maxrss_kb)),
                ]);
                println!("{}", out.to_compact());
                ExitCode::SUCCESS
            }
            Err(msg) => {
                eprintln!("perfbench: {msg}");
                ExitCode::FAILURE
            }
        };
    }
    let parsed = match parse(&args) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::FAILURE;
        }
    };
    let out = match parsed.command.as_str() {
        "setup" => setup(&parsed),
        "ladder" => ladder(&parsed),
        other => {
            eprintln!("perfbench: unknown command {other:?} (spawn | setup | ladder)");
            return ExitCode::FAILURE;
        }
    };
    println!("{}", out.to_compact());
    ExitCode::SUCCESS
}

fn num(v: f64) -> Value {
    Value::Float(v)
}

fn metric(value: f64, unit: &str) -> Value {
    Value::object(vec![
        ("value", num(value)),
        ("unit", Value::Str(unit.into())),
    ])
}

fn setup(a: &Args) -> Value {
    let spec = ladder::spec_for(&a.experiment, a.scale, a.seed);
    let phases = ladder::all_app_phases(ladder::grid(&spec));
    let budget = Duration::from_secs_f64(a.seconds);
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < MIN_REPS || started.elapsed() < budget {
        samples.push(ladder::setup_once(&spec, &phases));
    }
    Value::object(vec![
        ("setup_s", num(ladder::median(&samples))),
        ("reps", Value::Int(samples.len() as i64)),
    ])
}

fn ladder(a: &Args) -> Value {
    let mode = if a.sampled {
        ExecMode::Sampled {
            unit_insts: DEFAULT_SAMPLE_UNIT,
            warmup_insts: DEFAULT_SAMPLE_WARMUP,
            period: DEFAULT_SAMPLE_PERIOD,
        }
    } else {
        ExecMode::Fanout
    };
    std::fs::create_dir_all(&a.work_dir).expect("create work directory");
    let spec = ladder::spec_for(&a.experiment, a.scale, a.seed);
    let ladder = Ladder {
        app_phases: ladder::all_app_phases(ladder::grid(&spec)),
        spec,
        mode,
        work: &a.work_dir,
    };
    let mut t = Tracer::new(&a.workload);
    let mut check = Check::default();
    let budget = Duration::from_secs_f64(a.seconds);
    let started = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    while reps.len() < MIN_REPS || started.elapsed() < budget {
        let first = reps.is_empty();
        reps.push(
            t.span("repetition", "rep", |t| ladder.rep(t, &mut check, first))
                .0,
        );
    }

    let e2e = ladder::spec_for(&a.experiment, a.e2e_scale, a.seed);
    let cache_dir = a.fresh_cache.then(|| a.work_dir.join("traced-cache"));
    let doc = a.work_dir.join("traced-run.json");
    let traced: Vec<ladder::TracedRun> = (0..TRACED_RUNS)
        .map(|i| ladder::traced_run(&mut t, &e2e, mode, WORKERS, cache_dir.as_deref(), &doc, i))
        .collect();
    let _ = std::fs::remove_file(&doc);

    // Per-layer metrics: the median over repetitions of each repetition's
    // value; rungs also report their minimum.
    let mut metrics: Vec<(String, Value)> = Vec::new();
    let per_rep: Vec<Vec<(&str, &str, f64)>> = reps.iter().map(ladder::layer_metrics).collect();
    for (i, &(name, unit, _)) in per_rep[0].iter().enumerate() {
        let values: Vec<f64> = per_rep.iter().map(|m| m[i].2).collect();
        metrics.push((name.into(), metric(ladder::median(&values), unit)));
    }
    let runner = |f: fn(&ladder::TracedRun) -> f64| {
        ladder::median(&traced.iter().map(f).collect::<Vec<_>>())
    };
    metrics.push((
        "lab.occupancy".into(),
        metric(runner(|r| r.occupancy), "frac"),
    ));
    metrics.push((
        "lab.pool_reuse_frac".into(),
        metric(runner(|r| r.pool_reuse), "frac"),
    ));
    metrics.push((
        "lab.worker_idle_frac".into(),
        metric(runner(|r| r.worker_idle), "frac"),
    ));
    let rungs: Vec<Vec<(&str, f64)>> = reps.iter().map(ladder::rung_costs).collect();
    for (i, &(name, _)) in rungs[0].iter().enumerate() {
        let values: Vec<f64> = rungs.iter().map(|r| r[i].1).collect();
        metrics.push((
            format!("rung.{name}_ns"),
            metric(ladder::median(&values), "ns/inst"),
        ));
        metrics.push((
            format!("rung.{name}_ns.min"),
            metric(ladder::min(&values), "ns/inst"),
        ));
    }

    let self_time: Vec<Value> = t
        .self_time_table()
        .into_iter()
        .take(16)
        .map(|(rung, name, ns)| {
            Value::Array(vec![
                Value::Str(rung.into()),
                Value::Str(name.into()),
                num(ns as f64 / 1e6),
            ])
        })
        .collect();
    let first = &reps[0];
    let summary = Value::object(vec![
        ("workload", Value::Str(a.workload.clone())),
        ("experiment", Value::Str(a.experiment.clone())),
        ("ladder_scale", Value::Int(a.scale as i64)),
        ("e2e_scale", Value::Int(a.e2e_scale as i64)),
        ("seed", Value::Int(a.seed as i64)),
        ("mode", Value::Str(mode.label().into())),
        ("reps", Value::Int(reps.len() as i64)),
        ("functional_insts", Value::Int(first.func_insts as i64)),
        ("cell_insts", Value::Int(first.cell_insts as i64)),
    ]);
    if let Some(path) = &a.trace_out {
        let doc = t.chrome_trace(summary.clone());
        std::fs::write(path, doc.to_compact()).expect("write trace");
    }
    Value::object(vec![
        ("summary", summary),
        (
            "check",
            Value::object(vec![
                ("attempted", Value::Int(check.attempted as i64)),
                ("failed", Value::Int(check.failed as i64)),
                (
                    "notes",
                    Value::Array(check.notes.into_iter().map(Value::Str).collect()),
                ),
            ]),
        ),
        ("metrics", Value::Object(metrics)),
        (
            "traced_wall_s",
            Value::Array(traced.iter().map(|r| num(r.wall_ns as f64 / 1e9)).collect()),
        ),
        ("self_time_ms", Value::Array(self_time)),
    ])
}
