//! The parallel experiment runner.
//!
//! Every grid run takes one path. The cells that miss the result cache are
//! partitioned into **groups** — a group is one functional interpretation
//! whose graduated instructions fan out to the streaming timing simulators
//! of all its member machines — and the groups are scheduled on a pool of
//! workers. The execution mode ([`ExecMode`]) only decides the grouping:
//!
//! * [`ExecMode::Fanout`] — **the default**: one group per `(kernel, ISA)`,
//!   and one per application spanning all of its ISAs (kernel phases are
//!   interpreted per ISA lane, the ISA-independent scalar phases once for
//!   every lane). The interpreter's work is amortized across the group —
//!   Figure 5's 128 cells cost 32 functional passes — and no trace is ever
//!   materialized.
//! * [`ExecMode::Streamed`] — one singleton group per cell: every cell
//!   re-interprets its workload straight into its own simulator. The same
//!   code without the sharing, and per-cell parallelism when a grid has
//!   fewer groups than workers.
//! * [`ExecMode::Sampled`] — groups whose members alternate detailed warm-up
//!   and measurement windows with functional fast-forwarding (SMARTS-style,
//!   see the `sampling` module), so wall-clock scales with the number of
//!   samples instead of the workload length. One pass per `(workload, ISA)`
//!   feeds every member the same windows. Results are **estimates**
//!   reported with per-cell confidence intervals in a `sampling` results
//!   section.
//!
//! A group is one work item: its interpreter drives every member simulator
//! through a serial `Broadcast` on whichever worker claims it. Groups spread
//! across workers; a group never splits across them.
//!
//! The exact modes are **byte-identical** in their results — the
//! determinism guarantee below covers the execution mode as well as the
//! worker count — and the chosen mode is recorded only in the JSON `meta`
//! section, along with the functional-sharing accounting
//! (`meta.shared_passes`) and one scheduler span per work item
//! (`meta.spans`).
//!
//! Machines are built from the declarative [`MachineDescriptor`] resolved by
//! each grid cell and **reused across work items**: every worker keeps a
//! pool of instantiated machines keyed by descriptor and `reset()`s them
//! between cells instead of reallocating predictor tables, ring buffers and
//! cache arrays (a reset machine is bit-identical to a fresh one; the
//! `mom-cpu`/`mom-mem` test suites pin that property).
//!
//! Work items are claimed in order from a shared atomic cursor, and every
//! result is written back to the slot of its cell index. Since each cell's
//! simulation is a pure function of the spec, the result vector — and
//! therefore the JSON document — is **bit-identical** regardless of worker
//! count or scheduling. [`determinism`] states the guarantee;
//! `tests/determinism.rs` enforces it.
//!
//! [`determinism`]: self#determinism
//!
//! # Determinism
//!
//! For any spec `s`, worker counts `a, b >= 1` and **exact** execution modes
//! `m, n` (`Fanout` and `Streamed`), the runs
//! `run(&s, &RunOptions { workers: a, mode: m, ..Default::default() })` and
//! `run(&s, &RunOptions { workers: b, mode: n, ..Default::default() })`
//! serialize to the same `results_json()` bytes. Only the `meta` section of
//! the full document (wall-clock, worker count, mode, sharing accounting)
//! may differ between runs. A sampled run is byte-identical to another
//! sampled run with the same parameters at any worker count.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Instant;

use mom_apps::{stream_app_multi, AppParams};
use mom_cpu::{
    AttributionProbe, IntervalStats, MachineDescriptor, ProbeReport, SimMachine, SimResult,
    SimStream, StallBreakdown,
};
use mom_isa::trace::{Broadcast, IsaKind, TraceSink};
use mom_kernels::{build_kernel, KernelParams};
use mom_mem::{MemModelKind, MemSystemStats};

use crate::cache::{CacheMeta, CellCache, CellKey, CellRecord, SamplingKnobs};
pub use crate::document::mem_label;
use crate::sampling::run_sampled_group;
use crate::spec::{BaselinePolicy, Cell, ExperimentKind, ExperimentSpec, GridSpec, Workload};
use crate::tables::{static_rows, StaticRows};

/// How a grid experiment groups its cells. The exact modes are
/// byte-identical in their results; the mode only decides how much of the
/// functional interpreter's work is shared. [`ExecMode::Sampled`] trades
/// exactness for wall-clock: its cells are statistical estimates with
/// confidence intervals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// One singleton group per cell: each cell re-interprets its workload
    /// straight into its simulator (O(ROB) per cell, one functional pass per
    /// cell).
    Streamed,
    /// Shared-functional-pass fan-out (the default): one interpretation per
    /// `(kernel, ISA)` group, and per application across all of its ISAs,
    /// feeding every member simulator.
    ///
    /// Note the parallel work unit coarsens from cells to groups: a grid
    /// whose group count is below the worker count leaves workers idle (the
    /// full `sweep` is 4 groups), trading wall-clock parallelism for the
    /// amortized functional work. On hosts
    /// with many cores and simulation-bound grids, `Streamed` keeps per-cell
    /// parallelism at the cost of per-cell interpretation.
    Fanout,
    /// SMARTS-style sampled simulation: every sampling period of
    /// `period` dynamic instructions opens with `warmup_insts` of detailed
    /// but unmeasured simulation (warming the predictor, caches and ROB),
    /// followed by a measured unit of `unit_insts`, and the remainder of the
    /// period is functionally fast-forwarded (architectural state advances;
    /// the timing simulator sees nothing). Per-cell IPC is estimated as the
    /// mean of the unit IPCs with a 95% confidence interval; the cycle count
    /// in the results is `total_insts / ipc_mean`. The cells of one
    /// `(workload, ISA)` group share one functional pass. The knobs must
    /// pass [`ExecMode::check`].
    Sampled {
        /// Detailed, measured instructions per sampling unit.
        unit_insts: u64,
        /// Detailed, unmeasured warm-up instructions preceding each unit.
        warmup_insts: u64,
        /// Sampling period in dynamic instructions.
        period: u64,
    },
}

/// Default measured-unit length of `--sampled` (dynamic instructions).
pub const DEFAULT_SAMPLE_UNIT: u64 = 1_000;
/// Default detailed warm-up preceding each measured unit.
pub const DEFAULT_SAMPLE_WARMUP: u64 = 2_000;
/// Default sampling period: one `warmup + unit` window every 100k
/// instructions, i.e. 3% of the workload simulated in detail.
pub const DEFAULT_SAMPLE_PERIOD: u64 = 100_000;

impl ExecMode {
    /// The `meta.mode` label of the JSON schema.
    pub fn label(self) -> &'static str {
        match self {
            ExecMode::Streamed => "streamed",
            ExecMode::Fanout => "fanout",
            ExecMode::Sampled { .. } => "sampled",
        }
    }

    /// The one rule of the sampling knobs: a measured unit of at least one
    /// instruction, and a period that holds the warm-up plus the unit.
    /// The exact modes always pass. The message names `momlab`'s flags.
    pub fn check(self) -> Result<(), String> {
        let ExecMode::Sampled { unit_insts, warmup_insts, period } = self else {
            return Ok(());
        };
        if unit_insts == 0 {
            return Err("--sample-unit must be >= 1".into());
        }
        // `checked_add`: a window that overflows u64 is longer than any period.
        if warmup_insts.checked_add(unit_insts).is_none_or(|window| window > period) {
            return Err(format!(
                "--sample-period {period} is shorter than warmup {warmup_insts} + unit {unit_insts}"
            ));
        }
        Ok(())
    }

    /// The knobs of a sampled run; `None` for the exact modes.
    pub(crate) fn knobs(self) -> Option<SamplingKnobs> {
        match self {
            ExecMode::Sampled { unit_insts, warmup_insts, period } => {
                Some(SamplingKnobs { unit: unit_insts, warmup: warmup_insts, period })
            }
            _ => None,
        }
    }
}

/// Results of one simulated grid cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// The workload that ran.
    pub workload: Workload,
    /// Label of the machine configuration (unique within the spec).
    pub config_label: String,
    /// The ISA of the configuration.
    pub isa: IsaKind,
    /// The memory model of the configuration.
    pub mem: MemModelKind,
    /// Issue width.
    pub way: usize,
    /// Simulated cycles.
    pub cycles: u64,
    /// Committed dynamic instructions.
    pub instructions: u64,
    /// Branches executed.
    pub branches: u64,
    /// Branch mispredictions.
    pub mispredictions: u64,
    /// Element-level memory accesses.
    pub mem_accesses: u64,
    /// Speed-up versus the spec's baseline cell (`None` when the baseline
    /// policy is [`BaselinePolicy::None`]).
    pub speedup: Option<f64>,
    /// Per-cause stall attribution of every simulated cycle; the components
    /// sum exactly to `cycles` (the attribution probe pins that invariant)
    /// and, like every other field of `results`, are byte-identical across
    /// execution modes and worker counts.
    pub breakdown: StallBreakdown,
    /// The windowed timeline of the run: IPC and dominant stall cause per
    /// fixed-width commit-cycle window.
    pub intervals: IntervalStats,
    /// Memory-system statistics of the cell's machine (hit rates, MSHR
    /// stalls, DRAM traffic), captured before the machine returns to its
    /// worker pool.
    pub mem_stats: MemSystemStats,
    /// Sampling accounting of the cell when it ran under [`ExecMode::Sampled`]
    /// (`None` in the exact modes): how much of the stream was measured, and
    /// the IPC estimate with its confidence interval.
    pub sampling: Option<CellSampling>,
}

/// Per-cell accounting of one [`ExecMode::Sampled`] run: how many measurement
/// units closed, how much of the dynamic instruction stream they covered,
/// and the IPC estimate they produced.
///
/// In this mode the cell's `cycles` is derived as `total_insts / ipc_mean`,
/// its committed-instruction count stays exact (the functional interpreter
/// executes the whole workload either way), and its stall breakdown and
/// interval timeline cover only the detailed windows — not the
/// fast-forwarded remainder.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSampling {
    /// Measurement units that closed with at least one committed instruction.
    pub units_measured: u64,
    /// Committed dynamic instructions inside the measured units.
    pub measured_insts: u64,
    /// Dynamic instructions spent on detailed (unmeasured) warm-up.
    pub warmup_insts: u64,
    /// Total dynamic instructions of the cell's workload.
    pub total_insts: u64,
    /// Mean IPC over the measured units (the estimate behind the cell's
    /// reported `cycles`).
    pub ipc_mean: f64,
    /// Half-width of the 95% confidence interval around `ipc_mean` (zero
    /// when fewer than two units were measured).
    pub ipc_ci95: f64,
}

impl CellResult {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Branch misprediction rate in `[0, 1]`; zero when no branches ran.
    pub fn mispredict_rate(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.mispredictions as f64 / self.branches as f64
        }
    }
}

/// The data produced by one experiment run.
#[derive(Debug, Clone)]
pub enum RunData {
    /// Per-cell simulation results, in [`GridSpec::cells`] order.
    Grid(Vec<CellResult>),
    /// The rows of a config-derived table.
    Static(StaticRows),
}

/// A completed experiment run: the results plus reproducibility metadata.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The spec that ran (owned copy, so reports need no extra context).
    pub spec: ExperimentSpec,
    /// Hash of the spec configuration (see [`ExperimentSpec::config_hash`]).
    pub config_hash: String,
    /// Worker threads used.
    pub workers: usize,
    /// Wall-clock duration of the run in milliseconds.
    pub wall_ms: u64,
    /// How the grid executed (recorded in `meta` only; results are
    /// byte-identical across modes).
    pub mode: ExecMode,
    /// Total wall-clock nanoseconds of the distinct groups (their `spans`),
    /// each shared group span counted once.
    pub sim_wall_ns: u64,
    /// Number of functional interpreter passes the run performed — one per
    /// group: per `(kernel, ISA)` for kernels; per *app* for applications in
    /// the exact modes (their scalar phases interpret once across all ISA
    /// lanes) and per `(app, ISA)` in an estimated sampled run; one per cell
    /// under [`ExecMode::Streamed`]. Zero for static experiments.
    pub functional_passes: usize,
    /// Dynamic instructions the functional interpreter actually executed
    /// (each shared pass counted once). The cells' own `instructions` sum is
    /// what per-cell interpretation would have cost; the ratio of the two is
    /// the `meta.shared_passes.sharing_factor`.
    pub functional_instructions: u64,
    /// Always `None`: groups never pipeline. Kept only because `perfbench`'s
    /// `traced_run` reads it; goes with the benchmark change (ROADMAP item 2).
    pub pipeline: Option<PipelineStats>,
    /// Scheduler spans: one per work item (group) with wall-clock extent,
    /// interpreted instructions and the worker that executed it, in every
    /// execution mode. Feeds `meta.spans`
    /// and the Chrome trace export of `momlab run --trace-out`. Wall-clock
    /// data, so `meta`-only; empty for static experiments and fully cached
    /// runs.
    pub spans: Vec<SpanRec>,
    /// Machine-pool reuse accounting: machines reset-and-reused versus built
    /// fresh across all workers (`meta.pool`; wall-clock-free but scheduling
    /// dependent, so `meta`-only).
    pub pool: PoolStats,
    /// Result-cache accounting when the run had a [`CellCache`]
    /// (`meta.cache`): hits, misses, fills, store size and directory. `None`
    /// when caching was disabled, so pre-cache documents stay byte-identical.
    pub cache: Option<CacheMeta>,
    /// Which grid cells were served from the cache, parallel to the cells
    /// (empty when caching was disabled, and for static experiments). Cached
    /// cells are exempt from throughput accounting — their wall-clock is
    /// document assembly, not simulation.
    pub cached_cells: Vec<bool>,
    /// The results.
    pub data: RunData,
}

/// One recorded span of the scheduler: a group's identity, wall-clock
/// extent relative to the grid run's epoch, and the worker that ran it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    /// The group's label: workload plus its ISA lanes.
    pub name: String,
    /// Index of the worker thread that executed the item.
    pub tid: usize,
    /// Start offset from the grid run's epoch, in nanoseconds.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Instructions the functional interpreter executed inside this span.
    pub insts: u64,
}

/// Machine-pool reuse counters of one run (recorded under `meta.pool`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Machines taken from a pool and `reset()` instead of rebuilt.
    pub hits: u64,
    /// Machines built fresh because no pooled machine matched.
    pub builds: u64,
}

/// The trimmed remnant of the retired pipelined fan-out's accounting. No
/// run produces one; kept only because `perfbench`'s `traced_run` reads
/// [`RunResult::pipeline`], and goes with the benchmark change (ROADMAP
/// item 2).
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineStats {
    /// Fraction of consumer wall-clock spent simulating.
    pub occupancy: Option<f64>,
}

/// Default worker count: the machine's available parallelism, capped at 8
/// (the grids are small; more threads only add scheduling noise). The
/// `--workers` CLI flag bypasses this function entirely.
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(8)
}

/// How to run an experiment. [`RunOptions::default`] is the fan-out mode on
/// [`default_workers`] threads, quiet, without a cache.
#[derive(Debug, Clone)]
pub struct RunOptions<'a> {
    /// Worker threads; `1` runs every work item on the calling thread (and
    /// `0` counts as `1`). Results are identical either way — see the
    /// [module docs](self#determinism).
    pub workers: usize,
    /// How the grid's cells are grouped and simulated.
    pub mode: ExecMode,
    /// Emit a live stderr line as each group completes, naming it and its
    /// wall-clock. Progress output never touches stdout or the results.
    pub progress: bool,
    /// A persistent content-addressed cell result cache: hit cells skip
    /// interpretation and simulation entirely and are rebuilt from their
    /// stored [`CellRecord`]s; miss cells simulate as usual and fill the
    /// cache afterwards. The results document is byte-identical either way
    /// (speed-ups are re-derived at assembly, so records stay
    /// baseline-policy-agnostic), and `meta.cache` records the
    /// hit/miss/fill accounting.
    pub cache: Option<&'a CellCache>,
}

impl Default for RunOptions<'_> {
    fn default() -> Self {
        Self {
            workers: default_workers(),
            mode: ExecMode::Fanout,
            progress: false,
            cache: None,
        }
    }
}

impl RunOptions<'_> {
    /// The default options with an explicit worker count.
    pub fn with_workers(workers: usize) -> Self {
        Self { workers, ..Self::default() }
    }
}

/// Run an experiment: the runner's one entry point.
///
/// # Panics
///
/// Panics when `opts.mode` fails [`ExecMode::check`], when a cache record
/// cannot be written, or when a cell fails (e.g. a kernel misses its golden
/// output) — the message then names the failing work item.
pub fn run(spec: &ExperimentSpec, opts: &RunOptions<'_>) -> RunResult {
    let (mode, workers) = (opts.mode, opts.workers.max(1));
    if let Err(msg) = mode.check() {
        panic!("invalid sampling knobs: {msg}");
    }
    let started = Instant::now();
    let (data, timing, cached_cells) = match &spec.kind {
        ExperimentKind::Static(kind) => {
            (RunData::Static(static_rows(*kind)), GridTiming::default(), Vec::new())
        }
        ExperimentKind::Grid(grid) => {
            let (cells, timing, cached) = run_grid(grid, workers, mode, opts.progress, opts.cache);
            (RunData::Grid(cells), timing, cached)
        }
    };
    // The `meta.cache` section: every miss is simulated and filled (zeros
    // for a static run — tables simulate nothing), plus the store-wide size
    // after the fills.
    let cache_meta = opts.cache.map(|store| {
        let hits = cached_cells.iter().filter(|&&hit| hit).count() as u64;
        let misses = cached_cells.len() as u64 - hits;
        let dir = store.dir().display().to_string();
        CacheMeta { hits, misses, fills: misses, bytes: store.bytes(), dir }
    });
    RunResult {
        spec: spec.clone(),
        config_hash: spec.config_hash(),
        workers,
        wall_ms: started.elapsed().as_millis() as u64,
        mode,
        sim_wall_ns: timing.sim_wall_ns,
        functional_passes: timing.functional_passes,
        functional_instructions: timing.functional_instructions,
        pipeline: None,
        spans: timing.spans,
        pool: timing.pool,
        cache: cache_meta,
        cached_cells,
        data,
    }
}

/// [`run`] with its options given positionally — the runner's signature
/// before [`RunOptions`]. Kept only because the `perfbench` ladder calls it;
/// goes with the benchmark change (ROADMAP item 2).
///
/// The fifth parameter is an empty slot kept so positional callers build
/// unchanged; only `None` fits it. The slot goes when ROADMAP item 2 moves
/// `perfbench`'s `ladder.rs` to [`run`].
pub fn run_cached(
    spec: &ExperimentSpec,
    workers: usize,
    mode: ExecMode,
    progress: bool,
    _unused: Option<&std::convert::Infallible>,
    cache: Option<&CellCache>,
) -> RunResult {
    run(spec, &RunOptions { workers, mode, progress, cache })
}

/// Shared hit/build counters behind every [`MachinePool`] of one grid run
/// (atomics, so worker-local pools report into one place; feeds
/// [`PoolStats`]).
#[derive(Debug, Default)]
struct PoolCounters {
    hits: AtomicUsize,
    builds: AtomicUsize,
}

impl PoolCounters {
    fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.hits.load(Ordering::Relaxed) as u64,
            builds: self.builds.load(Ordering::Relaxed) as u64,
        }
    }
}

/// A worker-local pool of instantiated machines, keyed by descriptor.
/// Machines are `reset()` on reuse instead of being rebuilt, so predictor
/// tables, ring buffers and cache arrays are allocated once per
/// (worker, descriptor) instead of once per cell.
#[derive(Debug)]
struct MachinePool<'a> {
    idle: Vec<SimMachine>,
    counters: &'a PoolCounters,
}

impl<'a> MachinePool<'a> {
    fn new(counters: &'a PoolCounters) -> Self {
        Self { idle: Vec::new(), counters }
    }

    fn take(&mut self, descriptor: &MachineDescriptor) -> SimMachine {
        match self.idle.iter().position(|m| m.descriptor() == descriptor) {
            Some(i) => {
                self.counters.hits.fetch_add(1, Ordering::Relaxed);
                let mut machine = self.idle.swap_remove(i);
                machine.reset();
                machine
            }
            None => {
                self.counters.builds.fetch_add(1, Ordering::Relaxed);
                SimMachine::new(descriptor.clone())
            }
        }
    }

    fn put(&mut self, machines: impl IntoIterator<Item = SimMachine>) {
        self.idle.extend(machines);
    }
}

/// Wall-clock and functional-sharing accounting of one grid run (all of it
/// `meta`-only; none of it deterministic).
#[derive(Debug, Default)]
struct GridTiming {
    sim_wall_ns: u64,
    functional_passes: usize,
    functional_instructions: u64,
    spans: Vec<SpanRec>,
    pool: PoolStats,
}

/// One functional pass of a grid run: a workload with one or more ISA
/// lanes, each lane listing its member cell indices.
///
/// Kernel workloads form one group per `(kernel, ISA)` (a single lane):
/// every member consumes the identical instruction stream, so one
/// interpretation feeds them all. In fan-out mode an application forms one
/// group spanning **all** of its ISAs: the kernel phases are interpreted per
/// lane, but the scalar phases — identical across ISAs and the bulk of the
/// Alpha traces — are interpreted once and fanned out to every lane (see
/// [`stream_app_multi`]). An estimated sampled run groups applications per
/// ISA lane instead: a cell's windows sit at positions in its own
/// instruction stream, and those positions diverge between ISAs after the
/// first kernel phase. [`ExecMode::Streamed`] makes every cell a singleton
/// group of its own.
#[derive(Debug)]
pub(crate) struct Group {
    workload: Workload,
    lanes: Vec<(IsaKind, Vec<usize>)>,
}

impl Group {
    fn members(&self) -> impl Iterator<Item = usize> + '_ {
        self.lanes.iter().flat_map(|(_, members)| members.iter().copied())
    }
}

/// The cells of a grid partitioned into the groups `mode` runs, in
/// first-appearance order. `report::describe` derives its shared-pass count
/// from the same function, so the printed grouping can never drift from what
/// runs.
pub(crate) fn groups(grid: &GridSpec, cells: &[Cell], mode: ExecMode) -> Vec<Group> {
    let shared = mode != ExecMode::Streamed;
    let apps_cross_isa = !matches!(mode, ExecMode::Sampled { .. });
    let mut groups: Vec<Group> = Vec::new();
    for (i, cell) in cells.iter().enumerate() {
        let isa = grid.configs[cell.config].isa;
        let cross_isa = apps_cross_isa && matches!(cell.workload, Workload::App(_));
        let existing = groups.iter_mut().find(|g| {
            shared && g.workload == cell.workload && (cross_isa || g.lanes[0].0 == isa)
        });
        let group = match existing {
            Some(g) => g,
            None => {
                groups.push(Group { workload: cell.workload, lanes: Vec::new() });
                groups.last_mut().expect("just pushed")
            }
        };
        match group.lanes.iter_mut().find(|(lane_isa, _)| *lane_isa == isa) {
            Some((_, members)) => members.push(i),
            None => group.lanes.push((isa, vec![i])),
        }
    }
    groups
}

/// The identity of one group: workload plus its ISA lanes.
fn group_label(group: &Group) -> String {
    let isas: Vec<&str> = group.lanes.iter().map(|(isa, _)| isa.label()).collect();
    format!("{} [{}]", group.workload.label(), isas.join("+"))
}

/// Acquire (from `pool`) one machine per member of every lane of `group`.
fn take_lane_machines(
    grid: &GridSpec,
    cells: &[Cell],
    group: &Group,
    pool: &mut MachinePool<'_>,
) -> Vec<Vec<SimMachine>> {
    group
        .lanes
        .iter()
        .map(|(_, members)| {
            members
                .iter()
                .map(|&ci| pool.take(&grid.configs[cells[ci].config].descriptor(cells[ci].way)))
                .collect()
        })
        .collect()
}

/// Interpret `group`'s workload once, feeding lane `i` the instruction
/// stream of `group.lanes[i]`'s ISA. A kernel group has one lane and is
/// verified against the golden reference; an application group interprets
/// its scalar phases once for all lanes. A failure is a panic naming the
/// workload. Returns the number of instructions interpreted.
fn drive_group<S: TraceSink>(grid: &GridSpec, group: &Group, lanes: &mut [(IsaKind, S)]) -> u64 {
    match group.workload {
        Workload::Kernel(kernel) => {
            let (isa, sink) = &mut lanes[0];
            let params = KernelParams { seed: grid.seed, scale: grid.scale };
            build_kernel(kernel, *isa, &params)
                .stream_verified(sink)
                .unwrap_or_else(|e| panic!("{kernel} ({isa}) failed verification: {e}"))
                as u64
        }
        Workload::App(app) => {
            let params = AppParams { seed: grid.seed, scale: grid.scale };
            stream_app_multi(app, &params, lanes)
                .unwrap_or_else(|e| panic!("{app} failed to build: {e}"))
                .1
        }
    }
}

/// The read-only context every group of one grid run executes in.
struct GroupCtx<'a> {
    grid: &'a GridSpec,
    cells: &'a [Cell],
    groups: &'a [Group],
    mode: ExecMode,
    /// The scheduler's epoch: every span is an offset from it.
    epoch: Instant,
}

/// Run a whole group on the calling worker. An exact group drives every
/// member simulator from one interpretation through a `Broadcast`; an
/// estimated sampled group (always a single lane) broadcasts only its
/// detailed windows. Returns one result per member, in [`Group::members`]
/// order, plus the instructions interpreted.
fn run_serial(
    ctx: &GroupCtx<'_>,
    group: &Group,
    pool: &mut MachinePool<'_>,
) -> (Vec<CellRecord>, u64) {
    let (grid, cells) = (ctx.grid, ctx.cells);
    let mut lane_machines = take_lane_machines(grid, cells, group, pool);
    if let Some(sp) = ctx.mode.knobs() {
        let (isa, _) = group.lanes[0];
        let out = run_sampled_group(group.workload, isa, grid, &mut lane_machines[0], sp);
        pool.put(lane_machines.into_iter().flatten());
        return out;
    }
    let mut lanes: Vec<(IsaKind, Broadcast<SimStream<'_, AttributionProbe>>)> = group
        .lanes
        .iter()
        .zip(lane_machines.iter_mut())
        .map(|((isa, _), machines)| {
            (*isa, Broadcast::new(machines.iter_mut().map(|m| m.sim_probed()).collect()))
        })
        .collect();
    let executed = drive_group(grid, group, &mut lanes);
    let finished: Vec<(SimResult, ProbeReport)> = lanes
        .into_iter()
        .flat_map(|(_, fan)| fan.into_inner())
        .map(|stream| {
            let (sim, probe) = stream.finish_probed();
            (sim, probe.into_report())
        })
        .collect();
    // The machines' memory statistics are readable again now that the
    // streams' borrows have ended, and must be taken before the pool's
    // `reset()` clears them.
    let sims: Vec<CellRecord> = finished
        .into_iter()
        .zip(lane_machines.iter().flatten())
        .map(|((sim, probe), machine)| CellRecord {
            sim,
            probe,
            mem: machine.mem_stats(),
            sampling: None,
        })
        .collect();
    pool.put(lane_machines.into_iter().flatten());
    (sims, executed)
}

/// Simulate every cell of `ctx.cells` (the cache-miss subset of a grid) as
/// `ctx.groups`, one work item per group, scheduled on `workers` threads.
/// Returns one [`CellRecord`] per cell plus the run's wall-clock and sharing
/// accounting.
fn run_groups(
    ctx: &GroupCtx<'_>,
    workers: usize,
    progress: bool,
    counters: &PoolCounters,
) -> (Vec<CellRecord>, GridTiming) {
    let (cells, groups) = (ctx.cells, ctx.groups);
    let now_ns = || ctx.epoch.elapsed().as_nanos() as u64;
    let outcomes = parallel_map_with(
        groups,
        workers,
        |worker| (MachinePool::new(counters), worker),
        group_label,
        |(pool, worker), group| {
            let start_ns = now_ns();
            let (sims, insts) = run_serial(ctx, group, pool);
            let dur_ns = now_ns().saturating_sub(start_ns);
            let name = group_label(group);
            if progress {
                crate::note(format_args!("  {name}: done ({} ms)", dur_ns / 1_000_000));
            }
            (sims, SpanRec { name, tid: *worker, start_ns, dur_ns, insts })
        },
    );

    // Assemble: per-cell results, group spans, span records.
    let mut timing = GridTiming::default();
    let mut slots: Vec<Option<CellRecord>> = vec![None; cells.len()];
    for (group, (sims, span)) in groups.iter().zip(outcomes) {
        timing.sim_wall_ns += span.dur_ns;
        timing.functional_instructions += span.insts;
        for (ci, sim) in group.members().zip(sims) {
            slots[ci] = Some(sim);
        }
        timing.spans.push(span);
    }
    // Chronological spans, so the meta section and trace export read in order.
    timing.spans.sort_by(|a, b| a.start_ns.cmp(&b.start_ns).then_with(|| a.name.cmp(&b.name)));
    timing.functional_passes = groups.len();
    let sims = slots.into_iter().map(|s| s.expect("every cell belongs to one group")).collect();
    (sims, timing)
}

/// Re-raise a caught worker panic, prefixing the failing work item's
/// identity so the report names the cell (or group) instead of losing it.
fn raise_labeled(label: &str, payload: Box<dyn std::any::Any + Send>) -> ! {
    let msg = payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("<non-string panic>");
    panic!("experiment work item `{label}` panicked: {msg}");
}

/// The `(workload, config, way)` identity of one grid cell — the same key
/// `momlab diff` matches cells by, named in the cache's progress lines.
fn cell_key(grid: &GridSpec, cell: &Cell) -> String {
    format!("{} / {} / {}-way", cell.workload.label(), grid.configs[cell.config].label, cell.way)
}

fn run_grid(
    grid: &GridSpec,
    workers: usize,
    mode: ExecMode,
    progress: bool,
    cache: Option<&CellCache>,
) -> (Vec<CellResult>, GridTiming, Vec<bool>) {
    let cells = grid.cells();

    // Cache lookup stage: resolve every cell's content address and pull its
    // record if one exists. Hit cells never reach the scheduler below —
    // a fully-cached fan-out group forms no group at all, so a warm run
    // performs zero interpretation and zero simulation. Any load failure
    // (missing, truncated, corrupt, wrong version or key) is a clean miss.
    let mut cached_sims: Vec<Option<CellRecord>> = vec![None; cells.len()];
    let mut keys: Vec<CellKey> = Vec::new();
    if let Some(store) = cache {
        for (i, cell) in cells.iter().enumerate() {
            let key = CellKey::of(grid, cell, mode);
            cached_sims[i] = store.load(&key);
            if progress {
                let outcome = if cached_sims[i].is_some() { "hit" } else { "miss" };
                crate::note(format_args!("  {}: cache {outcome}", cell_key(grid, cell)));
            }
            keys.push(key);
        }
    }
    // The miss subset the groups are built from. Without a cache this is
    // every cell; group membership indices below are positions into this
    // vector, merged back in grid order afterwards.
    let active: Vec<Cell> = cells
        .iter()
        .zip(&cached_sims)
        .filter(|(_, hit)| hit.is_none())
        .map(|(&cell, _)| cell)
        .collect();

    let counters = PoolCounters::default();
    let (active_sims, mut timing) = if active.is_empty() {
        (Vec::new(), GridTiming::default())
    } else {
        let grouped = groups(grid, &active, mode);
        let ctx = GroupCtx {
            grid,
            cells: &active,
            groups: &grouped,
            mode,
            epoch: Instant::now(),
        };
        run_groups(&ctx, workers, progress, &counters)
    };
    timing.pool = counters.stats();

    // Fill stage: persist every freshly simulated cell. Fills happen before
    // assembly so a panic-free run always leaves the cache consistent with
    // the document it produced.
    let mut cached = Vec::new();
    if let Some(store) = cache {
        let missed = keys.iter().zip(&cached_sims).filter(|(_, hit)| hit.is_none());
        for ((key, _), cs) in missed.zip(&active_sims) {
            store.store(key, cs);
        }
        cached = cached_sims.iter().map(Option::is_some).collect();
    }

    // Merge cache hits with fresh simulations, in grid order.
    let mut fresh = active_sims.into_iter();
    let sims: Vec<CellRecord> = cached_sims
        .into_iter()
        .map(|hit| match hit {
            Some(sim) => sim,
            None => fresh.next().expect("one fresh sim per miss"),
        })
        .collect();

    // Stage 3 (serial, cheap): derive speed-ups against the baseline cells.
    let index_of = |workload: Workload, config: usize, way: usize| -> Option<usize> {
        cells.iter().position(|c| c.workload == workload && c.config == config && c.way == way)
    };
    let results = cells
        .iter()
        .zip(&sims)
        .map(|(cell, cs)| {
            let baseline = match grid.baseline {
                BaselinePolicy::None => None,
                BaselinePolicy::ConfigAtWidth { config, way } => index_of(cell.workload, config, way),
                BaselinePolicy::ConfigSameWidth { config } => index_of(cell.workload, config, cell.way),
                BaselinePolicy::PairedPrevious => {
                    index_of(cell.workload, cell.config - cell.config % 2, cell.way)
                }
            };
            let config = &grid.configs[cell.config];
            CellResult {
                workload: cell.workload,
                config_label: config.label.clone(),
                isa: config.isa,
                mem: config.mem,
                way: cell.way,
                cycles: cs.sim.cycles,
                instructions: cs.sim.committed,
                branches: cs.sim.branches,
                mispredictions: cs.sim.mispredictions,
                mem_accesses: cs.sim.mem_accesses,
                speedup: baseline.map(|b| cs.sim.speedup_over(&sims[b].sim)),
                breakdown: cs.probe.breakdown,
                intervals: cs.probe.intervals.clone(),
                mem_stats: cs.mem,
                sampling: cs.sampling.clone(),
            }
        })
        .collect();
    (results, timing, cached)
}

/// Map `f` over `items` on `workers` scoped threads. Workers claim item
/// indices in order from a shared atomic cursor; every worker calls `state`
/// once with its worker index and threads the value through all of its `f`
/// calls. The runner uses the state for the [`MachinePool`] — machines are
/// reused within a worker, and since a reset machine is bit-identical to a
/// fresh one, the state never influences results. Results land in the slot
/// of their input index, so the output order — and any serialization of it
/// — is independent of worker count and scheduling. One worker (or one
/// item) runs everything on the calling thread.
///
/// A panic in `f` fails fast: the panicking worker raises the abort flag, and
/// from then on no worker claims another item. In-flight items still finish;
/// their results are discarded. The failure (the lowest-indexed one, should
/// several items panic at once) is re-raised on the caller's thread with
/// `label` of its item, so a kernel verification failure names its group
/// instead of surfacing as a bare join panic.
fn parallel_map_with<T: Sync, R: Send, S>(
    items: &[T],
    workers: usize,
    state: impl Fn(usize) -> S + Sync,
    label: impl Fn(&T) -> String,
    f: impl Fn(&mut S, &T) -> R + Sync,
) -> Vec<R> {
    let cursor = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    // One worker's claim loop: its results, plus the item it failed on.
    let work = |worker: usize| {
        let mut local = state(worker);
        let mut produced = Vec::new();
        while !abort.load(Ordering::Relaxed) {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else { break };
            match catch_unwind(AssertUnwindSafe(|| f(&mut local, item))) {
                Ok(r) => produced.push((i, r)),
                Err(payload) => {
                    abort.store(true, Ordering::Relaxed);
                    return (produced, Some((i, payload)));
                }
            }
        }
        (produced, None)
    };
    let workers = workers.min(items.len()).max(1);
    let outputs: Vec<_> = if workers == 1 {
        vec![work(0)]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers).map(|w| scope.spawn(move || work(w))).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("map workers catch their own panics"))
                .collect()
        })
    };
    let mut results: Vec<Option<R>> = std::iter::repeat_with(|| None).take(items.len()).collect();
    let mut failure: Option<(usize, Box<dyn std::any::Any + Send>)> = None;
    for (produced, failed) in outputs {
        for (i, r) in produced {
            results[i] = Some(r);
        }
        if let Some((i, payload)) = failed {
            if failure.as_ref().is_none_or(|(first, _)| i < *first) {
                failure = Some((i, payload));
            }
        }
    }
    if let Some((i, payload)) = failure {
        raise_labeled(&label(&items[i]), payload);
    }
    results.into_iter().map(|r| r.expect("every item ran")).collect()
}

impl RunResult {
    /// Aggregate simulator throughput over all grid cells, in dynamic
    /// instructions per wall-clock second (`None` for static experiments or
    /// when nothing was timed). The denominator is the sum of the *distinct*
    /// simulation spans ([`RunResult::sim_wall_ns`]), so a fan-out group's
    /// shared span is never counted once per member.
    /// Cells served from the result cache contribute neither instructions
    /// nor wall-clock (they join no group, so no span times them), so a warm
    /// run can never fabricate a throughput figure;
    /// when *every* cell was cached, nothing was measured and this returns
    /// `None`.
    pub fn total_insts_per_sec(&self) -> Option<f64> {
        let cells = self.cells()?;
        let mut simulated = cells
            .iter()
            .enumerate()
            .filter(|(i, _)| !self.cached_cells.get(*i).copied().unwrap_or(false))
            .peekable();
        simulated.peek()?;
        let insts: u64 = simulated.map(|(_, c)| c.instructions).sum();
        Some(insts_per_sec(insts, self.sim_wall_ns))
    }

    /// The instruction-weighted functional-sharing factor: dynamic
    /// instructions all cells consumed divided by the instructions the
    /// functional interpreter actually executed (each shared pass counted
    /// once). `None` for static experiments or empty grids.
    pub fn sharing_factor(&self) -> Option<f64> {
        let cells = self.cells()?;
        if cells.is_empty() || self.functional_instructions == 0 {
            return None;
        }
        let consumed: u64 = cells.iter().map(|c| c.instructions).sum();
        Some(consumed as f64 / self.functional_instructions as f64)
    }

    /// The grid cells, if this was a grid experiment.
    pub fn cells(&self) -> Option<&[CellResult]> {
        match &self.data {
            RunData::Grid(cells) => Some(cells),
            RunData::Static(_) => None,
        }
    }
}

/// Simulated instructions per wall-clock second.
pub(crate) fn insts_per_sec(instructions: u64, wall_ns: u64) -> f64 {
    instructions as f64 * 1e9 / wall_ns.max(1) as f64
}


#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;
    use crate::sampling::sampled_estimate;
    use crate::spec::{figure5_spec, figure7_spec};
    use mom_apps::AppKind;
    use mom_kernels::KernelKind;

    fn map_doubled(items: &[usize], workers: usize) -> Vec<usize> {
        parallel_map_with(items, workers, |_| (), |x| format!("item {x}"), |(), x| x * 2)
    }

    fn run_with(spec: &ExperimentSpec, workers: usize) -> RunResult {
        run(spec, &RunOptions::with_workers(workers))
    }

    fn run_mode(spec: &ExperimentSpec, workers: usize, mode: ExecMode) -> RunResult {
        run(spec, &RunOptions { workers, mode, ..Default::default() })
    }

    #[test]
    fn parallel_map_preserves_input_order() {
        let items: Vec<usize> = (0..100).collect();
        let doubled = map_doubled(&items, 4);
        assert_eq!(doubled, items.iter().map(|&x| x * 2).collect::<Vec<_>>());
        assert_eq!(doubled, map_doubled(&items, 1));
    }

    #[test]
    fn a_panicking_item_aborts_promptly_and_names_itself() {
        let items: Vec<usize> = (0..1000).collect();
        let executed = AtomicUsize::new(0);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            parallel_map_with(
                &items,
                4,
                |_| (),
                |x| format!("compensation / mom / {x}-way"),
                |(), &x| {
                    if x == 3 {
                        panic!("injected cell failure");
                    }
                    executed.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    x
                },
            )
        }));
        let payload = caught.expect_err("the worker panic must propagate");
        let msg = payload.downcast_ref::<String>().expect("formatted panic message");
        assert!(
            msg.contains("compensation / mom / 3-way") && msg.contains("injected cell failure"),
            "panic must name the failing cell: {msg}"
        );
        // Fail fast: the parked cursor stops idle workers long before the
        // 999 surviving items are drained.
        let ran = executed.load(Ordering::Relaxed);
        assert!(ran < 900, "{ran} items still ran after the panic");
    }

    #[test]
    fn serial_path_also_labels_a_panicking_item() {
        let items = [1usize, 2];
        let caught = catch_unwind(AssertUnwindSafe(|| {
            parallel_map_with(
                &items,
                1,
                |_| (),
                |x| format!("item-{x}"),
                |(), &x| {
                    if x == 2 {
                        panic!("boom");
                    }
                    x
                },
            )
        }));
        let payload = caught.expect_err("panic propagates serially too");
        let msg = payload.downcast_ref::<String>().expect("formatted panic message");
        assert!(msg.contains("item-2") && msg.contains("boom"), "{msg}");
    }

    #[test]
    fn every_group_is_one_work_item_at_any_worker_count() {
        for name in ["figure5", "stress"] {
            let spec = ExperimentSpec::builtin(name, 1, true).expect("built-in spec");
            let result = run_with(&spec, 4);
            assert_eq!(result.spans.len(), result.functional_passes, "{name}: one span per group");
            assert_eq!(
                result.spans.iter().map(|s| s.insts).sum::<u64>(),
                result.functional_instructions,
                "{name}: each group's interpretation runs inside its one span"
            );
            assert!(result.pipeline.is_none());
            let doc = result.document_json();
            assert!(doc.get("meta").and_then(|m| m.get("pipeline")).is_none());
        }
    }

    #[test]
    fn static_experiments_run_and_serialize() {
        for name in ["table1", "table2", "table3", "isa_inventory"] {
            let spec = ExperimentSpec::builtin(name, 1, false).unwrap();
            let result = run_with(&spec, 1);
            let json = result.results_json();
            assert_eq!(json.get("kind").and_then(Value::as_str), Some("static"));
            let rows = json.get("rows").and_then(Value::as_array).expect("rows array");
            assert!(!rows.is_empty(), "{name} produced no rows");
            // The full document reparses.
            let doc = result.document_json().to_pretty();
            Value::parse(&doc).expect("document parses");
        }
    }

    #[test]
    fn figure5_grid_baselines_are_unity() {
        let spec = figure5_spec(&[KernelKind::Compensation], 1, 1, false);
        let result = run_with(&spec, 2);
        let cells = result.cells().expect("grid cells");
        assert_eq!(cells.len(), 16);
        let baseline = cells
            .iter()
            .find(|c| c.isa == IsaKind::Alpha && c.way == 1)
            .expect("baseline cell present");
        assert!((baseline.speedup.unwrap() - 1.0).abs() < 1e-12);
        let mom1 = cells.iter().find(|c| c.isa == IsaKind::Mom && c.way == 1).unwrap();
        assert!(mom1.speedup.unwrap() > 1.0, "MOM outruns scalar Alpha");
        assert!(cells.iter().all(|c| c.cycles > 0 && c.instructions > 0));
    }

    #[test]
    fn mem_labels_distinguish_perfect_latencies() {
        assert_eq!(mem_label(MemModelKind::Perfect { latency: 1 }), "perfect-1");
        assert_eq!(mem_label(MemModelKind::Perfect { latency: 50 }), "perfect-50");
        assert_eq!(mem_label(MemModelKind::VectorCache), "vector-cache");
    }

    #[test]
    fn fanout_amortizes_figure5_groups_by_the_width_count() {
        // Each (kernel, isa) group of figure5 serves all four widths, so one
        // functional pass replaces four: sharing factor exactly 4.
        let spec = figure5_spec(&[KernelKind::Compensation, KernelKind::AddBlock], 1, 1, true);
        let result = run_with(&spec, 2);
        assert_eq!(result.mode, ExecMode::Fanout);
        let cells = result.cells().unwrap();
        assert_eq!(cells.len(), 2 * 4 * 4);
        assert_eq!(result.functional_passes, 2 * 4, "one pass per (kernel, isa)");
        let factor = result.sharing_factor().expect("grid has a sharing factor");
        assert!((factor - 4.0).abs() < 1e-9, "figure5 sharing factor {factor}");
        assert_eq!(
            result.functional_instructions * 4,
            cells.iter().map(|c| c.instructions).sum::<u64>()
        );
        // One `meta.spans` entry per group, each timing the group's one
        // functional pass: the spans' instructions are the run's.
        let doc = result.document_json();
        let spans = doc.get("meta").and_then(|m| m.get("spans")).and_then(Value::as_array);
        let spans = spans.expect("meta.spans present");
        assert_eq!(spans.len(), 2 * 4);
        let field = |span: &Value, k: &str| span.get(k).and_then(Value::as_i64).unwrap() as u64;
        let insts: u64 = spans.iter().map(|s| field(s, "insts")).sum();
        assert_eq!(insts, result.functional_instructions);
        let dur: u64 = spans.iter().map(|s| field(s, "dur_ns")).sum();
        assert_eq!(dur, result.sim_wall_ns);
    }

    #[test]
    fn shared_passes_meta_is_reported() {
        let spec = figure5_spec(&[KernelKind::Compensation], 1, 1, true);
        let result = run_with(&spec, 1);
        let doc = result.document_json();
        let meta = doc.get("meta").expect("meta present");
        assert_eq!(meta.get("mode").and_then(Value::as_str), Some("fanout"));
        let sp = meta.get("shared_passes").expect("shared_passes present");
        assert_eq!(sp.get("cells").and_then(Value::as_i64), Some(16));
        assert_eq!(sp.get("functional_passes").and_then(Value::as_i64), Some(4));
        let factor = sp.get("sharing_factor").and_then(Value::as_f64).unwrap();
        assert!((factor - 4.0).abs() < 1e-9);
        let cell_insts = sp.get("cell_instructions").and_then(Value::as_i64).unwrap();
        let func_insts = sp.get("functional_instructions").and_then(Value::as_i64).unwrap();
        assert_eq!(cell_insts, func_insts * 4);
    }

    #[test]
    fn sweep_runs_and_reports_its_grid() {
        let spec = ExperimentSpec::builtin("sweep", 1, true).unwrap();
        let result = run_with(&spec, 2);
        let cells = result.cells().unwrap();
        // Fast dims: 4 ISAs x 2 ROBs x 2 latencies x 1 width.
        assert_eq!(cells.len(), 16);
        assert_eq!(result.functional_passes, 4, "one pass per ISA");
        assert!((result.sharing_factor().unwrap() - 4.0).abs() < 1e-9);
        assert!(cells.iter().all(|c| c.speedup.is_none()), "sweep has no baseline");
        // A bigger ROB at the same width/latency never hurts.
        let cycles_of = |label: &str| {
            cells.iter().find(|c| c.config_label == label).map(|c| c.cycles).unwrap()
        };
        assert!(cycles_of("mom/rob64/lat50") <= cycles_of("mom/rob16/lat50"));
        // The config array records the ROB override.
        let doc = result.results_json();
        let configs = doc.get("configs").and_then(Value::as_array).unwrap();
        assert!(configs.iter().all(|c| c.get("rob").and_then(Value::as_i64).is_some()));
    }

    #[test]
    fn exec_mode_labels() {
        assert_eq!(ExecMode::Fanout.label(), "fanout");
        assert_eq!(ExecMode::Streamed.label(), "streamed");
        let sampled = ExecMode::Sampled {
            unit_insts: DEFAULT_SAMPLE_UNIT,
            warmup_insts: DEFAULT_SAMPLE_WARMUP,
            period: DEFAULT_SAMPLE_PERIOD,
        };
        assert_eq!(sampled.label(), "sampled");
        assert_eq!(sampled.check(), Ok(()));
        assert_eq!(ExecMode::Streamed.check(), Ok(()));
        // No window fits a zero period, and a window needs a measured unit.
        assert!(ExecMode::Sampled { unit_insts: 1, warmup_insts: 0, period: 0 }.check().is_err());
        assert!(ExecMode::Sampled { unit_insts: 0, warmup_insts: 0, period: 10 }.check().is_err());
    }

    #[test]
    #[should_panic(expected = "is shorter than warmup")]
    fn a_sampling_window_that_overflows_u64_is_rejected() {
        let spec = figure5_spec(&[KernelKind::Compensation], 1, 1, true);
        run_mode(&spec, 1, ExecMode::Sampled { unit_insts: 2, warmup_insts: u64::MAX, period: 5 });
    }

    #[test]
    fn streamed_is_fanout_with_singleton_groups() {
        let spec = figure5_spec(&[KernelKind::Compensation], 1, 1, true);
        let fanout = run_with(&spec, 2);
        for workers in [1, 2] {
            let streamed = run_mode(&spec, workers, ExecMode::Streamed);
            let cells = streamed.cells().expect("grid cells").len();
            assert_eq!(streamed.results_json().to_pretty(), fanout.results_json().to_pretty());
            assert_eq!(streamed.functional_passes, cells, "one pass per cell");
            assert!((streamed.sharing_factor().unwrap() - 1.0).abs() < 1e-12);
            // Every cell is a work item with a span of its own.
            assert_eq!(streamed.spans.len(), cells);
            assert!(streamed.spans.iter().all(|s| s.insts > 0));
        }
    }

    /// A sampled mode whose period makes scale-1 workloads alternate between
    /// detailed and fast-forwarded execution many times.
    const SMALL_SAMPLED: ExecMode =
        ExecMode::Sampled { unit_insts: 100, warmup_insts: 100, period: 500 };

    /// `spec` with its grid edited and its speed-ups switched off, so every
    /// field of a cell comes from that cell's own simulation.
    fn regrid(mut spec: ExperimentSpec, edit: impl FnOnce(&mut GridSpec)) -> ExperimentSpec {
        let ExperimentKind::Grid(grid) = &mut spec.kind else { panic!("a grid spec") };
        grid.baseline = BaselinePolicy::None;
        edit(grid);
        spec
    }

    /// The one cell of `result` at `isa` and `way`, which must have skipped
    /// part of its workload.
    fn sampled_cell(result: &RunResult, isa: IsaKind, way: usize) -> CellResult {
        let cells = result.cells().expect("grid cells");
        let cell = cells.iter().find(|c| c.isa == isa && c.way == way).expect("cell present");
        let s = cell.sampling.as_ref().expect("a sampling section");
        assert!(s.warmup_insts + s.measured_insts < s.total_insts, "{isa}: sampling engages");
        cell.clone()
    }

    #[test]
    fn a_sampled_kernel_cell_does_not_depend_on_its_group_mates() {
        let at_widths = |widths: &[usize]| {
            let spec = figure5_spec(&[KernelKind::Compensation], 1, 1, true);
            run_mode(&regrid(spec, |g| g.widths = widths.to_vec()), 2, SMALL_SAMPLED)
        };
        let (alone, grouped) = (at_widths(&[4]), at_widths(&[1, 2, 4, 8]));
        for isa in IsaKind::ALL {
            assert_eq!(sampled_cell(&alone, isa, 4), sampled_cell(&grouped, isa, 4), "{isa}");
        }
        // One pass and one span per (kernel, ISA) group serve all four widths.
        assert_eq!(grouped.functional_passes, 4);
        assert_eq!(grouped.spans.len(), 4);
        let cells = grouped.cells().expect("grid cells");
        let cell_insts: u64 = cells.iter().map(|c| c.instructions).sum();
        assert_eq!(grouped.functional_instructions * 4, cell_insts);
    }

    #[test]
    fn a_sampled_app_cell_does_not_depend_on_its_group_mates() {
        // Configs 2, 3 and 4 of figure7 are the three MOM memory systems.
        let with_configs = |picked: &[usize]| {
            let spec = regrid(figure7_spec(&[AppKind::GsmEncode], 1, &[4], true), |g| {
                g.configs = picked.iter().map(|&i| g.configs[i].clone()).collect();
            });
            run_mode(&spec, 1, SMALL_SAMPLED)
        };
        let (alone, grouped) = (with_configs(&[2]), with_configs(&[2, 3, 4]));
        assert_eq!(grouped.functional_passes, 1, "one ISA lane, one pass");
        let cell = sampled_cell(&alone, IsaKind::Mom, 4);
        assert_eq!(cell.mem, MemModelKind::MultiAddress);
        assert_eq!(cell, grouped.cells().expect("grid cells")[0]);
    }

    #[test]
    fn sampled_estimate_statistics() {
        let unit = |committed: u64, cycles: u64| SimResult {
            committed,
            cycles,
            branches: committed / 10,
            mispredictions: committed / 100,
            mem_accesses: committed / 2,
        };
        // Two units at IPC 2.0 and 1.0: mean 1.5, nonzero CI, exact
        // committed count, cycles = total / mean.
        let detailed = SimResult::default();
        let units = [unit(1000, 500), unit(1000, 1000)];
        let (sim, s) = sampled_estimate(&detailed, &units, 30_000, 4000);
        assert_eq!(s.units_measured, 2);
        assert_eq!(s.measured_insts, 2000);
        assert_eq!(s.warmup_insts, 4000);
        assert_eq!(s.total_insts, 30_000);
        assert!((s.ipc_mean - 1.5).abs() < 1e-12);
        assert!(s.ipc_ci95 > 0.0);
        assert_eq!(sim.committed, 30_000);
        assert_eq!(sim.cycles, 20_000);
        // Counters scale by total / measured = 15x.
        assert_eq!(sim.branches, 200 * 15);
        // A single unit has no confidence interval.
        let (_, single) = sampled_estimate(&detailed, &units[..1], 30_000, 2000);
        assert_eq!(single.ipc_ci95, 0.0);
    }

    #[test]
    fn sampled_estimate_falls_back_without_units() {
        // A fully detailed run (short workload) passes through exactly.
        let detailed = SimResult {
            cycles: 400,
            committed: 600,
            branches: 60,
            mispredictions: 6,
            mem_accesses: 300,
        };
        let (sim, s) = sampled_estimate(&detailed, &[], 600, 600);
        assert_eq!(sim, detailed);
        assert_eq!(s.units_measured, 0);
        assert!((s.ipc_mean - detailed.ipc()).abs() < 1e-12);
        // A partially detailed run scales up to the exact instruction count.
        let (scaled, _) = sampled_estimate(&detailed, &[], 1200, 600);
        assert_eq!(scaled.committed, 1200);
        assert_eq!(scaled.cycles, 800);
        assert_eq!(scaled.branches, 120);
    }
}
