//! SMARTS-style sampled simulation of single grid cells, with checkpoints.
//!
//! A sampled cell alternates detailed warm-up and measurement windows with
//! functional fast-forwarding, so its wall-clock scales with the number of
//! samples instead of the workload length. The runner schedules each sampled
//! cell as a singleton group and calls [`run_sampled_kernel_cell`] or
//! [`run_sampled_app_cell`] for it; [`sampled_estimate`] turns the closed
//! measurement units into the cell's reported result and its
//! [`CellSampling`] accounting. Kernel cells can persist a [`Checkpoint`] at
//! period boundaries and resume from it bit-exactly ([`CheckpointConfig`]).

use std::path::PathBuf;

use mom_apps::{stream_app, AppKind, AppParams};
use mom_core::{snapshot, ExecCursor, Machine};
use mom_cpu::{AttributionProbe, Checkpoint, SimMachine, SimResult, SimStream};
use mom_isa::codec::{CodecError, Decoder, Encoder};
use mom_isa::trace::{DynInst, IsaKind, TraceSink};
use mom_kernels::{build_kernel, BuiltKernel, KernelKind, KernelParams};

use crate::runner::{CellSampling, CellSim, ExecMode};
use crate::spec::GridSpec;

/// Where a sampled run persists per-cell [`Checkpoint`]s, and whether it
/// should resume from checkpoint files already on disk (`momlab run
/// --checkpoint-dir` / `--resume`). Only kernel cells of
/// [`ExecMode::Sampled`] runs with a nonzero period checkpoint; every other
/// mode ignores this configuration. Files are rewritten atomically at most
/// every `CKPT_INTERVAL_INSTS` (~10M) executed instructions, plus once at
/// cell completion.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Directory the checkpoint files live in (created if missing).
    pub dir: PathBuf,
    /// Resume cells from existing checkpoint files instead of starting over.
    /// A checkpoint file that does not match the spec, cell or sampling
    /// parameters fails loudly rather than silently corrupting the run.
    pub resume: bool,
}

/// Resolved checkpoint context of one sampled grid run: the user's
/// [`CheckpointConfig`] plus the identity every checkpoint file is written
/// with and validated against on resume.
#[derive(Debug)]
pub(crate) struct CkptContext {
    cfg: CheckpointConfig,
    spec_name: String,
    config_hash: String,
    sp: SamplingParams,
}

impl CkptContext {
    /// Create the checkpoint directory and bind it to one run's identity.
    ///
    /// # Panics
    ///
    /// Panics when the directory cannot be created.
    pub(crate) fn new(
        cfg: &CheckpointConfig,
        spec_name: &str,
        config_hash: String,
        sp: SamplingParams,
    ) -> Self {
        std::fs::create_dir_all(&cfg.dir).unwrap_or_else(|e| {
            panic!("cannot create checkpoint directory {}: {e}", cfg.dir.display())
        });
        Self { cfg: cfg.clone(), spec_name: spec_name.to_string(), config_hash, sp }
    }
}

/// The three knobs of one estimated sampled run, bundled for the per-cell
/// helpers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SamplingParams {
    pub(crate) unit: u64,
    pub(crate) warmup: u64,
    pub(crate) period: u64,
}

impl SamplingParams {
    /// The knobs of `mode` when it produces estimates ([`ExecMode::Sampled`]
    /// with a nonzero period); `None` for every exact mode, including the
    /// rate-1 sentinel.
    pub(crate) fn of(mode: ExecMode) -> Option<Self> {
        match mode {
            ExecMode::Sampled { unit_insts, warmup_insts, period } if period > 0 => {
                Some(Self { unit: unit_insts, warmup: warmup_insts, period })
            }
            _ => None,
        }
    }
}

/// The counter deltas of one closed measurement unit: `after - before` over
/// the cumulative [`SimResult`] snapshots taken around the unit's detailed
/// window. Saturating, because a snapshot taken mid-stream lags the fed
/// instructions by the in-flight ROB contents.
#[derive(Debug, Clone, Copy)]
pub(crate) struct UnitDelta {
    pub(crate) committed: u64,
    pub(crate) cycles: u64,
    pub(crate) branches: u64,
    pub(crate) mispredictions: u64,
    pub(crate) mem_retries: u64,
    pub(crate) mem_accesses: u64,
}

impl UnitDelta {
    fn between(before: &SimResult, after: &SimResult) -> Self {
        Self {
            committed: after.committed.saturating_sub(before.committed),
            cycles: after.cycles.saturating_sub(before.cycles),
            branches: after.branches.saturating_sub(before.branches),
            mispredictions: after.mispredictions.saturating_sub(before.mispredictions),
            mem_retries: after.mem_retries.saturating_sub(before.mem_retries),
            mem_accesses: after.mem_accesses.saturating_sub(before.mem_accesses),
        }
    }
}

/// Scale a partially detailed [`SimResult`] up to `total_insts` committed
/// instructions (the no-units fallback of [`sampled_estimate`]).
fn scale_result(detailed: &SimResult, total_insts: u64) -> SimResult {
    let scale = total_insts as f64 / detailed.committed.max(1) as f64;
    let scaled = |x: u64| (x as f64 * scale).round() as u64;
    SimResult {
        cycles: scaled(detailed.cycles).max(1),
        committed: total_insts,
        branches: scaled(detailed.branches),
        mispredictions: scaled(detailed.mispredictions),
        mem_retries: scaled(detailed.mem_retries),
        mem_accesses: scaled(detailed.mem_accesses),
    }
}

/// Turn the closed measurement units of one sampled cell into the cell's
/// estimated [`SimResult`] and its sampling accounting.
///
/// The committed-instruction count stays **exact** (the functional
/// interpreter executed the whole workload either way); cycles come from the
/// mean unit IPC, and the remaining counters are the unit sums scaled by the
/// sampled fraction. When no unit closed — a workload shorter than one
/// warm-up window, or commit lag swallowing every unit — the detailed
/// aggregate stands in: exact if the whole run was simulated in detail,
/// scaled up otherwise.
pub(crate) fn sampled_estimate(
    detailed: &SimResult,
    units: &[UnitDelta],
    total_insts: u64,
    warmup_total: u64,
) -> (SimResult, CellSampling) {
    let measured: u64 = units.iter().map(|u| u.committed).sum();
    if measured == 0 {
        let sim = if detailed.committed >= total_insts {
            *detailed
        } else {
            scale_result(detailed, total_insts)
        };
        let sampling = CellSampling {
            units_measured: 0,
            measured_insts: 0,
            warmup_insts: warmup_total,
            total_insts,
            ipc_mean: detailed.ipc(),
            ipc_ci95: 0.0,
        };
        return (sim, sampling);
    }
    let ipcs: Vec<f64> =
        units.iter().map(|u| u.committed as f64 / u.cycles.max(1) as f64).collect();
    let n = ipcs.len() as f64;
    let mean = ipcs.iter().sum::<f64>() / n;
    let ci95 = if ipcs.len() > 1 {
        // Sample variance (n - 1 denominator), normal-theory 95% interval on
        // the mean — the SMARTS confidence machinery.
        let var = ipcs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0);
        1.96 * (var / n).sqrt()
    } else {
        0.0
    };
    let scale = total_insts as f64 / measured as f64;
    let scaled = |sum: u64| (sum as f64 * scale).round() as u64;
    let sum_of = |f: fn(&UnitDelta) -> u64| units.iter().map(f).sum::<u64>();
    let sim = SimResult {
        cycles: ((total_insts as f64 / mean.max(f64::MIN_POSITIVE)).round() as u64).max(1),
        committed: total_insts,
        branches: scaled(sum_of(|u| u.branches)),
        mispredictions: scaled(sum_of(|u| u.mispredictions)),
        mem_retries: scaled(sum_of(|u| u.mem_retries)),
        mem_accesses: scaled(sum_of(|u| u.mem_accesses)),
    };
    let sampling = CellSampling {
        units_measured: units.len() as u64,
        measured_insts: measured,
        warmup_insts: warmup_total,
        total_insts,
        ipc_mean: mean,
        ipc_ci95: ci95,
    };
    (sim, sampling)
}

/// Version tag of the lab checkpoint file framing (the envelope binding a
/// [`Checkpoint`] blob to a spec, cell and sampling parameters).
const LAB_CKPT_VERSION: u32 = 1;

/// Minimum executed instructions between two checkpoint writes of one cell.
/// A checkpoint costs O(touched working set) to serialize, so writing one at
/// every sampling period (default 100k instructions, ~1 ms of simulation)
/// would spend more time persisting state than simulating. Cells shorter
/// than the interval still write their final checkpoint: completion always
/// persists, so `--resume` never re-simulates a finished cell.
const CKPT_INTERVAL_INSTS: u64 = 10_000_000;


/// The on-disk path of one cell's checkpoint file: spec name plus cell key,
/// with every byte outside `[A-Za-z0-9._-]` replaced by `-`.
fn ckpt_path(ctx: &CkptContext, key: &str) -> PathBuf {
    let sanitize = |s: &str| -> String {
        s.chars()
            .map(|c| if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') { c } else { '-' })
            .collect()
    };
    ctx.cfg.dir.join(format!("{}__{}.ckpt", sanitize(&ctx.spec_name), sanitize(key)))
}

/// Write one cell's checkpoint atomically (tmp + rename), enveloped with the
/// identity a resume validates against.
fn save_cell_checkpoint(ctx: &CkptContext, key: &str, ckpt: &Checkpoint) {
    let mut e = Encoder::new();
    e.u32(LAB_CKPT_VERSION);
    e.blob(ctx.config_hash.as_bytes());
    e.blob(key.as_bytes());
    e.u64(ctx.sp.unit);
    e.u64(ctx.sp.warmup);
    e.u64(ctx.sp.period);
    e.blob(&ckpt.to_bytes());
    let path = ckpt_path(ctx, key);
    let tmp = path.with_extension("ckpt.tmp");
    std::fs::write(&tmp, e.into_bytes())
        .and_then(|()| std::fs::rename(&tmp, &path))
        .unwrap_or_else(|err| panic!("cannot write checkpoint {}: {err}", path.display()));
}

/// Decode the lab checkpoint envelope written by [`save_cell_checkpoint`].
fn decode_lab_ckpt(bytes: &[u8]) -> Result<(String, String, u64, u64, u64, Checkpoint), CodecError> {
    let mut d = Decoder::new(bytes);
    let version = d.u32("lab checkpoint version")?;
    if version != LAB_CKPT_VERSION {
        return Err(CodecError::Version { what: "lab checkpoint", found: version });
    }
    let hash = String::from_utf8_lossy(d.blob("lab checkpoint config hash")?).into_owned();
    let key = String::from_utf8_lossy(d.blob("lab checkpoint cell key")?).into_owned();
    let unit = d.u64("lab checkpoint unit")?;
    let warmup = d.u64("lab checkpoint warmup")?;
    let period = d.u64("lab checkpoint period")?;
    let ckpt = Checkpoint::from_bytes(d.blob("lab checkpoint payload")?)?;
    d.finish("lab checkpoint")?;
    Ok((hash, key, unit, warmup, period, ckpt))
}

/// Load one cell's checkpoint if its file exists. A missing file means
/// "start fresh"; a file that fails to decode, or matches a different spec,
/// cell or sampling parameters, panics with the path — silently restarting
/// (or worse, resuming into the wrong run) would corrupt the results.
fn load_cell_checkpoint(ctx: &CkptContext, key: &str) -> Option<Checkpoint> {
    let path = ckpt_path(ctx, key);
    let bytes = match std::fs::read(&path) {
        Ok(bytes) => bytes,
        Err(err) if err.kind() == std::io::ErrorKind::NotFound => return None,
        Err(err) => panic!("cannot read checkpoint {}: {err}", path.display()),
    };
    let (hash, file_key, unit, warmup, period, ckpt) =
        decode_lab_ckpt(&bytes).unwrap_or_else(|e| {
            panic!(
                "checkpoint {} is not a valid checkpoint file ({e}); \
                 delete the file or rerun without --resume",
                path.display()
            )
        });
    if hash != ctx.config_hash
        || file_key != key
        || (SamplingParams { unit, warmup, period }) != ctx.sp
    {
        panic!(
            "checkpoint {} does not match this run (spec configuration, cell or \
             sampling parameters changed); delete the file or rerun without --resume",
            path.display()
        );
    }
    Some(ckpt)
}

/// Assemble the [`Checkpoint`] of one kernel cell at a period boundary:
/// architectural machine + cursor, engine + probe + closed units, warm
/// memory state, and the dynamic instruction index.
fn build_checkpoint(
    arch: &Machine,
    cursor: ExecCursor,
    machine: &SimMachine,
    probe: &AttributionProbe,
    units: &[UnitDelta],
    warmup_done: u64,
    executed: u64,
) -> Checkpoint {
    let mut arch_e = Encoder::new();
    snapshot::encode_machine(&mut arch_e, arch);
    arch_e.u64(cursor.pc() as u64);
    let mut sim_e = Encoder::new();
    machine.save_engine_state(&mut sim_e);
    probe.save_state(&mut sim_e);
    sim_e.u64(warmup_done);
    sim_e.u64(units.len() as u64);
    for u in units {
        sim_e.u64(u.committed);
        sim_e.u64(u.cycles);
        sim_e.u64(u.branches);
        sim_e.u64(u.mispredictions);
        sim_e.u64(u.mem_retries);
        sim_e.u64(u.mem_accesses);
    }
    let mut mem_e = Encoder::new();
    machine.save_mem_state(&mut mem_e);
    Checkpoint {
        arch_state: arch_e.into_bytes(),
        sim_state: sim_e.into_bytes(),
        mem_state: mem_e.into_bytes(),
        inst_index: executed,
    }
}

/// Restore one kernel cell from a [`Checkpoint`]: architectural machine and
/// cursor into `arch`, engine + probe + closed units + warm memory into
/// `machine`. Returns `(cursor, probe, warmup_done, units)`.
fn restore_kernel_cell(
    c: &Checkpoint,
    arch: &mut Machine,
    machine: &mut SimMachine,
) -> Result<(ExecCursor, AttributionProbe, u64, Vec<UnitDelta>), CodecError> {
    let mut d = Decoder::new(&c.arch_state);
    snapshot::restore_machine(&mut d, arch)?;
    let cursor = ExecCursor::at(d.u64("checkpoint cursor")? as usize);
    d.finish("checkpoint architectural state")?;

    let mut d = Decoder::new(&c.sim_state);
    machine.load_engine_state(&mut d)?;
    let probe = AttributionProbe::load_state(&mut d)?;
    let warmup_done = d.u64("checkpoint warmup tally")?;
    let n = d.u64("checkpoint unit count")?;
    let mut units = Vec::new();
    for _ in 0..n {
        units.push(UnitDelta {
            committed: d.u64("unit committed")?,
            cycles: d.u64("unit cycles")?,
            branches: d.u64("unit branches")?,
            mispredictions: d.u64("unit mispredictions")?,
            mem_retries: d.u64("unit mem retries")?,
            mem_accesses: d.u64("unit mem accesses")?,
        });
    }
    d.finish("checkpoint engine state")?;

    let mut d = Decoder::new(&c.mem_state);
    machine.load_mem_state(&mut d)?;
    d.finish("checkpoint memory state")?;
    Ok((cursor, probe, warmup_done, units))
}

/// Run one kernel cell in sampled mode: a detailed warm-up + measured unit at
/// the head of every sampling period, functional fast-forward for the
/// remainder, with optional checkpoint persistence at period boundaries.
///
/// Each detailed window opens a fresh [`SimStream`] on the cell's machine and
/// closes it before fast-forwarding; the engine state, probe and warm memory
/// carry over, so consecutive detailed windows time exactly as they would in
/// one continuous stream (the machine-level resume test in `mom-cpu` pins
/// that equivalence). Placing the detailed window at the *head* of each
/// period — rather than fast-forwarding first — means a workload shorter
/// than one warm-up window is simulated entirely in detail and reports its
/// exact result.
pub(crate) fn run_sampled_kernel_cell(
    kernel: KernelKind,
    isa: IsaKind,
    grid: &GridSpec,
    machine: &mut SimMachine,
    sp: SamplingParams,
    ckpt: Option<(&CkptContext, String)>,
) -> CellSim {
    let params = KernelParams { seed: grid.seed, scale: grid.scale };
    let BuiltKernel { machine: mut arch, program, expected, output_addr, .. } =
        build_kernel(kernel, isa, &params);
    let decoded = program.decode();
    let mut cursor = ExecCursor::start();
    let mut probe: Option<AttributionProbe> = None;
    let mut units: Vec<UnitDelta> = Vec::new();
    let mut executed = 0u64;
    let mut warmup_done = 0u64;
    if let Some((ctx, key)) = &ckpt {
        if ctx.cfg.resume {
            if let Some(c) = load_cell_checkpoint(ctx, key) {
                let (cur, p, w, us) =
                    restore_kernel_cell(&c, &mut arch, machine).unwrap_or_else(|e| {
                        panic!(
                            "checkpoint {} failed to restore: {e}; \
                             delete the file or rerun without --resume",
                            ckpt_path(ctx, key).display()
                        )
                    });
                cursor = cur;
                probe = Some(p);
                warmup_done = w;
                units = us;
                executed = c.inst_index;
            }
        }
    }
    let mut last_saved = executed;
    let (detailed, report) = loop {
        let mut stream = match probe.take() {
            Some(p) => machine.sim_probed_with(p),
            None => machine.sim_probed(),
        };
        let w = decoded.stream_segment(&mut arch, &mut stream, &mut cursor, sp.warmup);
        warmup_done += w;
        let before = stream.snapshot();
        let u = decoded.stream_segment(&mut arch, &mut stream, &mut cursor, sp.unit);
        executed += w + u;
        // Closing the stream drains the ROB, so the delta holds the unit's
        // complete retirement (plus any warm-up stragglers — acceptable: the
        // warm-up exists precisely to make the unit steady-state).
        let (partial, p) = stream.finish_probed();
        let delta = UnitDelta::between(&before, &partial);
        if delta.committed > 0 {
            units.push(delta);
        }
        executed += decoded.fast_forward(&mut arch, &mut cursor, sp.period - sp.warmup - sp.unit);
        let done = cursor.is_done(&decoded);
        if let Some((ctx, key)) = &ckpt {
            if done || executed.saturating_sub(last_saved) >= CKPT_INTERVAL_INSTS {
                let c = build_checkpoint(&arch, cursor, machine, &p, &units, warmup_done, executed);
                save_cell_checkpoint(ctx, key, &c);
                last_saved = executed;
            }
        }
        if done {
            // The SimResult counters live in the engine state, so the last
            // close reports the cumulative detailed totals — including
            // windows replayed from a restored checkpoint.
            break (partial, p.into_report());
        }
        probe = Some(p);
    };
    let actual = arch.mem().read_bytes(output_addr, expected.len());
    if let Some(offset) = actual.iter().zip(expected.iter()).position(|(a, e)| a != e) {
        panic!("{kernel} ({isa}) failed verification: output mismatch at byte offset {offset}");
    }
    let (sim, sampling) = sampled_estimate(&detailed, &units, executed, warmup_done);
    CellSim { sim, probe: report, mem: machine.mem_stats(), sampling: Some(sampling) }
}

/// A sampling adapter between the functional interpreter and a cell's
/// [`SimStream`]: counts every graduated instruction, but forwards only
/// those inside the detailed warm-up + measurement window at the head of
/// each sampling period, snapshotting the stream around each unit.
///
/// This deliberately violates the faithful-sink convention of [`TraceSink`]
/// (every other sink forwards the complete stream in order): skipping the
/// tail of each period *is* the sampling. Application workloads run through
/// this adapter because their interpreters drive the sink callback-style and
/// cannot be windowed externally the way pre-decoded kernels can — the
/// functional interpretation stays complete; only the timing simulator sees
/// a sample. Unlike the kernel path the stream is never closed mid-run, so
/// unit deltas are measured between lagging snapshots (both ends lag by the
/// in-flight ROB, so the window length is preserved).
struct SampledSink<'s, 'm> {
    stream: &'s mut SimStream<'m, AttributionProbe>,
    sp: SamplingParams,
    /// Position inside the current sampling period.
    pos: u64,
    executed: u64,
    warmup_done: u64,
    /// Cumulative counters at the open unit's start, if a unit is open.
    unit_open: Option<SimResult>,
    units: Vec<UnitDelta>,
}

impl SampledSink<'_, '_> {
    fn step(&mut self, inst: &DynInst) {
        let in_warmup = self.pos < self.sp.warmup;
        let in_unit = !in_warmup && self.pos < self.sp.warmup + self.sp.unit;
        if in_unit && self.unit_open.is_none() {
            self.unit_open = Some(self.stream.snapshot());
        }
        if in_warmup || in_unit {
            self.stream.feed(inst);
            if in_warmup {
                self.warmup_done += 1;
            }
        }
        self.pos += 1;
        self.executed += 1;
        if self.pos == self.sp.warmup + self.sp.unit {
            self.close_unit();
        }
        if self.pos == self.sp.period {
            self.pos = 0;
        }
    }

    fn close_unit(&mut self) {
        if let Some(before) = self.unit_open.take() {
            let delta = UnitDelta::between(&before, &self.stream.snapshot());
            if delta.committed > 0 {
                self.units.push(delta);
            }
        }
    }

    /// Close a dangling unit (a workload that ended mid-window) and hand back
    /// the tallies.
    fn into_tallies(mut self) -> (u64, u64, Vec<UnitDelta>) {
        self.close_unit();
        (self.executed, self.warmup_done, self.units)
    }
}

impl TraceSink for SampledSink<'_, '_> {
    fn emit(&mut self, inst: DynInst) {
        self.step(&inst);
    }

    fn emit_ref(&mut self, inst: &DynInst) {
        self.step(inst);
    }

    fn emit_batch(&mut self, batch: &[DynInst]) {
        for inst in batch {
            self.step(inst);
        }
    }
}

/// Run one application cell in sampled mode through a [`SampledSink`]. App
/// cells do not checkpoint: their wall-clock is interpreter-bound either way
/// (the interpretation is complete; only the detailed simulation is
/// sampled), so a checkpoint would save little and the multi-phase app
/// drivers have no externally resumable cursor.
pub(crate) fn run_sampled_app_cell(
    app: AppKind,
    isa: IsaKind,
    grid: &GridSpec,
    machine: &mut SimMachine,
    sp: SamplingParams,
) -> CellSim {
    let params = AppParams { seed: grid.seed, scale: grid.scale };
    let mut stream = machine.sim_probed();
    let mut sink = SampledSink {
        stream: &mut stream,
        sp,
        pos: 0,
        executed: 0,
        warmup_done: 0,
        unit_open: None,
        units: Vec::new(),
    };
    stream_app(app, isa, &params, &mut sink)
        .unwrap_or_else(|e| panic!("{app} ({isa}) failed to build: {e}"));
    let (executed, warmup_done, units) = sink.into_tallies();
    let (detailed, p) = stream.finish_probed();
    let (sim, sampling) = sampled_estimate(&detailed, &units, executed, warmup_done);
    CellSim { sim, probe: p.into_report(), mem: machine.mem_stats(), sampling: Some(sampling) }
}
