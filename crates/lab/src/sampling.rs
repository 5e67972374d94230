//! SMARTS-style sampled simulation of single grid cells.
//!
//! A sampled cell alternates detailed warm-up and measurement windows with
//! functional fast-forwarding, so its wall-clock scales with the number of
//! samples instead of the workload length. The runner schedules each sampled
//! cell as a singleton group and calls [`run_sampled_kernel_cell`] or
//! [`run_sampled_app_cell`] for it; [`sampled_estimate`] turns the closed
//! measurement units into the cell's reported result and its
//! [`CellSampling`] accounting.

use mom_apps::{stream_app, AppKind, AppParams};
use mom_core::ExecCursor;
use mom_cpu::{AttributionProbe, SimMachine, SimResult, SimStream};
use mom_isa::trace::{DynInst, IsaKind, TraceSink};
use mom_kernels::{build_kernel, BuiltKernel, KernelKind, KernelParams};

use crate::runner::{CellSampling, CellSim, ExecMode};
use crate::spec::GridSpec;

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
    pub(crate) mem_accesses: u64,
}

impl UnitDelta {
    fn between(before: &SimResult, after: &SimResult) -> Self {
        Self {
            committed: after.committed.saturating_sub(before.committed),
            cycles: after.cycles.saturating_sub(before.cycles),
            branches: after.branches.saturating_sub(before.branches),
            mispredictions: after.mispredictions.saturating_sub(before.mispredictions),
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

/// Run one kernel cell in sampled mode: a detailed warm-up + measured unit at
/// the head of every sampling period, functional fast-forward for the
/// remainder.
///
/// Each detailed window opens a fresh [`SimStream`] on the cell's machine and
/// closes it before fast-forwarding; the engine state, probe and warm memory
/// carry over, so consecutive detailed windows time exactly as they would in
/// one continuous stream (`split_streams_report_exactly_like_one_stream` in
/// `mom-cpu` pins that equivalence). Placing the detailed window at the
/// *head* of each period — rather than fast-forwarding first — means a
/// workload shorter than one warm-up window is simulated entirely in detail
/// and reports its exact result.
pub(crate) fn run_sampled_kernel_cell(
    kernel: KernelKind,
    isa: IsaKind,
    grid: &GridSpec,
    machine: &mut SimMachine,
    sp: SamplingParams,
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
        if cursor.is_done(&decoded) {
            // The SimResult counters live in the engine state, so the last
            // close reports the cumulative detailed totals.
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

/// Run one application cell in sampled mode through a [`SampledSink`].
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
