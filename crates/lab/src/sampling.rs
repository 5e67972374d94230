//! SMARTS-style sampled simulation of one group of grid cells.
//!
//! A sampled group alternates detailed warm-up and measurement windows with
//! functional fast-forwarding, so its wall-clock scales with the number of
//! samples instead of the workload length. Like a fan-out group it shares
//! one functional pass across its members: [`run_sampled_group`] walks the
//! workload once and broadcasts every detailed window to all member
//! machines; [`sampled_estimate`] turns each member's closed measurement
//! units into its reported result and its [`CellSampling`] accounting.

use mom_apps::{phases, AppParams, AppPhase, BuiltPhase};
use mom_core::program::DEFAULT_FUEL;
use mom_core::{DecodedProgram, ExecCursor, ExecError, Machine};
use mom_cpu::{AttributionProbe, SimMachine, SimResult, SimStream};
use mom_isa::trace::{Broadcast, IsaKind, TraceSink};
use mom_kernels::{KernelError, KernelParams};

use crate::cache::{CellRecord, SamplingKnobs};
use crate::runner::CellSampling;
use crate::spec::{GridSpec, Workload};

/// The counters of one closed measurement unit: `after - before` over the
/// cumulative [`SimResult`]s taken just before the unit's detailed window
/// and when its stream closes. Both count every instruction fed so far
/// (`committed` is the fed count), so the delta's `committed` is the unit's
/// length, short only where the workload ended inside the unit.
fn unit_delta(before: &SimResult, after: &SimResult) -> SimResult {
    SimResult {
        cycles: after.cycles - before.cycles,
        committed: after.committed - before.committed,
        branches: after.branches - before.branches,
        mispredictions: after.mispredictions - before.mispredictions,
        mem_accesses: after.mem_accesses - before.mem_accesses,
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
/// warm-up window — the detailed aggregate stands in: exact if the whole run
/// was simulated in detail, scaled up otherwise.
pub(crate) fn sampled_estimate(
    detailed: &SimResult,
    units: &[SimResult],
    total_insts: u64,
    warmup_total: u64,
) -> (SimResult, CellSampling) {
    let measured: u64 = units.iter().map(|u| u.committed).sum();
    let (sim, ipc_mean, ipc_ci95) = if measured == 0 {
        let sim = if detailed.committed >= total_insts {
            *detailed
        } else {
            scale_result(detailed, total_insts)
        };
        (sim, detailed.ipc(), 0.0)
    } else {
        let ipcs: Vec<f64> =
            units.iter().map(|u| u.committed as f64 / u.cycles.max(1) as f64).collect();
        let n = ipcs.len() as f64;
        let mean = ipcs.iter().sum::<f64>() / n;
        let ci95 = if ipcs.len() > 1 {
            // Sample variance (n - 1 denominator), normal-theory 95% interval
            // on the mean — the SMARTS confidence machinery.
            let var = ipcs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0);
            1.96 * (var / n).sqrt()
        } else {
            0.0
        };
        let scale = total_insts as f64 / measured as f64;
        let scaled = |sum: u64| (sum as f64 * scale).round() as u64;
        let sum_of = |f: fn(&SimResult) -> u64| units.iter().map(f).sum::<u64>();
        let sim = SimResult {
            cycles: ((total_insts as f64 / mean.max(f64::MIN_POSITIVE)).round() as u64).max(1),
            committed: total_insts,
            branches: scaled(sum_of(|u| u.branches)),
            mispredictions: scaled(sum_of(|u| u.mispredictions)),
            mem_accesses: scaled(sum_of(|u| u.mem_accesses)),
        };
        (sim, mean, ci95)
    };
    let sampling = CellSampling {
        units_measured: units.len() as u64,
        measured_insts: measured,
        warmup_insts: warmup_total,
        total_insts,
        ipc_mean,
        ipc_ci95,
    };
    (sim, sampling)
}

/// One pass over a workload's phases — a kernel is a single phase, an
/// application its [`phases`] list — that streams or fast-forwards across
/// phase boundaries as if the workload were one program. Each phase is built
/// when the pass reaches it, keeps `Program::stream`'s [`DEFAULT_FUEL`]
/// bound and is verified when it halts; a failure panics naming the workload.
struct PhaseCursor {
    workload: Workload,
    isa: IsaKind,
    pending: std::vec::IntoIter<AppPhase>,
    /// The running phase, its decoded program, position and length so far.
    current: Option<(BuiltPhase, DecodedProgram, ExecCursor, u64)>,
}

impl PhaseCursor {
    fn new(workload: Workload, isa: IsaKind, grid: &GridSpec) -> Self {
        let (seed, scale) = (grid.seed, grid.scale);
        let steps = match workload {
            Workload::Kernel(kind) => {
                vec![AppPhase::Kernel { kind, params: KernelParams { seed, scale } }]
            }
            Workload::App(app) => phases(app, &AppParams { seed, scale }),
        };
        Self { workload, isa, pending: steps.into_iter(), current: None }
    }

    fn is_done(&self) -> bool {
        self.current.is_none() && self.pending.as_slice().is_empty()
    }

    /// Stream up to `n` instructions into `sink`; fewer only at the end.
    fn stream<S: TraceSink>(&mut self, sink: &mut S, n: u64) -> u64 {
        self.advance(n, |program, machine, at, max| program.stream_segment(machine, sink, at, max))
    }

    /// Fast-forward up to `n` instructions: architectural effects only.
    fn skip(&mut self, n: u64) -> u64 {
        self.advance(n, |program, machine, at, max| program.fast_forward(machine, at, max))
    }

    fn advance(
        &mut self,
        n: u64,
        mut step: impl FnMut(&DecodedProgram, &mut Machine, &mut ExecCursor, u64) -> u64,
    ) -> u64 {
        let (workload, isa) = (self.workload, self.isa);
        let fail = |e: KernelError| -> ! { panic!("{} ({isa}) failed: {e}", workload.label()) };
        let mut done = 0u64;
        while done < n {
            if self.current.is_none() {
                let Some(next) = self.pending.next() else { break };
                let mut built = next.build(isa);
                let program = built.parts().1.decode();
                self.current = Some((built, program, ExecCursor::start(), 0));
            }
            let (built, program, at, executed) = self.current.as_mut().expect("a phase runs");
            let fuel = DEFAULT_FUEL as u64;
            let ran = step(program, built.parts().0, at, (n - done).min(fuel - *executed));
            *executed += ran;
            done += ran;
            if at.is_done(program) {
                built.verify().unwrap_or_else(|e| fail(e));
                self.current = None;
            } else if *executed == fuel {
                fail(ExecError::FuelExhausted { executed: DEFAULT_FUEL }.into());
            }
        }
        done
    }
}

/// Run one estimated sampled group: one pass over the workload serves every
/// member machine of its single ISA lane. At the head of every sampling
/// period the pass streams a detailed warm-up and a measured unit through a
/// [`Broadcast`] over the members' probed streams, then fast-forwards the
/// rest. Each member snapshots before the unit and closes its stream after;
/// engine state, probe and warm memory carry over to the next window, which
/// times exactly like one continuous stream
/// (`split_streams_report_exactly_like_one_stream` in `mom-cpu`). A workload
/// shorter than one warm-up window is thus simulated entirely in detail.
///
/// Returns one result per member, in `machines` order, and the instructions
/// the pass interpreted.
pub(crate) fn run_sampled_group(
    workload: Workload,
    isa: IsaKind,
    grid: &GridSpec,
    machines: &mut [SimMachine],
    sp: SamplingKnobs,
) -> (Vec<CellRecord>, u64) {
    let mut cursor = PhaseCursor::new(workload, isa, grid);
    // Per member: its probe between windows, its closed units, and its
    // cumulative detailed counters as of the last close.
    let mut probes = vec![AttributionProbe::new(); machines.len()];
    let mut units: Vec<Vec<SimResult>> = vec![Vec::new(); machines.len()];
    let mut detailed = vec![SimResult::default(); machines.len()];
    let (mut executed, mut warmup_done) = (0u64, 0u64);
    while !cursor.is_done() {
        let streams: Vec<SimStream<'_, AttributionProbe>> = machines
            .iter_mut()
            .zip(&mut probes)
            .map(|(machine, probe)| machine.sim_probed_with(std::mem::take(probe)))
            .collect();
        let mut fan = Broadcast::new(streams);
        let w = cursor.stream(&mut fan, sp.warmup);
        let streams = fan.into_inner();
        let before: Vec<SimResult> = streams.iter().map(SimStream::snapshot).collect();
        let mut fan = Broadcast::new(streams);
        let u = cursor.stream(&mut fan, sp.unit);
        for (i, stream) in fan.into_inner().into_iter().enumerate() {
            (detailed[i], probes[i]) = stream.finish_probed();
            let delta = unit_delta(&before[i], &detailed[i]);
            if delta.committed > 0 {
                units[i].push(delta);
            }
        }
        warmup_done += w;
        executed += w + u + cursor.skip(sp.period - sp.warmup - sp.unit);
    }
    let sims = machines
        .iter()
        .zip(probes)
        .zip(units.iter().zip(&detailed))
        .map(|((machine, probe), (units, detailed))| {
            let (sim, sampling) = sampled_estimate(detailed, units, executed, warmup_done);
            let (probe, mem) = (probe.into_report(), machine.mem_stats());
            CellRecord { sim, probe, mem, sampling: Some(sampling) }
        })
        .collect();
    (sims, executed)
}
