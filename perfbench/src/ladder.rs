//! The layer ladder: one workload driven through progressively more of the
//! simulator stack, each rung a call into a crate's public API.
//!
//! | rung  | what runs                                                        |
//! |-------|------------------------------------------------------------------|
//! | `L0`  | `DecodedProgram::fast_forward` (architectural state only)        |
//! | `L1`  | `stream_with_fuel` (via `stream_verified`) into a null sink     |
//! | `L2b` | L1 fanned out to the group's member count through `Broadcast`    |
//! | `L2p` | L1 through `BatchSink` → `batch_channel` → a drain thread/lane  |
//! | `L3`  | L2b into `SimStream<NoProbe>` on `PerfectMemory`                 |
//! | `L4`  | L3 with `SimMachine::sim_probed` (`AttributionProbe`)            |
//! | `L5`  | L4 on each cell's own memory model                               |
//! | `L6`  | `runner::run_cached` (1 worker, fresh cache) + `document_json`   |
//!
//! A memory split beside the rungs feeds each lane's first machine on
//! `PerfectMemory` and on every hierarchy from one interpretation, timing
//! each stream, for the `mem.*` metrics.
//!
//! Rungs run per fan-out group (a kernel × ISA, or an application across
//! its ISA lanes), exactly the unit the runner interprets once. For
//! applications the ladder starts at `stream_app_multi` (their scalar phases
//! expose no program), and `L0` fast-forwards the kernel phases alone.

use std::path::Path;
use std::str::FromStr;
use std::time::Instant;

use mom_apps::{stream_app, stream_app_multi, AppKind, AppParams};
use mom_core::{ExecCursor, Machine};
use mom_cpu::{MachineDescriptor, ProbeReport, SimMachine, SimResult};
use mom_isa::pipe::{batch_channel, BatchReceiver, BatchSink};
use mom_isa::trace::{Broadcast, DynInst, IsaKind, TraceSink};
use mom_kernels::{build_kernel, BuiltKernel, KernelKind, KernelParams};
use mom_lab::cache::CellCache;
use mom_lab::runner::{run_cached, CellResult, ExecMode, RunData, RunResult};
use mom_lab::spec::{ExperimentSpec, GridSpec, Workload};
use mom_mem::MemModelKind;

use crate::spans::Tracer;

/// Rung labels, in ladder order.
pub const RUNGS: [&str; 8] = ["L0", "L1", "L2b", "L2p", "L3", "L4", "L5", "L6"];
const L0: usize = 0;
const L1: usize = 1;
const L2B: usize = 2;
const L2P: usize = 3;
const L3: usize = 4;
const L4: usize = 5;
const L5: usize = 6;
const L6: usize = 7;

/// The hierarchies the memory split times against `PerfectMemory`, in the
/// order of the `mem.*_ns` metrics.
const SPLIT_MEMS: [MemModelKind; 4] = [
    MemModelKind::Conventional,
    MemModelKind::MultiAddress,
    MemModelKind::VectorCache,
    MemModelKind::CollapsingBuffer,
];
const PERFECT_1: MemModelKind = MemModelKind::Perfect { latency: 1 };

/// One grid cell inside a fan-out group.
pub struct Member {
    pub cell: usize,
    pub desc: MachineDescriptor,
}

/// One ISA lane of a group and the cells it feeds.
pub struct Lane {
    pub isa: IsaKind,
    pub members: Vec<Member>,
}

/// A functional pass the runner shares: a kernel × ISA (one lane), or an
/// application across all its ISAs.
pub struct Group {
    pub workload: Workload,
    pub lanes: Vec<Lane>,
}

/// The grid regrouped the way the fan-out runner groups it, in
/// first-appearance order.
pub fn groups(grid: &GridSpec) -> Vec<Group> {
    let mut groups: Vec<Group> = Vec::new();
    for (cell, c) in grid.cells().iter().enumerate() {
        let config = &grid.configs[c.config];
        let cross_isa = matches!(c.workload, Workload::App(_));
        let pos = groups
            .iter()
            .position(|g| g.workload == c.workload && (cross_isa || g.lanes[0].isa == config.isa));
        let group = match pos {
            Some(i) => &mut groups[i],
            None => {
                groups.push(Group {
                    workload: c.workload,
                    lanes: Vec::new(),
                });
                groups.last_mut().expect("just pushed")
            }
        };
        let member = Member {
            cell,
            desc: config.descriptor(c.way),
        };
        match group.lanes.iter_mut().find(|l| l.isa == config.isa) {
            Some(lane) => lane.members.push(member),
            None => group.lanes.push(Lane {
                isa: config.isa,
                members: vec![member],
            }),
        }
    }
    groups
}

/// A sink that only counts what it is handed.
#[derive(Debug, Default)]
pub struct Count(pub u64);

impl TraceSink for Count {
    fn emit(&mut self, inst: DynInst) {
        std::hint::black_box(&inst);
        self.0 += 1;
    }

    fn emit_ref(&mut self, inst: &DynInst) {
        std::hint::black_box(inst);
        self.0 += 1;
    }

    fn emit_batch(&mut self, insts: &[DynInst]) {
        std::hint::black_box(insts);
        self.0 += insts.len() as u64;
    }
}

/// A sink wrapper that accumulates the time spent inside its child.
struct Timed<S> {
    inner: S,
    ns: u64,
}

impl<S: TraceSink> TraceSink for Timed<S> {
    fn emit(&mut self, inst: DynInst) {
        let t = Instant::now();
        self.inner.emit(inst);
        self.ns += t.elapsed().as_nanos() as u64;
    }

    fn emit_ref(&mut self, inst: &DynInst) {
        let t = Instant::now();
        self.inner.emit_ref(inst);
        self.ns += t.elapsed().as_nanos() as u64;
    }

    fn emit_batch(&mut self, insts: &[DynInst]) {
        let t = Instant::now();
        self.inner.emit_batch(insts);
        self.ns += t.elapsed().as_nanos() as u64;
    }
}

/// The kernel phases `stream_app` builds for one application, as
/// `(kind, params)` in phase order. Phase boundaries come from the public
/// `PhaseReport`s (consecutive reports of one kernel are repeats of one
/// phase); the seeds mirror `stream_app`'s per-phase derivation.
pub fn app_kernel_phases(app: AppKind, params: &AppParams) -> Vec<(KernelKind, KernelParams)> {
    let reports = stream_app(app, IsaKind::Alpha, params, &mut Count::default())
        .unwrap_or_else(|e| panic!("{app} failed to build: {e}"));
    let mut out = Vec::new();
    let (mut phase, mut rep) = (0u64, 0u64);
    for (n, r) in reports.iter().enumerate() {
        if n > 0 {
            let prev = &reports[n - 1];
            if r.vectorized && prev.vectorized && prev.name == r.name {
                rep += 1;
            } else {
                phase += 1;
                rep = 0;
            }
        }
        if r.vectorized {
            let kind =
                KernelKind::from_str(&r.name).expect("kernel phases are named by kernel label");
            let seed = params.seed ^ (phase << 8) ^ rep;
            out.push((
                kind,
                KernelParams {
                    seed,
                    scale: params.scale.max(1),
                },
            ));
        }
    }
    out
}

/// The spec of `experiment` at `scale` with the workload seed overridden,
/// exactly as `momlab run <experiment> --scale N --seed S` resolves it.
pub fn spec_for(experiment: &str, scale: usize, seed: u64) -> ExperimentSpec {
    let mut spec = ExperimentSpec::builtin(experiment, scale, false)
        .unwrap_or_else(|| panic!("unknown experiment {experiment}"));
    match &mut spec.kind {
        mom_lab::spec::ExperimentKind::Grid(grid) => grid.seed = seed,
        _ => panic!("{experiment} is not a grid experiment"),
    }
    spec
}

pub fn grid(spec: &ExperimentSpec) -> &GridSpec {
    spec.grid().expect("grid experiment")
}

/// Host time to build every workload input and machine of one run: each
/// group's kernels (for applications, the kernels their phases build, per
/// ISA lane) and one machine per cell. Returns seconds.
pub fn setup_once(
    spec: &ExperimentSpec,
    app_phases: &[(AppKind, Vec<(KernelKind, KernelParams)>)],
) -> f64 {
    let grid = grid(spec);
    let started = Instant::now();
    for group in groups(grid) {
        for lane in &group.lanes {
            match group.workload {
                Workload::Kernel(kind) => {
                    let params = KernelParams {
                        seed: grid.seed,
                        scale: grid.scale,
                    };
                    std::hint::black_box(build_kernel(kind, lane.isa, &params));
                }
                Workload::App(app) => {
                    let phases = &app_phases
                        .iter()
                        .find(|(a, _)| *a == app)
                        .expect("phases listed")
                        .1;
                    for (kind, params) in phases {
                        std::hint::black_box(build_kernel(*kind, lane.isa, params));
                    }
                }
            }
            for member in &lane.members {
                std::hint::black_box(member.desc.build());
            }
        }
    }
    started.elapsed().as_secs_f64()
}

/// The kernel phases of every application in the grid.
pub fn all_app_phases(grid: &GridSpec) -> Vec<(AppKind, Vec<(KernelKind, KernelParams)>)> {
    grid.workloads
        .iter()
        .filter_map(|w| match w {
            Workload::App(app) => {
                let params = AppParams {
                    seed: grid.seed,
                    scale: grid.scale,
                };
                Some((*app, app_kernel_phases(*app, &params)))
            }
            Workload::Kernel(_) => None,
        })
        .collect()
}

/// What one functional pass of a group interprets.
enum Source {
    Kernel {
        kind: KernelKind,
        isa: IsaKind,
        params: KernelParams,
    },
    App {
        app: AppKind,
        params: AppParams,
    },
}

/// One functional pass, ready to run.
enum Pass {
    /// A freshly built kernel, consumed by `stream_verified`.
    Kernel(Box<BuiltKernel>),
    App(AppKind, AppParams),
}

impl Source {
    /// Make one pass outside any rung. Rebuilding a kernel is far cheaper
    /// than cloning a machine, which copies its whole memory image.
    fn prepare(&self) -> Pass {
        match self {
            Source::Kernel { kind, isa, params } => {
                Pass::Kernel(Box::new(build_kernel(*kind, *isa, params)))
            }
            Source::App { app, params } => Pass::App(*app, *params),
        }
    }
}

impl Pass {
    /// Interpret once through the calls the runner makes, feeding every
    /// lane its stream; kernels are verified against their golden output.
    /// Returns the number of instructions the interpreter executed.
    fn drive<S: TraceSink>(self, lanes: &mut [(IsaKind, S)]) -> Result<u64, String> {
        match self {
            Pass::Kernel(built) => built
                .stream_verified(&mut lanes[0].1)
                .map(|n| n as u64)
                .map_err(|e| e.to_string()),
            Pass::App(app, params) => stream_app_multi(app, &params, lanes)
                .map(|(_, n)| n)
                .map_err(|e| e.to_string()),
        }
    }
}

fn output_ok(built: &BuiltKernel, machine: &Machine) -> bool {
    machine
        .mem()
        .read_bytes(built.output_addr, built.expected.len())
        == built.expected.as_slice()
}

/// Per-repetition accumulators (summed over the groups of the workload).
#[derive(Debug, Default, Clone)]
pub struct Rep {
    pub rung_ns: [u64; 8],
    pub l0_insts: u64,
    pub func_insts: u64,
    pub cell_insts: u64,
    pub build_ns: u64,
    pub decode_ns: u64,
    pub machine_ns: u64,
    pub machines: u64,
    pub mem_ns: [i64; 4],
    pub mem_insts: [u64; 4],
    pub json_ns: u64,
    pub fill_ns: u64,
    pub fill_cells: u64,
}

/// The simulated results one member produced on rungs L3–L5.
#[derive(Default, Clone)]
struct MemberOut {
    l3: Option<SimResult>,
    l4: Option<(SimResult, ProbeReport)>,
    l5: Option<(SimResult, ProbeReport)>,
    perfect: bool,
}

/// Outcome of the ladder ≡ runner and functional checks.
#[derive(Debug, Default)]
pub struct Check {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Check {
    /// Record whether one interpreted pass succeeded; returns its count.
    fn pass(&mut self, label: &str, rung: &str, result: Result<u64, String>) -> u64 {
        match result {
            Ok(n) => {
                self.expect(true, String::new);
                n
            }
            Err(e) => {
                self.expect(false, || format!("{label} {rung}: {e}"));
                0
            }
        }
    }

    fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(what());
            }
        }
    }
}

/// The ladder configuration of one traced run.
pub struct Ladder<'a> {
    pub spec: ExperimentSpec,
    pub mode: ExecMode,
    pub work: &'a Path,
    /// The kernel phases of every application in the grid.
    pub app_phases: Vec<(AppKind, Vec<(KernelKind, KernelParams)>)>,
}

fn perfect_of(desc: &MachineDescriptor) -> MachineDescriptor {
    match desc.mem {
        MemModelKind::Perfect { .. } => desc.clone(),
        _ => MachineDescriptor {
            mem: PERFECT_1,
            ..desc.clone()
        },
    }
}

fn build_machines(
    t: &mut Tracer,
    rep: &mut Rep,
    descs: impl Iterator<Item = MachineDescriptor>,
) -> Vec<SimMachine> {
    descs
        .map(|d| {
            let (m, ns) = t.span("MachineDescriptor::build", "setup", |_| d.build());
            rep.machine_ns += ns;
            rep.machines += 1;
            m
        })
        .collect()
}

fn reset_all(machines: &mut [Vec<SimMachine>]) {
    machines.iter_mut().flatten().for_each(SimMachine::reset);
}

/// Drain one lane's receivers round-robin, in the order the producer
/// publishes; returns the instructions received per member.
fn drain(receivers: Vec<BatchReceiver>) -> Vec<u64> {
    let mut counts = vec![0u64; receivers.len()];
    let mut live: Vec<Option<BatchReceiver>> = receivers.into_iter().map(Some).collect();
    loop {
        let mut any = false;
        for (slot, count) in live.iter_mut().zip(counts.iter_mut()) {
            if let Some(rx) = slot {
                match rx.recv() {
                    Some(batch) => {
                        *count += std::hint::black_box(batch).len() as u64;
                        any = true;
                    }
                    None => *slot = None,
                }
            }
        }
        if !any {
            return counts;
        }
    }
}

/// Build and decode one kernel (timed as set-up), then fast-forward a fresh
/// build of it: rung L0.
fn l0(
    t: &mut Tracer,
    rep: &mut Rep,
    check: &mut Check,
    kind: KernelKind,
    isa: IsaKind,
    params: KernelParams,
) {
    let (built, ns) = t.span("build_kernel", "setup", |_| {
        build_kernel(kind, isa, &params)
    });
    rep.build_ns += ns;
    let (decoded, ns) = t.span("Program::decode", "setup", |_| built.program.decode());
    rep.decode_ns += ns;
    let mut m = build_kernel(kind, isa, &params).machine;
    let (n, ns) = t.span("fast_forward", "L0", |_| {
        decoded.fast_forward(&mut m, &mut ExecCursor::start(), u64::MAX)
    });
    rep.rung_ns[L0] += ns;
    rep.l0_insts += n;
    check.expect(output_ok(&built, &m), || {
        format!("{kind} ({isa}) L0 output mismatch")
    });
}

impl Ladder<'_> {
    /// Run one repetition of every rung, checking every functional pass;
    /// with `against_runner` also check the simulated rungs against the
    /// runner.
    pub fn rep(&self, t: &mut Tracer, check: &mut Check, against_runner: bool) -> Rep {
        let grid = grid(&self.spec);
        let mut rep = Rep::default();
        let checked = if against_runner {
            grid.cells().len()
        } else {
            0
        };
        let mut outs = vec![MemberOut::default(); checked];
        for group in groups(grid) {
            self.group(t, &group, &mut rep, &mut outs, check);
        }
        let l6 = self.l6(t, &mut rep);
        if against_runner {
            let reference = match self.mode {
                ExecMode::Sampled { .. } => {
                    t.span("run_cached(streamed reference)", "check", |_| {
                        run_cached(&self.spec, 1, ExecMode::Streamed, false, None, None)
                    })
                    .0
                }
                _ => l6,
            };
            compare(&reference, &outs, check);
        }
        rep
    }

    fn group(
        &self,
        t: &mut Tracer,
        group: &Group,
        rep: &mut Rep,
        outs: &mut [MemberOut],
        check: &mut Check,
    ) {
        let grid = grid(&self.spec);
        let _ = t.span("group", "group", |t| match group.workload {
            Workload::Kernel(kind) => {
                let params = KernelParams {
                    seed: grid.seed,
                    scale: grid.scale,
                };
                let isa = group.lanes[0].isa;
                l0(t, rep, check, kind, isa, params);
                let src = Source::Kernel { kind, isa, params };
                self.rungs(t, group, &src, rep, outs, check);
            }
            Workload::App(app) => {
                let params = AppParams {
                    seed: grid.seed,
                    scale: grid.scale,
                };
                for lane in &group.lanes {
                    let phases = self.app_phases.iter().find(|(a, _)| *a == app);
                    for &(kind, kp) in &phases.expect("phases of every grid app").1 {
                        l0(t, rep, check, kind, lane.isa, kp);
                    }
                }
                let src = Source::App { app, params };
                self.rungs(t, group, &src, rep, outs, check);
            }
        });
    }

    /// Rungs L1–L5 and the memory split of one group.
    fn rungs(
        &self,
        t: &mut Tracer,
        group: &Group,
        src: &Source,
        rep: &mut Rep,
        outs: &mut [MemberOut],
        check: &mut Check,
    ) {
        let label = group.workload.label();
        let isas = || group.lanes.iter().map(|l| l.isa);

        // L1: the interpreter into one counting sink per lane.
        let p = src.prepare();
        let mut lanes: Vec<(IsaKind, Count)> = isas().map(|isa| (isa, Count::default())).collect();
        let (n, ns) = t.span("stream_with_fuel", "L1", |_| p.drive(&mut lanes));
        rep.rung_ns[L1] += ns;
        rep.func_insts += check.pass(label, "L1", n);
        let per_lane: Vec<u64> = lanes.iter().map(|(_, c)| c.0).collect();

        // L2b: the same pass through a Broadcast to every member.
        let p = src.prepare();
        let mut lanes: Vec<(IsaKind, Broadcast<Count>)> = group
            .lanes
            .iter()
            .map(|l| {
                (
                    l.isa,
                    Broadcast::new(l.members.iter().map(|_| Count::default()).collect()),
                )
            })
            .collect();
        let (n, ns) = t.span("Broadcast", "L2b", |_| p.drive(&mut lanes));
        rep.rung_ns[L2B] += ns;
        check.pass(label, "L2b", n);
        let l2b: Vec<Vec<u64>> = lanes
            .into_iter()
            .map(|(_, fan)| fan.into_inner().iter().map(|c| c.0).collect())
            .collect();

        // L2p: the same pass through BatchSink → batch_channel → one
        // draining thread per lane.
        let p = src.prepare();
        let ((n, l2p), ns) = t.span("BatchSink", "L2p", |_| {
            std::thread::scope(|scope| {
                let mut lanes = Vec::new();
                let mut drains = Vec::new();
                for lane in &group.lanes {
                    let (txs, rxs): (Vec<_>, Vec<_>) = lane
                        .members
                        .iter()
                        .map(|_| batch_channel(mom_lab::pipeline_channel_batches()))
                        .unzip();
                    lanes.push((
                        lane.isa,
                        BatchSink::new(txs, mom_lab::pipeline_batch_insts()),
                    ));
                    drains.push(scope.spawn(move || drain(rxs)));
                }
                let n = p.drive(&mut lanes);
                for (_, sink) in lanes {
                    sink.finish();
                }
                (
                    n,
                    drains
                        .into_iter()
                        .map(|h| h.join().expect("drain thread"))
                        .collect::<Vec<_>>(),
                )
            })
        });
        rep.rung_ns[L2P] += ns;
        check.pass(label, "L2p", n);
        for ((b, p), want) in l2b.iter().zip(&l2p).zip(&per_lane) {
            let ok = b.iter().chain(p).all(|c| c == want);
            check.expect(ok, || {
                format!("{label}: a transported member saw a different stream")
            });
        }

        // Machines: perfect-memory twins for L3/L4, the cells' own for L5.
        let mut perfect: Vec<Vec<SimMachine>> = group
            .lanes
            .iter()
            .map(|l| build_machines(t, rep, l.members.iter().map(|mb| perfect_of(&mb.desc))))
            .collect();
        let mut real: Vec<Vec<SimMachine>> = group
            .lanes
            .iter()
            .map(|l| build_machines(t, rep, l.members.iter().map(|mb| mb.desc.clone())))
            .collect();
        rep.cell_insts += group
            .lanes
            .iter()
            .zip(&per_lane)
            .map(|(l, n)| l.members.len() as u64 * n)
            .sum::<u64>();

        // L3: SimStream<NoProbe>.
        let p = src.prepare();
        let ((n, l3), ns) = t.span("SimStream", "L3", |_| {
            let mut lanes: Vec<_> = perfect
                .iter_mut()
                .zip(isas())
                .map(|(ms, isa)| {
                    (
                        isa,
                        Broadcast::new(ms.iter_mut().map(SimMachine::sim).collect()),
                    )
                })
                .collect();
            let n = p.drive(&mut lanes);
            let sims: PerLane<SimResult> = lanes
                .into_iter()
                .map(|(_, fan)| fan.into_inner().into_iter().map(|s| s.finish()).collect())
                .collect();
            (n, sims)
        });
        rep.rung_ns[L3] += ns;
        check.pass(label, "L3", n);

        // L4 and L5: probed streams, on perfect twins and on the real machines.
        reset_all(&mut perfect);
        let p = src.prepare();
        let ((n, l4), ns) = t.span("sim_probed", "L4", |_| probed_pass(p, &mut perfect, isas()));
        rep.rung_ns[L4] += ns;
        check.pass(label, "L4", n);
        let p = src.prepare();
        let ((n, l5), ns) = t.span("sim_probed", "L5", |_| probed_pass(p, &mut real, isas()));
        rep.rung_ns[L5] += ns;
        check.pass(label, "L5", n);

        if !outs.is_empty() {
            for (li, lane) in group.lanes.iter().enumerate() {
                for (mi, member) in lane.members.iter().enumerate() {
                    outs[member.cell] = MemberOut {
                        l3: Some(l3[li][mi]),
                        l4: Some(l4[li][mi].clone()),
                        l5: Some(l5[li][mi].clone()),
                        perfect: matches!(member.desc.mem, MemModelKind::Perfect { .. }),
                    };
                }
            }
        }

        // The memory split: the lane's first machine on PerfectMemory and on
        // each hierarchy, side by side behind one Broadcast, each timed.
        let mut split: Vec<Vec<SimMachine>> = group
            .lanes
            .iter()
            .map(|l| {
                let base = &l.members[0].desc;
                let mems = std::iter::once(PERFECT_1).chain(SPLIT_MEMS);
                build_machines(
                    t,
                    rep,
                    mems.map(|mem| MachineDescriptor {
                        mem,
                        ..base.clone()
                    }),
                )
            })
            .collect();
        let p = src.prepare();
        let (n, _) = t.span("memory split", "mem", |_| {
            let mut lanes: Vec<_> = split
                .iter_mut()
                .zip(isas())
                .map(|(ms, isa)| {
                    let sims = ms
                        .iter_mut()
                        .map(|mc| Timed {
                            inner: mc.sim_probed(),
                            ns: 0,
                        })
                        .collect();
                    (isa, Broadcast::new(sims))
                })
                .collect();
            let n = p.drive(&mut lanes);
            for (_, fan) in lanes {
                let timed: Vec<(u64, u64)> = fan
                    .into_inner()
                    .into_iter()
                    .map(|s| {
                        let started = Instant::now();
                        let (sim, probe) = s.inner.finish_probed();
                        std::hint::black_box(probe.into_report());
                        (s.ns + started.elapsed().as_nanos() as u64, sim.committed)
                    })
                    .collect();
                let (base_ns, insts) = timed[0];
                for (k, &(ns, _)) in timed[1..].iter().enumerate() {
                    rep.mem_ns[k] += ns as i64 - base_ns as i64;
                    rep.mem_insts[k] += insts;
                }
            }
            n
        });
        check.pass(label, "memory split", n);
    }

    /// L6: the whole grid through the runner (one worker, fresh cache) plus
    /// the JSON document; then the per-cell cost of a cache miss + fill.
    fn l6(&self, t: &mut Tracer, rep: &mut Rep) -> RunResult {
        let dir = self.work.join("ladder-cache");
        let fill_dir = self.work.join("ladder-cache-fill");
        for d in [&dir, &fill_dir] {
            let _ = std::fs::remove_dir_all(d);
        }
        let cache = CellCache::open(&dir).expect("ladder cache directory");
        let ((result, _), ns) = t.span("L6", "L6", |t| {
            let (result, _) = t.span("run_cached", "L6", |_| {
                run_cached(&self.spec, 1, self.mode, false, None, Some(&cache))
            });
            let (text, json_ns) = t.span("document_json", "L6", |_| {
                result.document_json().to_pretty()
            });
            rep.json_ns += json_ns;
            (result, std::hint::black_box(text))
        });
        rep.rung_ns[L6] += ns;

        let fill = CellCache::open(&fill_dir).expect("fill cache directory");
        let entries = cache.entries().expect("list ladder cache");
        let ((), _) = t.span("cache fill", "L6", |_| {
            for entry in entries {
                let key = entry.key.expect("records the runner just wrote decode");
                let record = cache.load(&key).expect("stored record loads");
                let started = Instant::now();
                let miss = fill.load(&key);
                fill.store(&key, &record);
                rep.fill_ns += started.elapsed().as_nanos() as u64;
                rep.fill_cells += 1;
                assert!(miss.is_none(), "a fresh cache directory cannot hit");
            }
        });
        for d in [&dir, &fill_dir] {
            let _ = std::fs::remove_dir_all(d);
        }
        result
    }
}

/// Results per ISA lane, per member.
type PerLane<T> = Vec<Vec<T>>;

fn probed_pass(
    pass: Pass,
    machines: &mut [Vec<SimMachine>],
    isas: impl Iterator<Item = IsaKind>,
) -> (Result<u64, String>, PerLane<(SimResult, ProbeReport)>) {
    let mut lanes: Vec<_> = machines
        .iter_mut()
        .zip(isas)
        .map(|(ms, isa)| {
            (
                isa,
                Broadcast::new(ms.iter_mut().map(SimMachine::sim_probed).collect()),
            )
        })
        .collect();
    let n = pass.drive(&mut lanes);
    let sims = lanes
        .into_iter()
        .map(|(_, fan)| {
            fan.into_inner()
                .into_iter()
                .map(|s| {
                    let (sim, probe) = s.finish_probed();
                    (sim, probe.into_report())
                })
                .collect()
        })
        .collect();
    (n, sims)
}

fn same_sim(sim: &SimResult, cell: &CellResult) -> bool {
    sim.cycles == cell.cycles
        && sim.committed == cell.instructions
        && sim.branches == cell.branches
        && sim.mispredictions == cell.mispredictions
        && sim.mem_accesses == cell.mem_accesses
}

fn same_probe(probe: &ProbeReport, cell: &CellResult) -> bool {
    probe.breakdown == cell.breakdown && probe.intervals == cell.intervals
}

/// Ladder ≡ runner: every member's L3–L5 results against the runner's cell.
/// L3/L4 ran on perfect-memory twins, so they are compared only where the
/// cell's own memory is perfect; L4 must always reproduce L3's timing.
fn compare(reference: &RunResult, outs: &[MemberOut], check: &mut Check) {
    let cells: &[CellResult] = match &reference.data {
        RunData::Grid(cells) => cells,
        RunData::Static(_) => panic!("grid experiment expected"),
    };
    for (cell, out) in cells.iter().zip(outs) {
        let name = || {
            format!(
                "{} / {} / {}-way",
                cell.workload.label(),
                cell.config_label,
                cell.way
            )
        };
        let (Some(l3), Some((l4, p4)), Some((l5, p5))) = (&out.l3, &out.l4, &out.l5) else {
            check.expect(false, || format!("{}: no ladder result", name()));
            continue;
        };
        check.expect(l3 == l4, || {
            format!("{}: probe changed the timing (L4 vs L3)", name())
        });
        if out.perfect {
            check.expect(same_sim(l3, cell), || {
                format!("{}: L3 SimResult differs from the runner", name())
            });
            check.expect(same_sim(l4, cell) && same_probe(p4, cell), || {
                format!("{}: L4 result differs from the runner", name())
            });
        }
        check.expect(same_sim(l5, cell) && same_probe(p5, cell), || {
            format!("{}: L5 result differs from the runner", name())
        });
    }
}

/// One in-process run at end-to-end scale and worker count, shaped like
/// `momlab run` (runner + JSON document written to disk), inside a span.
pub struct TracedRun {
    pub wall_ns: u64,
    pub occupancy: f64,
    pub pool_reuse: f64,
    pub worker_idle: f64,
}

pub fn traced_run(
    t: &mut Tracer,
    spec: &ExperimentSpec,
    mode: ExecMode,
    workers: usize,
    cache_dir: Option<&Path>,
    out: &Path,
    index: usize,
) -> TracedRun {
    if let Some(dir) = cache_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    let cache = cache_dir.map(|d| CellCache::open(d).expect("cache directory"));
    let offset = t.now_ns();
    let (result, wall_ns) = t.span("momlab run (in process)", "e2e", |t| {
        let (result, _) = t.span("run_cached", "e2e", |_| {
            run_cached(spec, workers, mode, false, None, cache.as_ref())
        });
        let ((), _) = t.span("document_json", "e2e", |_| {
            std::fs::write(out, result.document_json().to_pretty()).expect("write traced document")
        });
        result
    });
    if let Some(dir) = cache_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    t.add_runner_spans(
        format!("runner {} #{index}", spec.name),
        offset,
        &result.spans,
    );
    let pool = result.pool;
    // Worker time inside a runner span counts as busy; sampled runs record
    // no spans, so their busy time is the per-cell simulation time.
    let busy: u64 = if result.spans.is_empty() {
        result.sim_wall_ns
    } else {
        result.spans.iter().map(|s| s.dur_ns).sum()
    };
    TracedRun {
        wall_ns,
        // Without pipelined groups no simulator ever waits on a channel.
        occupancy: result
            .pipeline
            .as_ref()
            .and_then(|p| p.occupancy)
            .unwrap_or(1.0),
        pool_reuse: pool.hits as f64 / (pool.hits + pool.builds).max(1) as f64,
        worker_idle: 1.0 - busy as f64 / (workers as f64 * wall_ns as f64),
    }
}

/// Median of a sample (the mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The per-layer metrics of one repetition, by name and unit.
pub fn layer_metrics(r: &Rep) -> Vec<(&'static str, &'static str, f64)> {
    let ns = |i: usize| r.rung_ns[i] as f64;
    let f = r.func_insts.max(1) as f64;
    let c = r.cell_insts.max(1) as f64;
    let mut out = vec![
        ("core.ff_ns", "ns/inst", ns(L0) / r.l0_insts.max(1) as f64),
        ("core.stream_ns", "ns/inst", ns(L1) / f),
        ("kernels.build_ms", "ms", r.build_ns as f64 / 1e6),
        ("core.decode_us", "us", r.decode_ns as f64 / 1e3),
        ("isa.broadcast_ns", "ns/inst", (ns(L2B) - ns(L1)) / f),
        ("isa.pipe_ns", "ns/inst", (ns(L2P) - ns(L1)) / f),
        ("cpu.sim_ns", "ns/inst", (ns(L3) - ns(L2B)) / c),
        ("cpu.probe_ns", "ns/inst", (ns(L4) - ns(L3)) / c),
        ("cpu.probe_ratio", "ratio", ns(L4) / ns(L3)),
        (
            "cpu.machine_build_us",
            "us",
            r.machine_ns as f64 / r.machines.max(1) as f64 / 1e3,
        ),
        ("lab.runner_ns", "ns/inst", (ns(L6) - ns(L5)) / c),
        ("lab.runner_ratio", "ratio", ns(L6) / ns(L5)),
        ("lab.json_ms", "ms", r.json_ns as f64 / 1e6),
        (
            "lab.cache_fill_us",
            "us",
            r.fill_ns as f64 / r.fill_cells.max(1) as f64 / 1e3,
        ),
    ];
    let mem_names = [
        "mem.conventional_ns",
        "mem.multi_address_ns",
        "mem.vector_ns",
        "mem.collapsing_ns",
    ];
    for (k, name) in mem_names.into_iter().enumerate() {
        out.push((
            name,
            "ns/inst",
            r.mem_ns[k] as f64 / r.mem_insts[k].max(1) as f64,
        ));
    }
    out
}

/// Every rung's cost per functional instruction (L0 per fast-forwarded
/// instruction), by rung label.
pub fn rung_costs(r: &Rep) -> Vec<(&'static str, f64)> {
    RUNGS
        .iter()
        .enumerate()
        .map(|(i, &name)| {
            let per = if i == L0 { r.l0_insts } else { r.func_insts };
            (name, r.rung_ns[i] as f64 / per.max(1) as f64)
        })
        .collect()
}
