//! Declarative experiment specifications.
//!
//! An [`ExperimentSpec`] describes everything an experiment needs — which
//! workloads, ISAs, issue widths, memory models, workload scale and seed —
//! without running anything. Every table and figure of the paper is available
//! as a named built-in spec ([`ExperimentSpec::builtin`]); the `momlab` CLI
//! is a thin layer over these.

use mom_apps::AppKind;
use mom_cpu::MachineDescriptor;
use mom_isa::trace::IsaKind;
use mom_kernels::KernelKind;
use mom_mem::MemModelKind;

/// The names of the built-in experiments: one per table/figure of the paper,
/// in presentation order, plus the `stress` scale study enabled by the
/// streaming pipeline and the `sweep` design-space study enabled by the
/// shared-functional-pass runner.
pub const BUILTIN_EXPERIMENTS: [&str; 9] = [
    "table1",
    "table2",
    "table3",
    "isa_inventory",
    "figure5",
    "latency_tolerance",
    "figure7",
    "stress",
    "sweep",
];

/// Workload-scale multiplier of the [`stress_spec`] experiment relative to
/// the requested `--scale`.
pub const STRESS_SCALE_FACTOR: usize = 8;

/// One workload of a simulation grid: a kernel or a whole application.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Workload {
    /// One of the eight paper kernels.
    Kernel(KernelKind),
    /// One of the five Mediabench-like applications.
    App(AppKind),
}

impl Workload {
    /// The workload's display label (the kernel/app label).
    pub fn label(self) -> &'static str {
        match self {
            Workload::Kernel(k) => k.label(),
            Workload::App(a) => a.label(),
        }
    }

    /// `"kernel"` or `"app"` — the `workload_kind` field of the JSON schema.
    pub fn kind_label(self) -> &'static str {
        match self {
            Workload::Kernel(_) => "kernel",
            Workload::App(_) => "app",
        }
    }
}

impl std::fmt::Display for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One machine configuration of a grid: an ISA paired with a memory model,
/// under a unique display label (Figure 7's legend entries, for example),
/// plus optional overrides of the Table 1 defaults (the `sweep` dimensions).
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Unique display label within the spec.
    pub label: String,
    /// The ISA the workload is compiled for.
    pub isa: IsaKind,
    /// The memory system the machine uses.
    pub mem: MemModelKind,
    /// Reorder-buffer size override (`None` keeps the Table 1 size for the
    /// cell's issue width). Only the `sweep` experiment sets it today.
    pub rob: Option<usize>,
}

impl MachineConfig {
    /// A standard configuration with no overrides.
    pub fn new(label: impl Into<String>, isa: IsaKind, mem: MemModelKind) -> Self {
        Self { label: label.into(), isa, mem, rob: None }
    }

    /// Resolve this configuration at issue width `way` into the fully
    /// explicit [`MachineDescriptor`] the runner instantiates — the single
    /// place where a grid cell becomes a machine.
    pub fn descriptor(&self, way: usize) -> MachineDescriptor {
        let desc = MachineDescriptor::for_cell(way, self.isa, self.mem);
        match self.rob {
            Some(rob) => desc.with_rob(rob),
            None => desc,
        }
    }
}

/// How the derived `speedup` of each grid cell is computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaselinePolicy {
    /// No speed-up column.
    None,
    /// Baseline is the same workload on config `config` at issue width `way`
    /// (Figure 5: the 1-way Alpha run).
    ConfigAtWidth {
        /// Index into [`GridSpec::configs`].
        config: usize,
        /// Issue width of the baseline machine.
        way: usize,
    },
    /// Baseline is the same workload and width on config `config`
    /// (Figure 7: the same-width Alpha/conventional run).
    ConfigSameWidth {
        /// Index into [`GridSpec::configs`].
        config: usize,
    },
    /// Configs come in consecutive pairs and the even-indexed config is the
    /// baseline of both (the latency study: `lat1`/`lat50` per ISA).
    PairedPrevious,
}

/// One cell of a simulation grid (a single timing-simulator run).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    /// The workload to trace and simulate.
    pub workload: Workload,
    /// Index into [`GridSpec::configs`].
    pub config: usize,
    /// Issue width of the machine.
    pub way: usize,
}

/// A full simulation grid: `workloads x configs x widths`.
#[derive(Debug, Clone, PartialEq)]
pub struct GridSpec {
    /// Workloads (kernels or applications).
    pub workloads: Vec<Workload>,
    /// Machine configurations (ISA + memory pairs).
    pub configs: Vec<MachineConfig>,
    /// Issue widths.
    pub widths: Vec<usize>,
    /// Workload scale factor (1 = the paper's default working sets).
    pub scale: usize,
    /// Seed for the synthetic workload generators.
    pub seed: u64,
    /// How per-cell speed-ups are derived.
    pub baseline: BaselinePolicy,
}

impl GridSpec {
    /// Enumerate every cell in deterministic order: workload-major, then
    /// config, then width. The runner, the JSON writer and the renderers all
    /// share this order, which is what makes parallel runs byte-identical to
    /// serial ones.
    pub fn cells(&self) -> Vec<Cell> {
        let mut out = Vec::with_capacity(self.workloads.len() * self.configs.len() * self.widths.len());
        for &workload in &self.workloads {
            for config in 0..self.configs.len() {
                for &way in &self.widths {
                    out.push(Cell { workload, config, way });
                }
            }
        }
        out
    }

    /// The distinct ISAs of the grid, in first-appearance order.
    pub fn isas(&self) -> Vec<IsaKind> {
        let mut out = Vec::new();
        for c in &self.configs {
            if !out.contains(&c.isa) {
                out.push(c.isa);
            }
        }
        out
    }

    /// Restrict the grid to the given kernels (applications are unaffected).
    pub fn retain_kernels(&mut self, allowed: &[KernelKind]) {
        self.workloads.retain(|w| match w {
            Workload::Kernel(k) => allowed.contains(k),
            Workload::App(_) => true,
        });
    }

    /// Restrict the grid to the given applications (kernels are unaffected).
    pub fn retain_apps(&mut self, allowed: &[AppKind]) {
        self.workloads.retain(|w| match w {
            Workload::Kernel(_) => true,
            Workload::App(a) => allowed.contains(a),
        });
    }

    /// Restrict the grid to configs whose ISA is in `allowed`.
    ///
    /// Config indices shift, so the baseline policy is re-anchored: if the
    /// baseline config is filtered out, the policy degrades to
    /// [`BaselinePolicy::None`] (a speed-up against a machine that no longer
    /// runs would be meaningless).
    pub fn retain_isas(&mut self, allowed: &[IsaKind]) {
        let baseline_config = match self.baseline {
            BaselinePolicy::ConfigAtWidth { config, .. } => Some(config),
            BaselinePolicy::ConfigSameWidth { config } => Some(config),
            _ => None,
        };
        let keep: Vec<bool> = self.configs.iter().map(|c| allowed.contains(&c.isa)).collect();
        let new_index = |old: usize| keep[..old].iter().filter(|&&k| k).count();
        self.baseline = match self.baseline {
            BaselinePolicy::ConfigAtWidth { config, way } if keep[config] => {
                BaselinePolicy::ConfigAtWidth { config: new_index(config), way }
            }
            BaselinePolicy::ConfigSameWidth { config } if keep[config] => {
                BaselinePolicy::ConfigSameWidth { config: new_index(config) }
            }
            BaselinePolicy::PairedPrevious => BaselinePolicy::PairedPrevious,
            BaselinePolicy::None => BaselinePolicy::None,
            _ => {
                debug_assert!(baseline_config.is_some());
                BaselinePolicy::None
            }
        };
        let mut keep_iter = keep.iter();
        self.configs.retain(|_| *keep_iter.next().expect("one flag per config"));
        if matches!(self.baseline, BaselinePolicy::PairedPrevious)
            && !self.configs.len().is_multiple_of(2)
        {
            // A filtered pair would mis-anchor every later config.
            self.baseline = BaselinePolicy::None;
        }
    }
}

/// The config-derived experiments that need no simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StaticKind {
    /// Table 1: processor configurations.
    Table1,
    /// Table 2: multimedia register files and area.
    Table2,
    /// Table 3: memory port configurations.
    Table3,
    /// Section 3.1 opcode inventories.
    IsaInventory,
}

/// The payload of an experiment: a simulation grid or a static table.
#[derive(Debug, Clone, PartialEq)]
pub enum ExperimentKind {
    /// A config-derived table.
    Static(StaticKind),
    /// A simulation grid.
    Grid(GridSpec),
}

/// A complete, named experiment specification.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentSpec {
    /// Machine-readable name (`figure5`, `table1`, ...) — also the stem of
    /// the `BENCH_<name>.json` result file.
    pub name: String,
    /// The text report's header line (without the fast-mode marker).
    pub title: String,
    /// Whether this spec describes a reduced fast-mode run.
    pub fast: bool,
    /// What to run.
    pub kind: ExperimentKind,
}

impl ExperimentSpec {
    /// Build a named built-in experiment, or `None` for an unknown name.
    ///
    /// `fast` selects the reduced workload subsets (what `MOM_BENCH_FAST`
    /// selects in `momlab`); `scale` is the workload scale.
    pub fn builtin(name: &str, scale: usize, fast: bool) -> Option<ExperimentSpec> {
        let spec = match name {
            "table1" => ExperimentSpec {
                name: name.into(),
                title: "Table 1: Processor configurations".into(),
                fast,
                kind: ExperimentKind::Static(StaticKind::Table1),
            },
            "table2" => ExperimentSpec {
                name: name.into(),
                title: "Table 2: Multimedia register file configurations (4-way machine)".into(),
                fast,
                kind: ExperimentKind::Static(StaticKind::Table2),
            },
            "table3" => ExperimentSpec {
                name: name.into(),
                title: "Table 3: Port configuration of the memory models".into(),
                fast,
                kind: ExperimentKind::Static(StaticKind::Table3),
            },
            "isa_inventory" => ExperimentSpec {
                name: name.into(),
                title: "Opcode inventories of the emulation libraries".into(),
                fast,
                kind: ExperimentKind::Static(StaticKind::IsaInventory),
            },
            "figure5" => figure5_spec(&kernel_selection(fast), scale, 1, fast),
            "latency_tolerance" => latency_spec(&kernel_selection(fast), scale, 4, fast),
            "figure7" => {
                let widths: &[usize] = if fast { &[4] } else { &[4, 8] };
                figure7_spec(&app_selection(fast), scale, widths, fast)
            }
            "stress" => stress_spec(scale, fast),
            "sweep" => sweep_spec(&SweepDims::for_mode(fast), scale, fast),
            _ => return None,
        };
        Some(spec)
    }

    /// All built-in experiments at the given scale/fast setting.
    pub fn all_builtin(scale: usize, fast: bool) -> Vec<ExperimentSpec> {
        BUILTIN_EXPERIMENTS
            .iter()
            .map(|name| ExperimentSpec::builtin(name, scale, fast).expect("builtin name"))
            .collect()
    }

    /// The grid, if this is a grid experiment.
    pub fn grid(&self) -> Option<&GridSpec> {
        match &self.kind {
            ExperimentKind::Grid(g) => Some(g),
            ExperimentKind::Static(_) => None,
        }
    }

    /// A stable FNV-1a hash of the full configuration, recorded in the JSON
    /// results so baseline diffs can flag config drift.
    pub fn config_hash(&self) -> String {
        let mut h = Fnv1a::new();
        h.update(self.name.as_bytes());
        h.update(&[self.fast as u8]);
        match &self.kind {
            ExperimentKind::Static(s) => h.update(format!("{s:?}").as_bytes()),
            ExperimentKind::Grid(g) => {
                h.update(&g.scale.to_le_bytes());
                h.update(&g.seed.to_le_bytes());
                for w in &g.workloads {
                    h.update(w.label().as_bytes());
                    h.update(b"|");
                }
                for c in &g.configs {
                    h.update(c.label.as_bytes());
                    h.update(c.isa.label().as_bytes());
                    h.update(format!("{:?}", c.mem).as_bytes());
                    // Overrides contribute only when present, so documents of
                    // the pre-override era keep their exact hashes.
                    if let Some(rob) = c.rob {
                        h.update(b"rob");
                        h.update(&rob.to_le_bytes());
                    }
                    h.update(b"|");
                }
                for w in &g.widths {
                    h.update(&w.to_le_bytes());
                }
                h.update(format!("{:?}", g.baseline).as_bytes());
            }
        }
        format!("fnv1a:{:016x}", h.finish())
    }
}

/// The kernels an experiment evaluates: all eight normally, a cheap
/// two-kernel subset when `fast`.
pub fn kernel_selection(fast: bool) -> Vec<KernelKind> {
    if fast {
        vec![KernelKind::Compensation, KernelKind::AddBlock]
    } else {
        KernelKind::ALL.to_vec()
    }
}

/// The applications an experiment evaluates: all five normally, a two-app
/// subset when `fast`.
pub fn app_selection(fast: bool) -> Vec<AppKind> {
    if fast {
        vec![AppKind::JpegDecode, AppKind::GsmEncode]
    } else {
        AppKind::ALL.to_vec()
    }
}

/// Figure 5: the four ISAs on 1/2/4/8-way machines with a perfect
/// fixed-latency memory, speed-ups relative to the 1-way Alpha run.
pub fn figure5_spec(kernels: &[KernelKind], scale: usize, mem_latency: u64, fast: bool) -> ExperimentSpec {
    ExperimentSpec {
        name: "figure5".into(),
        title: format!("Figure 5: kernel speed-ups vs 1-way Alpha (perfect cache, scale {scale})"),
        fast,
        kind: ExperimentKind::Grid(GridSpec {
            workloads: kernels.iter().map(|&k| Workload::Kernel(k)).collect(),
            configs: IsaKind::ALL
                .iter()
                .map(|&isa| {
                    MachineConfig::new(isa.label(), isa, MemModelKind::Perfect { latency: mem_latency })
                })
                .collect(),
            widths: vec![1, 2, 4, 8],
            scale,
            seed: 42,
            baseline: BaselinePolicy::ConfigAtWidth { config: 0, way: 1 },
        }),
    }
}

/// The Section 4.1 latency-tolerance study: each ISA with 1-cycle and
/// 50-cycle perfect memory on a machine of width `way`.
pub fn latency_spec(kernels: &[KernelKind], scale: usize, way: usize, fast: bool) -> ExperimentSpec {
    let mut configs = Vec::new();
    for &isa in &IsaKind::ALL {
        configs.push(MachineConfig::new(
            format!("{}@lat1", isa.label()),
            isa,
            MemModelKind::Perfect { latency: 1 },
        ));
        configs.push(MachineConfig::new(
            format!("{}@lat50", isa.label()),
            isa,
            MemModelKind::Perfect { latency: 50 },
        ));
    }
    ExperimentSpec {
        name: "latency_tolerance".into(),
        title: format!(
            "Latency tolerance: slow-down from 1-cycle to 50-cycle memory ({way}-way machine)"
        ),
        fast,
        kind: ExperimentKind::Grid(GridSpec {
            workloads: kernels.iter().map(|&k| Workload::Kernel(k)).collect(),
            configs,
            widths: vec![way],
            scale,
            seed: 42,
            baseline: BaselinePolicy::PairedPrevious,
        }),
    }
}

/// The streaming scale study: the heaviest kernel (`rgb2ycc`, whose scalar
/// trace is the longest of the eight; `compensation` in fast mode) at
/// [`STRESS_SCALE_FACTOR`]× the requested workload scale across all four
/// ISAs on the wide machines. Traces this long are never materialized: the
/// runner streams every cell in O(ROB) memory, which is what makes the
/// scale axis unbounded.
pub fn stress_spec(scale: usize, fast: bool) -> ExperimentSpec {
    let kernel = if fast { KernelKind::Compensation } else { KernelKind::Rgb2Ycc };
    let scale = scale.max(1) * STRESS_SCALE_FACTOR;
    ExperimentSpec {
        name: "stress".into(),
        title: format!("Streaming stress: {kernel} speed-ups vs 4-way Alpha (perfect cache, scale {scale})"),
        fast,
        kind: ExperimentKind::Grid(GridSpec {
            workloads: vec![Workload::Kernel(kernel)],
            configs: IsaKind::ALL
                .iter()
                .map(|&isa| MachineConfig::new(isa.label(), isa, MemModelKind::Perfect { latency: 1 }))
                .collect(),
            widths: vec![4, 8],
            scale,
            seed: 42,
            baseline: BaselinePolicy::ConfigAtWidth { config: 0, way: 4 },
        }),
    }
}

/// The dimensions of the design-space `sweep` experiment: every combination
/// of reorder-buffer size x memory latency is a machine configuration, run
/// at every issue width, for every ISA.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepDims {
    /// Reorder-buffer sizes to sweep.
    pub robs: Vec<usize>,
    /// Perfect-memory latencies (cycles) to sweep.
    pub latencies: Vec<u64>,
    /// Issue widths to sweep.
    pub widths: Vec<usize>,
}

impl SweepDims {
    /// The default full-mode grid: 3 ROB sizes x 2 latencies x 3 widths
    /// (x 4 ISAs = 72 cells, all fed by 4 functional passes).
    pub fn full() -> Self {
        Self { robs: vec![16, 32, 64], latencies: vec![1, 50], widths: vec![2, 4, 8] }
    }

    /// The reduced fast-mode grid (a strict subset of [`SweepDims::full`]).
    pub fn fast() -> Self {
        Self { robs: vec![16, 64], latencies: vec![1, 50], widths: vec![4] }
    }

    /// The dims for the given mode.
    pub fn for_mode(fast: bool) -> Self {
        if fast {
            SweepDims::fast()
        } else {
            SweepDims::full()
        }
    }

    /// Parse the `momlab --sweep-dims` syntax:
    /// `rob=16,32:lat=1,50:way=4,8` (any subset of the three axes; omitted
    /// axes keep the mode's defaults).
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending axis or value.
    pub fn parse(spec: &str, fast: bool) -> Result<Self, String> {
        let mut dims = SweepDims::for_mode(fast);
        for part in spec.split(':').filter(|p| !p.trim().is_empty()) {
            let (axis, values) = part
                .split_once('=')
                .ok_or_else(|| format!("--sweep-dims: expected axis=v1,v2 in {part:?}"))?;
            let parse_list = |values: &str| -> Result<Vec<u64>, String> {
                let list: Result<Vec<u64>, _> =
                    values.split(',').map(|v| v.trim().parse::<u64>()).collect();
                let list = list.map_err(|e| format!("--sweep-dims: {axis}: {e}"))?;
                if list.is_empty() || list.contains(&0) {
                    return Err(format!("--sweep-dims: {axis} values must be >= 1"));
                }
                Ok(list)
            };
            match axis.trim() {
                "rob" => dims.robs = parse_list(values)?.into_iter().map(|v| v as usize).collect(),
                "lat" => dims.latencies = parse_list(values)?,
                "way" => {
                    let widths: Vec<usize> =
                        parse_list(values)?.into_iter().map(|v| v as usize).collect();
                    if widths.iter().any(|w| ![1, 2, 4, 8].contains(w)) {
                        return Err("--sweep-dims: way values must be one of 1, 2, 4, 8".into());
                    }
                    dims.widths = widths;
                }
                other => {
                    return Err(format!(
                        "--sweep-dims: unknown axis {other:?} (expected rob, lat or way)"
                    ))
                }
            }
        }
        Ok(dims)
    }
}

/// The design-space `sweep` experiment: one kernel (`compensation`, the
/// mid-weight member of the paper's set) evaluated over every combination of
/// ROB size x memory latency x issue width, per ISA. Each `(kernel, ISA)`
/// group of the grid shares a **single** functional interpretation fanned out
/// to all of its machine configurations, which is what makes a 72-cell sweep
/// cost 4 interpreter passes — the amortization the paper's own evaluation
/// methodology (one binary, many machines) relied on.
pub fn sweep_spec(dims: &SweepDims, scale: usize, fast: bool) -> ExperimentSpec {
    let kernel = KernelKind::Compensation;
    let mut configs = Vec::new();
    for &isa in &IsaKind::ALL {
        for &rob in &dims.robs {
            for &latency in &dims.latencies {
                configs.push(MachineConfig {
                    label: format!("{}/rob{rob}/lat{latency}", isa.label()),
                    isa,
                    mem: MemModelKind::Perfect { latency },
                    rob: Some(rob),
                });
            }
        }
    }
    ExperimentSpec {
        name: "sweep".into(),
        title: format!(
            "Design-space sweep: {kernel} IPC over ROB x latency x width (scale {scale})"
        ),
        fast,
        kind: ExperimentKind::Grid(GridSpec {
            workloads: vec![Workload::Kernel(kernel)],
            configs,
            widths: dims.widths.clone(),
            scale,
            seed: 42,
            baseline: BaselinePolicy::None,
        }),
    }
}

/// The five machine configurations of Figure 7, in legend order.
pub fn figure7_configs() -> Vec<MachineConfig> {
    vec![
        MachineConfig::new("Alpha conventional cache", IsaKind::Alpha, MemModelKind::Conventional),
        MachineConfig::new("MMX conventional cache", IsaKind::Mmx, MemModelKind::Conventional),
        MachineConfig::new("MOM multi-address cache", IsaKind::Mom, MemModelKind::MultiAddress),
        MachineConfig::new("MOM vector cache", IsaKind::Mom, MemModelKind::VectorCache),
        MachineConfig::new("MOM collapsing buffer cache", IsaKind::Mom, MemModelKind::CollapsingBuffer),
    ]
}

/// Figure 7: whole-program speed-ups with realistic cache hierarchies,
/// relative to the same-width Alpha/conventional configuration.
pub fn figure7_spec(apps: &[AppKind], scale: usize, widths: &[usize], fast: bool) -> ExperimentSpec {
    ExperimentSpec {
        name: "figure7".into(),
        title: format!(
            "Figure 7: whole-program speed-ups vs same-width Alpha/conventional (scale {scale})"
        ),
        fast,
        kind: ExperimentKind::Grid(GridSpec {
            workloads: apps.iter().map(|&a| Workload::App(a)).collect(),
            configs: figure7_configs(),
            widths: widths.to_vec(),
            scale,
            seed: 42,
            baseline: BaselinePolicy::ConfigSameWidth { config: 0 },
        }),
    }
}

/// Incremental 64-bit FNV-1a.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_builtin_name_resolves() {
        for name in BUILTIN_EXPERIMENTS {
            let spec = ExperimentSpec::builtin(name, 1, false).expect("builtin resolves");
            assert_eq!(spec.name, name);
        }
        assert!(ExperimentSpec::builtin("figure9", 1, false).is_none());
        assert_eq!(ExperimentSpec::all_builtin(1, true).len(), BUILTIN_EXPERIMENTS.len());
    }

    #[test]
    fn cell_order_is_workload_major() {
        let spec = figure5_spec(&[KernelKind::Idct, KernelKind::AddBlock], 1, 1, false);
        let grid = spec.grid().unwrap();
        let cells = grid.cells();
        assert_eq!(cells.len(), 2 * 4 * 4);
        assert_eq!(cells[0], Cell { workload: Workload::Kernel(KernelKind::Idct), config: 0, way: 1 });
        assert_eq!(cells[1].way, 2, "widths vary fastest");
        assert_eq!(cells[4].config, 1, "then configs");
        assert_eq!(cells[16].workload, Workload::Kernel(KernelKind::AddBlock));
    }

    #[test]
    fn fast_selections_are_strict_subsets() {
        let fast_kernels = kernel_selection(true);
        let all_kernels = kernel_selection(false);
        assert!(fast_kernels.len() < all_kernels.len());
        assert!(fast_kernels.iter().all(|k| all_kernels.contains(k)));
        let fast_apps = app_selection(true);
        assert!(fast_apps.len() < app_selection(false).len());
        assert!(fast_apps.iter().all(|a| AppKind::ALL.contains(a)));
    }

    #[test]
    fn retain_isas_reanchors_the_baseline() {
        let mut spec = figure5_spec(&[KernelKind::Idct], 1, 1, false);
        if let ExperimentKind::Grid(g) = &mut spec.kind {
            g.retain_isas(&[IsaKind::Mmx, IsaKind::Mom]);
            assert_eq!(g.configs.len(), 2);
            // Alpha (the baseline) was filtered out -> no speed-up column.
            assert_eq!(g.baseline, BaselinePolicy::None);
        }
        let mut spec = figure5_spec(&[KernelKind::Idct], 1, 1, false);
        if let ExperimentKind::Grid(g) = &mut spec.kind {
            g.retain_isas(&[IsaKind::Alpha, IsaKind::Mom]);
            assert_eq!(g.configs.len(), 2);
            assert_eq!(g.baseline, BaselinePolicy::ConfigAtWidth { config: 0, way: 1 });
        }
    }

    #[test]
    fn config_hash_tracks_the_configuration() {
        let a = ExperimentSpec::builtin("figure5", 1, false).unwrap();
        let b = ExperimentSpec::builtin("figure5", 1, false).unwrap();
        assert_eq!(a.config_hash(), b.config_hash(), "hash is deterministic");
        let fast = ExperimentSpec::builtin("figure5", 1, true).unwrap();
        assert_ne!(a.config_hash(), fast.config_hash());
        let scaled = ExperimentSpec::builtin("figure5", 2, false).unwrap();
        assert_ne!(a.config_hash(), scaled.config_hash());
        assert!(a.config_hash().starts_with("fnv1a:"));
    }

    #[test]
    fn sweep_spec_covers_the_dim_cross_product() {
        let spec = ExperimentSpec::builtin("sweep", 1, false).unwrap();
        let grid = spec.grid().unwrap();
        let dims = SweepDims::full();
        assert_eq!(grid.configs.len(), 4 * dims.robs.len() * dims.latencies.len());
        assert_eq!(grid.cells().len(), grid.configs.len() * dims.widths.len());
        assert_eq!(grid.baseline, BaselinePolicy::None);
        // Every config carries its ROB override and a distinguishing label.
        let mut labels: Vec<&str> = grid.configs.iter().map(|c| c.label.as_str()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), grid.configs.len(), "labels are unique");
        assert!(grid.configs.iter().all(|c| c.rob.is_some()));
        // Fast dims are a strict subset.
        let fast = ExperimentSpec::builtin("sweep", 1, true).unwrap();
        assert!(fast.grid().unwrap().cells().len() < grid.cells().len());
        assert_ne!(spec.config_hash(), fast.config_hash());
    }

    #[test]
    fn sweep_dims_parse_round_trips_and_rejects_garbage() {
        let dims = SweepDims::parse("rob=8,128:lat=1,10,100:way=2,8", false).unwrap();
        assert_eq!(dims.robs, [8, 128]);
        assert_eq!(dims.latencies, [1, 10, 100]);
        assert_eq!(dims.widths, [2, 8]);
        // Omitted axes keep the mode defaults.
        let partial = SweepDims::parse("lat=7", true).unwrap();
        assert_eq!(partial.latencies, [7]);
        assert_eq!(partial.robs, SweepDims::fast().robs);
        assert!(SweepDims::parse("rob=0", false).is_err());
        assert!(SweepDims::parse("way=3", false).is_err());
        assert!(SweepDims::parse("depth=2", false).is_err());
        assert!(SweepDims::parse("rob", false).is_err());
        assert!(SweepDims::parse("rob=x", false).is_err());
    }

    #[test]
    fn machine_config_resolves_to_the_descriptor() {
        let plain = MachineConfig::new("mom", IsaKind::Mom, MemModelKind::Perfect { latency: 1 });
        let desc = plain.descriptor(4);
        assert_eq!(desc.core.way, 4);
        assert_eq!(desc.core.rob_size, 32, "Table 1 default for 4-way");
        assert_eq!(desc.mem, MemModelKind::Perfect { latency: 1 });
        let swept = MachineConfig { rob: Some(16), ..plain };
        assert_eq!(swept.descriptor(4).core.rob_size, 16, "override wins");
    }

    #[test]
    fn rob_override_changes_the_config_hash_only_when_present() {
        // The override is hashed only when set, so documents from before the
        // field existed keep their exact config hashes (pinned in the
        // committed baselines, which CI diffs on every push).
        let a = ExperimentSpec::builtin("figure5", 1, false).unwrap();
        assert!(a.grid().unwrap().configs.iter().all(|c| c.rob.is_none()));
        assert_eq!(a.config_hash(), "fnv1a:96b386bdbfd15a49", "legacy hash drifted");
        let mut swept = a.clone();
        if let ExperimentKind::Grid(g) = &mut swept.kind {
            g.configs[0].rob = Some(32);
        }
        assert_ne!(a.config_hash(), swept.config_hash());
    }

    #[test]
    fn latency_spec_pairs_configs() {
        let spec = latency_spec(&[KernelKind::Idct], 1, 4, false);
        let grid = spec.grid().unwrap();
        assert_eq!(grid.configs.len(), 8);
        for pair in grid.configs.chunks(2) {
            assert_eq!(pair[0].isa, pair[1].isa);
            assert_eq!(pair[0].mem, MemModelKind::Perfect { latency: 1 });
            assert_eq!(pair[1].mem, MemModelKind::Perfect { latency: 50 });
        }
        assert_eq!(grid.baseline, BaselinePolicy::PairedPrevious);
    }
}
