//! # mom-bench — the experiment harness
//!
//! Every table and figure of the paper's evaluation is regenerated by a
//! function in this crate (and printed by a binary under `src/bin/`):
//!
//! | Experiment | Function | Binary |
//! |------------|----------|--------|
//! | Table 1 (processor configurations) | [`table1_rows`] | `table1` |
//! | Table 2 (register files / area) | re-exported from `mom_core::area` | `table2` |
//! | Table 3 (memory port configurations) | re-exported from `mom_mem::config` | `table3` |
//! | Figure 5 (kernel speed-ups, perfect cache) | [`figure5`] | `figure5` |
//! | §4.1 latency-tolerance study | [`latency_tolerance`] | `latency_tolerance` |
//! | Figure 7 (whole-program speed-ups, realistic caches) | [`figure7`] | `figure7` |
//! | §3.1 opcode inventories | re-exported from `mom_core::inventory` | `isa_inventory` |
//!
//! Since the `mom-lab` orchestration subsystem landed, this crate is a thin
//! compatibility layer: the simulation grids are described by
//! [`mom_lab::spec::ExperimentSpec`]s and executed by the parallel
//! [`mom_lab::runner`]; the functions here convert the structured
//! [`mom_lab::CellResult`]s into the historical point types, and the binaries
//! print [`mom_lab::report::render`]'s text (byte-identical to the historic
//! output). Machine-readable `BENCH_<experiment>.json` files come from the
//! `momlab` CLI. The same functions back the Criterion benches in
//! `benches/`, the integration tests and EXPERIMENTS.md.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use mom_cpu::{CoreConfig, OooCore, SimResult};
use mom_isa::trace::{IsaKind, Trace};
use mom_kernels::{build_kernel, KernelKind, KernelParams};
use mom_lab::spec::{figure5_spec, figure7_spec, latency_spec};
use mom_mem::{build_memory, MemModelKind};

pub use mom_apps::AppKind;
pub use mom_lab::tables::{table1_rows, Table1Row, WIDTHS};
pub use mom_lab::{fast_mode, fast_mode_marker};

/// The kernels an experiment binary should evaluate: all eight normally, a
/// cheap two-kernel subset under [`fast_mode`].
pub fn kernel_selection() -> Vec<KernelKind> {
    mom_lab::spec::kernel_selection(fast_mode())
}

/// The applications an experiment binary should evaluate: all five normally,
/// a two-app subset under [`fast_mode`].
pub fn app_selection() -> Vec<AppKind> {
    mom_lab::spec::app_selection(fast_mode())
}

/// One measurement of the kernel study (Figure 5 / latency study).
#[derive(Debug, Clone)]
pub struct KernelPoint {
    /// Kernel name.
    pub kernel: String,
    /// ISA under test.
    pub isa: String,
    /// Issue width.
    pub way: usize,
    /// Simulated cycles.
    pub cycles: u64,
    /// Committed dynamic instructions.
    pub instructions: u64,
    /// Speed-up relative to the 1-way Alpha run of the same kernel.
    pub speedup_vs_1way_alpha: f64,
}

/// Simulate one pre-built trace on one machine configuration.
pub fn simulate(trace: &Trace, way: usize, isa: IsaKind, mem: MemModelKind) -> SimResult {
    let core = OooCore::new(CoreConfig::for_width(way, isa));
    let mut memory = build_memory(mem, way);
    core.simulate(trace, memory.as_mut())
}

/// Fused streaming flavour of one kernel cell: interpret the kernel (verified
/// against the golden reference) straight into the timing simulator, with no
/// intermediate trace. Bit-identical to `simulate(&kernel_traces(..), ..)`
/// for the same configuration, in O(ROB) memory.
///
/// # Panics
///
/// Panics if the kernel fails verification, matching [`kernel_traces`].
pub fn simulate_kernel_streamed(
    kernel: KernelKind,
    params: &KernelParams,
    way: usize,
    isa: IsaKind,
    mem: MemModelKind,
) -> SimResult {
    let core = OooCore::new(CoreConfig::for_width(way, isa));
    let mut memory = build_memory(mem, way);
    build_kernel(kernel, isa, params)
        .run_streamed(&core, memory.as_mut())
        .unwrap_or_else(|e| panic!("{kernel} ({isa}) failed verification: {e}"))
}

/// Build the dynamic traces of one kernel for all four ISAs (verified against
/// the golden reference while doing so).
pub fn kernel_traces(kernel: KernelKind, params: &KernelParams) -> Vec<(IsaKind, Trace)> {
    IsaKind::ALL
        .iter()
        .map(|&isa| {
            let run = build_kernel(kernel, isa, params)
                .run_verified()
                .unwrap_or_else(|e| panic!("{kernel} ({isa}) failed verification: {e}"));
            (isa, run.trace)
        })
        .collect()
}

/// Figure 5: kernel speed-ups of the four ISAs on 1/2/4/8-way machines with a
/// perfect (fixed-latency) memory, relative to the 1-way Alpha machine.
///
/// The grid runs on the parallel `mom-lab` runner; results are identical to
/// the historic serial loop (see the runner's determinism guarantee).
pub fn figure5(kernels: &[KernelKind], scale: usize, mem_latency: u64) -> Vec<KernelPoint> {
    let spec = figure5_spec(kernels, scale, mem_latency, false);
    let result = mom_lab::run(&spec, &mom_lab::RunOptions::default());
    result
        .cells()
        .expect("figure5 is a grid experiment")
        .iter()
        .map(|c| KernelPoint {
            kernel: c.workload.label().to_string(),
            isa: c.isa.to_string(),
            way: c.way,
            cycles: c.cycles,
            instructions: c.instructions,
            speedup_vs_1way_alpha: c.speedup.unwrap_or(f64::NAN),
        })
        .collect()
}

/// One row of the latency-tolerance study: the slow-down each ISA suffers when
/// main-memory latency grows from 1 to 50 cycles (4-way machine).
#[derive(Debug, Clone)]
pub struct LatencyPoint {
    /// Kernel name.
    pub kernel: String,
    /// ISA under test.
    pub isa: String,
    /// Cycles with 1-cycle memory.
    pub cycles_lat1: u64,
    /// Cycles with 50-cycle memory.
    pub cycles_lat50: u64,
    /// Slow-down factor.
    pub slowdown: f64,
}

/// The Section 4.1 latency-tolerance experiment.
pub fn latency_tolerance(kernels: &[KernelKind], scale: usize, way: usize) -> Vec<LatencyPoint> {
    let spec = latency_spec(kernels, scale, way, false);
    let result = mom_lab::run(&spec, &mom_lab::RunOptions::default());
    let cells = result.cells().expect("latency study is a grid experiment");
    let cycles_at = |kernel: &str, isa: IsaKind, latency: u64| -> u64 {
        cells
            .iter()
            .find(|c| {
                c.workload.label() == kernel
                    && c.isa == isa
                    && c.mem == MemModelKind::Perfect { latency }
            })
            .map(|c| c.cycles)
            .expect("cell simulated")
    };
    let mut out = Vec::new();
    for &kernel in kernels {
        for isa in IsaKind::ALL {
            let fast = cycles_at(kernel.label(), isa, 1);
            let slow = cycles_at(kernel.label(), isa, 50);
            out.push(LatencyPoint {
                kernel: kernel.to_string(),
                isa: isa.to_string(),
                cycles_lat1: fast,
                cycles_lat50: slow,
                slowdown: slow as f64 / fast.max(1) as f64,
            });
        }
    }
    out
}

/// The five machine configurations of Figure 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Figure7Config {
    /// Scalar Alpha code with the conventional cache.
    AlphaConventional,
    /// MMX code with the conventional cache.
    MmxConventional,
    /// MOM code with the multi-address cache.
    MomMultiAddress,
    /// MOM code with the vector cache.
    MomVectorCache,
    /// MOM code with the collapsing-buffer cache.
    MomCollapsingBuffer,
}

impl Figure7Config {
    /// All configurations in the order the figure's legend uses.
    pub const ALL: [Figure7Config; 5] = [
        Figure7Config::AlphaConventional,
        Figure7Config::MmxConventional,
        Figure7Config::MomMultiAddress,
        Figure7Config::MomVectorCache,
        Figure7Config::MomCollapsingBuffer,
    ];

    /// The ISA this configuration runs.
    pub fn isa(self) -> IsaKind {
        match self {
            Figure7Config::AlphaConventional => IsaKind::Alpha,
            Figure7Config::MmxConventional => IsaKind::Mmx,
            _ => IsaKind::Mom,
        }
    }

    /// The memory model this configuration uses.
    pub fn memory(self) -> MemModelKind {
        match self {
            Figure7Config::AlphaConventional | Figure7Config::MmxConventional => MemModelKind::Conventional,
            Figure7Config::MomMultiAddress => MemModelKind::MultiAddress,
            Figure7Config::MomVectorCache => MemModelKind::VectorCache,
            Figure7Config::MomCollapsingBuffer => MemModelKind::CollapsingBuffer,
        }
    }

    /// Legend label.
    pub fn label(self) -> &'static str {
        match self {
            Figure7Config::AlphaConventional => "Alpha conventional cache",
            Figure7Config::MmxConventional => "MMX conventional cache",
            Figure7Config::MomMultiAddress => "MOM multi-address cache",
            Figure7Config::MomVectorCache => "MOM vector cache",
            Figure7Config::MomCollapsingBuffer => "MOM collapsing buffer cache",
        }
    }
}

/// One bar of Figure 7.
#[derive(Debug, Clone)]
pub struct AppPoint {
    /// Application name.
    pub app: String,
    /// Machine configuration label.
    pub config: String,
    /// Issue width.
    pub way: usize,
    /// Simulated cycles.
    pub cycles: u64,
    /// Dynamic instructions.
    pub instructions: u64,
    /// Speed-up relative to the Alpha/conventional configuration of the same
    /// width.
    pub speedup_vs_alpha: f64,
}

/// Figure 7: whole-program speed-ups on 4- and 8-way machines with realistic
/// cache hierarchies.
pub fn figure7(apps: &[AppKind], scale: usize, widths: &[usize]) -> Vec<AppPoint> {
    let spec = figure7_spec(apps, scale, widths, false);
    let result = mom_lab::run(&spec, &mom_lab::RunOptions::default());
    result
        .cells()
        .expect("figure7 is a grid experiment")
        .iter()
        .map(|c| AppPoint {
            app: c.workload.label().to_string(),
            config: c.config_label.clone(),
            way: c.way,
            cycles: c.cycles,
            instructions: c.instructions,
            speedup_vs_alpha: c.speedup.unwrap_or(f64::NAN),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_the_paper() {
        let rows = table1_rows();
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].rob, 8);
        assert_eq!(rows[3].rob, 64);
        assert_eq!(rows[3].media_units, (2, 2), "8-way MOM uses 2 double-width media units");
        assert_eq!(rows[2].mem_ports, 2);
    }

    #[test]
    fn streamed_kernel_cell_matches_the_materialized_path() {
        let params = KernelParams { seed: 42, scale: 1 };
        let traces = kernel_traces(KernelKind::AddBlock, &params);
        for (isa, trace) in &traces {
            let mem = MemModelKind::Perfect { latency: 1 };
            let batch = simulate(trace, 4, *isa, mem);
            let fused = simulate_kernel_streamed(KernelKind::AddBlock, &params, 4, *isa, mem);
            assert_eq!(batch, fused, "addblock ({isa})");
        }
    }

    #[test]
    fn figure5_smoke_preserves_the_isa_ordering() {
        // A single cheap kernel at small scale: MOM >= MDMX >= MMX > Alpha on
        // the 1-way machine.
        let points = figure5(&[KernelKind::Compensation], 1, 1);
        let get = |isa: &str, way: usize| {
            points
                .iter()
                .find(|p| p.isa == isa && p.way == way)
                .map(|p| p.speedup_vs_1way_alpha)
                .unwrap()
        };
        assert!((get("alpha", 1) - 1.0).abs() < 1e-9);
        assert!(get("mmx", 1) > 2.0);
        assert!(get("mdmx", 1) >= get("mmx", 1) * 0.9);
        assert!(get("mom", 1) > get("mmx", 1) * 1.3);
        assert!(get("alpha", 8) > get("alpha", 1));
    }

    #[test]
    fn latency_tolerance_smoke_mom_is_most_tolerant() {
        let points = latency_tolerance(&[KernelKind::Compensation], 1, 4);
        let slow = |isa: &str| points.iter().find(|p| p.isa == isa).unwrap().slowdown;
        assert!(slow("mom") < slow("mmx"), "mom {} vs mmx {}", slow("mom"), slow("mmx"));
        assert!(slow("mom") < slow("alpha"));
    }

    #[test]
    fn figure7_config_table_matches_the_lab_spec() {
        // The legacy enum and the mom-lab spec must describe the same five
        // machines, label for label.
        let lab = mom_lab::spec::figure7_configs();
        assert_eq!(lab.len(), Figure7Config::ALL.len());
        for (legacy, spec) in Figure7Config::ALL.iter().zip(&lab) {
            assert_eq!(legacy.label(), spec.label);
            assert_eq!(legacy.isa(), spec.isa);
            assert_eq!(legacy.memory(), spec.mem);
        }
    }
}
