//! Text reports rendered from structured run results.
//!
//! These renderers reproduce the historic experiment-binary output
//! byte-for-byte; `momlab run` prints [`render`]'s string next to the JSON
//! file. Golden-output tests pin the format, both in-process and through
//! the `momlab` binary's stdout.

use std::fmt::Write as _;

use mom_isa::trace::IsaKind;
use mom_mem::MemModelKind;

use crate::runner::{CellResult, RunData, RunResult};
use crate::spec::{BaselinePolicy, ExperimentSpec, GridSpec};
use crate::tables::StaticRows;

/// Header suffix marking reduced runs, so saved fast-mode output can never be
/// mistaken for a full regeneration of a figure.
pub fn fast_marker(fast: bool) -> &'static str {
    if fast {
        " [fast mode: reduced subset]"
    } else {
        ""
    }
}

/// Render the text report of a completed run. Every line ends with `\n`;
/// print with `print!`.
pub fn render(result: &RunResult) -> String {
    match &result.data {
        RunData::Static(rows) => render_static(rows),
        RunData::Grid(cells) => {
            let grid = result.spec.grid().expect("grid data implies grid spec");
            // The layout follows the grid's structure, not the spec's name:
            // paired configs are a latency study, application workloads use
            // the wide config-label columns of Figure 7, and everything else
            // (Figure 5 and custom kernel grids) gets the per-ISA width table.
            if matches!(grid.baseline, BaselinePolicy::PairedPrevious) {
                render_latency(&result.spec, grid, cells)
            } else if grid.workloads.iter().any(|w| matches!(w, crate::spec::Workload::App(_))) {
                render_config_table(&result.spec, grid, cells)
            } else if matches!(grid.baseline, BaselinePolicy::None) {
                // No baseline means no speed-up column; grids like the
                // design-space sweep print IPC instead.
                render_ipc_table(&result.spec, grid, cells)
            } else {
                render_width_table(&result.spec, grid, cells)
            }
        }
    }
}

fn render_static(rows: &StaticRows) -> String {
    match rows {
        StaticRows::Table1(rows) => {
            let mut out = String::new();
            let _ = writeln!(out, "Table 1: Processor configurations");
            let _ = writeln!(
                out,
                "{:<8} {:>5} {:>5} {:>9} {:>6} {:>11} {:>11} {:>13} {:>10} {:>12}",
                "config", "ROB", "LSQ", "bimodal", "BTB", "INT s/c", "FP s/c", "MED (lanes)", "mem ports", "INT log/phys"
            );
            for row in rows {
                let _ = writeln!(
                    out,
                    "{:<8} {:>5} {:>5} {:>9} {:>6} {:>11} {:>11} {:>13} {:>10} {:>12}",
                    format!("way-{}", row.way),
                    row.rob,
                    row.lsq,
                    row.bimodal,
                    row.btb,
                    format!("{}/{}", row.int_units.0, row.int_units.1),
                    format!("{}/{}", row.fp_units.0, row.fp_units.1),
                    format!("{} (x{})", row.media_units.0, row.media_units.1),
                    row.mem_ports,
                    format!("{}/{}", row.int_regs.0, row.int_regs.1),
                );
            }
            out
        }
        StaticRows::Table2(rows) => {
            let mut out = String::new();
            let _ = writeln!(out, "Table 2: Multimedia register file configurations (4-way machine)");
            let _ = writeln!(
                out,
                "{:<6} {:>14} {:>12} {:>12} {:>10} {:>10} {:>16}",
                "ISA", "media log/phys", "acc log/phys", "media rd/wr", "acc rd/wr", "size (KB)", "normalized area"
            );
            for row in rows {
                let _ = writeln!(
                    out,
                    "{:<6} {:>14} {:>12} {:>12} {:>10} {:>10.2} {:>16.2}",
                    row.isa,
                    format!("{}/{}", row.media_regs.0, row.media_regs.1),
                    format!("{}/{}", row.acc_regs.0, row.acc_regs.1),
                    format!("{}/{}", row.media_ports.0, row.media_ports.1),
                    format!("{}/{}", row.acc_ports.0, row.acc_ports.1),
                    row.size_kb,
                    row.normalized_area,
                );
            }
            let _ = writeln!(out);
            let _ = writeln!(
                out,
                "Paper values: sizes 0.5 / 0.78 / 2.6 KB, normalized area 1 / 1.19 / 0.87."
            );
            out
        }
        StaticRows::Table3(rows) => {
            let mut out = String::new();
            let _ = writeln!(out, "Table 3: Port configuration of the memory models");
            let _ = writeln!(
                out,
                "{:<16} {:>9} {:>9} {:>11} {:>15} {:>9} {:>11}",
                "model", "L1 ports", "L1 banks", "L1 latency", "L2 vec ports", "L2 banks", "L2 latency"
            );
            for row in rows {
                let c = row.config;
                let _ = writeln!(
                    out,
                    "{:<16} {:>9} {:>9} {:>11} {:>15} {:>9} {:>11}",
                    row.label,
                    c.l1_ports,
                    c.l1_banks,
                    c.l1_latency,
                    if c.l2_vector_ports == 0 {
                        "-".to_string()
                    } else {
                        format!("{}x{}", c.l2_vector_ports, c.l2_vector_width)
                    },
                    c.l2_banks,
                    c.l2_latency,
                );
            }
            out
        }
        StaticRows::Inventory(rows) => {
            let mut out = String::new();
            let _ = writeln!(out, "Opcode inventories of the emulation libraries");
            let _ = writeln!(out, "{:<8} {:>10} {:>10}", "ISA", "modelled", "paper");
            for row in rows {
                let _ = writeln!(
                    out,
                    "{:<8} {:>10} {:>10}",
                    row.isa.to_string(),
                    row.modelled,
                    row.paper.map(|c| c.to_string()).unwrap_or_else(|| "-".into()),
                );
            }
            let _ = writeln!(out);
            let _ = writeln!(out, "Register file summary (Table 2 logical registers):");
            let _ = writeln!(out, "  MMX  : 32 media registers");
            let _ = writeln!(out, "  MDMX : 32 media registers + 4 packed accumulators");
            let _ = writeln!(
                out,
                "  MOM  : 16 matrix registers (16 x 64-bit words) + 2 accumulators + VL register"
            );
            out
        }
    }
}

/// Look up one cell by (workload label, config label, width).
fn find_cell<'a>(
    cells: &'a [CellResult],
    workload: &str,
    config_label: &str,
    way: usize,
) -> Option<&'a CellResult> {
    cells
        .iter()
        .find(|c| c.workload.label() == workload && c.config_label == config_label && c.way == way)
}

/// The Figure 5 layout: one section per workload, one row per config, one
/// speed-up column per width.
fn render_width_table(spec: &ExperimentSpec, grid: &GridSpec, cells: &[CellResult]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{}{}", spec.title, fast_marker(spec.fast));
    for workload in &grid.workloads {
        let _ = writeln!(out);
        let _ = writeln!(out, "{workload}");
        let mut header = format!("{:<8}", "isa");
        for way in &grid.widths {
            header.push_str(&format!(" {:>10}", format!("{way}-way")));
        }
        let _ = writeln!(out, "{header}");
        for config in &grid.configs {
            let mut row = format!("{:<8}", config.label);
            for &way in &grid.widths {
                let value = find_cell(cells, workload.label(), &config.label, way)
                    .and_then(|c| c.speedup)
                    .unwrap_or(f64::NAN);
                row.push_str(&format!(" {value:>10.2}"));
            }
            let _ = writeln!(out, "{row}");
        }
    }
    out
}

/// The baseline-free layout (the design-space sweep): one section per
/// workload, one row per config, one IPC column per width.
fn render_ipc_table(spec: &ExperimentSpec, grid: &GridSpec, cells: &[CellResult]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{}{}", spec.title, fast_marker(spec.fast));
    let label_width = grid.configs.iter().map(|c| c.label.len()).max().unwrap_or(8).max(8);
    for workload in &grid.workloads {
        let _ = writeln!(out);
        let _ = writeln!(out, "{workload} (IPC)");
        let mut header = format!("{:<label_width$}", "config");
        for way in &grid.widths {
            header.push_str(&format!(" {:>10}", format!("{way}-way")));
        }
        let _ = writeln!(out, "{header}");
        for config in &grid.configs {
            let mut row = format!("{:<label_width$}", config.label);
            for &way in &grid.widths {
                let value = find_cell(cells, workload.label(), &config.label, way)
                    .map(|c| c.ipc())
                    .unwrap_or(f64::NAN);
                row.push_str(&format!(" {value:>10.3}"));
            }
            let _ = writeln!(out, "{row}");
        }
    }
    out
}

/// Render the resolved machine grid of an experiment: one line per cell with
/// the full [`mom_cpu::MachineDescriptor`] the runner would instantiate
/// (`momlab describe`). Static experiments have no machine grid.
pub fn describe(spec: &ExperimentSpec) -> String {
    let mut out = String::new();
    let Some(grid) = spec.grid() else {
        let _ = writeln!(out, "{}: static experiment (no machine grid)", spec.name);
        return out;
    };
    let cells = grid.cells();
    // The shared-pass count comes from the runner's own grouping function,
    // so the printed number can never drift from what runs.
    let passes = crate::runner::groups(grid, &cells, crate::runner::ExecMode::Fanout).len();
    let _ = writeln!(
        out,
        "{}: {} cells over {} shared functional passes{}",
        spec.name,
        cells.len(),
        passes,
        fast_marker(spec.fast)
    );
    let workload_width =
        grid.workloads.iter().map(|w| w.label().len()).max().unwrap_or(8).max(8);
    let label_width = grid.configs.iter().map(|c| c.label.len()).max().unwrap_or(6).max(6);
    for (i, cell) in cells.iter().enumerate() {
        let config = &grid.configs[cell.config];
        let descriptor = config.descriptor(cell.way);
        let _ = writeln!(
            out,
            "{i:>4}  {:<workload_width$}  {:<label_width$}  {}",
            cell.workload.label(),
            config.label,
            descriptor.summary(),
        );
    }
    out
}

/// The latency-tolerance layout: per-kernel slow-down rows plus per-ISA
/// bands. Slow-downs are re-derived from the raw cycle counts of the paired
/// `lat1`/`lat50` cells.
fn render_latency(spec: &ExperimentSpec, grid: &GridSpec, cells: &[CellResult]) -> String {
    let isas = grid.isas();
    let slowdown = |workload: &str, isa: IsaKind| -> f64 {
        let of_latency = |latency: u64| {
            cells
                .iter()
                .find(|c| {
                    c.workload.label() == workload
                        && c.isa == isa
                        && c.mem == MemModelKind::Perfect { latency }
                })
                .map(|c| c.cycles)
        };
        match (of_latency(1), of_latency(50)) {
            (Some(fast), Some(slow)) => slow as f64 / fast.max(1) as f64,
            _ => f64::NAN,
        }
    };

    let mut out = String::new();
    let _ = writeln!(out, "{}{}", spec.title, fast_marker(spec.fast));
    let mut header = format!("{:<16}", "kernel");
    for isa in &isas {
        header.push_str(&format!(" {:>8}", isa.label()));
    }
    let _ = writeln!(out, "{header}");
    for workload in &grid.workloads {
        let mut row = format!("{:<16}", workload.label());
        for &isa in &isas {
            row.push_str(&format!(" {:>8.2}", slowdown(workload.label(), isa)));
        }
        let _ = writeln!(out, "{row}");
    }

    let _ = writeln!(out);
    let _ = writeln!(out, "Slow-down bands across kernels:");
    for &isa in &isas {
        let values: Vec<f64> =
            grid.workloads.iter().map(|w| slowdown(w.label(), isa)).collect();
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(0.0, f64::max);
        let _ = writeln!(out, "  {:<6} {min:.1}x .. {max:.1}x", isa.label());
    }
    out
}

/// The Figure 7 layout: one section per application, one row per machine
/// configuration (wide labels), one speed-up column per width.
fn render_config_table(spec: &ExperimentSpec, grid: &GridSpec, cells: &[CellResult]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{}{}", spec.title, fast_marker(spec.fast));
    for workload in &grid.workloads {
        let _ = writeln!(out);
        let _ = writeln!(out, "{workload}");
        let mut header = format!("{:<32}", "configuration");
        for way in &grid.widths {
            header.push_str(&format!(" {:>8}", format!("{way}-way")));
        }
        let _ = writeln!(out, "{header}");
        for config in &grid.configs {
            let mut row = format!("{:<32}", config.label);
            for &way in &grid.widths {
                let value = find_cell(cells, workload.label(), &config.label, way)
                    .and_then(|c| c.speedup)
                    .unwrap_or(f64::NAN);
                row.push_str(&format!(" {value:>8.2}"));
            }
            let _ = writeln!(out, "{row}");
        }
    }
    out
}

/// Render the stall-cycle attribution stack of a grid run: one line per
/// cell, its total commit-slot cycles and the top three stall causes by
/// share. Kept separate from [`render`] so the golden-pinned report format
/// stays untouched; `momlab run` prints this block after the report.
/// Returns `None` for static experiments.
pub fn render_breakdown(result: &RunResult) -> Option<String> {
    let cells = result.cells()?;
    let mut out = String::new();
    let _ = writeln!(out, "Stall-cycle attribution (top causes per cell):");
    for cell in cells {
        let b = &cell.breakdown;
        let stack = b
            .ranked()
            .into_iter()
            .filter(|&(_, cycles)| cycles > 0)
            .take(3)
            .map(|(cause, cycles)| {
                format!("{} {:.0}%", cause.label(), cycles as f64 * 100.0 / b.total_cycles.max(1) as f64)
            })
            .collect::<Vec<_>>()
            .join(" | ");
        let _ = writeln!(
            out,
            "  {} / {} ({}-way): {} cycles — {}",
            cell.workload.label(),
            cell.config_label,
            cell.way,
            b.total_cycles,
            stack,
        );
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run, RunOptions};
    use crate::spec::StaticKind;

    #[test]
    fn static_reports_match_the_legacy_headers() {
        for (name, header) in [
            ("table1", "Table 1: Processor configurations"),
            ("table2", "Table 2: Multimedia register file configurations (4-way machine)"),
            ("table3", "Table 3: Port configuration of the memory models"),
            ("isa_inventory", "Opcode inventories of the emulation libraries"),
        ] {
            let spec = ExperimentSpec::builtin(name, 1, true).unwrap();
            assert!(matches!(spec.kind, crate::spec::ExperimentKind::Static(_)));
            let text = render(&run(&spec, &RunOptions::with_workers(1)));
            assert!(text.starts_with(header), "{name} header drifted:\n{text}");
            assert!(
                !text.contains("[fast mode"),
                "static tables never carry the fast marker:\n{text}"
            );
            assert!(text.ends_with('\n'));
        }
        // StaticKind is exported for spec construction.
        let _ = StaticKind::Table1;
    }

    #[test]
    fn fast_marker_toggles() {
        assert_eq!(fast_marker(false), "");
        assert!(fast_marker(true).contains("fast mode"));
    }

    #[test]
    fn describe_prints_one_descriptor_line_per_cell() {
        let spec = ExperimentSpec::builtin("figure5", 1, true).unwrap();
        let grid = spec.grid().unwrap();
        let text = describe(&spec);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1 + grid.cells().len(), "header + one line per cell");
        assert!(lines[0].contains("32 cells over 8 shared functional passes"), "{}", lines[0]);
        // Every cell line carries the resolved descriptor summary.
        assert!(lines[1].contains("1-way alpha"), "{}", lines[1]);
        assert!(lines[1].contains("rob=8"), "{}", lines[1]);
        assert!(lines[1].contains("mem=perfect-1"), "{}", lines[1]);
        // Apps group per workload (scalar phases shared across ISA lanes).
        let fig7 = ExperimentSpec::builtin("figure7", 1, true).unwrap();
        assert!(
            describe(&fig7).starts_with("figure7: 10 cells over 2 shared functional passes"),
            "{}",
            describe(&fig7)
        );
        // The sweep's ROB override shows up in the resolved grid.
        let sweep = ExperimentSpec::builtin("sweep", 1, true).unwrap();
        let sweep_text = describe(&sweep);
        assert!(sweep_text.contains("rob=16"), "{sweep_text}");
        assert!(sweep_text.contains("rob=64"), "{sweep_text}");
        assert!(sweep_text.contains("lat50"), "{sweep_text}");
        // Static experiments have no machine grid.
        let table = ExperimentSpec::builtin("table1", 1, true).unwrap();
        assert!(describe(&table).contains("static experiment"));
    }

    #[test]
    fn breakdown_stack_renders_for_grids_only() {
        let spec = ExperimentSpec::builtin("figure5", 1, true).unwrap();
        let result = run(&spec, &RunOptions::with_workers(1));
        let text = render_breakdown(&result).unwrap();
        assert!(text.starts_with("Stall-cycle attribution"), "{text}");
        assert!(text.contains(" cycles — "), "{text}");
        // Every cell gets a line, and shares are percentages of the total.
        assert_eq!(text.lines().count(), 1 + result.cells().unwrap().len());
        let table = ExperimentSpec::builtin("table1", 1, true).unwrap();
        assert!(render_breakdown(&run(&table, &RunOptions::with_workers(1))).is_none());
    }

    #[test]
    fn baseline_free_grids_render_ipc_tables() {
        let spec = ExperimentSpec::builtin("sweep", 1, true).unwrap();
        let result = run(&spec, &RunOptions::with_workers(2));
        let text = render(&result);
        assert!(text.starts_with("Design-space sweep"), "{text}");
        assert!(text.contains("(IPC)"), "{text}");
        assert!(text.contains("mom/rob64/lat1"), "{text}");
        assert!(!text.contains("NaN"), "no speed-up NaNs in a baseline-free grid:\n{text}");
    }
}
