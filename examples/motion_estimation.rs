//! Motion estimation across the four ISAs.
//!
//! Builds the `motion1` kernel (full-search SAD over a ±4 window) for the
//! scalar baseline, MMX, MDMX and MOM, verifies every version against the
//! golden reference, and compares dynamic instruction counts and simulated
//! cycles on 1-way and 4-way machines — a miniature of the paper's Figure 5.
//!
//! Run with `cargo run --release --example motion_estimation`.

use momsim::cpu::MachineDescriptor;
use momsim::isa::trace::{IsaKind, Trace};
use momsim::kernels::{build_kernel, KernelKind, KernelParams};
use momsim::mem::MemModelKind;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let params = KernelParams { seed: 7, scale: 1 };
    println!("motion1: 16x16 SAD full search, 81 candidates\n");
    println!(
        "{:<8} {:>12} {:>14} {:>14} {:>22}",
        "isa", "dyn insts", "1-way cycles", "4-way cycles", "speedup vs 1-way alpha"
    );

    let mut one_way_alpha = 0u64;
    for isa in IsaKind::ALL {
        let mut trace = Trace::new(isa);
        build_kernel(KernelKind::Motion1, isa, &params).stream_verified(&mut trace)?;
        let mut cycles = Vec::new();
        for way in [1usize, 4] {
            let mut core = MachineDescriptor::for_cell(way, isa, MemModelKind::Perfect { latency: 1 }).build();
            cycles.push(core.simulate_trace(&trace).cycles);
        }
        if isa == IsaKind::Alpha {
            one_way_alpha = cycles[0];
        }
        println!(
            "{:<8} {:>12} {:>14} {:>14} {:>11.1} / {:>7.1}",
            isa.to_string(),
            trace.len(),
            cycles[0],
            cycles[1],
            one_way_alpha as f64 / cycles[0] as f64,
            one_way_alpha as f64 / cycles[1] as f64,
        );
    }

    println!("\nAll four versions are verified bit-exactly against the scalar reference, so");
    println!("they find the same SAD values and the same best motion vector for every block.");
    Ok(())
}
