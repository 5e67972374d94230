//! An IDCT decode pipeline: inverse DCT followed by saturating residual
//! addition, the core of the MPEG-2 decoder loop.
//!
//! Shows how a downstream user composes two verified kernels, inspects their
//! traces and compares the MMX, MDMX-accumulator and MOM-matrix approaches on
//! the same data.
//!
//! Run with `cargo run --release --example idct_pipeline`.

use momsim::cpu::MachineDescriptor;
use momsim::isa::trace::{IsaKind, Trace};
use momsim::kernels::{build_kernel, KernelKind, KernelParams};
use momsim::mem::MemModelKind;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let params = KernelParams { seed: 11, scale: 1 };
    let stages = [KernelKind::Idct, KernelKind::AddBlock];

    println!("MPEG-2 decode pipeline: idct -> addblock\n");
    for isa in [IsaKind::Mmx, IsaKind::Mdmx, IsaKind::Mom] {
        let mut total_insts = 0usize;
        let mut total_cycles = 0u64;
        for stage in stages {
            let mut trace = Trace::new(isa);
            build_kernel(stage, isa, &params).stream_verified(&mut trace)?;
            let mut core = MachineDescriptor::for_cell(4, isa, MemModelKind::Perfect { latency: 1 }).build();
            let result = core.simulate_trace(&trace);
            println!(
                "  {:<5} {:<10} {:>8} insts {:>8} cycles (IPC {:.2})",
                isa.to_string(),
                stage.to_string(),
                trace.len(),
                result.cycles,
                result.ipc()
            );
            total_insts += trace.len();
            total_cycles += result.cycles;
        }
        println!("  {:<5} pipeline total: {total_insts} insts, {total_cycles} cycles\n", isa.to_string());
    }

    println!("Every stage is verified bit-exactly against the fixed-point reference IDCT and");
    println!("the saturating addblock reference before its trace is timed.");
    Ok(())
}
