//! Quickstart: write a small MOM program by hand, execute it functionally and
//! time it on an out-of-order core.
//!
//! The program computes the sum of absolute differences between two 16x8 pixel
//! blocks stored inside a larger frame — the heart of MPEG-2 motion estimation
//! and the paper's running example.
//!
//! Run with `cargo run --example quickstart`.

use momsim::core::matrix::{v, va};
use momsim::core::ops::MomOp;
use momsim::core::program::ProgramBuilder;
use momsim::core::state::Machine;
use momsim::cpu::MachineDescriptor;
use momsim::isa::mdmx::AccOp;
use momsim::isa::mem::MemImage;
use momsim::isa::packed::Lane;
use momsim::isa::regs::r;
use momsim::isa::scalar::ScalarOp;
use momsim::isa::trace::IsaKind;
use momsim::mem::MemModelKind;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small frame: 64-byte rows, two 16-row blocks that differ by 3 per pixel.
    let mut machine = Machine::new(MemImage::new(0x1000, 8192));
    for row in 0..16u64 {
        for col in 0..8u64 {
            machine.mem_mut().write_u8(0x1000 + row * 64 + col, (row * 8 + col) as u8);
            machine.mem_mut().write_u8(0x1800 + row * 64 + col, (row * 8 + col + 3) as u8);
        }
    }

    // The MOM program: two strided matrix loads, one matrix SAD accumulate,
    // one reduction.
    let mut b = ProgramBuilder::new(IsaKind::Mom);
    b.push(ScalarOp::Li { rd: r(1), imm: 0x1000 });
    b.push(ScalarOp::Li { rd: r(2), imm: 0x1800 });
    b.push(ScalarOp::Li { rd: r(3), imm: 64 }); // row stride
    b.push(MomOp::SetVlI { vl: 16 });
    b.push(MomOp::Ld { vd: v(0), base: r(1), stride: r(3) });
    b.push(MomOp::Ld { vd: v(1), base: r(2), stride: r(3) });
    b.push(MomOp::AccClear { acc: va(0) });
    b.push(MomOp::Acc { op: AccOp::AbsDiffAdd, acc: va(0), va: v(0), vb: v(1), lane: Lane::U8 });
    b.push(MomOp::ReduceAcc { rd: r(4), acc: va(0) });
    let program = b.build()?;

    // Functional execution: architectural result + dynamic trace.
    let trace = program.run(&mut machine)?;
    println!("SAD result           : {}", machine.core.int.read(r(4)));
    println!("dynamic instructions : {}", trace.len());
    let stats = trace.stats();
    println!("vector elements      : {}", stats.vector_elems);
    println!("element mem accesses : {}", stats.mem_accesses);

    // Timing: replay the trace on a 4-way out-of-order core with perfect memory.
    let mut core = MachineDescriptor::for_cell(4, IsaKind::Mom, MemModelKind::Perfect { latency: 1 }).build();
    let result = core.simulate_trace(&trace);
    println!("simulated cycles     : {}", result.cycles);
    println!("IPC                  : {:.2}", result.ipc());
    Ok(())
}
