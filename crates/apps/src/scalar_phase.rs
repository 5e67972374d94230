//! Non-vectorizable scalar phases of the applications.
//!
//! Entropy coding, bit-stream parsing, rate control and similar glue code in
//! the Mediabench programs cannot be vectorized by any of the evaluated ISAs;
//! the paper's whole-program results are governed by Amdahl's law over these
//! phases. This module builds a representative scalar phase: a variable-length-
//! code style loop of table lookups, data-dependent branches and short ALU
//! chains, identical for every ISA.

use mom_core::program::{Program, ProgramBuilder};
use mom_core::state::Machine;
use mom_isa::mem::{Allocator, MemImage};
use mom_isa::regs::r;
use mom_isa::scalar::{AluOp, Cond, ScalarOp};
use mom_isa::trace::IsaKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Build a scalar phase of `units` iterations of a VLC-style decode loop:
/// the machine holding its random input symbols and code table, and the
/// program that decodes them. The phase is identical no matter which media
/// ISA the surrounding application targets, which is exactly why it bounds
/// whole-program speedup.
///
/// # Panics
///
/// Panics only if the internally-generated program is malformed, which would
/// be a bug in this module rather than a property of the caller's input.
pub fn build_scalar_phase(units: usize, seed: u64) -> (Machine, Program) {
    let mut rng = StdRng::seed_from_u64(seed);
    let data: Vec<u8> = (0..units.max(1)).map(|_| rng.gen()).collect();
    let table: Vec<u8> =
        (0..512u32).flat_map(|i| (i.wrapping_mul(2_654_435_761) as u16).to_le_bytes()).collect();

    let mem = MemImage::new(0x10_000, (data.len() + table.len() + 4096).next_power_of_two());
    let mut alloc = Allocator::for_image(&mem);
    let mut machine = Machine::new(mem);
    let data_addr = alloc.alloc(data.len(), 8);
    machine.mem_mut().write_bytes(data_addr, &data);
    let table_addr = alloc.alloc(table.len(), 8);
    machine.mem_mut().write_bytes(table_addr, &table);
    let out_addr = alloc.alloc(8, 8);

    let mut b = ProgramBuilder::new(IsaKind::Alpha);
    // r1 = data pointer, r2 = table base, r3 = remaining units, r4 = checksum.
    b.push(ScalarOp::Li { rd: r(1), imm: data_addr as i64 });
    b.push(ScalarOp::Li { rd: r(2), imm: table_addr as i64 });
    b.push(ScalarOp::Li { rd: r(3), imm: units.max(1) as i64 });
    b.push(ScalarOp::Li { rd: r(4), imm: 0 });
    let top = b.bind_here();
    // Fetch a symbol and look up its code.
    b.push(ScalarOp::Ld { rd: r(10), base: r(1), offset: 0, size: 1, signed: false });
    b.push(ScalarOp::AluI { op: AluOp::Sll, rd: r(11), ra: r(10), imm: 1 });
    b.push(ScalarOp::Alu { op: AluOp::Add, rd: r(11), ra: r(11), rb: r(2) });
    b.push(ScalarOp::Ld { rd: r(12), base: r(11), offset: 0, size: 2, signed: false });
    // Data-dependent branch (roughly 50% taken): odd codes update the checksum
    // through a longer path.
    b.push(ScalarOp::AluI { op: AluOp::And, rd: r(13), ra: r(12), imm: 1 });
    let skip = b.new_label();
    b.push(ScalarOp::Br { cond: Cond::Eq, ra: r(13), rb: r(31), target: skip });
    b.push(ScalarOp::AluI { op: AluOp::Sra, rd: r(14), ra: r(12), imm: 3 });
    b.push(ScalarOp::Alu { op: AluOp::Xor, rd: r(4), ra: r(4), rb: r(14) });
    b.push(ScalarOp::AluI { op: AluOp::Add, rd: r(4), ra: r(4), imm: 1 });
    b.bind(skip);
    // Short ALU chain common to both paths.
    b.push(ScalarOp::Alu { op: AluOp::Add, rd: r(4), ra: r(4), rb: r(12) });
    b.push(ScalarOp::AluI { op: AluOp::Srl, rd: r(15), ra: r(4), imm: 5 });
    b.push(ScalarOp::Alu { op: AluOp::Xor, rd: r(4), ra: r(4), rb: r(15) });
    b.push(ScalarOp::AluI { op: AluOp::Add, rd: r(1), ra: r(1), imm: 1 });
    b.push(ScalarOp::AluI { op: AluOp::Add, rd: r(3), ra: r(3), imm: -1 });
    b.push(ScalarOp::Br { cond: Cond::Gt, ra: r(3), rb: r(31), target: top });
    b.push(ScalarOp::Li { rd: r(5), imm: out_addr as i64 });
    b.push(ScalarOp::St { rs: r(4), base: r(5), offset: 0, size: 8 });

    (machine, b.build().expect("scalar phase program has consistent labels"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mom_isa::trace::Trace;

    fn run_scalar_phase(units: usize, seed: u64) -> Trace {
        let (mut machine, program) = build_scalar_phase(units, seed);
        program.run(&mut machine).expect("scalar phase terminates within the fuel budget")
    }

    #[test]
    fn trace_size_scales_with_units() {
        let small = run_scalar_phase(100, 1);
        let large = run_scalar_phase(1000, 1);
        assert!(large.len() > 9 * small.len());
        assert!(small.len() >= 100 * 10);
    }

    #[test]
    fn phase_is_deterministic_and_branchy() {
        let a = run_scalar_phase(500, 7);
        let b = run_scalar_phase(500, 7);
        assert_eq!(a.len(), b.len());
        let stats = a.stats();
        assert!(stats.branches * 10 > stats.total, "VLC loop should be branch-heavy");
        assert_eq!(stats.media, 0, "scalar phases never use media instructions");
    }
}
