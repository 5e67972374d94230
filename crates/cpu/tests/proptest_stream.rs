//! Property-based equivalence of the streaming and materialized simulation
//! paths: for arbitrary generated instruction sequences *and* arbitrary
//! generated interpreted programs, feeding the simulator as a `TraceSink`
//! (owned instructions one at a time, or chunks through `emit_batch`, the
//! interpreter's path) produces a `SimResult` identical to replaying the
//! collected trace through `SimMachine::simulate_trace`.

use mom_core::program::ProgramBuilder;
use mom_core::state::Machine;
use mom_cpu::{MachineDescriptor, SimResult};
use mom_isa::mem::MemImage;
use mom_isa::regs::r;
use mom_isa::scalar::{AluOp, ScalarOp};
use mom_isa::trace::{
    ArchReg, BranchInfo, DynInst, InstClass, IsaKind, MemAccess, MemKind, Trace, TraceSink,
};
use mom_mem::MemModelKind;
use proptest::prelude::*;

const WIDTHS: [usize; 4] = [1, 2, 4, 8];

/// Decode one generated 4-tuple into a dynamic instruction covering every
/// instruction class, register class (including the MOM matrix registers and
/// accumulator recurrences that stress rename headroom), multi-element
/// vector occupancy, multi-element access lists and both branch outcomes.
fn decode_inst(index: usize, sel: usize, bits: u64, elems: u16, flag: bool) -> DynInst {
    let pc = bits >> 48 & 0x3f;
    let ra = (bits & 31) as u8;
    let rb = (bits >> 5 & 31) as u8;
    let rd = (bits >> 10 & 31) as u8;
    match sel % 10 {
        0 => DynInst::new(InstClass::IntSimple, pc)
            .with_src(ArchReg::int(ra))
            .with_src(ArchReg::int(rb))
            .with_dst(ArchReg::int(rd)),
        1 => DynInst::new(InstClass::IntComplex, pc)
            .with_src(ArchReg::int(ra))
            .with_dst(ArchReg::int(rd)),
        2 => DynInst::new(InstClass::FpSimple, pc)
            .with_src(ArchReg::new(mom_isa::trace::RegClass::Fp, ra))
            .with_dst(ArchReg::new(mom_isa::trace::RegClass::Fp, rd)),
        3 => DynInst::new(InstClass::FpComplex, pc)
            .with_dst(ArchReg::new(mom_isa::trace::RegClass::Fp, rd)),
        4 => DynInst::new(InstClass::MediaSimple, pc)
            .with_src(ArchReg::media(ra % 8))
            .with_dst(ArchReg::mom(rd % 16))
            .with_elems(elems),
        // The MDMX/MOM accumulator recurrence: acc is both source and dest.
        5 => DynInst::new(InstClass::MediaComplex, pc)
            .with_src(ArchReg::mom_acc(ra % 2))
            .with_src(ArchReg::mom(rb % 16))
            .with_dst(ArchReg::mom_acc(ra % 2))
            .with_elems(elems),
        6 => {
            let n = if flag { elems } else { 1 };
            DynInst::new(InstClass::Load, pc)
                .with_src(ArchReg::int(ra))
                .with_dst(ArchReg::int(rd))
                .with_elems(n)
                .with_mem(
                    (0..n as u64)
                        .map(|k| MemAccess {
                            addr: (bits & 0xffff) * 8 + k * 16 + index as u64,
                            size: 8,
                            kind: MemKind::Load,
                        })
                        .collect::<Vec<_>>(),
                )
        }
        7 => DynInst::new(InstClass::Store, pc).with_src(ArchReg::int(ra)).with_mem(vec![
            MemAccess { addr: (bits & 0xffff) * 4, size: 4, kind: MemKind::Store },
        ]),
        8 => DynInst::new(InstClass::Branch, pc).with_branch(BranchInfo {
            taken: flag,
            conditional: bits & 1 == 0,
            target: bits >> 40 & 0x3f,
        }),
        _ => DynInst::new(InstClass::Nop, pc),
    }
}

fn descriptor(way: usize, isa: IsaKind, latency: u64) -> MachineDescriptor {
    MachineDescriptor::for_cell(way, isa, MemModelKind::Perfect { latency })
}

/// The three consumption styles of the same sequence must agree exactly:
/// collected replay, owned pushes, and `emit_batch` chunks of `chunk`.
fn assert_stream_equivalence(
    insts: Vec<DynInst>,
    desc: &MachineDescriptor,
    chunk: usize,
) -> (SimResult, SimResult, SimResult) {
    let collected: Trace = insts.iter().cloned().collect();
    let batch = desc.build().simulate_trace(&collected);

    let mut machine = desc.build();
    let mut sim = machine.sim();
    for insts in collected.insts.chunks(chunk) {
        sim.emit_batch(insts);
    }
    let chunked = sim.finish();

    let mut machine = desc.build();
    let mut sim = machine.sim();
    for inst in insts {
        sim.emit(inst);
    }
    let pushed = sim.finish();

    (batch, chunked, pushed)
}

proptest! {
    // Each case simulates a few hundred instructions three times over; 48
    // cases keep the suite CI-friendly. `PROPTEST_CASES` overrides it.
    #![proptest_config(Config::with_cases(48))]

    #[test]
    fn arbitrary_instruction_streams_simulate_identically(
        raw in prop::collection::vec((0usize..10, proptest::prelude::any::<u64>(), 1u16..=16, proptest::prelude::any::<bool>()), 0..400),
        way_idx in 0usize..4,
        latency in 1u64..8,
        chunk in 1usize..70,
    ) {
        let insts: Vec<DynInst> = raw
            .iter()
            .enumerate()
            .map(|(i, &(sel, bits, elems, flag))| decode_inst(i, sel, bits, elems, flag))
            .collect();
        let n = insts.len() as u64;
        let desc = descriptor(WIDTHS[way_idx], IsaKind::Mom, latency);
        let (batch, chunked, pushed) = assert_stream_equivalence(insts, &desc, chunk);
        prop_assert_eq!(batch, chunked);
        prop_assert_eq!(batch, pushed);
        prop_assert_eq!(batch.committed, n);
    }

    #[test]
    fn arbitrary_interpreted_programs_simulate_identically(
        ops in prop::collection::vec((0usize..4, proptest::prelude::any::<u64>()), 1..200),
        way_idx in 0usize..4,
    ) {
        // Generate a straight-line scalar program, interpret it twice — once
        // collecting the trace, once fused straight into the streaming
        // simulator — and require identical timing.
        let build = |ops: &[(usize, u64)]| {
            let mut b = ProgramBuilder::new(IsaKind::Alpha);
            b.push(ScalarOp::Li { rd: r(20), imm: 0x1000 }); // base pointer, outside the clobbered r1..=r16 range
            for &(sel, bits) in ops {
                let ra = r(1 + (bits & 15) as usize);
                let rd = r(1 + (bits >> 4 & 15) as usize);
                let off = (bits >> 8 & 0xfff) as i64 * 8;
                match sel {
                    0 => b.push(ScalarOp::Alu { op: AluOp::Add, rd, ra, rb: r(1 + (bits >> 20 & 15) as usize) }),
                    1 => b.push(ScalarOp::AluI { op: AluOp::Xor, rd, ra, imm: (bits >> 20) as i64 }),
                    2 => b.push(ScalarOp::Ld { rd, base: r(20), offset: off, size: 8, signed: false }),
                    _ => b.push(ScalarOp::St { rs: ra, base: r(20), offset: off, size: 8 }),
                };
            }
            b.build().expect("straight-line program always builds")
        };
        let desc = descriptor(WIDTHS[way_idx], IsaKind::Alpha, 2);
        let image = || Machine::new(MemImage::new(0x1000, 64 * 1024));

        let trace = build(&ops).run(&mut image()).expect("program terminates");
        let batch = desc.build().simulate_trace(&trace);

        let mut machine = desc.build();
        let mut sim = machine.sim();
        build(&ops).stream(&mut image(), &mut sim).expect("program terminates");
        let fused = sim.finish();

        prop_assert_eq!(batch, fused);
        prop_assert_eq!(batch.committed as usize, trace.len());
    }
}
