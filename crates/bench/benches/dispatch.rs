//! Criterion bench of the pre-decoded µop engine versus the legacy
//! walk-the-instruction-list interpreter.
//!
//! Two workloads isolate the dispatch costs the decoded engine removes:
//!
//! * `packed_heavy` — a MOM loop of strided matrix loads, packed arithmetic
//!   and accumulator streams (deep `Inst` nesting, four-operand vector
//!   instructions, per-row element loops);
//! * `branch_heavy` — a VLC-style scalar loop: table loads, short ALU chains
//!   and a data-dependent branch every few instructions (label resolution
//!   and branch-info assembly dominate the legacy path).
//!
//! Both run the **same** program from the **same** machine state through
//! `decoded` (`Program::stream`, which lowers through `Program::decode`) and
//! `legacy` (`Program::stream_with_fuel_legacy`), streaming into a counting
//! sink so neither side pays trace materialization; `decode_only` times the
//! lowering itself. The machine uses a small memory image, so the printed
//! ns/iter ratio is the interpreter dispatch cost itself. `MOM_BENCH_FAST=1`
//! shrinks the iteration counts so the smoke test stays quick.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use mom_core::matrix::{v, va};
use mom_core::ops::MomOp;
use mom_core::program::{Program, ProgramBuilder, DEFAULT_FUEL};
use mom_core::state::Machine;
use mom_isa::mdmx::AccOp;
use mom_isa::mem::MemImage;
use mom_isa::mmx::PackedBinOp;
use mom_isa::packed::{Lane, Saturation};
use mom_isa::regs::r;
use mom_isa::scalar::{AluOp, Cond, ScalarOp};
use mom_isa::trace::{DynInst, IsaKind, TraceSink};

const MEM_BASE: u64 = 0x1000;
const MEM_SIZE: usize = 64 * 1024;

/// Sink that counts instructions without materializing anything.
struct Count(usize);

impl TraceSink for Count {
    fn emit(&mut self, _inst: DynInst) {
        self.0 += 1;
    }
}

fn machine() -> Machine {
    let mut machine = Machine::new(MemImage::new(MEM_BASE, MEM_SIZE));
    for i in 0..(MEM_SIZE / 8) as u64 {
        machine.mem_mut().write_u64(MEM_BASE + i * 8, i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    }
    machine
}

/// A MOM loop: per iteration two strided matrix loads, four packed matrix
/// operations, an accumulator stream and a reduction — the instruction mix
/// of the media kernels.
fn packed_heavy_program(iters: i64) -> Program {
    let mut b = ProgramBuilder::new(IsaKind::Mom);
    b.push(ScalarOp::Li { rd: r(1), imm: MEM_BASE as i64 });
    b.push(ScalarOp::Li { rd: r(2), imm: MEM_BASE as i64 + 0x4000 });
    b.push(ScalarOp::Li { rd: r(3), imm: 32 }); // row stride
    b.push(ScalarOp::Li { rd: r(4), imm: iters });
    b.push(MomOp::SetVlI { vl: 16 });
    let top = b.bind_here();
    b.push(MomOp::Ld { vd: v(0), base: r(1), stride: r(3) });
    b.push(MomOp::Ld { vd: v(1), base: r(2), stride: r(3) });
    b.push(MomOp::Packed {
        op: PackedBinOp::Add,
        vd: v(2),
        va: v(0),
        vb: v(1),
        lane: Lane::U8,
        sat: Saturation::Saturating,
    });
    b.push(MomOp::Packed {
        op: PackedBinOp::AbsDiff,
        vd: v(3),
        va: v(0),
        vb: v(1),
        lane: Lane::U8,
        sat: Saturation::Wrapping,
    });
    b.push(MomOp::Packed {
        op: PackedBinOp::MulLo,
        vd: v(4),
        va: v(2),
        vb: v(3),
        lane: Lane::I16,
        sat: Saturation::Wrapping,
    });
    b.push(MomOp::Shift { kind: mom_isa::mmx::ShiftKind::RightArith, vd: v(5), va: v(4), lane: Lane::I16, amount: 3 });
    b.push(MomOp::AccClear { acc: va(0) });
    b.push(MomOp::Acc { op: AccOp::AbsDiffAdd, acc: va(0), va: v(0), vb: v(1), lane: Lane::U8 });
    b.push(MomOp::ReduceAcc { rd: r(5), acc: va(0) });
    b.push(MomOp::St { vs: v(5), base: r(1), stride: r(3) });
    b.push(ScalarOp::AluI { op: AluOp::Add, rd: r(4), ra: r(4), imm: -1 });
    b.push(ScalarOp::Br { cond: Cond::Gt, ra: r(4), rb: r(31), target: top });
    b.build().expect("packed-heavy program builds")
}

/// A VLC-style scalar loop: a byte fetch, a table lookup, a data-dependent
/// branch and a short ALU chain per iteration — the shape of the entropy-
/// coding phases that bound whole-program speedups.
fn branch_heavy_program(iters: i64) -> Program {
    let mut b = ProgramBuilder::new(IsaKind::Alpha);
    b.push(ScalarOp::Li { rd: r(1), imm: MEM_BASE as i64 });
    b.push(ScalarOp::Li { rd: r(2), imm: MEM_BASE as i64 + 0x4000 });
    b.push(ScalarOp::Li { rd: r(3), imm: iters });
    b.push(ScalarOp::Li { rd: r(4), imm: 0 });
    let top = b.bind_here();
    b.push(ScalarOp::AluI { op: AluOp::And, rd: r(10), ra: r(3), imm: 0x3ff8 });
    b.push(ScalarOp::Alu { op: AluOp::Add, rd: r(10), ra: r(10), rb: r(1) });
    b.push(ScalarOp::Ld { rd: r(11), base: r(10), offset: 0, size: 1, signed: false });
    b.push(ScalarOp::AluI { op: AluOp::Sll, rd: r(12), ra: r(11), imm: 3 });
    b.push(ScalarOp::Alu { op: AluOp::Add, rd: r(12), ra: r(12), rb: r(2) });
    b.push(ScalarOp::Ld { rd: r(13), base: r(12), offset: 0, size: 2, signed: false });
    b.push(ScalarOp::AluI { op: AluOp::And, rd: r(14), ra: r(13), imm: 1 });
    let skip = b.new_label();
    b.push(ScalarOp::Br { cond: Cond::Eq, ra: r(14), rb: r(31), target: skip });
    b.push(ScalarOp::AluI { op: AluOp::Sra, rd: r(15), ra: r(13), imm: 3 });
    b.push(ScalarOp::Alu { op: AluOp::Xor, rd: r(4), ra: r(4), rb: r(15) });
    b.bind(skip);
    b.push(ScalarOp::Alu { op: AluOp::Add, rd: r(4), ra: r(4), rb: r(13) });
    b.push(ScalarOp::AluI { op: AluOp::Srl, rd: r(16), ra: r(4), imm: 5 });
    b.push(ScalarOp::Alu { op: AluOp::Xor, rd: r(4), ra: r(4), rb: r(16) });
    b.push(ScalarOp::AluI { op: AluOp::Add, rd: r(3), ra: r(3), imm: -1 });
    b.push(ScalarOp::Br { cond: Cond::Gt, ra: r(3), rb: r(31), target: top });
    b.build().expect("branch-heavy program builds")
}

/// Run one program through both engines once and report the dynamic count,
/// asserting the two engines agree (a cheap inline sanity check on top of
/// the proptest suite).
fn dynamic_count(program: &Program) -> usize {
    let mut decoded_sink = Count(0);
    program.stream(&mut machine(), &mut decoded_sink).expect("terminates");
    let mut legacy_sink = Count(0);
    program
        .stream_with_fuel_legacy(&mut machine(), &mut legacy_sink, DEFAULT_FUEL)
        .expect("terminates");
    assert_eq!(decoded_sink.0, legacy_sink.0, "engines must agree on dynamic counts");
    decoded_sink.0
}

fn bench_dispatch(c: &mut Criterion) {
    let iters: i64 = if mom_bench::fast_mode() { 2_000 } else { 50_000 };

    let mut group = c.benchmark_group("dispatch");
    group.sample_size(10);

    for (name, program) in
        [("packed_heavy", packed_heavy_program(iters)), ("branch_heavy", branch_heavy_program(iters))]
    {
        println!("{name}: {} dynamic instructions per iteration", dynamic_count(&program));
        group.bench_with_input(BenchmarkId::new(name, "decoded"), &program, |b, program| {
            b.iter(|| {
                let mut sink = Count(0);
                program.stream(&mut machine(), &mut sink).expect("terminates");
                black_box(sink.0)
            });
        });
        group.bench_with_input(BenchmarkId::new(name, "legacy"), &program, |b, program| {
            b.iter(|| {
                let mut sink = Count(0);
                program
                    .stream_with_fuel_legacy(&mut machine(), &mut sink, DEFAULT_FUEL)
                    .expect("terminates");
                black_box(sink.0)
            });
        });
        // Decode-once cost in isolation (paid per `Program::stream` call).
        group.bench_with_input(BenchmarkId::new(name, "decode_only"), &program, |b, program| {
            b.iter(|| black_box(program.decode().len()));
        });
    }

    group.finish();
}

criterion_group!(benches, bench_dispatch);
criterion_main!(benches);
