//! Property-based tests of the MOM matrix register semantics and the
//! functional interpreter: transposes are involutive, vector length bounds
//! every row-wise operation, and the matrix SAD instruction always agrees with
//! a scalar recomputation.

use mom_core::matrix::{v, va, MatrixValue};
use mom_core::ops::MomOp;
use mom_core::program::ProgramBuilder;
use mom_core::state::Machine;
use mom_isa::mdmx::AccOp;
use mom_isa::mem::MemImage;
use mom_isa::mmx::PackedBinOp;
use mom_isa::packed::{Lane, PackedWord, Saturation};
use mom_isa::regs::r;
use mom_isa::scalar::ScalarOp;
use mom_isa::trace::IsaKind;
use proptest::prelude::*;

fn matrix_strategy() -> impl Strategy<Value = MatrixValue> {
    prop::collection::vec(any::<u64>(), 16)
        .prop_map(|rows| {
            let mut m = MatrixValue::zero();
            for (i, row) in rows.into_iter().enumerate() {
                m.set_row(i, PackedWord::new(row));
            }
            m
        })
}

proptest! {
    // Each case builds and interprets a full MOM program, so the case count
    // is kept low enough for CI. `PROPTEST_CASES` overrides it.
    #![proptest_config(Config::with_cases(64))]

    #[test]
    fn square_transpose_is_involutive(m in matrix_strategy()) {
        prop_assert_eq!(m.transpose(Lane::U8).transpose(Lane::U8), m);
        prop_assert_eq!(m.transpose(Lane::I16).transpose(Lane::I16), m);
    }

    #[test]
    fn zip_rows_never_touches_rows_beyond_vl(a in matrix_strategy(), b in matrix_strategy(), vl in 0usize..=16) {
        let out = a.zip_rows(&b, vl, |x, y| x.add(y, Lane::U8, Saturation::Wrapping));
        for row in vl..16 {
            prop_assert_eq!(out.row(row), a.row(row));
        }
    }

    #[test]
    fn packed_matrix_add_matches_per_row(a in matrix_strategy(), b in matrix_strategy(), vl in 1usize..=16) {
        let mut st = Machine::new(MemImage::new(0, 64));
        st.mom.matrix.write(v(1), a);
        st.mom.matrix.write(v(2), b);
        MomOp::SetVlI { vl: vl as u8 }.execute(&mut st);
        MomOp::Packed {
            op: PackedBinOp::Add,
            vd: v(3),
            va: v(1),
            vb: v(2),
            lane: Lane::U8,
            sat: Saturation::Saturating,
        }
        .execute(&mut st);
        let out = st.mom.matrix.read(v(3));
        for row in 0..vl {
            prop_assert_eq!(out.row(row), a.row(row).add(b.row(row), Lane::U8, Saturation::Saturating));
        }
    }

    #[test]
    fn matrix_sad_program_matches_scalar_recomputation(
        a_bytes in prop::collection::vec(any::<u8>(), 128),
        b_bytes in prop::collection::vec(any::<u8>(), 128),
        vl in 1usize..=16,
    ) {
        // Lay two 16x8 blocks out in memory, run the 4-instruction MOM SAD
        // program and compare with a scalar recomputation over the first `vl`
        // rows.
        let mut machine = Machine::new(MemImage::new(0x1000, 4096));
        machine.mem_mut().write_bytes(0x1000, &a_bytes);
        machine.mem_mut().write_bytes(0x1800, &b_bytes);

        let mut b = ProgramBuilder::new(IsaKind::Mom);
        b.push(ScalarOp::Li { rd: r(1), imm: 0x1000 });
        b.push(ScalarOp::Li { rd: r(2), imm: 0x1800 });
        b.push(ScalarOp::Li { rd: r(3), imm: 8 });
        b.push(MomOp::SetVlI { vl: vl as u8 });
        b.push(MomOp::Ld { vd: v(0), base: r(1), stride: r(3) });
        b.push(MomOp::Ld { vd: v(1), base: r(2), stride: r(3) });
        b.push(MomOp::AccClear { acc: va(0) });
        b.push(MomOp::Acc { op: AccOp::AbsDiffAdd, acc: va(0), va: v(0), vb: v(1), lane: Lane::U8 });
        b.push(MomOp::ReduceAcc { rd: r(4), acc: va(0) });
        let program = b.build().unwrap();
        let trace = program.run(&mut machine).unwrap();

        let expected: i64 = (0..vl * 8)
            .map(|i| (a_bytes[i] as i64 - b_bytes[i] as i64).abs())
            .sum();
        prop_assert_eq!(machine.core.int.read(r(4)), expected);
        // The vector loads must record exactly `vl` element accesses each.
        let loads: Vec<_> = trace.insts.iter().filter(|i| !i.mem.is_empty()).collect();
        prop_assert_eq!(loads.len(), 2);
        prop_assert_eq!(loads[0].mem.len(), vl);
    }

    #[test]
    fn committed_trace_length_matches_dynamic_execution(extra in 0usize..50) {
        // A straight-line program of N instructions always commits exactly N.
        let mut machine = Machine::new(MemImage::new(0, 64));
        let mut b = ProgramBuilder::new(IsaKind::Alpha);
        for i in 0..extra {
            b.push(ScalarOp::Li { rd: r(1 + (i % 8)), imm: i as i64 });
        }
        let program = b.build().unwrap();
        let trace = program.run(&mut machine).unwrap();
        prop_assert_eq!(trace.len(), extra);
    }
}
