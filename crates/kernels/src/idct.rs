//! The `idct` kernel: 8×8 inverse discrete cosine transform (mpeg2/jpeg
//! decode).
//!
//! All versions implement the same separable fixed-point algorithm as the
//! golden reference ([`crate::reference::idct_8x8`]): two passes of an
//! 8-point transform with integer weights scaled by 128, round-to-nearest and
//! 16-bit saturation, with a transpose between and after the passes.
//!
//! * **Alpha** — triple-nested scalar loops, one multiply-accumulate at a time.
//! * **MMX** — four pixels per operation, but every 16×16→32-bit product needs
//!   the `mullo`/`mulhi`/`unpack` data-promotion dance and four 32-bit
//!   register accumulators: this is the pack/unpack overhead the paper
//!   contrasts with accumulator-based ISAs.
//! * **MDMX** — the packed accumulator absorbs the products, but one
//!   multiply-accumulate instruction is still issued per input row and the
//!   accumulator recurrence serialises them.
//! * **MOM** — the eight input rows live in one matrix register (a single
//!   strided load); one matrix multiply-accumulate against a preloaded
//!   coefficient matrix produces each output row, and the register-pair
//!   transpose switches dimensions between passes.

use crate::reference::{idct_8x8, idct_weights};
use crate::scaffold::Scaffold;
use crate::workload::CoeffBlocks;
use crate::{BuiltKernel, KernelKind, KernelParams};
use mom_core::matrix::{v, va};
use mom_core::ops::MomOp;
use mom_isa::mdmx::{AccOp, MdmxOp};
use mom_isa::mmx::{MmxOp, PackedBinOp, ShiftKind};
use mom_isa::packed::{Lane, PackedWord, Saturation};
use mom_isa::regs::{a, m, r};
use mom_isa::scalar::{AluOp, Cond, ScalarOp};
use mom_isa::trace::IsaKind;

/// Bytes per 8×8 block of 16-bit coefficients.
const BLOCK_BYTES: usize = 128;

struct Layout {
    in_addr: u64,
    out_addr: u64,
    scratch_addr: u64,
    wsplat_addr: u64,
    wcol_addr: u64,
    wmat_addr: u64,
    blocks: usize,
    expected: Vec<u8>,
}

fn splat16(value: i64) -> u64 {
    PackedWord::splat(Lane::I16, value).bits()
}

fn layout(s: &mut Scaffold, params: &KernelParams) -> Layout {
    let blocks = 16 * params.scale.max(1);
    let coeffs = CoeffBlocks::synthetic(blocks, params.seed);
    let w = idct_weights();

    let in_addr = s.alloc_i16(&coeffs.data, 64);
    let out_addr = s.alloc_zeroed(blocks * BLOCK_BYTES, 64);
    let scratch_addr = s.alloc_zeroed(BLOCK_BYTES, 64);

    // Per-(r,k) coefficient splats for MMX/MDMX pass 1.
    let mut wsplat = Vec::with_capacity(64);
    for row in &w {
        for &coeff in row {
            wsplat.push(splat16(coeff as i64));
        }
    }
    let wsplat_addr = s.alloc_u64(&wsplat, 8);

    // Column vectors of W for MMX/MDMX pass 2: for each k, the lo word holds
    // (W[0][k], .., W[3][k]) and the hi word (W[4][k], .., W[7][k]).
    let mut wcol = Vec::with_capacity(16);
    #[allow(clippy::needless_range_loop)] // k indexes columns across all 8 rows of w
    for k in 0..8 {
        wcol.push(
            PackedWord::from_i16_lanes([w[0][k] as i16, w[1][k] as i16, w[2][k] as i16, w[3][k] as i16])
                .bits(),
        );
        wcol.push(
            PackedWord::from_i16_lanes([w[4][k] as i16, w[5][k] as i16, w[6][k] as i16, w[7][k] as i16])
                .bits(),
        );
    }
    let wcol_addr = s.alloc_u64(&wcol, 8);

    // Coefficient matrices for MOM: matrix r has eight rows, row k a splat of
    // W[r][k].
    let mut wmat = Vec::with_capacity(64);
    for row in &w {
        for &coeff in row {
            wmat.push(splat16(coeff as i64));
        }
    }
    let wmat_addr = s.alloc_u64(&wmat, 8);

    let mut expected = Vec::with_capacity(blocks * BLOCK_BYTES);
    for b in 0..blocks {
        let mut block = [0i16; 64];
        block.copy_from_slice(coeffs.block(b));
        for value in idct_8x8(&block) {
            expected.extend_from_slice(&value.to_le_bytes());
        }
    }
    Layout { in_addr, out_addr, scratch_addr, wsplat_addr, wcol_addr, wmat_addr, blocks, expected }
}

fn finish(s: Scaffold, lay: Layout, isa: IsaKind) -> BuiltKernel {
    BuiltKernel {
        kind: KernelKind::Idct,
        isa,
        machine: s.machine,
        program: s.b.build().expect("idct program has consistent labels"),
        expected: lay.expected,
        output_addr: lay.out_addr,
    }
}

/// Build the IDCT kernel for the requested ISA.
pub fn build(isa: IsaKind, params: &KernelParams) -> BuiltKernel {
    match isa {
        IsaKind::Alpha => build_alpha(params),
        IsaKind::Mmx | IsaKind::Mdmx => build_media(isa, params),
        IsaKind::Mom => build_mom(params),
    }
}

/// Scalar baseline.
///
/// Registers: `r1` input block, `r3` output block, `r4` remaining blocks,
/// `r5` scratch base, `r10` accumulator, `r11`-`r13` scratch.
fn build_alpha(params: &KernelParams) -> BuiltKernel {
    let mut s = Scaffold::new(IsaKind::Alpha);
    let lay = layout(&mut s, params);
    let w = idct_weights();

    s.li(r(1), lay.in_addr as i64);
    s.li(r(3), lay.out_addr as i64);
    s.li(r(4), lay.blocks as i64);
    s.li(r(5), lay.scratch_addr as i64);

    let block_loop = s.b.bind_here();
    // Pass 1: scratch = W * in, reading columns of the input.
    for pass in 0..2usize {
        let (src, src_is_scratch, dst) = if pass == 0 { (r(1), false, r(5)) } else { (r(5), true, r(3)) };
        for row in 0..8usize {
            for col in 0..8usize {
                s.li(r(10), 0);
                #[allow(clippy::needless_range_loop)] // k addresses both memory offsets and w
                for k in 0..8usize {
                    // Pass 1 walks input columns (element [k][col]); pass 2
                    // walks scratch rows (element [row][k]) against W[col][k].
                    let (offset, weight) = if !src_is_scratch {
                        (((k * 8 + col) * 2) as i64, w[row][k])
                    } else {
                        (((row * 8 + k) * 2) as i64, w[col][k])
                    };
                    s.b.push(ScalarOp::Ld { rd: r(11), base: src, offset, size: 2, signed: true });
                    s.li(r(12), weight as i64);
                    s.b.push(ScalarOp::Alu { op: AluOp::Mul, rd: r(13), ra: r(11), rb: r(12) });
                    s.b.push(ScalarOp::Alu { op: AluOp::Add, rd: r(10), ra: r(10), rb: r(13) });
                }
                s.b.push(ScalarOp::AluI { op: AluOp::Add, rd: r(10), ra: r(10), imm: 64 });
                s.b.push(ScalarOp::AluI { op: AluOp::Sra, rd: r(10), ra: r(10), imm: 7 });
                s.b.push(ScalarOp::St {
                    rs: r(10),
                    base: dst,
                    offset: ((row * 8 + col) * 2) as i64,
                    size: 2,
                });
            }
        }
    }
    s.addi(r(1), r(1), BLOCK_BYTES as i64);
    s.addi(r(3), r(3), BLOCK_BYTES as i64);
    s.addi(r(4), r(4), -1);
    s.b.push(ScalarOp::Br { cond: Cond::Gt, ra: r(4), rb: r(31), target: block_loop });

    finish(s, lay, IsaKind::Alpha)
}

/// MMX / MDMX implementation.
///
/// Registers: `r1` input block, `r3` output block, `r4` remaining blocks,
/// `r5` scratch base, `r20` pass-1 coefficient splat table, `r21` pass-2
/// coefficient column table, `r11` scalar scratch; media registers `m1`-`m9`
/// scratch, `m10`-`m13` 32-bit accumulators (MMX only), `m30` rounding splat.
fn build_media(isa: IsaKind, params: &KernelParams) -> BuiltKernel {
    let mut s = Scaffold::new(isa);
    let lay = layout(&mut s, params);

    s.li(r(1), lay.in_addr as i64);
    s.li(r(3), lay.out_addr as i64);
    s.li(r(4), lay.blocks as i64);
    s.li(r(5), lay.scratch_addr as i64);
    s.li(r(20), lay.wsplat_addr as i64);
    s.li(r(21), lay.wcol_addr as i64);
    // Rounding constant 64 in both 32-bit lanes (used by the MMX path).
    let round_addr = s.alloc_u64(&[PackedWord::from_i32_lanes([64, 64]).bits()], 8);
    s.li(r(22), round_addr as i64);
    s.push_media(MmxOp::Ld { md: m(30), base: r(22), offset: 0 });

    let block_loop = s.b.bind_here();
    for pass in 0..2usize {
        let (dst, dst_is_scratch) = if pass == 0 { (r(5), true) } else { (r(3), false) };
        let _ = dst_is_scratch;
        for row in 0..8usize {
            if isa == IsaKind::Mdmx {
                s.b.push(MdmxOp::AccClear { acc: a(0) });
                s.b.push(MdmxOp::AccClear { acc: a(1) });
            } else {
                for acc_reg in 10..14 {
                    s.push_media(MmxOp::Packed {
                        op: PackedBinOp::Xor,
                        md: m(acc_reg),
                        ma: m(acc_reg),
                        mb: m(acc_reg),
                        lane: Lane::I32,
                        sat: Saturation::Wrapping,
                    });
                }
            }
            for k in 0..8usize {
                if pass == 0 {
                    // Data: input row k (two words); weight: splat of W[row][k].
                    s.push_media(MmxOp::Ld { md: m(1), base: r(1), offset: (k * 16) as i64 });
                    s.push_media(MmxOp::Ld { md: m(2), base: r(1), offset: (k * 16 + 8) as i64 });
                    s.push_media(MmxOp::Ld { md: m(3), base: r(20), offset: ((row * 8 + k) * 8) as i64 });
                } else {
                    // Data: column vectors of W; weight: splat of scratch[row][k].
                    s.push_media(MmxOp::Ld { md: m(1), base: r(21), offset: (k * 16) as i64 });
                    s.push_media(MmxOp::Ld { md: m(2), base: r(21), offset: (k * 16 + 8) as i64 });
                    s.b.push(ScalarOp::Ld {
                        rd: r(11),
                        base: r(5),
                        offset: ((row * 8 + k) * 2) as i64,
                        size: 2,
                        signed: true,
                    });
                    s.push_media(MmxOp::Splat { md: m(3), rs: r(11), lane: Lane::I16 });
                }
                if isa == IsaKind::Mdmx {
                    s.b.push(MdmxOp::Acc { op: AccOp::MulAdd, acc: a(0), ma: m(1), mb: m(3), lane: Lane::I16 });
                    s.b.push(MdmxOp::Acc { op: AccOp::MulAdd, acc: a(1), ma: m(2), mb: m(3), lane: Lane::I16 });
                } else {
                    for (word, accs) in [(m(1), (10, 11)), (m(2), (12, 13))] {
                        s.push_media(MmxOp::Packed {
                            op: PackedBinOp::MulLo,
                            md: m(4),
                            ma: word,
                            mb: m(3),
                            lane: Lane::I16,
                            sat: Saturation::Wrapping,
                        });
                        s.push_media(MmxOp::Packed {
                            op: PackedBinOp::MulHi,
                            md: m(5),
                            ma: word,
                            mb: m(3),
                            lane: Lane::I16,
                            sat: Saturation::Wrapping,
                        });
                        s.push_media(MmxOp::UnpackLo { md: m(6), ma: m(4), mb: m(5), lane: Lane::I16 });
                        s.push_media(MmxOp::UnpackHi { md: m(7), ma: m(4), mb: m(5), lane: Lane::I16 });
                        s.push_media(MmxOp::Packed {
                            op: PackedBinOp::Add,
                            md: m(accs.0),
                            ma: m(accs.0),
                            mb: m(6),
                            lane: Lane::I32,
                            sat: Saturation::Wrapping,
                        });
                        s.push_media(MmxOp::Packed {
                            op: PackedBinOp::Add,
                            md: m(accs.1),
                            ma: m(accs.1),
                            mb: m(7),
                            lane: Lane::I32,
                            sat: Saturation::Wrapping,
                        });
                    }
                }
            }
            // Read back one output row (eight 16-bit results).
            if isa == IsaKind::Mdmx {
                s.b.push(MdmxOp::ReadAcc { md: m(8), acc: a(0), lane: Lane::I16, shift: 7, sat: Saturation::Saturating });
                s.b.push(MdmxOp::ReadAcc { md: m(9), acc: a(1), lane: Lane::I16, shift: 7, sat: Saturation::Saturating });
            } else {
                for acc_reg in 10..14 {
                    s.push_media(MmxOp::Packed {
                        op: PackedBinOp::Add,
                        md: m(acc_reg),
                        ma: m(acc_reg),
                        mb: m(30),
                        lane: Lane::I32,
                        sat: Saturation::Wrapping,
                    });
                    s.push_media(MmxOp::Shift {
                        kind: ShiftKind::RightArith,
                        md: m(acc_reg),
                        ms: m(acc_reg),
                        lane: Lane::I32,
                        amount: 7,
                    });
                }
                s.push_media(MmxOp::Pack { md: m(8), ma: m(10), mb: m(11), from: Lane::I32, to_signed: true });
                s.push_media(MmxOp::Pack { md: m(9), ma: m(12), mb: m(13), from: Lane::I32, to_signed: true });
            }
            s.push_media(MmxOp::St { ms: m(8), base: dst, offset: (row * 16) as i64 });
            s.push_media(MmxOp::St { ms: m(9), base: dst, offset: (row * 16 + 8) as i64 });
        }
    }
    s.addi(r(1), r(1), BLOCK_BYTES as i64);
    s.addi(r(3), r(3), BLOCK_BYTES as i64);
    s.addi(r(4), r(4), -1);
    s.b.push(ScalarOp::Br { cond: Cond::Gt, ra: r(4), rb: r(31), target: block_loop });

    finish(s, lay, isa)
}

/// MOM implementation.
///
/// Registers: `r1` input block, `r3` output block, `r4` remaining blocks,
/// `r7` coefficient-matrix row stride, `r8` block row stride, `r20`/`r10`/
/// `r11` address scratch; matrix registers `v0`/`v1` inputs, `v2`/`v3` pass
/// outputs, `v4`/`v5` transposed, `v6`/`v7` second-pass outputs, `v8`-`v15`
/// the eight preloaded coefficient matrices.
fn build_mom(params: &KernelParams) -> BuiltKernel {
    let mut s = Scaffold::new(IsaKind::Mom);
    let lay = layout(&mut s, params);

    s.li(r(1), lay.in_addr as i64);
    s.li(r(3), lay.out_addr as i64);
    s.li(r(4), lay.blocks as i64);
    s.li(r(7), 8); // coefficient matrix row stride
    s.li(r(8), 16); // block row stride
    s.b.push(MomOp::SetVlI { vl: 8 });
    for row in 0..8usize {
        s.li(r(20), (lay.wmat_addr + (row * 64) as u64) as i64);
        s.b.push(MomOp::Ld { vd: v(8 + row), base: r(20), stride: r(7) });
    }

    let block_loop = s.b.bind_here();
    s.b.push(MomOp::Ld { vd: v(0), base: r(1), stride: r(8) });
    s.addi(r(10), r(1), 8);
    s.b.push(MomOp::Ld { vd: v(1), base: r(10), stride: r(8) });

    // Pass 1: (v0, v1) -> (v2, v3).
    for row in 0..8usize {
        s.b.push(MomOp::AccClear { acc: va(0) });
        s.b.push(MomOp::Acc { op: AccOp::MulAdd, acc: va(0), va: v(0), vb: v(8 + row), lane: Lane::I16 });
        s.b.push(MomOp::ReadAcc { md: m(1), acc: va(0), lane: Lane::I16, shift: 7, sat: Saturation::Saturating });
        s.b.push(MomOp::MediaToRow { vd: v(2), row: row as u8, ms: m(1) });
        s.b.push(MomOp::AccClear { acc: va(1) });
        s.b.push(MomOp::Acc { op: AccOp::MulAdd, acc: va(1), va: v(1), vb: v(8 + row), lane: Lane::I16 });
        s.b.push(MomOp::ReadAcc { md: m(2), acc: va(1), lane: Lane::I16, shift: 7, sat: Saturation::Saturating });
        s.b.push(MomOp::MediaToRow { vd: v(3), row: row as u8, ms: m(2) });
    }
    // Switch dimensions.
    s.b.push(MomOp::TransposePair { vd_lo: v(4), vd_hi: v(5), va_lo: v(2), va_hi: v(3) });
    // Pass 2: (v4, v5) -> (v6, v7).
    for row in 0..8usize {
        s.b.push(MomOp::AccClear { acc: va(0) });
        s.b.push(MomOp::Acc { op: AccOp::MulAdd, acc: va(0), va: v(4), vb: v(8 + row), lane: Lane::I16 });
        s.b.push(MomOp::ReadAcc { md: m(1), acc: va(0), lane: Lane::I16, shift: 7, sat: Saturation::Saturating });
        s.b.push(MomOp::MediaToRow { vd: v(6), row: row as u8, ms: m(1) });
        s.b.push(MomOp::AccClear { acc: va(1) });
        s.b.push(MomOp::Acc { op: AccOp::MulAdd, acc: va(1), va: v(5), vb: v(8 + row), lane: Lane::I16 });
        s.b.push(MomOp::ReadAcc { md: m(2), acc: va(1), lane: Lane::I16, shift: 7, sat: Saturation::Saturating });
        s.b.push(MomOp::MediaToRow { vd: v(7), row: row as u8, ms: m(2) });
    }
    // Transpose back and store.
    s.b.push(MomOp::TransposePair { vd_lo: v(2), vd_hi: v(3), va_lo: v(6), va_hi: v(7) });
    s.b.push(MomOp::St { vs: v(2), base: r(3), stride: r(8) });
    s.addi(r(11), r(3), 8);
    s.b.push(MomOp::St { vs: v(3), base: r(11), stride: r(8) });

    s.addi(r(1), r(1), BLOCK_BYTES as i64);
    s.addi(r(3), r(3), BLOCK_BYTES as i64);
    s.addi(r(4), r(4), -1);
    s.b.push(ScalarOp::Br { cond: Cond::Gt, ra: r(4), rb: r(31), target: block_loop });

    finish(s, lay, IsaKind::Mom)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verified_trace;

    #[test]
    fn every_isa_matches_the_reference() {
        let params = KernelParams { seed: 21, scale: 1 };
        for isa in IsaKind::ALL {
            verified_trace(build(isa, &params));
        }
    }

    #[test]
    fn mmx_pays_the_data_promotion_tax() {
        // MMX needs mullo/mulhi/unpack per product; MDMX's accumulator removes
        // it, and MOM further removes the per-row instruction overhead.
        let params = KernelParams::default();
        let mmx = verified_trace(build(IsaKind::Mmx, &params));
        let mdmx = verified_trace(build(IsaKind::Mdmx, &params));
        let mom = verified_trace(build(IsaKind::Mom, &params));
        assert!(mmx.len() as f64 > 1.8 * mdmx.len() as f64);
        assert!(mdmx.len() as f64 > 3.0 * mom.len() as f64);
    }

    #[test]
    fn alpha_is_by_far_the_largest_trace() {
        let params = KernelParams::default();
        let alpha = verified_trace(build(IsaKind::Alpha, &params));
        let mom = verified_trace(build(IsaKind::Mom, &params));
        assert!(alpha.len() > 20 * mom.len());
    }
}
