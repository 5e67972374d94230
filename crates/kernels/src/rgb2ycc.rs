//! The `rgb2ycc` kernel: RGB to YCbCr colour-space conversion (jpeg encode).
//!
//! Every output component is a three-term dot product over the R, G and B
//! planes. The MOM version vectorizes along the colour dimension — a strided
//! matrix load whose rows are the R, G, B (and a constant "ones") planes and a
//! matrix multiply-accumulate against a per-component coefficient matrix. The
//! vector length is therefore only 4, which is why MOM's advantage over MDMX
//! is modest for this kernel (the same observation the paper makes for
//! `rgb2ycc`, where vectorising along the colour space yields VL = 3).

use crate::reference::{rgb2ycc, RGB2YCC_COEFFS, RGB2YCC_OFFSET};
use crate::scaffold::Scaffold;
use crate::workload::RgbImage;
use crate::{BuiltKernel, KernelKind, KernelParams};
use mom_core::matrix::{v, va};
use mom_core::ops::MomOp;
use mom_isa::mdmx::{AccOp, MdmxOp};
use mom_isa::mmx::{MmxOp, PackedBinOp, ShiftKind};
use mom_isa::packed::{Lane, PackedWord, Saturation};
use mom_isa::regs::{a, m, r, MediaReg};
use mom_isa::scalar::{AluOp, Cond, ScalarOp};
use mom_isa::trace::IsaKind;

/// Image width.
const WIDTH: usize = 64;

struct Layout {
    /// Base of the R plane; G, B and the constant "ones" plane follow at
    /// `plane`-byte intervals.
    rgb_addr: u64,
    /// Base of the Y plane; Cb and Cr follow at `plane`-byte intervals.
    out_addr: u64,
    /// Plane size in bytes.
    plane: usize,
    expected: Vec<u8>,
}

/// Write the R, G, B and constant "ones" planes straight into the memory
/// image, one after another from a 64-byte-aligned base, and compute the
/// expected Y, Cb, Cr planes into one buffer from the planes in the image,
/// so the generated image is freed before that buffer is allocated.
fn layout(s: &mut Scaffold, params: &KernelParams) -> Layout {
    let height = 64 * params.scale.max(1);
    let img = RgbImage::synthetic(WIDTH, height, params.seed);
    let plane = img.len();
    let at = |k: usize| (k * plane) as u64;

    let rgb_addr = s.alloc_zeroed(plane * 4, 64);
    let mem = s.machine.mem_mut();
    for (k, channel) in [img.r, img.g, img.b].into_iter().enumerate() {
        mem.write_bytes(rgb_addr + at(k), &channel);
    }
    mem.fill(rgb_addr + at(3), plane, 1); // constant plane for the offset term
    let out_addr = s.alloc_zeroed(plane * 3, 64);

    let channel = |k: usize| s.machine.mem().read_bytes(rgb_addr + at(k), plane);
    let expected = rgb2ycc(channel(0), channel(1), channel(2));
    Layout { rgb_addr, out_addr, plane, expected }
}

fn finish(s: Scaffold, lay: Layout, isa: IsaKind) -> BuiltKernel {
    BuiltKernel {
        kind: KernelKind::Rgb2Ycc,
        isa,
        machine: s.machine,
        program: s.b.build().expect("rgb2ycc program has consistent labels"),
        expected: lay.expected,
        output_addr: lay.out_addr,
    }
}

/// A packed word holding four copies of a 16-bit constant.
fn splat16(value: i64) -> u64 {
    PackedWord::splat(Lane::I16, value).bits()
}

/// Build the colour-conversion kernel for the requested ISA.
pub fn build(isa: IsaKind, params: &KernelParams) -> BuiltKernel {
    match isa {
        IsaKind::Alpha => build_alpha(params),
        IsaKind::Mmx | IsaKind::Mdmx => build_media(isa, params),
        IsaKind::Mom => build_mom(params),
    }
}

/// Scalar baseline: three multiplies, adds, shift and clamp per component.
fn build_alpha(params: &KernelParams) -> BuiltKernel {
    let mut s = Scaffold::new(IsaKind::Alpha);
    let lay = layout(&mut s, params);
    let plane = lay.plane as i64;

    // r1 = input pixel pointer (R plane), r3 = output pointer (Y plane),
    // r4 = remaining pixels, r24 = 255.
    s.li(r(1), lay.rgb_addr as i64);
    s.li(r(3), lay.out_addr as i64);
    s.li(r(4), lay.plane as i64);
    s.li(r(24), 255);

    let pixel_loop = s.b.bind_here();
    s.b.push(ScalarOp::Ld { rd: r(10), base: r(1), offset: 0, size: 1, signed: false });
    s.b.push(ScalarOp::Ld { rd: r(11), base: r(1), offset: plane, size: 1, signed: false });
    s.b.push(ScalarOp::Ld { rd: r(12), base: r(1), offset: 2 * plane, size: 1, signed: false });
    for comp in 0..3usize {
        let c = RGB2YCC_COEFFS[comp];
        let bias = 32 + 64 * RGB2YCC_OFFSET[comp] as i64;
        s.b.push(ScalarOp::AluI { op: AluOp::Mul, rd: r(13), ra: r(10), imm: c[0] as i64 });
        s.b.push(ScalarOp::AluI { op: AluOp::Mul, rd: r(14), ra: r(11), imm: c[1] as i64 });
        s.b.push(ScalarOp::AluI { op: AluOp::Mul, rd: r(15), ra: r(12), imm: c[2] as i64 });
        s.b.push(ScalarOp::Alu { op: AluOp::Add, rd: r(13), ra: r(13), rb: r(14) });
        s.b.push(ScalarOp::Alu { op: AluOp::Add, rd: r(13), ra: r(13), rb: r(15) });
        s.b.push(ScalarOp::AluI { op: AluOp::Add, rd: r(13), ra: r(13), imm: bias });
        s.b.push(ScalarOp::AluI { op: AluOp::Sra, rd: r(13), ra: r(13), imm: 6 });
        // clamp to [0, 255]
        s.b.push(ScalarOp::CmpSet { cond: Cond::Lt, rd: r(16), ra: r(13), rb: r(31) });
        s.b.push(ScalarOp::CMov { rd: r(13), rc: r(16), rs: r(31) });
        s.b.push(ScalarOp::CmpSet { cond: Cond::Gt, rd: r(16), ra: r(13), rb: r(24) });
        s.b.push(ScalarOp::CMov { rd: r(13), rc: r(16), rs: r(24) });
        s.b.push(ScalarOp::St { rs: r(13), base: r(3), offset: comp as i64 * plane, size: 1 });
    }
    s.addi(r(1), r(1), 1);
    s.addi(r(3), r(3), 1);
    s.addi(r(4), r(4), -1);
    s.b.push(ScalarOp::Br { cond: Cond::Gt, ra: r(4), rb: r(31), target: pixel_loop });

    finish(s, lay, IsaKind::Alpha)
}

/// Preload the nine coefficient splats, the per-component bias splats and
/// return the media registers holding them: `coeffs[comp][channel]` and
/// `bias[comp]`.
fn preload_media_constants(s: &mut Scaffold) -> ([[MediaReg; 3]; 3], [MediaReg; 3]) {
    let mut words = Vec::new();
    #[allow(clippy::needless_range_loop)] // comp/ch mirror the [component][channel] table layout
    for comp in 0..3 {
        for ch in 0..3 {
            words.push(splat16(RGB2YCC_COEFFS[comp][ch] as i64));
        }
    }
    #[allow(clippy::needless_range_loop)]
    for comp in 0..3 {
        words.push(splat16(32 + 64 * RGB2YCC_OFFSET[comp] as i64));
    }
    let table = s.alloc_u64(&words, 8);
    s.li(r(20), table as i64);
    let mut coeffs = [[m(0); 3]; 3];
    let mut bias = [m(0); 3];
    let mut reg = 16;
    for (comp, row) in coeffs.iter_mut().enumerate() {
        for (ch, slot) in row.iter_mut().enumerate() {
            *slot = m(reg);
            s.push_media(MmxOp::Ld { md: m(reg), base: r(20), offset: ((comp * 3 + ch) * 8) as i64 });
            reg += 1;
        }
    }
    for (comp, slot) in bias.iter_mut().enumerate() {
        *slot = m(reg);
        s.push_media(MmxOp::Ld { md: m(reg), base: r(20), offset: ((9 + comp) * 8) as i64 });
        reg += 1;
    }
    (coeffs, bias)
}

/// MMX / MDMX: eight pixels per iteration; MMX promotes to 16-bit products and
/// sums in registers, MDMX sums in its packed accumulator.
fn build_media(isa: IsaKind, params: &KernelParams) -> BuiltKernel {
    let mut s = Scaffold::new(isa);
    let lay = layout(&mut s, params);
    let plane = lay.plane as i64;

    s.li(r(1), lay.rgb_addr as i64);
    s.li(r(3), lay.out_addr as i64);
    s.li(r(4), (lay.plane / 8) as i64);
    let (coeffs, bias) = preload_media_constants(&mut s);

    let group_loop = s.b.bind_here();
    // Load and widen the three channels: m1..m6 = R/G/B lo and hi halves.
    for ch in 0..3i64 {
        s.push_media(MmxOp::Ld { md: m(10), base: r(1), offset: ch * plane });
        s.push_media(MmxOp::WidenLo { md: m(1 + 2 * ch as usize), ms: m(10), lane: Lane::U8 });
        s.push_media(MmxOp::WidenHi { md: m(2 + 2 * ch as usize), ms: m(10), lane: Lane::U8 });
    }
    for comp in 0..3usize {
        for half in 0..2usize {
            let srcs = [m(1 + half), m(3 + half), m(5 + half)];
            let out_reg = m(11 + half);
            if isa == IsaKind::Mdmx {
                // Accumulator path: three multiply-accumulates, then read back
                // with rounding and shift.
                s.b.push(MdmxOp::AccClear { acc: a(0) });
                for ch in 0..3 {
                    s.b.push(MdmxOp::Acc {
                        op: AccOp::MulAdd,
                        acc: a(0),
                        ma: srcs[ch],
                        mb: coeffs[comp][ch],
                        lane: Lane::I16,
                    });
                }
                s.b.push(MdmxOp::ReadAcc {
                    md: out_reg,
                    acc: a(0),
                    lane: Lane::I16,
                    shift: 0,
                    sat: Saturation::Wrapping,
                });
                s.push_media(MmxOp::Packed {
                    op: PackedBinOp::Add,
                    md: out_reg,
                    ma: out_reg,
                    mb: bias[comp],
                    lane: Lane::I16,
                    sat: Saturation::Wrapping,
                });
                s.push_media(MmxOp::Shift {
                    kind: ShiftKind::RightArith,
                    md: out_reg,
                    ms: out_reg,
                    lane: Lane::I16,
                    amount: 6,
                });
            } else {
                // Plain MMX: three 16-bit multiplies and register adds.
                s.push_media(MmxOp::Packed {
                    op: PackedBinOp::MulLo,
                    md: out_reg,
                    ma: srcs[0],
                    mb: coeffs[comp][0],
                    lane: Lane::I16,
                    sat: Saturation::Wrapping,
                });
                for ch in 1..3 {
                    s.push_media(MmxOp::Packed {
                        op: PackedBinOp::MulLo,
                        md: m(13),
                        ma: srcs[ch],
                        mb: coeffs[comp][ch],
                        lane: Lane::I16,
                        sat: Saturation::Wrapping,
                    });
                    s.push_media(MmxOp::Packed {
                        op: PackedBinOp::Add,
                        md: out_reg,
                        ma: out_reg,
                        mb: m(13),
                        lane: Lane::I16,
                        sat: Saturation::Wrapping,
                    });
                }
                s.push_media(MmxOp::Packed {
                    op: PackedBinOp::Add,
                    md: out_reg,
                    ma: out_reg,
                    mb: bias[comp],
                    lane: Lane::I16,
                    sat: Saturation::Wrapping,
                });
                s.push_media(MmxOp::Shift {
                    kind: ShiftKind::RightArith,
                    md: out_reg,
                    ms: out_reg,
                    lane: Lane::I16,
                    amount: 6,
                });
            }
        }
        s.push_media(MmxOp::Pack { md: m(14), ma: m(11), mb: m(12), from: Lane::I16, to_signed: false });
        s.push_media(MmxOp::St { ms: m(14), base: r(3), offset: comp as i64 * plane });
    }
    s.addi(r(1), r(1), 8);
    s.addi(r(3), r(3), 8);
    s.addi(r(4), r(4), -1);
    s.b.push(ScalarOp::Br { cond: Cond::Gt, ra: r(4), rb: r(31), target: group_loop });

    finish(s, lay, isa)
}

/// MOM: one strided load whose rows are the R, G, B and constant planes
/// (VL = 4), a matrix multiply-accumulate against a coefficient matrix per
/// component, accumulator read-back, pack and store.
fn build_mom(params: &KernelParams) -> BuiltKernel {
    let mut s = Scaffold::new(IsaKind::Mom);
    let lay = layout(&mut s, params);
    let plane = lay.plane as i64;

    // Coefficient matrices: for each component, rows are splats of the R, G, B
    // coefficients and of the component offset scaled by 64 (applied through
    // the constant "ones" plane). The +32 rounding term is supplied by the
    // accumulator read-back itself.
    let mut words = Vec::new();
    #[allow(clippy::needless_range_loop)] // ch mirrors the [component][channel] table layout
    for comp in 0..3 {
        for ch in 0..3 {
            words.push(splat16(RGB2YCC_COEFFS[comp][ch] as i64));
        }
        words.push(splat16(64 * RGB2YCC_OFFSET[comp] as i64));
    }
    let table = s.alloc_u64(&words, 8);

    s.li(r(1), lay.rgb_addr as i64);
    s.li(r(3), lay.out_addr as i64);
    s.li(r(4), (lay.plane / 8) as i64);
    s.li(r(9), plane); // stride between colour planes
    s.li(r(8), 8); // row stride of the coefficient matrices
    s.li(r(20), table as i64);
    s.b.push(MomOp::SetVlI { vl: 4 });
    // Preload the three coefficient matrices into v10..v12.
    for comp in 0..3 {
        s.addi(r(21), r(20), comp as i64 * 32);
        s.b.push(MomOp::Ld { vd: v(10 + comp), base: r(21), stride: r(8) });
    }

    let group_loop = s.b.bind_here();
    s.b.push(MomOp::Ld { vd: v(0), base: r(1), stride: r(9) });
    s.b.push(MomOp::WidenLo { vd: v(1), va: v(0), lane: Lane::U8 });
    s.b.push(MomOp::WidenHi { vd: v(2), va: v(0), lane: Lane::U8 });
    for comp in 0..3usize {
        s.b.push(MomOp::AccClear { acc: va(0) });
        s.b.push(MomOp::Acc { op: AccOp::MulAdd, acc: va(0), va: v(1), vb: v(10 + comp), lane: Lane::I16 });
        s.b.push(MomOp::ReadAcc { md: m(1), acc: va(0), lane: Lane::I16, shift: 6, sat: Saturation::Saturating });
        s.b.push(MomOp::AccClear { acc: va(1) });
        s.b.push(MomOp::Acc { op: AccOp::MulAdd, acc: va(1), va: v(2), vb: v(10 + comp), lane: Lane::I16 });
        s.b.push(MomOp::ReadAcc { md: m(2), acc: va(1), lane: Lane::I16, shift: 6, sat: Saturation::Saturating });
        s.b.push(MmxOp::Pack { md: m(3), ma: m(1), mb: m(2), from: Lane::I16, to_signed: false });
        s.b.push(MmxOp::St { ms: m(3), base: r(3), offset: comp as i64 * plane });
    }
    s.addi(r(1), r(1), 8);
    s.addi(r(3), r(3), 8);
    s.addi(r(4), r(4), -1);
    s.b.push(ScalarOp::Br { cond: Cond::Gt, ra: r(4), rb: r(31), target: group_loop });

    finish(s, lay, IsaKind::Mom)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verified_trace;

    #[test]
    fn every_isa_matches_the_reference() {
        let params = KernelParams { seed: 17, scale: 1 };
        for isa in IsaKind::ALL {
            verified_trace(build(isa, &params));
        }
    }

    #[test]
    fn input_planes_sit_back_to_back_from_an_aligned_base() {
        let params = KernelParams { seed: 5, scale: 2 };
        let mut s = Scaffold::new(IsaKind::Mom);
        let lay = layout(&mut s, &params);
        assert_eq!(lay.rgb_addr % 64, 0);
        // The four planes exactly as one concatenated buffer would lay them.
        let img = RgbImage::synthetic(WIDTH, 64 * params.scale, params.seed);
        let mut planes = Vec::with_capacity(lay.plane * 4);
        planes.extend_from_slice(&img.r);
        planes.extend_from_slice(&img.g);
        planes.extend_from_slice(&img.b);
        planes.extend(std::iter::repeat_n(1u8, lay.plane));
        assert_eq!(s.machine.mem().read_bytes(lay.rgb_addr, planes.len()), &planes[..]);
        assert_eq!(lay.out_addr, lay.rgb_addr + planes.len() as u64);
        assert_eq!(lay.expected.len(), 3 * lay.plane);
    }

    #[test]
    fn mom_gain_over_mdmx_is_modest() {
        // Vectorizing along the colour dimension gives MOM only VL=4, so the
        // MOM/MDMX instruction-count gap is much smaller than for the motion
        // or compensation kernels (the paper makes the same observation).
        let params = KernelParams::default();
        let mdmx = verified_trace(build(IsaKind::Mdmx, &params));
        let mom = verified_trace(build(IsaKind::Mom, &params));
        let ratio = mdmx.len() as f64 / mom.len() as f64;
        assert!(ratio > 1.0 && ratio < 3.0, "MDMX/MOM instruction ratio {ratio}");
    }

    #[test]
    fn alpha_is_an_order_of_magnitude_larger() {
        let params = KernelParams::default();
        let alpha = verified_trace(build(IsaKind::Alpha, &params));
        let mom = verified_trace(build(IsaKind::Mom, &params));
        assert!(alpha.len() > 8 * mom.len());
    }
}
