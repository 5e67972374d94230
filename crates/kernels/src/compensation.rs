//! The `compensation` kernel: MPEG-2 bidirectional motion compensation.
//!
//! For every 16×16 macroblock the decoder averages a forward and a backward
//! prediction with upward rounding: `out = (fwd + back + 1) >> 1`. The blocks
//! live inside full frames (so rows are `FRAME_WIDTH` bytes apart), which is
//! exactly the non-unit row stride the MOM strided load was designed for.
//!
//! | ISA | Structure |
//! |-----|-----------|
//! | Alpha | two nested loops, one byte at a time |
//! | MMX / MDMX | per row: two 8-byte loads per source, packed average, store |
//! | MOM | per block half: one strided matrix load per source (VL = 16), one matrix average, one matrix store |

use crate::reference::compensation_16x16;
use crate::scaffold::Scaffold;
use crate::workload::VideoFrame;
use crate::{BuiltKernel, KernelKind, KernelParams};
use mom_core::matrix::v;
use mom_core::ops::MomOp;
use mom_isa::mmx::{MmxOp, PackedBinOp};
use mom_isa::packed::{Lane, Saturation};
use mom_isa::regs::{m, r};
use mom_isa::scalar::{AluOp, Cond, ScalarOp};
use mom_isa::trace::IsaKind;

/// Frame width (and row stride) used by the workload.
const FRAME_WIDTH: usize = 64;
/// Macroblock edge length.
const BLOCK: usize = 16;

struct Layout {
    fwd_addr: u64,
    back_addr: u64,
    out_addr: u64,
    blocks: usize,
    expected: Vec<u8>,
}

fn layout(s: &mut Scaffold, params: &KernelParams) -> Layout {
    let blocks = 16 * params.scale.max(1);
    let height = BLOCK * blocks;
    let fwd = VideoFrame::synthetic(FRAME_WIDTH, height, params.seed);
    let back = fwd.shifted(1, 0, params.seed ^ 0x5a5a);

    let fwd_addr = s.alloc_bytes(&fwd.pixels, 64);
    let back_addr = s.alloc_bytes(&back.pixels, 64);
    let out_addr = s.alloc_zeroed(blocks * BLOCK * BLOCK, 64);

    let mut expected = Vec::with_capacity(blocks * 256);
    for b in 0..blocks {
        let off = b * BLOCK * FRAME_WIDTH;
        let block = compensation_16x16(&fwd.pixels[off..], FRAME_WIDTH, &back.pixels[off..], FRAME_WIDTH);
        expected.extend_from_slice(&block);
    }
    Layout { fwd_addr, back_addr, out_addr, blocks, expected }
}

fn finish(s: Scaffold, lay: Layout, isa: IsaKind) -> BuiltKernel {
    BuiltKernel {
        kind: KernelKind::Compensation,
        isa,
        machine: s.machine,
        program: s.b.build().expect("compensation program has consistent labels"),
        expected: lay.expected,
        output_addr: lay.out_addr,
    }
}

/// Build the compensation kernel for the requested ISA.
pub fn build(isa: IsaKind, params: &KernelParams) -> BuiltKernel {
    match isa {
        IsaKind::Alpha => build_alpha(params),
        IsaKind::Mmx | IsaKind::Mdmx => build_media(isa, params),
        IsaKind::Mom => build_mom(params),
    }
}

/// Scalar baseline: byte-at-a-time averaging.
fn build_alpha(params: &KernelParams) -> BuiltKernel {
    let mut s = Scaffold::new(IsaKind::Alpha);
    let lay = layout(&mut s, params);

    // r1 = fwd ptr, r2 = back ptr, r3 = out ptr, r4 = remaining blocks,
    // r5 = row counter, r6 = row limit.
    s.li(r(1), lay.fwd_addr as i64);
    s.li(r(2), lay.back_addr as i64);
    s.li(r(3), lay.out_addr as i64);
    s.li(r(4), lay.blocks as i64);
    s.li(r(6), BLOCK as i64);

    let block_loop = s.b.bind_here();
    s.li(r(5), 0);
    let row_loop = s.b.bind_here();
    for col in 0..BLOCK as i64 {
        s.b.push(ScalarOp::Ld { rd: r(10), base: r(1), offset: col, size: 1, signed: false });
        s.b.push(ScalarOp::Ld { rd: r(11), base: r(2), offset: col, size: 1, signed: false });
        s.b.push(ScalarOp::Alu { op: AluOp::Add, rd: r(12), ra: r(10), rb: r(11) });
        s.b.push(ScalarOp::AluI { op: AluOp::Add, rd: r(12), ra: r(12), imm: 1 });
        s.b.push(ScalarOp::AluI { op: AluOp::Sra, rd: r(12), ra: r(12), imm: 1 });
        s.b.push(ScalarOp::St { rs: r(12), base: r(3), offset: col, size: 1 });
    }
    s.addi(r(1), r(1), FRAME_WIDTH as i64);
    s.addi(r(2), r(2), FRAME_WIDTH as i64);
    s.addi(r(3), r(3), BLOCK as i64);
    s.addi(r(5), r(5), 1);
    s.b.push(ScalarOp::Br { cond: Cond::Lt, ra: r(5), rb: r(6), target: row_loop });
    s.addi(r(4), r(4), -1);
    s.b.push(ScalarOp::Br { cond: Cond::Gt, ra: r(4), rb: r(31), target: block_loop });

    finish(s, lay, IsaKind::Alpha)
}

/// MMX / MDMX: packed average of 8 pixels at a time, one row per iteration.
fn build_media(isa: IsaKind, params: &KernelParams) -> BuiltKernel {
    let mut s = Scaffold::new(isa);
    let lay = layout(&mut s, params);

    s.li(r(1), lay.fwd_addr as i64);
    s.li(r(2), lay.back_addr as i64);
    s.li(r(3), lay.out_addr as i64);
    s.li(r(4), lay.blocks as i64);
    s.li(r(6), BLOCK as i64);

    let block_loop = s.b.bind_here();
    s.li(r(5), 0);
    let row_loop = s.b.bind_here();
    for half in 0..2i64 {
        let off = half * 8;
        s.push_media(MmxOp::Ld { md: m(1), base: r(1), offset: off });
        s.push_media(MmxOp::Ld { md: m(2), base: r(2), offset: off });
        s.push_media(MmxOp::Packed {
            op: PackedBinOp::Avg,
            md: m(3),
            ma: m(1),
            mb: m(2),
            lane: Lane::U8,
            sat: Saturation::Wrapping,
        });
        s.push_media(MmxOp::St { ms: m(3), base: r(3), offset: off });
    }
    s.addi(r(1), r(1), FRAME_WIDTH as i64);
    s.addi(r(2), r(2), FRAME_WIDTH as i64);
    s.addi(r(3), r(3), BLOCK as i64);
    s.addi(r(5), r(5), 1);
    s.b.push(ScalarOp::Br { cond: Cond::Lt, ra: r(5), rb: r(6), target: row_loop });
    s.addi(r(4), r(4), -1);
    s.b.push(ScalarOp::Br { cond: Cond::Gt, ra: r(4), rb: r(31), target: block_loop });

    finish(s, lay, isa)
}

/// MOM: one strided matrix load per source per block half, one matrix average,
/// one matrix store — 16 rows per instruction.
fn build_mom(params: &KernelParams) -> BuiltKernel {
    let mut s = Scaffold::new(IsaKind::Mom);
    let lay = layout(&mut s, params);

    s.li(r(1), lay.fwd_addr as i64);
    s.li(r(2), lay.back_addr as i64);
    s.li(r(3), lay.out_addr as i64);
    s.li(r(4), lay.blocks as i64);
    s.li(r(7), FRAME_WIDTH as i64); // source row stride
    s.li(r(8), BLOCK as i64); // output row stride
    s.b.push(MomOp::SetVlI { vl: BLOCK as u8 });

    let block_loop = s.b.bind_here();
    for half in 0..2i64 {
        let off = half * 8;
        s.addi(r(10), r(1), off);
        s.addi(r(11), r(2), off);
        s.addi(r(12), r(3), off);
        s.b.push(MomOp::Ld { vd: v(0), base: r(10), stride: r(7) });
        s.b.push(MomOp::Ld { vd: v(1), base: r(11), stride: r(7) });
        s.b.push(MomOp::Packed {
            op: PackedBinOp::Avg,
            vd: v(2),
            va: v(0),
            vb: v(1),
            lane: Lane::U8,
            sat: Saturation::Wrapping,
        });
        s.b.push(MomOp::St { vs: v(2), base: r(12), stride: r(8) });
    }
    s.addi(r(1), r(1), (BLOCK * FRAME_WIDTH) as i64);
    s.addi(r(2), r(2), (BLOCK * FRAME_WIDTH) as i64);
    s.addi(r(3), r(3), (BLOCK * BLOCK) as i64);
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
        let params = KernelParams { seed: 3, scale: 1 };
        for isa in IsaKind::ALL {
            let trace = verified_trace(build(isa, &params));
            assert!(!trace.is_empty());
        }
    }

    #[test]
    fn mom_uses_an_order_of_magnitude_fewer_instructions() {
        let params = KernelParams::default();
        let alpha = verified_trace(build(IsaKind::Alpha, &params));
        let mmx = verified_trace(build(IsaKind::Mmx, &params));
        let mom = verified_trace(build(IsaKind::Mom, &params));
        assert!(mmx.len() * 4 < alpha.len());
        assert!(mom.len() * 8 < mmx.len());
    }

    #[test]
    fn scale_grows_the_workload() {
        let small = verified_trace(build(IsaKind::Mom, &KernelParams { seed: 1, scale: 1 }));
        let large = verified_trace(build(IsaKind::Mom, &KernelParams { seed: 1, scale: 2 }));
        assert!(large.len() > small.len());
    }
}
