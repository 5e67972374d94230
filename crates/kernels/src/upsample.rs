//! The `h2v2upsample` kernel: JPEG chroma upsampling.
//!
//! Each chroma sample of a 4:2:0 image is replicated into a 2×2 block of the
//! full-resolution plane (the jpeglib `h2v2_upsample` routine). The kernel is
//! dominated by data movement: one load fans out into four stores, which is
//! why even the MOM version shows the smallest speed-ups of Figure 5.

use crate::reference::h2v2_upsample;
use crate::scaffold::Scaffold;
use crate::workload::VideoFrame;
use crate::{BuiltKernel, KernelKind, KernelParams};
use mom_core::matrix::v;
use mom_core::ops::MomOp;
use mom_isa::mmx::MmxOp;
use mom_isa::packed::Lane;
use mom_isa::regs::{m, r};
use mom_isa::scalar::{Cond, ScalarOp};
use mom_isa::trace::IsaKind;

/// Input (chroma plane) width.
const IN_WIDTH: usize = 64;
/// Output width.
const OUT_WIDTH: usize = IN_WIDTH * 2;
/// Rows processed per MOM strip.
const STRIP: usize = 8;

struct Layout {
    in_addr: u64,
    out_addr: u64,
    height: usize,
    expected: Vec<u8>,
}

fn layout(s: &mut Scaffold, params: &KernelParams) -> Layout {
    let height = 32 * params.scale.max(1);
    let chroma = VideoFrame::synthetic(IN_WIDTH, height, params.seed);
    let in_addr = s.alloc_bytes(&chroma.pixels, 64);
    let out_addr = s.alloc_zeroed(OUT_WIDTH * height * 2, 64);
    let expected = h2v2_upsample(&chroma.pixels, IN_WIDTH, height);
    Layout { in_addr, out_addr, height, expected }
}

fn finish(s: Scaffold, lay: Layout, isa: IsaKind) -> BuiltKernel {
    BuiltKernel {
        kind: KernelKind::H2v2Upsample,
        isa,
        machine: s.machine,
        program: s.b.build().expect("upsample program has consistent labels"),
        expected: lay.expected,
        output_addr: lay.out_addr,
    }
}

/// Build the upsampling kernel for the requested ISA.
pub fn build(isa: IsaKind, params: &KernelParams) -> BuiltKernel {
    match isa {
        IsaKind::Alpha => build_alpha(params),
        IsaKind::Mmx | IsaKind::Mdmx => build_media(isa, params),
        IsaKind::Mom => build_mom(params),
    }
}

/// Scalar baseline: one load and four stores per input pixel.
fn build_alpha(params: &KernelParams) -> BuiltKernel {
    let mut s = Scaffold::new(IsaKind::Alpha);
    let lay = layout(&mut s, params);

    // r1 = input row ptr, r2 = output row-pair ptr, r4 = remaining rows,
    // r5 = column counter, r6 = column limit.
    s.li(r(1), lay.in_addr as i64);
    s.li(r(2), lay.out_addr as i64);
    s.li(r(4), lay.height as i64);
    s.li(r(6), IN_WIDTH as i64);

    let row_loop = s.b.bind_here();
    s.li(r(5), 0);
    s.b.push(ScalarOp::Mov { rd: r(7), rs: r(1) });
    s.b.push(ScalarOp::Mov { rd: r(8), rs: r(2) });
    let col_loop = s.b.bind_here();
    s.b.push(ScalarOp::Ld { rd: r(10), base: r(7), offset: 0, size: 1, signed: false });
    s.b.push(ScalarOp::St { rs: r(10), base: r(8), offset: 0, size: 1 });
    s.b.push(ScalarOp::St { rs: r(10), base: r(8), offset: 1, size: 1 });
    s.b.push(ScalarOp::St { rs: r(10), base: r(8), offset: OUT_WIDTH as i64, size: 1 });
    s.b.push(ScalarOp::St { rs: r(10), base: r(8), offset: OUT_WIDTH as i64 + 1, size: 1 });
    s.addi(r(7), r(7), 1);
    s.addi(r(8), r(8), 2);
    s.addi(r(5), r(5), 1);
    s.b.push(ScalarOp::Br { cond: Cond::Lt, ra: r(5), rb: r(6), target: col_loop });
    s.addi(r(1), r(1), IN_WIDTH as i64);
    s.addi(r(2), r(2), 2 * OUT_WIDTH as i64);
    s.addi(r(4), r(4), -1);
    s.b.push(ScalarOp::Br { cond: Cond::Gt, ra: r(4), rb: r(31), target: row_loop });

    finish(s, lay, IsaKind::Alpha)
}

/// MMX / MDMX: duplicate 8 pixels with two unpacks, store 16 output bytes to
/// both output rows.
fn build_media(isa: IsaKind, params: &KernelParams) -> BuiltKernel {
    let mut s = Scaffold::new(isa);
    let lay = layout(&mut s, params);

    s.li(r(1), lay.in_addr as i64);
    s.li(r(2), lay.out_addr as i64);
    s.li(r(4), lay.height as i64);
    s.li(r(6), (IN_WIDTH / 8) as i64);

    let row_loop = s.b.bind_here();
    s.li(r(5), 0);
    s.b.push(ScalarOp::Mov { rd: r(7), rs: r(1) });
    s.b.push(ScalarOp::Mov { rd: r(8), rs: r(2) });
    let col_loop = s.b.bind_here();
    s.push_media(MmxOp::Ld { md: m(1), base: r(7), offset: 0 });
    s.push_media(MmxOp::UnpackLo { md: m(2), ma: m(1), mb: m(1), lane: Lane::U8 });
    s.push_media(MmxOp::UnpackHi { md: m(3), ma: m(1), mb: m(1), lane: Lane::U8 });
    s.push_media(MmxOp::St { ms: m(2), base: r(8), offset: 0 });
    s.push_media(MmxOp::St { ms: m(3), base: r(8), offset: 8 });
    s.push_media(MmxOp::St { ms: m(2), base: r(8), offset: OUT_WIDTH as i64 });
    s.push_media(MmxOp::St { ms: m(3), base: r(8), offset: OUT_WIDTH as i64 + 8 });
    s.addi(r(7), r(7), 8);
    s.addi(r(8), r(8), 16);
    s.addi(r(5), r(5), 1);
    s.b.push(ScalarOp::Br { cond: Cond::Lt, ra: r(5), rb: r(6), target: col_loop });
    s.addi(r(1), r(1), IN_WIDTH as i64);
    s.addi(r(2), r(2), 2 * OUT_WIDTH as i64);
    s.addi(r(4), r(4), -1);
    s.b.push(ScalarOp::Br { cond: Cond::Gt, ra: r(4), rb: r(31), target: row_loop });

    finish(s, lay, isa)
}

/// MOM: a strip of 8 input rows per iteration — one strided load, two
/// row-wise unpacks and four strided stores cover 8×8 input pixels.
fn build_mom(params: &KernelParams) -> BuiltKernel {
    let mut s = Scaffold::new(IsaKind::Mom);
    let lay = layout(&mut s, params);

    s.li(r(1), lay.in_addr as i64);
    s.li(r(2), lay.out_addr as i64);
    s.li(r(4), (lay.height / STRIP) as i64);
    s.li(r(6), (IN_WIDTH / 8) as i64);
    s.li(r(9), IN_WIDTH as i64); // input row stride
    s.li(r(10), 2 * OUT_WIDTH as i64); // stride between even output rows of consecutive input rows
    s.b.push(MomOp::SetVlI { vl: STRIP as u8 });

    let strip_loop = s.b.bind_here();
    s.li(r(5), 0);
    s.b.push(ScalarOp::Mov { rd: r(7), rs: r(1) });
    s.b.push(ScalarOp::Mov { rd: r(8), rs: r(2) });
    let col_loop = s.b.bind_here();
    s.b.push(MomOp::Ld { vd: v(0), base: r(7), stride: r(9) });
    s.b.push(MomOp::UnpackLo { vd: v(1), va: v(0), vb: v(0), lane: Lane::U8 });
    s.b.push(MomOp::UnpackHi { vd: v(2), va: v(0), vb: v(0), lane: Lane::U8 });
    // Even output rows.
    s.b.push(MomOp::St { vs: v(1), base: r(8), stride: r(10) });
    s.addi(r(11), r(8), 8);
    s.b.push(MomOp::St { vs: v(2), base: r(11), stride: r(10) });
    // Odd output rows (one output row further down).
    s.addi(r(12), r(8), OUT_WIDTH as i64);
    s.b.push(MomOp::St { vs: v(1), base: r(12), stride: r(10) });
    s.addi(r(13), r(12), 8);
    s.b.push(MomOp::St { vs: v(2), base: r(13), stride: r(10) });
    s.addi(r(7), r(7), 8);
    s.addi(r(8), r(8), 16);
    s.addi(r(5), r(5), 1);
    s.b.push(ScalarOp::Br { cond: Cond::Lt, ra: r(5), rb: r(6), target: col_loop });
    s.addi(r(1), r(1), (STRIP * IN_WIDTH) as i64);
    s.addi(r(2), r(2), (2 * STRIP * OUT_WIDTH) as i64);
    s.addi(r(4), r(4), -1);
    s.b.push(ScalarOp::Br { cond: Cond::Gt, ra: r(4), rb: r(31), target: strip_loop });

    finish(s, lay, IsaKind::Mom)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verified_trace;

    #[test]
    fn every_isa_matches_the_reference() {
        let params = KernelParams { seed: 8, scale: 1 };
        for isa in IsaKind::ALL {
            verified_trace(build(isa, &params));
        }
    }

    #[test]
    fn kernel_is_store_dominated() {
        let trace = verified_trace(build(IsaKind::Mmx, &KernelParams::default()));
        let stats = trace.stats();
        assert!(stats.stores > stats.loads, "four stores per load");
    }

    #[test]
    fn mom_reduces_instruction_count_modestly_less_than_compute_kernels() {
        let params = KernelParams::default();
        let mmx = verified_trace(build(IsaKind::Mmx, &params));
        let mom = verified_trace(build(IsaKind::Mom, &params));
        let ratio = mmx.len() as f64 / mom.len() as f64;
        assert!(ratio > 2.0 && ratio < 12.0, "ratio {ratio}");
    }
}
