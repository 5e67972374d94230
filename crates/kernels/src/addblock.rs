//! The `addblock` kernel: saturating addition of IDCT residuals to motion
//! predictions (MPEG-2 decode).
//!
//! For each 8×8 block: `out[i] = clamp_u8(pred[i] + residual[i])`, where the
//! prediction pixels are unsigned bytes inside a frame and the residuals are
//! signed 16-bit IDCT outputs stored contiguously per block.
//!
//! The original Mediabench code performs the saturation through a memory
//! clipping table, which the paper points out limits ILP and turns the scalar
//! version memory-bound on wide machines; the scalar builder reproduces that
//! table lookup. The media versions get saturation for free from the packed
//! `pack-with-unsigned-saturation` instruction.

use crate::reference::addblock;
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
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Frame width (prediction row stride).
const FRAME_WIDTH: usize = 64;
/// Block edge length.
const BLOCK: usize = 8;
/// Offset applied to sums before indexing the scalar clipping table.
const CLIP_OFFSET: i64 = 512;
/// Size of the scalar clipping table.
const CLIP_TABLE_LEN: usize = 1536;

struct Layout {
    pred_addr: u64,
    resid_addr: u64,
    out_addr: u64,
    clip_addr: u64,
    blocks: usize,
    expected: Vec<u8>,
}

fn layout(s: &mut Scaffold, params: &KernelParams) -> Layout {
    let blocks = 32 * params.scale.max(1);
    let height = BLOCK * blocks;
    let pred = VideoFrame::synthetic(FRAME_WIDTH, height, params.seed);

    // Residuals in the typical post-IDCT range.
    let mut rng = StdRng::seed_from_u64(params.seed ^ 0xadd);
    let residuals: Vec<i16> = (0..blocks * 64).map(|_| rng.gen_range(-256..=255)).collect();

    // Clipping table: clip_table[v + CLIP_OFFSET] = clamp_u8(v).
    let clip_table: Vec<u8> =
        (0..CLIP_TABLE_LEN).map(|i| (i as i64 - CLIP_OFFSET).clamp(0, 255) as u8).collect();

    let pred_addr = s.alloc_bytes(&pred.pixels, 64);
    let resid_addr = s.alloc_i16(&residuals, 64);
    let clip_addr = s.alloc_bytes(&clip_table, 64);
    let out_addr = s.alloc_zeroed(blocks * 64, 64);

    let mut expected = Vec::with_capacity(blocks * 64);
    for b in 0..blocks {
        let off = b * BLOCK * FRAME_WIDTH;
        let mut resid = [0i16; 64];
        resid.copy_from_slice(&residuals[b * 64..(b + 1) * 64]);
        expected.extend_from_slice(&addblock(&pred.pixels[off..], FRAME_WIDTH, &resid));
    }
    Layout { pred_addr, resid_addr, out_addr, clip_addr, blocks, expected }
}

fn finish(s: Scaffold, lay: Layout, isa: IsaKind) -> BuiltKernel {
    BuiltKernel {
        kind: KernelKind::AddBlock,
        isa,
        machine: s.machine,
        program: s.b.build().expect("addblock program has consistent labels"),
        expected: lay.expected,
        output_addr: lay.out_addr,
    }
}

/// Build the addblock kernel for the requested ISA.
pub fn build(isa: IsaKind, params: &KernelParams) -> BuiltKernel {
    match isa {
        IsaKind::Alpha => build_alpha(params),
        IsaKind::Mmx | IsaKind::Mdmx => build_media(isa, params),
        IsaKind::Mom => build_mom(params),
    }
}

/// Scalar baseline with the memory clipping table of the original code.
fn build_alpha(params: &KernelParams) -> BuiltKernel {
    let mut s = Scaffold::new(IsaKind::Alpha);
    let lay = layout(&mut s, params);

    // r1 = pred ptr, r2 = resid ptr, r3 = out ptr, r4 = blocks, r5 = row,
    // r6 = row limit, r7 = clip table base (pre-biased by CLIP_OFFSET).
    s.li(r(1), lay.pred_addr as i64);
    s.li(r(2), lay.resid_addr as i64);
    s.li(r(3), lay.out_addr as i64);
    s.li(r(4), lay.blocks as i64);
    s.li(r(6), BLOCK as i64);
    s.li(r(7), lay.clip_addr as i64 + CLIP_OFFSET);

    let block_loop = s.b.bind_here();
    s.li(r(5), 0);
    let row_loop = s.b.bind_here();
    for col in 0..BLOCK as i64 {
        s.b.push(ScalarOp::Ld { rd: r(10), base: r(1), offset: col, size: 1, signed: false });
        s.b.push(ScalarOp::Ld { rd: r(11), base: r(2), offset: col * 2, size: 2, signed: true });
        s.b.push(ScalarOp::Alu { op: AluOp::Add, rd: r(12), ra: r(10), rb: r(11) });
        // Saturation via the clipping table: out = clip[r12].
        s.b.push(ScalarOp::Alu { op: AluOp::Add, rd: r(13), ra: r(7), rb: r(12) });
        s.b.push(ScalarOp::Ld { rd: r(14), base: r(13), offset: 0, size: 1, signed: false });
        s.b.push(ScalarOp::St { rs: r(14), base: r(3), offset: col, size: 1 });
    }
    s.addi(r(1), r(1), FRAME_WIDTH as i64);
    s.addi(r(2), r(2), (BLOCK * 2) as i64);
    s.addi(r(3), r(3), BLOCK as i64);
    s.addi(r(5), r(5), 1);
    s.b.push(ScalarOp::Br { cond: Cond::Lt, ra: r(5), rb: r(6), target: row_loop });
    s.addi(r(4), r(4), -1);
    s.b.push(ScalarOp::Br { cond: Cond::Gt, ra: r(4), rb: r(31), target: block_loop });

    finish(s, lay, IsaKind::Alpha)
}

/// MMX / MDMX: widen the prediction row, add the two residual words, pack with
/// unsigned saturation.
fn build_media(isa: IsaKind, params: &KernelParams) -> BuiltKernel {
    let mut s = Scaffold::new(isa);
    let lay = layout(&mut s, params);

    s.li(r(1), lay.pred_addr as i64);
    s.li(r(2), lay.resid_addr as i64);
    s.li(r(3), lay.out_addr as i64);
    s.li(r(4), lay.blocks as i64);
    s.li(r(6), BLOCK as i64);

    let block_loop = s.b.bind_here();
    s.li(r(5), 0);
    let row_loop = s.b.bind_here();
    s.push_media(MmxOp::Ld { md: m(1), base: r(1), offset: 0 });
    s.push_media(MmxOp::WidenLo { md: m(2), ms: m(1), lane: Lane::U8 });
    s.push_media(MmxOp::WidenHi { md: m(3), ms: m(1), lane: Lane::U8 });
    s.push_media(MmxOp::Ld { md: m(4), base: r(2), offset: 0 });
    s.push_media(MmxOp::Ld { md: m(5), base: r(2), offset: 8 });
    s.push_media(MmxOp::Packed {
        op: PackedBinOp::Add,
        md: m(6),
        ma: m(2),
        mb: m(4),
        lane: Lane::I16,
        sat: Saturation::Wrapping,
    });
    s.push_media(MmxOp::Packed {
        op: PackedBinOp::Add,
        md: m(7),
        ma: m(3),
        mb: m(5),
        lane: Lane::I16,
        sat: Saturation::Wrapping,
    });
    s.push_media(MmxOp::Pack { md: m(8), ma: m(6), mb: m(7), from: Lane::I16, to_signed: false });
    s.push_media(MmxOp::St { ms: m(8), base: r(3), offset: 0 });
    s.addi(r(1), r(1), FRAME_WIDTH as i64);
    s.addi(r(2), r(2), (BLOCK * 2) as i64);
    s.addi(r(3), r(3), BLOCK as i64);
    s.addi(r(5), r(5), 1);
    s.b.push(ScalarOp::Br { cond: Cond::Lt, ra: r(5), rb: r(6), target: row_loop });
    s.addi(r(4), r(4), -1);
    s.b.push(ScalarOp::Br { cond: Cond::Gt, ra: r(4), rb: r(31), target: block_loop });

    finish(s, lay, isa)
}

/// MOM: the whole 8×8 block per loop iteration — one strided prediction load,
/// two residual loads, row-wise widen/add/pack, one strided store.
fn build_mom(params: &KernelParams) -> BuiltKernel {
    let mut s = Scaffold::new(IsaKind::Mom);
    let lay = layout(&mut s, params);

    s.li(r(1), lay.pred_addr as i64);
    s.li(r(2), lay.resid_addr as i64);
    s.li(r(3), lay.out_addr as i64);
    s.li(r(4), lay.blocks as i64);
    s.li(r(7), FRAME_WIDTH as i64); // prediction row stride
    s.li(r(8), (BLOCK * 2) as i64); // residual row stride (16 bytes)
    s.li(r(9), BLOCK as i64); // output row stride
    s.b.push(MomOp::SetVlI { vl: BLOCK as u8 });

    let block_loop = s.b.bind_here();
    s.b.push(MomOp::Ld { vd: v(0), base: r(1), stride: r(7) });
    s.b.push(MomOp::WidenLo { vd: v(1), va: v(0), lane: Lane::U8 });
    s.b.push(MomOp::WidenHi { vd: v(2), va: v(0), lane: Lane::U8 });
    s.b.push(MomOp::Ld { vd: v(3), base: r(2), stride: r(8) });
    s.addi(r(10), r(2), 8);
    s.b.push(MomOp::Ld { vd: v(4), base: r(10), stride: r(8) });
    s.b.push(MomOp::Packed {
        op: PackedBinOp::Add,
        vd: v(5),
        va: v(1),
        vb: v(3),
        lane: Lane::I16,
        sat: Saturation::Wrapping,
    });
    s.b.push(MomOp::Packed {
        op: PackedBinOp::Add,
        vd: v(6),
        va: v(2),
        vb: v(4),
        lane: Lane::I16,
        sat: Saturation::Wrapping,
    });
    s.b.push(MomOp::Pack { vd: v(7), va: v(5), vb: v(6), from: Lane::I16, to_signed: false });
    s.b.push(MomOp::St { vs: v(7), base: r(3), stride: r(9) });
    s.addi(r(1), r(1), (BLOCK * FRAME_WIDTH) as i64);
    s.addi(r(2), r(2), 128);
    s.addi(r(3), r(3), 64);
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
        let params = KernelParams { seed: 11, scale: 1 };
        for isa in IsaKind::ALL {
            verified_trace(build(isa, &params));
        }
    }

    #[test]
    fn alpha_version_is_load_heavy_because_of_the_clip_table() {
        let params = KernelParams::default();
        let alpha = verified_trace(build(IsaKind::Alpha, &params));
        let stats = alpha.stats();
        // Two data loads plus one table load per pixel.
        assert!(stats.loads as f64 > 0.4 * stats.total as f64);
    }

    #[test]
    fn instruction_count_ordering() {
        let params = KernelParams::default();
        let alpha = verified_trace(build(IsaKind::Alpha, &params));
        let mdmx = verified_trace(build(IsaKind::Mdmx, &params));
        let mom = verified_trace(build(IsaKind::Mom, &params));
        assert!(mdmx.len() < alpha.len() / 3);
        assert!(mom.len() < mdmx.len() / 3);
    }
}
