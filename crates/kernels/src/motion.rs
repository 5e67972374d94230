//! The `motion1` and `motion2` kernels: MPEG-2 motion estimation.
//!
//! This is the paper's running example (Figures 1-3): the `dist1` pixel
//! distance function evaluated over a search window. `motion1` uses the sum of
//! absolute differences, `motion2` the sum of squared differences. For every
//! target macroblock the kernel evaluates all 81 candidate displacements of a
//! ±4 search window, records each distance and tracks the best candidate.
//!
//! The two nested 16×16 loops of `dist1` are exactly the two levels of DLP the
//! paper's Figure 3 illustrates: MMX/MDMX exploit the inner (column) level
//! eight pixels at a time; MOM additionally exploits the outer (row) level by
//! loading sixteen strided rows into one matrix register and reducing the
//! whole block into a packed accumulator with two matrix instructions.

use crate::reference::{sad_16x16, sqd_16x16};
use crate::scaffold::Scaffold;
use crate::workload::VideoFrame;
use crate::{BuiltKernel, KernelKind, KernelParams};
use mom_core::matrix::{v, va};
use mom_core::ops::MomOp;
use mom_isa::mdmx::{AccOp, MdmxOp};
use mom_isa::mmx::{MmxOp, PackedBinOp};
use mom_isa::packed::{Lane, Saturation};
use mom_isa::regs::{a, m, r};
use mom_isa::scalar::{AluOp, Cond, ScalarOp};
use mom_isa::trace::IsaKind;

/// Distance metric of the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Sum of absolute differences (`motion1`).
    AbsoluteDifference,
    /// Sum of squared differences (`motion2`).
    SquaredDifference,
}

/// Frame width (row stride).
const FRAME_WIDTH: usize = 96;
/// Search radius: candidates span a (2R+1)×(2R+1) window.
const RADIUS: usize = 4;
/// Candidates per block.
const CANDIDATES: usize = (2 * RADIUS + 1) * (2 * RADIUS + 1);
/// Block x position of every target block.
const BLOCK_X: usize = 32;
/// Block y position of the first target block.
const BLOCK_Y0: usize = 16;

struct Layout {
    cur_addr: u64,
    ref_addr: u64,
    out_addr: u64,
    blocks: usize,
    expected: Vec<u8>,
}

fn layout(s: &mut Scaffold, metric: Metric, params: &KernelParams) -> Layout {
    let blocks = params.scale.max(1);
    let height = BLOCK_Y0 + 16 * blocks + 2 * RADIUS + 16;
    let reference = VideoFrame::synthetic(FRAME_WIDTH, height, params.seed);
    let current = reference.shifted(2, 1, params.seed ^ 0xbeef);

    let ref_addr = s.alloc_bytes(&reference.pixels, 64);
    let cur_addr = s.alloc_bytes(&current.pixels, 64);
    let out_addr = s.alloc_zeroed(blocks * (CANDIDATES + 1) * 4, 64);

    let mut expected = Vec::new();
    for b in 0..blocks {
        let by = BLOCK_Y0 + b * 16;
        let cur_off = by * FRAME_WIDTH + BLOCK_X;
        let mut best = i64::MAX;
        let mut best_idx = 0u32;
        let mut idx = 0u32;
        for dy in 0..(2 * RADIUS + 1) {
            for dx in 0..(2 * RADIUS + 1) {
                let ry = by - RADIUS + dy;
                let rx = BLOCK_X - RADIUS + dx;
                let ref_off = ry * FRAME_WIDTH + rx;
                let d = match metric {
                    Metric::AbsoluteDifference => {
                        sad_16x16(&current.pixels[cur_off..], FRAME_WIDTH, &reference.pixels[ref_off..], FRAME_WIDTH)
                    }
                    Metric::SquaredDifference => {
                        sqd_16x16(&current.pixels[cur_off..], FRAME_WIDTH, &reference.pixels[ref_off..], FRAME_WIDTH)
                    }
                };
                expected.extend_from_slice(&(d as i32).to_le_bytes());
                if d < best {
                    best = d;
                    best_idx = idx;
                }
                idx += 1;
            }
        }
        expected.extend_from_slice(&best_idx.to_le_bytes());
    }
    Layout { cur_addr, ref_addr, out_addr, blocks, expected }
}

fn finish(s: Scaffold, lay: Layout, metric: Metric, isa: IsaKind) -> BuiltKernel {
    let kind = match metric {
        Metric::AbsoluteDifference => KernelKind::Motion1,
        Metric::SquaredDifference => KernelKind::Motion2,
    };
    BuiltKernel {
        kind,
        isa,
        machine: s.machine,
        program: s.b.build().expect("motion program has consistent labels"),
        expected: lay.expected,
        output_addr: lay.out_addr,
    }
}

/// Register plan shared by every ISA version:
///
/// * `r1` current-block base, `r2` search-window base (for the current block),
///   `r3` output pointer, `r4` remaining blocks;
/// * `r5` dy counter, `r6` dx counter, `r7` candidate row base, `r8` candidate
///   base, `r9` frame stride;
/// * `r10` distance result, `r11` best distance, `r12` best index, `r18`
///   candidate index, `r19` loop limit (2R+1);
/// * `r13`-`r17`, `r20`-`r27` scratch for the distance cores.
fn emit_outer_prologue(s: &mut Scaffold, lay: &Layout) {
    s.li(r(1), (lay.cur_addr + (BLOCK_Y0 * FRAME_WIDTH + BLOCK_X) as u64) as i64);
    s.li(r(2), (lay.ref_addr + ((BLOCK_Y0 - RADIUS) * FRAME_WIDTH + BLOCK_X - RADIUS) as u64) as i64);
    s.li(r(3), lay.out_addr as i64);
    s.li(r(4), lay.blocks as i64);
    s.li(r(9), FRAME_WIDTH as i64);
    s.li(r(19), (2 * RADIUS + 1) as i64);
}

/// Emit the candidate-tracking epilogue: store the distance, update the
/// best-so-far value and index.
fn emit_candidate_epilogue(s: &mut Scaffold) {
    s.b.push(ScalarOp::St { rs: r(10), base: r(3), offset: 0, size: 4 });
    s.addi(r(3), r(3), 4);
    s.b.push(ScalarOp::CmpSet { cond: Cond::Lt, rd: r(13), ra: r(10), rb: r(11) });
    s.b.push(ScalarOp::CMov { rd: r(11), rc: r(13), rs: r(10) });
    s.b.push(ScalarOp::CMov { rd: r(12), rc: r(13), rs: r(18) });
    s.addi(r(18), r(18), 1);
}

/// Build one of the motion kernels for the requested ISA.
pub fn build(metric: Metric, isa: IsaKind, params: &KernelParams) -> BuiltKernel {
    let mut s = Scaffold::new(isa);
    let lay = layout(&mut s, metric, params);
    emit_outer_prologue(&mut s, &lay);

    if isa == IsaKind::Mom {
        s.b.push(MomOp::SetVlI { vl: 16 });
    }

    // ---- per-block loop ----
    let block_loop = s.b.bind_here();
    s.li(r(11), i64::MAX / 2); // best distance
    s.li(r(12), 0); // best index
    s.li(r(18), 0); // candidate index

    // MOM hoists the (block-invariant) current block into matrix registers.
    if isa == IsaKind::Mom {
        s.b.push(MomOp::Ld { vd: v(8), base: r(1), stride: r(9) });
        s.addi(r(20), r(1), 8);
        s.b.push(MomOp::Ld { vd: v(9), base: r(20), stride: r(9) });
    }

    s.li(r(5), 0); // dy
    s.b.push(ScalarOp::Mov { rd: r(7), rs: r(2) }); // candidate row base
    let dy_loop = s.b.bind_here();
    s.li(r(6), 0); // dx
    s.b.push(ScalarOp::Mov { rd: r(8), rs: r(7) }); // candidate base
    let dx_loop = s.b.bind_here();

    // ---- distance core ----
    match isa {
        IsaKind::Alpha => emit_alpha_core(&mut s, metric),
        IsaKind::Mmx => emit_mmx_core(&mut s, metric),
        IsaKind::Mdmx => emit_mdmx_core(&mut s, metric),
        IsaKind::Mom => emit_mom_core(&mut s, metric),
    }

    emit_candidate_epilogue(&mut s);

    // ---- candidate loop control ----
    s.addi(r(8), r(8), 1);
    s.addi(r(6), r(6), 1);
    s.b.push(ScalarOp::Br { cond: Cond::Lt, ra: r(6), rb: r(19), target: dx_loop });
    s.b.push(ScalarOp::Alu { op: AluOp::Add, rd: r(7), ra: r(7), rb: r(9) });
    s.addi(r(5), r(5), 1);
    s.b.push(ScalarOp::Br { cond: Cond::Lt, ra: r(5), rb: r(19), target: dy_loop });

    // Store the winning candidate index and advance to the next block.
    s.b.push(ScalarOp::St { rs: r(12), base: r(3), offset: 0, size: 4 });
    s.addi(r(3), r(3), 4);
    s.addi(r(1), r(1), (16 * FRAME_WIDTH) as i64);
    s.addi(r(2), r(2), (16 * FRAME_WIDTH) as i64);
    s.addi(r(4), r(4), -1);
    s.b.push(ScalarOp::Br { cond: Cond::Gt, ra: r(4), rb: r(31), target: block_loop });

    finish(s, lay, metric, isa)
}

/// Scalar distance core: 256 pixel pairs, one at a time.
fn emit_alpha_core(s: &mut Scaffold, metric: Metric) {
    s.li(r(10), 0);
    s.b.push(ScalarOp::Mov { rd: r(13), rs: r(1) }); // current row pointer
    s.b.push(ScalarOp::Mov { rd: r(14), rs: r(8) }); // candidate row pointer
    s.li(r(20), 0); // row counter
    s.li(r(21), 16);
    let row_loop = s.b.bind_here();
    for col in 0..16i64 {
        s.b.push(ScalarOp::Ld { rd: r(15), base: r(13), offset: col, size: 1, signed: false });
        s.b.push(ScalarOp::Ld { rd: r(16), base: r(14), offset: col, size: 1, signed: false });
        s.b.push(ScalarOp::Alu { op: AluOp::Sub, rd: r(17), ra: r(15), rb: r(16) });
        match metric {
            Metric::AbsoluteDifference => {
                s.b.push(ScalarOp::Abs { rd: r(17), ra: r(17) });
            }
            Metric::SquaredDifference => {
                s.b.push(ScalarOp::Alu { op: AluOp::Mul, rd: r(17), ra: r(17), rb: r(17) });
            }
        }
        s.b.push(ScalarOp::Alu { op: AluOp::Add, rd: r(10), ra: r(10), rb: r(17) });
    }
    s.b.push(ScalarOp::Alu { op: AluOp::Add, rd: r(13), ra: r(13), rb: r(9) });
    s.b.push(ScalarOp::Alu { op: AluOp::Add, rd: r(14), ra: r(14), rb: r(9) });
    s.addi(r(20), r(20), 1);
    s.b.push(ScalarOp::Br { cond: Cond::Lt, ra: r(20), rb: r(21), target: row_loop });
}

/// MMX distance core: eight pixels per packed operation, row by row.
fn emit_mmx_core(s: &mut Scaffold, metric: Metric) {
    s.b.push(ScalarOp::Mov { rd: r(13), rs: r(1) });
    s.b.push(ScalarOp::Mov { rd: r(14), rs: r(8) });
    s.li(r(20), 0);
    s.li(r(21), 16);
    // m7 accumulates 32-bit partial sums.
    s.push_media(MmxOp::Packed {
        op: PackedBinOp::Xor,
        md: m(7),
        ma: m(7),
        mb: m(7),
        lane: Lane::I32,
        sat: Saturation::Wrapping,
    });
    let row_loop = s.b.bind_here();
    for half in 0..2i64 {
        let off = half * 8;
        s.push_media(MmxOp::Ld { md: m(1), base: r(13), offset: off });
        s.push_media(MmxOp::Ld { md: m(2), base: r(14), offset: off });
        match metric {
            Metric::AbsoluteDifference => {
                // Enhanced reduction: packed SAD straight to a 32-bit lane.
                s.push_media(MmxOp::Sad { md: m(3), ma: m(1), mb: m(2), lane: Lane::U8 });
                s.push_media(MmxOp::Packed {
                    op: PackedBinOp::Add,
                    md: m(7),
                    ma: m(7),
                    mb: m(3),
                    lane: Lane::I32,
                    sat: Saturation::Wrapping,
                });
            }
            Metric::SquaredDifference => {
                // Data promotion: widen to 16 bits, subtract, multiply-add pairs.
                s.push_media(MmxOp::WidenLo { md: m(3), ms: m(1), lane: Lane::U8 });
                s.push_media(MmxOp::WidenHi { md: m(4), ms: m(1), lane: Lane::U8 });
                s.push_media(MmxOp::WidenLo { md: m(5), ms: m(2), lane: Lane::U8 });
                s.push_media(MmxOp::WidenHi { md: m(6), ms: m(2), lane: Lane::U8 });
                s.push_media(MmxOp::Packed {
                    op: PackedBinOp::Sub,
                    md: m(3),
                    ma: m(3),
                    mb: m(5),
                    lane: Lane::I16,
                    sat: Saturation::Wrapping,
                });
                s.push_media(MmxOp::Packed {
                    op: PackedBinOp::Sub,
                    md: m(4),
                    ma: m(4),
                    mb: m(6),
                    lane: Lane::I16,
                    sat: Saturation::Wrapping,
                });
                s.push_media(MmxOp::Packed {
                    op: PackedBinOp::MulAddPairs,
                    md: m(3),
                    ma: m(3),
                    mb: m(3),
                    lane: Lane::I16,
                    sat: Saturation::Wrapping,
                });
                s.push_media(MmxOp::Packed {
                    op: PackedBinOp::MulAddPairs,
                    md: m(4),
                    ma: m(4),
                    mb: m(4),
                    lane: Lane::I16,
                    sat: Saturation::Wrapping,
                });
                s.push_media(MmxOp::Packed {
                    op: PackedBinOp::Add,
                    md: m(7),
                    ma: m(7),
                    mb: m(3),
                    lane: Lane::I32,
                    sat: Saturation::Wrapping,
                });
                s.push_media(MmxOp::Packed {
                    op: PackedBinOp::Add,
                    md: m(7),
                    ma: m(7),
                    mb: m(4),
                    lane: Lane::I32,
                    sat: Saturation::Wrapping,
                });
            }
        }
    }
    s.b.push(ScalarOp::Alu { op: AluOp::Add, rd: r(13), ra: r(13), rb: r(9) });
    s.b.push(ScalarOp::Alu { op: AluOp::Add, rd: r(14), ra: r(14), rb: r(9) });
    s.addi(r(20), r(20), 1);
    s.b.push(ScalarOp::Br { cond: Cond::Lt, ra: r(20), rb: r(21), target: row_loop });
    s.push_media(MmxOp::ReduceSum { rd: r(10), ms: m(7), lane: Lane::I32 });
}

/// MDMX distance core: the packed accumulator absorbs the reduction, but one
/// accumulate instruction is still needed per row and word.
fn emit_mdmx_core(s: &mut Scaffold, metric: Metric) {
    s.b.push(ScalarOp::Mov { rd: r(13), rs: r(1) });
    s.b.push(ScalarOp::Mov { rd: r(14), rs: r(8) });
    s.li(r(20), 0);
    s.li(r(21), 16);
    s.b.push(MdmxOp::AccClear { acc: a(0) });
    let acc_op = match metric {
        Metric::AbsoluteDifference => AccOp::AbsDiffAdd,
        Metric::SquaredDifference => AccOp::SqrDiffAdd,
    };
    let row_loop = s.b.bind_here();
    for half in 0..2i64 {
        let off = half * 8;
        s.push_media(MmxOp::Ld { md: m(1), base: r(13), offset: off });
        s.push_media(MmxOp::Ld { md: m(2), base: r(14), offset: off });
        s.b.push(MdmxOp::Acc { op: acc_op, acc: a(0), ma: m(1), mb: m(2), lane: Lane::U8 });
    }
    s.b.push(ScalarOp::Alu { op: AluOp::Add, rd: r(13), ra: r(13), rb: r(9) });
    s.b.push(ScalarOp::Alu { op: AluOp::Add, rd: r(14), ra: r(14), rb: r(9) });
    s.addi(r(20), r(20), 1);
    s.b.push(ScalarOp::Br { cond: Cond::Lt, ra: r(20), rb: r(21), target: row_loop });
    s.b.push(MdmxOp::ReduceAcc { rd: r(10), acc: a(0) });
}

/// MOM distance core: the current block is already in `v8`/`v9`; the whole
/// candidate block is reduced with two strided loads and two matrix
/// accumulates.
fn emit_mom_core(s: &mut Scaffold, metric: Metric) {
    let acc_op = match metric {
        Metric::AbsoluteDifference => AccOp::AbsDiffAdd,
        Metric::SquaredDifference => AccOp::SqrDiffAdd,
    };
    s.b.push(MomOp::Ld { vd: v(0), base: r(8), stride: r(9) });
    s.addi(r(21), r(8), 8);
    s.b.push(MomOp::Ld { vd: v(1), base: r(21), stride: r(9) });
    s.b.push(MomOp::AccClear { acc: va(0) });
    s.b.push(MomOp::Acc { op: acc_op, acc: va(0), va: v(8), vb: v(0), lane: Lane::U8 });
    s.b.push(MomOp::Acc { op: acc_op, acc: va(0), va: v(9), vb: v(1), lane: Lane::U8 });
    s.b.push(MomOp::ReduceAcc { rd: r(10), acc: va(0) });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verified_trace;

    #[test]
    fn motion1_every_isa_matches_the_reference() {
        let params = KernelParams { seed: 5, scale: 1 };
        for isa in IsaKind::ALL {
            verified_trace(build(Metric::AbsoluteDifference, isa, &params));
        }
    }

    #[test]
    fn motion2_every_isa_matches_the_reference() {
        let params = KernelParams { seed: 6, scale: 1 };
        for isa in IsaKind::ALL {
            verified_trace(build(Metric::SquaredDifference, isa, &params));
        }
    }

    #[test]
    fn instruction_counts_follow_the_paper_ordering() {
        let params = KernelParams::default();
        let alpha = verified_trace(build(Metric::AbsoluteDifference, IsaKind::Alpha, &params));
        let mmx = verified_trace(build(Metric::AbsoluteDifference, IsaKind::Mmx, &params));
        let mdmx = verified_trace(build(Metric::AbsoluteDifference, IsaKind::Mdmx, &params));
        let mom = verified_trace(build(Metric::AbsoluteDifference, IsaKind::Mom, &params));
        assert!(mmx.len() < alpha.len() / 5);
        assert!(mdmx.len() <= mmx.len());
        assert!(mom.len() < mdmx.len() / 4);
    }

    #[test]
    fn motion2_penalises_mmx_data_promotion() {
        // MMX needs widening for the squared differences while MDMX uses its
        // accumulator directly, so the MMX/MDMX gap is wider than for motion1.
        let params = KernelParams::default();
        let mmx1 = verified_trace(build(Metric::AbsoluteDifference, IsaKind::Mmx, &params));
        let mdmx1 = verified_trace(build(Metric::AbsoluteDifference, IsaKind::Mdmx, &params));
        let mmx2 = verified_trace(build(Metric::SquaredDifference, IsaKind::Mmx, &params));
        let mdmx2 = verified_trace(build(Metric::SquaredDifference, IsaKind::Mdmx, &params));
        let gap1 = mmx1.len() as f64 / mdmx1.len() as f64;
        let gap2 = mmx2.len() as f64 / mdmx2.len() as f64;
        assert!(gap2 > gap1);
    }
}
