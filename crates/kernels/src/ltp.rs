//! The `ltpparameters` kernel: GSM 06.10 long-term-predictor lag search.
//!
//! For every 40-sample sub-window the encoder cross-correlates the short-term
//! residual `d` against the reconstructed history at every lag from 40 to 120
//! and picks the lag with the maximum correlation. Each correlation is a
//! 40-term dot product — the classic reduction that MMX must emulate with
//! `pmaddwd`-style pair sums, MDMX absorbs into its packed accumulator one
//! instruction per 4 samples, and MOM absorbs into one matrix accumulate per
//! lag (the 40 samples become ten 4-sample rows of a matrix register).

use crate::reference::{ltp_correlations, LTP_MAX_LAG, LTP_MIN_LAG};
use crate::scaffold::Scaffold;
use crate::workload::PcmAudio;
use crate::{BuiltKernel, KernelKind, KernelParams};
use mom_core::matrix::{v, va};
use mom_core::ops::MomOp;
use mom_isa::mdmx::{AccOp, MdmxOp};
use mom_isa::mmx::{MmxOp, PackedBinOp};
use mom_isa::packed::{Lane, Saturation};
use mom_isa::regs::{a, m, r};
use mom_isa::scalar::{AluOp, Cond, ScalarOp};
use mom_isa::trace::IsaKind;

/// Samples per sub-window.
const WINDOW: usize = 40;
/// Number of lags searched.
const LAGS: usize = LTP_MAX_LAG - LTP_MIN_LAG + 1;
/// Samples between consecutive sub-window starts.
const SUBWINDOW_STRIDE: usize = 40;
/// Position of the first sub-window (enough history for the largest lag).
const FIRST_WINDOW: usize = 160;

struct Layout {
    samples_addr: u64,
    out_addr: u64,
    windows: usize,
    expected: Vec<u8>,
}

fn layout(s: &mut Scaffold, params: &KernelParams) -> Layout {
    let windows = 4 * params.scale.max(1);
    let total = FIRST_WINDOW + SUBWINDOW_STRIDE * windows + WINDOW;
    let audio = PcmAudio::synthetic(total, 57, params.seed);

    let samples_addr = s.alloc_i16(&audio.samples, 64);
    let out_addr = s.alloc_zeroed(windows * (LAGS + 1) * 4, 64);

    let mut expected = Vec::new();
    for w in 0..windows {
        let base = FIRST_WINDOW + w * SUBWINDOW_STRIDE;
        let mut d = [0i16; WINDOW];
        d.copy_from_slice(&audio.samples[base..base + WINDOW]);
        let (corrs, best_lag) = ltp_correlations(&d, &audio.samples[..base]);
        for c in &corrs {
            expected.extend_from_slice(&(*c as i32).to_le_bytes());
        }
        expected.extend_from_slice(&(best_lag as i32).to_le_bytes());
    }
    Layout { samples_addr, out_addr, windows, expected }
}

fn finish(s: Scaffold, lay: Layout, isa: IsaKind) -> BuiltKernel {
    BuiltKernel {
        kind: KernelKind::LtpParameters,
        isa,
        machine: s.machine,
        program: s.b.build().expect("ltp program has consistent labels"),
        expected: lay.expected,
        output_addr: lay.out_addr,
    }
}

/// Build the LTP kernel for the requested ISA.
///
/// Register plan (shared): `r1` window base address, `r2` output pointer,
/// `r4` remaining windows, `r5` lag counter, `r6` lag limit, `r7` history
/// pointer for the current lag, `r10` correlation, `r11` best correlation,
/// `r12` best lag, `r18` current lag value.
pub fn build(isa: IsaKind, params: &KernelParams) -> BuiltKernel {
    let mut s = Scaffold::new(isa);
    let lay = layout(&mut s, params);

    s.li(r(1), (lay.samples_addr + 2 * FIRST_WINDOW as u64) as i64);
    s.li(r(2), lay.out_addr as i64);
    s.li(r(4), lay.windows as i64);
    s.li(r(6), LAGS as i64);
    if isa == IsaKind::Mom {
        s.li(r(9), 8); // row stride of the contiguous sample windows
        s.b.push(MomOp::SetVlI { vl: (WINDOW / 4) as u8 });
    }

    let window_loop = s.b.bind_here();
    s.li(r(11), i64::MIN / 2); // best correlation
    s.li(r(12), 0); // best lag
    s.li(r(18), LTP_MIN_LAG as i64);
    s.li(r(5), 0);
    // History pointer for lag = LTP_MIN_LAG: window base - 2*lag bytes.
    s.addi(r(7), r(1), -2 * LTP_MIN_LAG as i64);

    // MOM hoists the current 40-sample window into a matrix register.
    if isa == IsaKind::Mom {
        s.b.push(MomOp::Ld { vd: v(8), base: r(1), stride: r(9) });
    }

    let lag_loop = s.b.bind_here();
    match isa {
        IsaKind::Alpha => emit_alpha_core(&mut s),
        IsaKind::Mmx => emit_mmx_core(&mut s),
        IsaKind::Mdmx => emit_mdmx_core(&mut s),
        IsaKind::Mom => emit_mom_core(&mut s),
    }

    // Store the correlation, track the maximum (strictly greater keeps the
    // first maximum, matching the reference).
    s.b.push(ScalarOp::St { rs: r(10), base: r(2), offset: 0, size: 4 });
    s.addi(r(2), r(2), 4);
    s.b.push(ScalarOp::CmpSet { cond: Cond::Gt, rd: r(13), ra: r(10), rb: r(11) });
    s.b.push(ScalarOp::CMov { rd: r(11), rc: r(13), rs: r(10) });
    s.b.push(ScalarOp::CMov { rd: r(12), rc: r(13), rs: r(18) });
    s.addi(r(18), r(18), 1);
    // The history window moves two bytes earlier for every additional lag.
    s.addi(r(7), r(7), -2);
    s.addi(r(5), r(5), 1);
    s.b.push(ScalarOp::Br { cond: Cond::Lt, ra: r(5), rb: r(6), target: lag_loop });

    // Store the winning lag and advance to the next sub-window.
    s.b.push(ScalarOp::St { rs: r(12), base: r(2), offset: 0, size: 4 });
    s.addi(r(2), r(2), 4);
    s.addi(r(1), r(1), 2 * SUBWINDOW_STRIDE as i64);
    s.addi(r(4), r(4), -1);
    s.b.push(ScalarOp::Br { cond: Cond::Gt, ra: r(4), rb: r(31), target: window_loop });

    finish(s, lay, isa)
}

/// Scalar core: 40 multiply-accumulates, one sample at a time.
fn emit_alpha_core(s: &mut Scaffold) {
    s.li(r(10), 0);
    for k in 0..WINDOW as i64 {
        s.b.push(ScalarOp::Ld { rd: r(14), base: r(1), offset: 2 * k, size: 2, signed: true });
        s.b.push(ScalarOp::Ld { rd: r(15), base: r(7), offset: 2 * k, size: 2, signed: true });
        s.b.push(ScalarOp::Alu { op: AluOp::Mul, rd: r(16), ra: r(14), rb: r(15) });
        s.b.push(ScalarOp::Alu { op: AluOp::Add, rd: r(10), ra: r(10), rb: r(16) });
    }
}

/// MMX core: `pmaddwd`-style pair sums, ten 4-sample groups.
fn emit_mmx_core(s: &mut Scaffold) {
    s.push_media(MmxOp::Packed {
        op: PackedBinOp::Xor,
        md: m(7),
        ma: m(7),
        mb: m(7),
        lane: Lane::I32,
        sat: Saturation::Wrapping,
    });
    for g in 0..(WINDOW / 4) as i64 {
        s.push_media(MmxOp::Ld { md: m(1), base: r(1), offset: 8 * g });
        s.push_media(MmxOp::Ld { md: m(2), base: r(7), offset: 8 * g });
        s.push_media(MmxOp::Packed {
            op: PackedBinOp::MulAddPairs,
            md: m(3),
            ma: m(1),
            mb: m(2),
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
    }
    s.push_media(MmxOp::ReduceSum { rd: r(10), ms: m(7), lane: Lane::I32 });
}

/// MDMX core: one accumulate instruction per 4-sample group — but each one
/// depends on the previous through the accumulator.
fn emit_mdmx_core(s: &mut Scaffold) {
    s.b.push(MdmxOp::AccClear { acc: a(0) });
    for g in 0..(WINDOW / 4) as i64 {
        s.push_media(MmxOp::Ld { md: m(1), base: r(1), offset: 8 * g });
        s.push_media(MmxOp::Ld { md: m(2), base: r(7), offset: 8 * g });
        s.b.push(MdmxOp::Acc { op: AccOp::MulAdd, acc: a(0), ma: m(1), mb: m(2), lane: Lane::I16 });
    }
    s.b.push(MdmxOp::ReduceAcc { rd: r(10), acc: a(0) });
}

/// MOM core: the current window is already in `v8`; one strided load of the
/// history window and one matrix multiply-accumulate cover all 40 samples.
fn emit_mom_core(s: &mut Scaffold) {
    s.b.push(MomOp::Ld { vd: v(0), base: r(7), stride: r(9) });
    s.b.push(MomOp::AccClear { acc: va(0) });
    s.b.push(MomOp::Acc { op: AccOp::MulAdd, acc: va(0), va: v(8), vb: v(0), lane: Lane::I16 });
    s.b.push(MomOp::ReduceAcc { rd: r(10), acc: va(0) });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verified_trace;

    #[test]
    fn every_isa_matches_the_reference() {
        let params = KernelParams { seed: 13, scale: 1 };
        for isa in IsaKind::ALL {
            verified_trace(build(isa, &params));
        }
    }

    #[test]
    fn instruction_count_ordering() {
        let params = KernelParams::default();
        let alpha = verified_trace(build(IsaKind::Alpha, &params));
        let mmx = verified_trace(build(IsaKind::Mmx, &params));
        let mdmx = verified_trace(build(IsaKind::Mdmx, &params));
        let mom = verified_trace(build(IsaKind::Mom, &params));
        assert!(mmx.len() < alpha.len() / 3);
        assert!(mdmx.len() < mmx.len());
        assert!(mom.len() < mdmx.len() / 2);
    }

    #[test]
    fn vector_length_is_ten_for_mom() {
        let trace = verified_trace(build(IsaKind::Mom, &KernelParams::default()));
        let vector_loads: Vec<_> =
            trace.insts.iter().filter(|i| i.elems as usize == WINDOW / 4).collect();
        assert!(!vector_loads.is_empty(), "MOM LTP uses VL = 10");
    }
}
