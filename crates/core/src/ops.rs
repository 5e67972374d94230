//! The MOM matrix instruction set.
//!
//! MOM instructions are vector instructions whose element operation is a
//! packed (sub-word SIMD) operation: a single instruction processes up to
//! [`MAX_VL`](crate::matrix::MAX_VL) 64-bit rows of a matrix register. The
//! four categories of the paper's Section 2.2 map to:
//!
//! * *packed arithmetic and logical operations* — [`MomOp::Packed`],
//!   [`MomOp::PackedMedia`], [`MomOp::Shift`], [`MomOp::Select`],
//!   [`MomOp::Pack`], [`MomOp::UnpackLo`]/[`MomOp::UnpackHi`],
//!   [`MomOp::WidenLo`]/[`MomOp::WidenHi`];
//! * *memory instructions* — [`MomOp::Ld`] and [`MomOp::St`], strided by an
//!   integer register exactly as `Momldq MRi <- Rj, Rk` in the paper;
//! * *matrix operations* — the accumulator forms [`MomOp::Acc`] and
//!   [`MomOp::AccMedia`] (matrix-per-vector, matrix SAD, matrix sum of
//!   quadratic differences) plus [`MomOp::Transpose`];
//! * *auxiliary operations* — [`MomOp::SetVl`]/[`MomOp::SetVlI`],
//!   [`MomOp::AccClear`], [`MomOp::ReadAcc`], [`MomOp::ReduceAcc`],
//!   [`MomOp::RowToMedia`]/[`MomOp::MediaToRow`].

use crate::matrix::{MomAccReg, MomReg};
use crate::state::{Machine, VL_SHADOW_REG};
use mom_isa::mdmx::AccOp;
use mom_isa::mmx::{PackedBinOp, ShiftKind};
use mom_isa::packed::{Lane, PackedWord, Saturation};
use mom_isa::regs::{IntReg, MediaReg};
use mom_isa::state::Outcome;
use mom_isa::trace::{ArchReg, InstClass, MemAccess, MemKind, MemList};

/// MOM matrix instructions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MomOp {
    /// Set the vector length from an integer register (clamped to 16).
    SetVl {
        /// Source integer register holding the new VL.
        rs: IntReg,
    },
    /// Set the vector length from an immediate (clamped to 16).
    SetVlI {
        /// New vector length.
        vl: u8,
    },
    /// Strided matrix load: row `k` (for `k < VL`) is the 64-bit word at
    /// `[base + k * stride]`.
    Ld {
        /// Destination matrix register.
        vd: MomReg,
        /// Base address register.
        base: IntReg,
        /// Stride register (bytes between consecutive rows).
        stride: IntReg,
    },
    /// Strided matrix store of the first VL rows.
    St {
        /// Source matrix register.
        vs: MomReg,
        /// Base address register.
        base: IntReg,
        /// Stride register (bytes between consecutive rows).
        stride: IntReg,
    },
    /// Row-wise packed binary operation `vd[r] = va[r] <op> vb[r]` for `r < VL`.
    Packed {
        /// Element operation.
        op: PackedBinOp,
        /// Destination matrix register.
        vd: MomReg,
        /// First source matrix register.
        va: MomReg,
        /// Second source matrix register.
        vb: MomReg,
        /// Lane interpretation.
        lane: Lane,
        /// Saturation behaviour.
        sat: Saturation,
    },
    /// Row-wise packed binary operation against a single media register
    /// (a vector-scalar form): `vd[r] = va[r] <op> mb` for `r < VL`.
    PackedMedia {
        /// Element operation.
        op: PackedBinOp,
        /// Destination matrix register.
        vd: MomReg,
        /// Source matrix register.
        va: MomReg,
        /// Media register broadcast to every row.
        mb: MediaReg,
        /// Lane interpretation.
        lane: Lane,
        /// Saturation behaviour.
        sat: Saturation,
    },
    /// Row-wise packed shift by an immediate.
    Shift {
        /// Shift kind.
        kind: ShiftKind,
        /// Destination matrix register.
        vd: MomReg,
        /// Source matrix register.
        va: MomReg,
        /// Lane interpretation.
        lane: Lane,
        /// Shift amount in bits.
        amount: u8,
    },
    /// Row-wise per-lane select (`vd[r][i] = mask[r][i] != 0 ? va[r][i] : vb[r][i]`).
    Select {
        /// Destination matrix register.
        vd: MomReg,
        /// Mask matrix register.
        mask: MomReg,
        /// Value when the mask lane is non-zero.
        va: MomReg,
        /// Value when the mask lane is zero.
        vb: MomReg,
        /// Lane interpretation.
        lane: Lane,
    },
    /// Row-wise saturating pack of two matrices into narrower lanes.
    Pack {
        /// Destination matrix register.
        vd: MomReg,
        /// Low-half source.
        va: MomReg,
        /// High-half source.
        vb: MomReg,
        /// Source lane type.
        from: Lane,
        /// Whether narrowed lanes are signed.
        to_signed: bool,
    },
    /// Row-wise interleave of low-half lanes.
    UnpackLo {
        /// Destination matrix register.
        vd: MomReg,
        /// First source.
        va: MomReg,
        /// Second source.
        vb: MomReg,
        /// Lane interpretation.
        lane: Lane,
    },
    /// Row-wise interleave of high-half lanes.
    UnpackHi {
        /// Destination matrix register.
        vd: MomReg,
        /// First source.
        va: MomReg,
        /// Second source.
        vb: MomReg,
        /// Lane interpretation.
        lane: Lane,
    },
    /// Row-wise widening of the low-half lanes.
    WidenLo {
        /// Destination matrix register.
        vd: MomReg,
        /// Source matrix register.
        va: MomReg,
        /// Source lane type.
        lane: Lane,
    },
    /// Row-wise widening of the high-half lanes.
    WidenHi {
        /// Destination matrix register.
        vd: MomReg,
        /// Source matrix register.
        va: MomReg,
        /// Source lane type.
        lane: Lane,
    },
    /// Transpose of the square element grid held in a matrix register
    /// (8x8 for byte lanes, 4x4 for halfword lanes).
    Transpose {
        /// Destination matrix register.
        vd: MomReg,
        /// Source matrix register.
        va: MomReg,
        /// Lane interpretation selecting the grid size.
        lane: Lane,
    },
    /// Transpose of an 8×8 halfword element grid held in a *pair* of matrix
    /// registers: `va_lo` holds columns 0–3 of eight rows and `va_hi` columns
    /// 4–7. This is the "switch vector dimensions" transpose the paper lists
    /// among the MOM matrix operations, used by the two-pass IDCT.
    TransposePair {
        /// Destination register receiving columns 0–3 of the transpose.
        vd_lo: MomReg,
        /// Destination register receiving columns 4–7 of the transpose.
        vd_hi: MomReg,
        /// Source register holding columns 0–3.
        va_lo: MomReg,
        /// Source register holding columns 4–7.
        va_hi: MomReg,
    },
    /// Clear a MOM accumulator.
    AccClear {
        /// Accumulator to clear.
        acc: MomAccReg,
    },
    /// Matrix accumulate: apply the accumulate operation for every row `r < VL`
    /// (`acc <op>= f(va[r], vb[r])`). This one instruction replaces VL MDMX
    /// accumulate instructions and removes the accumulator recurrence from the
    /// instruction stream, which is the pipelining advantage of Figure 4(b).
    Acc {
        /// Accumulating operation.
        op: AccOp,
        /// Destination accumulator.
        acc: MomAccReg,
        /// First source matrix register.
        va: MomReg,
        /// Second source matrix register.
        vb: MomReg,
        /// Lane interpretation.
        lane: Lane,
    },
    /// Matrix-per-vector accumulate: `acc <op>= f(va[r], mb)` for every row
    /// `r < VL`, with the same media register as second operand in every row.
    AccMedia {
        /// Accumulating operation.
        op: AccOp,
        /// Destination accumulator.
        acc: MomAccReg,
        /// Source matrix register.
        va: MomReg,
        /// Media register used by every row.
        mb: MediaReg,
        /// Lane interpretation.
        lane: Lane,
    },
    /// Read a MOM accumulator back into a media register with shift, rounding
    /// and saturation.
    ReadAcc {
        /// Destination media register.
        md: MediaReg,
        /// Source accumulator.
        acc: MomAccReg,
        /// Destination lane type.
        lane: Lane,
        /// Right shift applied with rounding.
        shift: u8,
        /// Saturation behaviour.
        sat: Saturation,
    },
    /// Horizontal-sum a MOM accumulator into an integer register.
    ReduceAcc {
        /// Destination integer register.
        rd: IntReg,
        /// Source accumulator.
        acc: MomAccReg,
    },
    /// Copy one row of a matrix register into a media register.
    RowToMedia {
        /// Destination media register.
        md: MediaReg,
        /// Source matrix register.
        vs: MomReg,
        /// Row index.
        row: u8,
    },
    /// Copy a media register into one row of a matrix register.
    MediaToRow {
        /// Destination matrix register.
        vd: MomReg,
        /// Row index.
        row: u8,
        /// Source media register.
        ms: MediaReg,
    },
}

impl MomOp {
    /// Functional-unit class of this instruction.
    pub fn class(&self) -> InstClass {
        match self {
            MomOp::SetVl { .. } | MomOp::SetVlI { .. } => InstClass::IntSimple,
            MomOp::Ld { .. } => InstClass::Load,
            MomOp::St { .. } => InstClass::Store,
            MomOp::Packed { op, .. } | MomOp::PackedMedia { op, .. } if op.is_complex() => {
                InstClass::MediaComplex
            }
            MomOp::Acc { op, .. } | MomOp::AccMedia { op, .. } if op.is_complex() => {
                InstClass::MediaComplex
            }
            _ => InstClass::MediaSimple,
        }
    }

    /// Whether the instruction's functional-unit occupancy scales with VL.
    pub fn is_vector(&self) -> bool {
        !matches!(
            self,
            MomOp::SetVl { .. }
                | MomOp::SetVlI { .. }
                | MomOp::AccClear { .. }
                | MomOp::ReadAcc { .. }
                | MomOp::ReduceAcc { .. }
                | MomOp::RowToMedia { .. }
                | MomOp::MediaToRow { .. }
        )
    }

    /// Source registers read by this instruction.
    pub fn srcs(&self) -> Vec<ArchReg> {
        let i = |r: &IntReg| ArchReg::int(r.index() as u8);
        let m = |r: &MediaReg| ArchReg::media(r.index() as u8);
        let v = |r: &MomReg| ArchReg::mom(r.index() as u8);
        let a = |r: &MomAccReg| ArchReg::mom_acc(r.index() as u8);
        let vl = ArchReg::int(VL_SHADOW_REG);
        match self {
            MomOp::SetVl { rs } => vec![i(rs)],
            MomOp::SetVlI { .. } => vec![],
            MomOp::Ld { base, stride, .. } => vec![i(base), i(stride), vl],
            MomOp::St { vs, base, stride } => vec![v(vs), i(base), i(stride), vl],
            MomOp::Packed { va, vb, .. } => vec![v(va), v(vb), vl],
            MomOp::PackedMedia { va, mb, .. } => vec![v(va), m(mb), vl],
            MomOp::Shift { va, .. } => vec![v(va), vl],
            MomOp::Select { mask, va, vb, .. } => vec![v(mask), v(va), v(vb), vl],
            MomOp::Pack { va, vb, .. } | MomOp::UnpackLo { va, vb, .. } | MomOp::UnpackHi { va, vb, .. } => {
                vec![v(va), v(vb), vl]
            }
            MomOp::WidenLo { va, .. } | MomOp::WidenHi { va, .. } | MomOp::Transpose { va, .. } => {
                vec![v(va), vl]
            }
            MomOp::TransposePair { va_lo, va_hi, .. } => vec![v(va_lo), v(va_hi), vl],
            MomOp::AccClear { .. } => vec![],
            MomOp::Acc { acc, va, vb, .. } => vec![a(acc), v(va), v(vb), vl],
            MomOp::AccMedia { acc, va, mb, .. } => vec![a(acc), v(va), m(mb), vl],
            MomOp::ReadAcc { acc, .. } | MomOp::ReduceAcc { acc, .. } => vec![a(acc)],
            MomOp::RowToMedia { vs, .. } => vec![v(vs)],
            MomOp::MediaToRow { vd, ms, .. } => vec![v(vd), m(ms)],
        }
    }

    /// Destination registers written by this instruction.
    pub fn dsts(&self) -> Vec<ArchReg> {
        let i = |r: &IntReg| ArchReg::int(r.index() as u8);
        let m = |r: &MediaReg| ArchReg::media(r.index() as u8);
        let v = |r: &MomReg| ArchReg::mom(r.index() as u8);
        let a = |r: &MomAccReg| ArchReg::mom_acc(r.index() as u8);
        let vl = ArchReg::int(VL_SHADOW_REG);
        match self {
            MomOp::SetVl { .. } | MomOp::SetVlI { .. } => vec![vl],
            MomOp::Ld { vd, .. }
            | MomOp::Packed { vd, .. }
            | MomOp::PackedMedia { vd, .. }
            | MomOp::Shift { vd, .. }
            | MomOp::Select { vd, .. }
            | MomOp::Pack { vd, .. }
            | MomOp::UnpackLo { vd, .. }
            | MomOp::UnpackHi { vd, .. }
            | MomOp::WidenLo { vd, .. }
            | MomOp::WidenHi { vd, .. }
            | MomOp::Transpose { vd, .. }
            | MomOp::MediaToRow { vd, .. } => vec![v(vd)],
            MomOp::TransposePair { vd_lo, vd_hi, .. } => vec![v(vd_lo), v(vd_hi)],
            MomOp::St { .. } => vec![],
            MomOp::AccClear { acc } | MomOp::Acc { acc, .. } | MomOp::AccMedia { acc, .. } => vec![a(acc)],
            MomOp::ReadAcc { md, .. } => vec![m(md)],
            MomOp::ReduceAcc { rd, .. } => vec![i(rd)],
            MomOp::RowToMedia { md, .. } => vec![m(md)],
        }
    }

    /// Execute the instruction against the machine state, returning the
    /// memory accesses performed (rows actually touched).
    pub fn execute(&self, st: &mut Machine) -> Outcome {
        let vl = st.mom.vl();
        match self {
            MomOp::SetVl { rs } => {
                let v = st.core.int.read(*rs).max(0) as usize;
                st.mom.set_vl(v);
                Outcome::fall()
            }
            MomOp::SetVlI { vl } => {
                st.mom.set_vl(*vl as usize);
                Outcome::fall()
            }
            MomOp::Ld { vd, base, stride } => {
                let base_addr = st.core.int.read(*base) as u64;
                let stride = st.core.int.read(*stride);
                let mut value = st.mom.matrix.read(*vd);
                let mut accesses = MemList::with_capacity(vl);
                for k in 0..vl {
                    let addr = (base_addr as i64 + k as i64 * stride) as u64;
                    value.set_row(k, PackedWord::new(st.core.mem.read_u64(addr)));
                    accesses.push(MemAccess { addr, size: 8, kind: MemKind::Load });
                }
                st.mom.matrix.write(*vd, value);
                Outcome::with_mem(accesses)
            }
            MomOp::St { vs, base, stride } => {
                let base_addr = st.core.int.read(*base) as u64;
                let stride = st.core.int.read(*stride);
                let value = st.mom.matrix.read(*vs);
                let mut accesses = MemList::with_capacity(vl);
                for k in 0..vl {
                    let addr = (base_addr as i64 + k as i64 * stride) as u64;
                    st.core.mem.write_u64(addr, value.row(k).bits());
                    accesses.push(MemAccess { addr, size: 8, kind: MemKind::Store });
                }
                Outcome::with_mem(accesses)
            }
            MomOp::Packed { op, vd, va, vb, lane, sat } => {
                let a = st.mom.matrix.read(*va);
                let b = st.mom.matrix.read(*vb);
                let base = st.mom.matrix.read(*vd);
                let mut out = base;
                for r in 0..vl {
                    out.set_row(r, op.apply(a.row(r), b.row(r), *lane, *sat));
                }
                st.mom.matrix.write(*vd, out);
                Outcome::fall()
            }
            MomOp::PackedMedia { op, vd, va, mb, lane, sat } => {
                let a = st.mom.matrix.read(*va);
                let b = st.core.media.read(*mb);
                let mut out = st.mom.matrix.read(*vd);
                for r in 0..vl {
                    out.set_row(r, op.apply(a.row(r), b, *lane, *sat));
                }
                st.mom.matrix.write(*vd, out);
                Outcome::fall()
            }
            MomOp::Shift { kind, vd, va, lane, amount } => {
                let a = st.mom.matrix.read(*va);
                let out = a.map_rows(vl, |w| match kind {
                    ShiftKind::LeftLogical => w.shl(*lane, *amount as u32),
                    ShiftKind::RightLogical => w.shr_logical(*lane, *amount as u32),
                    ShiftKind::RightArith => w.shr_arith(*lane, *amount as u32),
                });
                st.mom.matrix.write(*vd, out);
                Outcome::fall()
            }
            MomOp::Select { vd, mask, va, vb, lane } => {
                let mk = st.mom.matrix.read(*mask);
                let a = st.mom.matrix.read(*va);
                let b = st.mom.matrix.read(*vb);
                let mut out = st.mom.matrix.read(*vd);
                for r in 0..vl {
                    out.set_row(r, PackedWord::select(mk.row(r), a.row(r), b.row(r), *lane));
                }
                st.mom.matrix.write(*vd, out);
                Outcome::fall()
            }
            MomOp::Pack { vd, va, vb, from, to_signed } => {
                let a = st.mom.matrix.read(*va);
                let b = st.mom.matrix.read(*vb);
                let mut out = st.mom.matrix.read(*vd);
                for r in 0..vl {
                    out.set_row(r, a.row(r).pack(b.row(r), *from, *to_signed));
                }
                st.mom.matrix.write(*vd, out);
                Outcome::fall()
            }
            MomOp::UnpackLo { vd, va, vb, lane } => {
                let a = st.mom.matrix.read(*va);
                let b = st.mom.matrix.read(*vb);
                let out = a.zip_rows(&b, vl, |x, y| x.unpack_lo(y, *lane));
                st.mom.matrix.write(*vd, out);
                Outcome::fall()
            }
            MomOp::UnpackHi { vd, va, vb, lane } => {
                let a = st.mom.matrix.read(*va);
                let b = st.mom.matrix.read(*vb);
                let out = a.zip_rows(&b, vl, |x, y| x.unpack_hi(y, *lane));
                st.mom.matrix.write(*vd, out);
                Outcome::fall()
            }
            MomOp::WidenLo { vd, va, lane } => {
                let a = st.mom.matrix.read(*va);
                let out = a.map_rows(vl, |w| w.widen_lo(*lane));
                st.mom.matrix.write(*vd, out);
                Outcome::fall()
            }
            MomOp::WidenHi { vd, va, lane } => {
                let a = st.mom.matrix.read(*va);
                let out = a.map_rows(vl, |w| w.widen_hi(*lane));
                st.mom.matrix.write(*vd, out);
                Outcome::fall()
            }
            MomOp::Transpose { vd, va, lane } => {
                let a = st.mom.matrix.read(*va);
                st.mom.matrix.write(*vd, a.transpose(*lane));
                Outcome::fall()
            }
            MomOp::TransposePair { vd_lo, vd_hi, va_lo, va_hi } => {
                let lo = st.mom.matrix.read(*va_lo);
                let hi = st.mom.matrix.read(*va_hi);
                let elem = |r: usize, c: usize| {
                    if c < 4 {
                        lo.element(Lane::I16, r, c)
                    } else {
                        hi.element(Lane::I16, r, c - 4)
                    }
                };
                let mut out_lo = st.mom.matrix.read(*vd_lo);
                let mut out_hi = st.mom.matrix.read(*vd_hi);
                for r in 0..8 {
                    for c in 0..8 {
                        let value = elem(c, r);
                        if c < 4 {
                            out_lo.set_element(Lane::I16, r, c, value);
                        } else {
                            out_hi.set_element(Lane::I16, r, c - 4, value);
                        }
                    }
                }
                st.mom.matrix.write(*vd_lo, out_lo);
                st.mom.matrix.write(*vd_hi, out_hi);
                Outcome::fall()
            }
            MomOp::AccClear { acc } => {
                st.mom.accs[acc.index()].clear();
                Outcome::fall()
            }
            MomOp::Acc { op, acc, va, vb, lane } => {
                let a = st.mom.matrix.read(*va);
                let b = st.mom.matrix.read(*vb);
                let accu = &mut st.mom.accs[acc.index()];
                for r in 0..vl {
                    op.apply(accu, a.row(r), b.row(r), *lane);
                }
                Outcome::fall()
            }
            MomOp::AccMedia { op, acc, va, mb, lane } => {
                let a = st.mom.matrix.read(*va);
                let b = st.core.media.read(*mb);
                let accu = &mut st.mom.accs[acc.index()];
                for r in 0..vl {
                    op.apply(accu, a.row(r), b, *lane);
                }
                Outcome::fall()
            }
            MomOp::ReadAcc { md, acc, lane, shift, sat } => {
                let v = st.mom.accs[acc.index()].read_packed(*lane, *shift as u32, *sat);
                st.core.media.write(*md, v);
                Outcome::fall()
            }
            MomOp::ReduceAcc { rd, acc } => {
                let v = st.mom.accs[acc.index()].reduce_sum();
                st.core.int.write(*rd, v);
                Outcome::fall()
            }
            MomOp::RowToMedia { md, vs, row } => {
                let v = st.mom.matrix.read(*vs).row(*row as usize);
                st.core.media.write(*md, v);
                Outcome::fall()
            }
            MomOp::MediaToRow { vd, row, ms } => {
                let w = st.core.media.read(*ms);
                let mut value = st.mom.matrix.read(*vd);
                value.set_row(*row as usize, w);
                st.mom.matrix.write(*vd, value);
                Outcome::fall()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::{v, va, MatrixValue};
    use mom_isa::mem::MemImage;
    use mom_isa::regs::{m, r};

    fn machine() -> Machine {
        Machine::new(MemImage::new(0x1000, 4096))
    }

    #[test]
    fn setvl_clamps_and_tracks() {
        let mut st = machine();
        MomOp::SetVlI { vl: 5 }.execute(&mut st);
        assert_eq!(st.mom.vl(), 5);
        st.core.int.write(r(1), 40);
        MomOp::SetVl { rs: r(1) }.execute(&mut st);
        assert_eq!(st.mom.vl(), 16);
    }

    #[test]
    fn strided_load_store_roundtrip() {
        let mut st = machine();
        // Write a recognizable pattern with a stride of 32 bytes.
        for k in 0..8u64 {
            st.core.mem.write_u64(0x1000 + k * 32, 0x0101_0101_0101_0101 * (k + 1));
        }
        st.core.int.write(r(1), 0x1000);
        st.core.int.write(r(2), 32);
        MomOp::SetVlI { vl: 8 }.execute(&mut st);
        let o = MomOp::Ld { vd: v(0), base: r(1), stride: r(2) }.execute(&mut st);
        assert_eq!(o.mem.len(), 8);
        assert_eq!(o.mem[3].addr, 0x1000 + 3 * 32);
        assert_eq!(st.mom.matrix.read(v(0)).row(4).bits(), 0x0505_0505_0505_0505);

        // Store it back contiguously.
        st.core.int.write(r(3), 0x1800);
        st.core.int.write(r(4), 8);
        let o = MomOp::St { vs: v(0), base: r(3), stride: r(4) }.execute(&mut st);
        assert_eq!(o.mem.len(), 8);
        assert_eq!(st.core.mem.read_u64(0x1800 + 2 * 8), 0x0303_0303_0303_0303);
    }

    #[test]
    fn packed_respects_vl() {
        let mut st = machine();
        let a = MatrixValue::from_rows((0..16).map(|_| PackedWord::splat(Lane::U8, 10)));
        let b = MatrixValue::from_rows((0..16).map(|_| PackedWord::splat(Lane::U8, 250)));
        st.mom.matrix.write(v(1), a);
        st.mom.matrix.write(v(2), b);
        MomOp::SetVlI { vl: 3 }.execute(&mut st);
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
        assert_eq!(out.row(0).to_u8_lanes(), [255; 8]);
        assert_eq!(out.row(2).to_u8_lanes(), [255; 8]);
        assert_eq!(out.row(3), PackedWord::ZERO, "row beyond VL untouched");
    }

    #[test]
    fn packed_media_broadcasts_scalar_operand() {
        let mut st = machine();
        let a = MatrixValue::from_rows((0..4).map(|i| PackedWord::splat(Lane::I16, i as i64)));
        st.mom.matrix.write(v(1), a);
        st.core.media.write(m(0), PackedWord::splat(Lane::I16, 100));
        MomOp::SetVlI { vl: 4 }.execute(&mut st);
        MomOp::PackedMedia {
            op: PackedBinOp::Add,
            vd: v(2),
            va: v(1),
            mb: m(0),
            lane: Lane::I16,
            sat: Saturation::Wrapping,
        }
        .execute(&mut st);
        assert_eq!(st.mom.matrix.read(v(2)).row(3), PackedWord::from_i16_lanes([103; 4]));
    }

    #[test]
    fn matrix_sad_matches_scalar_reference() {
        let mut st = machine();
        let mut expected = 0i64;
        let mut a = MatrixValue::zero();
        let mut b = MatrixValue::zero();
        for row in 0..16 {
            for col in 0..8 {
                let x = ((row * 17 + col * 3) % 251) as i64;
                let y = ((row * 7 + col * 11) % 251) as i64;
                a.set_element(Lane::U8, row, col, x);
                b.set_element(Lane::U8, row, col, y);
                expected += (x - y).abs();
            }
        }
        st.mom.matrix.write(v(1), a);
        st.mom.matrix.write(v(2), b);
        MomOp::SetVlI { vl: 16 }.execute(&mut st);
        MomOp::AccClear { acc: va(0) }.execute(&mut st);
        MomOp::Acc { op: AccOp::AbsDiffAdd, acc: va(0), va: v(1), vb: v(2), lane: Lane::U8 }
            .execute(&mut st);
        MomOp::ReduceAcc { rd: r(5), acc: va(0) }.execute(&mut st);
        assert_eq!(st.core.int.read(r(5)), expected);
    }

    #[test]
    fn matrix_per_vector_dot_product() {
        let mut st = machine();
        let a = MatrixValue::from_rows((0..4).map(|i| PackedWord::splat(Lane::I16, (i + 1) as i64)));
        st.mom.matrix.write(v(1), a);
        st.core.media.write(m(0), PackedWord::from_i16_lanes([1, 2, 3, 4]));
        MomOp::SetVlI { vl: 4 }.execute(&mut st);
        MomOp::AccClear { acc: va(1) }.execute(&mut st);
        MomOp::AccMedia { op: AccOp::MulAdd, acc: va(1), va: v(1), mb: m(0), lane: Lane::I16 }
            .execute(&mut st);
        // acc lanes = sum over rows of row_value * [1,2,3,4] = (1+2+3+4)*[1,2,3,4]
        MomOp::ReduceAcc { rd: r(6), acc: va(1) }.execute(&mut st);
        assert_eq!(st.core.int.read(r(6)), 10 * (1 + 2 + 3 + 4));
        MomOp::ReadAcc { md: m(1), acc: va(1), lane: Lane::I16, shift: 0, sat: Saturation::Saturating }
            .execute(&mut st);
        assert_eq!(st.core.media.read(m(1)), PackedWord::from_i16_lanes([10, 20, 30, 40]));
    }

    #[test]
    fn transpose_and_row_moves() {
        let mut st = machine();
        let mut a = MatrixValue::zero();
        for row in 0..8 {
            for col in 0..8 {
                a.set_element(Lane::U8, row, col, (row * 8 + col) as i64);
            }
        }
        st.mom.matrix.write(v(1), a);
        MomOp::Transpose { vd: v(2), va: v(1), lane: Lane::U8 }.execute(&mut st);
        assert_eq!(st.mom.matrix.read(v(2)).element(Lane::U8, 2, 5), (5 * 8 + 2) as i64);

        MomOp::RowToMedia { md: m(3), vs: v(1), row: 1 }.execute(&mut st);
        assert_eq!(st.core.media.read(m(3)).to_u8_lanes(), [8, 9, 10, 11, 12, 13, 14, 15]);
        MomOp::MediaToRow { vd: v(4), row: 2, ms: m(3) }.execute(&mut st);
        assert_eq!(st.mom.matrix.read(v(4)).row(2).to_u8_lanes(), [8, 9, 10, 11, 12, 13, 14, 15]);
    }

    #[test]
    fn unpack_widen_shift_select_rows() {
        let mut st = machine();
        let a = MatrixValue::from_rows((0..2).map(|_| PackedWord::from_u8_lanes([1, 2, 3, 4, 5, 6, 7, 8])));
        let z = MatrixValue::zero();
        st.mom.matrix.write(v(1), a);
        st.mom.matrix.write(v(2), z);
        MomOp::SetVlI { vl: 2 }.execute(&mut st);
        MomOp::UnpackLo { vd: v(3), va: v(1), vb: v(2), lane: Lane::U8 }.execute(&mut st);
        assert_eq!(st.mom.matrix.read(v(3)).row(1).to_u8_lanes(), [1, 0, 2, 0, 3, 0, 4, 0]);
        MomOp::UnpackHi { vd: v(4), va: v(1), vb: v(2), lane: Lane::U8 }.execute(&mut st);
        assert_eq!(st.mom.matrix.read(v(4)).row(0).to_u8_lanes(), [5, 0, 6, 0, 7, 0, 8, 0]);
        MomOp::WidenLo { vd: v(5), va: v(1), lane: Lane::U8 }.execute(&mut st);
        assert_eq!(st.mom.matrix.read(v(5)).row(0), PackedWord::from_i16_lanes([1, 2, 3, 4]));
        MomOp::WidenHi { vd: v(6), va: v(1), lane: Lane::U8 }.execute(&mut st);
        assert_eq!(st.mom.matrix.read(v(6)).row(0), PackedWord::from_i16_lanes([5, 6, 7, 8]));
        MomOp::Shift { kind: ShiftKind::LeftLogical, vd: v(7), va: v(5), lane: Lane::I16, amount: 3 }
            .execute(&mut st);
        assert_eq!(st.mom.matrix.read(v(7)).row(0), PackedWord::from_i16_lanes([8, 16, 24, 32]));

        // Select rows via a mask of all-ones in lane 0 only.
        let mut mask = MatrixValue::zero();
        for r0 in 0..2 {
            mask.set_element(Lane::I16, r0, 0, -1);
        }
        st.mom.matrix.write(v(8), mask);
        MomOp::Select { vd: v(9), mask: v(8), va: v(5), vb: v(7), lane: Lane::I16 }.execute(&mut st);
        assert_eq!(st.mom.matrix.read(v(9)).row(0), PackedWord::from_i16_lanes([1, 16, 24, 32]));
    }

    #[test]
    fn pack_rows_saturates() {
        let mut st = machine();
        let a = MatrixValue::from_rows((0..2).map(|_| PackedWord::from_i16_lanes([300, -5, 100, 20])));
        let b = MatrixValue::from_rows((0..2).map(|_| PackedWord::from_i16_lanes([1, 2, 3, 400])));
        st.mom.matrix.write(v(1), a);
        st.mom.matrix.write(v(2), b);
        MomOp::SetVlI { vl: 2 }.execute(&mut st);
        MomOp::Pack { vd: v(3), va: v(1), vb: v(2), from: Lane::I16, to_signed: false }.execute(&mut st);
        assert_eq!(st.mom.matrix.read(v(3)).row(0).to_u8_lanes(), [255, 0, 100, 20, 1, 2, 3, 255]);
    }

    #[test]
    fn classes_and_metadata() {
        let ld = MomOp::Ld { vd: v(0), base: r(1), stride: r(2) };
        assert_eq!(ld.class(), InstClass::Load);
        assert!(ld.is_vector());
        assert!(ld.srcs().contains(&ArchReg::int(VL_SHADOW_REG)));
        assert_eq!(ld.dsts(), vec![ArchReg::mom(0)]);

        let setvl = MomOp::SetVlI { vl: 4 };
        assert_eq!(setvl.class(), InstClass::IntSimple);
        assert!(!setvl.is_vector());
        assert_eq!(setvl.dsts(), vec![ArchReg::int(VL_SHADOW_REG)]);

        let acc = MomOp::Acc { op: AccOp::MulAdd, acc: va(0), va: v(1), vb: v(2), lane: Lane::I16 };
        assert_eq!(acc.class(), InstClass::MediaComplex);
        assert!(acc.srcs().contains(&ArchReg::mom_acc(0)));
        assert_eq!(acc.dsts(), vec![ArchReg::mom_acc(0)]);

        let sad = MomOp::Acc { op: AccOp::AbsDiffAdd, acc: va(0), va: v(1), vb: v(2), lane: Lane::U8 };
        assert_eq!(sad.class(), InstClass::MediaSimple);

        let st_op = MomOp::St { vs: v(1), base: r(1), stride: r(2) };
        assert_eq!(st_op.class(), InstClass::Store);
        assert!(st_op.dsts().is_empty());
    }

    #[test]
    fn transpose_pair_swaps_rows_and_columns_across_the_register_pair() {
        let mut st = machine();
        let mut lo = MatrixValue::zero();
        let mut hi = MatrixValue::zero();
        for row in 0..8 {
            for col in 0..8 {
                let value = (row * 10 + col) as i64;
                if col < 4 {
                    lo.set_element(Lane::I16, row, col, value);
                } else {
                    hi.set_element(Lane::I16, row, col - 4, value);
                }
            }
        }
        st.mom.matrix.write(v(1), lo);
        st.mom.matrix.write(v(2), hi);
        MomOp::SetVlI { vl: 8 }.execute(&mut st);
        MomOp::TransposePair { vd_lo: v(3), vd_hi: v(4), va_lo: v(1), va_hi: v(2) }.execute(&mut st);
        // Element (r=2, c=6) of the transpose equals source element (6, 2).
        assert_eq!(st.mom.matrix.read(v(4)).element(Lane::I16, 2, 2), 62);
        // Element (r=5, c=1) equals source (1, 5).
        assert_eq!(st.mom.matrix.read(v(3)).element(Lane::I16, 5, 1), 15);
        // Transposing twice restores the original.
        MomOp::TransposePair { vd_lo: v(5), vd_hi: v(6), va_lo: v(3), va_hi: v(4) }.execute(&mut st);
        assert_eq!(st.mom.matrix.read(v(5)), lo);
        assert_eq!(st.mom.matrix.read(v(6)), hi);
        let op = MomOp::TransposePair { vd_lo: v(3), vd_hi: v(4), va_lo: v(1), va_hi: v(2) };
        assert_eq!(op.dsts().len(), 2);
        assert!(op.is_vector());
    }
}
