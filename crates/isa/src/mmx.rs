//! The MMX-like multimedia extension.
//!
//! This models the paper's *extended* MMX emulation library: 64-bit packed
//! operations over a dedicated 32-entry media register file, three logical
//! source/destination operands, plus the extra instructions the authors added
//! to make the comparison fair (packed average, conditional move / select and
//! "enhanced reduction operations" such as a packed sum-of-absolute-differences
//! and a horizontal sum).
//!
//! Reductions that need more precision than a lane provides must still go
//! through explicit widening (`WidenLo`/`WidenHi` + 16- or 32-bit adds), which
//! is the data-promotion overhead the paper contrasts with MDMX accumulators
//! and MOM matrix accumulators.

use crate::packed::{Lane, PackedWord, Saturation};
use crate::regs::{IntReg, MediaReg};
use crate::state::{CoreState, Outcome};
use crate::trace::{ArchReg, InstClass, MemAccess, MemKind};

/// Element-wise binary operations shared by the packed `Packed` instruction
/// form (and reused by MDMX and MOM for their SIMD and matrix forms).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PackedBinOp {
    /// Lane-wise addition (modular or saturating).
    Add,
    /// Lane-wise subtraction (modular or saturating).
    Sub,
    /// Lane-wise absolute difference.
    AbsDiff,
    /// Lane-wise rounding average.
    Avg,
    /// Lane-wise minimum.
    Min,
    /// Lane-wise maximum.
    Max,
    /// Lane-wise multiply, low half of the product.
    MulLo,
    /// Lane-wise multiply, high half of the product.
    MulHi,
    /// 16-bit multiply with pairwise 32-bit add (`pmaddwd`).
    MulAddPairs,
    /// Bit-wise AND.
    And,
    /// Bit-wise OR.
    Or,
    /// Bit-wise XOR.
    Xor,
    /// Bit-wise AND-NOT.
    AndNot,
    /// Lane-wise equality compare (mask result).
    CmpEq,
    /// Lane-wise greater-than compare (mask result).
    CmpGt,
}

impl PackedBinOp {
    /// Apply the operation to two packed words.
    pub fn apply(self, a: PackedWord, b: PackedWord, lane: Lane, sat: Saturation) -> PackedWord {
        match self {
            PackedBinOp::Add => a.add(b, lane, sat),
            PackedBinOp::Sub => a.sub(b, lane, sat),
            PackedBinOp::AbsDiff => a.abs_diff(b, lane),
            PackedBinOp::Avg => a.avg(b, lane),
            PackedBinOp::Min => a.min(b, lane),
            PackedBinOp::Max => a.max(b, lane),
            PackedBinOp::MulLo => a.mul_lo(b, lane),
            PackedBinOp::MulHi => a.mul_hi(b, lane),
            PackedBinOp::MulAddPairs => a.mul_add_pairs(b),
            PackedBinOp::And => a.and(b),
            PackedBinOp::Or => a.or(b),
            PackedBinOp::Xor => a.xor(b),
            PackedBinOp::AndNot => a.andnot(b),
            PackedBinOp::CmpEq => a.cmp_eq(b, lane),
            PackedBinOp::CmpGt => a.cmp_gt(b, lane),
        }
    }

    /// Whether the operation uses the complex (multiplier) media unit.
    pub fn is_complex(self) -> bool {
        matches!(self, PackedBinOp::MulLo | PackedBinOp::MulHi | PackedBinOp::MulAddPairs)
    }

    /// All binary operations (used for the opcode inventory).
    pub const ALL: [PackedBinOp; 15] = [
        PackedBinOp::Add,
        PackedBinOp::Sub,
        PackedBinOp::AbsDiff,
        PackedBinOp::Avg,
        PackedBinOp::Min,
        PackedBinOp::Max,
        PackedBinOp::MulLo,
        PackedBinOp::MulHi,
        PackedBinOp::MulAddPairs,
        PackedBinOp::And,
        PackedBinOp::Or,
        PackedBinOp::Xor,
        PackedBinOp::AndNot,
        PackedBinOp::CmpEq,
        PackedBinOp::CmpGt,
    ];
}

/// Packed shift directions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShiftKind {
    /// Logical shift left.
    LeftLogical,
    /// Logical (zero-filling) shift right.
    RightLogical,
    /// Arithmetic (sign-preserving) shift right.
    RightArith,
}

/// MMX-like instructions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MmxOp {
    /// Load a 64-bit packed word from `[base + offset]`.
    Ld {
        /// Destination media register.
        md: MediaReg,
        /// Base address register.
        base: IntReg,
        /// Byte offset.
        offset: i64,
    },
    /// Store a 64-bit packed word to `[base + offset]`.
    St {
        /// Source media register.
        ms: MediaReg,
        /// Base address register.
        base: IntReg,
        /// Byte offset.
        offset: i64,
    },
    /// Broadcast the low lane of an integer register into every lane.
    Splat {
        /// Destination media register.
        md: MediaReg,
        /// Integer source register.
        rs: IntReg,
        /// Lane interpretation.
        lane: Lane,
    },
    /// Move a full 64-bit value from the integer file into a media register.
    FromInt {
        /// Destination media register.
        md: MediaReg,
        /// Integer source register.
        rs: IntReg,
    },
    /// Extract one lane into an integer register (sign-/zero-extended per the
    /// lane type).
    ToInt {
        /// Destination integer register.
        rd: IntReg,
        /// Source media register.
        ms: MediaReg,
        /// Lane interpretation.
        lane: Lane,
        /// Lane index to extract.
        idx: u8,
    },
    /// Lane-wise binary operation `md = ma <op> mb`.
    Packed {
        /// Operation.
        op: PackedBinOp,
        /// Destination media register.
        md: MediaReg,
        /// First source.
        ma: MediaReg,
        /// Second source.
        mb: MediaReg,
        /// Lane interpretation.
        lane: Lane,
        /// Saturation behaviour (for add/sub).
        sat: Saturation,
    },
    /// Lane-wise shift by an immediate amount.
    Shift {
        /// Shift kind.
        kind: ShiftKind,
        /// Destination media register.
        md: MediaReg,
        /// Source media register.
        ms: MediaReg,
        /// Lane interpretation.
        lane: Lane,
        /// Shift amount in bits.
        amount: u8,
    },
    /// Per-lane select: `md[i] = mask[i] != 0 ? ma[i] : mb[i]` (the packed
    /// conditional move added to all emulated ISAs).
    Select {
        /// Destination media register.
        md: MediaReg,
        /// Mask register.
        mask: MediaReg,
        /// Value when the mask lane is non-zero.
        ma: MediaReg,
        /// Value when the mask lane is zero.
        mb: MediaReg,
        /// Lane interpretation.
        lane: Lane,
    },
    /// Narrow two registers into one with saturation (`pack`).
    Pack {
        /// Destination media register.
        md: MediaReg,
        /// Low-half source.
        ma: MediaReg,
        /// High-half source.
        mb: MediaReg,
        /// Source lane type (16- or 32-bit).
        from: Lane,
        /// Whether the narrowed lanes are signed.
        to_signed: bool,
    },
    /// Interleave low-half lanes of two registers (`punpckl*`).
    UnpackLo {
        /// Destination media register.
        md: MediaReg,
        /// First source.
        ma: MediaReg,
        /// Second source.
        mb: MediaReg,
        /// Lane interpretation.
        lane: Lane,
    },
    /// Interleave high-half lanes of two registers (`punpckh*`).
    UnpackHi {
        /// Destination media register.
        md: MediaReg,
        /// First source.
        ma: MediaReg,
        /// Second source.
        mb: MediaReg,
        /// Lane interpretation.
        lane: Lane,
    },
    /// Widen the low half of the lanes to the next wider type.
    WidenLo {
        /// Destination media register.
        md: MediaReg,
        /// Source media register.
        ms: MediaReg,
        /// Source lane type.
        lane: Lane,
    },
    /// Widen the high half of the lanes to the next wider type.
    WidenHi {
        /// Destination media register.
        md: MediaReg,
        /// Source media register.
        ms: MediaReg,
        /// Source lane type.
        lane: Lane,
    },
    /// Packed sum of absolute differences reduced into lane 0 (32-bit) of the
    /// destination — one of the paper's "enhanced reduction operations".
    Sad {
        /// Destination media register (lane 0 receives the sum).
        md: MediaReg,
        /// First source.
        ma: MediaReg,
        /// Second source.
        mb: MediaReg,
        /// Lane interpretation of the sources.
        lane: Lane,
    },
    /// Horizontal sum of all lanes into an integer register.
    ReduceSum {
        /// Destination integer register.
        rd: IntReg,
        /// Source media register.
        ms: MediaReg,
        /// Lane interpretation.
        lane: Lane,
    },
}

impl MmxOp {
    /// Functional-unit class of this instruction.
    pub fn class(&self) -> InstClass {
        match self {
            MmxOp::Ld { .. } => InstClass::Load,
            MmxOp::St { .. } => InstClass::Store,
            MmxOp::Packed { op, .. } if op.is_complex() => InstClass::MediaComplex,
            MmxOp::Sad { .. } | MmxOp::ReduceSum { .. } => InstClass::MediaComplex,
            _ => InstClass::MediaSimple,
        }
    }

    /// Source registers read by this instruction.
    pub fn srcs(&self) -> Vec<ArchReg> {
        let m = |r: &MediaReg| ArchReg::media(r.index() as u8);
        let i = |r: &IntReg| ArchReg::int(r.index() as u8);
        match self {
            MmxOp::Ld { base, .. } => vec![i(base)],
            MmxOp::St { ms, base, .. } => vec![m(ms), i(base)],
            MmxOp::Splat { rs, .. } | MmxOp::FromInt { rs, .. } => vec![i(rs)],
            MmxOp::ToInt { ms, .. } => vec![m(ms)],
            MmxOp::Packed { ma, mb, .. } => vec![m(ma), m(mb)],
            MmxOp::Shift { ms, .. } => vec![m(ms)],
            MmxOp::Select { mask, ma, mb, .. } => vec![m(mask), m(ma), m(mb)],
            MmxOp::Pack { ma, mb, .. } | MmxOp::UnpackLo { ma, mb, .. } | MmxOp::UnpackHi { ma, mb, .. } => {
                vec![m(ma), m(mb)]
            }
            MmxOp::WidenLo { ms, .. } | MmxOp::WidenHi { ms, .. } => vec![m(ms)],
            MmxOp::Sad { ma, mb, .. } => vec![m(ma), m(mb)],
            MmxOp::ReduceSum { ms, .. } => vec![m(ms)],
        }
    }

    /// Destination registers written by this instruction.
    pub fn dsts(&self) -> Vec<ArchReg> {
        let m = |r: &MediaReg| ArchReg::media(r.index() as u8);
        let i = |r: &IntReg| ArchReg::int(r.index() as u8);
        match self {
            MmxOp::Ld { md, .. }
            | MmxOp::Splat { md, .. }
            | MmxOp::FromInt { md, .. }
            | MmxOp::Packed { md, .. }
            | MmxOp::Shift { md, .. }
            | MmxOp::Select { md, .. }
            | MmxOp::Pack { md, .. }
            | MmxOp::UnpackLo { md, .. }
            | MmxOp::UnpackHi { md, .. }
            | MmxOp::WidenLo { md, .. }
            | MmxOp::WidenHi { md, .. }
            | MmxOp::Sad { md, .. } => vec![m(md)],
            MmxOp::ToInt { rd, .. } | MmxOp::ReduceSum { rd, .. } => vec![i(rd)],
            MmxOp::St { .. } => vec![],
        }
    }

    /// Execute the instruction against the architectural state.
    pub fn execute(&self, st: &mut CoreState) -> Outcome {
        match self {
            MmxOp::Ld { md, base, offset } => {
                let addr = (st.int.read(*base) + offset) as u64;
                let v = PackedWord::new(st.mem.read_u64(addr));
                st.media.write(*md, v);
                Outcome::with_mem(vec![MemAccess { addr, size: 8, kind: MemKind::Load }])
            }
            MmxOp::St { ms, base, offset } => {
                let addr = (st.int.read(*base) + offset) as u64;
                st.mem.write_u64(addr, st.media.read(*ms).bits());
                Outcome::with_mem(vec![MemAccess { addr, size: 8, kind: MemKind::Store }])
            }
            MmxOp::Splat { md, rs, lane } => {
                let v = PackedWord::splat(*lane, st.int.read(*rs));
                st.media.write(*md, v);
                Outcome::fall()
            }
            MmxOp::FromInt { md, rs } => {
                st.media.write(*md, PackedWord::new(st.int.read(*rs) as u64));
                Outcome::fall()
            }
            MmxOp::ToInt { rd, ms, lane, idx } => {
                let v = st.media.read(*ms).lane(*lane, *idx as usize);
                st.int.write(*rd, v);
                Outcome::fall()
            }
            MmxOp::Packed { op, md, ma, mb, lane, sat } => {
                let v = op.apply(st.media.read(*ma), st.media.read(*mb), *lane, *sat);
                st.media.write(*md, v);
                Outcome::fall()
            }
            MmxOp::Shift { kind, md, ms, lane, amount } => {
                let a = st.media.read(*ms);
                let v = match kind {
                    ShiftKind::LeftLogical => a.shl(*lane, *amount as u32),
                    ShiftKind::RightLogical => a.shr_logical(*lane, *amount as u32),
                    ShiftKind::RightArith => a.shr_arith(*lane, *amount as u32),
                };
                st.media.write(*md, v);
                Outcome::fall()
            }
            MmxOp::Select { md, mask, ma, mb, lane } => {
                let v = PackedWord::select(
                    st.media.read(*mask),
                    st.media.read(*ma),
                    st.media.read(*mb),
                    *lane,
                );
                st.media.write(*md, v);
                Outcome::fall()
            }
            MmxOp::Pack { md, ma, mb, from, to_signed } => {
                let v = st.media.read(*ma).pack(st.media.read(*mb), *from, *to_signed);
                st.media.write(*md, v);
                Outcome::fall()
            }
            MmxOp::UnpackLo { md, ma, mb, lane } => {
                let v = st.media.read(*ma).unpack_lo(st.media.read(*mb), *lane);
                st.media.write(*md, v);
                Outcome::fall()
            }
            MmxOp::UnpackHi { md, ma, mb, lane } => {
                let v = st.media.read(*ma).unpack_hi(st.media.read(*mb), *lane);
                st.media.write(*md, v);
                Outcome::fall()
            }
            MmxOp::WidenLo { md, ms, lane } => {
                let v = st.media.read(*ms).widen_lo(*lane);
                st.media.write(*md, v);
                Outcome::fall()
            }
            MmxOp::WidenHi { md, ms, lane } => {
                let v = st.media.read(*ms).widen_hi(*lane);
                st.media.write(*md, v);
                Outcome::fall()
            }
            MmxOp::Sad { md, ma, mb, lane } => {
                let s = st.media.read(*ma).sad(st.media.read(*mb), *lane);
                st.media.write(*md, PackedWord::ZERO.with_lane(Lane::I32, 0, s));
                Outcome::fall()
            }
            MmxOp::ReduceSum { rd, ms, lane } => {
                let s = st.media.read(*ms).reduce_sum(*lane);
                st.int.write(*rd, s);
                Outcome::fall()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemImage;
    use crate::regs::{m, r};

    fn state() -> CoreState {
        CoreState::new(MemImage::new(0x1000, 256))
    }

    #[test]
    fn load_store_roundtrip() {
        let mut st = state();
        st.int.write(r(1), 0x1000);
        st.media.write(m(2), PackedWord::from_u8_lanes([1, 2, 3, 4, 5, 6, 7, 8]));
        let o = MmxOp::St { ms: m(2), base: r(1), offset: 16 }.execute(&mut st);
        assert_eq!(o.mem[0].size, 8);
        MmxOp::Ld { md: m(3), base: r(1), offset: 16 }.execute(&mut st);
        assert_eq!(st.media.read(m(3)).to_u8_lanes(), [1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn splat_and_int_moves() {
        let mut st = state();
        st.int.write(r(1), 7);
        MmxOp::Splat { md: m(0), rs: r(1), lane: Lane::I16 }.execute(&mut st);
        assert_eq!(st.media.read(m(0)).to_i16_lanes(), [7; 4]);
        st.int.write(r(2), 0x1122_3344_5566_7788u64 as i64);
        MmxOp::FromInt { md: m(1), rs: r(2) }.execute(&mut st);
        assert_eq!(st.media.read(m(1)).bits(), 0x1122_3344_5566_7788);
        MmxOp::ToInt { rd: r(3), ms: m(1), lane: Lane::U16, idx: 0 }.execute(&mut st);
        assert_eq!(st.int.read(r(3)), 0x7788);
    }

    #[test]
    fn packed_binop_saturating_add() {
        let mut st = state();
        st.media.write(m(1), PackedWord::from_u8_lanes([250; 8]));
        st.media.write(m(2), PackedWord::from_u8_lanes([20; 8]));
        MmxOp::Packed {
            op: PackedBinOp::Add,
            md: m(3),
            ma: m(1),
            mb: m(2),
            lane: Lane::U8,
            sat: Saturation::Saturating,
        }
        .execute(&mut st);
        assert_eq!(st.media.read(m(3)).to_u8_lanes(), [255; 8]);
    }

    #[test]
    fn shift_select_pack_unpack_widen() {
        let mut st = state();
        st.media.write(m(1), PackedWord::from_i16_lanes([4, -4, 100, -100]));
        MmxOp::Shift { kind: ShiftKind::RightArith, md: m(2), ms: m(1), lane: Lane::I16, amount: 2 }
            .execute(&mut st);
        assert_eq!(st.media.read(m(2)).to_i16_lanes(), [1, -1, 25, -25]);

        st.media.write(m(3), PackedWord::from_i16_lanes([-1, 0, -1, 0]));
        st.media.write(m(4), PackedWord::from_i16_lanes([9, 9, 9, 9]));
        MmxOp::Select { md: m(5), mask: m(3), ma: m(1), mb: m(4), lane: Lane::I16 }.execute(&mut st);
        assert_eq!(st.media.read(m(5)).to_i16_lanes(), [4, 9, 100, 9]);

        MmxOp::Pack { md: m(6), ma: m(1), mb: m(4), from: Lane::I16, to_signed: false }.execute(&mut st);
        assert_eq!(st.media.read(m(6)).to_u8_lanes(), [4, 0, 100, 0, 9, 9, 9, 9]);

        st.media.write(m(7), PackedWord::from_u8_lanes([1, 2, 3, 4, 5, 6, 7, 8]));
        st.media.write(m(8), PackedWord::ZERO);
        MmxOp::UnpackLo { md: m(9), ma: m(7), mb: m(8), lane: Lane::U8 }.execute(&mut st);
        assert_eq!(st.media.read(m(9)).to_u8_lanes(), [1, 0, 2, 0, 3, 0, 4, 0]);
        MmxOp::UnpackHi { md: m(10), ma: m(7), mb: m(8), lane: Lane::U8 }.execute(&mut st);
        assert_eq!(st.media.read(m(10)).to_u8_lanes(), [5, 0, 6, 0, 7, 0, 8, 0]);

        MmxOp::WidenLo { md: m(11), ms: m(7), lane: Lane::U8 }.execute(&mut st);
        assert_eq!(st.media.read(m(11)).to_i16_lanes(), [1, 2, 3, 4]);
        MmxOp::WidenHi { md: m(12), ms: m(7), lane: Lane::U8 }.execute(&mut st);
        assert_eq!(st.media.read(m(12)).to_i16_lanes(), [5, 6, 7, 8]);
    }

    #[test]
    fn sad_and_reduce() {
        let mut st = state();
        let a = PackedWord::from_u8_lanes([10, 20, 30, 40, 50, 60, 70, 80]);
        let b = PackedWord::from_u8_lanes([11, 19, 33, 40, 55, 60, 60, 90]);
        st.media.write(m(1), a);
        st.media.write(m(2), b);
        MmxOp::Sad { md: m(3), ma: m(1), mb: m(2), lane: Lane::U8 }.execute(&mut st);
        assert_eq!(st.media.read(m(3)).lane(Lane::I32, 0), a.sad(b, Lane::U8));
        st.media.write(m(4), PackedWord::from_i16_lanes([1, 2, 3, 4]));
        MmxOp::ReduceSum { rd: r(5), ms: m(4), lane: Lane::I16 }.execute(&mut st);
        assert_eq!(st.int.read(r(5)), 10);
    }

    #[test]
    fn classes_and_metadata() {
        let mul = MmxOp::Packed {
            op: PackedBinOp::MulLo,
            md: m(1),
            ma: m(2),
            mb: m(3),
            lane: Lane::I16,
            sat: Saturation::Wrapping,
        };
        assert_eq!(mul.class(), InstClass::MediaComplex);
        let add = MmxOp::Packed {
            op: PackedBinOp::Add,
            md: m(1),
            ma: m(2),
            mb: m(3),
            lane: Lane::I16,
            sat: Saturation::Wrapping,
        };
        assert_eq!(add.class(), InstClass::MediaSimple);
        assert_eq!(add.srcs(), vec![ArchReg::media(2), ArchReg::media(3)]);
        assert_eq!(add.dsts(), vec![ArchReg::media(1)]);
        let ld = MmxOp::Ld { md: m(1), base: r(2), offset: 0 };
        assert_eq!(ld.class(), InstClass::Load);
        assert_eq!(ld.srcs(), vec![ArchReg::int(2)]);
        let st_op = MmxOp::St { ms: m(1), base: r(2), offset: 0 };
        assert_eq!(st_op.class(), InstClass::Store);
        assert!(st_op.dsts().is_empty());
        let red = MmxOp::ReduceSum { rd: r(1), ms: m(2), lane: Lane::I16 };
        assert_eq!(red.class(), InstClass::MediaComplex);
        assert_eq!(red.dsts(), vec![ArchReg::int(1)]);
    }

    #[test]
    fn packed_binop_all_inventory_applies() {
        // Every op in the inventory must be applicable without panicking.
        let a = PackedWord::from_i16_lanes([1, -2, 3, -4]);
        let b = PackedWord::from_i16_lanes([5, 6, -7, 8]);
        for op in PackedBinOp::ALL {
            let _ = op.apply(a, b, Lane::I16, Saturation::Saturating);
        }
    }
}
