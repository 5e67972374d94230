//! Packed sub-word SIMD arithmetic on 64-bit words.
//!
//! Every multimedia ISA modelled by this workspace (MMX-like, MDMX-like and the
//! MOM matrix extension) operates on 64-bit registers that are interpreted as a
//! vector of narrow *lanes*: eight 8-bit, four 16-bit or two 32-bit elements.
//! This module provides the lane-wise semantics shared by all of them:
//! modular and saturating add/sub, multiplies, absolute differences, averages,
//! min/max, comparisons, shifts, packs and unpacks.
//!
//! The representation is a plain [`PackedWord`] newtype around `u64`; lanes are
//! stored little-endian (lane 0 in the least-significant bits), matching how the
//! emulation libraries of the original paper laid data out in Alpha registers.
//!
//! # Examples
//!
//! ```
//! use mom_isa::packed::{PackedWord, Lane, Saturation};
//!
//! let a = PackedWord::from_u8_lanes([250, 1, 2, 3, 4, 5, 6, 7]);
//! let b = PackedWord::from_u8_lanes([10, 1, 1, 1, 1, 1, 1, 1]);
//! let sat = a.add(b, Lane::U8, Saturation::Saturating);
//! assert_eq!(sat.to_u8_lanes()[0], 255); // saturated, not wrapped
//! ```

/// Lane interpretation of a 64-bit packed word.
///
/// The variant selects both the element width and its signedness, which
/// matters for saturation, comparisons, min/max and widening operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Lane {
    /// Eight unsigned 8-bit elements (pixels).
    U8,
    /// Eight signed 8-bit elements.
    I8,
    /// Four unsigned 16-bit elements.
    U16,
    /// Four signed 16-bit elements (fixed-point coefficients).
    I16,
    /// Two unsigned 32-bit elements.
    U32,
    /// Two signed 32-bit elements.
    I32,
}

impl Lane {
    /// Number of elements packed in a 64-bit word for this lane type.
    pub const fn count(self) -> usize {
        match self {
            Lane::U8 | Lane::I8 => 8,
            Lane::U16 | Lane::I16 => 4,
            Lane::U32 | Lane::I32 => 2,
        }
    }

    /// Width of one element in bits.
    pub const fn bits(self) -> u32 {
        match self {
            Lane::U8 | Lane::I8 => 8,
            Lane::U16 | Lane::I16 => 16,
            Lane::U32 | Lane::I32 => 32,
        }
    }

    /// Width of one element in bytes.
    pub const fn bytes(self) -> usize {
        (self.bits() / 8) as usize
    }

    /// Whether elements are interpreted as signed two's-complement values.
    pub const fn is_signed(self) -> bool {
        matches!(self, Lane::I8 | Lane::I16 | Lane::I32)
    }

    /// The lane type with the same width but signed interpretation.
    pub const fn as_signed(self) -> Lane {
        match self {
            Lane::U8 | Lane::I8 => Lane::I8,
            Lane::U16 | Lane::I16 => Lane::I16,
            Lane::U32 | Lane::I32 => Lane::I32,
        }
    }

    /// The lane type with the same width but unsigned interpretation.
    pub const fn as_unsigned(self) -> Lane {
        match self {
            Lane::U8 | Lane::I8 => Lane::U8,
            Lane::U16 | Lane::I16 => Lane::U16,
            Lane::U32 | Lane::I32 => Lane::U32,
        }
    }

    /// The lane type of twice the width (used by widening operations).
    ///
    /// 32-bit lanes widen conceptually to 64-bit; this returns `None` in that
    /// case because the result no longer fits a packed sub-word layout.
    pub const fn widened(self) -> Option<Lane> {
        match self {
            Lane::U8 => Some(Lane::U16),
            Lane::I8 => Some(Lane::I16),
            Lane::U16 => Some(Lane::U32),
            Lane::I16 => Some(Lane::I32),
            Lane::U32 | Lane::I32 => None,
        }
    }

    /// Minimum representable element value (as `i64`).
    pub const fn min_value(self) -> i64 {
        match self {
            Lane::U8 | Lane::U16 | Lane::U32 => 0,
            Lane::I8 => i8::MIN as i64,
            Lane::I16 => i16::MIN as i64,
            Lane::I32 => i32::MIN as i64,
        }
    }

    /// Maximum representable element value (as `i64`).
    pub const fn max_value(self) -> i64 {
        match self {
            Lane::U8 => u8::MAX as i64,
            Lane::U16 => u16::MAX as i64,
            Lane::U32 => u32::MAX as i64,
            Lane::I8 => i8::MAX as i64,
            Lane::I16 => i16::MAX as i64,
            Lane::I32 => i32::MAX as i64,
        }
    }

    /// Clamp `v` into the representable range of this lane type.
    pub fn clamp(self, v: i64) -> i64 {
        v.clamp(self.min_value(), self.max_value())
    }
}

/// Overflow behaviour of packed arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Saturation {
    /// Wrap modulo the lane width (C-style unsigned overflow).
    #[default]
    Wrapping,
    /// Clamp to the lane's representable range (multimedia saturation).
    Saturating,
}

/// The lane values of a packed word as a fixed-capacity stack array.
///
/// This is the allocation-free replacement for the old `Vec<i64>`-returning
/// lane extraction: up to eight `i64` values (the 8-bit lane count) live
/// inline, and only the first `len()` entries — one per lane of the
/// extracting [`Lane`] type — are active. `Lanes` dereferences to a slice,
/// so indexing, iteration and slice methods all work as they did on the
/// vector form — without touching the heap in the interpreter's per-element
/// inner loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Lanes {
    buf: [i64; 8],
    len: u8,
}

impl Lanes {
    /// The active lane values as a slice (also available through deref).
    pub fn as_slice(&self) -> &[i64] {
        &self.buf[..self.len as usize]
    }
}

impl std::ops::Deref for Lanes {
    type Target = [i64];

    fn deref(&self) -> &[i64] {
        self.as_slice()
    }
}

impl IntoIterator for Lanes {
    type Item = i64;
    type IntoIter = std::iter::Take<std::array::IntoIter<i64, 8>>;

    fn into_iter(self) -> Self::IntoIter {
        self.buf.into_iter().take(self.len as usize)
    }
}

impl<'a> IntoIterator for &'a Lanes {
    type Item = &'a i64;
    type IntoIter = std::slice::Iter<'a, i64>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// A 64-bit word interpreted as a vector of packed sub-word lanes.
///
/// `PackedWord` is a plain value type: it is `Copy`, ordered by its raw bits
/// and convertible from/to `u64` with [`PackedWord::bits`] and `From<u64>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct PackedWord(u64);

impl From<u64> for PackedWord {
    fn from(v: u64) -> Self {
        PackedWord(v)
    }
}

impl From<PackedWord> for u64 {
    fn from(v: PackedWord) -> Self {
        v.0
    }
}

impl std::fmt::Display for PackedWord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:#018x}", self.0)
    }
}

impl std::fmt::LowerHex for PackedWord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::LowerHex::fmt(&self.0, f)
    }
}

impl std::fmt::UpperHex for PackedWord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::UpperHex::fmt(&self.0, f)
    }
}

impl std::fmt::Binary for PackedWord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Binary::fmt(&self.0, f)
    }
}

impl std::fmt::Octal for PackedWord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Octal::fmt(&self.0, f)
    }
}

impl PackedWord {
    /// The all-zero word.
    pub const ZERO: PackedWord = PackedWord(0);

    /// Construct from raw bits.
    pub const fn new(bits: u64) -> Self {
        PackedWord(bits)
    }

    /// Raw 64-bit contents.
    pub const fn bits(self) -> u64 {
        self.0
    }

    // ------------------------------------------------------------------
    // Lane extraction / insertion
    // ------------------------------------------------------------------

    /// Read lane `idx` interpreted according to `lane`, sign- or zero-extended
    /// to `i64`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= lane.count()`.
    pub fn lane(self, lane: Lane, idx: usize) -> i64 {
        assert!(idx < lane.count(), "lane index {idx} out of range for {lane:?}");
        let bits = lane.bits();
        let shift = (idx as u32) * bits;
        let mask: u64 = if bits == 64 { u64::MAX } else { (1u64 << bits) - 1 };
        let raw = (self.0 >> shift) & mask;
        if lane.is_signed() {
            // Sign extend.
            let sign_bit = 1u64 << (bits - 1);
            if raw & sign_bit != 0 {
                (raw | !mask) as i64
            } else {
                raw as i64
            }
        } else {
            raw as i64
        }
    }

    /// Return a copy with lane `idx` replaced by the low bits of `value`.
    ///
    /// The value is truncated to the lane width (no saturation); use
    /// [`Lane::clamp`] first if saturating insertion is desired.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= lane.count()`.
    pub fn with_lane(self, lane: Lane, idx: usize, value: i64) -> PackedWord {
        assert!(idx < lane.count(), "lane index {idx} out of range for {lane:?}");
        let bits = lane.bits();
        let shift = (idx as u32) * bits;
        let mask: u64 = if bits == 64 { u64::MAX } else { (1u64 << bits) - 1 };
        let cleared = self.0 & !(mask << shift);
        PackedWord(cleared | (((value as u64) & mask) << shift))
    }

    /// All lanes of the word as `i64` values (sign/zero extended), in a
    /// fixed-capacity stack array — no allocation. The old `Vec<i64>` form is
    /// gone; [`Lanes`] dereferences to a slice, so existing indexing and
    /// iteration patterns keep working.
    pub fn lanes(self, lane: Lane) -> Lanes {
        let mut buf = [0i64; 8];
        let x = self.0;
        let n: u8 = match lane {
            Lane::U8 => {
                for (i, slot) in buf.iter_mut().enumerate() {
                    *slot = (x >> (8 * i)) as u8 as i64;
                }
                8
            }
            Lane::I8 => {
                for (i, slot) in buf.iter_mut().enumerate() {
                    *slot = (x >> (8 * i)) as i8 as i64;
                }
                8
            }
            Lane::U16 => {
                for (i, slot) in buf[..4].iter_mut().enumerate() {
                    *slot = (x >> (16 * i)) as u16 as i64;
                }
                4
            }
            Lane::I16 => {
                for (i, slot) in buf[..4].iter_mut().enumerate() {
                    *slot = (x >> (16 * i)) as i16 as i64;
                }
                4
            }
            Lane::U32 => {
                buf[0] = x as u32 as i64;
                buf[1] = (x >> 32) as u32 as i64;
                2
            }
            Lane::I32 => {
                buf[0] = x as i32 as i64;
                buf[1] = (x >> 32) as i32 as i64;
                2
            }
        };
        Lanes { buf, len: n }
    }

    /// Build a word from an iterator of lane values (truncating each).
    ///
    /// Missing lanes are zero; extra values are ignored.
    pub fn from_lanes<I: IntoIterator<Item = i64>>(lane: Lane, values: I) -> PackedWord {
        let mut w = PackedWord::ZERO;
        for (i, v) in values.into_iter().take(lane.count()).enumerate() {
            w = w.with_lane(lane, i, v);
        }
        w
    }

    /// Build from eight unsigned bytes, lane 0 first.
    pub fn from_u8_lanes(v: [u8; 8]) -> PackedWord {
        PackedWord(u64::from_le_bytes(v))
    }

    /// Extract eight unsigned bytes, lane 0 first.
    pub fn to_u8_lanes(self) -> [u8; 8] {
        self.0.to_le_bytes()
    }

    /// Build from four signed 16-bit values, lane 0 first.
    pub fn from_i16_lanes(v: [i16; 4]) -> PackedWord {
        PackedWord::from_lanes(Lane::I16, v.iter().map(|&x| x as i64))
    }

    /// Extract four signed 16-bit values, lane 0 first.
    #[cfg(test)]
    pub fn to_i16_lanes(self) -> [i16; 4] {
        let mut out = [0i16; 4];
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.lane(Lane::I16, i) as i16;
        }
        out
    }

    /// Build from two signed 32-bit values, lane 0 first.
    pub fn from_i32_lanes(v: [i32; 2]) -> PackedWord {
        PackedWord::from_lanes(Lane::I32, v.iter().map(|&x| x as i64))
    }

    /// Replicate `value` into every lane (a "splat"/broadcast).
    pub fn splat(lane: Lane, value: i64) -> PackedWord {
        PackedWord::from_lanes(lane, std::iter::repeat_n(value, lane.count()))
    }

    // ------------------------------------------------------------------
    // Element-wise helpers
    // ------------------------------------------------------------------

    // The binary/unary element kernels dispatch once on the lane type and
    // then run a fixed-trip-count loop over a constant `Lane`, so the
    // compiler fully unrolls the per-lane extraction/insertion and folds the
    // width and signedness tests out of it. The interpreter passes lanes at
    // run time and executes one of these per matrix row per MOM instruction
    // (the innermost loop of the whole workspace); dispatching on the width
    // alone leaves those tests in the loop and halves packed-heavy
    // interpreter throughput.
    fn zip_map(self, other: PackedWord, lane: Lane, f: impl FnMut(i64, i64) -> i64) -> PackedWord {
        match lane {
            Lane::U8 => self.zip_map_n::<8>(other, Lane::U8, f),
            Lane::I8 => self.zip_map_n::<8>(other, Lane::I8, f),
            Lane::U16 => self.zip_map_n::<4>(other, Lane::U16, f),
            Lane::I16 => self.zip_map_n::<4>(other, Lane::I16, f),
            Lane::U32 => self.zip_map_n::<2>(other, Lane::U32, f),
            Lane::I32 => self.zip_map_n::<2>(other, Lane::I32, f),
        }
    }

    #[inline(always)]
    fn zip_map_n<const N: usize>(
        self,
        other: PackedWord,
        lane: Lane,
        mut f: impl FnMut(i64, i64) -> i64,
    ) -> PackedWord {
        let mut out = PackedWord::ZERO;
        for i in 0..N {
            out = out.with_lane(lane, i, f(self.lane(lane, i), other.lane(lane, i)));
        }
        out
    }

    fn map(self, lane: Lane, f: impl FnMut(i64) -> i64) -> PackedWord {
        match lane {
            Lane::U8 => self.map_n::<8>(Lane::U8, f),
            Lane::I8 => self.map_n::<8>(Lane::I8, f),
            Lane::U16 => self.map_n::<4>(Lane::U16, f),
            Lane::I16 => self.map_n::<4>(Lane::I16, f),
            Lane::U32 => self.map_n::<2>(Lane::U32, f),
            Lane::I32 => self.map_n::<2>(Lane::I32, f),
        }
    }

    #[inline(always)]
    fn map_n<const N: usize>(self, lane: Lane, mut f: impl FnMut(i64) -> i64) -> PackedWord {
        let mut out = PackedWord::ZERO;
        for i in 0..N {
            out = out.with_lane(lane, i, f(self.lane(lane, i)));
        }
        out
    }

    fn finish(lane: Lane, sat: Saturation, v: i64) -> i64 {
        match sat {
            Saturation::Wrapping => v, // truncation in with_lane performs the wrap
            Saturation::Saturating => lane.clamp(v),
        }
    }

    // ------------------------------------------------------------------
    // Arithmetic
    // ------------------------------------------------------------------

    /// Lane-wise addition.
    pub fn add(self, other: PackedWord, lane: Lane, sat: Saturation) -> PackedWord {
        self.zip_map(other, lane, |a, b| Self::finish(lane, sat, a + b))
    }

    /// Lane-wise subtraction (`self - other`).
    ///
    /// With [`Saturation::Saturating`] and an unsigned lane type the result
    /// clamps at zero, which is how MMX `psubus*` behaves.
    pub fn sub(self, other: PackedWord, lane: Lane, sat: Saturation) -> PackedWord {
        self.zip_map(other, lane, |a, b| Self::finish(lane, sat, a - b))
    }

    /// Lane-wise absolute difference `|a - b|`.
    pub fn abs_diff(self, other: PackedWord, lane: Lane) -> PackedWord {
        self.zip_map(other, lane, |a, b| (a - b).abs())
    }

    /// Lane-wise rounding average `(a + b + 1) >> 1` (MMX `pavg`).
    pub fn avg(self, other: PackedWord, lane: Lane) -> PackedWord {
        self.zip_map(other, lane, |a, b| (a + b + 1) >> 1)
    }

    /// Lane-wise minimum.
    pub fn min(self, other: PackedWord, lane: Lane) -> PackedWord {
        self.zip_map(other, lane, |a, b| a.min(b))
    }

    /// Lane-wise maximum.
    pub fn max(self, other: PackedWord, lane: Lane) -> PackedWord {
        self.zip_map(other, lane, |a, b| a.max(b))
    }

    /// Lane-wise multiply keeping the low half of each product (MMX `pmullw`).
    pub fn mul_lo(self, other: PackedWord, lane: Lane) -> PackedWord {
        self.zip_map(other, lane, |a, b| a.wrapping_mul(b))
    }

    /// Lane-wise multiply keeping the high half of each product (MMX `pmulhw`).
    pub fn mul_hi(self, other: PackedWord, lane: Lane) -> PackedWord {
        let bits = lane.bits();
        self.zip_map(other, lane, |a, b| (a.wrapping_mul(b)) >> bits)
    }

    /// Multiply 16-bit lanes and add adjacent pairs of 32-bit products
    /// (MMX `pmaddwd`): result lane `i` (32-bit) = `a[2i]*b[2i] + a[2i+1]*b[2i+1]`.
    pub fn mul_add_pairs(self, other: PackedWord) -> PackedWord {
        let mut out = PackedWord::ZERO;
        for i in 0..2 {
            let p0 = self.lane(Lane::I16, 2 * i) * other.lane(Lane::I16, 2 * i);
            let p1 = self.lane(Lane::I16, 2 * i + 1) * other.lane(Lane::I16, 2 * i + 1);
            out = out.with_lane(Lane::I32, i, p0 + p1);
        }
        out
    }

    /// Sum of lane-wise absolute differences reduced to a single scalar
    /// (the SSE `psadbw` style "enhanced reduction" the paper grants its
    /// extended MMX model).
    pub fn sad(self, other: PackedWord, lane: Lane) -> i64 {
        let (a, b) = (self.lanes(lane), other.lanes(lane));
        a.iter().zip(&b).map(|(x, y)| (x - y).abs()).sum()
    }

    /// Sum of lane-wise squared differences reduced to a single scalar.
    #[cfg(test)]
    pub fn sqd(self, other: PackedWord, lane: Lane) -> i64 {
        let (a, b) = (self.lanes(lane), other.lanes(lane));
        a.iter().zip(&b).map(|(x, y)| (x - y) * (x - y)).sum()
    }

    /// Horizontal sum of all lanes as a scalar.
    pub fn reduce_sum(self, lane: Lane) -> i64 {
        self.lanes(lane).iter().sum()
    }

    /// Lane-wise absolute value.
    pub fn abs(self, lane: Lane) -> PackedWord {
        self.map(lane, |a| a.abs())
    }

    // ------------------------------------------------------------------
    // Logic and shifts
    // ------------------------------------------------------------------

    /// Bit-wise AND.
    pub fn and(self, other: PackedWord) -> PackedWord {
        PackedWord(self.0 & other.0)
    }

    /// Bit-wise OR.
    pub fn or(self, other: PackedWord) -> PackedWord {
        PackedWord(self.0 | other.0)
    }

    /// Bit-wise XOR.
    pub fn xor(self, other: PackedWord) -> PackedWord {
        PackedWord(self.0 ^ other.0)
    }

    /// Bit-wise AND-NOT (`!self & other`), as MMX `pandn`.
    pub fn andnot(self, other: PackedWord) -> PackedWord {
        PackedWord(!self.0 & other.0)
    }

    /// Lane-wise logical shift left by `amount` bits.
    pub fn shl(self, lane: Lane, amount: u32) -> PackedWord {
        if amount >= lane.bits() {
            return PackedWord::ZERO;
        }
        self.map(lane.as_unsigned(), |a| ((a as u64) << amount) as i64)
    }

    /// Lane-wise logical (zero-filling) shift right by `amount` bits.
    pub fn shr_logical(self, lane: Lane, amount: u32) -> PackedWord {
        if amount >= lane.bits() {
            return PackedWord::ZERO;
        }
        // Unsigned lanes are zero-extended, so a plain shift fills with zeros.
        self.map(lane.as_unsigned(), |a| a >> amount)
    }

    /// Lane-wise arithmetic (sign-preserving) shift right by `amount` bits.
    pub fn shr_arith(self, lane: Lane, amount: u32) -> PackedWord {
        let amount = amount.min(lane.bits() - 1);
        self.map(lane.as_signed(), |a| a >> amount)
    }

    // ------------------------------------------------------------------
    // Comparisons and selection
    // ------------------------------------------------------------------

    /// Lane-wise equality compare producing an all-ones / all-zero mask per lane.
    pub fn cmp_eq(self, other: PackedWord, lane: Lane) -> PackedWord {
        self.zip_map(other, lane, |a, b| if a == b { -1 } else { 0 })
    }

    /// Lane-wise greater-than compare producing an all-ones / all-zero mask per lane.
    pub fn cmp_gt(self, other: PackedWord, lane: Lane) -> PackedWord {
        self.zip_map(other, lane, |a, b| if a > b { -1 } else { 0 })
    }

    /// Lane-wise select: where the corresponding lane of `mask` is non-zero
    /// take the lane of `self`, otherwise the lane of `other`.
    ///
    /// This is the "conditional move" extension the paper adds to all three
    /// emulated ISAs.
    pub fn select(mask: PackedWord, self_: PackedWord, other: PackedWord, lane: Lane) -> PackedWord {
        let mut out = PackedWord::ZERO;
        for i in 0..lane.count() {
            let v = if mask.lane(lane, i) != 0 {
                self_.lane(lane, i)
            } else {
                other.lane(lane, i)
            };
            out = out.with_lane(lane, i, v);
        }
        out
    }

    // ------------------------------------------------------------------
    // Pack / unpack
    // ------------------------------------------------------------------

    /// Narrow the lanes of `self` and `other` to half width with saturation and
    /// concatenate them: the low half of the result comes from `self`.
    ///
    /// `from` is the source lane type (e.g. [`Lane::I16`]); the destination
    /// lane type is the half-width type with the signedness of `to_signed`.
    ///
    /// # Panics
    ///
    /// Panics if `from` is an 8-bit lane type (nothing narrower exists).
    pub fn pack(self, other: PackedWord, from: Lane, to_signed: bool) -> PackedWord {
        let to = match (from.bits(), to_signed) {
            (16, true) => Lane::I8,
            (16, false) => Lane::U8,
            (32, true) => Lane::I16,
            (32, false) => Lane::U16,
            _ => panic!("cannot pack from 8-bit lanes"),
        };
        let n = from.count();
        let mut out = PackedWord::ZERO;
        for i in 0..n {
            out = out.with_lane(to, i, to.clamp(self.lane(from, i)));
        }
        for i in 0..n {
            out = out.with_lane(to, n + i, to.clamp(other.lane(from, i)));
        }
        out
    }

    /// Interleave the low-half lanes of `self` and `other`, widening each to
    /// twice the width (MMX `punpcklbw`-style when `other` is zero).
    ///
    /// Result lane `2i` is `self`'s lane `i`, result lane `2i+1` is `other`'s
    /// lane `i`, for `i` in the low half of the source lanes.
    pub fn unpack_lo(self, other: PackedWord, lane: Lane) -> PackedWord {
        let n = lane.count();
        let mut out = PackedWord::ZERO;
        for i in 0..n / 2 {
            out = out.with_lane(lane, 2 * i, self.lane(lane, i));
            out = out.with_lane(lane, 2 * i + 1, other.lane(lane, i));
        }
        out
    }

    /// Interleave the high-half lanes of `self` and `other` (MMX `punpckhbw`).
    pub fn unpack_hi(self, other: PackedWord, lane: Lane) -> PackedWord {
        let n = lane.count();
        let mut out = PackedWord::ZERO;
        for i in 0..n / 2 {
            out = out.with_lane(lane, 2 * i, self.lane(lane, n / 2 + i));
            out = out.with_lane(lane, 2 * i + 1, other.lane(lane, n / 2 + i));
        }
        out
    }

    /// Widen the low half of the lanes to the next wider lane type.
    ///
    /// For [`Lane::U8`] this produces four `u16` lanes holding bytes 0..4,
    /// zero-extended; for [`Lane::I8`] they are sign-extended, and so on.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is a 32-bit type (no wider packed type exists).
    pub fn widen_lo(self, lane: Lane) -> PackedWord {
        let wide = lane.widened().expect("cannot widen 32-bit lanes");
        let mut out = PackedWord::ZERO;
        for i in 0..wide.count() {
            out = out.with_lane(wide, i, self.lane(lane, i));
        }
        out
    }

    /// Widen the high half of the lanes to the next wider lane type.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is a 32-bit type (no wider packed type exists).
    pub fn widen_hi(self, lane: Lane) -> PackedWord {
        let wide = lane.widened().expect("cannot widen 32-bit lanes");
        let mut out = PackedWord::ZERO;
        for i in 0..wide.count() {
            out = out.with_lane(wide, i, self.lane(lane, wide.count() + i));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_counts_and_widths() {
        assert_eq!(Lane::U8.count(), 8);
        assert_eq!(Lane::I16.count(), 4);
        assert_eq!(Lane::I32.count(), 2);
        assert_eq!(Lane::U8.bits(), 8);
        assert_eq!(Lane::I16.bytes(), 2);
        assert!(Lane::I16.is_signed());
        assert!(!Lane::U32.is_signed());
    }

    #[test]
    fn lane_extremes() {
        assert_eq!(Lane::U8.max_value(), 255);
        assert_eq!(Lane::U8.min_value(), 0);
        assert_eq!(Lane::I16.max_value(), 32767);
        assert_eq!(Lane::I16.min_value(), -32768);
        assert_eq!(Lane::I32.clamp(5_000_000_000), i32::MAX as i64);
        assert_eq!(Lane::U16.clamp(-3), 0);
    }

    #[test]
    fn lane_roundtrip_u8() {
        let w = PackedWord::from_u8_lanes([1, 2, 3, 4, 5, 250, 7, 255]);
        assert_eq!(w.to_u8_lanes(), [1, 2, 3, 4, 5, 250, 7, 255]);
        assert_eq!(w.lane(Lane::U8, 5), 250);
        assert_eq!(w.lane(Lane::I8, 7), -1);
    }

    #[test]
    fn lane_roundtrip_i16() {
        let w = PackedWord::from_i16_lanes([-100, 32767, -32768, 7]);
        assert_eq!(w.to_i16_lanes(), [-100, 32767, -32768, 7]);
        assert_eq!(w.lane(Lane::I16, 2), -32768);
        assert_eq!(w.lane(Lane::U16, 2), 32768);
    }

    #[test]
    fn lane_roundtrip_i32() {
        let w = PackedWord::from_i32_lanes([-5, 1_000_000]);
        assert_eq!([w.lane(Lane::I32, 0), w.lane(Lane::I32, 1)], [-5, 1_000_000]);
    }

    #[test]
    fn lanes_array_behaves_like_a_slice() {
        let w = PackedWord::from_u8_lanes([1, 2, 3, 4, 5, 6, 7, 255]);
        let lanes = w.lanes(Lane::U8);
        assert_eq!(lanes.len(), 8);
        assert_eq!(lanes[7], 255);
        assert_eq!(lanes.as_slice(), &[1, 2, 3, 4, 5, 6, 7, 255]);
        let signed = w.lanes(Lane::I8);
        assert_eq!(signed[7], -1);
        // Narrower interpretations expose fewer active lanes.
        assert_eq!(w.lanes(Lane::I16).len(), 4);
        assert_eq!(w.lanes(Lane::I32).len(), 2);
        // Owned and borrowed iteration both work.
        let owned: Vec<i64> = lanes.into_iter().collect();
        let borrowed: Vec<i64> = (&lanes).into_iter().copied().collect();
        assert_eq!(owned, borrowed);
        // Round-trip through from_lanes reproduces the word.
        assert_eq!(PackedWord::from_lanes(Lane::U8, lanes.into_iter()), w);
    }

    #[test]
    fn with_lane_truncates() {
        let w = PackedWord::ZERO.with_lane(Lane::U8, 0, 0x1ff);
        assert_eq!(w.lane(Lane::U8, 0), 0xff);
        assert_eq!(w.lane(Lane::U8, 1), 0);
    }

    #[test]
    fn splat_fills_all_lanes() {
        let w = PackedWord::splat(Lane::I16, -7);
        assert_eq!(w.to_i16_lanes(), [-7; 4]);
    }

    #[test]
    fn add_wrapping_vs_saturating_u8() {
        let a = PackedWord::from_u8_lanes([250, 10, 0, 1, 2, 3, 4, 5]);
        let b = PackedWord::from_u8_lanes([10, 250, 0, 1, 2, 3, 4, 5]);
        let wrap = a.add(b, Lane::U8, Saturation::Wrapping);
        let sat = a.add(b, Lane::U8, Saturation::Saturating);
        assert_eq!(wrap.to_u8_lanes()[0], 4); // 260 mod 256
        assert_eq!(sat.to_u8_lanes()[0], 255);
        assert_eq!(sat.to_u8_lanes()[1], 255);
        assert_eq!(sat.to_u8_lanes()[2], 0);
    }

    #[test]
    fn sub_saturating_unsigned_clamps_at_zero() {
        let a = PackedWord::from_u8_lanes([5, 200, 0, 0, 0, 0, 0, 0]);
        let b = PackedWord::from_u8_lanes([10, 100, 0, 0, 0, 0, 0, 0]);
        let r = a.sub(b, Lane::U8, Saturation::Saturating);
        assert_eq!(r.to_u8_lanes()[0], 0);
        assert_eq!(r.to_u8_lanes()[1], 100);
    }

    #[test]
    fn add_saturating_signed_i16() {
        let a = PackedWord::from_i16_lanes([32000, -32000, 100, -100]);
        let b = PackedWord::from_i16_lanes([1000, -1000, 100, -100]);
        let r = a.add(b, Lane::I16, Saturation::Saturating);
        assert_eq!(r.to_i16_lanes(), [32767, -32768, 200, -200]);
    }

    #[test]
    fn abs_diff_u8() {
        let a = PackedWord::from_u8_lanes([10, 200, 0, 7, 9, 30, 100, 255]);
        let b = PackedWord::from_u8_lanes([20, 100, 5, 7, 4, 50, 90, 0]);
        let r = a.abs_diff(b, Lane::U8);
        assert_eq!(r.to_u8_lanes(), [10, 100, 5, 0, 5, 20, 10, 255]);
    }

    #[test]
    fn avg_rounds_up() {
        let a = PackedWord::from_u8_lanes([1, 2, 255, 0, 0, 0, 0, 0]);
        let b = PackedWord::from_u8_lanes([2, 2, 255, 0, 0, 0, 0, 0]);
        let r = a.avg(b, Lane::U8);
        assert_eq!(r.to_u8_lanes()[0], 2); // (1+2+1)>>1
        assert_eq!(r.to_u8_lanes()[1], 2);
        assert_eq!(r.to_u8_lanes()[2], 255);
    }

    #[test]
    fn min_max_signed_vs_unsigned() {
        let a = PackedWord::from_u8_lanes([0xff, 1, 0, 0, 0, 0, 0, 0]);
        let b = PackedWord::from_u8_lanes([1, 2, 0, 0, 0, 0, 0, 0]);
        // Unsigned: 0xff is large.
        assert_eq!(a.max(b, Lane::U8).to_u8_lanes()[0], 0xff);
        // Signed: 0xff is -1, so max is 1.
        assert_eq!(a.max(b, Lane::I8).to_u8_lanes()[0], 1);
        assert_eq!(a.min(b, Lane::I8).to_u8_lanes()[0], 0xff);
    }

    #[test]
    fn mul_lo_hi_i16() {
        let a = PackedWord::from_i16_lanes([300, -300, 1000, 2]);
        let b = PackedWord::from_i16_lanes([300, 300, -1000, 3]);
        let lo = a.mul_lo(b, Lane::I16);
        let hi = a.mul_hi(b, Lane::I16);
        // 300*300 = 90000 = 0x15F90 -> lo 0x5F90, hi 0x1
        assert_eq!(lo.lane(Lane::U16, 0), 0x5F90);
        assert_eq!(hi.lane(Lane::I16, 0), 1);
        // -300*300 = -90000 -> hi = -2 (floor division by 65536)
        assert_eq!(hi.lane(Lane::I16, 1), -2);
        assert_eq!(lo.lane(Lane::I16, 3), 6);
    }

    #[test]
    #[allow(clippy::identity_op)] // spell out every product
    fn mul_add_pairs_matches_manual() {
        let a = PackedWord::from_i16_lanes([1, 2, 3, -4]);
        let b = PackedWord::from_i16_lanes([10, 20, 30, 40]);
        let r = a.mul_add_pairs(b);
        assert_eq!(r, PackedWord::from_i32_lanes([1 * 10 + 2 * 20, 3 * 30 + (-4) * 40]));
    }

    #[test]
    #[allow(clippy::identity_op)] // spell out every per-lane difference
    fn sad_and_sqd_reduce() {
        let a = PackedWord::from_u8_lanes([10, 20, 30, 40, 50, 60, 70, 80]);
        let b = PackedWord::from_u8_lanes([11, 18, 30, 44, 45, 60, 71, 70]);
        assert_eq!(a.sad(b, Lane::U8), 1 + 2 + 0 + 4 + 5 + 0 + 1 + 10);
        assert_eq!(a.sqd(b, Lane::U8), 1 + 4 + 0 + 16 + 25 + 0 + 1 + 100);
    }

    #[test]
    fn reduce_sum_i16() {
        let a = PackedWord::from_i16_lanes([1, -2, 3, -4]);
        assert_eq!(a.reduce_sum(Lane::I16), -2);
    }

    #[test]
    fn logic_ops() {
        let a = PackedWord::new(0xF0F0_F0F0_F0F0_F0F0);
        let b = PackedWord::new(0xFF00_FF00_FF00_FF00);
        assert_eq!(a.and(b).bits(), 0xF000_F000_F000_F000);
        assert_eq!(a.or(b).bits(), 0xFFF0_FFF0_FFF0_FFF0);
        assert_eq!(a.xor(b).bits(), 0x0FF0_0FF0_0FF0_0FF0);
        assert_eq!(a.andnot(b).bits(), 0x0F00_0F00_0F00_0F00);
    }

    #[test]
    fn shifts_respect_lane_boundaries() {
        let a = PackedWord::from_i16_lanes([1, -1, 0x4000, 2]);
        let l = a.shl(Lane::I16, 2);
        assert_eq!(l.lane(Lane::U16, 0), 4);
        assert_eq!(l.lane(Lane::U16, 2), 0); // 0x4000 << 2 wraps within the lane
        let r = a.shr_logical(Lane::I16, 1);
        assert_eq!(r.lane(Lane::U16, 1), 0x7FFF); // logical shift of 0xFFFF
        let ra = a.shr_arith(Lane::I16, 1);
        assert_eq!(ra.lane(Lane::I16, 1), -1); // arithmetic shift keeps the sign
    }

    #[test]
    fn shift_by_full_width_zeroes() {
        let a = PackedWord::from_i16_lanes([1234, -1, 55, 2]);
        assert_eq!(a.shl(Lane::I16, 16), PackedWord::ZERO);
        assert_eq!(a.shr_logical(Lane::I16, 16), PackedWord::ZERO);
    }

    #[test]
    fn compares_produce_masks() {
        let a = PackedWord::from_i16_lanes([5, -3, 7, 7]);
        let b = PackedWord::from_i16_lanes([5, 0, 2, 9]);
        let eq = a.cmp_eq(b, Lane::I16);
        assert_eq!(eq.to_i16_lanes(), [-1, 0, 0, 0]);
        let gt = a.cmp_gt(b, Lane::I16);
        assert_eq!(gt.to_i16_lanes(), [0, 0, -1, 0]);
    }

    #[test]
    fn select_picks_per_lane() {
        let mask = PackedWord::from_i16_lanes([-1, 0, -1, 0]);
        let a = PackedWord::from_i16_lanes([1, 2, 3, 4]);
        let b = PackedWord::from_i16_lanes([10, 20, 30, 40]);
        let r = PackedWord::select(mask, a, b, Lane::I16);
        assert_eq!(r.to_i16_lanes(), [1, 20, 3, 40]);
    }

    #[test]
    fn pack_i16_to_u8_saturates() {
        let a = PackedWord::from_i16_lanes([-5, 300, 100, 255]);
        let b = PackedWord::from_i16_lanes([0, 1, 2, 256]);
        let r = a.pack(b, Lane::I16, false);
        assert_eq!(r.to_u8_lanes(), [0, 255, 100, 255, 0, 1, 2, 255]);
    }

    #[test]
    fn pack_i32_to_i16_saturates() {
        let a = PackedWord::from_i32_lanes([100_000, -100_000]);
        let b = PackedWord::from_i32_lanes([7, -7]);
        let r = a.pack(b, Lane::I32, true);
        assert_eq!(r.to_i16_lanes(), [32767, -32768, 7, -7]);
    }

    #[test]
    fn unpack_interleaves() {
        let a = PackedWord::from_u8_lanes([1, 2, 3, 4, 5, 6, 7, 8]);
        let b = PackedWord::from_u8_lanes([11, 12, 13, 14, 15, 16, 17, 18]);
        assert_eq!(a.unpack_lo(b, Lane::U8).to_u8_lanes(), [1, 11, 2, 12, 3, 13, 4, 14]);
        assert_eq!(a.unpack_hi(b, Lane::U8).to_u8_lanes(), [5, 15, 6, 16, 7, 17, 8, 18]);
    }

    #[test]
    fn widen_lo_hi_zero_and_sign_extend() {
        let a = PackedWord::from_u8_lanes([1, 255, 3, 4, 5, 6, 7, 128]);
        let lo_u = a.widen_lo(Lane::U8);
        assert_eq!(lo_u.lane(Lane::U16, 1), 255);
        let lo_s = a.widen_lo(Lane::I8);
        assert_eq!(lo_s.lane(Lane::I16, 1), -1);
        let hi_s = a.widen_hi(Lane::I8);
        assert_eq!(hi_s.lane(Lane::I16, 3), -128);
        let hi_u = a.widen_hi(Lane::U8);
        assert_eq!(hi_u.lane(Lane::U16, 3), 128);
    }

    #[test]
    fn display_and_formatting() {
        let w = PackedWord::new(0xdead_beef);
        assert_eq!(format!("{w}"), "0x00000000deadbeef");
        assert_eq!(format!("{w:x}"), "deadbeef");
        assert!(!format!("{w:?}").is_empty());
    }
}
