//! Packed wide accumulators (MDMX-style, reused by MOM).
//!
//! MDMX introduced *packed accumulators*: wide registers whose lanes are wide
//! enough to accumulate many products of narrow elements without losing
//! precision (24 bits per lane for 8-bit data, 48 bits per lane for 16-bit
//! data, 192 bits total). MOM uses the same structure, but a single MOM matrix
//! instruction streams up to 16 rows into the accumulator, which lets the
//! hardware pipeline the accumulation instead of serialising on a register
//! recurrence (see Figure 4 of the paper).
//!
//! The functional model here stores each lane in an `i64`, which is wider than
//! the architected 24/48 bits; [`Accumulator::saturate_architected`] clamps the
//! lanes back to the architected width so tests can check that no kernel
//! actually relies on more precision than the real hardware would have.

use crate::packed::{Lane, PackedWord, Saturation};

/// Maximum number of lanes an accumulator may hold (8-bit element mode).
pub const MAX_ACC_LANES: usize = 8;

/// A packed wide accumulator.
///
/// The lane layout mirrors the packed word that feeds it: accumulating 8-bit
/// data uses 8 lanes, 16-bit data uses 4 lanes and 32-bit data uses 2 lanes.
/// The lane mode is fixed the first time the accumulator is written and reset
/// by [`Accumulator::clear`].
///
/// # Examples
///
/// ```
/// use mom_isa::accumulator::Accumulator;
/// use mom_isa::packed::{Lane, PackedWord};
///
/// let mut acc = Accumulator::new();
/// let a = PackedWord::from_i16_lanes([1, 2, 3, 4]);
/// let b = PackedWord::from_i16_lanes([10, 20, 30, 40]);
/// acc.mul_add(a, b, Lane::I16);
/// assert_eq!(acc.reduce_sum(), 1 * 10 + 2 * 20 + 3 * 30 + 4 * 40);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Accumulator {
    lanes: [i64; MAX_ACC_LANES],
    mode: Option<Lane>,
}

impl Accumulator {
    /// A cleared accumulator with no lane mode yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reset every lane to zero and forget the lane mode.
    pub fn clear(&mut self) {
        self.lanes = [0; MAX_ACC_LANES];
        self.mode = None;
    }

    /// The lane interpretation currently accumulated into, if any.
    pub fn mode(&self) -> Option<Lane> {
        self.mode
    }

    /// Number of active lanes (0 when the accumulator is clear).
    pub fn lane_count(&self) -> usize {
        self.mode.map_or(0, Lane::count)
    }

    /// Raw lane values (active lanes first; inactive lanes are zero).
    pub fn lanes(&self) -> &[i64; MAX_ACC_LANES] {
        &self.lanes
    }

    /// Read one lane value.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= MAX_ACC_LANES`.
    pub fn lane(&self, idx: usize) -> i64 {
        self.lanes[idx]
    }

    /// Overwrite one lane value, setting the lane mode if not yet set.
    #[cfg(test)]
    pub fn set_lane(&mut self, lane: Lane, idx: usize, value: i64) {
        self.bind_mode(lane);
        self.lanes[idx] = value;
    }

    fn bind_mode(&mut self, lane: Lane) {
        match self.mode {
            None => self.mode = Some(lane),
            Some(m) if m.count() == lane.count() => {}
            Some(m) => {
                // Switching element width mid-accumulation is architecturally
                // undefined in MDMX; the functional model resolves it by
                // restarting the accumulation in the new mode, which is the
                // behaviour the emulation libraries of the paper exhibit.
                debug_assert!(
                    false,
                    "accumulator lane mode switched from {m:?} to {lane:?} without clear"
                );
                self.lanes = [0; MAX_ACC_LANES];
                self.mode = Some(lane);
            }
        }
    }

    /// Accumulate the lane-wise product of `a` and `b` (`acc[i] += a[i] * b[i]`),
    /// the MDMX `MULA` operation.
    pub fn mul_add(&mut self, a: PackedWord, b: PackedWord, lane: Lane) {
        self.bind_mode(lane);
        let (av, bv) = (a.lanes(lane), b.lanes(lane));
        for i in 0..av.len() {
            self.lanes[i] += av[i] * bv[i];
        }
    }

    /// Subtract the lane-wise product of `a` and `b` (`acc[i] -= a[i] * b[i]`),
    /// the MDMX `MULS` operation.
    pub fn mul_sub(&mut self, a: PackedWord, b: PackedWord, lane: Lane) {
        self.bind_mode(lane);
        let (av, bv) = (a.lanes(lane), b.lanes(lane));
        for i in 0..av.len() {
            self.lanes[i] -= av[i] * bv[i];
        }
    }

    /// Accumulate the lanes of `a` (`acc[i] += a[i]`), the MDMX `ADDA` operation.
    pub fn add(&mut self, a: PackedWord, lane: Lane) {
        self.bind_mode(lane);
        let av = a.lanes(lane);
        for i in 0..av.len() {
            self.lanes[i] += av[i];
        }
    }

    /// Subtract the lanes of `a` (`acc[i] -= a[i]`), the MDMX `SUBA` operation.
    pub fn sub(&mut self, a: PackedWord, lane: Lane) {
        self.bind_mode(lane);
        let av = a.lanes(lane);
        for i in 0..av.len() {
            self.lanes[i] -= av[i];
        }
    }

    /// Accumulate lane-wise absolute differences (`acc[i] += |a[i] - b[i]|`).
    ///
    /// This is the accumulator form of the sum-of-absolute-differences used by
    /// MPEG motion estimation (`motion1` in the paper's kernel set).
    pub fn abs_diff_add(&mut self, a: PackedWord, b: PackedWord, lane: Lane) {
        self.bind_mode(lane);
        let (av, bv) = (a.lanes(lane), b.lanes(lane));
        for i in 0..av.len() {
            self.lanes[i] += (av[i] - bv[i]).abs();
        }
    }

    /// Accumulate lane-wise squared differences (`acc[i] += (a[i] - b[i])^2`),
    /// the accumulator form of the sum-of-quadratic-differences (`motion2`).
    pub fn sqr_diff_add(&mut self, a: PackedWord, b: PackedWord, lane: Lane) {
        self.bind_mode(lane);
        let (av, bv) = (a.lanes(lane), b.lanes(lane));
        for i in 0..av.len() {
            let d = av[i] - bv[i];
            self.lanes[i] += d * d;
        }
    }

    /// Horizontal sum of every active lane — the final step of a reduction.
    pub fn reduce_sum(&self) -> i64 {
        let n = self.lane_count();
        self.lanes[..n].iter().sum()
    }

    /// Round, shift right and saturate each lane back into a packed word, the
    /// MDMX "read accumulator" family (`RAC`).
    ///
    /// `shift` is the number of fractional bits discarded; rounding adds half
    /// an ULP before shifting. `sat` selects wrapping or clamping into the
    /// destination lane range.
    ///
    /// Returns the all-zero word if the accumulator has never been written.
    pub fn read_packed(&self, dest_lane: Lane, shift: u32, sat: Saturation) -> PackedWord {
        let Some(mode) = self.mode else {
            return PackedWord::ZERO;
        };
        let n = mode.count().min(dest_lane.count());
        let mut out = PackedWord::ZERO;
        for i in 0..n {
            let rounded = if shift > 0 {
                (self.lanes[i] + (1i64 << (shift - 1))) >> shift
            } else {
                self.lanes[i]
            };
            let v = match sat {
                Saturation::Wrapping => rounded,
                Saturation::Saturating => dest_lane.clamp(rounded),
            };
            out = out.with_lane(dest_lane, i, v);
        }
        out
    }

    /// Architected per-lane width in bits for a given element lane type
    /// (24 bits for byte elements, 48 bits for halfword elements, 64 for word
    /// elements), per the MDMX/MOM accumulator definition.
    pub fn architected_lane_bits(lane: Lane) -> u32 {
        match lane.bits() {
            8 => 24,
            16 => 48,
            _ => 64,
        }
    }

    /// Clamp every lane to the architected accumulator width.
    ///
    /// Returns `true` if any lane actually overflowed the architected range —
    /// kernels in this repository assert this never happens for their data.
    pub fn saturate_architected(&mut self) -> bool {
        let Some(mode) = self.mode else { return false };
        let bits = Self::architected_lane_bits(mode);
        let max = (1i64 << (bits - 1)) - 1;
        let min = -(1i64 << (bits - 1));
        let mut clamped = false;
        for lane in self.lanes.iter_mut().take(mode.count()) {
            if *lane > max || *lane < min {
                *lane = (*lane).clamp(min, max);
                clamped = true;
            }
        }
        clamped
    }
}

impl std::fmt::Display for Accumulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.mode {
            None => write!(f, "acc(clear)"),
            Some(mode) => {
                write!(f, "acc[{:?}](", mode)?;
                for (i, l) in self.lanes[..mode.count()].iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{l}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_accumulator_is_clear() {
        let acc = Accumulator::new();
        assert_eq!(acc.mode(), None);
        assert_eq!(acc.lane_count(), 0);
        assert_eq!(acc.reduce_sum(), 0);
        assert_eq!(acc.read_packed(Lane::I16, 0, Saturation::Wrapping), PackedWord::ZERO);
    }

    #[test]
    fn mul_add_matches_dot_product() {
        let mut acc = Accumulator::new();
        let a = PackedWord::from_i16_lanes([1, -2, 3, 4]);
        let b = PackedWord::from_i16_lanes([5, 6, -7, 8]);
        acc.mul_add(a, b, Lane::I16);
        acc.mul_add(a, b, Lane::I16);
        assert_eq!(acc.reduce_sum(), 2 * (5 - 12 - 21 + 32));
        assert_eq!(acc.mode(), Some(Lane::I16));
        assert_eq!(acc.lane_count(), 4);
    }

    #[test]
    fn mul_sub_reverses_mul_add() {
        let mut acc = Accumulator::new();
        let a = PackedWord::from_i16_lanes([3, 1, 4, 1]);
        let b = PackedWord::from_i16_lanes([2, 7, 1, 8]);
        acc.mul_add(a, b, Lane::I16);
        acc.mul_sub(a, b, Lane::I16);
        assert_eq!(acc.reduce_sum(), 0);
    }

    #[test]
    fn add_sub_lanes() {
        let mut acc = Accumulator::new();
        let a = PackedWord::from_u8_lanes([1, 2, 3, 4, 5, 6, 7, 8]);
        acc.add(a, Lane::U8);
        acc.add(a, Lane::U8);
        acc.sub(a, Lane::U8);
        assert_eq!(acc.lane(0), 1);
        assert_eq!(acc.lane(7), 8);
        assert_eq!(acc.reduce_sum(), 36);
    }

    #[test]
    fn abs_diff_add_accumulates_sad() {
        let mut acc = Accumulator::new();
        let a = PackedWord::from_u8_lanes([10, 20, 30, 40, 50, 60, 70, 80]);
        let b = PackedWord::from_u8_lanes([12, 18, 30, 45, 40, 60, 75, 80]);
        acc.abs_diff_add(a, b, Lane::U8);
        assert_eq!(acc.reduce_sum(), a.sad(b, Lane::U8));
    }

    #[test]
    fn sqr_diff_add_accumulates_sqd() {
        let mut acc = Accumulator::new();
        let a = PackedWord::from_u8_lanes([10, 20, 30, 40, 50, 60, 70, 80]);
        let b = PackedWord::from_u8_lanes([12, 18, 30, 45, 40, 60, 75, 80]);
        acc.sqr_diff_add(a, b, Lane::U8);
        assert_eq!(acc.reduce_sum(), a.sqd(b, Lane::U8));
    }

    #[test]
    fn read_packed_rounds_shifts_saturates() {
        let mut acc = Accumulator::new();
        acc.set_lane(Lane::I16, 0, 1000);
        acc.set_lane(Lane::I16, 1, -1000);
        acc.set_lane(Lane::I16, 2, 70000);
        acc.set_lane(Lane::I16, 3, 5);
        // shift by 2 with rounding: 1000 -> 250, -1000 -> -250 (rounded), 70000 -> 17500 -> clamps fine
        let r = acc.read_packed(Lane::I16, 2, Saturation::Saturating);
        assert_eq!(r.lane(Lane::I16, 0), 250);
        assert_eq!(r.lane(Lane::I16, 2), 17500);
        // no shift, saturating: 70000 clamps to 32767
        let r0 = acc.read_packed(Lane::I16, 0, Saturation::Saturating);
        assert_eq!(r0.lane(Lane::I16, 2), 32767);
        assert_eq!(r0.lane(Lane::I16, 1), -1000);
    }

    #[test]
    fn read_packed_rounding_adds_half_ulp() {
        let mut acc = Accumulator::new();
        acc.set_lane(Lane::I16, 0, 3); // 3/2 = 1.5 rounds to 2
        let r = acc.read_packed(Lane::I16, 1, Saturation::Wrapping);
        assert_eq!(r.lane(Lane::I16, 0), 2);
    }

    #[test]
    fn clear_resets_mode() {
        let mut acc = Accumulator::new();
        acc.add(PackedWord::splat(Lane::U8, 1), Lane::U8);
        assert_eq!(acc.mode(), Some(Lane::U8));
        acc.clear();
        assert_eq!(acc.mode(), None);
        assert_eq!(acc.reduce_sum(), 0);
    }

    #[test]
    fn architected_widths() {
        assert_eq!(Accumulator::architected_lane_bits(Lane::U8), 24);
        assert_eq!(Accumulator::architected_lane_bits(Lane::I16), 48);
        assert_eq!(Accumulator::architected_lane_bits(Lane::I32), 64);
    }

    #[test]
    fn saturate_architected_detects_overflow() {
        let mut acc = Accumulator::new();
        acc.set_lane(Lane::U8, 0, 1 << 30); // exceeds 24-bit lane
        assert!(acc.saturate_architected());
        assert_eq!(acc.lane(0), (1 << 23) - 1);
        let mut ok = Accumulator::new();
        ok.set_lane(Lane::U8, 0, 1000);
        assert!(!ok.saturate_architected());
    }

    #[test]
    fn display_is_never_empty() {
        let mut acc = Accumulator::new();
        assert!(!format!("{acc}").is_empty());
        acc.add(PackedWord::splat(Lane::I16, 2), Lane::I16);
        assert!(format!("{acc}").contains("2"));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::Config::with_cases(256))]

        #[test]
        fn accumulator_read_back_is_saturated(
            values in proptest::collection::vec(-(1i64 << 40)..(1i64 << 40), 4),
            shift in 0u32..16,
        ) {
            let mut acc = Accumulator::new();
            for (i, v) in values.iter().enumerate() {
                acc.set_lane(Lane::I16, i, *v);
            }
            let packed = acc.read_packed(Lane::I16, shift, Saturation::Saturating);
            for i in 0..4 {
                let v = packed.lane(Lane::I16, i);
                proptest::prop_assert!((i16::MIN as i64..=i16::MAX as i64).contains(&v));
            }
        }
    }
}
