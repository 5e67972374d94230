//! MOM matrix registers and the matrix register file.
//!
//! A MOM register holds a small two-dimensional array: [`MOM_ROWS`] (16) rows
//! of one 64-bit packed word each, i.e. up to 128 packed 8-bit elements. The
//! number of rows actually operated on by an instruction is governed by the
//! vector-length (VL) register, exactly like a classical vector machine; the
//! packed interpretation of each row is whatever the instruction's lane type
//! says, exactly like MMX/MDMX.

use mom_isa::packed::{Lane, PackedWord};

/// Number of 64-bit rows in a MOM matrix register.
pub const MOM_ROWS: usize = 16;
/// Number of architectural MOM matrix registers.
pub const NUM_MOM_REGS: usize = 16;
/// Number of architectural MOM packed accumulators.
pub const NUM_MOM_ACCS: usize = 2;
/// Maximum value of the vector-length register.
pub const MAX_VL: usize = MOM_ROWS;

/// A MOM matrix register name, `V0`..`V15`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MomReg(u8);

impl MomReg {
    /// Create a matrix register name.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= NUM_MOM_REGS`.
    pub fn new(idx: usize) -> Self {
        assert!(idx < NUM_MOM_REGS, "MOM register index {idx} out of range");
        Self(idx as u8)
    }

    /// Architectural index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for MomReg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "V{}", self.0)
    }
}

/// A MOM packed-accumulator name, `VA0`..`VA1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MomAccReg(u8);

impl MomAccReg {
    /// Create an accumulator name.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= NUM_MOM_ACCS`.
    pub fn new(idx: usize) -> Self {
        assert!(idx < NUM_MOM_ACCS, "MOM accumulator index {idx} out of range");
        Self(idx as u8)
    }

    /// Architectural index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for MomAccReg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "VA{}", self.0)
    }
}

/// Shorthand constructor for a MOM matrix register.
pub fn v(idx: usize) -> MomReg {
    MomReg::new(idx)
}

/// Shorthand constructor for a MOM accumulator.
pub fn va(idx: usize) -> MomAccReg {
    MomAccReg::new(idx)
}

/// The value held by one MOM matrix register: a 16-row matrix of packed words.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MatrixValue {
    rows: [PackedWord; MOM_ROWS],
}

impl Default for MatrixValue {
    fn default() -> Self {
        Self { rows: [PackedWord::ZERO; MOM_ROWS] }
    }
}

impl MatrixValue {
    /// The all-zero matrix.
    pub fn zero() -> Self {
        Self::default()
    }

    /// Build a matrix from an iterator of row words (missing rows are zero,
    /// extra rows are ignored).
    #[cfg(test)]
    pub fn from_rows<I: IntoIterator<Item = PackedWord>>(rows: I) -> Self {
        let mut m = Self::default();
        for (i, r) in rows.into_iter().take(MOM_ROWS).enumerate() {
            m.rows[i] = r;
        }
        m
    }

    /// Read one row.
    ///
    /// # Panics
    ///
    /// Panics if `row >= MOM_ROWS`.
    pub fn row(&self, row: usize) -> PackedWord {
        self.rows[row]
    }

    /// Write one row.
    ///
    /// # Panics
    ///
    /// Panics if `row >= MOM_ROWS`.
    pub fn set_row(&mut self, row: usize, value: PackedWord) {
        self.rows[row] = value;
    }

    /// All rows.
    pub fn rows(&self) -> &[PackedWord; MOM_ROWS] {
        &self.rows
    }

    /// Read the element at (`row`, `col`) under the given lane interpretation.
    pub fn element(&self, lane: Lane, row: usize, col: usize) -> i64 {
        self.rows[row].lane(lane, col)
    }

    /// Write the element at (`row`, `col`) under the given lane interpretation.
    pub fn set_element(&mut self, lane: Lane, row: usize, col: usize, value: i64) {
        self.rows[row] = self.rows[row].with_lane(lane, col, value);
    }

    /// Apply a row-wise binary operation against another matrix over the
    /// first `vl` rows, leaving remaining rows of `self` untouched.
    pub fn zip_rows(
        &self,
        other: &MatrixValue,
        vl: usize,
        mut f: impl FnMut(PackedWord, PackedWord) -> PackedWord,
    ) -> MatrixValue {
        let mut out = *self;
        for r in 0..vl.min(MOM_ROWS) {
            out.rows[r] = f(self.rows[r], other.rows[r]);
        }
        out
    }

    /// Apply a row-wise unary operation over the first `vl` rows.
    pub fn map_rows(&self, vl: usize, mut f: impl FnMut(PackedWord) -> PackedWord) -> MatrixValue {
        let mut out = *self;
        for r in 0..vl.min(MOM_ROWS) {
            out.rows[r] = f(self.rows[r]);
        }
        out
    }

    /// Transpose the element grid formed by the first `n`×`n` elements, where
    /// `n = lane.count()` (8×8 for byte lanes, 4×4 for halfword lanes, 2×2 for
    /// word lanes). Rows beyond `n` are copied unchanged.
    ///
    /// This is the MOM transpose instruction the paper describes as "switching
    /// vector dimensions without pack/unpack operations".
    pub fn transpose(&self, lane: Lane) -> MatrixValue {
        let n = lane.count();
        let mut out = *self;
        for r in 0..n {
            for c in 0..n {
                out.set_element(lane, r, c, self.element(lane, c, r));
            }
        }
        out
    }
}

/// The MOM matrix register file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatrixRegFile {
    regs: [MatrixValue; NUM_MOM_REGS],
}

impl Default for MatrixRegFile {
    fn default() -> Self {
        Self { regs: [MatrixValue::zero(); NUM_MOM_REGS] }
    }
}

impl MatrixRegFile {
    /// A register file with every register zeroed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Read a whole matrix register.
    pub fn read(&self, reg: MomReg) -> MatrixValue {
        self.regs[reg.index()]
    }

    /// A reference to a matrix register (avoids the 128-byte copy when only a
    /// few rows are needed).
    pub fn get(&self, reg: MomReg) -> &MatrixValue {
        &self.regs[reg.index()]
    }

    /// Write a whole matrix register.
    pub fn write(&mut self, reg: MomReg, value: MatrixValue) {
        self.regs[reg.index()] = value;
    }

    /// Mutable access to a matrix register.
    pub fn get_mut(&mut self, reg: MomReg) -> &mut MatrixValue {
        &mut self.regs[reg.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_name_bounds() {
        assert_eq!(v(15).index(), 15);
        assert_eq!(va(1).index(), 1);
        assert_eq!(v(3).to_string(), "V3");
        assert_eq!(va(0).to_string(), "VA0");
    }

    #[test]
    #[should_panic]
    fn mom_reg_out_of_range() {
        let _ = MomReg::new(16);
    }

    #[test]
    #[should_panic]
    fn mom_acc_out_of_range() {
        let _ = MomAccReg::new(2);
    }

    #[test]
    fn matrix_rows_and_elements() {
        let mut m = MatrixValue::zero();
        m.set_row(3, PackedWord::from_i16_lanes([1, 2, 3, 4]));
        assert_eq!(m.row(3), PackedWord::from_i16_lanes([1, 2, 3, 4]));
        assert_eq!(m.element(Lane::I16, 3, 2), 3);
        m.set_element(Lane::I16, 3, 2, -9);
        assert_eq!(m.element(Lane::I16, 3, 2), -9);
        assert_eq!(m.rows().len(), MOM_ROWS);
    }

    #[test]
    fn from_rows_fills_in_order() {
        let m = MatrixValue::from_rows((0..4).map(|i| PackedWord::splat(Lane::U8, i as i64)));
        assert_eq!(m.row(2).to_u8_lanes(), [2; 8]);
        assert_eq!(m.row(5), PackedWord::ZERO);
    }

    #[test]
    fn zip_rows_respects_vl() {
        let a = MatrixValue::from_rows((0..MOM_ROWS).map(|_| PackedWord::splat(Lane::U8, 10)));
        let b = MatrixValue::from_rows((0..MOM_ROWS).map(|_| PackedWord::splat(Lane::U8, 1)));
        let out = a.zip_rows(&b, 4, |x, y| x.add(y, Lane::U8, mom_isa::Saturation::Wrapping));
        assert_eq!(out.row(0).to_u8_lanes(), [11; 8]);
        assert_eq!(out.row(3).to_u8_lanes(), [11; 8]);
        assert_eq!(out.row(4).to_u8_lanes(), [10; 8], "rows beyond VL are untouched");
    }

    #[test]
    fn map_rows_respects_vl() {
        let a = MatrixValue::from_rows((0..MOM_ROWS).map(|_| PackedWord::splat(Lane::I16, 4)));
        let out = a.map_rows(2, |x| x.shl(Lane::I16, 1));
        assert_eq!(out.row(1), PackedWord::from_i16_lanes([8; 4]));
        assert_eq!(out.row(2), PackedWord::from_i16_lanes([4; 4]));
    }

    #[test]
    fn transpose_square_grid_byte() {
        let mut m = MatrixValue::zero();
        for r in 0..8 {
            for c in 0..8 {
                m.set_element(Lane::U8, r, c, (r * 8 + c) as i64);
            }
        }
        let t = m.transpose(Lane::U8);
        for r in 0..8 {
            for c in 0..8 {
                assert_eq!(t.element(Lane::U8, r, c), (c * 8 + r) as i64);
            }
        }
        // double transpose is the identity
        assert_eq!(t.transpose(Lane::U8), m);
    }

    #[test]
    fn transpose_square_grid_i16() {
        let mut m = MatrixValue::zero();
        for r in 0..4 {
            for c in 0..4 {
                m.set_element(Lane::I16, r, c, (10 * r + c) as i64);
            }
        }
        let t = m.transpose(Lane::I16);
        assert_eq!(t.element(Lane::I16, 1, 3), 31);
        assert_eq!(t.element(Lane::I16, 3, 1), 13);
    }

    #[test]
    fn regfile_roundtrip() {
        let mut rf = MatrixRegFile::new();
        let m = MatrixValue::from_rows([PackedWord::splat(Lane::U8, 7)]);
        rf.write(v(5), m);
        assert_eq!(rf.read(v(5)), m);
        assert_eq!(rf.get(v(5)).row(0).to_u8_lanes(), [7; 8]);
        rf.get_mut(v(5)).set_row(1, PackedWord::splat(Lane::U8, 9));
        assert_eq!(rf.read(v(5)).row(1).to_u8_lanes(), [9; 8]);
        assert_eq!(rf.read(v(6)), MatrixValue::zero());
    }
}
