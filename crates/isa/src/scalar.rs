//! The scalar baseline ISA (the paper's "Alpha" code).
//!
//! Kernels written for the plain superscalar machine use only these
//! instructions. They form a compact load/store RISC subset: immediate
//! materialisation, three-operand ALU operations, compares that set a
//! register, conditional moves, sign-/zero-extending loads, stores and
//! conditional branches against a label.
//!
//! Each operation knows how to execute itself against a
//! [`CoreState`] and how to describe itself to the
//! timing model (functional-unit class, source and destination registers).

use crate::regs::IntReg;
use crate::state::{ControlFlow, CoreState, Outcome};
use crate::trace::{ArchReg, InstClass, MemAccess, MemKind};

/// A branch target label, resolved to an instruction index by the program
/// builder in `mom-core`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Label(pub u32);

impl std::fmt::Display for Label {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// Condition codes for scalar branches and compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cond {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed less-or-equal.
    Le,
    /// Signed greater-than.
    Gt,
    /// Signed greater-or-equal.
    Ge,
}

impl Cond {
    /// Evaluate the condition on two signed operands.
    pub fn eval(self, a: i64, b: i64) -> bool {
        match self {
            Cond::Eq => a == b,
            Cond::Ne => a != b,
            Cond::Lt => a < b,
            Cond::Le => a <= b,
            Cond::Gt => a > b,
            Cond::Ge => a >= b,
        }
    }
}

/// Two-operand ALU operations (register-register or register-immediate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication (uses the complex integer unit).
    Mul,
    /// Bit-wise AND.
    And,
    /// Bit-wise OR.
    Or,
    /// Bit-wise XOR.
    Xor,
    /// Logical shift left.
    Sll,
    /// Logical shift right.
    Srl,
    /// Arithmetic shift right.
    Sra,
    /// Signed minimum (modelled as a simple ALU op; real Alpha code would use
    /// a compare plus conditional move, which the scalar kernels also do where
    /// the comparison result is live).
    Min,
    /// Signed maximum.
    Max,
}

impl AluOp {
    /// Apply the operation.
    pub fn apply(self, a: i64, b: i64) -> i64 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Sll => a.wrapping_shl((b & 63) as u32),
            AluOp::Srl => ((a as u64).wrapping_shr((b & 63) as u32)) as i64,
            AluOp::Sra => a.wrapping_shr((b & 63) as u32),
            AluOp::Min => a.min(b),
            AluOp::Max => a.max(b),
        }
    }

    /// Whether the operation uses the complex (multiply/divide) integer unit.
    pub fn is_complex(self) -> bool {
        matches!(self, AluOp::Mul)
    }
}

/// Scalar (baseline) instructions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScalarOp {
    /// Load an immediate into `rd`.
    Li {
        /// Destination register.
        rd: IntReg,
        /// Immediate value.
        imm: i64,
    },
    /// Copy `rs` into `rd`.
    Mov {
        /// Destination register.
        rd: IntReg,
        /// Source register.
        rs: IntReg,
    },
    /// Three-operand ALU operation `rd = ra <op> rb`.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination register.
        rd: IntReg,
        /// First source.
        ra: IntReg,
        /// Second source.
        rb: IntReg,
    },
    /// ALU operation with an immediate second operand `rd = ra <op> imm`.
    AluI {
        /// Operation.
        op: AluOp,
        /// Destination register.
        rd: IntReg,
        /// First source.
        ra: IntReg,
        /// Immediate second operand.
        imm: i64,
    },
    /// Compare and set: `rd = (ra <cond> rb) ? 1 : 0`.
    CmpSet {
        /// Condition.
        cond: Cond,
        /// Destination register.
        rd: IntReg,
        /// First source.
        ra: IntReg,
        /// Second source.
        rb: IntReg,
    },
    /// Conditional move: `rd = rs` if `rc != 0`.
    CMov {
        /// Destination register.
        rd: IntReg,
        /// Condition register.
        rc: IntReg,
        /// Source moved when the condition holds.
        rs: IntReg,
    },
    /// Absolute value `rd = |ra|`.
    Abs {
        /// Destination register.
        rd: IntReg,
        /// Source register.
        ra: IntReg,
    },
    /// Load `size` bytes from `[base + offset]` into `rd`.
    Ld {
        /// Destination register.
        rd: IntReg,
        /// Base address register.
        base: IntReg,
        /// Byte offset added to the base.
        offset: i64,
        /// Access size in bytes (1, 2, 4 or 8).
        size: u8,
        /// Whether to sign-extend the loaded value.
        signed: bool,
    },
    /// Store the low `size` bytes of `rs` to `[base + offset]`.
    St {
        /// Source register.
        rs: IntReg,
        /// Base address register.
        base: IntReg,
        /// Byte offset added to the base.
        offset: i64,
        /// Access size in bytes (1, 2, 4 or 8).
        size: u8,
    },
    /// Conditional branch to `target` when `ra <cond> rb`.
    Br {
        /// Condition.
        cond: Cond,
        /// First source.
        ra: IntReg,
        /// Second source.
        rb: IntReg,
        /// Branch target.
        target: Label,
    },
    /// Unconditional jump to `target`.
    Jmp {
        /// Branch target.
        target: Label,
    },
    /// No operation (consumes fetch/ROB resources only).
    Nop,
    /// Stop the program.
    Halt,
}

impl ScalarOp {
    /// Functional-unit class of this instruction.
    pub fn class(&self) -> InstClass {
        match self {
            ScalarOp::Alu { op, .. } | ScalarOp::AluI { op, .. } if op.is_complex() => {
                InstClass::IntComplex
            }
            ScalarOp::Li { .. }
            | ScalarOp::Mov { .. }
            | ScalarOp::Alu { .. }
            | ScalarOp::AluI { .. }
            | ScalarOp::CmpSet { .. }
            | ScalarOp::CMov { .. }
            | ScalarOp::Abs { .. } => InstClass::IntSimple,
            ScalarOp::Ld { .. } => InstClass::Load,
            ScalarOp::St { .. } => InstClass::Store,
            ScalarOp::Br { .. } | ScalarOp::Jmp { .. } => InstClass::Branch,
            ScalarOp::Nop | ScalarOp::Halt => InstClass::Nop,
        }
    }

    /// Source registers read by this instruction (for dependence tracking).
    pub fn srcs(&self) -> Vec<ArchReg> {
        let int = |r: &IntReg| ArchReg::int(r.index() as u8);
        match self {
            ScalarOp::Li { .. } | ScalarOp::Nop | ScalarOp::Halt | ScalarOp::Jmp { .. } => vec![],
            ScalarOp::Mov { rs, .. } => vec![int(rs)],
            ScalarOp::Alu { ra, rb, .. } | ScalarOp::CmpSet { ra, rb, .. } | ScalarOp::Br { ra, rb, .. } => {
                vec![int(ra), int(rb)]
            }
            ScalarOp::AluI { ra, .. } | ScalarOp::Abs { ra, .. } => vec![int(ra)],
            ScalarOp::CMov { rd, rc, rs } => vec![int(rd), int(rc), int(rs)],
            ScalarOp::Ld { base, .. } => vec![int(base)],
            ScalarOp::St { rs, base, .. } => vec![int(rs), int(base)],
        }
    }

    /// Destination registers written by this instruction.
    pub fn dsts(&self) -> Vec<ArchReg> {
        let int = |r: &IntReg| ArchReg::int(r.index() as u8);
        match self {
            ScalarOp::Li { rd, .. }
            | ScalarOp::Mov { rd, .. }
            | ScalarOp::Alu { rd, .. }
            | ScalarOp::AluI { rd, .. }
            | ScalarOp::CmpSet { rd, .. }
            | ScalarOp::CMov { rd, .. }
            | ScalarOp::Abs { rd, .. }
            | ScalarOp::Ld { rd, .. } => vec![int(rd)],
            _ => vec![],
        }
    }

    /// Execute the instruction against the architectural state.
    pub fn execute(&self, st: &mut CoreState) -> Outcome {
        match self {
            ScalarOp::Li { rd, imm } => {
                st.int.write(*rd, *imm);
                Outcome::fall()
            }
            ScalarOp::Mov { rd, rs } => {
                let v = st.int.read(*rs);
                st.int.write(*rd, v);
                Outcome::fall()
            }
            ScalarOp::Alu { op, rd, ra, rb } => {
                let v = op.apply(st.int.read(*ra), st.int.read(*rb));
                st.int.write(*rd, v);
                Outcome::fall()
            }
            ScalarOp::AluI { op, rd, ra, imm } => {
                let v = op.apply(st.int.read(*ra), *imm);
                st.int.write(*rd, v);
                Outcome::fall()
            }
            ScalarOp::CmpSet { cond, rd, ra, rb } => {
                let v = cond.eval(st.int.read(*ra), st.int.read(*rb));
                st.int.write(*rd, v as i64);
                Outcome::fall()
            }
            ScalarOp::CMov { rd, rc, rs } => {
                if st.int.read(*rc) != 0 {
                    let v = st.int.read(*rs);
                    st.int.write(*rd, v);
                }
                Outcome::fall()
            }
            ScalarOp::Abs { rd, ra } => {
                let v = st.int.read(*ra).wrapping_abs();
                st.int.write(*rd, v);
                Outcome::fall()
            }
            ScalarOp::Ld { rd, base, offset, size, signed } => {
                let addr = (st.int.read(*base) + offset) as u64;
                let v = if *signed {
                    st.mem.read_signed(addr, *size as usize)
                } else {
                    st.mem.read_unsigned(addr, *size as usize) as i64
                };
                st.int.write(*rd, v);
                Outcome::with_mem(vec![MemAccess { addr, size: *size, kind: MemKind::Load }])
            }
            ScalarOp::St { rs, base, offset, size } => {
                let addr = (st.int.read(*base) + offset) as u64;
                st.mem.write_value(addr, *size as usize, st.int.read(*rs) as u64);
                Outcome::with_mem(vec![MemAccess { addr, size: *size, kind: MemKind::Store }])
            }
            ScalarOp::Br { cond, ra, rb, target } => {
                let taken = cond.eval(st.int.read(*ra), st.int.read(*rb));
                Outcome {
                    flow: if taken { ControlFlow::Branch(*target) } else { ControlFlow::Fall },
                    mem: Vec::new(),
                }
            }
            ScalarOp::Jmp { target } => {
                Outcome { flow: ControlFlow::Branch(*target), mem: Vec::new() }
            }
            ScalarOp::Nop => Outcome::fall(),
            ScalarOp::Halt => Outcome { flow: ControlFlow::Halt, mem: Vec::new() },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemImage;
    use crate::regs::r;

    fn state() -> CoreState {
        CoreState::new(MemImage::new(0x1000, 256))
    }

    #[test]
    fn cond_eval_covers_all_cases() {
        assert!(Cond::Eq.eval(3, 3));
        assert!(Cond::Ne.eval(3, 4));
        assert!(Cond::Lt.eval(-1, 0));
        assert!(Cond::Le.eval(0, 0));
        assert!(Cond::Gt.eval(5, 4));
        assert!(Cond::Ge.eval(5, 5));
        assert!(!Cond::Lt.eval(5, 5));
    }

    #[test]
    fn alu_ops_apply() {
        assert_eq!(AluOp::Add.apply(3, 4), 7);
        assert_eq!(AluOp::Sub.apply(3, 4), -1);
        assert_eq!(AluOp::Mul.apply(3, 4), 12);
        assert_eq!(AluOp::And.apply(0b1100, 0b1010), 0b1000);
        assert_eq!(AluOp::Or.apply(0b1100, 0b1010), 0b1110);
        assert_eq!(AluOp::Xor.apply(0b1100, 0b1010), 0b0110);
        assert_eq!(AluOp::Sll.apply(1, 4), 16);
        assert_eq!(AluOp::Srl.apply(-1, 60), 15);
        assert_eq!(AluOp::Sra.apply(-16, 2), -4);
        assert_eq!(AluOp::Min.apply(-2, 7), -2);
        assert_eq!(AluOp::Max.apply(-2, 7), 7);
        assert!(AluOp::Mul.is_complex());
        assert!(!AluOp::Add.is_complex());
    }

    #[test]
    fn li_mov_alu_roundtrip() {
        let mut st = state();
        ScalarOp::Li { rd: r(1), imm: 40 }.execute(&mut st);
        ScalarOp::Li { rd: r(2), imm: 2 }.execute(&mut st);
        ScalarOp::Alu { op: AluOp::Add, rd: r(3), ra: r(1), rb: r(2) }.execute(&mut st);
        ScalarOp::Mov { rd: r(4), rs: r(3) }.execute(&mut st);
        assert_eq!(st.int.read(r(4)), 42);
        ScalarOp::AluI { op: AluOp::Mul, rd: r(5), ra: r(4), imm: 2 }.execute(&mut st);
        assert_eq!(st.int.read(r(5)), 84);
    }

    #[test]
    fn cmp_cmov_abs() {
        let mut st = state();
        st.int.write(r(1), -9);
        st.int.write(r(2), 4);
        ScalarOp::CmpSet { cond: Cond::Lt, rd: r(3), ra: r(1), rb: r(2) }.execute(&mut st);
        assert_eq!(st.int.read(r(3)), 1);
        ScalarOp::CMov { rd: r(4), rc: r(3), rs: r(2) }.execute(&mut st);
        assert_eq!(st.int.read(r(4)), 4);
        st.int.write(r(3), 0);
        ScalarOp::CMov { rd: r(4), rc: r(3), rs: r(1) }.execute(&mut st);
        assert_eq!(st.int.read(r(4)), 4, "cmov with false condition leaves rd unchanged");
        ScalarOp::Abs { rd: r(5), ra: r(1) }.execute(&mut st);
        assert_eq!(st.int.read(r(5)), 9);
    }

    #[test]
    fn load_store_roundtrip_and_trace_info() {
        let mut st = state();
        st.int.write(r(1), 0x1010);
        st.int.write(r(2), -123456);
        let o = ScalarOp::St { rs: r(2), base: r(1), offset: 8, size: 4 }.execute(&mut st);
        assert_eq!(o.mem.len(), 1);
        assert_eq!(o.mem[0].addr, 0x1018);
        assert_eq!(o.mem[0].kind, MemKind::Store);
        let o = ScalarOp::Ld { rd: r(3), base: r(1), offset: 8, size: 4, signed: true }.execute(&mut st);
        assert_eq!(st.int.read(r(3)), -123456);
        assert_eq!(o.mem[0].kind, MemKind::Load);
        // unsigned byte load
        st.mem.write_u8(0x1020, 0xfe);
        ScalarOp::Ld { rd: r(4), base: r(1), offset: 0x10, size: 1, signed: false }.execute(&mut st);
        assert_eq!(st.int.read(r(4)), 0xfe);
    }

    #[test]
    fn branch_taken_and_not_taken() {
        let mut st = state();
        st.int.write(r(1), 5);
        st.int.write(r(2), 5);
        let o = ScalarOp::Br { cond: Cond::Eq, ra: r(1), rb: r(2), target: Label(7) }.execute(&mut st);
        assert_eq!(o.flow, ControlFlow::Branch(Label(7)));
        let o = ScalarOp::Br { cond: Cond::Ne, ra: r(1), rb: r(2), target: Label(7) }.execute(&mut st);
        assert_eq!(o.flow, ControlFlow::Fall);
        let o = ScalarOp::Jmp { target: Label(3) }.execute(&mut st);
        assert_eq!(o.flow, ControlFlow::Branch(Label(3)));
        let o = ScalarOp::Halt.execute(&mut st);
        assert_eq!(o.flow, ControlFlow::Halt);
    }

    #[test]
    fn classes_and_reg_metadata() {
        assert_eq!(ScalarOp::Li { rd: r(1), imm: 0 }.class(), InstClass::IntSimple);
        assert_eq!(
            ScalarOp::Alu { op: AluOp::Mul, rd: r(1), ra: r(2), rb: r(3) }.class(),
            InstClass::IntComplex
        );
        assert_eq!(
            ScalarOp::Ld { rd: r(1), base: r(2), offset: 0, size: 8, signed: false }.class(),
            InstClass::Load
        );
        assert_eq!(
            ScalarOp::Br { cond: Cond::Eq, ra: r(1), rb: r(2), target: Label(0) }.class(),
            InstClass::Branch
        );
        let st = ScalarOp::St { rs: r(4), base: r(5), offset: 0, size: 8 };
        assert_eq!(st.class(), InstClass::Store);
        assert_eq!(st.srcs().len(), 2);
        assert!(st.dsts().is_empty());
        let alu = ScalarOp::Alu { op: AluOp::Add, rd: r(1), ra: r(2), rb: r(3) };
        assert_eq!(alu.srcs(), vec![ArchReg::int(2), ArchReg::int(3)]);
        assert_eq!(alu.dsts(), vec![ArchReg::int(1)]);
        let cmov = ScalarOp::CMov { rd: r(1), rc: r(2), rs: r(3) };
        assert_eq!(cmov.srcs().len(), 3, "cmov reads its destination");
    }

    #[test]
    fn label_display() {
        assert_eq!(Label(4).to_string(), "L4");
    }
}
