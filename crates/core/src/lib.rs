//! # mom-core — the MOM matrix-oriented multimedia ISA
//!
//! This crate implements the contribution of *"Exploiting a New Level of DLP
//! in Multimedia Applications"* (Corbal, Espasa, Valero — MICRO 1999): the
//! **MOM** instruction-set extension, which fuses the sub-word SIMD style of
//! MMX/MDMX with the inter-word style of classical vector ISAs. A MOM register
//! holds a small matrix (16 rows × one 64-bit packed word), a vector-length
//! register selects how many rows an instruction touches, strided memory
//! instructions fill those rows from non-contiguous image rows, and wide
//! packed accumulators absorb reductions without a loop-carried recurrence.
//!
//! The crate provides:
//!
//! * [`matrix`] — matrix registers, the matrix register file and transposes;
//! * [`state`] — the MOM architectural state and the combined [`Machine`];
//! * [`ops`] — the MOM instruction set ([`MomOp`]) and its semantics;
//! * [`inst`] — the unified instruction type across all evaluated ISAs;
//! * [`program`] — programs, the builder, and the functional interpreter that
//!   emits dynamic traces for the timing simulator;
//! * [`decoded`] — the pre-decoded µop engine behind [`Program::run`] and
//!   [`Program::stream`]: decode once, execute flat;
//! * [`area`] — the register-file size/area model behind Table 2;
//! * [`inventory`] — opcode inventories (the 67/88/121 comparison).
//!
//! ## Example: a 16×8 sum of absolute differences in four instructions
//!
//! ```
//! use mom_core::matrix::{v, va};
//! use mom_core::ops::MomOp;
//! use mom_core::program::ProgramBuilder;
//! use mom_core::state::Machine;
//! use mom_isa::mdmx::AccOp;
//! use mom_isa::mem::MemImage;
//! use mom_isa::packed::Lane;
//! use mom_isa::regs::r;
//! use mom_isa::scalar::ScalarOp;
//! use mom_isa::trace::IsaKind;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Two 16x8 pixel blocks, rows 32 bytes apart in the image.
//! let mut machine = Machine::new(MemImage::new(0x1000, 4096));
//! for row in 0..16u64 {
//!     for col in 0..8u64 {
//!         machine.mem_mut().write_u8(0x1000 + row * 32 + col, (row * 8 + col) as u8);
//!         machine.mem_mut().write_u8(0x1800 + row * 32 + col, (row * 8 + col + 3) as u8);
//!     }
//! }
//!
//! let mut b = ProgramBuilder::new(IsaKind::Mom);
//! b.push(ScalarOp::Li { rd: r(1), imm: 0x1000 });
//! b.push(ScalarOp::Li { rd: r(2), imm: 0x1800 });
//! b.push(ScalarOp::Li { rd: r(3), imm: 32 });
//! b.push(MomOp::SetVlI { vl: 16 });
//! b.push(MomOp::Ld { vd: v(0), base: r(1), stride: r(3) });
//! b.push(MomOp::Ld { vd: v(1), base: r(2), stride: r(3) });
//! b.push(MomOp::AccClear { acc: va(0) });
//! b.push(MomOp::Acc { op: AccOp::AbsDiffAdd, acc: va(0), va: v(0), vb: v(1), lane: Lane::U8 });
//! b.push(MomOp::ReduceAcc { rd: r(4), acc: va(0) });
//! let program = b.build()?;
//!
//! program.run(&mut machine)?;
//! assert_eq!(machine.core.int.read(r(4)), 16 * 8 * 3); // every pixel differs by 3
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod area;
pub mod decoded;
pub mod inst;
pub mod inventory;
pub mod matrix;
pub mod ops;
pub mod program;
pub mod state;

pub use decoded::{DecodedProgram, ExecCursor};
pub use inst::Inst;
pub use matrix::{
    MatrixRegFile, MatrixValue, MomAccReg, MomReg, MAX_VL, MOM_ROWS, NUM_MOM_ACCS, NUM_MOM_REGS,
};
pub use ops::MomOp;
pub use program::{BuildError, ExecError, Program, ProgramBuilder};
pub use state::{Machine, MomState, VL_SHADOW_REG};
