//! # mom-isa — instruction-set substrates for the MOM reproduction
//!
//! This crate provides the building blocks shared by every instruction-set
//! architecture evaluated in *"Exploiting a New Level of DLP in Multimedia
//! Applications"* (MICRO 1999):
//!
//! * [`packed`] — 64-bit packed sub-word arithmetic (the lane semantics of
//!   MMX/MDMX/MOM computation instructions).
//! * [`accumulator`] — MDMX-style packed wide accumulators, reused by MOM.
//! * [`regs`] — architectural register names and register files.
//! * [`mem`] — the byte-addressable memory image kernels execute against.
//! * [`scalar`] — the scalar baseline ISA (the paper's "Alpha" code).
//! * [`mmx`] — the extended MMX-like media ISA.
//! * [`mdmx`] — the MDMX-like media ISA (MMX + packed accumulators).
//! * [`state`] — the architectural state those ISAs execute against.
//! * [`trace`] — dynamic-instruction traces, the contract with the timing
//!   simulator in `mom-cpu`.
//! * [`pipe`] — bounded batch channels for pipelining one trace producer
//!   against N simulator threads. No command uses them; kept only for the
//!   `perfbench` ladder's `L2p` rung, and deleted with the benchmark change
//!   (ROADMAP item 2).
//!
//! The MOM matrix extension itself — the paper's contribution — lives in the
//! `mom-core` crate, which builds on these substrates.
//!
//! ## Example
//!
//! ```
//! use mom_isa::packed::{Lane, PackedWord, Saturation};
//! use mom_isa::accumulator::Accumulator;
//!
//! // Packed SIMD: eight saturating byte adds in one operation.
//! let a = PackedWord::from_u8_lanes([200, 1, 2, 3, 4, 5, 6, 7]);
//! let b = PackedWord::from_u8_lanes([100, 1, 1, 1, 1, 1, 1, 1]);
//! assert_eq!(a.add(b, Lane::U8, Saturation::Saturating).to_u8_lanes()[0], 255);
//!
//! // A packed accumulator performing a dot product without precision loss.
//! let mut acc = Accumulator::new();
//! acc.mul_add(
//!     PackedWord::from_i16_lanes([1, 2, 3, 4]),
//!     PackedWord::from_i16_lanes([5, 6, 7, 8]),
//!     Lane::I16,
//! );
//! assert_eq!(acc.reduce_sum(), 70);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod accumulator;
pub mod codec;
pub mod mdmx;
pub mod mem;
pub mod mmx;
pub mod packed;
pub mod pipe;
pub mod regs;
pub mod scalar;
pub mod state;
pub mod trace;

pub use accumulator::Accumulator;
pub use mem::MemImage;
pub use packed::{Lane, Lanes, PackedWord, Saturation};
pub use regs::{AccReg, FpReg, IntReg, MediaReg};
pub use state::{ControlFlow, CoreState, Outcome};
pub use trace::{ArchReg, DynInst, InstClass, IsaKind, MemAccess, MemKind, RegClass, Trace};
