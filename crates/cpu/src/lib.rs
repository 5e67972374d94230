//! # mom-cpu — out-of-order superscalar timing simulator
//!
//! A trace-driven timing model of the paper's evaluation machine: a MIPS
//! R10000-style out-of-order core (Table 1 configurations from 1-way to
//! 8-way) extended with a multimedia unit and its own register file
//! (Table 2), attached to one of the memory systems of `mom-mem`.
//!
//! The division of labour mirrors the original methodology: the functional
//! interpreters (in `mom-core`) play the role of ATOM-instrumented execution
//! and produce a dynamic instruction stream; this crate plays the role of the
//! Jinks simulator and assigns cycles to that stream. Like the original
//! pipeline, simulation is **streaming**: the incremental [`SimStream`]
//! engine (see [`core`]) retires instructions as they graduate with O(ROB)
//! state, so the interpreter can feed the simulator directly — no
//! materialized trace — while [`SimMachine::simulate_trace`] still accepts a
//! collected [`Trace`](mom_isa::trace::Trace) and produces bit-identical
//! results. In the fused pipelines the instructions arrive from `mom-core`'s
//! pre-decoded µop engine (`Program::decode`), so both halves of a fused
//! cell run flat, steady-state loops: pre-decoded µops on the interpreter
//! side, power-of-two ring buffers and mask-indexed predictor tables on this
//! side.
//!
//! A machine is described by a [`MachineDescriptor`] and instantiated by
//! [`MachineDescriptor::build`]; the resulting [`SimMachine`] opens every
//! [`SimStream`].
//!
//! ```
//! use mom_cpu::MachineDescriptor;
//! use mom_isa::trace::{ArchReg, DynInst, InstClass, IsaKind, Trace};
//! use mom_mem::MemModelKind;
//!
//! // Four independent integer adds on a 4-way machine: well above IPC 1.
//! let trace: Trace = (0..400u64)
//!     .map(|i| {
//!         DynInst::new(InstClass::IntSimple, i)
//!             .with_src(ArchReg::int(0))
//!             .with_dst(ArchReg::int(1 + (i % 8) as u8))
//!     })
//!     .collect();
//! let mut machine =
//!     MachineDescriptor::for_cell(4, IsaKind::Alpha, MemModelKind::Perfect { latency: 1 }).build();
//! let result = machine.simulate_trace(&trace);
//! assert!(result.ipc() > 1.5);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod core;
pub mod machine;
pub mod predictor;
pub mod probe;

pub use crate::core::{SimResult, SimStream};
pub use crate::probe::{
    AttributionProbe, IntervalStats, IntervalWindow, NoProbe, Probe, ProbeReport, StallBreakdown,
    StallCause,
};
pub use config::{CoreConfig, FuPool, PhysRegs};
pub use machine::{MachineDescriptor, SimMachine};
pub use predictor::{BimodalPredictor, BranchPredictor, Btb};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulation_types_are_send() {
        fn assert_send_sync<T: Send + Sync>() {}
        // The parallel experiment runner simulates grid cells on scoped worker
        // threads and sends `SimResult`s back; machines are built per-thread
        // from shared descriptors.
        assert_send_sync::<SimResult>();
        assert_send_sync::<CoreConfig>();
        assert_send_sync::<MachineDescriptor>();
    }
}
