//! Shared architectural state operated on by the functional interpreters.

use crate::accumulator::Accumulator;
use crate::mem::MemImage;
use crate::regs::{FpRegFile, IntRegFile, MediaRegFile, NUM_MDMX_ACCS};
use crate::trace::MemAccess;

/// Architectural state common to the scalar baseline and the MMX/MDMX
/// extensions: scalar register files, the 64-bit media register file, the
/// MDMX packed accumulators and the data memory image.
///
/// The MOM extension adds matrix registers, MOM accumulators and the
/// vector-length/stride registers on top of this state; those live in
/// `mom-core`, which embeds a `CoreState`.
#[derive(Debug, Clone)]
pub struct CoreState {
    /// Integer register file (register 31 is hard-wired to zero).
    pub int: IntRegFile,
    /// Floating-point register file.
    pub fp: FpRegFile,
    /// 64-bit multimedia register file.
    pub media: MediaRegFile,
    /// MDMX packed accumulators.
    pub accs: [Accumulator; NUM_MDMX_ACCS],
    /// Data memory image.
    pub mem: MemImage,
}

impl CoreState {
    /// Create a state with zeroed registers around the given memory image.
    pub fn new(mem: MemImage) -> Self {
        Self {
            int: IntRegFile::new(),
            fp: FpRegFile::new(),
            media: MediaRegFile::new(),
            accs: std::array::from_fn(|_| Accumulator::new()),
            mem,
        }
    }
}

/// Where control flow goes after executing an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlFlow {
    /// Fall through to the next static instruction.
    Fall,
    /// Branch to the given label (conditional branch taken, or jump).
    Branch(crate::scalar::Label),
    /// Stop execution (end of program).
    Halt,
}

/// The side effects of executing one instruction that the trace generator
/// needs to observe: the control-flow decision and the element memory
/// accesses performed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// Control-flow decision.
    pub flow: ControlFlow,
    /// Element-level memory accesses performed by the instruction.
    pub mem: Vec<MemAccess>,
}

impl Outcome {
    /// An outcome that falls through with no memory activity.
    pub fn fall() -> Self {
        Self { flow: ControlFlow::Fall, mem: Vec::new() }
    }

    /// A fall-through outcome carrying memory accesses.
    pub fn with_mem(mem: Vec<MemAccess>) -> Self {
        Self { flow: ControlFlow::Fall, mem }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regs::r;

    #[test]
    fn fresh_state_is_zeroed() {
        let st = CoreState::new(MemImage::new(0, 64));
        assert_eq!(st.int.read(r(5)), 0);
        assert_eq!(st.media.read(crate::regs::m(3)).bits(), 0);
        assert_eq!(st.accs[0].reduce_sum(), 0);
    }

    #[test]
    fn outcome_constructors() {
        assert_eq!(Outcome::fall().flow, ControlFlow::Fall);
        assert!(Outcome::fall().mem.is_empty());
        let o = Outcome::with_mem(vec![MemAccess {
            addr: 8,
            size: 8,
            kind: crate::trace::MemKind::Load,
        }]);
        assert_eq!(o.flow, ControlFlow::Fall);
        assert_eq!(o.mem.len(), 1);
    }
}
