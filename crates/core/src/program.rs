//! Programs, the program builder and the functional interpreter.
//!
//! A [`Program`] is a finite list of [`Inst`] values with resolved branch
//! labels. Kernel builders construct programs through [`ProgramBuilder`]
//! (which manages labels) and the interpreter [`Program::run`] executes them
//! against a [`Machine`], producing both the architectural side effects (the
//! kernel's numerical result, checked against golden references) and a
//! [`Trace`] of dynamic instructions for the timing simulator — the in-process
//! equivalent of the ATOM-instrumented runs feeding Jinks in the original
//! study.

use crate::decoded::DecodedProgram;
use crate::inst::Inst;
use crate::state::Machine;
use mom_isa::scalar::Label;
use mom_isa::state::ControlFlow;
use mom_isa::trace::{BranchInfo, DynInst, InstClass, IsaKind, Trace, TraceSink};

/// Default dynamic-instruction budget for [`Program::run`]. This is a
/// runaway-program guard, not a workload ceiling: it sits an order of
/// magnitude above the largest legitimate run (`stress --scale 100` executes
/// ~141M dynamic instructions in its biggest cell).
pub const DEFAULT_FUEL: usize = 2_000_000_000;

/// Errors produced while building a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// A label was referenced by a branch but never bound to a position.
    UnboundLabel(Label),
    /// A label was bound twice.
    ReboundLabel(Label),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::UnboundLabel(l) => write!(f, "branch target {l} was never bound"),
            BuildError::ReboundLabel(l) => write!(f, "label {l} was bound more than once"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Errors produced while executing a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The dynamic-instruction budget was exhausted (the program probably
    /// contains an unintended infinite loop).
    FuelExhausted {
        /// Instructions executed before giving up.
        executed: usize,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::FuelExhausted { executed } => {
                write!(f, "instruction budget exhausted after {executed} instructions")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// A complete program with resolved labels.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    insts: Vec<Inst>,
    label_targets: Vec<u32>,
    isa: IsaKind,
}

impl Program {
    /// Number of static instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// The ISA dialect the program was built for.
    pub fn isa(&self) -> IsaKind {
        self.isa
    }

    /// The static instructions.
    pub fn insts(&self) -> &[Inst] {
        &self.insts
    }

    /// Resolve a label to its instruction index.
    ///
    /// # Panics
    ///
    /// Panics if the label does not belong to this program.
    pub fn target(&self, label: Label) -> usize {
        self.label_targets[label.0 as usize] as usize
    }

    /// Lower the program into the pre-decoded µop engine (see
    /// [`DecodedProgram`] and the [`decoded`](crate::decoded) module docs).
    ///
    /// Decoding pays every per-static-instruction cost — enum flattening,
    /// operand list resolution, branch target resolution, [`DynInst`]
    /// skeleton assembly — exactly once, so the execution hot loop only
    /// patches dynamic fields. [`Program::run`] and [`Program::stream`]
    /// decode on entry; callers executing one program repeatedly can hold on
    /// to the decoded form.
    pub fn decode(&self) -> DecodedProgram {
        DecodedProgram::new(self)
    }

    /// Execute the program with the default instruction budget.
    ///
    /// Returns the dynamic trace. Architectural side effects (register and
    /// memory contents) are left in `machine` for the caller to inspect.
    ///
    /// This is a thin collecting wrapper over [`Program::stream`]; callers
    /// that do not need the materialized trace (e.g. a fused
    /// interpreter→simulator pipeline) should stream into their own
    /// [`TraceSink`] instead, which keeps memory independent of trace length.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::FuelExhausted`] if the program executes more than
    /// [`DEFAULT_FUEL`] dynamic instructions.
    pub fn run(&self, machine: &mut Machine) -> Result<Trace, ExecError> {
        self.run_with_fuel(machine, DEFAULT_FUEL)
    }

    /// Execute the program with an explicit dynamic-instruction budget,
    /// collecting the trace (the fuel-parameterized flavour of
    /// [`Program::run`]).
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::FuelExhausted`] if the budget is exceeded.
    pub fn run_with_fuel(&self, machine: &mut Machine, fuel: usize) -> Result<Trace, ExecError> {
        let mut trace = Trace::new(self.isa);
        self.stream_with_fuel(machine, &mut trace, fuel)?;
        Ok(trace)
    }

    /// Execute the program, pushing every graduated instruction into `sink`
    /// with the default instruction budget. Returns the number of
    /// instructions executed.
    ///
    /// This is the streaming driver behind [`Program::run`]: with a
    /// collecting sink ([`Trace`]) it reproduces `run` exactly; with a
    /// streaming sink (the incremental simulator in `mom-cpu`) the
    /// interpreter and the timing model fuse into a pipeline whose memory
    /// use is independent of the dynamic instruction count.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::FuelExhausted`] if the program executes more than
    /// [`DEFAULT_FUEL`] dynamic instructions. Instructions executed before
    /// the budget ran out have already been emitted to the sink.
    pub fn stream<S: TraceSink + ?Sized>(
        &self,
        machine: &mut Machine,
        sink: &mut S,
    ) -> Result<usize, ExecError> {
        self.stream_with_fuel(machine, sink, DEFAULT_FUEL)
    }

    /// [`Program::stream`] with an explicit dynamic-instruction budget.
    ///
    /// Execution routes through the pre-decoded µop engine
    /// ([`Program::decode`]): the instruction list is lowered once and the
    /// steady-state loop runs flat µops, byte-identical to the legacy
    /// interpreter ([`Program::stream_with_fuel_legacy`]) but without its
    /// per-dynamic-instruction decode and allocation costs.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::FuelExhausted`] if the budget is exceeded;
    /// already-executed instructions have been emitted to the sink.
    pub fn stream_with_fuel<S: TraceSink + ?Sized>(
        &self,
        machine: &mut Machine,
        sink: &mut S,
        fuel: usize,
    ) -> Result<usize, ExecError> {
        self.decode().stream_with_fuel(machine, sink, fuel)
    }

    /// The original walk-the-instruction-list interpreter, kept as the
    /// executable reference semantics for the decoded engine.
    ///
    /// Differential tests (`tests/proptest_decoded.rs`) pin
    /// [`Program::stream_with_fuel`] against this: both engines must produce
    /// byte-identical architectural state, emitted instruction sequences and
    /// fuel accounting. It re-pays per-dynamic-
    /// instruction decode costs (nested enum dispatch, operand-list
    /// allocation, builder-based [`DynInst`] assembly, label lookups) and is
    /// therefore several times slower — do not use it on a hot path.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::FuelExhausted`] if the budget is exceeded;
    /// already-executed instructions have been emitted to the sink.
    pub fn stream_with_fuel_legacy<S: TraceSink + ?Sized>(
        &self,
        machine: &mut Machine,
        sink: &mut S,
        fuel: usize,
    ) -> Result<usize, ExecError> {
        let mut pc = 0usize;
        let mut executed = 0usize;
        while pc < self.insts.len() {
            if executed >= fuel {
                return Err(ExecError::FuelExhausted { executed });
            }
            let inst = &self.insts[pc];
            // Capture VL before execution for vector occupancy (SetVl itself
            // is not a vector instruction, so ordering does not matter).
            let elems = if inst.is_vector() { machine.mom.vl().max(1) as u16 } else { 1 };
            let outcome = inst.execute(machine);
            executed += 1;

            let mut dyn_inst = DynInst::new(inst.class(), pc as u64).with_elems(elems);
            for s in inst.srcs() {
                dyn_inst = dyn_inst.with_src(s);
            }
            for d in inst.dsts() {
                dyn_inst = dyn_inst.with_dst(d);
            }
            dyn_inst.mem = outcome.mem;

            let next_pc = match outcome.flow {
                ControlFlow::Fall => pc + 1,
                ControlFlow::Branch(label) => self.target(label),
                ControlFlow::Halt => self.insts.len(),
            };

            if dyn_inst.class == InstClass::Branch {
                let (taken, target, conditional) = match (&outcome.flow, inst) {
                    (ControlFlow::Branch(label), Inst::Scalar(mom_isa::scalar::ScalarOp::Jmp { .. })) => {
                        (true, self.target(*label) as u64, false)
                    }
                    (ControlFlow::Branch(label), _) => (true, self.target(*label) as u64, true),
                    (_, Inst::Scalar(mom_isa::scalar::ScalarOp::Br { target, .. })) => {
                        (false, self.target(*target) as u64, true)
                    }
                    _ => (false, (pc + 1) as u64, true),
                };
                dyn_inst =
                    dyn_inst.with_branch(BranchInfo { taken, conditional, pc: pc as u64, target });
            }

            sink.emit(dyn_inst);
            pc = next_pc;
        }
        Ok(executed)
    }

    /// Collecting wrapper over [`Program::stream_with_fuel_legacy`] with the
    /// default budget — the legacy equivalent of [`Program::run`], for
    /// differential tests and benchmarks.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::FuelExhausted`] if the program executes more than
    /// [`DEFAULT_FUEL`] dynamic instructions.
    pub fn run_legacy(&self, machine: &mut Machine) -> Result<Trace, ExecError> {
        let mut trace = Trace::new(self.isa);
        self.stream_with_fuel_legacy(machine, &mut trace, DEFAULT_FUEL)?;
        Ok(trace)
    }
}

/// Incremental builder for [`Program`], managing branch labels.
///
/// # Examples
///
/// ```
/// use mom_core::program::ProgramBuilder;
/// use mom_core::state::Machine;
/// use mom_isa::mem::MemImage;
/// use mom_isa::regs::r;
/// use mom_isa::scalar::{AluOp, Cond, ScalarOp};
/// use mom_isa::trace::IsaKind;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Sum the integers 1..=10 with a scalar loop.
/// let mut b = ProgramBuilder::new(IsaKind::Alpha);
/// b.push(ScalarOp::Li { rd: r(1), imm: 0 });  // sum
/// b.push(ScalarOp::Li { rd: r(2), imm: 1 });  // i
/// b.push(ScalarOp::Li { rd: r(3), imm: 10 }); // limit
/// let top = b.bind_here();
/// b.push(ScalarOp::Alu { op: AluOp::Add, rd: r(1), ra: r(1), rb: r(2) });
/// b.push(ScalarOp::AluI { op: AluOp::Add, rd: r(2), ra: r(2), imm: 1 });
/// b.push(ScalarOp::Br { cond: Cond::Le, ra: r(2), rb: r(3), target: top });
/// let program = b.build()?;
///
/// let mut machine = Machine::new(MemImage::new(0, 64));
/// let trace = program.run(&mut machine)?;
/// assert_eq!(machine.core.int.read(r(1)), 55);
/// assert!(trace.len() > 30);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ProgramBuilder {
    insts: Vec<Inst>,
    labels: Vec<Option<u32>>,
    isa: IsaKind,
}

impl ProgramBuilder {
    /// Start a new program for the given ISA dialect.
    pub fn new(isa: IsaKind) -> Self {
        Self { insts: Vec::new(), labels: Vec::new(), isa }
    }

    /// Append an instruction.
    pub fn push(&mut self, inst: impl Into<Inst>) -> &mut Self {
        self.insts.push(inst.into());
        self
    }

    /// Append every instruction from an iterator.
    pub fn extend<I, T>(&mut self, insts: I) -> &mut Self
    where
        I: IntoIterator<Item = T>,
        T: Into<Inst>,
    {
        self.insts.extend(insts.into_iter().map(Into::into));
        self
    }

    /// Allocate a fresh, unbound label (bind it later with
    /// [`ProgramBuilder::bind`]).
    pub fn new_label(&mut self) -> Label {
        let l = Label(self.labels.len() as u32);
        self.labels.push(None);
        l
    }

    /// Bind a previously allocated label to the current position (the next
    /// pushed instruction).
    ///
    /// # Panics
    ///
    /// Panics if the label does not belong to this builder.
    pub fn bind(&mut self, label: Label) {
        let slot = &mut self.labels[label.0 as usize];
        if slot.is_some() {
            // Defer the error to build() so callers get a Result.
            *slot = Some(u32::MAX);
        } else {
            *slot = Some(self.insts.len() as u32);
        }
    }

    /// Allocate a label bound to the current position.
    pub fn bind_here(&mut self) -> Label {
        let l = self.new_label();
        self.bind(l);
        l
    }

    /// Number of instructions pushed so far.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether no instructions have been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Finish the program, checking that every label is bound.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::UnboundLabel`] if a label was allocated but never
    /// bound, or [`BuildError::ReboundLabel`] if a label was bound twice.
    pub fn build(self) -> Result<Program, BuildError> {
        let mut targets = Vec::with_capacity(self.labels.len());
        for (i, t) in self.labels.iter().enumerate() {
            match t {
                None => return Err(BuildError::UnboundLabel(Label(i as u32))),
                Some(u32::MAX) => return Err(BuildError::ReboundLabel(Label(i as u32))),
                Some(t) => targets.push(*t),
            }
        }
        Ok(Program { insts: self.insts, label_targets: targets, isa: self.isa })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::{v, va};
    use crate::ops::MomOp;
    use mom_isa::mdmx::AccOp;
    use mom_isa::mem::MemImage;
    use mom_isa::packed::Lane;
    use mom_isa::regs::r;
    use mom_isa::scalar::{AluOp, Cond, ScalarOp};
    use mom_isa::trace::{InstClass, MemKind};

    fn machine() -> Machine {
        Machine::new(MemImage::new(0x1000, 4096))
    }

    #[test]
    fn scalar_loop_sums_and_traces_branches() {
        let mut b = ProgramBuilder::new(IsaKind::Alpha);
        b.push(ScalarOp::Li { rd: r(1), imm: 0 });
        b.push(ScalarOp::Li { rd: r(2), imm: 1 });
        b.push(ScalarOp::Li { rd: r(3), imm: 5 });
        let top = b.bind_here();
        b.push(ScalarOp::Alu { op: AluOp::Add, rd: r(1), ra: r(1), rb: r(2) });
        b.push(ScalarOp::AluI { op: AluOp::Add, rd: r(2), ra: r(2), imm: 1 });
        b.push(ScalarOp::Br { cond: Cond::Le, ra: r(2), rb: r(3), target: top });
        let p = b.build().unwrap();
        assert_eq!(p.isa(), IsaKind::Alpha);
        assert_eq!(p.target(top), 3);
        assert!(!p.is_empty());

        let mut st = machine();
        let trace = p.run(&mut st).unwrap();
        assert_eq!(st.core.int.read(r(1)), 15);
        let branches: Vec<_> =
            trace.insts.iter().filter(|i| i.class == InstClass::Branch).collect();
        assert_eq!(branches.len(), 5);
        assert!(branches[0].branch.unwrap().taken);
        assert!(!branches[4].branch.unwrap().taken, "final iteration falls through");
        assert_eq!(branches[0].branch.unwrap().target, 3);
    }

    #[test]
    fn mom_program_traces_vector_elems_and_memory() {
        let mut st = machine();
        for k in 0..8u64 {
            st.core.mem.write_u64(0x1000 + k * 16, k);
            st.core.mem.write_u64(0x1800 + k * 16, 2 * k);
        }
        let mut b = ProgramBuilder::new(IsaKind::Mom);
        b.push(ScalarOp::Li { rd: r(1), imm: 0x1000 });
        b.push(ScalarOp::Li { rd: r(2), imm: 0x1800 });
        b.push(ScalarOp::Li { rd: r(3), imm: 16 });
        b.push(MomOp::SetVlI { vl: 8 });
        b.push(MomOp::Ld { vd: v(0), base: r(1), stride: r(3) });
        b.push(MomOp::Ld { vd: v(1), base: r(2), stride: r(3) });
        b.push(MomOp::AccClear { acc: va(0) });
        b.push(MomOp::Acc { op: AccOp::AbsDiffAdd, acc: va(0), va: v(0), vb: v(1), lane: Lane::U8 });
        b.push(MomOp::ReduceAcc { rd: r(4), acc: va(0) });
        let p = b.build().unwrap();
        let trace = p.run(&mut st).unwrap();
        // |k - 2k| summed over k in 0..8 = 0+1+...+7 = 28 (values are tiny, single byte)
        assert_eq!(st.core.int.read(r(4)), 28);
        let loads: Vec<_> = trace.insts.iter().filter(|i| i.class == InstClass::Load).collect();
        assert_eq!(loads.len(), 2);
        assert_eq!(loads[0].elems, 8);
        assert_eq!(loads[0].mem.len(), 8);
        assert!(loads[0].mem.iter().all(|a| a.kind == MemKind::Load && a.size == 8));
        let acc_inst = trace.insts.iter().find(|i| i.class == InstClass::MediaSimple && i.elems == 8);
        assert!(acc_inst.is_some(), "matrix accumulate records VL elements");
    }

    #[test]
    fn fuel_exhaustion_is_reported() {
        let mut b = ProgramBuilder::new(IsaKind::Alpha);
        let top = b.bind_here();
        b.push(ScalarOp::Jmp { target: top });
        let p = b.build().unwrap();
        let mut st = machine();
        let err = p.run_with_fuel(&mut st, 100).unwrap_err();
        assert_eq!(err, ExecError::FuelExhausted { executed: 100 });
        assert!(err.to_string().contains("100"));
    }

    #[test]
    fn unbound_label_is_a_build_error() {
        let mut b = ProgramBuilder::new(IsaKind::Alpha);
        let l = b.new_label();
        b.push(ScalarOp::Jmp { target: l });
        let err = b.build().unwrap_err();
        assert_eq!(err, BuildError::UnboundLabel(l));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn rebound_label_is_a_build_error() {
        let mut b = ProgramBuilder::new(IsaKind::Alpha);
        let l = b.new_label();
        b.bind(l);
        b.push(ScalarOp::Nop);
        b.bind(l);
        let err = b.build().unwrap_err();
        assert_eq!(err, BuildError::ReboundLabel(l));
    }

    #[test]
    fn halt_stops_execution_early() {
        let mut b = ProgramBuilder::new(IsaKind::Alpha);
        b.push(ScalarOp::Li { rd: r(1), imm: 1 });
        b.push(ScalarOp::Halt);
        b.push(ScalarOp::Li { rd: r(1), imm: 2 });
        let p = b.build().unwrap();
        let mut st = machine();
        let trace = p.run(&mut st).unwrap();
        assert_eq!(st.core.int.read(r(1)), 1);
        assert_eq!(trace.len(), 2);
    }

    #[test]
    fn stream_into_a_collecting_sink_equals_run() {
        // The same looping program interpreted twice: once collected through
        // run(), once streamed into a caller-owned sink. The emitted
        // instruction sequences must be identical (run() is just a wrapper).
        let build = || {
            let mut b = ProgramBuilder::new(IsaKind::Alpha);
            b.push(ScalarOp::Li { rd: r(1), imm: 0 });
            b.push(ScalarOp::Li { rd: r(2), imm: 1 });
            b.push(ScalarOp::Li { rd: r(3), imm: 9 });
            let top = b.bind_here();
            b.push(ScalarOp::Alu { op: AluOp::Add, rd: r(1), ra: r(1), rb: r(2) });
            b.push(ScalarOp::Ld { rd: r(4), base: r(1), offset: 0x1000, size: 1, signed: false });
            b.push(ScalarOp::AluI { op: AluOp::Add, rd: r(2), ra: r(2), imm: 1 });
            b.push(ScalarOp::Br { cond: Cond::Le, ra: r(2), rb: r(3), target: top });
            b.build().unwrap()
        };
        let collected = build().run(&mut machine()).unwrap();
        let mut streamed = Trace::new(IsaKind::Alpha);
        let executed = build().stream(&mut machine(), &mut streamed).unwrap();
        assert_eq!(executed, collected.len());
        assert_eq!(streamed.insts, collected.insts);
    }

    #[test]
    fn stream_counts_without_materializing() {
        struct Count(usize);
        impl mom_isa::trace::TraceSink for Count {
            fn emit(&mut self, _inst: mom_isa::trace::DynInst) {
                self.0 += 1;
            }
        }
        let mut b = ProgramBuilder::new(IsaKind::Alpha);
        b.push(ScalarOp::Nop);
        b.push(ScalarOp::Nop);
        let p = b.build().unwrap();
        let mut count = Count(0);
        assert_eq!(p.stream(&mut machine(), &mut count), Ok(2));
        assert_eq!(count.0, 2);
    }

    #[test]
    fn stream_fuel_exhaustion_reports_after_emitting() {
        let mut b = ProgramBuilder::new(IsaKind::Alpha);
        let top = b.bind_here();
        b.push(ScalarOp::Jmp { target: top });
        let p = b.build().unwrap();
        let mut sink = Trace::new(IsaKind::Alpha);
        let err = p.stream_with_fuel(&mut machine(), &mut sink, 50).unwrap_err();
        assert_eq!(err, ExecError::FuelExhausted { executed: 50 });
        assert_eq!(sink.len(), 50, "instructions executed before exhaustion were emitted");
    }

    #[test]
    fn extend_and_len() {
        let mut b = ProgramBuilder::new(IsaKind::Alpha);
        assert!(b.is_empty());
        b.extend([ScalarOp::Nop, ScalarOp::Nop]);
        assert_eq!(b.len(), 2);
        let p = b.build().unwrap();
        assert_eq!(p.insts().len(), 2);
    }
}
