//! Dynamic instruction traces — the contract between the functional
//! interpreters and the timing simulator.
//!
//! The original study instrumented Alpha binaries with ATOM and fed the
//! resulting dynamic instruction stream to the Jinks out-of-order simulator.
//! This workspace does the equivalent in-process: the functional interpreter
//! (in `mom-core`) executes a kernel program and emits one [`DynInst`] per
//! graduated instruction, carrying everything the timing model needs — the
//! functional-unit class, the architectural registers read and written, the
//! individual memory element accesses and the branch outcome.
//!
//! # The streaming contract
//!
//! The contract is a **stream**, not a materialized vector. Producers (the
//! interpreter, synthetic generators) push instructions into a [`TraceSink`];
//! consumers either collect them — [`Trace`] is the canonical collecting sink
//! — or process them on the fly, like the timing simulator's incremental
//! `StreamSim` in `mom-cpu`, which retires each instruction with O(ROB-size)
//! state and never holds the whole trace. Collected [`Trace`]s remain fully
//! supported (they are `Extend`, `FromIterator` and `IntoIterator` over
//! [`DynInst`]) and a streamed pipeline produces bit-identical timing results
//! to replaying the equivalent collected trace.
//!
//! Per-instruction memory accesses use [`MemList`], a small-buffer list that
//! stores up to [`MEM_INLINE`] element accesses inline (every scalar and MMX
//! memory instruction fits) and spills to the heap only for MOM vector
//! accesses, keeping the interpreter hot path allocation-free.

/// Which of the evaluated instruction-set architectures a program targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum IsaKind {
    /// Plain scalar baseline (the paper's Alpha code).
    Alpha,
    /// MMX-like 64-bit sub-word SIMD extension.
    Mmx,
    /// MDMX-like extension: MMX-style SIMD plus packed accumulators.
    Mdmx,
    /// The MOM matrix extension (vector-of-SIMD with wide accumulators).
    Mom,
}

impl IsaKind {
    /// All evaluated ISAs in the order the paper's figures use.
    pub const ALL: [IsaKind; 4] = [IsaKind::Alpha, IsaKind::Mmx, IsaKind::Mdmx, IsaKind::Mom];

    /// Short lower-case label used in experiment output.
    pub fn label(self) -> &'static str {
        match self {
            IsaKind::Alpha => "alpha",
            IsaKind::Mmx => "mmx",
            IsaKind::Mdmx => "mdmx",
            IsaKind::Mom => "mom",
        }
    }
}

impl std::fmt::Display for IsaKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for IsaKind {
    type Err = String;

    /// Parse the [`IsaKind::label`] form (case-insensitive), so CLI filters
    /// round-trip: `kind.label().parse() == Ok(kind)`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let needle = s.trim().to_ascii_lowercase();
        IsaKind::ALL
            .iter()
            .copied()
            .find(|k| k.label() == needle)
            .ok_or_else(|| format!("unknown ISA {s:?} (expected one of: alpha, mmx, mdmx, mom)"))
    }
}

/// Architectural register class, used for renaming in the timing model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RegClass {
    /// Scalar integer registers (also hold the MOM vector-length register,
    /// which the paper renames through the integer pool).
    Int,
    /// Scalar floating-point registers.
    Fp,
    /// 64-bit multimedia registers (MMX/MDMX).
    Media,
    /// MDMX packed accumulators.
    Acc,
    /// MOM matrix registers (16 x 64-bit words each).
    Mom,
    /// MOM packed accumulators.
    MomAcc,
}

impl RegClass {
    /// Every register class.
    pub const ALL: [RegClass; 6] = [
        RegClass::Int,
        RegClass::Fp,
        RegClass::Media,
        RegClass::Acc,
        RegClass::Mom,
        RegClass::MomAcc,
    ];
}

/// A class-tagged architectural register identifier as seen by the renamer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArchReg {
    /// Register class (selects the physical register pool).
    pub class: RegClass,
    /// Architectural index within the class.
    pub index: u8,
}

impl ArchReg {
    /// Construct a register identifier.
    pub fn new(class: RegClass, index: u8) -> Self {
        Self { class, index }
    }

    /// Integer register shorthand.
    pub fn int(index: u8) -> Self {
        Self::new(RegClass::Int, index)
    }

    /// Media register shorthand.
    pub fn media(index: u8) -> Self {
        Self::new(RegClass::Media, index)
    }

    /// MDMX accumulator shorthand.
    pub fn acc(index: u8) -> Self {
        Self::new(RegClass::Acc, index)
    }

    /// MOM matrix register shorthand.
    pub fn mom(index: u8) -> Self {
        Self::new(RegClass::Mom, index)
    }

    /// MOM accumulator shorthand.
    pub fn mom_acc(index: u8) -> Self {
        Self::new(RegClass::MomAcc, index)
    }

    /// Number of distinct [`ArchReg::slot`] values.
    pub const SLOTS: usize = 6 * 64;

    /// Dense scoreboard index of this register: `class * 64 + index`, with
    /// classes numbered in [`RegClass::ALL`] order, so `slot >> 6` is the
    /// class index. The timing model's register scoreboard and the
    /// attribution probe's producer-cause table are indexed by it.
    ///
    /// # Panics
    ///
    /// Panics if `index` is 64 or more; no register file has more than 32
    /// registers.
    pub fn slot(self) -> u16 {
        assert!(self.index < 64, "register index {} out of range for {self}", self.index);
        self.class as u16 * 64 + u16::from(self.index)
    }

    /// The register whose [`ArchReg::slot`] is `slot`.
    pub fn from_slot(slot: u16) -> Self {
        Self::new(RegClass::ALL[usize::from(slot >> 6)], (slot & 63) as u8)
    }
}

impl std::fmt::Display for ArchReg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let prefix = match self.class {
            RegClass::Int => "r",
            RegClass::Fp => "f",
            RegClass::Media => "m",
            RegClass::Acc => "a",
            RegClass::Mom => "v",
            RegClass::MomAcc => "va",
        };
        write!(f, "{prefix}{}", self.index)
    }
}

/// Functional-unit / latency class of a dynamic instruction.
///
/// The classes mirror Table 1 of the paper: integer and floating-point units
/// come in *simple* (logic, shift, add) and *complex* (multiply, divide)
/// flavours, the multimedia unit likewise, and memory operations occupy the
/// memory ports. MOM instructions use the same media/memory units but occupy
/// them for multiple beats (see [`DynInst::elems`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum InstClass {
    /// Integer add/sub/logic/shift/compare and control-register moves.
    IntSimple,
    /// Integer multiply and divide.
    IntComplex,
    /// Floating-point add/sub/convert.
    FpSimple,
    /// Floating-point multiply/divide.
    FpComplex,
    /// Multimedia packed add/sub/logic/shift/min/max/average/pack/unpack.
    MediaSimple,
    /// Multimedia packed multiply and multiply-accumulate.
    MediaComplex,
    /// A load from memory (scalar or one MOM vector load).
    Load,
    /// A store to memory (scalar or one MOM vector store).
    Store,
    /// A conditional or unconditional branch.
    Branch,
    /// An instruction with no functional unit requirement (e.g. `nop`,
    /// vector-length set) — it still occupies a ROB slot and fetch bandwidth.
    Nop,
}

impl InstClass {
    /// Whether the instruction accesses memory.
    pub fn is_mem(self) -> bool {
        matches!(self, InstClass::Load | InstClass::Store)
    }
}

/// Whether a memory access reads or writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemKind {
    /// Read access.
    Load,
    /// Write access.
    Store,
}

/// One element-level memory access.
///
/// A scalar load/store contributes exactly one; a MOM memory instruction with
/// vector length `VL` contributes `VL` of them (one per 64-bit row).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemAccess {
    /// Virtual byte address.
    pub addr: u64,
    /// Access size in bytes.
    pub size: u8,
    /// Load or store.
    pub kind: MemKind,
}

/// Number of element accesses a [`MemList`] stores inline before spilling to
/// the heap. Scalar and MMX memory instructions perform exactly one element
/// access, so only MOM vector memory instructions (up to 16 rows) ever spill.
pub const MEM_INLINE: usize = 4;

const EMPTY_ACCESS: MemAccess = MemAccess { addr: 0, size: 0, kind: MemKind::Load };

/// The element memory accesses of one dynamic instruction, with a small
/// inline buffer.
///
/// Behaves like a `Vec<MemAccess>` (it dereferences to `[MemAccess]`) but
/// keeps up to [`MEM_INLINE`] accesses inline in the [`DynInst`] itself, so
/// building and cloning scalar/MMX memory instructions never touches the
/// heap. Pushing beyond the inline capacity spills the list to a heap vector,
/// which is transparent to readers.
#[derive(Clone)]
pub struct MemList(MemListRepr);

#[derive(Clone)]
enum MemListRepr {
    Inline { buf: [MemAccess; MEM_INLINE], len: u8 },
    Spilled(Vec<MemAccess>),
}

impl MemList {
    /// An empty access list (no allocation).
    pub const fn new() -> Self {
        MemList(MemListRepr::Inline { buf: [EMPTY_ACCESS; MEM_INLINE], len: 0 })
    }

    /// A list holding a single access (the scalar load/store case).
    pub fn one(access: MemAccess) -> Self {
        let mut list = MemList::new();
        list.push(access);
        list
    }

    /// Make this the inline list holding just `access` — [`MemList::one`]
    /// written in place, without building and moving a new list.
    pub fn set_one(&mut self, access: MemAccess) {
        match &mut self.0 {
            MemListRepr::Inline { buf, len } => {
                buf[0] = access;
                *len = 1;
            }
            MemListRepr::Spilled(_) => *self = MemList::one(access),
        }
    }

    /// An empty list with room for `capacity` accesses: inline when it fits,
    /// pre-spilled in one exact allocation otherwise. MOM vector memory
    /// instructions know their element count (the vector length) up front,
    /// so they pay at most one allocation instead of growing through the
    /// spill path.
    pub fn with_capacity(capacity: usize) -> Self {
        if capacity <= MEM_INLINE {
            MemList::new()
        } else {
            MemList(MemListRepr::Spilled(Vec::with_capacity(capacity)))
        }
    }

    /// Append an access, spilling to the heap past [`MEM_INLINE`] entries.
    pub fn push(&mut self, access: MemAccess) {
        match &mut self.0 {
            MemListRepr::Inline { buf, len } => {
                if (*len as usize) < MEM_INLINE {
                    buf[*len as usize] = access;
                    *len += 1;
                } else {
                    let mut spilled = Vec::with_capacity(MEM_INLINE * 2);
                    spilled.extend_from_slice(&buf[..]);
                    spilled.push(access);
                    self.0 = MemListRepr::Spilled(spilled);
                }
            }
            MemListRepr::Spilled(v) => v.push(access),
        }
    }

    /// The accesses as a slice (also available through deref).
    pub fn as_slice(&self) -> &[MemAccess] {
        match &self.0 {
            MemListRepr::Inline { buf, len } => &buf[..*len as usize],
            MemListRepr::Spilled(v) => v,
        }
    }

    /// Whether the list has spilled to the heap (diagnostics/tests only;
    /// readers never need to care).
    pub fn is_spilled(&self) -> bool {
        matches!(self.0, MemListRepr::Spilled(_))
    }

    /// Empty the list, keeping any spilled heap capacity for reuse. The
    /// interpreter's hot loop recycles one spilled list across MOM vector
    /// memory instructions so steady-state execution stops allocating.
    pub fn clear(&mut self) {
        match &mut self.0 {
            MemListRepr::Inline { len, .. } => *len = 0,
            MemListRepr::Spilled(v) => v.clear(),
        }
    }
}

impl Default for MemList {
    fn default() -> Self {
        MemList::new()
    }
}

impl std::ops::Deref for MemList {
    type Target = [MemAccess];

    fn deref(&self) -> &[MemAccess] {
        self.as_slice()
    }
}

impl std::fmt::Debug for MemList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

/// Equality is by contents — an inline list equals a spilled list holding the
/// same accesses.
impl PartialEq for MemList {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for MemList {}

impl From<Vec<MemAccess>> for MemList {
    fn from(accesses: Vec<MemAccess>) -> Self {
        if accesses.len() <= MEM_INLINE {
            let mut buf = [EMPTY_ACCESS; MEM_INLINE];
            buf[..accesses.len()].copy_from_slice(&accesses);
            MemList(MemListRepr::Inline { buf, len: accesses.len() as u8 })
        } else {
            MemList(MemListRepr::Spilled(accesses))
        }
    }
}

impl FromIterator<MemAccess> for MemList {
    fn from_iter<T: IntoIterator<Item = MemAccess>>(iter: T) -> Self {
        let mut list = MemList::new();
        for access in iter {
            list.push(access);
        }
        list
    }
}

impl<'a> IntoIterator for &'a MemList {
    type Item = &'a MemAccess;
    type IntoIter = std::slice::Iter<'a, MemAccess>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// Branch outcome information attached to control-flow instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BranchInfo {
    /// Whether the branch was taken in the dynamic execution.
    pub taken: bool,
    /// Whether the branch is conditional (unconditional jumps are always taken
    /// and perfectly predictable by the BTB once seen).
    pub conditional: bool,
    /// Identifier of the static branch site, used to index the predictor
    /// tables; kernel builders derive it from the static program counter.
    pub pc: u64,
    /// Target static program counter (index), for BTB modelling.
    pub target: u64,
}

/// Maximum number of source registers a dynamic instruction can carry.
pub const MAX_SRCS: usize = 4;
/// Maximum number of destination registers a dynamic instruction can carry.
pub const MAX_DSTS: usize = 2;

/// The registers of one dynamic instruction, held as their pre-resolved
/// [`ArchReg::slot`]s (entries past `n_srcs` / `n_dsts` are unused).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegOperands {
    src_slots: [u16; MAX_SRCS],
    dst_slots: [u16; MAX_DSTS],
    n_srcs: u8,
    n_dsts: u8,
}

impl RegOperands {
    /// No sources and no destinations.
    pub const NONE: RegOperands = RegOperands {
        src_slots: [0; MAX_SRCS],
        dst_slots: [0; MAX_DSTS],
        n_srcs: 0,
        n_dsts: 0,
    };

    /// Append a source register (ignored once all [`MAX_SRCS`] slots are
    /// full — additional sources beyond the modelled read-port count do not
    /// create extra dependences the timing model could track anyway).
    pub fn push_src(&mut self, reg: ArchReg) {
        let n = self.n_srcs as usize;
        if n < MAX_SRCS {
            self.src_slots[n] = reg.slot();
            self.n_srcs += 1;
        }
    }

    /// Append a destination register (ignored once all [`MAX_DSTS`] slots
    /// are full).
    pub fn push_dst(&mut self, reg: ArchReg) {
        let n = self.n_dsts as usize;
        if n < MAX_DSTS {
            self.dst_slots[n] = reg.slot();
            self.n_dsts += 1;
        }
    }
}

/// One graduated dynamic instruction.
#[derive(Debug, Clone, PartialEq)]
pub struct DynInst {
    /// Functional-unit class.
    pub class: InstClass,
    /// Source and destination registers (see [`DynInst::sources`],
    /// [`DynInst::src_slots`] and their destination twins).
    pub regs: RegOperands,
    /// Element memory accesses (empty for non-memory instructions).
    pub mem: MemList,
    /// Branch outcome (only for [`InstClass::Branch`]).
    pub branch: Option<BranchInfo>,
    /// Number of vector elements processed (1 for scalar/MMX/MDMX
    /// instructions, the vector length for MOM instructions). The timing model
    /// uses it to compute functional-unit occupancy.
    pub elems: u16,
    /// Static program counter (instruction index within the program), used for
    /// the fetch model and branch predictor indexing.
    pub pc: u64,
}

impl DynInst {
    /// Create a dynamic instruction with no register, memory or branch
    /// information (a skeleton the builder methods then fill in).
    pub fn new(class: InstClass, pc: u64) -> Self {
        Self {
            class,
            regs: RegOperands::NONE,
            mem: MemList::new(),
            branch: None,
            elems: 1,
            pc,
        }
    }

    /// Add a source register ([`RegOperands::push_src`]).
    #[must_use = "builder methods return the modified instruction"]
    pub fn with_src(mut self, reg: ArchReg) -> Self {
        self.regs.push_src(reg);
        self
    }

    /// Add a destination register ([`RegOperands::push_dst`]).
    #[must_use = "builder methods return the modified instruction"]
    pub fn with_dst(mut self, reg: ArchReg) -> Self {
        self.regs.push_dst(reg);
        self
    }

    /// Set the vector element count.
    #[must_use = "builder methods return the modified instruction"]
    pub fn with_elems(mut self, elems: u16) -> Self {
        self.elems = elems.max(1);
        self
    }

    /// Attach memory accesses.
    #[must_use = "builder methods return the modified instruction"]
    pub fn with_mem(mut self, accesses: impl Into<MemList>) -> Self {
        self.mem = accesses.into();
        self
    }

    /// Attach a branch outcome.
    #[must_use = "builder methods return the modified instruction"]
    pub fn with_branch(mut self, branch: BranchInfo) -> Self {
        self.branch = Some(branch);
        self
    }

    /// Iterator over the populated source registers.
    pub fn sources(&self) -> impl Iterator<Item = ArchReg> + '_ {
        self.src_slots().iter().map(|&slot| ArchReg::from_slot(slot))
    }

    /// Iterator over the populated destination registers.
    pub fn dests(&self) -> impl Iterator<Item = ArchReg> + '_ {
        self.dst_slots().iter().map(|&slot| ArchReg::from_slot(slot))
    }

    /// The [`ArchReg::slot`]s of [`DynInst::sources`], in the same order.
    pub fn src_slots(&self) -> &[u16] {
        &self.regs.src_slots[..self.regs.n_srcs as usize]
    }

    /// The [`ArchReg::slot`]s of [`DynInst::dests`], in the same order.
    pub fn dst_slots(&self) -> &[u16] {
        &self.regs.dst_slots[..self.regs.n_dsts as usize]
    }
}

/// A consumer of graduated dynamic instructions.
///
/// The functional interpreter pushes one [`DynInst`] per graduated
/// instruction into a sink. [`Trace`] is the canonical *collecting* sink;
/// the timing simulator in `mom-cpu` provides a *streaming* sink that
/// retires each instruction immediately with O(ROB-size) memory, so the
/// interpreter and the simulator fuse into a pipeline that never
/// materializes the trace.
pub trait TraceSink {
    /// Accept the next graduated instruction, in program order.
    fn emit(&mut self, inst: DynInst);

    /// Accept the next graduated instruction by reference.
    ///
    /// Sinks that only *inspect* instructions (the streaming timing
    /// simulator, counting probes, fan-out combinators over such sinks)
    /// override this to skip the clone; collecting sinks keep the default,
    /// which clones and forwards to [`TraceSink::emit`]. The interpreter's
    /// hot loop emits through this method so it can recycle each
    /// instruction's spilled memory-access buffer after the sink returns.
    fn emit_ref(&mut self, inst: &DynInst) {
        self.emit(inst.clone());
    }

    /// Accept a chunk of consecutive graduated instructions, in program
    /// order. Equivalent to calling [`TraceSink::emit_ref`] once per
    /// element — the default does exactly that.
    ///
    /// The threaded interpreter graduates instructions in small chunks
    /// rather than one at a time, so a streaming consumer can override this
    /// to retire a whole chunk in one call frame (keeping its hot scalars in
    /// registers across instructions instead of round-tripping them through
    /// memory on every handoff). Overrides must behave exactly like the
    /// default: same instructions, same order, no skipping.
    fn emit_batch(&mut self, insts: &[DynInst]) {
        for inst in insts {
            self.emit_ref(inst);
        }
    }
}

impl TraceSink for Trace {
    fn emit(&mut self, inst: DynInst) {
        self.push(inst);
    }
}

impl TraceSink for Vec<DynInst> {
    fn emit(&mut self, inst: DynInst) {
        self.push(inst);
    }
}

impl<S: TraceSink + ?Sized> TraceSink for &mut S {
    fn emit(&mut self, inst: DynInst) {
        (**self).emit(inst);
    }

    fn emit_ref(&mut self, inst: &DynInst) {
        (**self).emit_ref(inst);
    }

    fn emit_batch(&mut self, insts: &[DynInst]) {
        (**self).emit_batch(insts);
    }
}

/// A sink that fans every instruction out to N child sinks.
///
/// This is the heart of the shared-functional-pass runner: one functional
/// interpretation of a workload feeds N timing simulators (one per machine
/// configuration of a grid), so the interpreter's work is amortized across
/// all of them. Children receive the instructions in identical program order;
/// each child sees exactly the stream it would have seen alone, so a
/// `Broadcast` of N streaming simulators is byte-identical to N independent
/// single-sink passes. The combinator adds no buffering of its own — with
/// O(ROB) children the whole fan-out stays O(N x ROB), never O(trace).
///
/// `Broadcast` drives its children *serially on the producer's thread*. For
/// the pipelined variant — the producer publishing batches into bounded
/// channels that each child drains on its own thread — see
/// [`BatchSink`](crate::pipe::BatchSink).
#[derive(Debug)]
pub struct Broadcast<S> {
    sinks: Vec<S>,
}

impl<S> Broadcast<S> {
    /// Fan out to the given child sinks (in order; the order children receive
    /// each instruction is unobservable, but results are returned in this
    /// order by [`Broadcast::into_inner`]).
    pub fn new(sinks: Vec<S>) -> Self {
        Self { sinks }
    }

    /// Number of child sinks.
    pub fn len(&self) -> usize {
        self.sinks.len()
    }

    /// Whether there are no children (every instruction is dropped).
    pub fn is_empty(&self) -> bool {
        self.sinks.is_empty()
    }

    /// Take the children back (e.g. to `finish()` each simulator).
    pub fn into_inner(self) -> Vec<S> {
        self.sinks
    }
}

impl<S: TraceSink> TraceSink for Broadcast<S> {
    fn emit(&mut self, inst: DynInst) {
        // The last child takes the owned instruction: a 1-child broadcast
        // (a grid whose group has a single member) never clones at all.
        let Some((last, rest)) = self.sinks.split_last_mut() else { return };
        for sink in rest {
            sink.emit(inst.clone());
        }
        last.emit(inst);
    }

    fn emit_ref(&mut self, inst: &DynInst) {
        // One borrowed instruction serves every child: a fan-out over
        // streaming simulators never clones at all.
        for sink in &mut self.sinks {
            sink.emit_ref(inst);
        }
    }

    fn emit_batch(&mut self, insts: &[DynInst]) {
        // Each child consumes the whole chunk before the next one starts:
        // fewer handoffs, and every child still sees program order.
        for sink in &mut self.sinks {
            sink.emit_batch(insts);
        }
    }
}

/// A complete dynamic trace plus summary statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// Graduated dynamic instructions in program order.
    pub insts: Vec<DynInst>,
    /// ISA the trace was generated for (informational).
    pub isa: Option<IsaKind>,
}

/// Instruction-mix statistics of a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Total dynamic instructions.
    pub total: usize,
    /// Loads (scalar or vector).
    pub loads: usize,
    /// Stores (scalar or vector).
    pub stores: usize,
    /// Branches.
    pub branches: usize,
    /// Instructions executing on the multimedia unit.
    pub media: usize,
    /// Total vector elements processed by MOM instructions (sum of `elems`
    /// over instructions with `elems > 1`).
    pub vector_elems: usize,
    /// Total element-level memory accesses.
    pub mem_accesses: usize,
}

impl Trace {
    /// An empty trace for the given ISA.
    pub fn new(isa: IsaKind) -> Self {
        Self { insts: Vec::new(), isa: Some(isa) }
    }

    /// Number of dynamic instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Append an instruction.
    pub fn push(&mut self, inst: DynInst) {
        self.insts.push(inst);
    }

    /// Compute instruction-mix statistics.
    pub fn stats(&self) -> TraceStats {
        let mut s = TraceStats { total: self.insts.len(), ..TraceStats::default() };
        for i in &self.insts {
            match i.class {
                InstClass::Load => s.loads += 1,
                InstClass::Store => s.stores += 1,
                InstClass::Branch => s.branches += 1,
                InstClass::MediaSimple | InstClass::MediaComplex => s.media += 1,
                _ => {}
            }
            if i.elems > 1 {
                s.vector_elems += i.elems as usize;
            }
            s.mem_accesses += i.mem.len();
        }
        s
    }
}

impl std::iter::FromIterator<DynInst> for Trace {
    fn from_iter<T: IntoIterator<Item = DynInst>>(iter: T) -> Self {
        Trace { insts: iter.into_iter().collect(), isa: None }
    }
}

impl Extend<DynInst> for Trace {
    fn extend<T: IntoIterator<Item = DynInst>>(&mut self, iter: T) {
        self.insts.extend(iter);
    }
}

impl IntoIterator for Trace {
    type Item = DynInst;
    type IntoIter = std::vec::IntoIter<DynInst>;

    /// Consume the trace, yielding its instructions in program order (used to
    /// stitch traces together without cloning).
    fn into_iter(self) -> Self::IntoIter {
        self.insts.into_iter()
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a DynInst;
    type IntoIter = std::slice::Iter<'a, DynInst>;

    fn into_iter(self) -> Self::IntoIter {
        self.insts.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isa_labels() {
        assert_eq!(IsaKind::Alpha.label(), "alpha");
        assert_eq!(IsaKind::Mom.to_string(), "mom");
        assert_eq!(IsaKind::ALL.len(), 4);
    }

    #[test]
    fn isa_from_str_round_trips_every_variant() {
        for kind in IsaKind::ALL {
            assert_eq!(kind.label().parse::<IsaKind>(), Ok(kind));
            assert_eq!(kind.to_string().parse::<IsaKind>(), Ok(kind));
            assert_eq!(kind.label().to_uppercase().parse::<IsaKind>(), Ok(kind));
        }
        assert!(" mom ".parse::<IsaKind>().is_ok(), "surrounding whitespace is tolerated");
        assert!("vax".parse::<IsaKind>().is_err());
        assert!("".parse::<IsaKind>().is_err());
    }

    #[test]
    fn traces_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        // The parallel experiment runner in `mom-lab` shares pre-built traces
        // across scoped worker threads; these bounds are part of the contract.
        assert_send_sync::<Trace>();
        assert_send_sync::<DynInst>();
        assert_send_sync::<IsaKind>();
    }

    #[test]
    fn arch_reg_display() {
        assert_eq!(ArchReg::int(3).to_string(), "r3");
        assert_eq!(ArchReg::media(7).to_string(), "m7");
        assert_eq!(ArchReg::mom(1).to_string(), "v1");
        assert_eq!(ArchReg::mom_acc(0).to_string(), "va0");
    }

    #[test]
    fn inst_class_queries() {
        assert!(InstClass::Load.is_mem());
        assert!(!InstClass::IntSimple.is_mem());
    }

    #[test]
    fn dyn_inst_builder_fills_slots() {
        let i = DynInst::new(InstClass::IntSimple, 4)
            .with_src(ArchReg::int(1))
            .with_src(ArchReg::int(2))
            .with_dst(ArchReg::int(3))
            .with_elems(0);
        assert_eq!(i.sources().count(), 2);
        assert_eq!(i.dests().count(), 1);
        assert_eq!(i.elems, 1, "elems is clamped to at least 1");
        assert_eq!(i.pc, 4);
    }

    #[test]
    fn slots_round_trip_every_register() {
        for (ci, class) in RegClass::ALL.into_iter().enumerate() {
            for index in 0..64 {
                let reg = ArchReg::new(class, index);
                assert_eq!(usize::from(reg.slot() >> 6), ci);
                assert_eq!(ArchReg::from_slot(reg.slot()), reg);
            }
        }
        let i = DynInst::new(InstClass::IntSimple, 0).with_src(ArchReg::mom(3)).with_dst(ArchReg::acc(1));
        assert_eq!(i.sources().collect::<Vec<_>>(), [ArchReg::mom(3)]);
        assert_eq!(i.dests().collect::<Vec<_>>(), [ArchReg::acc(1)]);
        assert_eq!(i.src_slots(), [ArchReg::mom(3).slot()]);
    }

    #[test]
    fn dyn_inst_extra_sources_are_dropped() {
        let mut i = DynInst::new(InstClass::IntSimple, 0);
        for n in 0..6 {
            i = i.with_src(ArchReg::int(n));
        }
        assert_eq!(i.sources().count(), MAX_SRCS);
    }

    #[test]
    fn trace_stats_count_classes() {
        let mut t = Trace::new(IsaKind::Mom);
        t.push(DynInst::new(InstClass::Load, 0).with_mem(vec![MemAccess {
            addr: 0x10,
            size: 8,
            kind: MemKind::Load,
        }]));
        t.push(
            DynInst::new(InstClass::Load, 1)
                .with_elems(16)
                .with_mem((0..16).map(|i| MemAccess { addr: 0x100 + i * 32, size: 8, kind: MemKind::Load }).collect::<MemList>()),
        );
        t.push(DynInst::new(InstClass::MediaSimple, 2).with_elems(16));
        t.push(DynInst::new(InstClass::Branch, 3).with_branch(BranchInfo {
            taken: true,
            conditional: true,
            pc: 3,
            target: 0,
        }));
        t.push(DynInst::new(InstClass::Store, 4).with_mem(vec![MemAccess {
            addr: 0x20,
            size: 4,
            kind: MemKind::Store,
        }]));
        let s = t.stats();
        assert_eq!(s.total, 5);
        assert_eq!(s.loads, 2);
        assert_eq!(s.stores, 1);
        assert_eq!(s.branches, 1);
        assert_eq!(s.media, 1);
        assert_eq!(s.vector_elems, 32);
        assert_eq!(s.mem_accesses, 18);
        assert_eq!(t.len(), 5);
        assert!(!t.is_empty());
    }

    #[test]
    fn trace_extend_concatenates() {
        let mut a = Trace::new(IsaKind::Alpha);
        a.push(DynInst::new(InstClass::IntSimple, 0));
        let mut b = Trace::new(IsaKind::Alpha);
        b.push(DynInst::new(InstClass::IntSimple, 1));
        b.push(DynInst::new(InstClass::IntSimple, 2));
        // Traces stitch together through Extend + owned IntoIterator,
        // without cloning a single instruction.
        a.extend(b);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn trace_from_iterator() {
        let t: Trace = (0..4).map(|pc| DynInst::new(InstClass::Nop, pc)).collect();
        assert_eq!(t.len(), 4);
        assert_eq!(t.isa, None);
    }

    #[test]
    fn trace_into_iterator_owned_and_borrowed() {
        let t: Trace = (0..5).map(|pc| DynInst::new(InstClass::Nop, pc)).collect();
        let borrowed_pcs: Vec<u64> = (&t).into_iter().map(|i| i.pc).collect();
        assert_eq!(borrowed_pcs, [0, 1, 2, 3, 4]);
        assert_eq!(t.len(), 5, "borrowed iteration leaves the trace intact");
        let owned_pcs: Vec<u64> = t.into_iter().map(|i| i.pc).collect();
        assert_eq!(owned_pcs, [0, 1, 2, 3, 4]);
    }

    #[test]
    fn trace_is_a_collecting_sink() {
        fn produce(sink: &mut impl TraceSink) {
            for pc in 0..3 {
                sink.emit(DynInst::new(InstClass::IntSimple, pc));
            }
        }
        let mut t = Trace::new(IsaKind::Alpha);
        produce(&mut t);
        assert_eq!(t.len(), 3);
        let mut v: Vec<DynInst> = Vec::new();
        produce(&mut v);
        assert_eq!(v.len(), 3);
        assert_eq!(t.insts, v);
    }

    #[test]
    fn broadcast_feeds_every_child_identically() {
        let mut fan = Broadcast::new(vec![Trace::new(IsaKind::Alpha), Trace::new(IsaKind::Alpha), Trace::new(IsaKind::Alpha)]);
        assert_eq!(fan.len(), 3);
        assert!(!fan.is_empty());
        for pc in 0..5 {
            fan.emit(DynInst::new(InstClass::IntSimple, pc).with_dst(ArchReg::int(1)));
        }
        let children = fan.into_inner();
        assert_eq!(children.len(), 3);
        for child in &children {
            assert_eq!(child.insts, children[0].insts, "every child saw the same stream");
        }
        assert_eq!(children[0].len(), 5);
        // An empty broadcast simply drops the stream.
        let mut empty: Broadcast<Trace> = Broadcast::new(Vec::new());
        assert!(empty.is_empty());
        empty.emit(DynInst::new(InstClass::Nop, 0));
        assert!(empty.into_inner().is_empty());
    }

    fn access(addr: u64) -> MemAccess {
        MemAccess { addr, size: 8, kind: MemKind::Load }
    }

    #[test]
    fn mem_list_stays_inline_up_to_capacity_and_spills_past_it() {
        let mut list = MemList::new();
        assert!(list.is_empty() && !list.is_spilled());
        for k in 0..MEM_INLINE as u64 {
            list.push(access(k));
            assert!(!list.is_spilled(), "{} accesses fit inline", k + 1);
        }
        assert_eq!(list.len(), MEM_INLINE);
        list.push(access(99));
        assert!(list.is_spilled(), "the {}th access spills to the heap", MEM_INLINE + 1);
        assert_eq!(list.len(), MEM_INLINE + 1);
        // Spilling preserves contents and order.
        let addrs: Vec<u64> = list.iter().map(|a| a.addr).collect();
        assert_eq!(addrs, [0, 1, 2, 3, 99]);
    }

    #[test]
    fn mem_list_with_capacity_spills_eagerly_only_past_inline() {
        assert!(!MemList::with_capacity(0).is_spilled());
        assert!(!MemList::with_capacity(MEM_INLINE).is_spilled());
        // A known-large list (a MOM vector access) pre-spills in one exact
        // allocation; contents still behave identically.
        let mut list = MemList::with_capacity(16);
        assert!(list.is_spilled());
        assert!(list.is_empty());
        for k in 0..16 {
            list.push(access(k));
        }
        let grown: MemList = (0..16).map(access).collect();
        assert_eq!(list, grown);
    }

    #[test]
    fn mem_list_equality_ignores_representation() {
        let inline = MemList::one(access(7));
        let mut spilled_then_compare: MemList = (0..=MEM_INLINE as u64).map(access).collect();
        assert!(spilled_then_compare.is_spilled());
        let from_vec: MemList = Vec::from_iter((0..=MEM_INLINE as u64).map(access)).into();
        assert_eq!(spilled_then_compare, from_vec);
        assert_ne!(inline, from_vec);
        // From<Vec> keeps short vectors inline.
        let short: MemList = vec![access(7)].into();
        assert!(!short.is_spilled());
        assert_eq!(short, inline);
        spilled_then_compare.push(access(42));
        assert_eq!(spilled_then_compare.last().unwrap().addr, 42);
        assert_eq!(format!("{:?}", MemList::one(access(1))), format!("{:?}", vec![access(1)]));
    }

    #[test]
    fn scalar_mem_instructions_never_allocate() {
        // A scalar load carries exactly one access; the whole DynInst clones
        // without touching the heap (MemList is inline).
        let inst = DynInst::new(InstClass::Load, 0).with_mem(MemList::one(access(0x10)));
        assert!(!inst.mem.is_spilled());
        assert!(!inst.clone().mem.is_spilled());
    }
}
