//! The out-of-order core timing model.
//!
//! The model is a **streaming** consumer of dynamic instructions: a
//! [`SimStream`], opened on a [`crate::SimMachine`], retires one [`DynInst`]
//! at a time through a first-order model of an R10000-style
//! out-of-order pipeline: width-limited fetch with a bimodal predictor and
//! BTB, a front-end of fixed depth, renaming limited by per-class physical
//! register headroom, a reorder buffer and load/store queue of the configured
//! sizes, functional-unit pools with per-class latencies (multimedia units may
//! have multiple vector lanes), a memory system consulted for every load and
//! store, and width-limited in-order commit.
//!
//! Every pipeline constraint looks a bounded distance into the past, so the
//! engine's state is **O(ROB size)** — ring buffers over the last ROB-size
//! commits, the last LSQ-size memory commits and the per-class rename
//! headroom, plus two counters for the fetch and commit width limits —
//! never O(trace length). Traces of any size can be simulated without
//! materializing them: the functional interpreter (`Program::stream` in
//! `mom-core`) pushes into the [`SimStream`] as a [`TraceSink`].
//! [`crate::SimMachine::simulate_trace`] replays a collected
//! [`Trace`](mom_isa::trace::Trace) through the same engine one instruction
//! at a time and is bit-identical to streaming the same sequence.
//!
//! The model computes, for every dynamic instruction, the cycle at which it is
//! fetched, dispatched, issued, completed and committed, honouring:
//!
//! * data dependences through architectural registers (including the MDMX
//!   accumulator recurrence and the MOM vector-length register);
//! * structural limits — ROB, LSQ, physical registers, functional units,
//!   memory ports (delegated to the memory model);
//! * control dependences — mispredicted branches redirect fetch after the
//!   branch resolves; correctly-predicted taken branches still end the fetch
//!   group (one taken branch fetched per cycle).

use crate::config::CoreConfig;
use crate::predictor::BranchPredictor;
use crate::probe::{NoProbe, Probe, StallCause};
use mom_isa::trace::{ArchReg, DynInst, InstClass, MemAccess, RegClass, TraceSink};
use mom_mem::{AccessCause, Completion, MemorySystem, PerfectMemory};

/// Execution latencies per functional-unit class, in cycles.
struct Latencies {
    /// Simple integer operations.
    int_simple: u64,
    /// Integer multiply/divide.
    int_complex: u64,
    /// Simple floating-point operations.
    fp_simple: u64,
    /// Floating-point multiply/divide.
    fp_complex: u64,
    /// Simple packed multimedia operations.
    media_simple: u64,
    /// Packed multiplies and multiply-accumulates.
    media_complex: u64,
    /// Branch resolution.
    branch: u64,
}

/// The execution latencies of every modelled machine. No experiment varies
/// them — the studies vary issue width, ISA, ROB size and memory system — so
/// they are a constant of the model, not a machine parameter.
const LATENCIES: Latencies = Latencies {
    int_simple: 1,
    int_complex: 3,
    fp_simple: 2,
    fp_complex: 4,
    media_simple: 1,
    media_complex: 3,
    branch: 1,
};

// Multiplies and divides are slower than simple operations on every unit.
const _: () = assert!(
    LATENCIES.int_complex > LATENCIES.int_simple
        && LATENCIES.fp_complex > LATENCIES.fp_simple
        && LATENCIES.media_complex > LATENCIES.media_simple
);

/// Front-end depth in cycles, from fetch to dispatch.
const FRONTEND_DEPTH: u64 = 3;

/// Extra cycles a mispredicted branch costs beyond waiting for it to resolve.
const MISPREDICT_PENALTY: u64 = 2;

/// Summary of one simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct SimResult {
    /// Total cycles from first fetch to last commit.
    pub cycles: u64,
    /// Committed (graduated) instructions.
    pub committed: u64,
    /// Branches executed.
    pub branches: u64,
    /// Branch mispredictions.
    pub mispredictions: u64,
    /// Element-level memory accesses performed.
    pub mem_accesses: u64,
}

impl SimResult {
    /// Committed instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }

    /// Speed-up of this run relative to a baseline run of the *same work*
    /// (cycles of the baseline divided by cycles of this run).
    pub fn speedup_over(&self, baseline: &SimResult) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            baseline.cycles as f64 / self.cycles as f64
        }
    }
}

/// Largest functional-unit pool any configuration declares (the 8-way
/// machine's 4 media units). Pools are stored inline at twice this size
/// (simple and complex units side by side) so the per-instruction
/// reservation scan never chases a heap pointer.
const MAX_UNITS: usize = 4;

/// Pool of functional units of one kind: tracks when each unit is next free.
///
/// One array holds the simple units followed by the complex ones, so either
/// kind of operation scans one contiguous range: simple ops the whole pool,
/// complex ops only its complex tail.
#[derive(Debug, Clone)]
struct UnitPool {
    free: [u64; 2 * MAX_UNITS],
    n_simple: usize,
    n_units: usize,
    lanes: usize,
}

impl UnitPool {
    fn new(simple: usize, complex: usize, lanes: usize) -> Self {
        assert!(
            simple <= MAX_UNITS && complex <= MAX_UNITS,
            "functional-unit pools larger than {MAX_UNITS} are not supported"
        );
        Self {
            free: [0; 2 * MAX_UNITS],
            n_simple: simple,
            n_units: simple + complex,
            lanes: lanes.max(1),
        }
    }

    fn n_complex(&self) -> usize {
        self.n_units - self.n_simple
    }

    /// Mark every unit idle again (the machine-reuse `reset()` path).
    fn reset(&mut self) {
        self.free.fill(0);
    }

    /// Reserve a unit able to execute an operation of the given complexity,
    /// starting no earlier than `earliest`, for `occupancy` cycles. Returns
    /// the actual start cycle.
    ///
    /// Always inlined: the pools are at most `2 * MAX_UNITS` entries and the
    /// call otherwise stays opaque in `feed`'s already-large frame.
    #[inline(always)]
    fn reserve(&mut self, earliest: u64, complex_op: bool, occupancy: u64) -> u64 {
        // Complex ops may only use complex-capable units; simple ops take
        // whichever unit frees first. Ties go to the first minimum in scan
        // order: simple units before complex ones, lower index first.
        let first = if complex_op { self.n_simple } else { 0 };
        let mut idx = usize::MAX;
        let mut free = u64::MAX;
        for (i, &f) in self.free[first..self.n_units].iter().enumerate() {
            if f < free {
                idx = first + i;
                free = f;
            }
        }
        assert!(idx != usize::MAX, "functional-unit pool must not be empty for issued class");
        let start = earliest.max(free);
        self.free[idx] = start + occupancy;
        start
    }
}

/// Ring buffer over the tail of an unbounded cycle sequence: keeps only the
/// last `window` values pushed, which is all the pipeline constraints ever
/// look at (ROB size for commits, LSQ size for memory commits, rename
/// headroom for per-class writers). This is what bounds the streaming
/// simulator's state to O(ROB) instead of O(trace).
///
/// The backing buffer is rounded up to a power of two so the ring index is a
/// mask instead of an integer division — `feed` consults several histories
/// per retired instruction, and the divisions were a measurable slice of the
/// simulator's per-instruction cost. The retained values are unchanged: only
/// where in the buffer they live differs.
#[derive(Debug, Clone)]
struct History {
    buf: Vec<u64>,
    mask: usize,
    window: usize,
    len: usize,
}

impl History {
    fn new(capacity: usize) -> Self {
        let window = capacity.max(1);
        let cap = window.next_power_of_two();
        Self { buf: vec![0; cap], mask: cap - 1, window, len: 0 }
    }

    /// Total values pushed so far (not the retained count).
    fn len(&self) -> usize {
        self.len
    }

    /// Retained window size in entries.
    fn capacity(&self) -> usize {
        self.window
    }

    fn push(&mut self, value: u64) {
        self.buf[self.len & self.mask] = value;
        self.len += 1;
    }

    /// The `k`-th most recent value (`k = 1` is the last pushed). `k` must be
    /// within both the pushed length and the retained window.
    fn nth_back(&self, k: usize) -> u64 {
        debug_assert!(k >= 1 && k <= self.len && k <= self.window);
        self.buf[(self.len - k) & self.mask]
    }

    /// Forget everything pushed so far without touching the backing buffer
    /// (stale entries are unreachable: `nth_back` only looks within `len`).
    /// The machine-reuse `reset()` path.
    fn reset(&mut self) {
        self.len = 0;
    }
}

/// The mutable engine state of a streaming simulation — everything
/// [`SimStream::feed`] updates, separated from the borrowed configuration and
/// memory system so it can **outlive one simulation and be reused for the
/// next**.
///
/// The state owns the allocations that used to be rebuilt per grid cell:
/// predictor tables, ring-buffer histories and functional-unit pools.
/// [`SimState::reset`] restores the just-built state without reallocating
/// any of them; a reset state driven through the same instruction sequence
/// produces bit-identical results to a fresh one. Each
/// [`crate::SimMachine`] owns one and lends it to every stream it opens.
#[derive(Debug)]
pub(crate) struct SimState {
    predictor: BranchPredictor,
    int_units: UnitPool,
    fp_units: UnitPool,
    media_units: UnitPool,
    /// Producer availability per register, indexed by [`ArchReg::slot`].
    reg_ready: [u64; ArchReg::SLOTS],
    /// Commit cycles of the last ROB-size instructions.
    commits: History,
    /// Commit cycles of the last LSQ-size memory operations.
    mem_commits: History,
    /// Commit cycles of the last headroom writers per register class. Only
    /// the classes flagged in `rename_binds` are ever pushed.
    class_writers: [History; 6],
    /// Per register class: whether its rename headroom is below the ROB
    /// size. Only then can the rename check bind — see `feed_one`.
    rename_binds: [bool; 6],
    redirect_floor: u64,
    fed: usize,
    last_commit: u64,
    /// Fetch cycle of the most recent instruction (0 before the first).
    last_fetch: u64,
    /// How many of the most recent instructions were fetched in
    /// `last_fetch`. Fetch cycles never decrease, so "the instruction `way`
    /// back was fetched in `last_fetch`" is `fetched_in_last >= way`: the
    /// whole fetch-width window, as one counter. A correctly predicted taken
    /// branch ends its fetch group by setting it to `way`.
    fetched_in_last: usize,
    /// How many of the most recent instructions committed in
    /// `last_commit` — the commit-width twin of `fetched_in_last`.
    committed_in_last: usize,
    result: SimResult,
}

impl SimState {
    /// Allocate the engine state for the given core configuration.
    pub(crate) fn new(config: &CoreConfig) -> Self {
        Self {
            predictor: BranchPredictor::new(config.bimodal_entries, config.btb_entries),
            int_units: UnitPool::new(config.int_units.simple, config.int_units.complex, 1),
            fp_units: UnitPool::new(config.fp_units.simple, config.fp_units.complex, 1),
            media_units: UnitPool::new(
                config.media_units.simple,
                config.media_units.complex,
                config.media_units.lanes,
            ),
            reg_ready: [0; ArchReg::SLOTS],
            commits: History::new(config.rob_size),
            mem_commits: History::new(config.lsq_size),
            class_writers: std::array::from_fn(|ci| {
                History::new(config.rename_headroom(RegClass::ALL[ci]))
            }),
            rename_binds: std::array::from_fn(|ci| {
                config.rename_headroom(RegClass::ALL[ci]) < config.rob_size
            }),
            redirect_floor: 0,
            fed: 0,
            last_commit: 0,
            last_fetch: 0,
            fetched_in_last: 0,
            committed_in_last: 0,
            result: SimResult::default(),
        }
    }

    /// Restore the just-built state — predictor re-initialised, histories
    /// emptied, unit pools and register scoreboard idle, counters zeroed —
    /// **without reallocating** the tables and ring buffers. A reset state is
    /// observationally identical to a fresh [`SimState::new`] for the same
    /// configuration.
    pub(crate) fn reset(&mut self) {
        self.predictor.reset();
        self.int_units.reset();
        self.fp_units.reset();
        self.media_units.reset();
        self.reg_ready.fill(0);
        self.commits.reset();
        self.mem_commits.reset();
        for h in &mut self.class_writers {
            h.reset();
        }
        self.redirect_floor = 0;
        self.fed = 0;
        self.last_commit = 0;
        self.last_fetch = 0;
        self.fetched_in_last = 0;
        self.committed_in_last = 0;
        self.result = SimResult::default();
    }

    /// Total ring-buffer entries retained — see [`SimStream::window_entries`].
    fn window_entries(&self) -> usize {
        self.commits.capacity()
            + self.mem_commits.capacity()
            + self.class_writers.iter().map(History::capacity).sum::<usize>()
    }

    /// Whether this state was sized for `config`: every ring-buffer window,
    /// predictor table and functional-unit pool matches. Streaming a state
    /// into a differently-sized configuration would index the ring buffers
    /// with the wrong windows and produce silently wrong timings, so
    /// [`SimStream::with_state`] asserts this.
    fn matches_config(&self, config: &CoreConfig) -> bool {
        let pool_matches = |pool: &UnitPool, spec: &crate::config::FuPool| {
            pool.n_simple == spec.simple
                && pool.n_complex() == spec.complex
                && pool.lanes == spec.lanes.max(1)
        };
        self.commits.capacity() == config.rob_size.max(1)
            && self.mem_commits.capacity() == config.lsq_size.max(1)
            && RegClass::ALL.iter().enumerate().all(|(ci, &class)| {
                self.class_writers[ci].capacity() == config.rename_headroom(class).max(1)
            })
            && self.predictor.table_sizes() == (config.bimodal_entries, config.btb_entries)
            && pool_matches(&self.int_units, &config.int_units)
            && pool_matches(&self.fp_units, &config.fp_units)
            && pool_matches(&self.media_units, &config.media_units)
    }

    fn summary(&self) -> SimResult {
        let mut result = self.result;
        result.cycles = if self.fed == 0 { 0 } else { self.last_commit };
        result.committed = self.fed as u64;
        result.branches = self.predictor.predictions;
        result.mispredictions = self.predictor.mispredictions;
        result
    }
}

/// An in-flight streaming simulation: the out-of-order pipeline model as an
/// incremental consumer of dynamic instructions.
///
/// The pipeline constraints only ever reach a bounded distance into the
/// past — the ROB size for in-flight instructions, the LSQ size for memory
/// operations and the per-class rename headroom for physical registers — so
/// the engine retains exactly those windows in ring buffers. The fetch and
/// commit width limits need only a count of the instructions that share the
/// latest cycle, because those cycles never decrease. Total state is
/// **O(ROB size)**, independent of how many instructions are fed; see
/// [`SimStream::window_entries`].
///
/// Feeding the instructions of a collected trace in order produces a result
/// bit-identical to [`crate::SimMachine::simulate_trace`] on that trace
/// (which is itself implemented this way).
/// The stream is generic over a [`Probe`]; the default [`NoProbe`] disables
/// every instrumented block at compile time (`P::ENABLED` is an associated
/// constant), so the classic probe-off stream monomorphizes to exactly the
/// uninstrumented engine. See [`crate::probe`] for the attribution model.
#[derive(Debug)]
pub struct SimStream<'a, P: Probe = NoProbe> {
    config: &'a CoreConfig,
    memory: MemRef<'a>,
    state: &'a mut SimState,
    probe: P,
}

/// The stream's handle on its memory system, devirtualized once at
/// construction via [`MemorySystem::as_perfect`]: the perfect model — every
/// kernel-level experiment and the throughput stress bench — resolves to the
/// `Perfect` arm, whose inlined port check replaces two virtual calls per
/// memory instruction in the retire loop. Any other model goes through the
/// trait object exactly as before.
#[derive(Debug)]
enum MemRef<'a> {
    Perfect(&'a mut PerfectMemory),
    Other(&'a mut dyn MemorySystem),
}

impl<'a> MemRef<'a> {
    fn new(memory: &'a mut dyn MemorySystem) -> Self {
        // Probe with a short-lived borrow first: a direct `match` on
        // `as_perfect()` would hold its borrow into the `None` arm and
        // conflict with handing `memory` itself to `Other`.
        if memory.as_perfect().is_some() {
            MemRef::Perfect(memory.as_perfect().expect("as_perfect just returned Some"))
        } else {
            MemRef::Other(memory)
        }
    }

    #[inline(always)]
    fn access(&mut self, cycle: u64, accesses: &[MemAccess], vector: bool) -> Completion {
        match self {
            MemRef::Perfect(m) => m.access(cycle, accesses, vector),
            MemRef::Other(m) => m.access(cycle, accesses, vector),
        }
    }

    #[inline(always)]
    fn last_access_cause(&self) -> AccessCause {
        match self {
            // The perfect model reports every access at the fixed latency.
            MemRef::Perfect(_) => AccessCause::L1,
            MemRef::Other(m) => m.last_access_cause(),
        }
    }
}

impl<'a, P: Probe> SimStream<'a, P> {
    /// Open a stream over `state`, the engine state of a
    /// [`crate::SimMachine`]. A fresh or [`SimState::reset`] state starts a
    /// new simulation; any other state *continues* the previous stream of
    /// the same machine.
    ///
    /// # Panics
    ///
    /// Panics if `state` was sized for a different configuration.
    pub(crate) fn with_state(
        config: &'a CoreConfig,
        memory: &'a mut dyn MemorySystem,
        state: &'a mut SimState,
        mut probe: P,
    ) -> Self {
        // A state sized for a different configuration would read the ring
        // buffers with the wrong windows — plausible-but-wrong cycle counts
        // with no other symptom — so fail loudly instead.
        assert!(
            state.matches_config(config),
            "SimState was built for a different core configuration"
        );
        probe.begin(state.fed as u64);
        Self { state, config, memory: MemRef::new(memory), probe }
    }

    /// Total ring-buffer entries retained — the simulator's bounded lookback
    /// window. A constant of the configuration (ROB + LSQ + rename
    /// headrooms), never of the number of instructions fed.
    pub fn window_entries(&self) -> usize {
        self.state.window_entries()
    }

    /// Instructions fed (and retired) so far.
    pub fn fed(&self) -> usize {
        self.state.fed
    }

    /// Retire the next instruction in program order.
    ///
    /// When the probe is enabled, every stage additionally tracks *which*
    /// constraint was binding; a later-stage constraint only takes over the
    /// cause when it is **strictly** later (ties keep the earlier-stage
    /// cause), which makes the attribution deterministic and lets the commit
    /// deltas telescope exactly to total cycles. With [`NoProbe`] every one
    /// of those blocks is `if false { .. }` and vanishes at compile time.
    ///
    /// # Panics
    ///
    /// Panics if the memory system refuses a request for an implausibly long
    /// time (a broken memory model, not a property of the workload).
    pub fn feed(&mut self, inst: &DynInst) {
        Self::feed_one(self.config, &mut self.memory, &mut self.probe, self.state, inst);
    }

    /// [`SimStream::feed`]'s body, over pre-split borrows of the stream's
    /// parts. Always inlined so that the chunked [`TraceSink::emit_batch`]
    /// loop below gets its own copy: the state, memory and probe arrive as
    /// distinct `&mut` references split once per chunk (LLVM sees they
    /// cannot alias), so the cross-instruction scalars (`last_fetch`,
    /// `last_commit`, `fed`, the floors) can live in registers across
    /// iterations instead of round-tripping through `SimState` on every
    /// instruction.
    #[inline(always)]
    fn feed_one(
        cfg: &CoreConfig,
        memory: &mut MemRef<'_>,
        probe: &mut P,
        st: &mut SimState,
        inst: &DynInst,
    ) {
        let i = st.fed;

        // Destinations are consulted three times per instruction (rename
        // check, writeback, per-class commit history) through the slots the
        // producer resolved once. The class index is `slot >> 6`.
        let dest_slots = inst.dst_slots();

        // ---------------- Fetch ----------------
        // Fetch cycles never decrease, so the fetch-width limit binds only
        // when the last `way` instructions all went in `last_fetch` (or a
        // taken branch ended that group); it then pushes this one to the
        // next cycle. Otherwise program order keeps it at `last_fetch`.
        let group_full = st.fetched_in_last >= cfg.way;
        let order_floor = st.last_fetch + u64::from(group_full);
        let f = st.redirect_floor.max(order_floor);
        let mut cause = StallCause::Base;
        if P::ENABLED && st.redirect_floor > order_floor {
            cause = StallCause::Redirect;
        }
        st.fetched_in_last = if f == st.last_fetch { st.fetched_in_last + 1 } else { 1 };
        st.last_fetch = f;

        // ---------------- Dispatch (rename + ROB/LSQ/phys-reg allocation) ----------------
        let mut dispatch = f + FRONTEND_DEPTH;
        if i >= cfg.rob_size {
            let rob_floor = st.commits.nth_back(cfg.rob_size);
            if rob_floor > dispatch {
                dispatch = rob_floor;
                if P::ENABLED {
                    cause = StallCause::RobFull;
                }
            }
        }
        let is_mem = inst.class.is_mem();
        if is_mem && st.mem_commits.len() >= cfg.lsq_size {
            let lsq_floor = st.mem_commits.nth_back(cfg.lsq_size);
            if lsq_floor > dispatch {
                dispatch = lsq_floor;
                if P::ENABLED {
                    cause = StallCause::LsqFull;
                }
            }
        }
        // Rename headroom binds only for the classes flagged in
        // `rename_binds`. For any other class the headroom `h` is at least
        // the ROB size, and each instruction writes at most one register per
        // class, so the h-th most recent writer is at least ROB instructions
        // back. Commit cycles never decrease, so its commit — the rename
        // floor — is at most the ROB floor already applied above, and a
        // floor that is not strictly later changes neither dispatch nor the
        // attributed cause. Skipping those classes (check and history push)
        // is exact. Every Table 1 machine skips int and FP (32 + ROB
        // physical registers each). The one instruction with two
        // destinations of a class, MOM's `TransposePair`, writes matrix
        // registers, whose headroom of 4 is tracked on every machine.
        debug_assert!(
            dest_slots.len() < 2
                || dest_slots[0] >> 6 != dest_slots[1] >> 6
                || st.rename_binds[usize::from(dest_slots[0] >> 6)],
            "an instruction writes two registers of an untracked rename class"
        );
        for &slot in dest_slots {
            let class = usize::from(slot >> 6);
            if !st.rename_binds[class] {
                continue;
            }
            // The writer history's window is exactly the rename headroom for
            // its class (`matches_config` pins this).
            let writers = &st.class_writers[class];
            let headroom = writers.capacity();
            if writers.len() >= headroom {
                let rename_floor = writers.nth_back(headroom);
                if rename_floor > dispatch {
                    dispatch = rename_floor;
                    if P::ENABLED {
                        cause = StallCause::Rename;
                    }
                }
            }
        }

        // ---------------- Operand readiness ----------------
        // One pass tracking the binding producer; the recorded slot is the
        // first source reaching the maximum, which matches updating on every
        // strict improvement.
        let mut ready = dispatch + 1;
        let mut binding_slot = usize::MAX;
        for &slot in inst.src_slots() {
            let slot = usize::from(slot);
            let avail = st.reg_ready[slot];
            if avail > ready {
                ready = avail;
                binding_slot = slot;
            }
        }
        if P::ENABLED && binding_slot != usize::MAX {
            // Charge the producer's recorded cause: a chain of DRAM
            // misses reads as DRAM time, not dependence time.
            cause = probe.reg_cause(binding_slot);
        }

        // ---------------- Execute ----------------
        let complete = match inst.class {
            InstClass::Load | InstClass::Store => {
                st.result.mem_accesses += inst.mem.len() as u64;
                let vector = inst.elems > 1;
                let Completion { done, waited } = memory.access(ready, &inst.mem, vector);
                assert!(
                    waited < 100_000,
                    "memory system kept a request waiting 100k cycles for a port at pc {}",
                    inst.pc
                );
                if P::ENABLED {
                    // A port wait only shifts the access's start, so it
                    // folds into the completed access's dominant level.
                    cause = StallCause::from_access(memory.last_access_cause());
                }
                done
            }
            InstClass::Branch => {
                let start = st.int_units.reserve(ready, false, 1);
                if P::ENABLED && start > ready {
                    cause = StallCause::UnitScalar;
                }
                let complete = start + LATENCIES.branch;
                if let Some(b) = inst.branch {
                    let correct =
                        st.predictor.predict_and_update(b.pc, b.conditional, b.taken, b.target);
                    if correct {
                        if b.taken {
                            // A taken branch ends the fetch group: the next
                            // instruction sees a full group at `f`.
                            st.fetched_in_last = cfg.way;
                        }
                    } else {
                        st.redirect_floor = st.redirect_floor.max(complete + MISPREDICT_PENALTY);
                    }
                }
                complete
            }
            InstClass::Nop => ready,
            InstClass::IntSimple | InstClass::IntComplex => {
                let complex = inst.class == InstClass::IntComplex;
                let start = st.int_units.reserve(ready, complex, 1);
                if P::ENABLED && start > ready {
                    cause = StallCause::UnitScalar;
                }
                start + if complex { LATENCIES.int_complex } else { LATENCIES.int_simple }
            }
            InstClass::FpSimple | InstClass::FpComplex => {
                let complex = inst.class == InstClass::FpComplex;
                let start = st.fp_units.reserve(ready, complex, 1);
                if P::ENABLED && start > ready {
                    cause = StallCause::UnitScalar;
                }
                start + if complex { LATENCIES.fp_complex } else { LATENCIES.fp_simple }
            }
            InstClass::MediaSimple | InstClass::MediaComplex => {
                let complex = inst.class == InstClass::MediaComplex;
                // Every Table 1 configuration has 1- or 2-lane media units;
                // dividing by a runtime lane count would put a hardware
                // divide on every media instruction, so special-case both.
                let elems = (inst.elems as u64).max(1);
                let occupancy = match st.media_units.lanes {
                    1 => elems,
                    2 => elems.div_ceil(2),
                    lanes => elems.div_ceil(lanes as u64),
                };
                let start = st.media_units.reserve(ready, complex, occupancy);
                if P::ENABLED && start > ready {
                    cause = StallCause::UnitMedia;
                }
                let op_lat = if complex { LATENCIES.media_complex } else { LATENCIES.media_simple };
                start + occupancy - 1 + op_lat
            }
        };

        // ---------------- Writeback ----------------
        for &slot in dest_slots {
            st.reg_ready[usize::from(slot)] = complete;
            if P::ENABLED {
                probe.set_reg_cause(usize::from(slot), cause);
            }
        }

        // ---------------- Commit ----------------
        // In-order commit: joining the previous commit cycle never adds a
        // delta, so it never changes the attributed cause. `last_commit` is
        // that cycle (0 before anything committed, where the max is a no-op).
        // Commit cycles never decrease either, so the commit-width limit
        // binds only when `way` instructions already committed in
        // `last_commit` and this one would join them.
        let mut c = (complete + 1).max(st.last_commit);
        if st.committed_in_last >= cfg.way && c == st.last_commit {
            c += 1;
            if P::ENABLED {
                cause = StallCause::Base;
            }
        }
        if P::ENABLED {
            probe.on_commit(c, c - st.last_commit, cause, i as u64);
        }
        st.commits.push(c);
        for &slot in dest_slots {
            let class = usize::from(slot >> 6);
            if st.rename_binds[class] {
                st.class_writers[class].push(c);
            }
        }
        if is_mem {
            st.mem_commits.push(c);
        }
        st.committed_in_last = if c == st.last_commit { st.committed_in_last + 1 } else { 1 };
        st.last_commit = c;
        st.fed = i + 1;
    }

    /// Finish the simulation and return the timing summary.
    ///
    /// The machine's state keeps its accumulated counters after the stream
    /// ends; [`crate::SimMachine::reset`] clears them before an unrelated
    /// simulation.
    pub fn finish(self) -> SimResult {
        self.state.summary()
    }

    /// Finish the simulation and return the timing summary together with the
    /// probe, which holds whatever it accumulated (for
    /// [`crate::AttributionProbe`]: the stall breakdown and interval
    /// timeline). The probe is settled first: every instruction fed so far
    /// is counted in its window.
    pub fn finish_probed(mut self) -> (SimResult, P) {
        self.probe.settle(self.state.fed as u64);
        (self.state.summary(), self.probe)
    }

    /// The timing summary accumulated so far, **without** closing the stream.
    ///
    /// The sampled execution mode reads this at measurement-unit boundaries:
    /// the difference between two snapshots is the exact timing of the
    /// instructions fed between them. Snapshotting never perturbs the stream
    /// — the summary is computed from the live state, the same way
    /// [`SimStream::finish`] computes the final one.
    pub fn snapshot(&self) -> SimResult {
        self.state.summary()
    }
}

/// The streaming simulator is itself a trace sink, so the functional
/// interpreter can graduate instructions straight into the timing model.
impl<P: Probe> TraceSink for SimStream<'_, P> {
    fn emit(&mut self, inst: DynInst) {
        self.feed(&inst);
    }

    fn emit_ref(&mut self, inst: &DynInst) {
        self.feed(inst);
    }

    fn emit_batch(&mut self, insts: &[DynInst]) {
        // Retiring the whole chunk in one frame keeps this stream's state hot
        // (and the branchy retire path's predictor history coherent) instead
        // of interleaving with the interpreter — or, under a fan-out, with
        // the other simulators — on every instruction. The stream's parts
        // are split into distinct borrows once per chunk, not once per
        // instruction.
        let st = &mut *self.state;
        for inst in insts {
            Self::feed_one(self.config, &mut self.memory, &mut self.probe, st, inst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{MachineDescriptor, SimMachine};
    use mom_isa::trace::{ArchReg, BranchInfo, DynInst, IsaKind, MemAccess, MemKind, Trace};
    use mom_mem::{build_memory, MemModelKind};

    /// The Table 1 machine for `way` and `isa` on perfect memory of `latency`
    /// cycles.
    fn machine(way: usize, isa: IsaKind, latency: u64) -> SimMachine {
        MachineDescriptor::for_cell(way, isa, MemModelKind::Perfect { latency }).build()
    }

    fn alu(pc: u64, dst: u8, a: u8, b: u8) -> DynInst {
        DynInst::new(InstClass::IntSimple, pc)
            .with_src(ArchReg::int(a))
            .with_src(ArchReg::int(b))
            .with_dst(ArchReg::int(dst))
    }

    fn independent_trace(n: usize) -> Trace {
        // Instruction i writes register (i % 8) + 8 reading constants r0/r1:
        // effectively unlimited ILP.
        (0..n).map(|i| alu(i as u64, 8 + (i % 8) as u8, 0, 1)).collect()
    }

    fn dependent_trace(n: usize) -> Trace {
        // A serial chain: each instruction reads the previous one's result.
        (0..n).map(|i| alu(i as u64, 5, 5, 5)).collect()
    }

    fn run(trace: &Trace, way: usize, isa: IsaKind) -> SimResult {
        machine(way, isa, 1).simulate_trace(trace)
    }

    #[test]
    fn empty_trace_is_zero_cycles() {
        let r = run(&Trace::new(IsaKind::Alpha), 4, IsaKind::Alpha);
        assert_eq!(r.cycles, 0);
        assert_eq!(r.ipc(), 0.0);
    }

    #[test]
    fn wider_machines_run_independent_code_faster() {
        let t = independent_trace(2000);
        let w1 = run(&t, 1, IsaKind::Alpha);
        let w2 = run(&t, 2, IsaKind::Alpha);
        let w4 = run(&t, 4, IsaKind::Alpha);
        let w8 = run(&t, 8, IsaKind::Alpha);
        assert!(w2.cycles < w1.cycles);
        assert!(w4.cycles < w2.cycles);
        assert!(w8.cycles <= w4.cycles);
        // 1-way IPC is bounded by 1; the wide machines exceed it.
        assert!(w1.ipc() <= 1.01, "1-way IPC {}", w1.ipc());
        assert!(w4.ipc() > 1.5, "4-way IPC {}", w4.ipc());
        assert_eq!(w4.committed, 2000);
    }

    #[test]
    fn dependent_chain_is_serialised_regardless_of_width() {
        let t = dependent_trace(1000);
        let w1 = run(&t, 1, IsaKind::Alpha);
        let w8 = run(&t, 8, IsaKind::Alpha);
        // Both are limited by the dependence chain (about 1 cycle per
        // instruction) — width does not help.
        assert!(w8.cycles as f64 >= 0.9 * w1.cycles as f64);
        assert!(w1.ipc() <= 1.05);
    }

    #[test]
    fn speedup_over_baseline() {
        let t = independent_trace(1000);
        let w1 = run(&t, 1, IsaKind::Alpha);
        let w4 = run(&t, 4, IsaKind::Alpha);
        assert!(w4.speedup_over(&w1) > 1.5);
        assert!((w1.speedup_over(&w1) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn mispredicted_branches_cost_cycles() {
        // Alternating taken/not-taken branches defeat the bimodal predictor.
        let hard: Trace = (0..2000u64)
            .map(|i| {
                DynInst::new(InstClass::Branch, i % 7).with_branch(BranchInfo {
                    taken: i % 2 == 0,
                    conditional: true,
                    pc: i % 7,
                    target: 0,
                })
            })
            .collect();
        let easy: Trace = (0..2000u64)
            .map(|i| {
                DynInst::new(InstClass::Branch, i % 7).with_branch(BranchInfo {
                    taken: false,
                    conditional: true,
                    pc: i % 7,
                    target: 0,
                })
            })
            .collect();
        let hard_r = run(&hard, 4, IsaKind::Alpha);
        let easy_r = run(&easy, 4, IsaKind::Alpha);
        assert!(hard_r.mispredictions > easy_r.mispredictions * 5);
        assert!(hard_r.cycles > easy_r.cycles);
    }

    #[test]
    fn vector_media_instruction_occupies_unit_for_multiple_beats() {
        // One MOM media op with 16 elements vs 16 scalar media ops: the MOM
        // version should not be slower, and a dependent consumer must wait for
        // the full occupancy.
        let mom: Trace = vec![
            DynInst::new(InstClass::MediaSimple, 0)
                .with_dst(ArchReg::mom(1))
                .with_elems(16),
            DynInst::new(InstClass::MediaSimple, 1)
                .with_src(ArchReg::mom(1))
                .with_dst(ArchReg::mom(2))
                .with_elems(16),
        ]
        .into_iter()
        .collect();
        let r = run(&mom, 4, IsaKind::Mom);
        // Each op occupies the unit for 16 beats; the chain is ~32 cycles.
        assert!(r.cycles >= 30, "cycles {}", r.cycles);
        assert!(r.cycles <= 60, "cycles {}", r.cycles);
    }

    #[test]
    fn mdmx_accumulator_recurrence_serialises() {
        // 64 dependent accumulate ops (MediaComplex, acc as src+dst) vs 4 MOM
        // matrix accumulates of 16 elements each: same work, and even though
        // the MOM instruction occupies the unit for 16 beats, it avoids paying
        // the multiply latency per element.
        let mdmx: Trace = (0..64u64)
            .map(|i| {
                DynInst::new(InstClass::MediaComplex, i)
                    .with_src(ArchReg::acc(0))
                    .with_src(ArchReg::media(1))
                    .with_dst(ArchReg::acc(0))
            })
            .collect();
        let mom: Trace = (0..4u64)
            .map(|i| {
                DynInst::new(InstClass::MediaComplex, i)
                    .with_src(ArchReg::mom_acc(0))
                    .with_src(ArchReg::mom(1))
                    .with_dst(ArchReg::mom_acc(0))
                    .with_elems(16)
            })
            .collect();
        let mdmx_r = run(&mdmx, 4, IsaKind::Mdmx);
        let mom_r = run(&mom, 4, IsaKind::Mom);
        assert!(
            mom_r.cycles < mdmx_r.cycles,
            "MOM accumulate ({}) should beat the MDMX recurrence ({})",
            mom_r.cycles,
            mdmx_r.cycles
        );
    }

    #[test]
    fn memory_latency_hurts_scalar_loads_more_than_vector_loads() {
        // 64 dependent scalar loads vs 4 dependent vector loads of 16 elements:
        // with 50-cycle latency the scalar version pays the latency per load.
        let scalar: Trace = (0..64u64)
            .map(|i| {
                DynInst::new(InstClass::Load, i)
                    .with_src(ArchReg::int(1))
                    .with_dst(ArchReg::int(1))
                    .with_mem(vec![MemAccess { addr: i * 8, size: 8, kind: MemKind::Load }])
            })
            .collect();
        let vector: Trace = (0..4u64)
            .map(|i| {
                DynInst::new(InstClass::Load, i)
                    .with_src(ArchReg::int(1))
                    .with_dst(ArchReg::mom(0))
                    .with_elems(16)
                    .with_mem(
                        (0..16)
                            .map(|k| MemAccess { addr: i * 1024 + k * 8, size: 8, kind: MemKind::Load })
                            .collect::<mom_isa::trace::MemList>(),
                    )
            })
            .collect();
        let s1 = machine(4, IsaKind::Alpha, 1).simulate_trace(&scalar);
        let s50 = machine(4, IsaKind::Alpha, 50).simulate_trace(&scalar);
        let v1 = machine(4, IsaKind::Mom, 1).simulate_trace(&vector);
        let v50 = machine(4, IsaKind::Mom, 50).simulate_trace(&vector);
        let scalar_slowdown = s50.cycles as f64 / s1.cycles as f64;
        let vector_slowdown = v50.cycles as f64 / v1.cycles as f64;
        assert!(
            vector_slowdown < scalar_slowdown,
            "vector slowdown {vector_slowdown:.2} vs scalar {scalar_slowdown:.2}"
        );
    }

    #[test]
    fn rob_size_limits_memory_level_parallelism() {
        // Independent loads with 50-cycle latency: the 8-way machine's larger
        // ROB allows more overlap than the 1-way machine's 8-entry ROB.
        let t: Trace = (0..256u64)
            .map(|i| {
                DynInst::new(InstClass::Load, i)
                    .with_src(ArchReg::int(0))
                    .with_dst(ArchReg::int(8 + (i % 8) as u8))
                    .with_mem(vec![MemAccess { addr: i * 64, size: 8, kind: MemKind::Load }])
            })
            .collect();
        let r1 = machine(1, IsaKind::Alpha, 50).simulate_trace(&t);
        let r8 = machine(8, IsaKind::Alpha, 50).simulate_trace(&t);
        assert!(r8.cycles * 2 < r1.cycles, "8-way {} vs 1-way {}", r8.cycles, r1.cycles);
    }

    /// A generator that produces instructions on demand — the whole sequence
    /// never exists in memory at once.
    struct Generated {
        next: u64,
        total: u64,
    }

    impl Iterator for Generated {
        type Item = DynInst;

        fn next(&mut self) -> Option<DynInst> {
            if self.next >= self.total {
                return None;
            }
            let i = self.next;
            self.next += 1;
            Some(match i % 5 {
                0 => DynInst::new(InstClass::Load, i)
                    .with_src(ArchReg::int(1))
                    .with_dst(ArchReg::int(8 + (i % 8) as u8))
                    .with_mem(vec![MemAccess { addr: i * 8, size: 8, kind: MemKind::Load }]),
                1 => DynInst::new(InstClass::Branch, i % 13).with_branch(BranchInfo {
                    taken: i.is_multiple_of(3),
                    conditional: true,
                    pc: i % 13,
                    target: 0,
                }),
                2 => DynInst::new(InstClass::MediaSimple, i)
                    .with_src(ArchReg::media(1))
                    .with_dst(ArchReg::media(2))
                    .with_elems(8),
                _ => alu(i, 8 + (i % 8) as u8, 0, 1),
            })
        }
    }

    #[test]
    fn streamed_source_matches_materialized_trace() {
        // Same sequence, three consumption styles: collected trace replay,
        // owned instructions pushed one at a time as they are generated, and
        // the interpreter's chunked `emit_batch`. All bit-identical.
        let collected: Trace = Generated { next: 0, total: 3000 }.collect();
        let batch = machine(4, IsaKind::Alpha, 4).simulate_trace(&collected);

        let mut pushed_machine = machine(4, IsaKind::Alpha, 4);
        let mut sink = pushed_machine.sim();
        for inst in (Generated { next: 0, total: 3000 }) {
            sink.emit(inst);
        }
        let pushed = sink.finish();

        let mut chunked_machine = machine(4, IsaKind::Alpha, 4);
        let mut sink = chunked_machine.sim();
        for chunk in collected.insts.chunks(64) {
            sink.emit_batch(chunk);
        }
        let chunked = sink.finish();

        assert_eq!(batch, pushed);
        assert_eq!(batch, chunked);
        assert_eq!(batch.committed, 3000);
    }

    #[test]
    fn stream_window_is_bounded_by_the_rob_not_the_trace() {
        // 10_000 instructions through a way-4 machine (ROB 32): the lookback
        // window must be a constant of the configuration, >= 10x smaller than
        // the instruction count, and identical before and after feeding.
        let mut machine = machine(4, IsaKind::Alpha, 1);
        let rob_size = machine.descriptor().core.rob_size;
        let mut sim = machine.sim();
        let initial_window = sim.window_entries();
        for inst in (Generated { next: 0, total: 10_000 }) {
            sim.feed(&inst);
        }
        assert_eq!(sim.fed(), 10_000);
        assert_eq!(sim.window_entries(), initial_window, "window never grows");
        assert!(
            sim.fed() >= 10 * rob_size,
            "the stream is at least 10x the ROB"
        );
        assert!(
            initial_window * 10 <= sim.fed(),
            "retained state ({initial_window} entries) is far below the trace length"
        );
        let r = sim.finish();
        assert_eq!(r.committed, 10_000);
    }

    #[test]
    fn reusable_state_round_trips_through_stream_with() {
        // A state driven by hand equals a built machine, and a reset state
        // equals a fresh one.
        let config = CoreConfig::for_width(4, IsaKind::Alpha);
        let t = independent_trace(500);
        let expected = run(&t, 4, IsaKind::Alpha);

        let mut state = SimState::new(&config);
        assert!(state.matches_config(&config));
        for round in 0..2 {
            let mut mem = build_memory(MemModelKind::Perfect { latency: 1 }, 4);
            let mut sim = SimStream::with_state(&config, mem.as_mut(), &mut state, NoProbe);
            for inst in &t.insts {
                sim.feed(inst);
            }
            assert_eq!(sim.finish(), expected, "round {round}");
            state.reset();
        }
    }

    #[test]
    #[should_panic(expected = "different core configuration")]
    fn stream_with_rejects_a_mismatched_state() {
        // A state sized for the 8-way machine must not drive the 1-way one:
        // the ring-buffer windows differ and the timings would be silently
        // wrong.
        let mut state = SimState::new(&CoreConfig::for_width(8, IsaKind::Alpha));
        let way1 = CoreConfig::for_width(1, IsaKind::Alpha);
        let mut mem = build_memory(MemModelKind::Perfect { latency: 1 }, 1);
        let _ = SimStream::with_state(&way1, mem.as_mut(), &mut state, NoProbe);
    }

    #[test]
    fn empty_stream_finishes_at_zero_cycles() {
        let r = machine(1, IsaKind::Alpha, 1).sim().finish();
        assert_eq!(r, SimResult::default());
    }

    /// The register classes whose rename check `config` keeps, in
    /// [`RegClass::ALL`] order.
    fn tracked_classes(config: &CoreConfig) -> Vec<RegClass> {
        let st = SimState::new(config);
        RegClass::ALL.iter().zip(st.rename_binds).filter(|&(_, b)| b).map(|(&c, _)| c).collect()
    }

    #[test]
    fn rename_is_tracked_only_for_classes_whose_headroom_is_below_the_rob() {
        use RegClass::{Acc, Fp, Int, Media, Mom, MomAcc};
        // Table 1 gives int and FP 32 + ROB physical registers, so neither
        // is ever tracked; the small media/accumulator/matrix files are.
        let expected: [(usize, IsaKind, &[RegClass]); 16] = [
            (1, IsaKind::Alpha, &[Acc, Mom, MomAcc]),
            (1, IsaKind::Mmx, &[Acc, Mom, MomAcc]),
            (1, IsaKind::Mdmx, &[Mom, MomAcc]),
            (1, IsaKind::Mom, &[Acc, Mom, MomAcc]),
            (2, IsaKind::Alpha, &[Media, Acc, Mom, MomAcc]),
            (2, IsaKind::Mmx, &[Acc, Mom, MomAcc]),
            (2, IsaKind::Mdmx, &[Acc, Mom, MomAcc]),
            (2, IsaKind::Mom, &[Media, Acc, Mom, MomAcc]),
            (4, IsaKind::Alpha, &[Media, Acc, Mom, MomAcc]),
            (4, IsaKind::Mmx, &[Acc, Mom, MomAcc]),
            (4, IsaKind::Mdmx, &[Media, Acc, Mom, MomAcc]),
            (4, IsaKind::Mom, &[Media, Acc, Mom, MomAcc]),
            (8, IsaKind::Alpha, &[Media, Acc, Mom, MomAcc]),
            (8, IsaKind::Mmx, &[Media, Acc, Mom, MomAcc]),
            (8, IsaKind::Mdmx, &[Media, Acc, Mom, MomAcc]),
            (8, IsaKind::Mom, &[Media, Acc, Mom, MomAcc]),
        ];
        for (way, isa, classes) in expected {
            assert_eq!(
                tracked_classes(&CoreConfig::for_width(way, isa)),
                classes,
                "{way}-way {isa:?}"
            );
        }
        // The sweep's ROB overrides move the line: a 16-entry ROB drops the
        // 4-way machine's media file (headroom 20 for MDMX), a 64-entry one
        // brings int and FP back (headroom 32).
        let rob = |size| {
            MachineDescriptor::for_cell(4, IsaKind::Mdmx, MemModelKind::Perfect { latency: 1 })
                .with_rob(size)
                .core
        };
        assert_eq!(tracked_classes(&rob(16)), [Acc, Mom, MomAcc]);
        assert_eq!(tracked_classes(&rob(64)), [Int, Fp, Media, Acc, Mom, MomAcc]);
    }

    #[test]
    fn rename_binds_on_a_rob_larger_than_the_int_headroom() {
        // Every instruction writes an int register. A 50-cycle load every 40
        // instructions stalls commit while the window fills behind it; the
        // instruction 32 after each load is a 16-beat media op, long enough
        // that its dispatch shows in its commit cycle. With Table 1's
        // 32-entry ROB the 32nd int writer back is the ROB's own oldest
        // entry, so rename never binds; with a 64-entry ROB the 32 int
        // rename registers run out first.
        let t: Trace = (0..2000u64)
            .map(|i| {
                let dst = ArchReg::int(8 + (i % 8) as u8);
                match i % 40 {
                    0 => DynInst::new(InstClass::Load, i)
                        .with_src(ArchReg::int(1))
                        .with_dst(dst)
                        .with_mem(vec![MemAccess { addr: i * 8, size: 8, kind: MemKind::Load }]),
                    32 => DynInst::new(InstClass::MediaSimple, i).with_dst(dst).with_elems(16),
                    _ => DynInst::new(InstClass::IntSimple, i)
                        .with_src(ArchReg::int(1))
                        .with_dst(dst),
                }
            })
            .collect();
        let rename_cycles = |desc: MachineDescriptor| {
            let mut machine = desc.build();
            let mut sim = machine.sim_probed();
            for inst in &t.insts {
                sim.feed(inst);
            }
            let (result, probe) = sim.finish_probed();
            let report = probe.into_report();
            assert_eq!(report.breakdown.attributed(), result.cycles);
            report.breakdown.get(crate::probe::StallCause::Rename)
        };
        let table1 =
            MachineDescriptor::for_cell(4, IsaKind::Alpha, MemModelKind::Perfect { latency: 50 });
        assert_eq!(rename_cycles(table1.clone()), 0);
        assert!(rename_cycles(table1.with_rob(64)) > 0);
    }

    fn run_probed(trace: &Trace, way: usize, isa: IsaKind, latency: u64) -> (SimResult, crate::probe::ProbeReport) {
        let mut machine = machine(way, isa, latency);
        let mut sim = machine.sim_probed();
        for inst in &trace.insts {
            sim.feed(inst);
        }
        let (result, probe) = sim.finish_probed();
        (result, probe.into_report())
    }

    #[test]
    fn probe_observes_without_changing_timing() {
        // The probed run's SimResult must be bit-identical to the unprobed
        // one, and its breakdown must sum exactly to total cycles.
        let t: Trace = Generated { next: 0, total: 5000 }.collect();
        let unprobed = machine(4, IsaKind::Alpha, 4).simulate_trace(&t);
        let (probed, report) = run_probed(&t, 4, IsaKind::Alpha, 4);
        assert_eq!(unprobed, probed);
        assert_eq!(report.breakdown.total_cycles, probed.cycles);
        assert_eq!(report.breakdown.attributed(), probed.cycles);
        assert_eq!(
            report.intervals.windows.iter().map(|w| w.committed).sum::<u64>(),
            probed.committed
        );
        assert_eq!(
            report.intervals.windows.iter().map(|w| w.cycles).sum::<u64>(),
            probed.cycles
        );
    }

    /// Logs every commit the engine reports — an independent record of
    /// which window each instruction commits in.
    #[derive(Debug, Default)]
    struct CommitLog {
        commits: Vec<(u64, u64)>,
    }

    impl Probe for CommitLog {
        const ENABLED: bool = true;

        fn reg_cause(&self, _slot: usize) -> StallCause {
            StallCause::Base
        }

        fn set_reg_cause(&mut self, _slot: usize, _cause: StallCause) {}

        fn on_commit(&mut self, commit_cycle: u64, _delta: u64, _cause: StallCause, inst: u64) {
            self.commits.push((inst, commit_cycle));
        }

        fn begin(&mut self, _fed: u64) {}

        fn settle(&mut self, _fed: u64) {}
    }

    #[test]
    fn lazy_window_counts_match_a_per_instruction_tally() {
        // Long enough on the 1-way machine at 50-cycle memory to compact
        // the timeline.
        let t: Trace = Generated { next: 0, total: 20_000 }.collect();
        let mut machine = machine(1, IsaKind::Alpha, 50);
        let mut sim = machine.stream(CommitLog::default());
        for inst in &t.insts {
            sim.feed(inst);
        }
        let (_, log) = sim.finish_probed();
        let (result, report) = run_probed(&t, 1, IsaKind::Alpha, 50);
        let iv = &report.intervals;
        assert!(iv.window_cycles > 1024, "the run compacts the timeline");

        let mut tally = vec![0u64; iv.windows.len()];
        for (k, &(inst, cycle)) in log.commits.iter().enumerate() {
            assert_eq!(inst, k as u64, "instructions are reported in order");
            tally[(cycle / iv.window_cycles) as usize] += 1;
        }
        let counted: Vec<u64> = iv.windows.iter().map(|w| w.committed).collect();
        assert_eq!(counted, tally);
        assert_eq!(counted.iter().sum::<u64>(), result.committed);
    }

    #[test]
    fn dependent_load_chain_is_charged_to_memory() {
        // A serial chain of loads at 50-cycle latency: nearly every cycle is
        // memory time (perfect memory classifies as L1 — see AccessCause).
        let t: Trace = (0..64u64)
            .map(|i| {
                DynInst::new(InstClass::Load, i)
                    .with_src(ArchReg::int(1))
                    .with_dst(ArchReg::int(1))
                    .with_mem(vec![MemAccess { addr: i * 8, size: 8, kind: MemKind::Load }])
            })
            .collect();
        let (result, report) = run_probed(&t, 4, IsaKind::Alpha, 50);
        let mem_cycles = report.breakdown.get(crate::probe::StallCause::MemL1);
        assert!(
            mem_cycles * 10 >= result.cycles * 9,
            "memory should dominate: {mem_cycles} of {} cycles",
            result.cycles
        );
        assert_eq!(report.breakdown.top(), Some(crate::probe::StallCause::MemL1));
    }

    #[test]
    fn mispredicted_branches_are_charged_to_redirect() {
        let hard: Trace = (0..2000u64)
            .map(|i| {
                DynInst::new(InstClass::Branch, i % 7).with_branch(BranchInfo {
                    taken: i % 2 == 0,
                    conditional: true,
                    pc: i % 7,
                    target: 0,
                })
            })
            .collect();
        let (result, report) = run_probed(&hard, 4, IsaKind::Alpha, 1);
        let redirect = report.breakdown.get(crate::probe::StallCause::Redirect);
        assert!(redirect > result.cycles / 4, "redirect {redirect} of {} cycles", result.cycles);
        assert_eq!(report.breakdown.attributed(), result.cycles);
    }

    #[test]
    fn media_unit_contention_is_charged_to_the_media_unit() {
        // Independent 16-element media ops saturate the single media unit's
        // lanes: most slots wait on unit occupancy.
        let t: Trace = (0..128u64)
            .map(|i| {
                DynInst::new(InstClass::MediaSimple, i)
                    .with_src(ArchReg::mom(0))
                    .with_dst(ArchReg::mom(1 + (i % 8) as u8))
                    .with_elems(16)
            })
            .collect();
        let (result, report) = run_probed(&t, 8, IsaKind::Mom, 1);
        let media = report.breakdown.get(crate::probe::StallCause::UnitMedia);
        assert!(media > result.cycles / 3, "unit-media {media} of {} cycles", result.cycles);
    }
}
