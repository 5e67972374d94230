//! Cycle attribution: the zero-overhead-when-off [`Probe`] abstraction and
//! the [`StallBreakdown`] / interval statistics it produces.
//!
//! [`SimStream`](crate::SimStream) is generic over a [`Probe`]; the default
//! [`NoProbe`] has `ENABLED == false`, so every instrumented block in the
//! retire loop is guarded by `if P::ENABLED` on an associated constant and
//! monomorphizes away entirely — the probe-off hot path compiles to the same
//! code as before the probe existed. [`AttributionProbe`] is the real
//! instrument: it charges **every commit-slot cycle to exactly one cause**.
//!
//! # The attribution model
//!
//! Commit is in-order, so consecutive commit cycles telescope: for
//! instruction *i* committing at cycle `c_i`, the deltas `c_i − c_{i−1}` sum
//! to the final commit cycle — the run's total cycles. Each nonzero delta is
//! attributed to the *binding constraint* of that instruction's commit cycle,
//! found by walking the pipeline stages backwards (commit → execute → operand
//! readiness → dispatch → fetch) and descending only into a stage that was
//! **strictly** the latest — ties always keep the earlier-stage cause, which
//! makes the attribution deterministic. The resulting invariant is
//! structural, not statistical: [`StallBreakdown`] components always sum
//! exactly to total cycles.
//!
//! Dependence chains are attributed through registers: when an instruction's
//! operands are the binding constraint, the recorded cause of the *producer*
//! register is charged, so a chain of loads each missing to DRAM shows up as
//! DRAM time, not as generic dependence time.

use mom_isa::codec::{CodecError, Decoder, Encoder};
use mom_isa::trace::ArchReg;
use mom_mem::AccessCause;

/// The single cause a commit-slot cycle is attributed to.
///
/// `Base` is the catch-all for cycles the pipeline spends doing its job at
/// its configured width — commit/fetch bandwidth, front-end depth and plain
/// execution latency of ready instructions. Every other variant names a
/// structural or memory bottleneck.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StallCause {
    /// Issue/commit width, front-end depth and plain execution latency.
    Base,
    /// Dispatch waited for a reorder-buffer slot.
    RobFull,
    /// Dispatch waited for rename headroom (physical registers).
    Rename,
    /// Dispatch waited for a load/store-queue slot.
    LsqFull,
    /// Execution waited for a scalar (integer/FP) functional unit.
    UnitScalar,
    /// Execution waited for a media/vector functional unit.
    UnitMedia,
    /// Fetch waited on a branch-misprediction redirect.
    Redirect,
    /// Memory time served at L1 speed (or by a perfect memory).
    MemL1,
    /// Memory time dominated by L2 (L1 misses filled from L2, vector-port
    /// occupancy, merges into in-flight fills).
    MemL2,
    /// Memory time dominated by a DRAM transfer.
    MemDram,
    /// Memory time dominated by waiting for a free MSHR.
    MshrFull,
    /// Store time set by the coalescing write buffer.
    WriteBuffer,
}

impl StallCause {
    /// Number of distinct causes.
    pub const COUNT: usize = 12;

    /// Every cause, in display/serialization order.
    pub const ALL: [StallCause; StallCause::COUNT] = [
        StallCause::Base,
        StallCause::RobFull,
        StallCause::Rename,
        StallCause::LsqFull,
        StallCause::UnitScalar,
        StallCause::UnitMedia,
        StallCause::Redirect,
        StallCause::MemL1,
        StallCause::MemL2,
        StallCause::MemDram,
        StallCause::MshrFull,
        StallCause::WriteBuffer,
    ];

    /// Stable dense index of this cause (the position in [`StallCause::ALL`]).
    pub fn index(self) -> usize {
        self as usize
    }

    /// The stable short label used in JSON schemas and reports.
    pub fn label(self) -> &'static str {
        match self {
            StallCause::Base => "base",
            StallCause::RobFull => "rob",
            StallCause::Rename => "rename",
            StallCause::LsqFull => "lsq",
            StallCause::UnitScalar => "unit-scalar",
            StallCause::UnitMedia => "unit-media",
            StallCause::Redirect => "redirect",
            StallCause::MemL1 => "mem-l1",
            StallCause::MemL2 => "mem-l2",
            StallCause::MemDram => "mem-dram",
            StallCause::MshrFull => "mshr",
            StallCause::WriteBuffer => "write-buffer",
        }
    }

    /// Inverse of [`StallCause::index`].
    ///
    /// # Errors
    ///
    /// Fails on an index no cause carries — a corrupted cache record.
    pub fn from_index(index: usize) -> Result<Self, CodecError> {
        StallCause::ALL
            .get(index)
            .copied()
            .ok_or(CodecError::Invalid { what: "stall cause index" })
    }

    /// Map a memory-system completion cause to its attribution bucket.
    pub fn from_access(cause: AccessCause) -> Self {
        match cause {
            AccessCause::L1 => StallCause::MemL1,
            AccessCause::L2 => StallCause::MemL2,
            AccessCause::Dram => StallCause::MemDram,
            AccessCause::MshrFull => StallCause::MshrFull,
            AccessCause::WriteBuffer => StallCause::WriteBuffer,
        }
    }
}

/// Per-cause attribution of every cycle of one simulation.
///
/// Produced by [`AttributionProbe`]; the invariant that the components sum
/// to [`StallBreakdown::total_cycles`] is structural (telescoping commit
/// deltas), and [`StallBreakdown::attributed`] exposes the sum so tests can
/// pin it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct StallBreakdown {
    /// Total cycles of the run (the last commit cycle).
    pub total_cycles: u64,
    components: [u64; StallCause::COUNT],
}

impl StallBreakdown {
    /// Cycles attributed to `cause`.
    pub fn get(&self, cause: StallCause) -> u64 {
        self.components[cause.index()]
    }

    /// Every `(cause, cycles)` pair in [`StallCause::ALL`] order.
    pub fn components(&self) -> impl Iterator<Item = (StallCause, u64)> + '_ {
        StallCause::ALL.iter().map(|&c| (c, self.components[c.index()]))
    }

    /// Sum of all components — always equal to `total_cycles`.
    pub fn attributed(&self) -> u64 {
        self.components.iter().sum()
    }

    /// Causes with nonzero attribution, sorted by descending cycle count
    /// (ties broken by [`StallCause::ALL`] order — deterministic).
    pub fn ranked(&self) -> Vec<(StallCause, u64)> {
        let mut ranked: Vec<_> = self.components().filter(|&(_, n)| n > 0).collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.index().cmp(&b.0.index())));
        ranked
    }

    /// The cause with the most attributed cycles, if any cycle was attributed.
    pub fn top(&self) -> Option<StallCause> {
        self.ranked().first().map(|&(c, _)| c)
    }

    /// Build a breakdown from its parts: per-cause cycle counts in
    /// [`StallCause::ALL`] order plus the total. Probe-produced breakdowns
    /// always have components summing to the total; a breakdown built here
    /// carries whatever the caller provides (tests use that freedom), and
    /// [`ProbeReport::load_state`] is where the invariant is enforced.
    pub fn from_parts(total_cycles: u64, components: [u64; StallCause::COUNT]) -> Self {
        StallBreakdown { total_cycles, components }
    }

    /// Serialize the breakdown: total cycles, then every component in
    /// [`StallCause::ALL`] order.
    pub fn save_state(&self, e: &mut Encoder) {
        e.u64(self.total_cycles);
        for &cycles in &self.components {
            e.u64(cycles);
        }
    }

    /// Rebuild a breakdown written by [`StallBreakdown::save_state`].
    ///
    /// # Errors
    ///
    /// Fails if the stream is truncated.
    pub fn load_state(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let total_cycles = d.u64("breakdown total cycles")?;
        let mut components = [0u64; StallCause::COUNT];
        for cycles in &mut components {
            *cycles = d.u64("breakdown component")?;
        }
        Ok(StallBreakdown { total_cycles, components })
    }
}

/// One window of the interval timeline: committed instructions, attributed
/// cycles and the dominant stall cause within the window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IntervalWindow {
    /// Instructions that committed inside this window.
    pub committed: u64,
    /// Cycles attributed inside this window (commit deltas landing here).
    pub cycles: u64,
    /// The dominant cause of those cycles (`Base` for an empty window).
    pub top: StallCause,
}

impl IntervalWindow {
    /// Windowed IPC: committed instructions per attributed cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }
}

/// The per-phase timeline of one simulation: fixed-width windows over commit
/// cycles, each with committed-instruction count, cycle count and top stall
/// cause.
///
/// Windows are driven purely by commit cycles (a delta is charged entirely to
/// the window its commit lands in), so the timeline is byte-identical across
/// execution modes and worker counts, like everything else in `results`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct IntervalStats {
    /// Width of each window in cycles.
    pub window_cycles: u64,
    /// The windows, in time order. Trailing all-empty windows are trimmed.
    pub windows: Vec<IntervalWindow>,
}

impl IntervalStats {
    /// Serialize the finished timeline: window width, count, then each
    /// window's committed/cycles/top-cause triple.
    pub fn save_state(&self, e: &mut Encoder) {
        e.u64(self.window_cycles);
        e.usize(self.windows.len());
        for w in &self.windows {
            e.u64(w.committed);
            e.u64(w.cycles);
            e.u8(w.top.index() as u8);
        }
    }

    /// Rebuild a timeline written by [`IntervalStats::save_state`].
    ///
    /// # Errors
    ///
    /// Fails if the stream is truncated, carries an out-of-range stall
    /// cause, a window width off the `1024·2^k` compaction schedule, or
    /// more windows than the recorder ever keeps.
    pub fn load_state(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let window_cycles = d.u64("interval window width")?;
        if !window_cycles.is_power_of_two() || window_cycles < INITIAL_WINDOW {
            return Err(CodecError::Invalid { what: "interval window width" });
        }
        let n = d.usize("interval window count")?;
        if n > MAX_WINDOWS {
            return Err(CodecError::Invalid { what: "interval window count" });
        }
        let mut windows = Vec::with_capacity(n);
        for _ in 0..n {
            windows.push(IntervalWindow {
                committed: d.u64("window committed")?,
                cycles: d.u64("window cycles")?,
                top: StallCause::from_index(d.u8("window top cause")? as usize)?,
            });
        }
        Ok(IntervalStats { window_cycles, windows })
    }
}

/// Accumulating form of one window (full per-cause counts, so merged windows
/// recompute their top cause exactly).
#[derive(Debug, Clone, Copy)]
struct WindowAcc {
    committed: u64,
    cycles: [u64; StallCause::COUNT],
}

impl WindowAcc {
    const EMPTY: WindowAcc = WindowAcc { committed: 0, cycles: [0; StallCause::COUNT] };

    fn merge(&mut self, other: &WindowAcc) {
        self.committed += other.committed;
        for (a, b) in self.cycles.iter_mut().zip(other.cycles.iter()) {
            *a += b;
        }
    }

    fn total(&self) -> u64 {
        self.cycles.iter().sum()
    }

    fn top(&self) -> StallCause {
        let mut best = StallCause::Base;
        let mut best_n = 0u64;
        for &cause in &StallCause::ALL {
            let n = self.cycles[cause.index()];
            if n > best_n {
                best = cause;
                best_n = n;
            }
        }
        best
    }
}

/// The hooks [`SimStream::feed`](crate::SimStream::feed) calls when its probe
/// is enabled.
///
/// `ENABLED` is an associated constant: with [`NoProbe`] every instrumented
/// block is `if false { .. }` after monomorphization and the compiler removes
/// it, so the probe-off engine pays nothing — not even dead stores.
pub trait Probe: std::fmt::Debug {
    /// Whether the instrumented blocks in the retire loop run at all.
    const ENABLED: bool;

    /// The recorded stall cause of the producer of register `slot` (the same
    /// dense slot index the engine's scoreboard uses).
    fn reg_cause(&self, slot: usize) -> StallCause;

    /// Record `cause` as the reason register `slot`'s producer completed when
    /// it did (called at writeback).
    fn set_reg_cause(&mut self, slot: usize, cause: StallCause);

    /// Attribute the commit delta of instruction `inst` (its index in the
    /// engine's retirement order): `delta` cycles ending at `commit_cycle`,
    /// charged to `cause`. Called once per retired instruction, with
    /// `delta == 0` for same-cycle commit groups; commit cycles never
    /// decrease.
    fn on_commit(&mut self, commit_cycle: u64, delta: u64, cause: StallCause, inst: u64);

    /// A stream opens with this probe on an engine state that has already
    /// retired `fed` instructions, so the next `on_commit` is instruction
    /// `fed`. The probe is settled at this point: fresh, or handed back by
    /// `finish_probed`.
    fn begin(&mut self, fed: u64);

    /// The stream closes after retiring instructions `0..fed`: bring any
    /// lazily kept per-instruction counts up to date.
    fn settle(&mut self, fed: u64);
}

/// The unit probe: observes nothing, costs nothing. The default for every
/// existing `SimStream` entry point.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoProbe;

impl Probe for NoProbe {
    const ENABLED: bool = false;

    fn reg_cause(&self, _slot: usize) -> StallCause {
        StallCause::Base
    }

    fn set_reg_cause(&mut self, _slot: usize, _cause: StallCause) {}

    fn on_commit(&mut self, _commit_cycle: u64, _delta: u64, _cause: StallCause, _inst: u64) {}

    fn begin(&mut self, _fed: u64) {}

    fn settle(&mut self, _fed: u64) {}
}

/// Number of windows the interval recorder keeps before halving resolution.
const MAX_WINDOWS: usize = 32;

/// Initial interval window width in cycles.
const INITIAL_WINDOW: u64 = 1024;

/// The full cycle-attribution instrument: accumulates the per-register
/// producer causes and the bounded interval timeline, from which the
/// per-run [`StallBreakdown`] follows.
///
/// The timeline starts at 1024-cycle windows (`INITIAL_WINDOW`); whenever
/// the run outgrows 32 of them (`MAX_WINDOWS`), adjacent windows are
/// pair-merged and the
/// width doubles, so state stays O(1) for unbounded streams and the
/// compaction schedule is a pure function of commit cycles (deterministic).
/// Every commit delta lands in exactly one window and pair-merging keeps
/// sums, so the breakdown is the per-cause sum of the windows: the
/// per-instruction update touches the current window only, and a
/// same-cycle commit (`delta == 0`) touches nothing.
///
/// Window `committed` counts are kept lazily, from instruction indices.
/// Commit cycles never decrease, so the latest commit always lies in the
/// last window, and every instruction not yet counted committed there: the
/// count is settled when a commit opens a new window and when the stream
/// finishes.
#[derive(Debug, Clone)]
pub struct AttributionProbe {
    /// The last commit cycle seen: the run's total cycles so far.
    total_cycles: u64,
    /// Index of the first instruction not yet counted in any window's
    /// `committed` (instructions `counted..` committed in the last window).
    /// Set by `begin` whenever a stream opens, so it is never saved: a
    /// probe outside a stream is always settled.
    counted: u64,
    reg_cause: [StallCause; ArchReg::SLOTS],
    /// `log2` of the window width in cycles.
    window_shift: u32,
    /// Window accumulators, inline at the maximum count (`n_windows` are
    /// live). Inline storage keeps the once-per-instruction `on_commit`
    /// update free of pointer chases; at ~3 KiB the probe is still cheap to
    /// move around.
    windows: [WindowAcc; MAX_WINDOWS],
    n_windows: usize,
}

impl Default for AttributionProbe {
    fn default() -> Self {
        Self::new()
    }
}

impl AttributionProbe {
    /// A fresh probe with nothing attributed yet.
    pub fn new() -> Self {
        Self {
            total_cycles: 0,
            counted: 0,
            reg_cause: [StallCause::Base; ArchReg::SLOTS],
            window_shift: INITIAL_WINDOW.trailing_zeros(),
            windows: [WindowAcc::EMPTY; MAX_WINDOWS],
            n_windows: 0,
        }
    }

    /// The breakdown accumulated so far: the per-cause sum of the windows.
    pub fn breakdown(&self) -> StallBreakdown {
        let mut total = WindowAcc::EMPTY;
        for w in &self.windows[..self.n_windows] {
            total.merge(w);
        }
        StallBreakdown::from_parts(self.total_cycles, total.cycles)
    }

    /// Build the interval timeline accumulated so far.
    pub fn intervals(&self) -> IntervalStats {
        IntervalStats {
            window_cycles: 1 << self.window_shift,
            windows: self.windows[..self.n_windows]
                .iter()
                .map(|w| IntervalWindow { committed: w.committed, cycles: w.total(), top: w.top() })
                .collect(),
        }
    }

    /// Consume the probe into its final report, checking the sum-to-total
    /// invariant.
    ///
    /// # Panics
    ///
    /// Panics if the attributed components do not sum to total cycles — which
    /// would mean the engine's instrumentation lost or double-counted a
    /// commit delta, never a property of the workload.
    pub fn into_report(self) -> ProbeReport {
        let breakdown = self.breakdown();
        assert_eq!(
            breakdown.attributed(),
            breakdown.total_cycles,
            "stall-breakdown components must sum to total cycles"
        );
        ProbeReport { breakdown, intervals: self.intervals() }
    }

    /// Slow path of [`Probe::on_commit`]: instruction `inst` commits past the
    /// last materialized window, so settle the instructions before it into
    /// that window, then extend the timeline (and pair-merge whenever it
    /// would outgrow `MAX_WINDOWS`). Runs at most once per 1024 committed
    /// cycles — keeping it out of line lets the per-instruction hot path
    /// inline into `feed`.
    #[cold]
    #[inline(never)]
    fn grow_windows(&mut self, commit_cycle: u64, inst: u64) -> usize {
        self.settle(inst);
        let mut idx = (commit_cycle >> self.window_shift) as usize;
        while idx >= MAX_WINDOWS {
            // Pair-merge: halve the resolution, keep the history exact.
            let merged = self.n_windows.div_ceil(2);
            for i in 0..merged {
                let mut w = self.windows[2 * i];
                if 2 * i + 1 < self.n_windows {
                    w.merge(&self.windows[2 * i + 1]);
                }
                self.windows[i] = w;
            }
            self.windows[merged..self.n_windows].fill(WindowAcc::EMPTY);
            self.n_windows = merged;
            self.window_shift += 1;
            idx = (commit_cycle >> self.window_shift) as usize;
        }
        if self.n_windows <= idx {
            self.n_windows = idx + 1;
        }
        idx
    }
}

impl Probe for AttributionProbe {
    const ENABLED: bool = true;

    #[inline]
    fn reg_cause(&self, slot: usize) -> StallCause {
        self.reg_cause[slot]
    }

    #[inline]
    fn set_reg_cause(&mut self, slot: usize, cause: StallCause) {
        self.reg_cause[slot] = cause;
    }

    #[inline]
    fn on_commit(&mut self, commit_cycle: u64, delta: u64, cause: StallCause, inst: u64) {
        if delta == 0 {
            // Same cycle as the previous commit: same window, nothing to
            // charge, and the count is settled later from indices.
            return;
        }
        self.total_cycles = commit_cycle;
        let mut idx = (commit_cycle >> self.window_shift) as usize;
        if idx >= self.n_windows {
            idx = self.grow_windows(commit_cycle, inst);
        }
        self.windows[idx].cycles[cause.index()] += delta;
    }

    fn begin(&mut self, fed: u64) {
        self.counted = fed;
    }

    /// Credit instructions `counted..fed` to the last window, where they
    /// all committed.
    fn settle(&mut self, fed: u64) {
        if let Some(last) = self.windows[..self.n_windows].last_mut() {
            last.committed += fed - self.counted;
        }
        self.counted = fed;
    }
}

/// What a probed simulation hands back next to its
/// [`SimResult`](crate::SimResult): the verified stall breakdown and the
/// interval timeline.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ProbeReport {
    /// Per-cause attribution of every cycle; components sum to total cycles.
    pub breakdown: StallBreakdown,
    /// The windowed timeline (IPC + top cause per window).
    pub intervals: IntervalStats,
}

impl Default for ProbeReport {
    fn default() -> Self {
        AttributionProbe::new().into_report()
    }
}

impl ProbeReport {
    /// Serialize the report: the breakdown, then the interval timeline.
    pub fn save_state(&self, e: &mut Encoder) {
        self.breakdown.save_state(e);
        self.intervals.save_state(e);
    }

    /// Rebuild a report written by [`ProbeReport::save_state`].
    ///
    /// # Errors
    ///
    /// Fails if the stream is truncated, carries out-of-range values, or a
    /// breakdown whose components do not sum to its total cycles — the
    /// structural invariant every probe-produced report satisfies.
    pub fn load_state(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let breakdown = StallBreakdown::load_state(d)?;
        if breakdown.attributed() != breakdown.total_cycles {
            return Err(CodecError::Invalid { what: "probe report attribution sum" });
        }
        let intervals = IntervalStats::load_state(d)?;
        Ok(ProbeReport { breakdown, intervals })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_and_indices_are_stable_and_unique() {
        let mut labels: Vec<_> = StallCause::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), StallCause::COUNT);
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), StallCause::COUNT, "labels must be unique");
        for (i, &cause) in StallCause::ALL.iter().enumerate() {
            assert_eq!(cause.index(), i);
        }
    }

    #[test]
    fn breakdown_ranks_by_count_then_declaration_order() {
        let mut components = [0; StallCause::COUNT];
        components[StallCause::MemDram.index()] = 10;
        components[StallCause::Base.index()] = 10;
        components[StallCause::Redirect.index()] = 3;
        let b = StallBreakdown::from_parts(23, components);
        let ranked = b.ranked();
        assert_eq!(ranked[0], (StallCause::Base, 10), "tie goes to declaration order");
        assert_eq!(ranked[1], (StallCause::MemDram, 10));
        assert_eq!(ranked[2], (StallCause::Redirect, 3));
        assert_eq!(b.top(), Some(StallCause::Base));
        assert_eq!(b.attributed(), 23);
    }

    #[test]
    fn interval_recorder_compacts_but_never_loses_cycles() {
        let mut p = AttributionProbe::new();
        // One commit per 100 cycles out to cycle 200_000: far beyond
        // MAX_WINDOWS * INITIAL_WINDOW, forcing several pair-merges.
        let mut last = 0u64;
        for (i, c) in (100..=200_000u64).step_by(100).enumerate() {
            p.on_commit(c, c - last, StallCause::MemDram, i as u64);
            last = c;
        }
        p.settle(2000);
        let report = p.into_report();
        assert_eq!(report.breakdown.total_cycles, 200_000);
        assert_eq!(report.breakdown.get(StallCause::MemDram), 200_000);
        let iv = &report.intervals;
        assert!(iv.windows.len() <= MAX_WINDOWS);
        assert!(iv.window_cycles > INITIAL_WINDOW, "resolution halved at least once");
        assert_eq!(iv.windows.iter().map(|w| w.cycles).sum::<u64>(), 200_000);
        assert_eq!(iv.windows.iter().map(|w| w.committed).sum::<u64>(), 2000);
        assert!(iv.windows.iter().all(|w| w.top == StallCause::MemDram || w.cycles == 0));
    }

    #[test]
    fn compaction_schedule_is_a_function_of_commit_cycles_only() {
        // Same commit-cycle sequence recorded twice with different causes:
        // identical window boundaries.
        let causes = [StallCause::Base, StallCause::MemL2];
        let stats: Vec<IntervalStats> = causes
            .iter()
            .map(|&cause| {
                let mut p = AttributionProbe::new();
                let mut last = 0;
                let mut fed = 0;
                for c in (7..90_000u64).step_by(7919) {
                    p.on_commit(c, c - last, cause, fed);
                    last = c;
                    fed += 1;
                }
                p.settle(fed);
                p.intervals()
            })
            .collect();
        assert_eq!(stats[0].window_cycles, stats[1].window_cycles);
        assert_eq!(stats[0].windows.len(), stats[1].windows.len());
        for (a, b) in stats[0].windows.iter().zip(&stats[1].windows) {
            assert_eq!(a.committed, b.committed);
            assert_eq!(a.cycles, b.cycles);
        }
    }

    #[test]
    #[should_panic(expected = "sum to total cycles")]
    fn into_report_pins_the_sum_invariant() {
        let mut p = AttributionProbe::new();
        p.on_commit(10, 4, StallCause::Base, 0);
        // Sabotage: pretend the run was longer than what was attributed.
        p.total_cycles = 11;
        let _ = p.into_report();
    }

    #[test]
    fn windowed_ipc_divides_committed_by_cycles() {
        let w = IntervalWindow { committed: 8, cycles: 4, top: StallCause::Base };
        assert!((w.ipc() - 2.0).abs() < 1e-12);
        let empty = IntervalWindow { committed: 0, cycles: 0, top: StallCause::Base };
        assert_eq!(empty.ipc(), 0.0);
    }
}
