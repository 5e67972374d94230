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
    /// [`ProbeReport::validate`] is where the invariant is checked.
    pub fn from_parts(total_cycles: u64, components: [u64; StallCause::COUNT]) -> Self {
        StallBreakdown { total_cycles, components }
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
    /// Check the invariants every probe-produced report satisfies: the
    /// breakdown's components sum to its total cycles, the window width is
    /// on the `1024·2^k` compaction schedule, and there are no more windows
    /// than the recorder keeps. A report read back from outside (a cache
    /// record) is trusted only after this passes.
    ///
    /// # Errors
    ///
    /// Names the first invariant the report breaks.
    pub fn validate(&self) -> Result<(), &'static str> {
        let sum = self.breakdown.components().try_fold(0u64, |acc, (_, n)| acc.checked_add(n));
        if sum != Some(self.breakdown.total_cycles) {
            return Err("breakdown components do not sum to its total cycles");
        }
        let width = self.intervals.window_cycles;
        if !width.is_power_of_two() || width < INITIAL_WINDOW {
            return Err("interval window width is off the 1024·2^k schedule");
        }
        if self.intervals.windows.len() > MAX_WINDOWS {
            return Err("more interval windows than the recorder keeps");
        }
        Ok(())
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
    fn validate_accepts_probe_reports_and_names_each_broken_invariant() {
        let mut p = AttributionProbe::new();
        p.on_commit(4, 4, StallCause::MemDram, 0);
        let good = p.into_report();
        assert_eq!(good.validate(), Ok(()));
        let with_breakdown = |total, parts| ProbeReport {
            breakdown: StallBreakdown::from_parts(total, parts),
            ..good.clone()
        };
        let with_windows = |window_cycles, n| ProbeReport {
            intervals: IntervalStats { window_cycles, windows: vec![good.intervals.windows[0]; n] },
            ..good.clone()
        };
        let mut overflowing = [0; StallCause::COUNT];
        overflowing[0] = u64::MAX;
        overflowing[1] = 1;
        let broken = [
            with_breakdown(5, [0; StallCause::COUNT]),
            with_breakdown(0, overflowing),
            with_windows(3072, 1),
            with_windows(512, 1),
            with_windows(1024, MAX_WINDOWS + 1),
        ];
        for report in &broken {
            assert!(report.validate().is_err(), "{report:?}");
        }
        assert_eq!(with_windows(1024, MAX_WINDOWS).validate(), Ok(()));
    }

    #[test]
    fn windowed_ipc_divides_committed_by_cycles() {
        let w = IntervalWindow { committed: 8, cycles: 4, top: StallCause::Base };
        assert!((w.ipc() - 2.0).abs() < 1e-12);
        let empty = IntervalWindow { committed: 0, cycles: 0, top: StallCause::Base };
        assert_eq!(empty.ipc(), 0.0);
    }
}
