//! Set-associative cache tag model with LRU replacement, MSHRs and a
//! coalescing write buffer.
//!
//! The model tracks *which lines are resident* and *how many misses are in
//! flight*; data values are never stored (the functional interpreter already
//! produced them). Timing consumers combine the hit/miss answers with the port
//! and bank occupancy tracked by the memory-system front-ends.

use mom_isa::codec::{CodecError, Decoder, Encoder};

/// Configuration of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity (1 = direct mapped).
    pub assoc: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
    /// Access (hit) latency in cycles.
    pub hit_latency: u64,
    /// Number of MSHRs (maximum outstanding misses).
    pub mshrs: usize,
    /// Whether the cache is write-back (`true`) or write-through (`false`).
    pub write_back: bool,
}

impl CacheConfig {
    /// The paper's L1: 32 KB, direct mapped, write-through, 32-byte lines,
    /// 8 MSHRs.
    pub fn paper_l1(hit_latency: u64) -> Self {
        Self {
            size_bytes: 32 * 1024,
            assoc: 1,
            line_bytes: 32,
            hit_latency,
            mshrs: 8,
            write_back: false,
        }
    }

    /// The paper's L2: 1 MB, 2-way, write-back, 128-byte lines, 8 MSHRs.
    pub fn paper_l2(hit_latency: u64) -> Self {
        Self {
            size_bytes: 1024 * 1024,
            assoc: 2,
            line_bytes: 128,
            hit_latency,
            mshrs: 8,
            write_back: true,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.size_bytes / (self.line_bytes * self.assoc)
    }
}

/// Result of a single cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupResult {
    /// The line was resident.
    Hit,
    /// The line was missing; a victim (dirty write-back needed) is reported.
    Miss {
        /// Whether the evicted victim line was dirty and must be written back.
        dirty_victim: bool,
    },
}

/// Hit/miss statistics of one cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Number of lookups that hit.
    pub hits: u64,
    /// Number of lookups that missed.
    pub misses: u64,
    /// Number of dirty victims written back.
    pub writebacks: u64,
}

impl CacheStats {
    /// Serialize the counters for a cell-cache record.
    pub fn save_state(&self, e: &mut Encoder) {
        e.u64(self.hits);
        e.u64(self.misses);
        e.u64(self.writebacks);
    }

    /// Restore counters written by [`CacheStats::save_state`].
    ///
    /// # Errors
    ///
    /// Fails if the stream is truncated.
    pub fn load_state(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            hits: d.u64("cache hits")?,
            misses: d.u64("cache misses")?,
            writebacks: d.u64("cache writebacks")?,
        })
    }

    /// Total number of lookups.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio in [0, 1]; zero when there were no accesses.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses() as f64
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct LineState {
    tag: u64,
    valid: bool,
    dirty: bool,
    last_used: u64,
}

/// A set-associative cache tag array with LRU replacement.
///
/// The tag array is one set-major `Vec`: set `s` owns the `assoc` entries
/// starting at `s * assoc`. Line size and set count are powers of two (every
/// Table 3 cache is), so locating a line is two shifts and a mask.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    lines: Vec<LineState>,
    /// `log2(line_bytes)`: an address shifted right by this is its line.
    line_shift: u32,
    /// `log2(sets)`: a line shifted right by this is its tag.
    set_shift: u32,
    stats: CacheStats,
    use_counter: u64,
}

impl Cache {
    /// Create an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (zero sets or associativity)
    /// or if its line size or set count is not a power of two.
    pub fn new(config: CacheConfig) -> Self {
        assert!(config.assoc > 0 && config.line_bytes > 0, "degenerate cache configuration");
        let sets = config.sets();
        assert!(sets > 0, "cache must have at least one set");
        assert!(
            config.line_bytes.is_power_of_two(),
            "cache line size must be a power of two, got {} bytes",
            config.line_bytes
        );
        assert!(sets.is_power_of_two(), "cache set count must be a power of two, got {sets}");
        Self {
            config,
            lines: vec![LineState::default(); sets * config.assoc],
            line_shift: config.line_bytes.trailing_zeros(),
            set_shift: sets.trailing_zeros(),
            stats: CacheStats::default(),
            use_counter: 0,
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The line number of `addr` (the address divided by the line size).
    pub fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    fn set_count(&self) -> usize {
        1 << self.set_shift
    }

    /// The set index and tag of `addr`: the line number's low `log2(sets)`
    /// bits and the bits above them.
    pub fn set_and_tag(&self, addr: u64) -> (usize, u64) {
        let line = self.line_of(addr);
        let set = (line & (self.set_count() as u64 - 1)) as usize;
        (set, line >> self.set_shift)
    }

    /// The ways of `set`.
    fn ways(&self, set: usize) -> &[LineState] {
        let assoc = self.config.assoc;
        &self.lines[set * assoc..(set + 1) * assoc]
    }

    fn ways_mut(&mut self, set: usize) -> &mut [LineState] {
        let assoc = self.config.assoc;
        &mut self.lines[set * assoc..(set + 1) * assoc]
    }

    /// Whether the line containing `addr` is currently resident (no state
    /// change, no statistics update).
    pub fn probe(&self, addr: u64) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        self.ways(set).iter().any(|l| l.valid && l.tag == tag)
    }

    /// Look up (and on a miss, allocate) the line containing `addr`.
    ///
    /// `is_write` marks the line dirty on write-back caches.
    pub fn access(&mut self, addr: u64, is_write: bool) -> LookupResult {
        self.use_counter += 1;
        let use_counter = self.use_counter;
        let dirty_on_write = is_write && self.config.write_back;
        let (set, tag) = self.set_and_tag(addr);
        let ways = self.ways_mut(set);
        if let Some(line) = ways.iter_mut().find(|l| l.valid && l.tag == tag) {
            line.last_used = use_counter;
            if dirty_on_write {
                line.dirty = true;
            }
            self.stats.hits += 1;
            return LookupResult::Hit;
        }
        // Choose the LRU victim (prefer an invalid way).
        let victim = ways
            .iter_mut()
            .min_by_key(|l| if l.valid { l.last_used + 1 } else { 0 })
            .expect("associativity is non-zero");
        let dirty_victim = victim.valid && victim.dirty;
        victim.tag = tag;
        victim.valid = true;
        victim.dirty = dirty_on_write;
        victim.last_used = use_counter;
        self.stats.misses += 1;
        if dirty_victim {
            self.stats.writebacks += 1;
        }
        LookupResult::Miss { dirty_victim }
    }

    /// Restore the cache to its just-built state — every line invalid,
    /// statistics zeroed — without reallocating the tag arrays. Part of the
    /// memory-system `reset()` contract that lets machines be reused across
    /// experiment cells.
    pub fn reset(&mut self) {
        self.lines.fill(LineState::default());
        self.stats = CacheStats::default();
        self.use_counter = 0;
    }

    /// Invalidate the line containing `addr` (used by the inclusion/coherence
    /// policy between the scalar L1 and the vector path).
    pub fn invalidate(&mut self, addr: u64) {
        let (set, tag) = self.set_and_tag(addr);
        for l in self.ways_mut(set) {
            if l.valid && l.tag == tag {
                l.valid = false;
                l.dirty = false;
            }
        }
    }
}

/// A file of Miss Status Holding Registers.
///
/// Each in-flight line miss occupies one MSHR until the fill returns. A second
/// miss to the same line piggybacks on the existing entry.
#[derive(Debug, Clone)]
pub struct MshrFile {
    capacity: usize,
    entries: Vec<(u64, u64)>, // (line, ready_cycle)
}

impl MshrFile {
    /// Create an MSHR file with the given number of entries.
    pub fn new(capacity: usize) -> Self {
        Self { capacity, entries: Vec::new() }
    }

    /// Remove entries whose fill has returned by `cycle`.
    pub fn retire(&mut self, cycle: u64) {
        self.entries.retain(|&(_, ready)| ready > cycle);
    }

    /// Drop every in-flight miss (the machine-reuse `reset()` path).
    pub fn reset(&mut self) {
        self.entries.clear();
    }

    /// Number of in-flight misses.
    pub fn in_flight(&self) -> usize {
        self.entries.len()
    }

    /// Whether a new miss can be accepted at `cycle`.
    pub fn has_free(&mut self, cycle: u64) -> bool {
        self.retire(cycle);
        self.entries.len() < self.capacity
    }

    /// Look up an in-flight miss for `line`; returns its ready cycle.
    pub fn lookup(&self, line: u64) -> Option<u64> {
        self.entries.iter().find(|&&(l, _)| l == line).map(|&(_, r)| r)
    }

    /// Allocate an MSHR for `line`, returning `false` if the file is full.
    pub fn allocate(&mut self, cycle: u64, line: u64, ready_cycle: u64) -> bool {
        self.retire(cycle);
        if self.entries.len() >= self.capacity {
            return false;
        }
        self.entries.push((line, ready_cycle));
        true
    }

    /// The earliest cycle at which an MSHR will free up (`cycle` if one is
    /// already free).
    pub fn next_free_cycle(&mut self, cycle: u64) -> u64 {
        self.retire(cycle);
        if self.entries.len() < self.capacity {
            cycle
        } else {
            self.entries.iter().map(|&(_, r)| r).min().unwrap_or(cycle)
        }
    }
}

/// An N-deep coalescing write buffer with a selective-flush policy.
///
/// Stores retire into the buffer immediately when there is room; the buffer
/// drains one entry per `drain_interval` cycles towards the next level. Stores
/// to a line already present coalesce into the existing entry.
#[derive(Debug, Clone)]
pub struct WriteBuffer {
    capacity: usize,
    drain_interval: u64,
    entries: Vec<(u64, u64)>, // (line, drained_at)
    /// Number of stores coalesced into existing entries.
    pub coalesced: u64,
}

impl WriteBuffer {
    /// Create a write buffer of `capacity` entries draining one entry every
    /// `drain_interval` cycles.
    pub fn new(capacity: usize, drain_interval: u64) -> Self {
        Self { capacity, drain_interval, entries: Vec::new(), coalesced: 0 }
    }

    /// Remove entries that have fully drained by `cycle`.
    pub fn retire(&mut self, cycle: u64) {
        self.entries.retain(|&(_, t)| t > cycle);
    }

    /// Drop every buffered store and the coalescing count (the machine-reuse
    /// `reset()` path).
    pub fn reset(&mut self) {
        self.entries.clear();
        self.coalesced = 0;
    }

    /// Current occupancy.
    pub fn occupancy(&self) -> usize {
        self.entries.len()
    }

    /// Accept a store to `line` at `cycle`. Returns the cycle at which the
    /// store is considered complete from the processor's point of view (it may
    /// be later than `cycle` when the buffer is full and must drain first).
    pub fn push(&mut self, cycle: u64, line: u64) -> u64 {
        self.retire(cycle);
        if self.entries.iter().any(|&(l, _)| l == line) {
            self.coalesced += 1;
            return cycle;
        }
        let start = if self.entries.len() < self.capacity {
            cycle
        } else {
            // Full: the store stalls until the oldest entry drains.
            self.entries.iter().map(|&(_, t)| t).min().unwrap_or(cycle)
        };
        let drained_at = start + self.drain_interval;
        self.entries.push((line, drained_at));
        start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_sets() {
        let l1 = CacheConfig::paper_l1(1);
        assert_eq!(l1.sets(), 1024);
        assert_eq!(l1.assoc, 1);
        let l2 = CacheConfig::paper_l2(6);
        assert_eq!(l2.sets(), 4096);
        assert!(l2.write_back);
    }

    #[test]
    fn direct_mapped_hit_miss_and_conflict() {
        let mut c = Cache::new(CacheConfig { size_bytes: 1024, assoc: 1, line_bytes: 32, hit_latency: 1, mshrs: 4, write_back: false });
        assert_eq!(c.access(0x0, false), LookupResult::Miss { dirty_victim: false });
        assert_eq!(c.access(0x4, false), LookupResult::Hit, "same line hits");
        // 1024-byte direct mapped: address 0x400 conflicts with 0x0.
        assert_eq!(c.access(0x400, false), LookupResult::Miss { dirty_victim: false });
        assert_eq!(c.access(0x0, false), LookupResult::Miss { dirty_victim: false }, "evicted by conflict");
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 3);
        assert!(c.stats().miss_ratio() > 0.7);
    }

    #[test]
    fn lru_replacement_in_two_way_set() {
        let mut c = Cache::new(CacheConfig { size_bytes: 128, assoc: 2, line_bytes: 32, hit_latency: 1, mshrs: 4, write_back: true });
        // Two sets; addresses mapping to set 0: 0x0, 0x40, 0x80...
        c.access(0x0, false);
        c.access(0x40, false);
        c.access(0x0, false); // touch 0x0 so 0x40 is LRU
        c.access(0x80, false); // evicts 0x40
        assert!(c.probe(0x0));
        assert!(!c.probe(0x40));
        assert!(c.probe(0x80));
    }

    #[test]
    fn write_back_dirty_victims_are_counted() {
        let mut c = Cache::new(CacheConfig { size_bytes: 64, assoc: 1, line_bytes: 32, hit_latency: 1, mshrs: 4, write_back: true });
        c.access(0x0, true); // miss, allocate dirty
        c.access(0x40, true); // conflicts, evicts dirty victim
        assert_eq!(c.stats().writebacks, 1);
        // Write-through cache never produces dirty victims.
        let mut wt = Cache::new(CacheConfig { size_bytes: 64, assoc: 1, line_bytes: 32, hit_latency: 1, mshrs: 4, write_back: false });
        wt.access(0x0, true);
        wt.access(0x40, true);
        assert_eq!(wt.stats().writebacks, 0);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = Cache::new(CacheConfig::paper_l1(1));
        c.access(0x100, false);
        assert!(c.probe(0x100));
        c.invalidate(0x100);
        assert!(!c.probe(0x100));
    }

    #[test]
    #[should_panic(expected = "cache set count must be a power of two, got 3")]
    fn new_rejects_a_non_power_of_two_set_count() {
        let _ = Cache::new(CacheConfig { size_bytes: 96, assoc: 1, line_bytes: 32, hit_latency: 1, mshrs: 4, write_back: false });
    }

    #[test]
    #[should_panic(expected = "cache line size must be a power of two, got 24 bytes")]
    fn new_rejects_a_non_power_of_two_line_size() {
        let _ = Cache::new(CacheConfig { size_bytes: 96, assoc: 1, line_bytes: 24, hit_latency: 1, mshrs: 4, write_back: false });
    }

    #[test]
    fn mshr_allocation_and_piggyback() {
        let mut m = MshrFile::new(2);
        assert!(m.has_free(0));
        assert!(m.allocate(0, 10, 50));
        assert!(m.allocate(0, 11, 60));
        assert!(!m.allocate(0, 12, 70), "file is full");
        assert_eq!(m.lookup(10), Some(50));
        assert_eq!(m.in_flight(), 2);
        assert_eq!(m.next_free_cycle(5), 50);
        // After cycle 50 the first entry retires.
        assert!(m.has_free(51));
        assert!(m.allocate(51, 12, 90));
    }

    #[test]
    fn write_buffer_coalesces_and_stalls_when_full() {
        let mut wb = WriteBuffer::new(2, 10);
        assert_eq!(wb.push(0, 1), 0);
        assert_eq!(wb.push(0, 1), 0, "same line coalesces");
        assert_eq!(wb.coalesced, 1);
        assert_eq!(wb.push(0, 2), 0);
        // Buffer full: the third distinct line waits for the oldest to drain.
        let start = wb.push(0, 3);
        assert_eq!(start, 10);
        wb.retire(11);
        assert!(wb.occupancy() <= 2);
    }
}
