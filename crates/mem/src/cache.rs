//! Set-associative cache tag model with LRU replacement, MSHRs and a
//! coalescing write buffer.
//!
//! The model tracks *which lines are resident* and *how many misses are in
//! flight*; data values are never stored (the functional interpreter already
//! produced them). Timing consumers combine the hit/miss answers with the port
//! and bank occupancy tracked by the memory-system front-ends.

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

/// Flag bit of a packed way word: the way holds a line.
const VALID: u32 = 1;
/// Flag bit of a packed way word: the line was written (write-back caches).
const DIRTY: u32 = 2;
/// The flag bits sit below the tag: a way word is `tag << FLAG_BITS | flags`.
const FLAG_BITS: u32 = 2;
/// Bits a tag may use in a way word: the 32-bit word less the flag bits.
const TAG_BITS: u32 = u32::BITS - FLAG_BITS;

/// A set-associative cache tag array with LRU replacement.
///
/// Each way is one `u32` word, `tag << 2 | DIRTY | VALID`; an invalid way is
/// the word 0. A tag therefore has at most 30 bits, which bounds the
/// addresses a cache accepts (see [`Cache::new`]); the paper's L2 keeps its
/// 8,192 ways in 32 KiB and the L1 its 1,024 in 4 KiB. The tag array is one
/// set-major `Vec`: set `s` owns the `assoc` words starting at `s * assoc`,
/// kept in recency order — most recently used first, invalid ways last. A
/// hit moves its way to the front; a miss fills the last way (an invalid one
/// if the set has any, else the least recently used line) and moves it to
/// the front. That is exact LRU without timestamps. Line size and set count
/// are powers of two (every Table 3 cache is), so locating a line is two
/// shifts and a mask.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    ways: Vec<u32>,
    /// `log2(line_bytes)`: an address shifted right by this is its line.
    line_shift: u32,
    /// `log2(sets)`: a line shifted right by this is its tag.
    set_shift: u32,
    stats: CacheStats,
}

impl Cache {
    /// Create an empty cache.
    ///
    /// The cache accepts addresses below `2^(30 + log2(line_bytes) +
    /// log2(sets))`, whose tags fit the 30 tag bits of a way word: `2^45`
    /// for the paper's L1 and `2^49` for its L2. Every lookup asserts this
    /// (see [`Cache::access`]).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (zero sets or associativity),
    /// if its line size or set count is not a power of two, or if line size
    /// times set count is below 4, which would leave some 32-bit address
    /// without room for its tag beside the two flag bits.
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
        let (line_shift, set_shift) = (config.line_bytes.trailing_zeros(), sets.trailing_zeros());
        // A 32-bit address has a tag of `32 - line_shift - set_shift` bits;
        // the way word keeps `TAG_BITS` of them.
        assert!(
            line_shift + set_shift >= FLAG_BITS,
            "cache line size x set count must be at least 4 to pack a tag beside two flag bits, got {} x {sets}",
            config.line_bytes
        );
        Self { config, ways: vec![0; sets * config.assoc], line_shift, set_shift, stats: CacheStats::default() }
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

    /// The index of the first way of `addr`'s set, and the valid, clean way
    /// word of its line.
    ///
    /// # Panics
    ///
    /// Panics, naming `addr`, if its tag needs more than 30 bits: the way
    /// word could not hold it, and a truncated tag would hit another line.
    fn locate(&self, addr: u64) -> (usize, u32) {
        let (set, tag) = self.set_and_tag(addr);
        assert!(
            tag >> TAG_BITS == 0,
            "address {addr:#x} is beyond this cache's reach: its tag {tag:#x} needs more than {TAG_BITS} bits"
        );
        (set * self.config.assoc, (tag as u32) << FLAG_BITS | VALID)
    }

    /// The position of `word`'s line among `ways`, whatever its dirty bit.
    fn position(ways: &[u32], word: u32) -> Option<usize> {
        ways.iter().position(|&w| w & !DIRTY == word)
    }

    /// Put `word` at the front of `ways`, shifting the first `k` ways back
    /// by one (overwriting the way at `k`).
    fn promote(ways: &mut [u32], k: usize, word: u32) {
        for j in (0..k).rev() {
            ways[j + 1] = ways[j];
        }
        ways[0] = word;
    }

    /// Whether the line containing `addr` is currently resident (no state
    /// change, no statistics update).
    pub fn probe(&self, addr: u64) -> bool {
        let (start, word) = self.locate(addr);
        Self::position(&self.ways[start..start + self.config.assoc], word).is_some()
    }

    /// Look up (and on a miss, allocate) the line containing `addr`.
    ///
    /// `is_write` marks the line dirty on write-back caches.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is beyond the largest address [`Cache::new`]
    /// documents; so do [`Cache::probe`], [`Cache::touch`] and
    /// [`Cache::invalidate`].
    pub fn access(&mut self, addr: u64, is_write: bool) -> LookupResult {
        if self.touch(addr, is_write) {
            return LookupResult::Hit;
        }
        let flags = if is_write && self.config.write_back { DIRTY } else { 0 };
        let (start, word) = self.locate(addr);
        let ways = &mut self.ways[start..start + self.config.assoc];
        // The last way is an invalid one if the set has any (the word 0, so
        // not dirty), else the least recently used line.
        let last = ways.len() - 1;
        let dirty_victim = ways[last] & DIRTY != 0;
        Self::promote(ways, last, word | flags);
        self.stats.misses += 1;
        if dirty_victim {
            self.stats.writebacks += 1;
        }
        LookupResult::Miss { dirty_victim }
    }

    /// Count a hit on the line containing `addr` exactly as [`Cache::access`]
    /// would when the line is resident, and change nothing when it is not:
    /// a no-allocate store's update in one lookup. Returns whether it hit.
    pub fn touch(&mut self, addr: u64, is_write: bool) -> bool {
        let flags = if is_write && self.config.write_back { DIRTY } else { 0 };
        let (start, word) = self.locate(addr);
        let ways = &mut self.ways[start..start + self.config.assoc];
        let Some(k) = Self::position(ways, word) else { return false };
        Self::promote(ways, k, ways[k] | flags);
        self.stats.hits += 1;
        true
    }

    /// Restore the cache to its just-built state — every line invalid,
    /// statistics zeroed — without reallocating the tag arrays. Part of the
    /// memory-system `reset()` contract that lets machines be reused across
    /// experiment cells.
    pub fn reset(&mut self) {
        self.ways.fill(0);
        self.stats = CacheStats::default();
    }

    /// Invalidate the line containing `addr` (used by the inclusion/coherence
    /// policy between the scalar L1 and the vector path). The freed way moves
    /// behind every valid line of its set.
    pub fn invalidate(&mut self, addr: u64) {
        let (start, word) = self.locate(addr);
        let ways = &mut self.ways[start..start + self.config.assoc];
        if let Some(k) = Self::position(ways, word) {
            ways.copy_within(k + 1.., k);
            let last = ways.len() - 1;
            ways[last] = 0;
        }
    }
}

/// The smallest ready cycle of `entries` (`u64::MAX` when empty): the first
/// cycle at which a `retain(ready > cycle)` can remove anything.
fn earliest(entries: &[(u64, u64)]) -> u64 {
    entries.iter().map(|&(_, ready)| ready).min().unwrap_or(u64::MAX)
}

/// A file of Miss Status Holding Registers.
///
/// Each in-flight line miss occupies one MSHR until the fill returns. A second
/// miss to the same line piggybacks on the existing entry.
#[derive(Debug, Clone)]
pub struct MshrFile {
    capacity: usize,
    entries: Vec<(u64, u64)>, // (line, ready_cycle)
    /// The earliest ready cycle in `entries` (`u64::MAX` when empty).
    earliest: u64,
}

impl MshrFile {
    /// Create an MSHR file with the given number of entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "an MSHR file needs at least one entry");
        Self { capacity, entries: Vec::new(), earliest: u64::MAX }
    }

    /// Remove entries whose fill has returned by `cycle`.
    pub fn retire(&mut self, cycle: u64) {
        if cycle >= self.earliest {
            self.entries.retain(|&(_, ready)| ready > cycle);
            self.earliest = earliest(&self.entries);
        }
    }

    /// Drop every in-flight miss (the machine-reuse `reset()` path).
    pub fn reset(&mut self) {
        self.entries.clear();
        self.earliest = u64::MAX;
    }

    /// Number of in-flight misses.
    #[cfg(test)]
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
        self.earliest = self.earliest.min(ready_cycle);
        true
    }

    /// The earliest cycle at which an MSHR will free up (`cycle` if one is
    /// already free).
    pub fn next_free_cycle(&mut self, cycle: u64) -> u64 {
        self.retire(cycle);
        if self.entries.len() < self.capacity {
            cycle
        } else {
            self.earliest
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
    /// The earliest drain cycle in `entries` (`u64::MAX` when empty).
    earliest: u64,
    /// Number of stores coalesced into existing entries.
    pub coalesced: u64,
}

impl WriteBuffer {
    /// Create a write buffer of `capacity` entries draining one entry every
    /// `drain_interval` cycles.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, drain_interval: u64) -> Self {
        assert!(capacity > 0, "a write buffer needs at least one entry");
        Self { capacity, drain_interval, entries: Vec::new(), earliest: u64::MAX, coalesced: 0 }
    }

    /// Remove entries that have fully drained by `cycle`.
    pub fn retire(&mut self, cycle: u64) {
        if cycle >= self.earliest {
            self.entries.retain(|&(_, t)| t > cycle);
            self.earliest = earliest(&self.entries);
        }
    }

    /// Drop every buffered store and the coalescing count (the machine-reuse
    /// `reset()` path).
    pub fn reset(&mut self) {
        self.entries.clear();
        self.earliest = u64::MAX;
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
        // Full: the store stalls until the oldest entry drains.
        let start = if self.entries.len() < self.capacity { cycle } else { self.earliest };
        let drained_at = start + self.drain_interval;
        self.entries.push((line, drained_at));
        self.earliest = self.earliest.min(drained_at);
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
    #[should_panic(expected = "cache line size x set count must be at least 4 to pack a tag beside two flag bits, got 1 x 2")]
    fn new_rejects_a_tag_too_wide_for_the_way_word() {
        let _ = Cache::new(CacheConfig { size_bytes: 2, assoc: 1, line_bytes: 1, hit_latency: 1, mshrs: 4, write_back: false });
    }

    #[test]
    fn paper_tag_arrays_hold_one_u32_per_way() {
        let l2 = Cache::new(CacheConfig::paper_l2(6));
        assert_eq!(l2.ways.len(), 8192);
        assert_eq!(std::mem::size_of_val(l2.ways.as_slice()), 32 * 1024);
        let l1 = Cache::new(CacheConfig::paper_l1(1));
        assert_eq!(std::mem::size_of_val(l1.ways.as_slice()), 4 * 1024);
    }

    #[test]
    fn the_largest_documented_address_is_accepted() {
        // The paper's L1: 32-byte lines and 1,024 sets leave 30 tag bits
        // for addresses below 2^45.
        let mut c = Cache::new(CacheConfig::paper_l1(1));
        let top = (1u64 << 45) - 1;
        assert_eq!(c.access(top, false), LookupResult::Miss { dirty_victim: false });
        assert!(c.probe(top));
        assert!(!c.probe(top & !(1 << 44)), "the tag's top bit tells the lines apart");
    }

    #[test]
    #[should_panic(expected = "address 0x200000000000 is beyond this cache's reach")]
    fn an_address_whose_tag_needs_31_bits_panics_instead_of_aliasing() {
        let mut c = Cache::new(CacheConfig::paper_l1(1));
        c.access(0, false);
        // Tag 2^30 truncated to 30 bits would be tag 0: a hit on line 0.
        c.access(1 << 45, false);
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

    proptest::proptest! {
        #![proptest_config(proptest::prelude::Config::with_cases(64))]

        #[test]
        fn mshr_occupancy_never_exceeds_capacity(
            ops in proptest::collection::vec((0u64..64, 1u64..100), 1..200),
        ) {
            let mut mshrs = MshrFile::new(8);
            let mut cycle = 0u64;
            for (line, delay) in ops {
                cycle += 1;
                if mshrs.has_free(cycle) {
                    mshrs.allocate(cycle, line, cycle + delay);
                }
                proptest::prop_assert!(mshrs.in_flight() <= 8);
            }
        }
    }
}
