//! Realistic cache hierarchies: the conventional/multi-address organisation
//! and the vector-cache / collapsing-buffer organisation (Figure 6, Table 3).
//!
//! All four whole-program memory models share the same L1 + L2 + DRDRAM
//! backbone (paper Section 4.2.1): a 32 KB direct-mapped write-through L1 with
//! 32-byte lines, a 1 MB 2-way write-back L2 with 128-byte lines, 8 MSHRs per
//! level, an 8-deep coalescing write buffer and a Direct Rambus main memory.
//! They differ in how a MOM vector access (a set of strided 64-bit element
//! accesses) is routed:
//!
//! * **Conventional** — only scalar/MMX accesses exist; each goes through one
//!   L1 port and one bank.
//! * **Multi-address** — a vector access reserves *all* L1 ports and spreads
//!   its elements across them; bank conflicts serialise elements that fall in
//!   the same bank.
//! * **Vector cache** — vector accesses bypass L1 and read whole L2 lines
//!   (two interleaved banks per transaction); effective for small strides.
//! * **Collapsing buffer** — like the vector cache but able to gather
//!   non-contiguous elements spread over two consecutive lines, tolerating
//!   larger strides before degenerating to element-at-a-time.

use crate::cache::{Cache, CacheConfig, LookupResult, MshrFile, WriteBuffer};
use crate::config::{MemModelKind, PortConfig};
use crate::dram::{Dram, DramConfig};
use crate::{earliest_port, AccessCause, Completion, MemSystemStats, MemorySystem};
use mom_isa::trace::{MemAccess, MemKind};

/// A realistic two-level hierarchy with a configurable vector-access path.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    kind: MemModelKind,
    ports: PortConfig,
    l1: Cache,
    l1_mshrs: MshrFile,
    l2: Cache,
    l2_mshrs: MshrFile,
    write_buffer: WriteBuffer,
    dram: Dram,
    l1_port_busy: Vec<u64>,
    l1_bank_busy: Vec<u64>,
    vec_port_busy: Vec<u64>,
    /// Reused by every vector-cache access to collect its distinct L2 lines.
    line_scratch: Vec<u64>,
    stats: MemSystemStats,
    last_cause: AccessCause,
}

impl Hierarchy {
    /// Build a hierarchy of the given kind for a machine of the given issue
    /// width, using the paper's cache parameters and Table 3 port counts.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is [`MemModelKind::Perfect`]; use
    /// [`crate::perfect::PerfectMemory`] for that.
    pub fn new(kind: MemModelKind, way: usize) -> Self {
        let ports = match kind {
            MemModelKind::Perfect { .. } => {
                panic!("use PerfectMemory for the perfect-memory model")
            }
            MemModelKind::Conventional | MemModelKind::MultiAddress => PortConfig::conventional(way),
            MemModelKind::VectorCache => PortConfig::vector_cache(way, false),
            MemModelKind::CollapsingBuffer => PortConfig::vector_cache(way, true),
        };
        Self::with_ports(kind, ports)
    }

    /// Build a hierarchy with an explicit port configuration.
    ///
    /// # Panics
    ///
    /// Panics if the L1 bank count is not a power of two (every Table 3
    /// configuration's is), because the bank is picked with a mask.
    pub fn with_ports(kind: MemModelKind, ports: PortConfig) -> Self {
        let banks = ports.l1_banks.max(1);
        assert!(banks.is_power_of_two(), "L1 bank count must be a power of two, got {banks}");
        let l1 = Cache::new(CacheConfig::paper_l1(ports.l1_latency));
        let l2 = Cache::new(CacheConfig::paper_l2(ports.l2_latency.max(6)));
        Self {
            kind,
            ports,
            l1,
            l1_mshrs: MshrFile::new(8),
            l2,
            l2_mshrs: MshrFile::new(8),
            write_buffer: WriteBuffer::new(8, 6),
            dram: Dram::new(DramConfig::default()),
            l1_port_busy: vec![0; ports.l1_ports.max(1)],
            l1_bank_busy: vec![0; banks],
            vec_port_busy: vec![0; ports.l2_vector_ports.max(1)],
            line_scratch: Vec::new(),
            stats: MemSystemStats::default(),
            last_cause: AccessCause::default(),
        }
    }

    /// The port configuration in use.
    pub fn ports(&self) -> &PortConfig {
        &self.ports
    }

    /// Fill from L2 (and DRAM beyond it), returning the cycle the line is
    /// available at the requesting level together with the dominant cause of
    /// that cycle (L2 hit, DRAM transfer, or an L2 MSHR wait).
    fn fill_from_l2(&mut self, start: u64, addr: u64, is_write: bool) -> (u64, AccessCause) {
        let l2_ready = start + self.ports.l2_latency;
        match self.l2.access(addr, is_write) {
            LookupResult::Hit => (l2_ready, AccessCause::L2),
            LookupResult::Miss { dirty_victim } => {
                let line = self.l2.line_of(addr);
                if let Some(ready) = self.l2_mshrs.lookup(line) {
                    // Merged into an in-flight DRAM fill.
                    return (ready.max(l2_ready), AccessCause::Dram);
                }
                if dirty_victim {
                    // The write-back occupies the channel but does not delay
                    // the demand fill's data return beyond channel queuing.
                    self.dram.transfer_line(l2_ready);
                }
                let dram_ready = self.dram.transfer_line(l2_ready);
                if !self.l2_mshrs.allocate(start, line, dram_ready) {
                    let freed = self.l2_mshrs.next_free_cycle(start);
                    let dram_ready = self.dram.transfer_line(freed);
                    self.l2_mshrs.allocate(freed, line, dram_ready);
                    return (dram_ready, AccessCause::MshrFull);
                }
                (dram_ready, AccessCause::Dram)
            }
        }
    }

    /// One element access through the banked L1 (the scalar path, also used
    /// per-element by the multi-address vector path). Returns the completion
    /// cycle and its dominant cause. `start` must already account for port
    /// availability.
    fn l1_element_access(&mut self, start: u64, acc: &MemAccess) -> (u64, AccessCause) {
        // Bank conflict: serialise on the bank.
        let bank = (self.l1.line_of(acc.addr) & (self.l1_bank_busy.len() as u64 - 1)) as usize;
        let start = start.max(self.l1_bank_busy[bank]);
        if start > self.l1_bank_busy[bank] && self.l1_bank_busy[bank] != 0 {
            // no conflict
        } else if self.l1_bank_busy[bank] > start {
            self.stats.bank_conflicts += 1;
        }
        self.l1_bank_busy[bank] = start + 1;

        // Unaligned accesses are split into two aligned accesses (paper
        // Section 4.2.1); model the extra occupancy as one extra cycle.
        let unaligned = acc.size > 1 && !acc.addr.is_multiple_of(acc.size as u64);
        let align_penalty = if unaligned { 1 } else { 0 };

        match acc.kind {
            MemKind::Load => match self.l1.access(acc.addr, false) {
                LookupResult::Hit => (start + self.ports.l1_latency + align_penalty, AccessCause::L1),
                LookupResult::Miss { .. } => {
                    let line = self.l1.line_of(acc.addr);
                    if let Some(ready) = self.l1_mshrs.lookup(line) {
                        // Merged into an in-flight L1 fill (L2 speed or beyond).
                        return (ready.max(start + self.ports.l1_latency), AccessCause::L2);
                    }
                    let (mshr_start, mshr_waited) = if self.l1_mshrs.has_free(start) {
                        (start, false)
                    } else {
                        self.stats.mshr_stalls += 1;
                        (self.l1_mshrs.next_free_cycle(start), true)
                    };
                    let (ready, fill_cause) =
                        self.fill_from_l2(mshr_start + self.ports.l1_latency, acc.addr, false);
                    self.l1_mshrs.allocate(mshr_start, line, ready);
                    let cause = if mshr_waited { AccessCause::MshrFull } else { fill_cause };
                    (ready + align_penalty, cause)
                }
            },
            MemKind::Store => {
                // Write-through, no-allocate L1: update the tags only if the
                // line is already resident, then retire into the write buffer.
                self.l1.touch(acc.addr, true);
                let line = self.l2.line_of(acc.addr);
                let accepted = self.write_buffer.push(start, line);
                // The write-through traffic eventually updates L2.
                self.l2.access(acc.addr, true);
                (accepted + 1 + align_penalty, AccessCause::WriteBuffer)
            }
        }
    }

    /// Issue a request presented at `cycle` at `start`, the first cycle its
    /// port is free: drain the write buffer to `start` and count the request
    /// and its wait.
    fn issue(&mut self, cycle: u64, start: u64, elements: usize) {
        self.write_buffer.retire(start);
        self.stats.port_stalls += start - cycle;
        self.stats.requests += 1;
        self.stats.element_accesses += elements as u64;
    }

    /// A scalar access: one L1 port, the one that is free first, serving
    /// the first element.
    fn scalar_access(&mut self, cycle: u64, accesses: &[MemAccess]) -> (u64, u64) {
        let (port, start) = earliest_port(&self.l1_port_busy, cycle);
        self.issue(cycle, start, accesses.len());
        self.l1_port_busy[port] = start + 1;
        let (done, cause) = self.l1_element_access(start, &accesses[0]);
        self.last_cause = cause;
        (start, done)
    }

    /// A vector access through the multi-address path: reserve every L1 port
    /// and spread elements across them. It issues once the last busy port
    /// frees.
    fn multi_address_access(&mut self, cycle: u64, accesses: &[MemAccess]) -> (u64, u64) {
        let start = self.l1_port_busy.iter().fold(cycle, |t, &busy| t.max(busy));
        self.issue(cycle, start, accesses.len());
        // Element `i` goes to port `i % nports` one cycle after the previous
        // element on that port, so row `r` of `nports` elements starts at
        // `start + r` and each port ends up busy for as many cycles as it
        // took elements.
        let nports = self.l1_port_busy.len();
        let mut completion = start;
        let mut cause = AccessCause::L1;
        for (row_start, row) in (start..).zip(accesses.chunks(nports)) {
            for acc in row {
                let (done, elem_cause) = self.l1_element_access(row_start, acc);
                // The binding element (latest completion, first wins ties)
                // determines the cause of the whole vector access.
                if done > completion {
                    completion = done;
                    cause = elem_cause;
                }
            }
        }
        let (full_rows, rest) = (accesses.len() / nports, accesses.len() % nports);
        for (p, busy) in self.l1_port_busy.iter_mut().enumerate() {
            *busy = start + (full_rows + usize::from(p < rest)) as u64;
        }
        self.last_cause = cause;
        (start, completion)
    }

    /// A vector access through the vector-cache / collapsing-buffer path, on
    /// the vector port that is free first.
    fn vector_cache_access(&mut self, presented: u64, accesses: &[MemAccess]) -> (u64, u64) {
        let (port_idx, cycle) = earliest_port(&self.vec_port_busy, presented);
        self.issue(presented, cycle, accesses.len());

        // Infer the row stride from the first two element addresses.
        let stride = if accesses.len() >= 2 {
            accesses[1].addr.abs_diff(accesses[0].addr)
        } else {
            8
        };
        let line_bytes = self.l2.config().line_bytes as u64;
        let stride_limit = match self.kind {
            // The vector cache captures spatial locality only for small
            // strides (consecutive or near-consecutive rows).
            MemModelKind::VectorCache => 16,
            // The collapsing buffer gathers elements across two consecutive
            // lines even when they are not adjacent.
            MemModelKind::CollapsingBuffer => line_bytes,
            _ => 16,
        };

        let mut lines = std::mem::take(&mut self.line_scratch);
        lines.clear();
        lines.extend(accesses.iter().map(|a| self.l2.line_of(a.addr)));
        // Positive strides already list the lines in ascending order.
        if !lines.is_sorted() {
            lines.sort_unstable();
        }
        lines.dedup();

        let transactions = if stride <= stride_limit {
            // Each transaction fetches two interleaved-bank lines.
            lines.len().div_ceil(self.ports.l2_banks.max(1))
        } else {
            // Large strides: every element is its own transaction.
            accesses.len()
        };
        self.stats.vector_transactions += transactions as u64;

        let is_store = accesses.iter().any(|a| a.kind == MemKind::Store);
        let mut data_ready = cycle;
        let mut cause = AccessCause::L2;
        for chunk in lines.chunks(self.ports.l2_banks.max(1)) {
            for &line in chunk {
                let addr = line * line_bytes;
                let (ready, fill_cause) = self.fill_from_l2(cycle, addr, is_store);
                // The binding line (latest ready, first wins ties) determines
                // the cause of the whole transaction set.
                if ready > data_ready {
                    data_ready = ready;
                    cause = fill_cause;
                }
                if is_store {
                    // Exclusive-bit coherence: the scalar L1 must not keep a
                    // stale copy of a line written by the vector path.
                    self.l1.invalidate(addr);
                }
            }
        }
        self.line_scratch = lines;

        // Port occupancy: the vector port delivers `l2_vector_width` elements
        // per cycle, but never faster than one transaction per cycle.
        let width = self.ports.l2_vector_width.max(1);
        let occupancy = (accesses.len().div_ceil(width)).max(transactions) as u64;
        self.vec_port_busy[port_idx] = cycle + occupancy;

        // When port occupancy outlasts the fills, the bottleneck is the L2
        // vector port's delivery bandwidth, not a particular miss.
        if cycle + occupancy - 1 > data_ready {
            cause = AccessCause::L2;
        }
        self.last_cause = cause;
        (cycle, data_ready.max(cycle + occupancy - 1))
    }
}

impl MemorySystem for Hierarchy {
    fn access(&mut self, cycle: u64, accesses: &[MemAccess], vector: bool) -> Completion {
        let (start, done) = if accesses.is_empty() {
            self.write_buffer.retire(cycle);
            self.last_cause = AccessCause::L1;
            (cycle, cycle)
        } else if vector && accesses.len() > 1 {
            match self.kind {
                MemModelKind::VectorCache | MemModelKind::CollapsingBuffer => {
                    self.vector_cache_access(cycle, accesses)
                }
                _ => self.multi_address_access(cycle, accesses),
            }
        } else {
            self.scalar_access(cycle, accesses)
        };
        Completion { done, waited: start - cycle }
    }

    fn kind(&self) -> MemModelKind {
        self.kind
    }

    fn last_access_cause(&self) -> AccessCause {
        self.last_cause
    }

    fn reset(&mut self) {
        self.l1.reset();
        self.l1_mshrs.reset();
        self.l2.reset();
        self.l2_mshrs.reset();
        self.write_buffer.reset();
        self.dram.reset();
        self.l1_port_busy.fill(0);
        self.l1_bank_busy.fill(0);
        self.vec_port_busy.fill(0);
        self.stats = MemSystemStats::default();
        self.last_cause = AccessCause::default();
    }

    fn stats(&self) -> MemSystemStats {
        let mut s = self.stats;
        s.l1 = self.l1.stats();
        s.l2 = self.l2.stats();
        s.dram = self.dram.stats();
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load(addr: u64) -> MemAccess {
        MemAccess { addr, size: 8, kind: MemKind::Load }
    }

    fn store(addr: u64) -> MemAccess {
        MemAccess { addr, size: 8, kind: MemKind::Store }
    }

    #[test]
    fn scalar_load_hit_after_miss() {
        let mut h = Hierarchy::new(MemModelKind::Conventional, 4);
        let miss_done = h.access(0, &[load(0x1000)], false).done;
        assert!(miss_done > 10, "first access misses all the way to DRAM: {miss_done}");
        let hit_done = h.access(miss_done + 1, &[load(0x1008)], false).done;
        assert_eq!(hit_done, miss_done + 1 + h.ports().l1_latency);
        let s = h.stats();
        assert_eq!(s.l1.hits, 1);
        assert_eq!(s.l1.misses, 1);
    }

    #[test]
    fn l2_hit_is_cheaper_than_dram() {
        let mut h = Hierarchy::new(MemModelKind::Conventional, 4);
        // First access brings the 128-byte L2 line; a later access to a
        // different 32-byte L1 line within the same L2 line hits in L2.
        let first = h.access(0, &[load(0x2000)], false).done;
        let second = h.access(first + 1, &[load(0x2040)], false).done;
        let l2_latency = second - (first + 1);
        assert!(l2_latency <= h.ports().l2_latency + h.ports().l1_latency + 1, "L2 hit latency {l2_latency}");
        assert!(l2_latency < first, "L2 hit much cheaper than the DRAM miss");
    }

    #[test]
    fn stores_go_through_the_write_buffer_quickly() {
        let mut h = Hierarchy::new(MemModelKind::Conventional, 4);
        let done = h.access(0, &[store(0x3000)], false).done;
        assert!(done <= 2, "store retires into the write buffer: {done}");
    }

    #[test]
    fn scalar_port_contention_stalls() {
        let mut h = Hierarchy::new(MemModelKind::Conventional, 1);
        assert_eq!(h.access(0, &[load(0x100)], false).waited, 0);
        assert_eq!(h.access(0, &[load(0x200)], false).waited, 1, "single port busy for a cycle");
        assert_eq!(h.stats().port_stalls, 1);
    }

    #[test]
    fn multi_address_spreads_elements_over_ports() {
        let mut h = Hierarchy::new(MemModelKind::MultiAddress, 4);
        // Warm the caches so the comparison is about port parallelism.
        let accesses: Vec<_> = (0..16).map(|i| load(0x4000 + i * 32)).collect();
        let warm = h.access(0, &accesses, true).done;
        let t0 = warm + 10;
        let done = h.access(t0, &accesses, true).done;
        // 16 elements over 2 ports at 1 element/cycle: about 8 cycles of
        // occupancy plus the hit latency.
        assert!(done - t0 <= 16, "multi-address vector access took {} cycles", done - t0);
        // The vector access holds both ports for 8 cycles, so a second one
        // presented a cycle later waits 7.
        assert_eq!(h.access(t0 + 1, &accesses, true).waited, 7);
    }

    #[test]
    fn vector_cache_groups_unit_stride_lines() {
        let mut h = Hierarchy::new(MemModelKind::VectorCache, 4);
        // 16 consecutive 8-byte rows = 128 bytes = 1 L2 line.
        let accesses: Vec<_> = (0..16).map(|i| load(0x8000 + i * 8)).collect();
        let warm = h.access(0, &accesses, true).done;
        let t0 = warm + 10;
        h.access(t0, &accesses, true);
        let s = h.stats();
        // Two requests, each a single line-pair transaction.
        assert!(s.vector_transactions <= 2, "vector transactions {}", s.vector_transactions);
        // Vector path bypasses L1 entirely.
        assert_eq!(s.l1.accesses(), 0);
    }

    #[test]
    fn vector_cache_degrades_with_large_strides_but_collapsing_buffer_copes() {
        let accesses: Vec<_> = (0..16).map(|i| load(0x10000 + i * 64)).collect();
        let mut vc = Hierarchy::new(MemModelKind::VectorCache, 4);
        let mut col = Hierarchy::new(MemModelKind::CollapsingBuffer, 4);
        vc.access(0, &accesses, true);
        col.access(0, &accesses, true);
        assert!(
            vc.stats().vector_transactions > col.stats().vector_transactions,
            "vector cache ({}) should need more transactions than the collapsing buffer ({}) at stride 64",
            vc.stats().vector_transactions,
            col.stats().vector_transactions
        );

        // At very large strides (beyond the L2 line) both degenerate.
        let far: Vec<_> = (0..16).map(|i| load(0x40000 + i * 512)).collect();
        let mut col2 = Hierarchy::new(MemModelKind::CollapsingBuffer, 4);
        col2.access(0, &far, true);
        assert_eq!(col2.stats().vector_transactions, 16);
    }

    #[test]
    fn vector_store_invalidates_l1_copy() {
        let mut h = Hierarchy::new(MemModelKind::VectorCache, 4);
        // Bring a line into L1 via the scalar path.
        h.access(0, &[load(0x9000)], false);
        assert_eq!(h.l1.stats().misses, 1);
        // Vector store to the same line must invalidate it.
        let stores: Vec<_> = (0..16).map(|i| store(0x9000 + i * 8)).collect();
        h.access(100, &stores, true);
        // A later scalar load misses again (the line was invalidated).
        h.access(300, &[load(0x9000)], false);
        assert_eq!(h.l1.stats().misses, 2);
    }

    #[test]
    #[should_panic]
    fn perfect_kind_is_rejected() {
        let _ = Hierarchy::new(MemModelKind::Perfect { latency: 1 }, 4);
    }

    #[test]
    #[should_panic(expected = "L1 bank count must be a power of two, got 3")]
    fn with_ports_rejects_a_non_power_of_two_bank_count() {
        let ports = PortConfig { l1_banks: 3, ..PortConfig::conventional(4) };
        let _ = Hierarchy::with_ports(MemModelKind::Conventional, ports);
    }

    #[test]
    fn reset_restores_the_just_built_state() {
        // Replay the same access sequence on a fresh hierarchy and on one
        // that already served different traffic and was reset: completion
        // cycles and statistics must be identical at every step.
        let sequence: Vec<(u64, Vec<MemAccess>, bool)> = vec![
            (0, vec![load(0x1000)], false),
            (40, (0..16).map(|i| load(0x8000 + i * 8)).collect(), true),
            (90, vec![store(0x1000)], false),
            (130, (0..16).map(|i| load(0x8000 + i * 64)).collect(), true),
            (400, vec![load(0x1008)], false),
        ];
        for kind in [MemModelKind::Conventional, MemModelKind::MultiAddress, MemModelKind::VectorCache, MemModelKind::CollapsingBuffer] {
            let mut fresh = Hierarchy::new(kind, 4);
            let mut reused = Hierarchy::new(kind, 4);
            // Dirty the reused hierarchy with unrelated traffic.
            for i in 0..32 {
                let _ = reused.access(i * 3, &[load(0x40000 + i * 128)], false);
            }
            reused.reset();
            assert_eq!(reused.stats(), MemSystemStats::default(), "{kind}: stats cleared");
            for (cycle, accesses, vector) in &sequence {
                let a = fresh.access(*cycle, accesses, *vector);
                let b = reused.access(*cycle, accesses, *vector);
                assert_eq!(a, b, "{kind}: completion diverged after reset");
            }
            assert_eq!(fresh.stats(), reused.stats(), "{kind}: stats diverged after reset");
        }
    }
}
