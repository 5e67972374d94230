//! Idealised memory models used by the kernel-level study (Figure 5).
//!
//! The paper's kernel analysis assumes "an idealized memory system with no
//! bandwidth constraints and a fixed memory latency" of 1 cycle (perfect
//! cache) and repeats the experiment at 50 cycles to study latency tolerance.
//! The only structural resource modelled here is the number of memory ports
//! and, for MOM, the number of vector elements a port can deliver per cycle
//! (2 for the 8-way machine of Table 1).

use crate::{earliest_port, AccessCause, Completion, MemModelKind, MemSystemStats, MemorySystem};
use mom_isa::trace::MemAccess;

/// Fixed-latency memory with a configurable number of ports.
#[derive(Debug, Clone)]
pub struct PerfectMemory {
    latency: u64,
    ports: Vec<u64>,
    elems_per_cycle: usize,
    stats: MemSystemStats,
}

impl PerfectMemory {
    /// Create a perfect memory with `ports` memory ports, each able to deliver
    /// `elems_per_cycle` vector elements per cycle, and a fixed `latency`.
    ///
    /// # Panics
    ///
    /// Panics if `ports` or `elems_per_cycle` is zero.
    pub fn new(latency: u64, ports: usize, elems_per_cycle: usize) -> Self {
        assert!(ports > 0, "at least one memory port is required");
        assert!(elems_per_cycle > 0, "ports must deliver at least one element per cycle");
        Self { latency, ports: vec![0; ports], elems_per_cycle, stats: MemSystemStats::default() }
    }

    /// The configured fixed latency.
    pub fn latency(&self) -> u64 {
        self.latency
    }
}

impl MemorySystem for PerfectMemory {
    #[inline]
    fn access(&mut self, cycle: u64, accesses: &[MemAccess], _vector: bool) -> Completion {
        let n = accesses.len().max(1);
        let (port, start) = earliest_port(&self.ports, cycle);
        let waited = start - cycle;
        self.stats.port_stalls += waited;
        // Ports deliver 1 or 2 elements per cycle in every Table 1
        // configuration; avoid a hardware divide on the per-access path.
        let occupancy = match self.elems_per_cycle {
            1 => n as u64,
            2 => n.div_ceil(2) as u64,
            w => n.div_ceil(w) as u64,
        };
        self.ports[port] = start + occupancy;
        self.stats.requests += 1;
        self.stats.element_accesses += n as u64;
        Completion { done: start + occupancy - 1 + self.latency, waited }
    }

    fn kind(&self) -> MemModelKind {
        MemModelKind::Perfect { latency: self.latency }
    }

    fn last_access_cause(&self) -> AccessCause {
        // There is no hierarchy to miss in: every access completes at the
        // fixed latency, which the attribution probe reports as L1 time.
        AccessCause::L1
    }

    fn stats(&self) -> MemSystemStats {
        self.stats
    }

    fn reset(&mut self) {
        self.ports.fill(0);
        self.stats = MemSystemStats::default();
    }

    fn as_perfect(&mut self) -> Option<&mut PerfectMemory> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mom_isa::trace::MemKind;

    fn acc(addr: u64) -> MemAccess {
        MemAccess { addr, size: 8, kind: MemKind::Load }
    }

    fn done(done: u64) -> Completion {
        Completion { done, waited: 0 }
    }

    #[test]
    fn scalar_access_completes_after_latency() {
        let mut m = PerfectMemory::new(1, 1, 1);
        assert_eq!(m.access(10, &[acc(0)], false), done(11));
        assert_eq!(m.latency(), 1);
        let mut m50 = PerfectMemory::new(50, 1, 1);
        assert_eq!(m50.access(10, &[acc(0)], false), done(60));
    }

    #[test]
    fn port_is_busy_until_occupancy_ends() {
        let mut m = PerfectMemory::new(1, 1, 1);
        let elems: Vec<_> = (0..16).map(|i| acc(i * 32)).collect();
        // 16 elements at 1 elem/cycle occupy the single port for 16 cycles.
        assert_eq!(m.access(0, &elems, true), done(16));
        assert_eq!(m.access(1, &[acc(0)], false), Completion { done: 17, waited: 15 }, "waits for the port");
        assert_eq!(m.access(17, &[acc(0)], false), done(18));
        assert_eq!(m.stats().port_stalls, 15);
        assert_eq!(m.stats().element_accesses, 18);
    }

    #[test]
    fn wide_ports_cut_occupancy() {
        let mut m = PerfectMemory::new(1, 1, 2);
        let elems: Vec<_> = (0..16).map(|i| acc(i * 32)).collect();
        assert_eq!(m.access(0, &elems, true), done(8));
    }

    #[test]
    fn multiple_ports_serve_parallel_requests() {
        let mut m = PerfectMemory::new(1, 2, 1);
        assert_eq!(m.access(0, &[acc(0)], false), done(1));
        assert_eq!(m.access(0, &[acc(8)], false), done(1));
        assert_eq!(m.access(0, &[acc(16)], false), Completion { done: 2, waited: 1 }, "only two ports");
    }

    #[test]
    fn kind_reports_latency() {
        let m = PerfectMemory::new(50, 1, 1);
        assert_eq!(m.kind(), MemModelKind::Perfect { latency: 50 });
    }

    #[test]
    fn reset_frees_ports_and_clears_stats() {
        let mut m = PerfectMemory::new(1, 1, 1);
        let elems: Vec<_> = (0..16).map(|i| acc(i * 32)).collect();
        assert_eq!(m.access(0, &elems, true), done(16));
        assert_eq!(m.access(1, &[acc(0)], false).waited, 15, "port busy before reset");
        m.reset();
        assert_eq!(m.stats(), MemSystemStats::default());
        assert_eq!(m.access(1, &[acc(0)], false), done(2), "port idle again after reset");
    }
}
