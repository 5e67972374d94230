//! # mom-mem — memory hierarchies for the MOM reproduction
//!
//! This crate models every memory system evaluated in the paper:
//!
//! * [`perfect::PerfectMemory`] — the idealised fixed-latency memory of the
//!   kernel study (1-cycle "perfect cache" and the 50-cycle latency-tolerance
//!   experiment);
//! * [`hierarchy::Hierarchy`] — the realistic two-level hierarchy (32 KB
//!   write-through L1, 1 MB write-back L2, MSHRs, coalescing write buffer and
//!   Direct Rambus DRAM) with the four front-ends of Figure 6/Table 3:
//!   conventional, multi-address, vector cache and collapsing buffer;
//! * [`cache`] / [`dram`] — the underlying tag-array, MSHR, write-buffer and
//!   DRDRAM building blocks;
//! * [`config`] — Table 3 port configurations and the
//!   [`MemModelKind`] selector.
//!
//! The timing simulator in `mom-cpu` talks to all of them through the
//! [`MemorySystem`] trait: it presents the element accesses of one memory
//! instruction and receives its completion cycle and how long it waited for
//! a port.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod config;
pub mod dram;
pub mod hierarchy;
pub mod perfect;

pub use config::{MemModelKind, PortConfig};
pub use hierarchy::Hierarchy;
pub use perfect::PerfectMemory;

use mom_isa::trace::MemAccess;

/// Aggregate statistics of a memory system.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MemSystemStats {
    /// Memory instructions presented to the system.
    pub requests: u64,
    /// Element-level accesses (a MOM vector access counts its VL elements).
    pub element_accesses: u64,
    /// Cycles requests waited for a free port, summed over requests.
    pub port_stalls: u64,
    /// Element accesses delayed by bank conflicts.
    pub bank_conflicts: u64,
    /// Requests delayed because every MSHR was in flight.
    pub mshr_stalls: u64,
    /// Line-pair transactions issued by the vector/collapsing-buffer path.
    pub vector_transactions: u64,
    /// L1 cache statistics.
    pub l1: cache::CacheStats,
    /// L2 cache statistics.
    pub l2: cache::CacheStats,
    /// DRAM channel statistics.
    pub dram: dram::DramStats,
}

/// The dominant component of the most recent
/// [`MemorySystem::access`] — which level of the hierarchy (or which
/// structural buffer) determined the completion cycle it returned.
///
/// Implementations record this unconditionally on every access (a single enum
/// store on an already-taken branch, so the cost is unmeasurable and the
/// recording path is identical whether or not anyone reads it). The
/// cycle-attribution probe in `mom-cpu` reads it after each access to charge
/// memory-bound commit cycles to the right level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum AccessCause {
    /// Served at L1 speed — an L1 hit, or any access against an idealised
    /// fixed-latency memory ([`perfect::PerfectMemory`] reports every access
    /// as `L1`).
    #[default]
    L1,
    /// Missed L1 and was served from L2 (including merges into an in-flight
    /// L1 fill, and vector-path transactions bounded by L2 port occupancy).
    L2,
    /// Missed both cache levels; the completion waited on a DRAM transfer.
    Dram,
    /// The access waited for a miss-status-holding register to free before
    /// its fill could even start.
    MshrFull,
    /// A store whose completion was set by the coalescing write buffer.
    WriteBuffer,
}

/// What [`MemorySystem::access`] reports for one memory instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The cycle the data is available (loads) or the store is accepted.
    pub done: u64,
    /// Cycles the request waited for a port: it issued at the presented
    /// cycle plus this.
    pub waited: u64,
}

/// A memory system the timing simulator can issue memory instructions to.
///
/// Implementations own their port/bank/MSHR state. A request presented while
/// its port is busy waits for the first cycle the port frees, in closed form:
/// `access` always succeeds.
///
/// `Send` is a supertrait so that `Box<dyn MemorySystem>` can move into the
/// scoped worker threads of the parallel experiment runner (`mom-lab`); every
/// model is plain owned data, so this costs implementations nothing.
pub trait MemorySystem: std::fmt::Debug + Send {
    /// Issue one memory instruction's element accesses at `cycle`, or at
    /// the first later cycle its port is free.
    ///
    /// `vector` is true for MOM matrix loads/stores (more than one element
    /// access from a single instruction). The result is exactly what
    /// presenting the request again on every cycle until a port accepts it
    /// would give; the wait is also added to
    /// [`MemSystemStats::port_stalls`].
    fn access(&mut self, cycle: u64, accesses: &[MemAccess], vector: bool) -> Completion;

    /// Which memory organisation this is.
    fn kind(&self) -> MemModelKind;

    /// The dominant cause of the most recent [`access`] — see
    /// [`AccessCause`]. A port wait only shifts the access's start, so it is
    /// never the cause.
    ///
    /// [`access`]: MemorySystem::access
    fn last_access_cause(&self) -> AccessCause;

    /// Statistics accumulated so far.
    fn stats(&self) -> MemSystemStats;

    /// Restore the system to its just-built state — tags invalidated, ports
    /// and channels idle, MSHRs and write buffers empty, statistics zeroed —
    /// **without reallocating** any of the backing arrays. After `reset()`
    /// the system behaves exactly like a freshly constructed one, which is
    /// what lets the experiment runner reuse a machine across grid cells
    /// instead of rebuilding cache arrays per cell.
    fn reset(&mut self);

    /// Concrete-type escape hatch for the hottest model: a streaming
    /// simulator consults this **once at construction** and, when it gets
    /// `Some`, issues memory accesses directly to the [`PerfectMemory`] —
    /// whose port check is a handful of instructions — instead of paying a
    /// virtual `access` (plus, when probing, a virtual
    /// [`MemorySystem::last_access_cause`]) per memory instruction. Models
    /// with real work behind `access` keep the default `None`; behaviour is
    /// identical either way.
    fn as_perfect(&mut self) -> Option<&mut PerfectMemory> {
        None
    }
}

/// The port of `ports` (each entry the cycle that port is next free) that a
/// request presented at `cycle` issues on, and the cycle it issues: the first
/// port free at `cycle`, else the one that frees first (the lowest index
/// among ties) at the cycle it frees.
pub(crate) fn earliest_port(ports: &[u64], cycle: u64) -> (usize, u64) {
    let mut best = (0, u64::MAX);
    for (i, &busy) in ports.iter().enumerate() {
        if busy <= cycle {
            return (i, cycle);
        }
        if busy < best.1 {
            best = (i, busy);
        }
    }
    best
}

/// Construct the memory system named by `kind` for a machine of issue width
/// `way`, with the port counts of Tables 1 and 3.
pub fn build_memory(kind: MemModelKind, way: usize) -> Box<dyn MemorySystem> {
    match kind {
        MemModelKind::Perfect { latency } => {
            // Table 1: 1/1/2/4 memory ports; the 8-way machine's ports move
            // two vector elements per cycle.
            let (ports, width) = match way {
                8 => (2, 2),
                4 => (2, 1),
                _ => (1, 1),
            };
            Box::new(PerfectMemory::new(latency, ports, width))
        }
        other => Box::new(Hierarchy::new(other, way)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mom_isa::trace::MemKind;

    #[test]
    fn build_memory_selects_the_right_model() {
        let p = build_memory(MemModelKind::Perfect { latency: 1 }, 4);
        assert_eq!(p.kind(), MemModelKind::Perfect { latency: 1 });
        let h = build_memory(MemModelKind::VectorCache, 8);
        assert_eq!(h.kind(), MemModelKind::VectorCache);
        let c = build_memory(MemModelKind::Conventional, 1);
        assert_eq!(c.kind(), MemModelKind::Conventional);
    }

    #[test]
    fn earliest_port_takes_the_first_free_else_the_first_to_free() {
        assert_eq!(earliest_port(&[5, 0, 0], 3), (1, 3));
        assert_eq!(earliest_port(&[9, 7, 7], 3), (1, 7));
        assert_eq!(earliest_port(&[4], 4), (0, 4));
    }

    #[test]
    fn memory_systems_are_send() {
        fn assert_send<T: Send>() {}
        // The parallel runner builds one memory system per in-flight grid cell
        // inside scoped threads; the boxed trait object must be `Send`.
        assert_send::<Box<dyn MemorySystem>>();
        assert_send::<MemModelKind>();
        assert_send::<MemSystemStats>();
    }

    #[test]
    fn trait_object_access_works() {
        let mut m = build_memory(MemModelKind::Perfect { latency: 1 }, 1);
        let acc = [MemAccess { addr: 0x10, size: 8, kind: MemKind::Load }];
        assert_eq!(m.access(0, &acc, false), Completion { done: 1, waited: 0 });
        assert_eq!(m.stats().requests, 1);
    }
}
