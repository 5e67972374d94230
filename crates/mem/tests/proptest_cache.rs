//! Property-based tests of the cache and memory-system invariants, and
//! unit tests of the closed-form port wait of every memory model.

use mom_isa::trace::{MemAccess, MemKind};
use mom_mem::cache::{Cache, CacheConfig, CacheStats, LookupResult};
use mom_mem::{build_memory, Completion, Hierarchy, MemModelKind, MemorySystem, PerfectMemory, PortConfig};
use proptest::prelude::*;

/// A timestamp-LRU tag array: every line carries its last-use stamp and a
/// miss evicts the first invalid way, else the smallest stamp. The packed
/// recency-ordered [`Cache`] must answer exactly like it.
struct StampedCache {
    config: CacheConfig,
    /// `(tag, valid, dirty, last_used)` per way, set-major.
    lines: Vec<(u64, bool, bool, u64)>,
    clock: u64,
    stats: CacheStats,
}

impl StampedCache {
    fn new(config: CacheConfig) -> Self {
        Self { config, lines: vec![(0, false, false, 0); config.sets() * config.assoc], clock: 0, stats: CacheStats::default() }
    }

    fn set(&mut self, addr: u64) -> (&mut [(u64, bool, bool, u64)], u64) {
        let line = addr / self.config.line_bytes as u64;
        let sets = self.config.sets() as u64;
        let (set, assoc) = ((line % sets) as usize, self.config.assoc);
        (&mut self.lines[set * assoc..(set + 1) * assoc], line / sets)
    }

    fn probe(&mut self, addr: u64) -> bool {
        let (ways, tag) = self.set(addr);
        ways.iter().any(|l| l.1 && l.0 == tag)
    }

    fn access(&mut self, addr: u64, is_write: bool) -> LookupResult {
        self.clock += 1;
        let (clock, dirty) = (self.clock, is_write && self.config.write_back);
        let (ways, tag) = self.set(addr);
        if let Some(line) = ways.iter_mut().find(|l| l.1 && l.0 == tag) {
            line.3 = clock;
            line.2 |= dirty;
            self.stats.hits += 1;
            return LookupResult::Hit;
        }
        let victim = ways.iter_mut().min_by_key(|l| if l.1 { l.3 + 1 } else { 0 }).unwrap();
        let dirty_victim = victim.1 && victim.2;
        *victim = (tag, true, dirty, clock);
        self.stats.misses += 1;
        self.stats.writebacks += u64::from(dirty_victim);
        LookupResult::Miss { dirty_victim }
    }

    fn invalidate(&mut self, addr: u64) {
        let (ways, tag) = self.set(addr);
        for l in ways.iter_mut().filter(|l| l.1 && l.0 == tag) {
            l.1 = false;
            l.2 = false;
        }
    }
}

fn load(addr: u64) -> MemAccess {
    MemAccess { addr, size: 8, kind: MemKind::Load }
}

/// `n` unit-stride 8-byte loads from `base`.
fn row_loads(base: u64, n: u64) -> Vec<MemAccess> {
    (0..n).map(|i| load(base + i * 8)).collect()
}

/// Present `accesses` at `cycle` and check the reported wait against the
/// first cycle a port frees, and that `port_stalls` rose by that wait.
fn assert_waits(mem: &mut dyn MemorySystem, cycle: u64, accesses: &[MemAccess], first_free: u64) -> Completion {
    let before = mem.stats().port_stalls;
    let got = mem.access(cycle, accesses, accesses.len() > 1);
    assert_eq!(got.waited, first_free - cycle, "{}: wait of a request at cycle {cycle}", mem.kind());
    assert_eq!(mem.stats().port_stalls - before, got.waited, "{}: port_stalls counts the wait", mem.kind());
    got
}

#[test]
fn perfect_memory_waits_for_the_earliest_port() {
    // Two ports: 16 elements hold port 0 until cycle 16, 4 hold port 1
    // until cycle 4.
    let mut m = PerfectMemory::new(1, 2, 1);
    m.access(0, &row_loads(0, 16), true);
    m.access(0, &row_loads(0x100, 4), true);
    let got = assert_waits(&mut m, 2, &[load(0x200)], 4);
    assert_eq!(got.done, 5, "issued at 4, one cycle of occupancy, latency 1");
}

#[test]
fn conventional_scalar_access_waits_for_the_earliest_l1_port() {
    // 4-way: two L1 ports. A 5-element vector access at cycle 10 holds port
    // 0 for 3 rows (until 13) and port 1 for 2 (until 12).
    let mut h = Hierarchy::new(MemModelKind::Conventional, 4);
    h.access(10, &row_loads(0x1000, 5), true);
    assert_waits(&mut h, 10, &[load(0x2000)], 12);
    // That scalar took port 1 until 13: both ports now free at 13.
    assert_waits(&mut h, 10, &[load(0x3000)], 13);
}

#[test]
fn multi_address_access_waits_for_the_latest_l1_port() {
    let mut h = Hierarchy::new(MemModelKind::MultiAddress, 4);
    h.access(10, &row_loads(0x1000, 5), true);
    // A vector access needs every port; port 0 is the last to free, at 13.
    assert_waits(&mut h, 11, &row_loads(0x4000, 4), 13);
}

#[test]
fn vector_paths_wait_for_the_earliest_vector_port() {
    for kind in [MemModelKind::VectorCache, MemModelKind::CollapsingBuffer] {
        // Two vector ports of 2 elements per cycle. 16 elements in one L2
        // line hold port 0 for 8 cycles; 8 elements hold port 1 for 4.
        let ports = PortConfig { l2_vector_ports: 2, ..PortConfig::vector_cache(4, kind == MemModelKind::CollapsingBuffer) };
        let mut h = Hierarchy::with_ports(kind, ports);
        h.access(0, &row_loads(0x8000, 16), true);
        h.access(0, &row_loads(0x9000, 8), true);
        assert_waits(&mut h, 1, &row_loads(0xa000, 4), 4);
    }
}

proptest! {
    // Cases replay up-to-300-access streams through the cache models; 64
    // cases keep `cargo test -q` CI-friendly. `PROPTEST_CASES` overrides it.
    #![proptest_config(Config::with_cases(64))]

    #[test]
    fn packed_cache_answers_like_the_timestamp_oracle(
        ops in prop::collection::vec((0u8..4, 0u64..4096, any::<bool>()), 1..300),
        assoc_log in 0u32..3,
        write_back in any::<bool>(),
    ) {
        // 4 sets of 32-byte lines, so 4096 addresses are 8x the capacity
        // and conflicts are common.
        let assoc = 1usize << assoc_log;
        let config = CacheConfig { size_bytes: 32 * 4 * assoc, assoc, line_bytes: 32, hit_latency: 1, mshrs: 4, write_back };
        let (mut packed, mut oracle) = (Cache::new(config), StampedCache::new(config));
        for (op, addr, write) in ops {
            match op {
                0 => prop_assert_eq!(packed.access(addr, write), oracle.access(addr, write)),
                1 => prop_assert_eq!(packed.probe(addr), oracle.probe(addr)),
                2 => {
                    packed.invalidate(addr);
                    oracle.invalidate(addr);
                }
                _ => {
                    // A store's no-allocate L1 update: a hit if resident.
                    let resident = oracle.probe(addr);
                    if resident {
                        oracle.access(addr, write);
                    }
                    prop_assert_eq!(packed.touch(addr, write), resident);
                }
            }
            prop_assert_eq!(packed.stats(), oracle.stats);
        }
    }

    #[test]
    fn a_line_just_accessed_is_always_resident(addrs in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut cache = Cache::new(CacheConfig::paper_l1(1));
        for addr in addrs {
            cache.access(addr, false);
            prop_assert!(cache.probe(addr), "line for {addr:#x} must be resident after access");
        }
    }

    #[test]
    fn hits_plus_misses_equals_accesses(addrs in prop::collection::vec(0u64..100_000, 1..300)) {
        let mut cache = Cache::new(CacheConfig::paper_l2(6));
        for &addr in &addrs {
            cache.access(addr, addr % 3 == 0);
        }
        let stats = cache.stats();
        prop_assert_eq!(stats.accesses(), addrs.len() as u64);
        prop_assert!(stats.miss_ratio() >= 0.0 && stats.miss_ratio() <= 1.0);
    }

    #[test]
    fn working_set_smaller_than_cache_eventually_always_hits(lines in 1usize..16) {
        // Touch a tiny working set twice; the second sweep must be all hits in
        // the 2-way L2 as long as it maps to distinct sets or fits the ways.
        let mut cache = Cache::new(CacheConfig::paper_l2(6));
        let addrs: Vec<u64> = (0..lines as u64).map(|i| i * 128).collect();
        for &a in &addrs {
            cache.access(a, false);
        }
        let before = cache.stats().misses;
        for &a in &addrs {
            cache.access(a, false);
        }
        prop_assert_eq!(cache.stats().misses, before, "second sweep must not miss");
    }

    #[test]
    fn shift_indexing_matches_the_division_form(
        addrs in prop::collection::vec(any::<u64>(), 1..64),
        line_log in 2u32..8,
        set_log in 0u32..12,
        assoc in 1usize..5,
    ) {
        let small = CacheConfig {
            size_bytes: (1 << line_log) * (1 << set_log) * assoc,
            assoc,
            line_bytes: 1 << line_log,
            hit_latency: 1,
            mshrs: 4,
            write_back: false,
        };
        for config in [CacheConfig::paper_l1(1), CacheConfig::paper_l2(6), small] {
            let cache = Cache::new(config);
            let (line_bytes, sets) = (config.line_bytes as u64, config.sets() as u64);
            for &addr in &addrs {
                let line = addr / line_bytes;
                prop_assert_eq!(cache.line_of(addr), line);
                prop_assert_eq!(cache.set_and_tag(addr), ((line % sets) as usize, line / sets));
            }
        }
    }

    #[test]
    fn perfect_memory_completion_is_monotone_in_latency(addr in 0u64..1_000_000, n in 1usize..16) {
        let accesses = row_loads(addr, n as u64);
        let mut fast = build_memory(MemModelKind::Perfect { latency: 1 }, 4);
        let mut slow = build_memory(MemModelKind::Perfect { latency: 50 }, 4);
        let f = fast.access(10, &accesses, true).done;
        let s = slow.access(10, &accesses, true).done;
        prop_assert!(s > f);
    }

    #[test]
    fn hierarchy_completes_every_request(
        reqs in prop::collection::vec(((0u64..262_144, any::<bool>()), 1u64..17, 0usize..4, 0u64..4), 1..100),
    ) {
        let kinds = [MemModelKind::Conventional, MemModelKind::MultiAddress, MemModelKind::VectorCache, MemModelKind::CollapsingBuffer];
        for kind in kinds {
            let mut mem = Hierarchy::new(kind, 4);
            let (mut cycle, mut waited) = (0u64, 0u64);
            for &((addr, is_store), elems, stride, gap) in &reqs {
                cycle += gap;
                let kind_of = if is_store { MemKind::Store } else { MemKind::Load };
                let stride = [8, 16, 64, 512][stride];
                let accesses: Vec<MemAccess> =
                    (0..elems).map(|i| MemAccess { addr: addr + i * stride, size: 8, kind: kind_of }).collect();
                let vector = elems > 1;
                // Presenting the request again at the cycle it issued must
                // give the same completion with no wait: the closed form is
                // the per-cycle retry.
                let mut later = mem.clone();
                let got = mem.access(cycle, &accesses, vector);
                let again = later.access(cycle + got.waited, &accesses, vector);
                prop_assert_eq!(again, Completion { done: got.done, waited: 0 }, "{}", kind);
                prop_assert!(got.done >= cycle + got.waited, "{}: completion before issue", kind);
                waited += got.waited;
                prop_assert_eq!(mem.stats().port_stalls, waited, "{}", kind);
            }
        }
    }
}
