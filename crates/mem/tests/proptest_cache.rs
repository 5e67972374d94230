//! Property-based tests of the cache, MSHR and memory-system invariants.

use mom_isa::trace::{MemAccess, MemKind};
use mom_mem::cache::{Cache, CacheConfig, MshrFile};
use mom_mem::{build_memory, MemModelKind};
use proptest::prelude::*;

proptest! {
    // Cases replay up-to-300-access streams through the cache models; 64
    // cases keep `cargo test -q` CI-friendly. `PROPTEST_CASES` overrides it.
    #![proptest_config(Config::with_cases(64))]

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
    fn mshr_occupancy_never_exceeds_capacity(ops in prop::collection::vec((0u64..64, 1u64..100), 1..200)) {
        let mut mshrs = MshrFile::new(8);
        let mut cycle = 0u64;
        for (line, delay) in ops {
            cycle += 1;
            if mshrs.has_free(cycle) {
                mshrs.allocate(cycle, line, cycle + delay);
            }
            prop_assert!(mshrs.in_flight() <= 8);
        }
    }

    #[test]
    fn perfect_memory_completion_is_monotone_in_latency(addr in 0u64..1_000_000, n in 1usize..16) {
        let accesses: Vec<MemAccess> = (0..n)
            .map(|i| MemAccess { addr: addr + i as u64 * 8, size: 8, kind: MemKind::Load })
            .collect();
        let mut fast = build_memory(MemModelKind::Perfect { latency: 1 }, 4);
        let mut slow = build_memory(MemModelKind::Perfect { latency: 50 }, 4);
        let f = fast.access(10, &accesses, true).unwrap();
        let s = slow.access(10, &accesses, true).unwrap();
        prop_assert!(s > f);
    }

    #[test]
    fn hierarchy_completes_every_request(reqs in prop::collection::vec((0u64..262_144, any::<bool>()), 1..100)) {
        let mut mem = build_memory(MemModelKind::MultiAddress, 4);
        let mut cycle = 0u64;
        for (addr, is_store) in reqs {
            cycle += 4;
            let kind = if is_store { MemKind::Store } else { MemKind::Load };
            let acc = [MemAccess { addr, size: 8, kind }];
            // Retry on structural stalls; completion must always arrive and
            // never precede the request cycle.
            let mut t = cycle;
            let done = loop {
                match mem.access(t, &acc, false) {
                    Some(done) => break done,
                    None => t += 1,
                }
            };
            prop_assert!(done >= cycle);
        }
    }
}
