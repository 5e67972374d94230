//! Property-based tests of the persistent cell-cache records, through the
//! public [`CellCache`] API: for *any* record the cache can store, store →
//! load → store reproduces the exact file bytes (so `momlab cache verify`'s
//! byte-for-byte file comparison is a sound equality test) and the loaded
//! record equals the stored one; no proper prefix of a record file ever
//! loads — truncation is always a clean miss, never a silently-wrong result;
//! and a record file with random bytes flipped either misses or — when the
//! flips cancel — is byte-identical to the one written, never panicking.

use mom_cpu::probe::{IntervalStats, IntervalWindow, ProbeReport, StallBreakdown, StallCause};
use mom_cpu::SimResult;
use mom_lab::runner::CellSampling;
use mom_lab::{CellCache, CellKey, CellRecord, SamplingKnobs};
use mom_mem::cache::CacheStats;
use mom_mem::dram::DramStats;
use mom_mem::MemSystemStats;
use proptest::prelude::*;

/// Derive one interval window from a generator word: the split keeps every
/// field in range while still exercising all twelve stall causes.
fn window_from(word: u64) -> IntervalWindow {
    IntervalWindow {
        committed: word >> 24,
        cycles: word & 0xff_ffff,
        top: StallCause::ALL[(word % StallCause::COUNT as u64) as usize],
    }
}

/// Assemble a full record from generator words. The breakdown total is the
/// component sum, matching the invariant `ProbeReport::validate` checks on
/// every load.
fn record_from(
    sim_words: &[u64],
    components: &[u64],
    shift: usize,
    window_words: &[u64],
    mem_words: &[u64],
    sampling_words: Option<&[u64; 6]>,
) -> CellRecord {
    let mut parts = [0u64; StallCause::COUNT];
    parts.copy_from_slice(components);
    let breakdown = StallBreakdown::from_parts(parts.iter().sum(), parts);
    let intervals = IntervalStats {
        window_cycles: 1024u64 << shift,
        windows: window_words.iter().map(|&w| window_from(w)).collect(),
    };
    CellRecord {
        sim: SimResult {
            cycles: sim_words[0],
            committed: sim_words[1],
            branches: sim_words[2],
            mispredictions: sim_words[3],
            mem_accesses: sim_words[4],
        },
        probe: ProbeReport { breakdown, intervals },
        mem: MemSystemStats {
            requests: mem_words[0],
            element_accesses: mem_words[1],
            port_stalls: mem_words[2],
            bank_conflicts: mem_words[3],
            mshr_stalls: mem_words[4],
            vector_transactions: mem_words[5],
            l1: CacheStats { hits: mem_words[6], misses: mem_words[7], writebacks: mem_words[8] },
            l2: CacheStats { hits: mem_words[9], misses: mem_words[10], writebacks: mem_words[11] },
            dram: DramStats {
                transfers: mem_words[12],
                busy_cycles: mem_words[13],
                queue_cycles: mem_words[14],
            },
        },
        // Counters below 2^40 like the others (a record holds them as JSON
        // integers, so one at 2^63 or above would read back as a miss).
        sampling: sampling_words.map(|w| CellSampling {
            units_measured: w[0] >> 24,
            measured_insts: w[1] >> 24,
            warmup_insts: w[2] >> 24,
            total_insts: w[3] >> 24,
            // Any bit pattern of a finite non-negative float below 32 (an
            // IPC, or its interval half-width, on a machine at most 16 wide),
            // subnormals included: the shortest round-trip text must read
            // back to the same bits.
            ipc_mean: f64::from_bits(w[4] % 0x4040_0000_0000_0000),
            ipc_ci95: f64::from_bits(w[5] % 0x4040_0000_0000_0000),
        }),
    }
}

/// A key varying along every axis the generator words select.
fn key_from(words: &[u64; 6], sampled: bool) -> CellKey {
    let workloads = ["idct", "fir16", "motion / estimation"];
    CellKey {
        engine: mom_lab::engine_fingerprint(),
        workload: workloads[(words[2] % 3) as usize].to_string(),
        workload_kind: ["kernel", "app"][(words[0] % 2) as usize].to_string(),
        isa: ["alpha", "mom", "mmx"][(words[3] % 3) as usize].to_string(),
        mem: ["perfect-1", "mom"][(words[3] % 2) as usize].to_string(),
        rob: words[4] % 1024,
        way: 1u64 << (words[1] % 4),
        scale: words[4] % 16 + 1,
        seed: words[5],
        sampling: sampled.then_some(SamplingKnobs {
            unit: words[5] % 10_000 + 1,
            warmup: words[5] % 20_000,
            period: words[5] % 1_000_000,
        }),
    }
}

/// A scratch cache directory unique to this process and test.
fn scratch(tag: &str) -> (std::path::PathBuf, CellCache) {
    let dir = std::env::temp_dir().join(format!("momlab-proptest-{tag}-{}", std::process::id()));
    let cache = CellCache::open(&dir).expect("create cache dir");
    (dir, cache)
}

/// Store `record` under `key` and return the record file's bytes.
fn stored_bytes(cache: &CellCache, key: &CellKey, record: &CellRecord) -> Vec<u8> {
    cache.store(key, record);
    std::fs::read(cache.record_path(key)).expect("stored record is readable")
}

proptest! {
    #![proptest_config(Config::with_cases(64))]

    #[test]
    fn records_roundtrip_byte_stably(
        sim_words in prop::collection::vec(0u64..1 << 40, 5),
        components in prop::collection::vec(0u64..1 << 40, StallCause::COUNT),
        shift in 0usize..12,
        window_words in prop::collection::vec(0u64..u64::MAX, 0..33),
        mem_words in prop::collection::vec(0u64..1 << 40, 15),
        key_words in prop::collection::vec(0u64..u64::MAX, 6),
        sampled in 0u64..2,
    ) {
        let sampling_words =
            (sampled == 1).then(|| [key_words[0], key_words[1], key_words[2], key_words[3], key_words[4], key_words[5]]);
        let record = record_from(
            &sim_words, &components, shift, &window_words, &mem_words, sampling_words.as_ref(),
        );
        let mut kw = [0u64; 6];
        kw.copy_from_slice(&key_words);
        let key = key_from(&kw, sampled == 1);

        let (dir, cache) = scratch("roundtrip");
        let bytes = stored_bytes(&cache, &key, &record);
        let text = std::str::from_utf8(&bytes).expect("a record is UTF-8");
        prop_assert!(mom_lab::json::Value::parse(text).is_ok(), "a record is one JSON document");
        let loaded = cache.load(&key).expect("a freshly stored record always loads");
        prop_assert_eq!(&loaded, &record);
        // Storing the loaded record reproduces the exact bytes, so byte
        // comparison of record files is a sound equality test.
        prop_assert_eq!(stored_bytes(&cache, &key, &loaded), bytes);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_records_never_decode(
        sim_words in prop::collection::vec(0u64..1 << 40, 5),
        components in prop::collection::vec(0u64..1 << 40, StallCause::COUNT),
        mem_words in prop::collection::vec(0u64..1 << 40, 15),
        key_words in prop::collection::vec(0u64..u64::MAX, 6),
        cut_word in 0u64..u64::MAX,
    ) {
        let record = record_from(&sim_words, &components, 3, &[1, 2, 3], &mem_words, None);
        let mut kw = [0u64; 6];
        kw.copy_from_slice(&key_words);
        let key = key_from(&kw, false);
        let (dir, cache) = scratch("truncated");
        let bytes = stored_bytes(&cache, &key, &record);
        // No proper prefix loads; sample one per case.
        let cut = (cut_word % bytes.len() as u64) as usize;
        std::fs::write(cache.record_path(&key), &bytes[..cut]).expect("write prefix");
        prop_assert!(cache.load(&key).is_none(),
            "a {cut}-byte prefix of a {}-byte record must not load", bytes.len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flipped_records_never_panic(
        sim_words in prop::collection::vec(0u64..1 << 40, 5),
        components in prop::collection::vec(0u64..1 << 40, StallCause::COUNT),
        shift in 0usize..12,
        window_words in prop::collection::vec(0u64..u64::MAX, 0..33),
        mem_words in prop::collection::vec(0u64..1 << 40, 15),
        key_words in prop::collection::vec(0u64..u64::MAX, 6),
        sampled in 0u64..2,
        flips in prop::collection::vec((0u64..u64::MAX, 1u8..=255), 1..9),
    ) {
        let sampling_words =
            (sampled == 1).then(|| [key_words[0], key_words[1], key_words[2], key_words[3], key_words[4], key_words[5]]);
        let record = record_from(
            &sim_words, &components, shift, &window_words, &mem_words, sampling_words.as_ref(),
        );
        let mut kw = [0u64; 6];
        kw.copy_from_slice(&key_words);
        let key = key_from(&kw, sampled == 1);
        let (dir, cache) = scratch("flipped");
        let written = stored_bytes(&cache, &key, &record);
        let mut bytes = written.clone();
        for &(at, mask) in &flips {
            let i = (at % bytes.len() as u64) as usize;
            bytes[i] ^= mask;
        }
        std::fs::write(cache.record_path(&key), &bytes).expect("write flipped record");
        // Loading a corrupted file must return, never panic, and a file that
        // loads must be the one written: two identical flips at one byte
        // cancel, and any other change misses, so a corrupted counter is
        // never served as a result.
        if let Some(loaded) = cache.load(&key) {
            prop_assert_eq!(&bytes, &written, "a changed record file loaded");
            prop_assert_eq!(loaded, record);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
