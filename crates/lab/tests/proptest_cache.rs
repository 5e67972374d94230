//! Property-based tests of the persistent cell-cache record codec: for *any*
//! record the cache can store, encode → decode → re-encode reproduces the
//! exact bytes (so `momlab cache verify`'s byte-for-byte file comparison is a
//! sound equality test), the decoded key answers the same canonical address,
//! no truncated prefix of a record ever decodes successfully — truncation
//! is always a detectable (clean-miss) error, never a silently-wrong result
//! — and a record with random bytes flipped either fails cleanly or decodes
//! to a record that re-encodes to exactly those bytes, never panicking.

use mom_cpu::probe::{IntervalStats, IntervalWindow, ProbeReport, StallBreakdown, StallCause};
use mom_cpu::SimResult;
use mom_lab::runner::CellSampling;
use mom_lab::{CellKey, CellRecord, SamplingKnobs};
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
/// component sum, matching the structural invariant `ProbeReport::load_state`
/// enforces on every decode.
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
            mem_retries: sim_words[4],
            mem_accesses: sim_words[5],
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
        sampling: sampling_words.map(|w| CellSampling {
            units_measured: w[0],
            measured_insts: w[1],
            warmup_insts: w[2],
            total_insts: w[3],
            // Bit-pattern f64s: the codec stores IEEE bits verbatim, so even
            // NaN payloads must survive the roundtrip byte-exactly.
            ipc_mean: f64::from_bits(w[4]),
            ipc_ci95: f64::from_bits(w[5]),
        }),
    }
}

/// A key varying along every axis the generator words select.
fn key_from(words: &[u64; 6], sampled: bool) -> CellKey {
    let workloads = ["idct", "fir16", "motion / estimation"];
    let isas = ["alpha", "mom", "mmx"];
    CellKey {
        engine: mom_lab::engine_fingerprint(),
        experiment: ["figure5", "stress", "sweep"][(words[0] % 3) as usize].to_string(),
        fast: words[0].is_multiple_of(2),
        config_hash: format!("fnv1a:{:016x}", words[1]),
        cell: format!("{} / {} / {}-way", workloads[(words[2] % 3) as usize],
            isas[(words[3] % 3) as usize], 1u64 << (words[2] % 4)),
        isa: isas[(words[3] % 3) as usize].to_string(),
        mem: ["perfect-1", "mom"][(words[3] % 2) as usize].to_string(),
        rob: words[4].is_multiple_of(2).then_some(words[4] % 1024),
        scale: words[4] % 16 + 1,
        seed: words[5],
        sampling: sampled.then_some(SamplingKnobs {
            unit: words[5] % 10_000 + 1,
            warmup: words[5] % 20_000,
            period: words[5] % 1_000_000,
        }),
    }
}

proptest! {
    #![proptest_config(Config::with_cases(64))]

    #[test]
    fn records_roundtrip_byte_stably(
        sim_words in prop::collection::vec(0u64..1 << 40, 6),
        components in prop::collection::vec(0u64..1 << 40, StallCause::COUNT),
        shift in 0usize..12,
        window_words in prop::collection::vec(0u64..u64::MAX, 0..32),
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

        let bytes = record.to_bytes(&key);
        let (decoded_key, decoded) = CellRecord::from_bytes(&bytes)
            .expect("a freshly encoded record always decodes");

        // The decoded key answers the same address (same canonical form,
        // hence the same record file name) ...
        prop_assert_eq!(decoded_key.canonical(), key.canonical());
        prop_assert_eq!(decoded_key.file_name(), key.file_name());
        // ... and re-encoding the decoded record reproduces the exact bytes,
        // so byte comparison of record files is a sound equality test.
        prop_assert_eq!(decoded.to_bytes(&decoded_key), bytes);
    }

    #[test]
    fn truncated_records_never_decode(
        sim_words in prop::collection::vec(0u64..1 << 40, 6),
        components in prop::collection::vec(0u64..1 << 40, StallCause::COUNT),
        mem_words in prop::collection::vec(0u64..1 << 40, 15),
        key_words in prop::collection::vec(0u64..u64::MAX, 6),
        cut_word in 0u64..u64::MAX,
    ) {
        let record = record_from(&sim_words, &components, 3, &[1, 2, 3], &mem_words, None);
        let mut kw = [0u64; 6];
        kw.copy_from_slice(&key_words);
        let bytes = record.to_bytes(&key_from(&kw, false));
        // Every proper prefix fails to decode; sample one per case.
        let cut = (cut_word % bytes.len() as u64) as usize;
        prop_assert!(CellRecord::from_bytes(&bytes[..cut]).is_err(),
            "a {cut}-byte prefix of a {}-byte record must not decode", bytes.len());
    }

    #[test]
    fn flipped_records_never_panic(
        sim_words in prop::collection::vec(0u64..1 << 40, 6),
        components in prop::collection::vec(0u64..1 << 40, StallCause::COUNT),
        shift in 0usize..12,
        window_words in prop::collection::vec(0u64..u64::MAX, 0..32),
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
        let mut bytes = record.to_bytes(&key_from(&kw, sampled == 1));
        for &(at, mask) in &flips {
            let i = (at % bytes.len() as u64) as usize;
            bytes[i] ^= mask;
        }
        // Decoding a corrupted file must return, never panic. A corruption
        // the decoder accepts must be one it can represent: the decoded
        // record re-encodes to the flipped bytes, so no two files decode to
        // the same record and `cache verify`'s byte comparison stays sound.
        if let Ok((key, decoded)) = CellRecord::from_bytes(&bytes) {
            prop_assert_eq!(decoded.to_bytes(&key), bytes);
        }
    }
}
