//! Integration tests of the persistent cell cache: a warm run serves every
//! cell from disk (100% hits, zero simulation) and still produces
//! byte-identical results documents — in every execution mode, including a
//! cache filled by one exact mode and served to the other, and for sampled
//! runs whose records carry the confidence-interval section. Also covers the
//! throughput accounting (cached cells are exempt) and partial warmth.

use std::path::PathBuf;

use mom_lab::runner::{ExecMode, RunOptions};
use mom_lab::spec::ExperimentSpec;
use mom_lab::{CellCache, RunResult};

/// A scratch cache directory unique to this process and test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("momlab-cachetest-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run(spec: &ExperimentSpec, mode: ExecMode, cache: Option<&CellCache>) -> RunResult {
    mom_lab::run(spec, &RunOptions { workers: 2, mode, cache, ..Default::default() })
}

fn meta(result: &RunResult) -> &mom_lab::CacheMeta {
    result.cache.as_ref().expect("cached runs carry cache metadata")
}

/// Cold fill then warm re-run in the same mode: the warm run reports 100%
/// hits and zero fills, serializes byte-identically, and every cell is
/// flagged cached (so the aggregate throughput measurement is empty rather
/// than a bogus file-read rate).
#[test]
fn warm_rerun_is_all_hits_and_byte_identical() {
    let dir = scratch("warm");
    let cache = CellCache::open(&dir).expect("create cache dir");
    let spec = ExperimentSpec::builtin("figure5", 1, true).expect("built-in spec");

    let cold = run(&spec, ExecMode::Fanout, Some(&cache));
    let cells = cold.cells().expect("grid result").len() as u64;
    assert_eq!(meta(&cold).hits, 0);
    assert_eq!(meta(&cold).misses, cells);
    assert_eq!(meta(&cold).fills, cells);
    assert!(meta(&cold).bytes > 0, "fills must land on disk");
    assert_eq!(cold.cached_cells, vec![false; cells as usize]);
    assert!(cold.total_insts_per_sec().is_some());

    let warm = run(&spec, ExecMode::Fanout, Some(&cache));
    assert_eq!(meta(&warm).hits, cells, "warm run must hit every cell");
    assert_eq!(meta(&warm).misses, 0);
    assert_eq!(meta(&warm).fills, 0);
    assert_eq!(warm.cached_cells, vec![true; cells as usize]);
    assert_eq!(
        warm.total_insts_per_sec(),
        None,
        "an all-hit run simulated nothing, so it measures no throughput"
    );
    assert_eq!(
        cold.results_json().to_pretty(),
        warm.results_json().to_pretty(),
        "cache hits changed the results document"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// A cache filled by one exact mode serves the other byte-identically:
/// fanout fills, and streamed runs at 100% hits without simulating
/// anything.
#[test]
fn one_exact_mode_fills_for_all_the_others() {
    let dir = scratch("crossmode");
    let cache = CellCache::open(&dir).expect("create cache dir");
    let spec = ExperimentSpec::builtin("figure5", 1, true).expect("built-in spec");

    let cold = run(&spec, ExecMode::Fanout, Some(&cache));
    let cells = cold.cells().expect("grid result").len() as u64;
    let reference = cold.results_json().to_pretty();

    let warm = run(&spec, ExecMode::Streamed, Some(&cache));
    assert_eq!(meta(&warm).hits, cells, "streamed missed a fanout-filled cell");
    assert_eq!(meta(&warm).fills, 0);
    assert_eq!(warm.results_json().to_pretty(), reference, "streamed diverged");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Sampled records key separately from exact ones — filling the exact
/// cache leaves sampled runs cold — and a warm sampled run serves the full
/// confidence-interval `sampling` section byte-identically.
#[test]
fn sampled_records_key_separately_and_roundtrip_their_ci_section() {
    let dir = scratch("sampled");
    let cache = CellCache::open(&dir).expect("create cache dir");
    let spec = ExperimentSpec::builtin("figure5", 1, true).expect("built-in spec");
    let sampled = ExecMode::Sampled { unit_insts: 200, warmup_insts: 400, period: 5_000 };

    let exact = run(&spec, ExecMode::Streamed, Some(&cache));
    let cells = exact.cells().expect("grid result").len() as u64;

    let cold = run(&spec, sampled, Some(&cache));
    assert_eq!(meta(&cold).hits, 0, "sampled cells must not hit exact records");
    assert_eq!(meta(&cold).fills, cells);

    let warm = run(&spec, sampled, Some(&cache));
    assert_eq!(meta(&warm).hits, cells);
    let cold_doc = cold.results_json().to_pretty();
    assert_eq!(cold_doc, warm.results_json().to_pretty(), "sampled warm run diverged");
    assert!(cold_doc.contains("\"sampling\""), "sampled documents carry a sampling section");
    // Different knobs are a different address again.
    let other = run(
        &spec,
        ExecMode::Sampled { unit_insts: 200, warmup_insts: 400, period: 6_000 },
        Some(&cache),
    );
    assert_eq!(meta(&other).hits, 0, "different sampling knobs must not share records");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Partial warmth: filtering the grid changes the config_hash, so a run of a
/// *differently filtered* spec shares nothing; but re-running the same spec
/// after deleting some records re-simulates exactly the missing cells and
/// still serializes byte-identically.
#[test]
fn partially_evicted_caches_resimulate_only_the_missing_cells() {
    let dir = scratch("partial");
    let cache = CellCache::open(&dir).expect("create cache dir");
    let spec = ExperimentSpec::builtin("figure5", 1, true).expect("built-in spec");

    let cold = run(&spec, ExecMode::Fanout, Some(&cache));
    let cells = cold.cells().expect("grid result").len() as u64;
    let reference = cold.results_json().to_pretty();

    // Evict half the records (the oldest half by mtime — all equal here, so
    // ties break by path; which half is immaterial).
    let before = cache.entries().expect("listable cache");
    let keep = cache.bytes() / 2;
    cache.gc(keep).expect("gc succeeds");
    let after = cache.entries().expect("listable cache").len() as u64;
    assert!(after < before.len() as u64, "gc must evict something");

    let mixed = run(&spec, ExecMode::Fanout, Some(&cache));
    assert_eq!(meta(&mixed).hits, after);
    assert_eq!(meta(&mixed).misses, cells - after);
    assert_eq!(meta(&mixed).fills, cells - after, "misses must be re-filled");
    assert_eq!(mixed.cached_cells.iter().filter(|&&cached| cached).count() as u64, after);
    assert_eq!(mixed.results_json().to_pretty(), reference, "mixed hit/miss run diverged");

    // And now the cache is whole again.
    let warm = run(&spec, ExecMode::Fanout, Some(&cache));
    assert_eq!(meta(&warm).hits, cells);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Corrupting a record on disk demotes its cell to a clean miss: the run
/// re-simulates it, overwrites the bad file, and the results stay
/// byte-identical throughout. No panic, no wrong answer.
#[test]
fn corrupted_records_are_resimulated_and_overwritten() {
    let dir = scratch("corrupt");
    let cache = CellCache::open(&dir).expect("create cache dir");
    let spec = ExperimentSpec::builtin("figure5", 1, true).expect("built-in spec");

    let cold = run(&spec, ExecMode::Fanout, Some(&cache));
    let cells = cold.cells().expect("grid result").len() as u64;
    let reference = cold.results_json().to_pretty();

    // Truncate one record, garble another, leave the rest intact.
    let entries = cache.entries().expect("listable cache");
    let good = std::fs::read(&entries[0].path).expect("readable record");
    std::fs::write(&entries[0].path, &good[..good.len() / 2]).expect("truncate");
    std::fs::write(&entries[1].path, b"not a record at all").expect("garble");

    let mixed = run(&spec, ExecMode::Fanout, Some(&cache));
    assert_eq!(meta(&mixed).hits, cells - 2);
    assert_eq!(meta(&mixed).misses, 2, "both corrupt records must read as misses");
    assert_eq!(meta(&mixed).fills, 2, "both must be re-filled");
    assert_eq!(mixed.results_json().to_pretty(), reference, "corruption leaked into results");

    // The overwritten records are valid again.
    let warm = run(&spec, ExecMode::Fanout, Some(&cache));
    assert_eq!(meta(&warm).hits, cells);

    let _ = std::fs::remove_dir_all(&dir);
}

/// The document's cache accounting: `meta.cache` reports the counters, each
/// cached cell's throughput entry is `insts_per_sec: null` plus a
/// `cached: true` marker, and a cache-free run writes neither (so existing
/// documents are byte-identical to pre-cache ones).
#[test]
fn documents_report_cache_metadata_and_cached_cells() {
    let dir = scratch("doc");
    let cache = CellCache::open(&dir).expect("create cache dir");
    let spec = ExperimentSpec::builtin("figure5", 1, true).expect("built-in spec");

    run(&spec, ExecMode::Fanout, Some(&cache));
    let warm = run(&spec, ExecMode::Fanout, Some(&cache));
    let doc = warm.document_json();
    let cache_meta = doc.get("meta").and_then(|m| m.get("cache")).expect("meta.cache present");
    let field = |k: &str| cache_meta.get(k).and_then(mom_lab::json::Value::as_i64);
    assert_eq!(field("hits"), Some(warm.cells().unwrap().len() as i64));
    assert_eq!(field("misses"), Some(0));
    assert_eq!(field("fills"), Some(0));
    assert!(field("bytes").unwrap_or(0) > 0);
    let throughput = doc
        .get("meta")
        .and_then(|m| m.get("throughput"))
        .and_then(mom_lab::json::Value::as_array)
        .expect("throughput entries");
    for entry in throughput {
        assert!(matches!(entry.get("insts_per_sec"), Some(mom_lab::json::Value::Null)));
        assert_eq!(entry.get("cached").and_then(mom_lab::json::Value::as_bool), Some(true));
    }

    let plain = run(&spec, ExecMode::Fanout, None);
    assert!(plain.cache.is_none());
    let doc = plain.document_json();
    assert!(doc.get("meta").and_then(|m| m.get("cache")).is_none(), "cache-free meta.cache");

    let _ = std::fs::remove_dir_all(&dir);
}
