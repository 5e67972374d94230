//! Integration tests of the persistent cell cache: a warm run serves every
//! cell from disk (100% hits, zero simulation) and still produces
//! byte-identical results documents — in every execution mode, including a
//! cache filled by one exact mode and served to the other, and for sampled
//! runs whose records carry the confidence-interval section. Also covers the
//! throughput accounting (cached cells are exempt), partial warmth, records
//! shared between experiments, and that the key holds every input that
//! decides a committed result.

use std::path::PathBuf;

use mom_lab::baseline::exact_diff;
use mom_lab::json::Value;
use mom_lab::runner::{ExecMode, RunOptions};
use mom_lab::spec::ExperimentSpec;
use mom_lab::{CellCache, CellKey, RunResult};

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

/// Partial warmth: re-running a spec after deleting some records
/// re-simulates exactly the missing cells and still serializes
/// byte-identically.
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

/// The document's cache accounting: `meta.cache` reports the counters,
/// `cached_cells` flags every cell a warm run served, so no throughput is
/// claimed for it, and a cache-free run writes no `meta.cache` (so existing
/// documents are byte-identical to pre-cache ones).
#[test]
fn documents_report_cache_metadata_and_cached_cells() {
    let dir = scratch("doc");
    let cache = CellCache::open(&dir).expect("create cache dir");
    let spec = ExperimentSpec::builtin("figure5", 1, true).expect("built-in spec");

    let cold = run(&spec, ExecMode::Fanout, Some(&cache));
    assert!(cold.cached_cells.iter().all(|&hit| !hit));
    assert!(cold.total_insts_per_sec().is_some(), "a cold run simulated every cell");
    let warm = run(&spec, ExecMode::Fanout, Some(&cache));
    let cells = warm.cells().unwrap().len();
    assert_eq!(warm.cached_cells, vec![true; cells]);
    assert_eq!(warm.total_insts_per_sec(), None, "a warm run measured nothing");
    let doc = warm.document_json();
    let cache_meta = doc.get("meta").and_then(|m| m.get("cache")).expect("meta.cache present");
    let field = |k: &str| cache_meta.get(k).and_then(mom_lab::json::Value::as_i64);
    assert_eq!(field("hits"), Some(cells as i64));
    assert_eq!(field("misses"), Some(0));
    assert_eq!(field("fills"), Some(0));
    assert!(field("bytes").unwrap_or(0) > 0);

    let plain = run(&spec, ExecMode::Fanout, None);
    assert!(plain.cache.is_none() && plain.cached_cells.is_empty());
    let doc = plain.document_json();
    assert!(doc.get("meta").and_then(|m| m.get("cache")).is_none(), "cache-free meta.cache");

    let _ = std::fs::remove_dir_all(&dir);
}

/// A record belongs to its cell, not to the experiment that filled it: the
/// latency study's 4-way 1-cycle cells are Figure 5's machines, so a cache
/// filled by Figure 5 serves them, and the document is the one a run
/// without a cache writes.
#[test]
fn an_experiment_hits_the_cells_another_one_filled() {
    let dir = scratch("shared");
    let cache = CellCache::open(&dir).expect("create cache dir");
    let figure5 = ExperimentSpec::builtin("figure5", 1, true).expect("built-in spec");
    let latency = ExperimentSpec::builtin("latency_tolerance", 1, true).expect("built-in spec");

    run(&figure5, ExecMode::Fanout, Some(&cache));
    let shared = run(&latency, ExecMode::Fanout, Some(&cache));
    assert_eq!(meta(&shared).hits, 8, "2 kernels x 4 ISAs at 4-way, 1-cycle memory");
    let plain = run(&latency, ExecMode::Fanout, None);
    let exact = exact_diff(&shared.document_json(), &plain.document_json()).expect("comparable");
    assert_eq!(exact.difference, None);

    let _ = std::fs::remove_dir_all(&dir);
}

/// The key is complete: in the committed full-mode documents, cells of
/// different experiments that share a key are equal in every member but
/// the two that name the experiment's view of them (`config`, `speedup`).
/// An input that changed a result without entering the key would fail this.
#[test]
fn committed_cells_that_share_a_key_are_equal() {
    // (canonical key, the cell without `config` and `speedup`, experiment)
    let mut seen: Vec<(String, String, &str)> = Vec::new();
    let mut repeats = 0;
    for name in ["figure5", "latency_tolerance", "figure7", "stress", "sweep"] {
        let path = format!("{}/../../BENCH_{name}.json", env!("CARGO_MANIFEST_DIR"));
        let doc = Value::parse(&std::fs::read_to_string(path).expect("read")).expect("parse");
        let spec = ExperimentSpec::builtin(name, 1, false).expect("built-in spec");
        let grid = spec.grid().expect("a grid experiment");
        let cells = doc.get("cells").and_then(Value::as_array).expect("a cells array");
        assert_eq!(cells.len(), grid.cells().len(), "{name}");
        for (cell, doc_cell) in grid.cells().iter().zip(cells) {
            let label = doc_cell.get("config").and_then(Value::as_str);
            assert_eq!(label, Some(grid.configs[cell.config].label.as_str()), "{name}");
            let Value::Object(members) = doc_cell else { panic!("{name}: a cell object") };
            let kept = members.iter().filter(|(k, _)| k != "config" && k != "speedup");
            let result = Value::Object(kept.cloned().collect()).to_compact();
            let key = CellKey::of(grid, cell, ExecMode::Fanout).canonical();
            match seen.iter().find(|(k, ..)| *k == key) {
                Some((_, first, owner)) => {
                    repeats += 1;
                    assert_eq!(*first, result, "{key}: {owner} and {name} disagree");
                }
                None => seen.push((key, result, name)),
            }
        }
    }
    assert_eq!(repeats, 48, "cells a full-mode `run --all` serves from another experiment");
}
