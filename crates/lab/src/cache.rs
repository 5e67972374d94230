//! The persistent content-addressed cell result cache.
//!
//! Every grid cell is a pure function of its inputs — the experiment's
//! [`config_hash`](crate::spec::ExperimentSpec::config_hash), the cell's
//! `(workload, config, way)` identity, the workload scale and seed, and the
//! sampling parameters — and the runner's determinism guarantee makes the
//! outputs byte-identical across execution modes and worker counts. That is
//! exactly the property a content-addressed cache needs: hash the inputs
//! once, never simulate the same cell twice. [`CellKey`] is the address,
//! [`CellRecord`] is the stored result (timing summary, stall attribution,
//! memory statistics and — for sampled cells — the confidence-interval
//! accounting), and [`CellCache`] is the on-disk store: one binary record
//! per cell under a directory, written through the `mom-isa` binary codec
//! with explicit versioning and atomic rename.
//!
//! # Invalidation
//!
//! A key binds the [`engine_fingerprint`] (the crate version plus the
//! [`MODEL_DIGEST`] of the simulator's source code), the spec's
//! `config_hash` (which already covers the experiment name, fast flag,
//! workload set, machine configs, ROB/latency overrides, widths, scale and
//! seed), the cell identity, and the sampling knobs. Exact records carry no sampling knobs at all, so a cache filled by
//! any exact mode (fanout, streamed, or `--sampled --sample-period 0`)
//! serves hits to every other exact mode — their results
//! are byte-identical by the determinism guarantee. Sampled records with a
//! nonzero period key separately per `(unit, warmup, period)` triple.
//!
//! # Corruption is a miss
//!
//! A cache record is purely an optimization: a truncated, garbage or
//! wrong-version record — or a file whose stored key does not match the
//! address that found it — is treated as a clean miss. The cell is
//! re-simulated and the bad record atomically overwritten.
//! [`CellCache::load`] never panics and never returns a wrong result.

use std::path::{Path, PathBuf};
use std::time::SystemTime;

use mom_cpu::{ProbeReport, SimResult};
use mom_isa::codec::{CodecError, Decoder, Encoder};
use mom_mem::MemSystemStats;

use crate::runner::CellSampling;

/// Magic number leading every cache record file (`MOMCELL\0`, little-endian).
const CACHE_MAGIC: u64 = u64::from_le_bytes(*b"MOMCELL\0");

/// Version tag of the record layout. Bumping it invalidates every existing
/// record: old files decode to a version error, which is a clean miss.
pub const CACHE_VERSION: u32 = 1;

/// FNV-1a digest (16 hex digits) of the source trees of every crate whose
/// code decides a simulated result: `mom-isa`, `mom-core`, `mom-cpu`,
/// `mom-mem`, `mom-kernels`, `mom-apps` and `mom-lab` itself. Computed by
/// this crate's build script.
pub const MODEL_DIGEST: &str = env!("MOM_MODEL_DIGEST");

/// The execution-engine identity baked into every [`CellKey`]: the crate
/// version and the [`MODEL_DIGEST`]. Exec-mode-invariant (the exact modes
/// produce byte-identical results, so they share records), but distinct
/// whenever the model's source code changes, with or without a version
/// bump, so a record never outlives the code that produced it.
pub fn engine_fingerprint() -> String {
    format!("momlab {} model:{MODEL_DIGEST}", env!("CARGO_PKG_VERSION"))
}

/// 64-bit FNV-1a, the same construction `config_hash` uses — deterministic
/// across platforms and runs, which is what addresses record files.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The sampling knobs of an estimated record. Exact records (any exact mode,
/// including `--sampled --sample-period 0`) carry `None` instead, so they
/// share one address across execution modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplingKnobs {
    /// Measured instructions per sampling unit.
    pub unit: u64,
    /// Detailed warm-up instructions before each unit.
    pub warmup: u64,
    /// Sampling period in dynamic instructions (always nonzero here).
    pub period: u64,
}

/// The content address of one cell result: everything that determines the
/// simulation's output, plus the [`engine_fingerprint`]. Two cells with equal
/// canonical keys are guaranteed byte-identical results; any field changing
/// (a seed override, a different ROB sweep point, an engine upgrade, new
/// sampling knobs) changes the address and forces re-simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellKey {
    /// The [`engine_fingerprint`] of the build that produced the record.
    pub engine: String,
    /// Experiment name (`figure5`, `sweep`, ...).
    pub experiment: String,
    /// Whether the spec describes a reduced fast-mode run.
    pub fast: bool,
    /// The spec's configuration hash (covers workloads, configs, overrides,
    /// widths, baseline policy, scale and seed).
    pub config_hash: String,
    /// The cell identity string `"{workload} / {config} / {way}-way"` — the
    /// same key `momlab diff` matches cells by.
    pub cell: String,
    /// ISA label of the cell's machine configuration.
    pub isa: String,
    /// Memory-model label (perfect models embed their latency).
    pub mem: String,
    /// Reorder-buffer override of the cell's config (`None` = Table 1 size).
    pub rob: Option<u64>,
    /// Workload scale factor.
    pub scale: u64,
    /// Workload generator seed.
    pub seed: u64,
    /// Sampling knobs for estimated records; `None` for exact records.
    pub sampling: Option<SamplingKnobs>,
}

impl CellKey {
    /// The canonical single-line form of the key — what gets hashed into the
    /// record file name and compared verbatim on load (the collision guard).
    pub fn canonical(&self) -> String {
        let rob = match self.rob {
            Some(rob) => rob.to_string(),
            None => "default".to_string(),
        };
        let sampling = match &self.sampling {
            None => "exact".to_string(),
            Some(k) => format!("sampled:{}/{}/{}", k.unit, k.warmup, k.period),
        };
        format!(
            "{} | {} fast:{} {} | {} | isa:{} mem:{} rob:{} | scale:{} seed:{} | {}",
            self.engine,
            self.experiment,
            self.fast,
            self.config_hash,
            self.cell,
            self.isa,
            self.mem,
            rob,
            self.scale,
            self.seed,
            sampling,
        )
    }

    /// The record file name: the FNV-1a hash of the canonical key, in hex.
    pub fn file_name(&self) -> String {
        format!("{:016x}.cell", fnv1a(self.canonical().as_bytes()))
    }

    fn save_state(&self, e: &mut Encoder) {
        e.blob(self.engine.as_bytes());
        e.blob(self.experiment.as_bytes());
        e.bool(self.fast);
        e.blob(self.config_hash.as_bytes());
        e.blob(self.cell.as_bytes());
        e.blob(self.isa.as_bytes());
        e.blob(self.mem.as_bytes());
        match self.rob {
            Some(rob) => {
                e.bool(true);
                e.u64(rob);
            }
            None => e.bool(false),
        }
        e.u64(self.scale);
        e.u64(self.seed);
        match &self.sampling {
            Some(k) => {
                e.bool(true);
                e.u64(k.unit);
                e.u64(k.warmup);
                e.u64(k.period);
            }
            None => e.bool(false),
        }
    }

    fn load_state(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let text = |bytes: &[u8], what: &'static str| -> Result<String, CodecError> {
            String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::Invalid { what })
        };
        let engine = text(d.blob("cache key engine")?, "cache key engine")?;
        let experiment = text(d.blob("cache key experiment")?, "cache key experiment")?;
        let fast = d.bool("cache key fast flag")?;
        let config_hash = text(d.blob("cache key config hash")?, "cache key config hash")?;
        let cell = text(d.blob("cache key cell")?, "cache key cell")?;
        let isa = text(d.blob("cache key isa")?, "cache key isa")?;
        let mem = text(d.blob("cache key mem")?, "cache key mem")?;
        let rob = if d.bool("cache key rob flag")? {
            Some(d.u64("cache key rob")?)
        } else {
            None
        };
        let scale = d.u64("cache key scale")?;
        let seed = d.u64("cache key seed")?;
        let sampling = if d.bool("cache key sampling flag")? {
            Some(SamplingKnobs {
                unit: d.u64("cache key sampling unit")?,
                warmup: d.u64("cache key sampling warmup")?,
                period: d.u64("cache key sampling period")?,
            })
        } else {
            None
        };
        Ok(CellKey {
            engine,
            experiment,
            fast,
            config_hash,
            cell,
            isa,
            mem,
            rob,
            scale,
            seed,
            sampling,
        })
    }
}

/// One cached cell result — exactly what the runner's assembly stage needs
/// to rebuild the cell without simulating: the timing summary, the verified
/// stall attribution and interval timeline, the memory-system statistics,
/// and (for sampled cells) the confidence-interval accounting. Speed-ups are
/// *not* cached: they depend on the baseline cell and are derived fresh at
/// assembly, so a record stays valid under any baseline policy.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRecord {
    /// The cell's timing summary.
    pub sim: SimResult,
    /// Stall breakdown and interval timeline.
    pub probe: ProbeReport,
    /// Memory-system statistics.
    pub mem: MemSystemStats,
    /// Sampling accounting for estimated records; `None` for exact records.
    pub sampling: Option<CellSampling>,
}

impl CellRecord {
    /// Serialize the full record file: magic, version, the key it answers
    /// for, and the result payload. Deterministic — two encodings of equal
    /// records are byte-identical, which is what lets `momlab cache verify`
    /// compare re-simulated records file-byte for file-byte.
    pub fn to_bytes(&self, key: &CellKey) -> Vec<u8> {
        let mut e = Encoder::new();
        e.u64(CACHE_MAGIC);
        e.u32(CACHE_VERSION);
        key.save_state(&mut e);
        let mut p = Encoder::new();
        self.save_payload(&mut p);
        e.blob(p.bytes());
        e.into_bytes()
    }

    /// Decode a record file written by [`CellRecord::to_bytes`].
    ///
    /// # Errors
    ///
    /// Fails on a wrong magic number, an unknown version, truncation at any
    /// field boundary, out-of-range values, or trailing bytes — every one of
    /// which [`CellCache::load`] turns into a clean miss.
    pub fn from_bytes(bytes: &[u8]) -> Result<(CellKey, CellRecord), CodecError> {
        let mut d = Decoder::new(bytes);
        d.expect_u64(CACHE_MAGIC, "cache record magic")?;
        let version = d.u32("cache record version")?;
        if version != CACHE_VERSION {
            return Err(CodecError::Version { what: "cache record", found: version });
        }
        let key = CellKey::load_state(&mut d)?;
        let payload = d.blob("cache record payload")?;
        d.finish("cache record")?;
        let mut p = Decoder::new(payload);
        let record = CellRecord::load_payload(&mut p)?;
        p.finish("cache record payload")?;
        Ok((key, record))
    }

    fn save_payload(&self, e: &mut Encoder) {
        e.u64(self.sim.cycles);
        e.u64(self.sim.committed);
        e.u64(self.sim.branches);
        e.u64(self.sim.mispredictions);
        e.u64(self.sim.mem_retries);
        e.u64(self.sim.mem_accesses);
        self.probe.save_state(e);
        self.mem.save_state(e);
        match &self.sampling {
            Some(s) => {
                e.bool(true);
                e.u64(s.units_measured);
                e.u64(s.measured_insts);
                e.u64(s.warmup_insts);
                e.u64(s.total_insts);
                e.f64(s.ipc_mean);
                e.f64(s.ipc_ci95);
            }
            None => e.bool(false),
        }
    }

    fn load_payload(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let sim = SimResult {
            cycles: d.u64("cached cycles")?,
            committed: d.u64("cached committed")?,
            branches: d.u64("cached branches")?,
            mispredictions: d.u64("cached mispredictions")?,
            mem_retries: d.u64("cached mem retries")?,
            mem_accesses: d.u64("cached mem accesses")?,
        };
        let probe = ProbeReport::load_state(d)?;
        let mem = MemSystemStats::load_state(d)?;
        let sampling = if d.bool("cached sampling flag")? {
            Some(CellSampling {
                units_measured: d.u64("cached units measured")?,
                measured_insts: d.u64("cached measured insts")?,
                warmup_insts: d.u64("cached warmup insts")?,
                total_insts: d.u64("cached total insts")?,
                ipc_mean: d.f64("cached ipc mean")?,
                ipc_ci95: d.f64("cached ipc ci95")?,
            })
        } else {
            None
        };
        Ok(CellRecord { sim, probe, mem, sampling })
    }
}

/// One record file as seen by `momlab cache ls`/`gc`: its path, size, last
/// access (hits touch the mtime — the LRU clock), and decoded key when the
/// file is a valid record (`None` marks a corrupt file, which `gc` still
/// evicts and a lookup treats as a miss).
#[derive(Debug)]
pub struct CacheEntry {
    /// Absolute or cache-relative path of the record file.
    pub path: PathBuf,
    /// File size in bytes.
    pub bytes: u64,
    /// Modification time — touched on every hit, so eviction is LRU.
    pub mtime: SystemTime,
    /// The record's key, or `None` when the file fails to decode.
    pub key: Option<CellKey>,
}

/// The `meta.cache` accounting of one run against a [`CellCache`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheMeta {
    /// Cells served from the cache.
    pub hits: u64,
    /// Cells that had to simulate.
    pub misses: u64,
    /// Records written (every miss fills).
    pub fills: u64,
    /// Total bytes of all record files after the run.
    pub bytes: u64,
    /// The cache directory.
    pub dir: String,
}

/// The on-disk store: a directory of `*.cell` record files addressed by
/// [`CellKey::file_name`]. Lookups treat every failure as a miss; fills are
/// atomic (tmp + rename), so concurrent readers never observe a torn record.
#[derive(Debug)]
pub struct CellCache {
    dir: PathBuf,
}

impl CellCache {
    /// Open (creating if missing) the cache directory.
    ///
    /// # Errors
    ///
    /// Fails when the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<CellCache> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(CellCache { dir })
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The record file path a key addresses.
    pub fn record_path(&self, key: &CellKey) -> PathBuf {
        self.dir.join(key.file_name())
    }

    /// Look up a cell result. Every failure — missing file, unreadable file,
    /// wrong magic or version, truncation anywhere, trailing garbage, or a
    /// stored key that does not match `key` (an FNV collision or a tampered
    /// file) — is a clean miss: the caller re-simulates and overwrites. A hit
    /// touches the file's mtime (best-effort) so `gc` eviction is LRU.
    pub fn load(&self, key: &CellKey) -> Option<CellRecord> {
        let path = self.record_path(key);
        let bytes = std::fs::read(&path).ok()?;
        let (stored, record) = CellRecord::from_bytes(&bytes).ok()?;
        if stored.canonical() != key.canonical() {
            return None;
        }
        if let Ok(file) = std::fs::File::options().write(true).open(&path) {
            let _ = file.set_modified(SystemTime::now());
        }
        Some(record)
    }

    /// Write (or overwrite) a record atomically: the bytes land in a
    /// process-unique temporary file first and are renamed into place, so a
    /// concurrent reader sees either the old record or the new one, never a
    /// torn write.
    ///
    /// # Panics
    ///
    /// Panics when the record cannot be written — a cache directory that
    /// stops accepting writes mid-run is a configuration error worth failing
    /// loudly on.
    pub fn store(&self, key: &CellKey, record: &CellRecord) {
        let path = self.record_path(key);
        let tmp = path.with_extension(format!("tmp{}", std::process::id()));
        std::fs::write(&tmp, record.to_bytes(key))
            .and_then(|()| std::fs::rename(&tmp, &path))
            .unwrap_or_else(|err| panic!("cannot write cache record {}: {err}", path.display()));
    }

    /// Total bytes of every record file currently in the cache.
    pub fn bytes(&self) -> u64 {
        std::fs::read_dir(&self.dir)
            .map(|it| {
                it.flatten()
                    .filter(|e| is_record(&e.path()))
                    .filter_map(|e| e.metadata().ok())
                    .map(|m| m.len())
                    .sum()
            })
            .unwrap_or(0)
    }

    /// Every record file in the cache, sorted by path (deterministic), with
    /// keys decoded where possible.
    ///
    /// # Errors
    ///
    /// Fails when the directory cannot be read.
    pub fn entries(&self) -> std::io::Result<Vec<CacheEntry>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            let path = entry.path();
            if !is_record(&path) {
                continue;
            }
            let meta = entry.metadata()?;
            let key = std::fs::read(&path)
                .ok()
                .and_then(|bytes| CellRecord::from_bytes(&bytes).ok())
                .map(|(key, _)| key);
            out.push(CacheEntry {
                path,
                bytes: meta.len(),
                mtime: meta.modified().unwrap_or(SystemTime::UNIX_EPOCH),
                key,
            });
        }
        out.sort_by(|a, b| a.path.cmp(&b.path));
        Ok(out)
    }

    /// Evict least-recently-used records (oldest mtime first; hits touch the
    /// mtime) until the cache fits in `max_bytes`. Corrupt files evict like
    /// any other. Returns `(evicted_records, evicted_bytes, remaining_bytes)`.
    ///
    /// # Errors
    ///
    /// Fails when the directory cannot be read or a record cannot be removed.
    pub fn gc(&self, max_bytes: u64) -> std::io::Result<(usize, u64, u64)> {
        let mut entries = self.entries()?;
        entries.sort_by(|a, b| (a.mtime, &a.path).cmp(&(b.mtime, &b.path)));
        let mut remaining: u64 = entries.iter().map(|e| e.bytes).sum();
        let (mut evicted, mut evicted_bytes) = (0usize, 0u64);
        for entry in &entries {
            if remaining <= max_bytes {
                break;
            }
            std::fs::remove_file(&entry.path)?;
            remaining -= entry.bytes;
            evicted += 1;
            evicted_bytes += entry.bytes;
        }
        Ok((evicted, evicted_bytes, remaining))
    }
}

/// Whether a path names a cache record file (`*.cell`).
fn is_record(path: &Path) -> bool {
    path.extension().and_then(|e| e.to_str()) == Some("cell")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> CellKey {
        CellKey {
            engine: engine_fingerprint(),
            experiment: "figure5".into(),
            fast: true,
            config_hash: "fnv1a:0123456789abcdef".into(),
            cell: "idct / mom / 4-way".into(),
            isa: "mom".into(),
            mem: "real".into(),
            rob: None,
            scale: 1,
            seed: 12345,
            sampling: None,
        }
    }

    fn record() -> CellRecord {
        CellRecord {
            sim: SimResult {
                cycles: 1000,
                committed: 2000,
                branches: 30,
                mispredictions: 4,
                mem_retries: 5,
                mem_accesses: 600,
            },
            probe: ProbeReport::default(),
            mem: MemSystemStats::default(),
            sampling: None,
        }
    }

    #[test]
    fn fingerprint_names_version() {
        assert_eq!(MODEL_DIGEST.len(), 16);
        assert!(MODEL_DIGEST.bytes().all(|b| b.is_ascii_hexdigit()));
        assert_eq!(
            engine_fingerprint(),
            format!("momlab {} model:{MODEL_DIGEST}", env!("CARGO_PKG_VERSION"))
        );
    }

    #[test]
    fn a_record_from_other_model_code_is_a_miss() {
        let dir = std::env::temp_dir().join(format!("momlab-cache-model-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = CellCache::open(&dir).expect("open");
        let (k, r) = (key(), record());
        let other_digest = if MODEL_DIGEST == "0000000000000000" { "1" } else { "0" }.repeat(16);
        let stale = CellKey {
            engine: format!("momlab {} model:{other_digest}", env!("CARGO_PKG_VERSION")),
            ..k.clone()
        };
        cache.store(&stale, &r);
        assert_eq!(cache.load(&stale).as_ref(), Some(&r), "the stale key still finds its record");
        assert!(cache.load(&k).is_none(), "a different model digest is a miss");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn canonical_key_changes_with_every_field() {
        let base = key();
        let mut seen = vec![base.canonical()];
        let variants = [
            CellKey { engine: "momlab 0.0.0".into(), ..base.clone() },
            CellKey { experiment: "sweep".into(), ..base.clone() },
            CellKey { fast: false, ..base.clone() },
            CellKey { config_hash: "fnv1a:0".into(), ..base.clone() },
            CellKey { cell: "fir / mom / 4-way".into(), ..base.clone() },
            CellKey { isa: "alpha".into(), ..base.clone() },
            CellKey { mem: "perfect-1".into(), ..base.clone() },
            CellKey { rob: Some(64), ..base.clone() },
            CellKey { scale: 2, ..base.clone() },
            CellKey { seed: 1, ..base.clone() },
            CellKey {
                sampling: Some(SamplingKnobs { unit: 1000, warmup: 2000, period: 100_000 }),
                ..base.clone()
            },
        ];
        for v in &variants {
            let canon = v.canonical();
            assert!(!seen.contains(&canon), "key variant collided: {canon}");
            seen.push(canon);
        }
    }

    #[test]
    fn record_roundtrip_is_byte_stable() {
        let (k, r) = (key(), record());
        let bytes = r.to_bytes(&k);
        let (k2, r2) = CellRecord::from_bytes(&bytes).expect("decodes");
        assert_eq!(k2, k);
        assert_eq!(r2, r);
        assert_eq!(r2.to_bytes(&k2), bytes, "encode -> decode -> encode must be stable");
    }

    #[test]
    fn store_load_gc_lifecycle() {
        let dir = std::env::temp_dir().join(format!("momlab-cache-unit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = CellCache::open(&dir).expect("open");
        let (k, r) = (key(), record());
        assert!(cache.load(&k).is_none(), "empty cache misses");
        cache.store(&k, &r);
        assert_eq!(cache.load(&k).as_ref(), Some(&r), "stored record hits");
        assert_eq!(cache.bytes(), r.to_bytes(&k).len() as u64);
        let entries = cache.entries().expect("entries");
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].key.as_ref().map(|k| k.cell.clone()), Some(k.cell.clone()));
        let (evicted, evicted_bytes, remaining) = cache.gc(0).expect("gc");
        assert_eq!((evicted, remaining), (1, 0));
        assert_eq!(evicted_bytes, r.to_bytes(&k).len() as u64);
        assert!(cache.load(&k).is_none(), "evicted record misses");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_records_are_clean_misses() {
        let dir = std::env::temp_dir().join(format!("momlab-cache-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = CellCache::open(&dir).expect("open");
        let (k, r) = (key(), record());
        let good = r.to_bytes(&k);
        let path = cache.record_path(&k);
        // Truncation at every byte boundary is a miss, never a panic.
        for len in 0..good.len() {
            std::fs::write(&path, &good[..len]).expect("write truncated");
            assert!(cache.load(&k).is_none(), "truncated at {len} must miss");
        }
        // Trailing garbage is a miss.
        let mut long = good.clone();
        long.push(0);
        std::fs::write(&path, &long).expect("write oversized");
        assert!(cache.load(&k).is_none(), "trailing bytes must miss");
        // A flipped magic byte is a miss.
        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xff;
        std::fs::write(&path, &bad_magic).expect("write bad magic");
        assert!(cache.load(&k).is_none(), "magic mismatch must miss");
        // A bumped version is a miss.
        let mut bad_version = good.clone();
        bad_version[8] = bad_version[8].wrapping_add(1);
        std::fs::write(&path, &bad_version).expect("write bad version");
        assert!(cache.load(&k).is_none(), "version bump must miss");
        // A re-fill overwrites the bad record and hits again.
        cache.store(&k, &r);
        assert_eq!(cache.load(&k).as_ref(), Some(&r));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_mismatch_under_same_file_name_is_a_miss() {
        let dir = std::env::temp_dir().join(format!("momlab-cache-alias-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = CellCache::open(&dir).expect("open");
        let (k, r) = (key(), record());
        // Simulate an FNV collision: a valid record for a *different* key
        // planted at this key's path must not be served.
        let other = CellKey { seed: 999, ..k.clone() };
        std::fs::write(cache.record_path(&k), r.to_bytes(&other)).expect("plant alias");
        assert!(cache.load(&k).is_none(), "stored key must match the address");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
