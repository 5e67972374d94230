//! The persistent content-addressed cell result cache.
//!
//! Every grid cell is a pure function of its inputs — the workload, its
//! scale and seed, the machine (ISA, memory model, ROB size, issue width)
//! and the sampling parameters — and the runner's determinism guarantee
//! makes the outputs byte-identical across execution modes and worker
//! counts. That is exactly the property a content-addressed cache needs:
//! hash the inputs once, never simulate the same cell twice. [`CellKey`] is
//! the address, [`CellRecord`] is the stored result (timing summary, stall
//! attribution, memory statistics and — for sampled cells — the
//! confidence-interval accounting), and [`CellCache`] is the on-disk store:
//! one record file per cell under a directory, replaced by atomic rename.
//!
//! # The record format
//!
//! A record is one compact JSON object written by [`crate::json`], with the
//! members in this order:
//!
//! ```text
//! {"version":3,"key":{..},"sim":{..},"breakdown":{..},"intervals":{..},
//!  "mem":{..},"sampling":null,"fnv1a":"<16 hex digits>"}
//! ```
//!
//! `key` holds the [`CellKey`] fields; `breakdown`, `intervals`, `mem` and a
//! sampled record's `sampling` are the same objects a results document
//! writes for the cell. The last member is the FNV-1a of every byte of the
//! file before it, so a flipped byte anywhere is caught even where it would
//! still parse as a plausible counter. This module is the only place the
//! format is written or read; any JSON tool can read a record.
//!
//! # Invalidation
//!
//! A key binds the [`engine_fingerprint`] (the crate version plus the
//! [`MODEL_DIGEST`] of the simulator's source code) and the cell's inputs;
//! the experiment that asked for a cell is not one of them, so a cell that
//! two experiments share is simulated once. Exact records carry no sampling
//! knobs at all, so a cache filled by either exact mode (fanout or streamed)
//! serves hits to the other — their results are byte-identical by the
//! determinism guarantee. Sampled records key separately per
//! `(unit, warmup, period)` triple.
//!
//! # Corruption is a miss
//!
//! A cache record is purely an optimization: a truncated, garbage or
//! wrong-version record, one whose checksum does not match its text, one
//! that breaks an invariant of the values it holds, or one whose stored key
//! does not match the address that found it is treated as a clean miss. The
//! cell is re-simulated and the bad record atomically overwritten.
//! [`CellCache::load`] never panics and never returns a wrong result.

use std::path::{Path, PathBuf};
use std::time::SystemTime;

use mom_cpu::probe::{IntervalStats, IntervalWindow, StallBreakdown, StallCause};
use mom_cpu::{MachineDescriptor, ProbeReport, SimResult};
use mom_isa::trace::IsaKind;
use mom_mem::cache::CacheStats;
use mom_mem::dram::DramStats;
use mom_mem::MemSystemStats;

use crate::document::{
    breakdown_json, intervals_json, mem_from_label, mem_json, mem_label, sampling_fields,
};
use crate::json::Value;
use crate::runner::{CellSampling, ExecMode};
use crate::spec::{BaselinePolicy, Cell, GridSpec, MachineConfig, Workload};

/// Version of the record layout. Bumping it invalidates every existing
/// record: a record of another version is a clean miss. Version 1 was a
/// binary layout; its files do not parse as JSON.
pub const CACHE_VERSION: u32 = 3;

/// The text that opens a record's last member, the checksum.
const CHECKSUM_MEMBER: &str = ",\"fnv1a\":\"";

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

/// 64-bit FNV-1a — deterministic across platforms and runs, which is what
/// addresses record files, checksums them and hashes a spec's configuration
/// (`ExperimentSpec::config_hash`).
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The sampling knobs of a sampled record. Exact records carry `None`
/// instead, so they share one address across execution modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplingKnobs {
    /// Measured instructions per sampling unit.
    pub unit: u64,
    /// Detailed warm-up instructions before each unit.
    pub warmup: u64,
    /// Sampling period in dynamic instructions.
    pub period: u64,
}

/// The content address of one cell result: exactly the inputs of the
/// cell's simulation, plus the [`engine_fingerprint`]. The workload, scale
/// and seed decide the instruction stream; the ISA, memory model, effective
/// ROB size and issue width decide the machine; the sampling knobs decide
/// which windows are timed. Nothing about the experiment that asked for the
/// cell enters it, so identical cells of different experiments (a Figure 5
/// machine in the latency study, a Table 1 ROB in the sweep) share one
/// record, and [`CellKey::grid`] rebuilds the cell from the key alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellKey {
    /// The [`engine_fingerprint`] of the build that produced the record.
    pub engine: String,
    /// Workload label (`idct`, `jpeg-decode`, ...).
    pub workload: String,
    /// `"kernel"` or `"app"`, as [`Workload::kind_label`] writes it.
    pub workload_kind: String,
    /// ISA label of the cell's machine.
    pub isa: String,
    /// Memory-model label (perfect models embed their latency).
    pub mem: String,
    /// The machine's reorder-buffer size: the Table 1 size for the width,
    /// or the config's override.
    pub rob: u64,
    /// Issue width.
    pub way: u64,
    /// Workload scale factor.
    pub scale: u64,
    /// Workload generator seed.
    pub seed: u64,
    /// Sampling knobs for estimated records; `None` for exact records.
    pub sampling: Option<SamplingKnobs>,
}

impl CellKey {
    /// The key of `cell` of `grid` run in `mode`. The exact modes share one
    /// key per cell; sampled runs key per `(unit, warmup, period)` triple.
    pub fn of(grid: &GridSpec, cell: &Cell, mode: ExecMode) -> CellKey {
        let config = &grid.configs[cell.config];
        CellKey {
            engine: engine_fingerprint(),
            workload: cell.workload.label().into(),
            workload_kind: cell.workload.kind_label().into(),
            isa: config.isa.label().into(),
            mem: mem_label(config.mem),
            rob: config.descriptor(cell.way).core.rob_size as u64,
            way: cell.way as u64,
            scale: grid.scale as u64,
            seed: grid.seed,
            sampling: mode.knobs(),
        }
    }

    /// The inverse of [`CellKey::of`]: a one-cell grid, and the mode to run
    /// it in (streamed for an exact record), whose cell has exactly this
    /// key. The config's ROB override is left out where the key holds the
    /// Table 1 size, so cells of one machine at several widths share a
    /// config when grids are merged.
    ///
    /// # Errors
    ///
    /// Names the field that does not parse, or the key the parsed cell
    /// would have instead (a label in another spelling, a ROB of 0).
    pub fn grid(&self) -> Result<(GridSpec, ExecMode), String> {
        let workload = match self.workload_kind.as_str() {
            "kernel" => Workload::Kernel(self.workload.parse()?),
            "app" => Workload::App(self.workload.parse()?),
            other => return Err(format!("unknown workload kind {other:?}")),
        };
        let isa: IsaKind = self.isa.parse()?;
        let mem = mem_from_label(&self.mem).ok_or(format!("unknown memory {:?}", self.mem))?;
        let Some(way) = [1, 2, 4, 8].into_iter().find(|&w| w as u64 == self.way) else {
            return Err(format!("unsupported issue width {}", self.way));
        };
        if self.scale == 0 {
            return Err("scale 0".into());
        }
        let table1 = MachineDescriptor::for_cell(way, isa, mem).core.rob_size;
        let rob = Some(self.rob as usize).filter(|&rob| rob != table1);
        let label = format!("{isa}/{}/{rob:?}", self.mem);
        let grid = GridSpec {
            workloads: vec![workload],
            configs: vec![MachineConfig { label, isa, mem, rob }],
            widths: vec![way],
            scale: self.scale as usize,
            seed: self.seed,
            baseline: BaselinePolicy::None,
        };
        let mode = self.sampling.map_or(ExecMode::Streamed, |k| ExecMode::Sampled {
            unit_insts: k.unit,
            warmup_insts: k.warmup,
            period: k.period,
        });
        match CellKey::of(&grid, &grid.cells()[0], mode) {
            rebuilt if rebuilt == *self => Ok((grid, mode)),
            rebuilt => Err(format!("it rebuilds as {}", rebuilt.canonical())),
        }
    }

    /// The canonical single-line form of the key, the compact JSON of the
    /// record's `key` member — what gets hashed into the record file name
    /// and what `momlab cache ls` prints.
    pub fn canonical(&self) -> String {
        self.to_json().to_compact()
    }

    /// The record file name: the FNV-1a hash of the canonical key, in hex.
    pub fn file_name(&self) -> String {
        format!("{:016x}.cell", fnv1a(self.canonical().as_bytes()))
    }

    /// The `key` member of a record. Integers are written two's-complement
    /// (`as i64`) and read back the same way, which is lossless for every
    /// `u64`; the key read back is compared whole with the one that asked,
    /// so it needs no range check.
    fn to_json(&self) -> Value {
        let int = |n: u64| Value::Int(n as i64);
        let sampling = match &self.sampling {
            None => Value::Null,
            Some(k) => Value::object(vec![
                ("unit", int(k.unit)),
                ("warmup", int(k.warmup)),
                ("period", int(k.period)),
            ]),
        };
        Value::object(vec![
            ("engine", Value::Str(self.engine.clone())),
            ("workload", Value::Str(self.workload.clone())),
            ("workload_kind", Value::Str(self.workload_kind.clone())),
            ("isa", Value::Str(self.isa.clone())),
            ("mem", Value::Str(self.mem.clone())),
            ("rob", int(self.rob)),
            ("way", int(self.way)),
            ("scale", int(self.scale)),
            ("seed", int(self.seed)),
            ("sampling", sampling),
        ])
    }

    /// Read a key written by [`CellKey::to_json`].
    fn from_json(v: &Value) -> Option<CellKey> {
        let text = |name: &str| v.get(name)?.as_str().map(String::from);
        let int = |v: &Value| v.as_i64().map(|n| n as u64);
        let sampling = match v.get("sampling")? {
            Value::Null => None,
            k => {
                let (unit_insts, warmup_insts, period) =
                    (int(k.get("unit")?)?, int(k.get("warmup")?)?, int(k.get("period")?)?);
                // `momlab cache verify` reruns the knobs it reads, and knobs
                // that no sampled run accepts would panic that run.
                ExecMode::Sampled { unit_insts, warmup_insts, period }.check().ok()?;
                Some(SamplingKnobs { unit: unit_insts, warmup: warmup_insts, period })
            }
        };
        Some(CellKey {
            engine: text("engine")?,
            workload: text("workload")?,
            workload_kind: text("workload_kind")?,
            isa: text("isa")?,
            mem: text("mem")?,
            rob: int(v.get("rob")?)?,
            way: int(v.get("way")?)?,
            scale: int(v.get("scale")?)?,
            seed: int(v.get("seed")?)?,
            sampling,
        })
    }
}

/// One cell's simulated result — exactly what the runner's assembly stage
/// needs to build the cell, whether it was just simulated or loaded from the
/// cache: the timing summary, the verified stall attribution and interval
/// timeline, the memory-system statistics (captured before the machine went
/// back to its pool), and (for sampled cells) the confidence-interval
/// accounting. Speed-ups are *not* part of it: they depend on the baseline
/// cell and are derived fresh at assembly, so a record stays valid under
/// any baseline policy.
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
    /// The record object for `key`, every member but the checksum.
    fn to_json(&self, key: &CellKey) -> Value {
        let int = |n: u64| Value::Int(n as i64);
        Value::object(vec![
            ("version", Value::Int(CACHE_VERSION.into())),
            ("key", key.to_json()),
            (
                "sim",
                Value::object(vec![
                    ("cycles", int(self.sim.cycles)),
                    ("committed", int(self.sim.committed)),
                    ("branches", int(self.sim.branches)),
                    ("mispredictions", int(self.sim.mispredictions)),
                    ("mem_accesses", int(self.sim.mem_accesses)),
                ]),
            ),
            ("breakdown", breakdown_json(&self.probe.breakdown)),
            ("intervals", intervals_json(&self.probe.intervals)),
            ("mem", mem_json(&self.mem)),
            (
                "sampling",
                self.sampling.as_ref().map_or(Value::Null, |s| Value::object(sampling_fields(s))),
            ),
        ])
    }

    /// Read a record object written by [`CellRecord::to_json`], checking
    /// every value: counters are non-negative integers, floats are finite,
    /// stall causes are known, and the probe report passes
    /// [`ProbeReport::validate`]. Derived members (`ipc`, `hit_rate`) are
    /// not read. `None` on the first failure.
    fn from_json(doc: &Value) -> Option<(CellKey, CellRecord)> {
        let count = |v: &Value, name: &str| v.get(name)?.as_u64();
        let finite = |v: &Value, name: &str| v.get(name)?.as_f64().filter(|f| f.is_finite());
        if doc.get("version")?.as_u64()? != u64::from(CACHE_VERSION) {
            return None;
        }
        let key = CellKey::from_json(doc.get("key")?)?;

        let s = doc.get("sim")?;
        let sim = SimResult {
            cycles: count(s, "cycles")?,
            committed: count(s, "committed")?,
            branches: count(s, "branches")?,
            mispredictions: count(s, "mispredictions")?,
            mem_accesses: count(s, "mem_accesses")?,
        };

        let b = doc.get("breakdown")?;
        let mut parts = [0u64; StallCause::COUNT];
        for (part, cause) in parts.iter_mut().zip(StallCause::ALL) {
            *part = count(b, cause.label())?;
        }
        let iv = doc.get("intervals")?;
        let windows = iv
            .get("windows")?
            .as_array()?
            .iter()
            .map(|w| {
                let top = w.get("top")?.as_str()?;
                Some(IntervalWindow {
                    committed: count(w, "committed")?,
                    cycles: count(w, "cycles")?,
                    top: StallCause::ALL.into_iter().find(|c| c.label() == top)?,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        let probe = ProbeReport {
            breakdown: StallBreakdown::from_parts(count(b, "total_cycles")?, parts),
            intervals: IntervalStats { window_cycles: count(iv, "window_cycles")?, windows },
        };
        probe.validate().ok()?;

        let m = doc.get("mem")?;
        let cache = |c: &Value| {
            Some(CacheStats {
                hits: count(c, "hits")?,
                misses: count(c, "misses")?,
                writebacks: count(c, "writebacks")?,
            })
        };
        let dram = m.get("dram")?;
        let mem = MemSystemStats {
            requests: count(m, "requests")?,
            element_accesses: count(m, "element_accesses")?,
            port_stalls: count(m, "port_stalls")?,
            bank_conflicts: count(m, "bank_conflicts")?,
            mshr_stalls: count(m, "mshr_stalls")?,
            vector_transactions: count(m, "vector_transactions")?,
            l1: cache(m.get("l1")?)?,
            l2: cache(m.get("l2")?)?,
            dram: DramStats {
                transfers: count(dram, "transfers")?,
                busy_cycles: count(dram, "busy_cycles")?,
                queue_cycles: count(dram, "queue_cycles")?,
            },
        };

        let sampling = match doc.get("sampling")? {
            Value::Null => None,
            s => Some(CellSampling {
                units_measured: count(s, "units_measured")?,
                measured_insts: count(s, "measured_insts")?,
                warmup_insts: count(s, "warmup_insts")?,
                total_insts: count(s, "total_insts")?,
                ipc_mean: finite(s, "ipc_mean")?,
                ipc_ci95: finite(s, "ipc_ci95")?,
            }),
        };
        Some((key, CellRecord { sim, probe, mem, sampling }))
    }
}

/// The text of a record file: `doc` written compact, with the checksum
/// member (the FNV-1a of all the text before it) appended last.
/// Deterministic — two encodings of equal records are byte-identical, which
/// is what lets `momlab cache verify` compare re-simulated records
/// file-byte for file-byte.
fn seal(doc: &Value) -> String {
    let mut text = doc.to_compact();
    text.pop(); // the object's closing brace; the checksum goes before it
    let sum = fnv1a(text.as_bytes());
    text.push_str(&format!("{CHECKSUM_MEMBER}{sum:016x}\"}}"));
    text
}

/// The record file for `key`.
fn encode(key: &CellKey, record: &CellRecord) -> String {
    seal(&record.to_json(key))
}

/// Read a record file written by [`encode`]: the checksum must match the
/// text before it, and the text must hold a valid record of this version.
fn decode(text: &str) -> Option<(CellKey, CellRecord)> {
    let (body, tail) = text.rsplit_once(CHECKSUM_MEMBER)?;
    if tail != format!("{:016x}\"}}", fnv1a(body.as_bytes())) {
        return None;
    }
    CellRecord::from_json(&Value::parse(text).ok()?)
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

    /// Look up a cell result. Every failure — missing or unreadable file,
    /// a checksum that does not match (truncation, trailing garbage, any
    /// flipped byte), malformed JSON, another version, a value that breaks
    /// an invariant, or a stored key that does not match `key` (an FNV
    /// collision or a tampered file) — is a clean miss: the caller
    /// re-simulates and overwrites. A hit touches the file's mtime
    /// (best-effort) so `gc` eviction is LRU.
    pub fn load(&self, key: &CellKey) -> Option<CellRecord> {
        let path = self.record_path(key);
        let text = std::fs::read_to_string(&path).ok()?;
        let (stored, record) = decode(&text)?;
        if stored != *key {
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
        std::fs::write(&tmp, encode(key, record))
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
            let key = std::fs::read_to_string(&path)
                .ok()
                .and_then(|text| decode(&text))
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
            workload: "idct".into(),
            workload_kind: "kernel".into(),
            isa: "mom".into(),
            mem: "perfect-1".into(),
            rob: 32,
            way: 4,
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
                mem_accesses: 600,
            },
            probe: ProbeReport::default(),
            mem: MemSystemStats::default(),
            sampling: None,
        }
    }

    fn sampled_record() -> CellRecord {
        CellRecord {
            sampling: Some(CellSampling {
                units_measured: 3,
                measured_insts: 300,
                warmup_insts: 600,
                total_insts: 2000,
                ipc_mean: 1.75,
                ipc_ci95: 0.125,
            }),
            ..record()
        }
    }

    /// `doc` with the member at `path` (object keys, outermost first)
    /// replaced by `value`.
    fn with(mut doc: Value, path: &[&str], value: Value) -> Value {
        let mut at = &mut doc;
        for name in path {
            match at {
                Value::Object(members) => {
                    at = &mut members.iter_mut().find(|(k, _)| k == name).expect("member").1;
                }
                _ => panic!("{name}: not inside an object"),
            }
        }
        *at = value;
        doc
    }

    /// `count` interval windows of zero cycles.
    fn windows(count: usize) -> Value {
        let window = Value::object(vec![
            ("committed", Value::Int(0)),
            ("cycles", Value::Int(0)),
            ("ipc", Value::Int(0)),
            ("top", Value::Str("base".into())),
        ]);
        Value::Array(vec![window; count])
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
            CellKey { workload: "fir".into(), ..base.clone() },
            CellKey { workload_kind: "app".into(), ..base.clone() },
            CellKey { isa: "alpha".into(), ..base.clone() },
            CellKey { mem: "perfect-50".into(), ..base.clone() },
            CellKey { rob: 64, ..base.clone() },
            CellKey { way: 8, ..base.clone() },
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
        let wide = CellKey {
            rob: 64,
            seed: u64::MAX - 1,
            sampling: Some(SamplingKnobs { unit: 1000, warmup: 2000, period: 100_000 }),
            ..key()
        };
        for (k, r) in [(key(), record()), (wide, sampled_record())] {
            let text = encode(&k, &r);
            assert!(Value::parse(&text).is_ok(), "a record is one JSON document");
            let (k2, r2) = decode(&text).expect("decodes");
            assert_eq!(k2, k);
            assert_eq!(r2, r);
            assert_eq!(encode(&k2, &r2), text, "encode -> decode -> encode must be stable");
        }
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
        assert_eq!(cache.bytes(), encode(&k, &r).len() as u64);
        let entries = cache.entries().expect("entries");
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].key.as_ref(), Some(&k));
        let (evicted, evicted_bytes, remaining) = cache.gc(0).expect("gc");
        assert_eq!((evicted, remaining), (1, 0));
        assert_eq!(evicted_bytes, encode(&k, &r).len() as u64);
        assert!(cache.load(&k).is_none(), "evicted record misses");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_records_are_clean_misses() {
        let dir = std::env::temp_dir().join(format!("momlab-cache-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = CellCache::open(&dir).expect("open");
        let (k, r) = (key(), record());
        let good = encode(&k, &r).into_bytes();
        let path = cache.record_path(&k);
        let misses = |bytes: &[u8], what: &str| {
            std::fs::write(&path, bytes).expect("write record");
            assert!(cache.load(&k).is_none(), "{what} must miss");
        };
        // Truncation at every byte boundary is a miss, never a panic.
        for len in 0..good.len() {
            misses(&good[..len], &format!("truncation at {len}"));
        }
        let mut long = good.clone();
        long.push(b' ');
        misses(&long, "trailing bytes");
        let mut flipped_sum = good.clone();
        let last_digit = good.len() - 3;
        flipped_sum[last_digit] ^= 0x01;
        misses(&flipped_sum, "a flipped checksum digit");
        let mut flipped_counter = good.clone();
        let at = String::from_utf8(good.clone()).unwrap().find("\"cycles\":1000").unwrap() + 10;
        flipped_counter[at] = b'2';
        misses(&flipped_counter, "a changed counter under the old checksum");
        // A version-1 binary record (magic, version, then the key) is a miss.
        let mut v1 = b"MOMCELL\0".to_vec();
        v1.extend_from_slice(&1u32.to_le_bytes());
        v1.extend_from_slice(&(k.engine.len() as u64).to_le_bytes());
        v1.extend_from_slice(k.engine.as_bytes());
        misses(&v1, "a version-1 binary record");

        // Records with a valid checksum whose values break a check.
        let doc = r.to_json(&k);
        let sealed_misses = |doc: Value, what: &str| misses(seal(&doc).as_bytes(), what);
        sealed_misses(with(doc.clone(), &["version"], Value::Int(2)), "another version");
        sealed_misses(
            with(doc.clone(), &["breakdown", "total_cycles"], Value::Int(1)),
            "a breakdown that does not sum to its total",
        );
        for width in [512, 1536] {
            sealed_misses(
                with(doc.clone(), &["intervals", "window_cycles"], Value::Int(width)),
                &format!("window width {width}"),
            );
        }
        let at_limit = seal(&with(doc.clone(), &["intervals", "windows"], windows(32)));
        std::fs::write(&path, &at_limit).expect("write record");
        assert!(cache.load(&k).is_some(), "32 windows is what the recorder keeps");
        sealed_misses(with(doc.clone(), &["intervals", "windows"], windows(33)), "33 windows");
        let unknown_cause = Value::Array(vec![Value::object(vec![
            ("committed", Value::Int(0)),
            ("cycles", Value::Int(0)),
            ("ipc", Value::Int(0)),
            ("top", Value::Str("mem-l3".into())),
        ])]);
        sealed_misses(
            with(doc.clone(), &["intervals", "windows"], unknown_cause),
            "an unknown stall cause",
        );
        sealed_misses(with(doc.clone(), &["sim", "cycles"], Value::Int(-1)), "a negative counter");
        sealed_misses(with(doc.clone(), &["sim", "cycles"], Value::Float(1.5)), "a float counter");
        sealed_misses(with(doc.clone(), &["mem", "l2"], Value::Null), "a missing cache level");
        let sampled = sampled_record().to_json(&k);
        sealed_misses(
            with(sampled, &["sampling", "ipc_mean"], Value::Null),
            "a null IPC in the sampling section",
        );
        // A re-fill overwrites the bad record and hits again.
        cache.store(&k, &r);
        assert_eq!(cache.load(&k).as_ref(), Some(&r));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sampling_knobs_no_run_accepts_are_an_unreadable_record() {
        let dir = std::env::temp_dir().join(format!("momlab-cache-knobs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = CellCache::open(&dir).expect("open");
        let knobs = SamplingKnobs { unit: 50, warmup: 50, period: 0 };
        let k = CellKey { sampling: Some(knobs), ..key() };
        cache.store(&k, &sampled_record());
        assert!(cache.load(&k).is_none(), "a period shorter than its window must miss");
        let entries = cache.entries().expect("entries");
        assert!(entries[0].key.is_none(), "cache verify must skip the record, not run it");
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
        std::fs::write(cache.record_path(&k), encode(&other, &r)).expect("plant alias");
        assert!(cache.load(&k).is_none(), "stored key must match the address");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_builtin_cell_rebuilds_from_its_key() {
        let sampled = ExecMode::Sampled { unit_insts: 50, warmup_insts: 50, period: 400 };
        for name in crate::spec::BUILTIN_EXPERIMENTS {
            let spec = crate::spec::ExperimentSpec::builtin(name, 1, false).expect("built-in");
            let Some(grid) = spec.grid() else { continue };
            for cell in grid.cells() {
                for (mode, rerun) in [(ExecMode::Fanout, ExecMode::Streamed), (sampled, sampled)] {
                    let key = CellKey::of(grid, &cell, mode);
                    let (one, rerun_mode) = key.grid().unwrap_or_else(|e| panic!("{name}: {e}"));
                    assert_eq!(rerun_mode, rerun);
                    assert_eq!(CellKey::of(&one, &one.cells()[0], rerun_mode), key);
                }
            }
        }
    }

    #[test]
    fn keys_that_name_no_cell_do_not_decode() {
        let bad = [
            CellKey { workload_kind: "trace".into(), ..key() },
            CellKey { workload: "idct".into(), workload_kind: "app".into(), ..key() },
            CellKey { workload: "IDCT".into(), ..key() },
            CellKey { isa: "sparc".into(), ..key() },
            CellKey { mem: "perfect".into(), ..key() },
            CellKey { mem: "perfect-01".into(), ..key() },
            CellKey { mem: "tape".into(), ..key() },
            CellKey { rob: 0, ..key() },
            CellKey { way: 3, ..key() },
            CellKey { scale: 0, ..key() },
        ];
        assert!(key().grid().is_ok());
        for k in bad {
            assert!(k.grid().is_err(), "{} decoded", k.canonical());
        }
    }
}
