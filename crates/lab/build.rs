//! Computes `MOM_MODEL_DIGEST`: a 64-bit FNV-1a hash over every source file
//! of the crates whose code decides a simulated result — the ISA, the
//! functional core, the timing core, the memory models, the kernels, the
//! applications and this crate's own runner. `engine_fingerprint()` embeds
//! it, so a cell-cache record made by different model code is a miss
//! instead of a stale hit. Files are visited in sorted path order and each
//! contributes its workspace-relative path, length and bytes, so the digest
//! depends on content only, never on the checkout location or file system.

use std::path::{Path, PathBuf};
use std::{env, fs};

/// The crates under `crates/` whose `src/` trees feed the digest.
const MODEL_CRATES: [&str; 7] = ["isa", "core", "cpu", "mem", "kernels", "apps", "lab"];

/// 64-bit FNV-1a, the construction `cache::fnv1a` uses, continued from
/// `hash` so the whole tree folds into one value.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries =
        fs::read_dir(dir).unwrap_or_else(|e| panic!("cannot list {}: {e}", dir.display()));
    for entry in entries {
        let path = entry.unwrap_or_else(|e| panic!("cannot list {}: {e}", dir.display())).path();
        if path.is_dir() {
            collect_files(&path, out);
        } else {
            out.push(path);
        }
    }
}

fn main() {
    let manifest_dir =
        PathBuf::from(env::var("CARGO_MANIFEST_DIR").expect("cargo sets CARGO_MANIFEST_DIR"));
    let crates_dir = manifest_dir.parent().expect("mom-lab lives under crates/").to_path_buf();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for name in MODEL_CRATES {
        let src = crates_dir.join(name).join("src");
        println!("cargo:rerun-if-changed={}", src.display());
        let mut files = Vec::new();
        collect_files(&src, &mut files);
        files.sort();
        for file in files {
            let rel = file.strip_prefix(&crates_dir).expect("file lies under crates/");
            let rel: Vec<String> =
                rel.components().map(|c| c.as_os_str().to_string_lossy().into_owned()).collect();
            let bytes =
                fs::read(&file).unwrap_or_else(|e| panic!("cannot read {}: {e}", file.display()));
            hash = fnv1a(hash, rel.join("/").as_bytes());
            hash = fnv1a(hash, &(bytes.len() as u64).to_le_bytes());
            hash = fnv1a(hash, &bytes);
        }
    }
    println!("cargo:rustc-env=MOM_MODEL_DIGEST={hash:016x}");
}
