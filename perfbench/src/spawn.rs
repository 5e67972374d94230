//! `perfbench spawn`: run one command and report its own wall clock, CPU
//! time and peak resident memory.
//!
//! A child's `ru_maxrss` also counts the memory of the process it was forked
//! from (Linux keeps the larger of the pre- and post-`exec` peaks), so a
//! child started straight from `run.py` reports the Python process's size
//! whenever that is larger. This small launcher is the parent instead: its
//! own few megabytes are all it adds.

use std::process::{Command, Stdio};
use std::time::Instant;

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` of 64-bit Linux.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    _rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_CHILDREN: i32 = -1;

fn secs(t: &Timeval) -> f64 {
    t.tv_sec as f64 + t.tv_usec as f64 / 1e6
}

pub struct Outcome {
    pub code: i32,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub maxrss_kb: i64,
}

/// Run `argv` with stdout discarded and stderr inherited, and wait for it.
pub fn run(argv: &[String]) -> Result<Outcome, String> {
    let (program, args) = argv.split_first().ok_or("spawn: no command given")?;
    let started = Instant::now();
    let status = Command::new(program)
        .args(args)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("spawn {program}: {e}"))?;
    let wall_s = started.elapsed().as_secs_f64();
    let mut usage = std::mem::MaybeUninit::<Rusage>::zeroed();
    // SAFETY: `usage` is a writable `struct rusage` of the platform layout.
    if unsafe { getrusage(RUSAGE_CHILDREN, usage.as_mut_ptr()) } != 0 {
        return Err("getrusage failed".into());
    }
    // SAFETY: zero-initialised and filled in by a successful `getrusage`.
    let usage = unsafe { usage.assume_init() };
    Ok(Outcome {
        code: status.code().unwrap_or(-1),
        wall_s,
        cpu_s: secs(&usage.ru_utime) + secs(&usage.ru_stime),
        maxrss_kb: usage.ru_maxrss,
    })
}
