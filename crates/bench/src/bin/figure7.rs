//! Regenerate Figure 7: whole-program speed-ups on 4- and 8-way machines with
//! realistic cache hierarchies, relative to the Alpha/conventional-cache
//! configuration of the same width.
//!
//! Usage: `figure7 [scale]` (default scale 1). Set `MOM_BENCH_FAST=1` to
//! evaluate a reduced application subset (4-way machine only) for smoke
//! testing.
//!
//! Thin wrapper over the `mom-lab` experiment engine: the text below is
//! rendered from the same structured results `momlab run figure7` writes to
//! `BENCH_figure7.json`.

use mom_lab::spec::ExperimentSpec;

fn main() {
    let scale = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(1);
    let spec = ExperimentSpec::builtin("figure7", scale, mom_lab::fast_mode()).expect("built-in spec");
    print!("{}", mom_lab::report::render(&mom_lab::run(&spec, &mom_lab::RunOptions::default())));
}
