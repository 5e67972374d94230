//! Regenerate Figure 5: kernel speed-ups of Alpha/MMX/MDMX/MOM on 1/2/4/8-way
//! machines with a perfect (1-cycle) memory, relative to the 1-way Alpha run.
//!
//! Usage: `figure5 [scale]` (default scale 1). Set `MOM_BENCH_FAST=1` to
//! evaluate a reduced kernel subset for smoke testing.
//!
//! Thin wrapper over the `mom-lab` experiment engine: the text below is
//! rendered from the same structured results `momlab run figure5` writes to
//! `BENCH_figure5.json`.

use mom_lab::spec::ExperimentSpec;

fn main() {
    let scale = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(1);
    let spec = ExperimentSpec::builtin("figure5", scale, mom_lab::fast_mode()).expect("built-in spec");
    print!("{}", mom_lab::report::render(&mom_lab::run(&spec, &mom_lab::RunOptions::default())));
}
