//! Regenerate the Section 4.1 latency-tolerance study: slow-down of every
//! kernel/ISA pair when memory latency grows from 1 to 50 cycles (4-way
//! machine). The paper reports slow-down bands of 3-9x for Alpha, 4-8x for
//! MMX/MDMX and only 2-4x for MOM.
//!
//! Usage: `latency_tolerance [scale]` (default scale 1). Set
//! `MOM_BENCH_FAST=1` to evaluate a reduced kernel subset for smoke testing.
//!
//! Thin wrapper over the `mom-lab` experiment engine: the text below is
//! rendered from the same structured results `momlab run latency_tolerance`
//! writes to `BENCH_latency_tolerance.json`.

use mom_lab::spec::ExperimentSpec;

fn main() {
    let scale = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(1);
    let spec = ExperimentSpec::builtin("latency_tolerance", scale, mom_lab::fast_mode())
        .expect("built-in spec");
    print!("{}", mom_lab::report::render(&mom_lab::run(&spec, &mom_lab::RunOptions::default())));
}
