//! Regenerate Table 1: processor configurations.
//!
//! Thin wrapper over the `mom-lab` experiment engine: the text below is
//! rendered from the same structured rows `momlab run table1` writes to
//! `BENCH_table1.json`.

use mom_lab::spec::ExperimentSpec;

fn main() {
    let spec = ExperimentSpec::builtin("table1", 1, mom_lab::fast_mode()).expect("built-in spec");
    print!("{}", mom_lab::report::render(&mom_lab::run(&spec, &mom_lab::RunOptions::default())));
}
