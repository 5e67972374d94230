//! Regenerate Table 2: multimedia register-file configurations and area cost.
//!
//! Thin wrapper over the `mom-lab` experiment engine: the text below is
//! rendered from the same structured rows `momlab run table2` writes to
//! `BENCH_table2.json`.

use mom_lab::spec::ExperimentSpec;

fn main() {
    let spec = ExperimentSpec::builtin("table2", 1, mom_lab::fast_mode()).expect("built-in spec");
    print!("{}", mom_lab::report::render(&mom_lab::run(&spec, &mom_lab::RunOptions::default())));
}
