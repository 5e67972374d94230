//! Report the opcode inventories of the three emulated media ISAs
//! (Section 3.1 of the paper: 67 MMX / 88 MDMX / 121 MOM instructions).
//!
//! Thin wrapper over the `mom-lab` experiment engine: the text below is
//! rendered from the same structured rows `momlab run isa_inventory` writes
//! to `BENCH_isa_inventory.json`.

use mom_lab::spec::ExperimentSpec;

fn main() {
    let spec =
        ExperimentSpec::builtin("isa_inventory", 1, mom_lab::fast_mode()).expect("built-in spec");
    print!("{}", mom_lab::report::render(&mom_lab::run(&spec, &mom_lab::RunOptions::default())));
}
