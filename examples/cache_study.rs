//! Memory-hierarchy study: how the multi-address, vector and collapsing-buffer
//! caches behave under a whole application (a miniature of Figure 7 plus the
//! cache statistics behind it).
//!
//! Run with `cargo run --release --example cache_study`.

use momsim::apps::{build_app, AppKind, AppParams};
use momsim::cpu::MachineDescriptor;
use momsim::isa::trace::IsaKind;
use momsim::mem::MemModelKind;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let params = AppParams { seed: 5, scale: 1 };
    let app = AppKind::Mpeg2Decode;
    println!("Application: {app} (MOM code) under different memory hierarchies\n");

    let built = build_app(app, IsaKind::Mom, &params)?;
    let alpha = build_app(app, IsaKind::Alpha, &params)?;

    for way in [4usize, 8] {
        // Baseline: Alpha with the conventional cache.
        let base = MachineDescriptor::for_cell(way, IsaKind::Alpha, MemModelKind::Conventional)
            .build()
            .simulate_trace(&alpha.trace);

        println!("{way}-way machine (Alpha/conventional baseline: {} cycles)", base.cycles);
        println!(
            "{:<22} {:>10} {:>8} {:>10} {:>10} {:>12}",
            "memory model", "cycles", "speedup", "L1 miss%", "L2 miss%", "vector txns"
        );
        for kind in [MemModelKind::MultiAddress, MemModelKind::VectorCache, MemModelKind::CollapsingBuffer] {
            let mut machine = MachineDescriptor::for_cell(way, IsaKind::Mom, kind).build();
            let result = machine.simulate_trace(&built.trace);
            let stats = machine.mem_stats();
            println!(
                "{:<22} {:>10} {:>8.2} {:>9.1}% {:>9.1}% {:>12}",
                kind.to_string(),
                result.cycles,
                base.cycles as f64 / result.cycles as f64,
                100.0 * stats.l1.miss_ratio(),
                100.0 * stats.l2.miss_ratio(),
                stats.vector_transactions,
            );
        }
        println!();
    }

    println!("The multi-address cache wins on the 4-way machine (working sets fit in L1),");
    println!("while the vector/collapsing-buffer caches pull ahead at 8 ways where their");
    println!("line-pair transactions deliver more effective bandwidth — the same crossover");
    println!("the paper reports in Section 4.2.2.");
    Ok(())
}
