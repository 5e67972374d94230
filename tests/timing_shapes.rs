//! Cross-crate integration tests of the timing results: the qualitative shape
//! of the paper's headline claims must hold end-to-end (functional kernels →
//! traces → out-of-order core → memory models).
//!
//! These use the cheapest kernels so they stay fast in debug builds; the full
//! sweeps are `momlab run figure5|latency_tolerance|figure7`.

use momsim::cpu::MachineDescriptor;
use momsim::isa::trace::IsaKind;
use momsim::kernels::{build_kernel, KernelKind, KernelParams};
use momsim::lab::json::Value;
use momsim::mem::MemModelKind;

fn cycles(kernel: KernelKind, isa: IsaKind, way: usize, mem: MemModelKind) -> u64 {
    let params = KernelParams { seed: 42, scale: 1 };
    let mut machine = MachineDescriptor::for_cell(way, isa, mem).build();
    let mut sim = machine.sim();
    build_kernel(kernel, isa, &params).stream_verified(&mut sim).unwrap();
    sim.finish().cycles
}

#[test]
fn mom_outperforms_mmx_and_alpha_on_the_one_way_machine() {
    let perfect = MemModelKind::Perfect { latency: 1 };
    let alpha = cycles(KernelKind::Compensation, IsaKind::Alpha, 1, perfect);
    let mmx = cycles(KernelKind::Compensation, IsaKind::Mmx, 1, perfect);
    let mom = cycles(KernelKind::Compensation, IsaKind::Mom, 1, perfect);
    assert!(mmx < alpha / 2, "MMX {mmx} vs Alpha {alpha}");
    assert!((mom as f64) < mmx as f64 / 1.3, "MOM {mom} vs MMX {mmx}");
}

#[test]
fn mom_advantage_shrinks_on_wider_machines() {
    // The paper: MOM's relative advantage over the same-width Alpha machine is
    // largest at low issue rates because it removes fetch pressure.
    let perfect = MemModelKind::Perfect { latency: 1 };
    let ratio = |way: usize| {
        cycles(KernelKind::AddBlock, IsaKind::Alpha, way, perfect) as f64
            / cycles(KernelKind::AddBlock, IsaKind::Mom, way, perfect) as f64
    };
    let narrow = ratio(1);
    let wide = ratio(8);
    assert!(narrow > 1.5);
    assert!(wide < narrow * 1.6, "1-way ratio {narrow:.2}, 8-way ratio {wide:.2}");
}

#[test]
fn mom_tolerates_memory_latency_better() {
    let slowdown = |isa: IsaKind| {
        cycles(KernelKind::Compensation, isa, 4, MemModelKind::Perfect { latency: 50 }) as f64
            / cycles(KernelKind::Compensation, isa, 4, MemModelKind::Perfect { latency: 1 }) as f64
    };
    let alpha = slowdown(IsaKind::Alpha);
    let mmx = slowdown(IsaKind::Mmx);
    let mom = slowdown(IsaKind::Mom);
    assert!(mom < mmx, "MOM slow-down {mom:.2} vs MMX {mmx:.2}");
    assert!(mom < alpha, "MOM slow-down {mom:.2} vs Alpha {alpha:.2}");
}

#[test]
fn realistic_hierarchies_run_mom_traces_correctly() {
    // The three MOM-specific memory front-ends must all complete the same
    // trace; the vector cache should not be slower than element-at-a-time
    // multi-address access for this unit-stride-friendly kernel at 8 ways.
    let mut results = Vec::new();
    for kind in [MemModelKind::MultiAddress, MemModelKind::VectorCache, MemModelKind::CollapsingBuffer] {
        results.push((kind, cycles(KernelKind::AddBlock, IsaKind::Mom, 8, kind)));
    }
    for (kind, cycles) in &results {
        assert!(*cycles > 0, "{kind} produced no cycles");
    }
    let ma = results[0].1 as f64;
    let vc = results[1].1 as f64;
    assert!(vc < ma * 1.5, "vector cache {vc} vs multi-address {ma}");
}

/// Cycles of the figure5 cell `(kernel, isa, way)`.
fn figure5_cycles(doc: &Value, kernel: &str, isa: &str, way: u64) -> u64 {
    let cells = doc.get("cells").and_then(Value::as_array).expect("figure5 has cells");
    let is = |c: &Value, key: &str, want: &str| c.get(key).and_then(Value::as_str) == Some(want);
    cells
        .iter()
        .find(|c| {
            is(c, "workload", kernel) && is(c, "isa", isa) && c.get("way").and_then(Value::as_u64) == Some(way)
        })
        .and_then(|c| c.get("cycles").and_then(Value::as_u64))
        .unwrap_or_else(|| panic!("no figure5 cell {kernel}/{isa}/{way}-way"))
}

#[test]
fn mom_beats_mmx_and_mdmx_on_every_figure5_kernel_at_one_way() {
    // The committed full-mode document: CI regenerates it and requires every
    // field to match, so this reads the model's current answer.
    let doc = Value::parse(include_str!("../BENCH_figure5.json")).expect("BENCH_figure5.json parses");
    for kernel in KernelKind::ALL.map(KernelKind::label) {
        let mom = figure5_cycles(&doc, kernel, "mom", 1);
        for isa in ["mmx", "mdmx"] {
            let other = figure5_cycles(&doc, kernel, isa, 1);
            assert!(mom < other, "{kernel}: MOM {mom} cycles vs {isa} {other} at 1-way");
        }
    }
}
