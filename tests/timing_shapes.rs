//! Cross-crate integration tests of the timing results: the qualitative shape
//! of the paper's headline claims must hold end-to-end (functional kernels →
//! traces → out-of-order core → memory models).
//!
//! These use the cheapest kernels so they stay fast in debug builds; the full
//! sweeps are `momlab run figure5|latency_tolerance|figure7`.

use momsim::cpu::{CoreConfig, OooCore};
use momsim::isa::trace::IsaKind;
use momsim::kernels::{build_kernel, KernelKind, KernelParams};
use momsim::mem::{build_memory, MemModelKind};

fn cycles(kernel: KernelKind, isa: IsaKind, way: usize, mem: MemModelKind) -> u64 {
    let params = KernelParams { seed: 42, scale: 1 };
    let run = build_kernel(kernel, isa, &params).run_verified().unwrap();
    let core = OooCore::new(CoreConfig::for_width(way, isa));
    let mut memory = build_memory(mem, way);
    core.simulate(&run.trace, memory.as_mut()).cycles
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
    let params = KernelParams { seed: 42, scale: 1 };
    let run = build_kernel(KernelKind::AddBlock, IsaKind::Mom, &params).run_verified().unwrap();
    let mut results = Vec::new();
    for kind in [MemModelKind::MultiAddress, MemModelKind::VectorCache, MemModelKind::CollapsingBuffer] {
        let core = OooCore::new(CoreConfig::for_width(8, IsaKind::Mom));
        let mut memory = build_memory(kind, 8);
        results.push((kind, core.simulate(&run.trace, memory.as_mut()).cycles));
    }
    for (kind, cycles) in &results {
        assert!(*cycles > 0, "{kind} produced no cycles");
    }
    let ma = results[0].1 as f64;
    let vc = results[1].1 as f64;
    assert!(vc < ma * 1.5, "vector cache {vc} vs multi-address {ma}");
}
