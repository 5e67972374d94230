//! Streaming simulation: a dynamic instruction stream hundreds of times the
//! ROB size is timed in O(ROB) memory, without ever being materialized.
//!
//! Two demonstrations:
//!
//! 1. A synthetic generator (an iterator) produces one million instructions
//!    on demand; the simulator consumes them with a lookback window of a few
//!    hundred ring-buffer entries — the window is printed and does not grow
//!    with the stream.
//! 2. The fused kernel pipeline: `stream_verified` into a `SimMachine`'s
//!    stream interprets a kernel and graduates every instruction straight
//!    into the timing model, and the result is bit-identical to collecting
//!    the trace first and replaying it.
//!
//! Run with `cargo run --release --example streaming`.

use momsim::cpu::MachineDescriptor;
use momsim::isa::trace::{ArchReg, DynInst, InstClass, IsaKind, MemAccess, MemKind, Trace};
use momsim::kernels::{build_kernel, KernelKind, KernelParams};
use momsim::mem::MemModelKind;

/// A million-instruction pointer-chase-plus-compute loop, generated lazily:
/// at no point does a `Vec` of these instructions exist.
fn synthetic_stream() -> impl Iterator<Item = DynInst> {
    (0..1_000_000u64).map(|i| match i % 4 {
        0 => DynInst::new(InstClass::Load, i % 97)
            .with_src(ArchReg::int(1))
            .with_dst(ArchReg::int(8 + (i % 8) as u8))
            .with_mem(vec![MemAccess { addr: (i * 64) % (1 << 20), size: 8, kind: MemKind::Load }]),
        1 => DynInst::new(InstClass::MediaSimple, i % 97)
            .with_src(ArchReg::mom(1))
            .with_dst(ArchReg::mom((i % 16) as u8))
            .with_elems(16),
        _ => DynInst::new(InstClass::IntSimple, i % 97)
            .with_src(ArchReg::int(8 + (i % 8) as u8))
            .with_dst(ArchReg::int(16 + (i % 8) as u8)),
    })
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. An unmaterialized stream >> ROB ------------------------------
    let mut core = MachineDescriptor::for_cell(4, IsaKind::Mom, MemModelKind::Perfect { latency: 4 }).build();
    let rob_size = core.descriptor().core.rob_size;
    let mut sim = core.sim();
    let window = sim.window_entries();
    for inst in synthetic_stream() {
        sim.feed(&inst);
    }
    assert_eq!(sim.window_entries(), window, "the lookback window never grows");
    let fed = sim.fed();
    let result = sim.finish();
    println!("synthetic stream : {fed} instructions through a {rob_size}-entry ROB");
    println!("lookback window  : {window} ring-buffer entries ({}x smaller than the stream)", fed / window);
    println!("cycles           : {}  (IPC {:.2})", result.cycles, result.ipc());

    // --- 2. The fused kernel pipeline ------------------------------------
    let params = KernelParams { seed: 42, scale: 4 };
    let kernel = KernelKind::Rgb2Ycc;
    for isa in [IsaKind::Alpha, IsaKind::Mom] {
        let desc = MachineDescriptor::for_cell(4, isa, MemModelKind::Perfect { latency: 1 });

        let mut core = desc.build();
        let mut sim = core.sim();
        build_kernel(kernel, isa, &params).stream_verified(&mut sim)?;
        let fused = sim.finish();

        let mut trace = Trace::new(isa);
        build_kernel(kernel, isa, &params).stream_verified(&mut trace)?;
        let batch = desc.build().simulate_trace(&trace);

        assert_eq!(fused, batch, "streamed and materialized timing must agree");
        println!(
            "{kernel} ({isa:5}) : {:>9} insts, {:>9} cycles — fused == replay, no trace materialized",
            fused.committed, fused.cycles
        );
    }
    Ok(())
}
