//! The declarative machine-model layer: one value that fully describes a
//! simulated machine, and one object that instantiates it.
//!
//! Before this module existed, every experiment assembled its machines by
//! hand — a [`CoreConfig`] here, a `build_memory` call there, default
//! [`Latencies`] implied — and the pieces lived in different crates with no
//! single value to hash, print or sweep over. A [`MachineDescriptor`] is that
//! value: core organisation, execution latencies, memory system and register
//! files in one place. [`MachineDescriptor::build`] turns it into a
//! [`SimMachine`] — an owned core + memory + engine state — and
//! [`SimMachine::reset`] returns a used machine to its just-built state
//! without reallocating predictor tables, ring buffers or cache arrays, so
//! the experiment runner can reuse machines across grid cells.

use crate::config::{CoreConfig, PhysRegs};
use crate::core::{Latencies, OooCore, SimResult, SimState, SimStream};
use crate::probe::AttributionProbe;
use mom_isa::pipe::BatchReceiver;
use mom_isa::trace::{IsaKind, Trace};
use mom_mem::{build_memory, MemModelKind, MemSystemStats, MemorySystem};

/// Register-file section of a machine description: the physical register
/// pool per class.
///
/// [`CoreConfig`] carries the Table 1/2 defaults; the descriptor keeps its
/// own copy so a design-space sweep can vary register files independently of
/// the core organisation. At [`MachineDescriptor::build`] time this section
/// is authoritative — it overwrites the core's `phys_regs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegFileConfig {
    /// Physical registers available per register class.
    pub phys: PhysRegs,
}

/// A complete, declarative description of one simulated machine.
///
/// Everything a grid cell needs to instantiate its simulator lives here:
///
/// * `core` — the out-of-order organisation (issue width, ROB/LSQ, predictor
///   tables, functional units) of Table 1;
/// * `latencies` — per-class execution latencies;
/// * `mem` — which memory system to build (ports sized for `core.way`);
/// * `regs` — the physical register files of Table 2.
///
/// Two descriptors compare equal exactly when they describe the same
/// machine, which is what lets the runner pool and reuse instantiated
/// machines across cells.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineDescriptor {
    /// Core organisation (Table 1 for the standard widths).
    pub core: CoreConfig,
    /// Execution latencies per functional-unit class.
    pub latencies: Latencies,
    /// Memory system to attach.
    pub mem: MemModelKind,
    /// Physical register files (authoritative over `core.phys_regs`).
    pub regs: RegFileConfig,
}

impl MachineDescriptor {
    /// The descriptor of a standard grid cell: the Table 1 configuration for
    /// `way` with register files sized for `isa`, default latencies, and the
    /// named memory system. This is the single definition every experiment
    /// shares — the ad-hoc per-experiment assembly it replaced built exactly
    /// this machine.
    pub fn for_cell(way: usize, isa: IsaKind, mem: MemModelKind) -> Self {
        let core = CoreConfig::for_width(way, isa);
        Self { regs: RegFileConfig { phys: core.phys_regs }, latencies: Latencies::default(), mem, core }
    }

    /// Override the reorder-buffer size (the design-space `sweep` dimension).
    #[must_use = "builder methods return the modified descriptor"]
    pub fn with_rob(mut self, rob_size: usize) -> Self {
        self.core.rob_size = rob_size.max(1);
        self
    }

    /// Override the execution latencies.
    #[must_use = "builder methods return the modified descriptor"]
    pub fn with_latencies(mut self, latencies: Latencies) -> Self {
        self.latencies = latencies;
        self
    }

    /// One-line human-readable summary (used by `momlab describe`).
    pub fn summary(&self) -> String {
        let c = &self.core;
        let r = &self.regs.phys;
        let mem = match self.mem {
            // The latency is part of the machine: "perfect-50", not "perfect".
            MemModelKind::Perfect { latency } => format!("perfect-{latency}"),
            other => other.label().to_string(),
        };
        format!(
            "{}-way {} rob={} lsq={} mem={} media={}s/{}c(x{}) regs=i{}/f{}/m{}/a{}/v{}/va{}",
            c.way,
            c.isa.label(),
            c.rob_size,
            c.lsq_size,
            mem,
            c.media_units.simple,
            c.media_units.complex,
            c.media_units.lanes,
            r.int,
            r.fp,
            r.media,
            r.acc,
            r.mom,
            r.mom_acc,
        )
    }

    /// Instantiate the machine this descriptor describes.
    pub fn build(&self) -> SimMachine {
        SimMachine::new(self.clone())
    }
}

/// A fully instantiated machine: core, memory system and reusable engine
/// state, owned together.
///
/// Built from a [`MachineDescriptor`], driven through [`SimMachine::sim`]
/// (a [`SimStream`] usable as a `TraceSink`), and returned to its just-built
/// state by [`SimMachine::reset`] — no reallocation of predictor tables,
/// ring buffers or cache arrays. A reset machine produces bit-identical
/// results to a freshly built one.
#[derive(Debug)]
pub struct SimMachine {
    descriptor: MachineDescriptor,
    core: OooCore,
    memory: Box<dyn MemorySystem>,
    state: SimState,
}

impl SimMachine {
    /// Instantiate the machine described by `descriptor`.
    pub fn new(descriptor: MachineDescriptor) -> Self {
        let mut config = descriptor.core.clone();
        config.phys_regs = descriptor.regs.phys;
        let memory = build_memory(descriptor.mem, config.way);
        let core = OooCore::with_latencies(config, descriptor.latencies);
        let state = core.new_state();
        Self { descriptor, core, memory, state }
    }

    /// The descriptor this machine was built from.
    pub fn descriptor(&self) -> &MachineDescriptor {
        &self.descriptor
    }

    /// The instantiated core.
    pub fn core(&self) -> &OooCore {
        &self.core
    }

    /// Statistics of the attached memory system.
    pub fn mem_stats(&self) -> MemSystemStats {
        self.memory.stats()
    }

    /// Return the machine to its just-built state (engine state and memory
    /// system both), reusing every allocation. Call between cells.
    pub fn reset(&mut self) {
        self.state.reset();
        self.memory.reset();
    }

    /// Open a streaming simulation on this machine. The returned stream is a
    /// `TraceSink`, so it can be fed by the functional interpreter directly
    /// or sit behind a `Broadcast` fan-out next to streams of sibling
    /// machines. Finishing the stream leaves the accumulated state in place;
    /// [`SimMachine::reset`] clears it for the next cell.
    pub fn sim(&mut self) -> SimStream<'_> {
        self.core.stream_with(&mut self.state, self.memory.as_mut())
    }

    /// Open a streaming simulation instrumented with a fresh
    /// [`AttributionProbe`] — identical timing to [`SimMachine::sim`], plus a
    /// per-cause [`crate::StallBreakdown`] and interval timeline available
    /// from [`SimStream::finish_probed`]. The probe is created per stream, so
    /// machine pooling/reuse never mixes attribution across cells.
    pub fn sim_probed(&mut self) -> SimStream<'_, AttributionProbe> {
        self.core.stream_with_probed(&mut self.state, self.memory.as_mut(), AttributionProbe::new())
    }

    /// Open a probed streaming simulation that **continues** an existing
    /// probe instead of creating a fresh one. This lets a run be split at any
    /// stream boundary: close the stream with [`SimStream::finish_probed`] to
    /// get the probe back and reopen here with it — the reopened stream
    /// retires instructions bit-identically to one that was never closed.
    /// The sampled execution mode closes the stream around every
    /// fast-forward.
    pub fn sim_probed_with(&mut self, probe: AttributionProbe) -> SimStream<'_, AttributionProbe> {
        self.core.stream_with_probed(&mut self.state, self.memory.as_mut(), probe)
    }

    /// Replay a materialized trace on this machine — the reference the
    /// streaming paths are tested against. Equivalent to feeding every
    /// instruction through [`SimMachine::sim`].
    pub fn simulate_trace(&mut self, trace: &Trace) -> SimResult {
        let mut sim = self.sim();
        for inst in &trace.insts {
            sim.feed(inst);
        }
        sim.finish()
    }

    /// Drain a batch channel to completion: the consumer half of a
    /// [`mom_isa::pipe`] pipeline, which the batch-channel tests use as
    /// their reference consumer.
    ///
    /// Blocks on `recv` until the producer's
    /// [`BatchSink`](mom_isa::pipe::BatchSink) closes the channel, feeding
    /// each batched instruction in program order. Batches are shared
    /// `Arc<[DynInst]>` slices and [`SimStream::feed`] takes a reference, so
    /// consumption never clones an instruction. Byte-identical to
    /// [`SimMachine::simulate_trace`] over the concatenated batches.
    pub fn consume_batches(&mut self, rx: &BatchReceiver) -> SimResult {
        let mut sim = self.sim();
        while let Some(batch) = rx.recv() {
            for inst in batch.iter() {
                sim.feed(inst);
            }
        }
        sim.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mom_isa::trace::{ArchReg, BranchInfo, DynInst, InstClass, MemAccess, MemKind};

    /// A small mixed trace exercising memory, branches and media occupancy.
    fn mixed_trace(n: u64, salt: u64) -> Trace {
        (0..n)
            .map(|i| match (i + salt) % 5 {
                0 => DynInst::new(InstClass::Load, i % 17)
                    .with_src(ArchReg::int(1))
                    .with_dst(ArchReg::int(8 + (i % 8) as u8))
                    .with_mem(vec![MemAccess { addr: 0x1000 + i * 24, size: 8, kind: MemKind::Load }]),
                1 => DynInst::new(InstClass::Branch, i % 13).with_branch(BranchInfo {
                    taken: i % 3 == 0,
                    conditional: true,
                    pc: i % 13,
                    target: 2,
                }),
                2 => DynInst::new(InstClass::MediaComplex, i % 17)
                    .with_src(ArchReg::mom_acc(0))
                    .with_src(ArchReg::mom(1))
                    .with_dst(ArchReg::mom_acc(0))
                    .with_elems(8),
                3 => DynInst::new(InstClass::Store, i % 17)
                    .with_src(ArchReg::int(2))
                    .with_mem(vec![MemAccess { addr: 0x8000 + i * 8, size: 8, kind: MemKind::Store }]),
                _ => DynInst::new(InstClass::IntSimple, i % 17)
                    .with_src(ArchReg::int(0))
                    .with_dst(ArchReg::int(1 + (i % 4) as u8)),
            })
            .collect()
    }

    #[test]
    fn descriptor_matches_the_ad_hoc_assembly() {
        // The descriptor must instantiate exactly the machine the runner used
        // to assemble by hand: CoreConfig::for_width + build_memory + default
        // latencies.
        let trace = mixed_trace(600, 0);
        for (way, isa, mem) in [
            (1, IsaKind::Alpha, MemModelKind::Perfect { latency: 1 }),
            (4, IsaKind::Mom, MemModelKind::Perfect { latency: 50 }),
            (8, IsaKind::Mom, MemModelKind::VectorCache),
            (4, IsaKind::Mmx, MemModelKind::Conventional),
        ] {
            let core = OooCore::new(CoreConfig::for_width(way, isa));
            let mut memory = build_memory(mem, way);
            let ad_hoc = core.simulate(&trace, memory.as_mut());

            let mut machine = MachineDescriptor::for_cell(way, isa, mem).build();
            let described = machine.simulate_trace(&trace);
            assert_eq!(ad_hoc, described, "{way}-way {isa} {mem}: descriptor drifted");
        }
    }

    #[test]
    fn reset_machine_is_bit_identical_to_a_fresh_one() {
        let a = mixed_trace(800, 3);
        let b = mixed_trace(500, 11);
        for mem in [MemModelKind::Perfect { latency: 4 }, MemModelKind::CollapsingBuffer] {
            let desc = MachineDescriptor::for_cell(4, IsaKind::Mom, mem);
            let mut fresh = desc.build();
            let expected = fresh.simulate_trace(&b);

            let mut reused = desc.build();
            let _ = reused.simulate_trace(&a); // dirty every table
            reused.reset();
            let got = reused.simulate_trace(&b);
            assert_eq!(expected, got, "{mem}: reuse after reset diverged");
            assert_eq!(fresh.mem_stats(), reused.mem_stats(), "{mem}: memory stats diverged");
        }
    }

    #[test]
    fn rob_override_changes_timing_but_not_work() {
        let trace = mixed_trace(2000, 7);
        let base = MachineDescriptor::for_cell(8, IsaKind::Alpha, MemModelKind::Perfect { latency: 50 });
        let small = base.clone().with_rob(8);
        assert_eq!(small.core.rob_size, 8);
        assert_ne!(base, small);
        let wide = base.build().simulate_trace(&trace);
        let narrow = small.build().simulate_trace(&trace);
        assert_eq!(wide.committed, narrow.committed);
        assert!(
            narrow.cycles > wide.cycles,
            "an 8-entry ROB ({}) must be slower than the 64-entry default ({})",
            narrow.cycles,
            wide.cycles
        );
    }

    #[test]
    fn consume_batches_matches_simulate_trace() {
        use mom_isa::pipe::{batch_channel, Batch};
        let trace = mixed_trace(1200, 5);
        for (batch_insts, capacity) in [(1usize, 1usize), (7, 1), (256, 3)] {
            let desc = MachineDescriptor::for_cell(4, IsaKind::Mom, MemModelKind::VectorCache);
            let expected = desc.build().simulate_trace(&trace);

            let (tx, rx) = batch_channel(capacity);
            let mut machine = desc.build();
            let insts = &trace.insts;
            let got = std::thread::scope(|scope| {
                scope.spawn(move || {
                    for chunk in insts.chunks(batch_insts) {
                        let batch: Batch = chunk.to_vec().into();
                        tx.send(batch).expect("receiver alive");
                    }
                });
                machine.consume_batches(&rx)
            });
            assert_eq!(expected, got, "batch={batch_insts} cap={capacity}: pipelined run diverged");
        }
    }

    #[test]
    fn summary_names_the_key_dimensions() {
        let desc = MachineDescriptor::for_cell(4, IsaKind::Mom, MemModelKind::Perfect { latency: 50 })
            .with_rob(16);
        let s = desc.summary();
        assert!(s.contains("4-way mom"), "{s}");
        assert!(s.contains("rob=16"), "{s}");
        assert!(s.contains("perfect"), "{s}");
        let _ = desc.build().descriptor().clone();
    }

    #[test]
    fn descriptors_compare_by_value() {
        let a = MachineDescriptor::for_cell(4, IsaKind::Mom, MemModelKind::Perfect { latency: 1 });
        let b = MachineDescriptor::for_cell(4, IsaKind::Mom, MemModelKind::Perfect { latency: 1 });
        assert_eq!(a, b);
        assert_ne!(a, a.clone().with_rob(16));
        assert_ne!(a, MachineDescriptor::for_cell(4, IsaKind::Mom, MemModelKind::Perfect { latency: 50 }));
    }
}
