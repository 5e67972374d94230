//! Property-based equivalence of the broadcast fan-out: feeding one
//! arbitrary `DynInst` stream through `Broadcast([sim1..simN])` must be
//! byte-identical — cycles, all statistics, instructions fed — to running
//! the same stream through each simulator independently. This is the
//! correctness foundation of the shared-functional-pass experiment runner:
//! one interpretation, N timing simulations, no observable difference.
//!
//! The same property is asserted for the pipelined variant: a `BatchSink`
//! publishing batches into bounded per-member channels drained by consumer
//! threads must match the serial `Broadcast` for every batch size and
//! channel capacity.

use mom_cpu::{MachineDescriptor, SimResult};
use mom_isa::pipe::{batch_channel, BatchSink};
use mom_isa::trace::{
    ArchReg, BranchInfo, Broadcast, DynInst, InstClass, IsaKind, MemAccess, MemKind, TraceSink,
};
use mom_mem::MemModelKind;
use proptest::prelude::*;

/// Decode one generated tuple into a dynamic instruction covering every
/// instruction class, vector occupancy, multi-element access lists and both branch
/// outcomes (the same shape as `proptest_stream.rs`).
fn decode_inst(index: usize, sel: usize, bits: u64, elems: u16, flag: bool) -> DynInst {
    let pc = bits >> 48 & 0x3f;
    let ra = (bits & 31) as u8;
    let rb = (bits >> 5 & 31) as u8;
    let rd = (bits >> 10 & 31) as u8;
    match sel % 8 {
        0 => DynInst::new(InstClass::IntSimple, pc)
            .with_src(ArchReg::int(ra))
            .with_src(ArchReg::int(rb))
            .with_dst(ArchReg::int(rd)),
        1 => DynInst::new(InstClass::IntComplex, pc)
            .with_src(ArchReg::int(ra))
            .with_dst(ArchReg::int(rd)),
        2 => DynInst::new(InstClass::MediaSimple, pc)
            .with_src(ArchReg::media(ra % 8))
            .with_dst(ArchReg::mom(rd % 16))
            .with_elems(elems),
        3 => DynInst::new(InstClass::MediaComplex, pc)
            .with_src(ArchReg::mom_acc(ra % 2))
            .with_src(ArchReg::mom(rb % 16))
            .with_dst(ArchReg::mom_acc(ra % 2))
            .with_elems(elems),
        4 => {
            let n = if flag { elems } else { 1 };
            DynInst::new(InstClass::Load, pc)
                .with_src(ArchReg::int(ra))
                .with_dst(ArchReg::int(rd))
                .with_elems(n)
                .with_mem(
                    (0..n as u64)
                        .map(|k| MemAccess {
                            addr: (bits & 0xffff) * 8 + k * 16 + index as u64,
                            size: 8,
                            kind: MemKind::Load,
                        })
                        .collect::<Vec<_>>(),
                )
        }
        5 => DynInst::new(InstClass::Store, pc).with_src(ArchReg::int(ra)).with_mem(vec![
            MemAccess { addr: (bits & 0xffff) * 4, size: 4, kind: MemKind::Store },
        ]),
        6 => DynInst::new(InstClass::Branch, pc).with_branch(BranchInfo {
            taken: flag,
            conditional: bits & 1 == 0,
            target: bits >> 40 & 0x3f,
        }),
        _ => DynInst::new(InstClass::Nop, pc),
    }
}

/// The machine grid one broadcast fans out to: a mix of widths, memory
/// latencies and a ROB override, like a real `(workload, isa)` group of the
/// sweep experiment.
fn descriptors() -> Vec<MachineDescriptor> {
    vec![
        MachineDescriptor::for_cell(1, IsaKind::Mom, MemModelKind::Perfect { latency: 1 }),
        MachineDescriptor::for_cell(4, IsaKind::Mom, MemModelKind::Perfect { latency: 1 }),
        MachineDescriptor::for_cell(4, IsaKind::Mom, MemModelKind::Perfect { latency: 50 }),
        MachineDescriptor::for_cell(8, IsaKind::Mom, MemModelKind::Perfect { latency: 1 }).with_rob(16),
    ]
}

proptest! {
    #![proptest_config(Config::with_cases(32))]

    /// Broadcast(N sims) over an arbitrary stream == N independent runs:
    /// identical `SimResult`s (cycles, branches, mispredictions, memory
    /// retries/accesses) and identical instructions-fed accounting.
    #[test]
    fn broadcast_fanout_is_byte_identical_to_independent_runs(
        raw in prop::collection::vec((0usize..8, any::<u64>(), 1u16..=16, any::<bool>()), 0..300),
    ) {
        let insts: Vec<DynInst> = raw
            .iter()
            .enumerate()
            .map(|(i, &(sel, bits, elems, flag))| decode_inst(i, sel, bits, elems, flag))
            .collect();

        // Independent single-sink runs.
        let independent: Vec<SimResult> = descriptors()
            .iter()
            .map(|desc| {
                let mut machine = desc.build();
                let mut sim = machine.sim();
                for inst in &insts {
                    sim.feed(inst);
                }
                sim.finish()
            })
            .collect();

        // One shared pass through the broadcast.
        let mut machines: Vec<_> = descriptors().iter().map(|d| d.build()).collect();
        let fanned: Vec<SimResult> = {
            let streams: Vec<_> = machines.iter_mut().map(|m| m.sim()).collect();
            let mut fan = Broadcast::new(streams);
            for inst in &insts {
                fan.emit(inst.clone());
            }
            let children = fan.into_inner();
            for child in &children {
                prop_assert_eq!(child.fed(), insts.len(), "fuel accounting diverged");
            }
            children.into_iter().map(|s| s.finish()).collect()
        };

        prop_assert_eq!(independent, fanned);
    }

    /// The pipelined channel stage == the serial `Broadcast`: publishing the
    /// same arbitrary stream through a `BatchSink` into per-member bounded
    /// channels, with each member consuming on its own thread via
    /// `SimMachine::consume_batches`, is byte-identical to the serial
    /// broadcast for every batch size and channel capacity — including the
    /// degenerate batch-of-1 / capacity-1 pipeline.
    #[test]
    fn pipelined_channel_stage_matches_serial_broadcast(
        raw in prop::collection::vec((0usize..8, any::<u64>(), 1u16..=16, any::<bool>()), 0..300),
        batch_insts in 1usize..=48,
        capacity in 1usize..=4,
    ) {
        let insts: Vec<DynInst> = raw
            .iter()
            .enumerate()
            .map(|(i, &(sel, bits, elems, flag))| decode_inst(i, sel, bits, elems, flag))
            .collect();

        // Serial broadcast reference.
        let serial: Vec<SimResult> = {
            let mut machines: Vec<_> = descriptors().iter().map(|d| d.build()).collect();
            let streams: Vec<_> = machines.iter_mut().map(|m| m.sim()).collect();
            let mut fan = Broadcast::new(streams);
            for inst in &insts {
                fan.emit(inst.clone());
            }
            fan.into_inner().into_iter().map(|s| s.finish()).collect()
        };

        // Pipelined: one producer thread (this one) feeding a BatchSink, one
        // consumer thread per member draining its bounded channel.
        let pipelined: Vec<SimResult> = {
            let mut senders = Vec::new();
            let mut receivers = Vec::new();
            for _ in descriptors() {
                let (tx, rx) = batch_channel(capacity);
                senders.push(tx);
                receivers.push(rx);
            }
            let mut sink = BatchSink::new(senders, batch_insts);
            let insts_ref = &insts;
            std::thread::scope(|scope| {
                let handles: Vec<_> = descriptors()
                    .into_iter()
                    .zip(receivers)
                    .map(|(desc, rx)| {
                        scope.spawn(move || {
                            let mut machine = desc.build();
                            machine.consume_batches(&rx)
                        })
                    })
                    .collect();
                for inst in insts_ref {
                    sink.emit(inst.clone());
                }
                sink.finish();
                handles.into_iter().map(|h| h.join().expect("consumer panicked")).collect()
            })
        };

        prop_assert_eq!(serial, pipelined);
    }
}

/// The degenerate pipeline — one-instruction batches through capacity-1
/// channels — forces a channel hand-off per instruction and maximum
/// backpressure. Kept as a plain unit test so the edge case runs even when
/// `PROPTEST_CASES` trims the random sweep.
#[test]
fn batch_of_one_capacity_of_one_pipeline_is_exact() {
    let insts: Vec<DynInst> =
        (0..97).map(|i| decode_inst(i, i % 8, 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i as u64 + 1), (i % 16) as u16 + 1, i % 3 == 0)).collect();

    let serial: Vec<SimResult> = descriptors()
        .iter()
        .map(|desc| {
            let mut machine = desc.build();
            let mut sim = machine.sim();
            for inst in &insts {
                sim.feed(inst);
            }
            sim.finish()
        })
        .collect();

    let mut senders = Vec::new();
    let mut receivers = Vec::new();
    for _ in descriptors() {
        let (tx, rx) = batch_channel(1);
        senders.push(tx);
        receivers.push(rx);
    }
    let mut sink = BatchSink::new(senders, 1);
    let insts_ref = &insts;
    let pipelined: Vec<SimResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = descriptors()
            .into_iter()
            .zip(receivers)
            .map(|(desc, rx)| {
                scope.spawn(move || {
                    let mut machine = desc.build();
                    machine.consume_batches(&rx)
                })
            })
            .collect();
        for inst in insts_ref {
            sink.emit(inst.clone());
        }
        sink.finish();
        handles.into_iter().map(|h| h.join().expect("consumer panicked")).collect()
    });

    assert_eq!(serial, pipelined);
}
