//! Property-based guarantees of the cycle-attribution probe: for arbitrary
//! generated instruction sequences over every ISA and issue width,
//!
//! * the stall breakdown's components sum exactly to the total cycles (the
//!   probe attributes every commit-slot cycle to exactly one cause);
//! * the probed report is identical whether the sequence arrives as a
//!   materialized batch, a streamed push, or through a `Broadcast` fan-out
//!   (the same three consumption styles the lab runner uses);
//! * the probe never alters timing — the probed `SimResult` equals the
//!   unprobed one bit for bit;
//! * a stream split at arbitrary points (`finish_probed`, then
//!   `sim_probed_with` on the same machine) reports exactly what one
//!   unbroken stream does, window instruction counts and memory-system
//!   statistics included.

use mom_cpu::{AttributionProbe, MachineDescriptor, ProbeReport, SimResult};
use mom_isa::trace::{
    ArchReg, BranchInfo, Broadcast, DynInst, InstClass, IsaKind, MemAccess, MemKind, Trace,
    TraceSink,
};
use mom_mem::MemModelKind;
use proptest::prelude::*;

const WIDTHS: [usize; 4] = [1, 2, 4, 8];

/// Decode one generated 4-tuple into a dynamic instruction covering every
/// instruction class (same generator shape as `proptest_stream.rs`).
fn decode_inst(index: usize, sel: usize, bits: u64, elems: u16, flag: bool) -> DynInst {
    let pc = bits >> 48 & 0x3f;
    let ra = (bits & 31) as u8;
    let rb = (bits >> 5 & 31) as u8;
    let rd = (bits >> 10 & 31) as u8;
    match sel % 10 {
        0 => DynInst::new(InstClass::IntSimple, pc)
            .with_src(ArchReg::int(ra))
            .with_src(ArchReg::int(rb))
            .with_dst(ArchReg::int(rd)),
        1 => DynInst::new(InstClass::IntComplex, pc)
            .with_src(ArchReg::int(ra))
            .with_dst(ArchReg::int(rd)),
        2 => DynInst::new(InstClass::FpSimple, pc)
            .with_src(ArchReg::new(mom_isa::trace::RegClass::Fp, ra))
            .with_dst(ArchReg::new(mom_isa::trace::RegClass::Fp, rd)),
        3 => DynInst::new(InstClass::FpComplex, pc)
            .with_dst(ArchReg::new(mom_isa::trace::RegClass::Fp, rd)),
        4 => DynInst::new(InstClass::MediaSimple, pc)
            .with_src(ArchReg::media(ra % 8))
            .with_dst(ArchReg::mom(rd % 16))
            .with_elems(elems),
        5 => DynInst::new(InstClass::MediaComplex, pc)
            .with_src(ArchReg::mom_acc(ra % 2))
            .with_src(ArchReg::mom(rb % 16))
            .with_dst(ArchReg::mom_acc(ra % 2))
            .with_elems(elems),
        6 => {
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
        7 => DynInst::new(InstClass::Store, pc).with_src(ArchReg::int(ra)).with_mem(vec![
            MemAccess { addr: (bits & 0xffff) * 4, size: 4, kind: MemKind::Store },
        ]),
        8 => DynInst::new(InstClass::Branch, pc).with_branch(BranchInfo {
            taken: flag,
            conditional: bits & 1 == 0,
            target: bits >> 40 & 0x3f,
        }),
        _ => DynInst::new(InstClass::Nop, pc),
    }
}

/// Run `insts` probed through one consumption style and return the pair.
fn run_probed(insts: &[DynInst], desc: &MachineDescriptor, style: usize) -> (SimResult, ProbeReport) {
    match style {
        // Materialized batch: collect a trace, feed it whole.
        0 => {
            let collected: Trace = insts.iter().cloned().collect();
            let mut machine = desc.build();
            let mut sim = machine.sim_probed();
            for inst in &collected.insts {
                sim.feed(inst);
            }
            let (sim, probe) = sim.finish_probed();
            (sim, probe.into_report())
        }
        // Streamed push: emit owned instructions one by one.
        1 => {
            let mut machine = desc.build();
            let mut sim = machine.sim_probed();
            for inst in insts {
                sim.emit(inst.clone());
            }
            let (sim, probe) = sim.finish_probed();
            (sim, probe.into_report())
        }
        // Broadcast fan-out: the runner's shape — one interpreter pass
        // feeding sibling streams; take the first sibling's report.
        _ => {
            let (mut a, mut b) = (desc.build(), desc.build());
            let mut fan = Broadcast::new(vec![a.sim_probed(), b.sim_probed()]);
            for inst in insts {
                fan.emit(inst.clone());
            }
            let mut reports: Vec<(SimResult, ProbeReport)> = fan
                .into_inner()
                .into_iter()
                .map(|s| {
                    let (sim, probe) = s.finish_probed();
                    (sim, probe.into_report())
                })
                .collect();
            // Identical machines behind one broadcast must agree with each
            // other before they are compared against the other styles.
            assert_eq!(reports[0], reports[1], "broadcast siblings diverged");
            reports.swap_remove(0)
        }
    }
}

proptest! {
    // Each case simulates a few hundred instructions four times over (plus
    // the unprobed control); 32 cases keep the suite CI-friendly.
    #![proptest_config(Config::with_cases(32))]

    #[test]
    fn breakdown_sums_to_total_and_consumption_styles_agree(
        raw in prop::collection::vec((0usize..10, proptest::prelude::any::<u64>(), 1u16..=16, proptest::prelude::any::<bool>()), 0..300),
        way_idx in 0usize..4,
        isa_idx in 0usize..4,
        latency in 1u64..8,
    ) {
        let insts: Vec<DynInst> = raw
            .iter()
            .enumerate()
            .map(|(i, &(sel, bits, elems, flag))| decode_inst(i, sel, bits, elems, flag))
            .collect();
        let desc = MachineDescriptor::for_cell(
            WIDTHS[way_idx],
            IsaKind::ALL[isa_idx],
            MemModelKind::Perfect { latency },
        );

        let (batch_sim, batch) = run_probed(&insts, &desc, 0);
        let (push_sim, pushed) = run_probed(&insts, &desc, 1);
        let (fan_sim, fanned) = run_probed(&insts, &desc, 2);

        // Identical attribution regardless of how the instructions arrived.
        prop_assert_eq!(&batch, &pushed);
        prop_assert_eq!(&batch, &fanned);
        prop_assert_eq!(batch_sim, push_sim);
        prop_assert_eq!(batch_sim, fan_sim);

        // Every commit-slot cycle is attributed to exactly one cause.
        let b = &batch.breakdown;
        prop_assert_eq!(b.total_cycles, batch_sim.cycles);
        let attributed: u64 = b.components().map(|(_, cycles)| cycles).sum();
        prop_assert_eq!(attributed, b.total_cycles, "components must sum to total");

        // The interval timeline covers the same cycles.
        let window_cycles: u64 = batch.intervals.windows.iter().map(|w| w.cycles).sum();
        prop_assert_eq!(window_cycles, batch_sim.cycles);

        // Observation without perturbation: the unprobed run is bit-identical.
        let collected: Trace = insts.iter().cloned().collect();
        let unprobed = desc.build().simulate_trace(&collected);
        prop_assert_eq!(unprobed, batch_sim);
    }

    #[test]
    fn split_streams_report_exactly_like_one_stream(
        raw in prop::collection::vec((0usize..10, proptest::prelude::any::<u64>(), 1u16..=16, proptest::prelude::any::<bool>()), 0..600),
        cuts in prop::collection::vec(0usize..600, 0..6),
        way_idx in 0usize..4,
        isa_idx in 0usize..4,
        mem_idx in 0usize..5,
        latency in 1u64..40,
    ) {
        let insts: Vec<DynInst> = raw
            .iter()
            .enumerate()
            .map(|(i, &(sel, bits, elems, flag))| decode_inst(i, sel, bits, elems, flag))
            .collect();
        let mem = [
            MemModelKind::Perfect { latency },
            MemModelKind::Conventional,
            MemModelKind::MultiAddress,
            MemModelKind::VectorCache,
            MemModelKind::CollapsingBuffer,
        ][mem_idx];
        let desc = MachineDescriptor::for_cell(WIDTHS[way_idx], IsaKind::ALL[isa_idx], mem);

        let mut whole_machine = desc.build();
        let mut sim = whole_machine.sim_probed();
        for inst in &insts {
            sim.feed(inst);
        }
        let (whole_sim, probe) = sim.finish_probed();
        let whole = probe.into_report();

        let mut ends: Vec<usize> = cuts.iter().map(|&c| c.min(insts.len())).collect();
        ends.sort_unstable();
        ends.push(insts.len());
        let mut split_machine = desc.build();
        let mut probe = AttributionProbe::new();
        let mut split_sim = SimResult::default();
        let mut from = 0;
        for to in ends {
            let mut sim = split_machine.sim_probed_with(probe);
            for inst in &insts[from..to] {
                sim.feed(inst);
            }
            (split_sim, probe) = sim.finish_probed();
            from = to;
        }
        let split = probe.into_report();

        prop_assert_eq!(split_sim, whole_sim);
        prop_assert_eq!(&split, &whole);
        prop_assert_eq!(split_machine.mem_stats(), whole_machine.mem_stats());
        let committed: u64 = split.intervals.windows.iter().map(|w| w.committed).sum();
        prop_assert_eq!(committed, whole_sim.committed);
    }
}
