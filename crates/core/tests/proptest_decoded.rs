//! Differential property test: the pre-decoded µop engine is byte-identical
//! to the legacy walk-the-instruction-list interpreter.
//!
//! Arbitrary programs are generated for all four ISA dialects — scalar
//! control flow (forward and backward branches, loads, stores, ALU chains)
//! plus dialect-specific media, accumulator and matrix instructions — and
//! executed by both engines from identical machine states. Everything
//! observable must agree exactly:
//!
//! * the emitted [`DynInst`] sequence (classes, pcs, operands, element
//!   counts, memory access lists, branch outcomes),
//! * the final architectural state (integer/media registers, matrix
//!   registers, accumulators, memory),
//! * the fuel accounting, including the exact `FuelExhausted` error on
//!   non-terminating programs.

use mom_core::matrix::{v, va};
use mom_core::ops::MomOp;
use mom_core::program::{Program, ProgramBuilder};
use mom_core::state::Machine;
use mom_isa::mdmx::{AccOp, MdmxOp};
use mom_isa::mem::MemImage;
use mom_isa::mmx::{MmxOp, PackedBinOp, ShiftKind};
use mom_isa::packed::{Lane, Saturation};
use mom_isa::regs::{a, m, r};
use mom_isa::scalar::{AluOp, Cond, ScalarOp};
use mom_isa::trace::{DynInst, IsaKind, Trace};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const MEM_BASE: u64 = 0x1000;
const MEM_SIZE: usize = 8192;

/// A fresh machine with deterministically scribbled memory so loads observe
/// non-trivial data.
fn machine(seed: u64) -> Machine {
    let mut machine = Machine::new(MemImage::new(MEM_BASE, MEM_SIZE));
    let mut state = seed | 1;
    for i in 0..(MEM_SIZE / 8) as u64 {
        // xorshift64 — cheap, deterministic, full-width patterns.
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        machine.mem_mut().write_u64(MEM_BASE + i * 8, state);
    }
    machine
}

/// Emit one pseudo-random instruction for `isa` into the builder. `labels`
/// holds backward branch targets already bound; forward branches are bound by
/// the caller afterwards.
fn push_random_inst(
    b: &mut ProgramBuilder,
    isa: IsaKind,
    rng: &mut StdRng,
    backward: &[mom_isa::scalar::Label],
    forward: &mut Vec<mom_isa::scalar::Label>,
) {
    // Registers r(1)..r(12) hold data; r(13) is always a valid in-image
    // address; strides stay small so strided rows stay inside the image.
    let reg = |rng: &mut StdRng| r(1 + rng.gen::<usize>() % 12);
    let lane = |rng: &mut StdRng| {
        [Lane::U8, Lane::I8, Lane::U16, Lane::I16, Lane::U32, Lane::I32][rng.gen::<usize>() % 6]
    };
    let wide_lane = |rng: &mut StdRng| [Lane::U8, Lane::I8, Lane::U16, Lane::I16][rng.gen::<usize>() % 4];
    let sat = |rng: &mut StdRng| {
        if rng.gen::<bool>() {
            Saturation::Saturating
        } else {
            Saturation::Wrapping
        }
    };
    let bin_op = |rng: &mut StdRng| PackedBinOp::ALL[rng.gen::<usize>() % PackedBinOp::ALL.len()];
    let acc_op = |rng: &mut StdRng| AccOp::ALL[rng.gen::<usize>() % AccOp::ALL.len()];
    let shift_kind = |rng: &mut StdRng| {
        [ShiftKind::LeftLogical, ShiftKind::RightLogical, ShiftKind::RightArith]
            [rng.gen::<usize>() % 3]
    };
    let media = |rng: &mut StdRng| m(rng.gen::<usize>() % 8);
    let mom_reg = |rng: &mut StdRng| v(rng.gen::<usize>() % 8);
    let offset = |rng: &mut StdRng| (rng.gen::<u64>() % 512) as i64 * 8;

    // Scalar instructions are common to every dialect; media instructions
    // only appear in their own dialect.
    let scalar_only = isa == IsaKind::Alpha || rng.gen::<u64>() % 100 < 55;
    if scalar_only {
        match rng.gen::<u64>() % 100 {
            0..=14 => b.push(ScalarOp::Li { rd: reg(rng), imm: rng.gen::<i64>() % 10_000 }),
            15..=39 => b.push(ScalarOp::Alu {
                op: [AluOp::Add, AluOp::Sub, AluOp::Mul, AluOp::And, AluOp::Or, AluOp::Xor, AluOp::Min, AluOp::Max]
                    [rng.gen::<usize>() % 8],
                rd: reg(rng),
                ra: reg(rng),
                rb: reg(rng),
            }),
            40..=49 => b.push(ScalarOp::AluI {
                op: [AluOp::Add, AluOp::Sll, AluOp::Srl, AluOp::Sra][rng.gen::<usize>() % 4],
                rd: reg(rng),
                ra: reg(rng),
                imm: (rng.gen::<u64>() % 16) as i64,
            }),
            50..=57 => b.push(ScalarOp::Ld {
                rd: reg(rng),
                base: r(13),
                offset: offset(rng),
                size: [1, 2, 4, 8][rng.gen::<usize>() % 4],
                signed: rng.gen::<bool>(),
            }),
            58..=64 => b.push(ScalarOp::St {
                rs: reg(rng),
                base: r(13),
                offset: offset(rng),
                size: [1, 2, 4, 8][rng.gen::<usize>() % 4],
            }),
            65..=72 => b.push(ScalarOp::CmpSet {
                cond: [Cond::Eq, Cond::Ne, Cond::Lt, Cond::Le, Cond::Gt, Cond::Ge][rng.gen::<usize>() % 6],
                rd: reg(rng),
                ra: reg(rng),
                rb: reg(rng),
            }),
            73..=78 => b.push(ScalarOp::CMov { rd: reg(rng), rc: reg(rng), rs: reg(rng) }),
            79..=82 => b.push(ScalarOp::Abs { rd: reg(rng), ra: reg(rng) }),
            83..=86 => b.push(ScalarOp::Mov { rd: reg(rng), rs: reg(rng) }),
            87..=89 => b.push(ScalarOp::Nop),
            // Branches: backward targets re-enter already-emitted code (the
            // countdown register r(14) guarantees termination); forward
            // targets are bound after the whole body is emitted.
            90..=94 if !backward.is_empty() => {
                let target = backward[rng.gen::<usize>() % backward.len()];
                // Count down r(14) and loop only while it stays positive.
                b.push(ScalarOp::AluI { op: AluOp::Add, rd: r(14), ra: r(14), imm: -1 });
                b.push(ScalarOp::Br { cond: Cond::Gt, ra: r(14), rb: r(31), target })
            }
            _ => {
                let target = b.new_label();
                forward.push(target);
                b.push(ScalarOp::Br {
                    cond: [Cond::Eq, Cond::Ne, Cond::Lt, Cond::Gt][rng.gen::<usize>() % 4],
                    ra: reg(rng),
                    rb: reg(rng),
                    target,
                })
            }
        };
        return;
    }

    match isa {
        IsaKind::Alpha => unreachable!("handled above"),
        IsaKind::Mmx | IsaKind::Mdmx => {
            let op = match rng.gen::<u64>() % 100 {
                0..=11 => MmxOp::Ld { md: media(rng), base: r(13), offset: offset(rng) },
                12..=19 => MmxOp::St { ms: media(rng), base: r(13), offset: offset(rng) },
                20..=24 => MmxOp::Splat { md: media(rng), rs: reg(rng), lane: lane(rng) },
                25..=29 => MmxOp::FromInt { md: media(rng), rs: reg(rng) },
                30..=34 => MmxOp::ToInt { rd: reg(rng), ms: media(rng), lane: Lane::U8, idx: (rng.gen::<u64>() % 8) as u8 },
                35..=54 => MmxOp::Packed {
                    op: bin_op(rng),
                    md: media(rng),
                    ma: media(rng),
                    mb: media(rng),
                    lane: lane(rng),
                    sat: sat(rng),
                },
                55..=61 => MmxOp::Shift {
                    kind: shift_kind(rng),
                    md: media(rng),
                    ms: media(rng),
                    lane: lane(rng),
                    amount: (rng.gen::<u64>() % 17) as u8,
                },
                62..=66 => MmxOp::Select { md: media(rng), mask: media(rng), ma: media(rng), mb: media(rng), lane: lane(rng) },
                67..=71 => MmxOp::Pack {
                    md: media(rng),
                    ma: media(rng),
                    mb: media(rng),
                    from: if rng.gen::<bool>() { Lane::I16 } else { Lane::I32 },
                    to_signed: rng.gen::<bool>(),
                },
                72..=76 => MmxOp::UnpackLo { md: media(rng), ma: media(rng), mb: media(rng), lane: lane(rng) },
                77..=81 => MmxOp::UnpackHi { md: media(rng), ma: media(rng), mb: media(rng), lane: lane(rng) },
                82..=86 => MmxOp::WidenLo { md: media(rng), ms: media(rng), lane: wide_lane(rng) },
                87..=91 => MmxOp::WidenHi { md: media(rng), ms: media(rng), lane: wide_lane(rng) },
                92..=95 => MmxOp::Sad { md: media(rng), ma: media(rng), mb: media(rng), lane: lane(rng) },
                _ => MmxOp::ReduceSum { rd: reg(rng), ms: media(rng), lane: lane(rng) },
            };
            if isa == IsaKind::Mmx {
                b.push(op);
            } else if rng.gen::<u64>() % 100 < 70 {
                b.push(MdmxOp::Simd(op));
            } else {
                // MDMX accumulator forms. AccClear precedes accumulation
                // often enough that lane modes stay coherent; an unconditional
                // clear first keeps the generated program architecturally
                // well-defined (no mid-stream lane-mode switches).
                let acc = a(rng.gen::<usize>() % 2);
                b.push(MdmxOp::AccClear { acc });
                let lane = wide_lane(rng);
                b.push(MdmxOp::Acc { op: acc_op(rng), acc, ma: media(rng), mb: media(rng), lane });
                match rng.gen::<u64>() % 3 {
                    0 => b.push(MdmxOp::ReadAcc {
                        md: media(rng),
                        acc,
                        lane,
                        shift: (rng.gen::<u64>() % 8) as u8,
                        sat: sat(rng),
                    }),
                    1 => b.push(MdmxOp::ReduceAcc { rd: reg(rng), acc }),
                    _ => &mut *b,
                };
            }
        }
        IsaKind::Mom => {
            match rng.gen::<u64>() % 100 {
                0..=7 => b.push(MomOp::SetVlI { vl: (rng.gen::<u64>() % 17) as u8 }),
                8..=10 => {
                    // SetVl from a register constrained to a small value.
                    b.push(ScalarOp::Li { rd: r(15), imm: (rng.gen::<u64>() % 20) as i64 });
                    b.push(MomOp::SetVl { rs: r(15) })
                }
                11..=22 => {
                    // Strided load with a safe base/stride (set up r(13)/r(16)
                    // so 16 rows stay inside the image).
                    b.push(ScalarOp::Li { rd: r(16), imm: (8 + (rng.gen::<u64>() % 4) * 8) as i64 });
                    b.push(MomOp::Ld { vd: mom_reg(rng), base: r(13), stride: r(16) })
                }
                23..=29 => {
                    b.push(ScalarOp::Li { rd: r(16), imm: (8 + (rng.gen::<u64>() % 4) * 8) as i64 });
                    b.push(MomOp::St { vs: mom_reg(rng), base: r(13), stride: r(16) })
                }
                30..=44 => b.push(MomOp::Packed {
                    op: bin_op(rng),
                    vd: mom_reg(rng),
                    va: mom_reg(rng),
                    vb: mom_reg(rng),
                    lane: lane(rng),
                    sat: sat(rng),
                }),
                45..=51 => b.push(MomOp::PackedMedia {
                    op: bin_op(rng),
                    vd: mom_reg(rng),
                    va: mom_reg(rng),
                    mb: media(rng),
                    lane: lane(rng),
                    sat: sat(rng),
                }),
                52..=56 => b.push(MomOp::Shift {
                    kind: shift_kind(rng),
                    vd: mom_reg(rng),
                    va: mom_reg(rng),
                    lane: lane(rng),
                    amount: (rng.gen::<u64>() % 17) as u8,
                }),
                57..=59 => b.push(MomOp::Select {
                    vd: mom_reg(rng),
                    mask: mom_reg(rng),
                    va: mom_reg(rng),
                    vb: mom_reg(rng),
                    lane: lane(rng),
                }),
                60..=62 => b.push(MomOp::Pack {
                    vd: mom_reg(rng),
                    va: mom_reg(rng),
                    vb: mom_reg(rng),
                    from: if rng.gen::<bool>() { Lane::I16 } else { Lane::I32 },
                    to_signed: rng.gen::<bool>(),
                }),
                63..=66 => b.push(MomOp::UnpackLo { vd: mom_reg(rng), va: mom_reg(rng), vb: mom_reg(rng), lane: lane(rng) }),
                67..=69 => b.push(MomOp::UnpackHi { vd: mom_reg(rng), va: mom_reg(rng), vb: mom_reg(rng), lane: lane(rng) }),
                70..=72 => b.push(MomOp::WidenLo { vd: mom_reg(rng), va: mom_reg(rng), lane: wide_lane(rng) }),
                73..=74 => b.push(MomOp::WidenHi { vd: mom_reg(rng), va: mom_reg(rng), lane: wide_lane(rng) }),
                75..=77 => b.push(MomOp::Transpose { vd: mom_reg(rng), va: mom_reg(rng), lane: if rng.gen::<bool>() { Lane::U8 } else { Lane::I16 } }),
                78..=79 => b.push(MomOp::TransposePair {
                    vd_lo: v(0),
                    vd_hi: v(1),
                    va_lo: mom_reg(rng),
                    va_hi: mom_reg(rng),
                }),
                80..=89 => {
                    let acc = va(rng.gen::<usize>() % 2);
                    b.push(MomOp::AccClear { acc });
                    let lane = wide_lane(rng);
                    b.push(MomOp::Acc { op: acc_op(rng), acc, va: mom_reg(rng), vb: mom_reg(rng), lane });
                    match rng.gen::<u64>() % 3 {
                        0 => b.push(MomOp::ReadAcc {
                            md: media(rng),
                            acc,
                            lane,
                            shift: (rng.gen::<u64>() % 8) as u8,
                            sat: sat(rng),
                        }),
                        1 => b.push(MomOp::ReduceAcc { rd: reg(rng), acc }),
                        _ => &mut *b,
                    }
                }
                90..=94 => {
                    let acc = va(rng.gen::<usize>() % 2);
                    b.push(MomOp::AccClear { acc });
                    b.push(MomOp::AccMedia {
                        op: acc_op(rng),
                        acc,
                        va: mom_reg(rng),
                        mb: media(rng),
                        lane: wide_lane(rng),
                    })
                }
                95..=97 => b.push(MomOp::RowToMedia { md: media(rng), vs: mom_reg(rng), row: (rng.gen::<u64>() % 16) as u8 }),
                _ => b.push(MomOp::MediaToRow { vd: mom_reg(rng), row: (rng.gen::<u64>() % 16) as u8, ms: media(rng) }),
            };
        }
    }
}

/// Generate an arbitrary terminating program for `isa` from `seed`.
fn random_program(isa: IsaKind, seed: u64, body_len: usize) -> Program {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = ProgramBuilder::new(isa);
    // Data setup: registers hold bounded values, r(13) a valid base address,
    // r(14) the backward-branch fuel countdown, media registers scribbled
    // from memory (MMX/MDMX only).
    for i in 1..=12 {
        b.push(ScalarOp::Li { rd: r(i), imm: (rng.gen::<i64>() % 2_000) - 1_000 });
    }
    b.push(ScalarOp::Li { rd: r(13), imm: MEM_BASE as i64 });
    b.push(ScalarOp::Li { rd: r(14), imm: 24 });
    if matches!(isa, IsaKind::Mmx | IsaKind::Mdmx) {
        for i in 0..8 {
            let op = MmxOp::Ld { md: m(i), base: r(13), offset: (i as i64) * 64 };
            if isa == IsaKind::Mmx {
                b.push(op);
            } else {
                b.push(MdmxOp::Simd(op));
            }
        }
    }
    if isa == IsaKind::Mom {
        b.push(ScalarOp::Li { rd: r(16), imm: 16 });
        for i in 0..4 {
            b.push(MomOp::Ld { vd: v(i), base: r(13), stride: r(16) });
        }
    }

    let mut backward = Vec::new();
    let mut forward = Vec::new();
    for _ in 0..body_len {
        if rng.gen::<u64>() % 8 == 0 {
            backward.push(b.bind_here());
        }
        push_random_inst(&mut b, isa, &mut rng, &backward, &mut forward);
    }
    // Bind every forward branch beyond the last instruction, then halt.
    for label in forward {
        b.bind(label);
    }
    b.push(ScalarOp::Halt);
    b.build().expect("generated program has consistent labels")
}

/// Everything observable about one machine after execution, for equality
/// checks: integer registers, media registers, matrix rows, accumulator
/// lanes and memory bytes.
type Observation = (Vec<i64>, Vec<u64>, Vec<u64>, Vec<i64>, Vec<u8>);

fn observe(machine: &Machine) -> Observation {
    let ints: Vec<i64> = (0..32).map(|i| machine.core.int.read(r(i))).collect();
    let media: Vec<u64> = (0..32).map(|i| machine.core.media.read(m(i)).bits()).collect();
    let matrix: Vec<u64> = (0..16)
        .flat_map(|reg| (0..16).map(move |row| (reg, row)))
        .map(|(reg, row)| machine.mom.matrix.read(v(reg)).row(row).bits())
        .collect();
    let mut accs: Vec<i64> = Vec::new();
    for acc in &machine.core.accs {
        accs.extend(acc.lanes());
    }
    for acc in &machine.mom.accs {
        accs.extend(acc.lanes());
    }
    let mem = machine.mem().read_bytes(MEM_BASE, MEM_SIZE).to_vec();
    (ints, media, matrix, accs, mem)
}

fn assert_equivalent(isa: IsaKind, seed: u64, body_len: usize) {
    let program = random_program(isa, seed, body_len);

    let mut legacy_machine = machine(seed);
    let legacy: Result<Trace, _> = program.run_legacy(&mut legacy_machine);
    let mut decoded_machine = machine(seed);
    let decoded = program.decode().run(&mut decoded_machine);

    match (&legacy, &decoded) {
        (Ok(lt), Ok(dt)) => {
            assert_eq!(lt.len(), dt.len(), "{isa} trace lengths differ");
            for (i, (l, d)) in lt.insts.iter().zip(&dt.insts).enumerate() {
                assert_eq!(l, d, "{isa} dynamic instruction {i} differs");
            }
            assert_eq!(lt.isa, dt.isa);
        }
        (l, d) => assert_eq!(l, d, "{isa} outcome differs"),
    }
    assert_eq!(observe(&legacy_machine), observe(&decoded_machine), "{isa} state differs");
}

proptest! {
    // Each case generates, decodes and doubly executes a whole program; the
    // case count is kept CI-friendly. `PROPTEST_CASES` overrides it.
    #![proptest_config(Config::with_cases(48))]

    #[test]
    fn decoded_equals_legacy_alpha(seed in any::<u64>(), body in 10usize..120) {
        assert_equivalent(IsaKind::Alpha, seed, body);
    }

    #[test]
    fn decoded_equals_legacy_mmx(seed in any::<u64>(), body in 10usize..100) {
        assert_equivalent(IsaKind::Mmx, seed, body);
    }

    #[test]
    fn decoded_equals_legacy_mdmx(seed in any::<u64>(), body in 10usize..100) {
        assert_equivalent(IsaKind::Mdmx, seed, body);
    }

    #[test]
    fn decoded_equals_legacy_mom(seed in any::<u64>(), body in 10usize..80) {
        assert_equivalent(IsaKind::Mom, seed, body);
    }

    #[test]
    fn fuel_exhaustion_is_identical(fuel in 0usize..200) {
        // An infinite loop must exhaust fuel at exactly the same count, with
        // exactly the same instructions already emitted by both engines.
        let mut b = ProgramBuilder::new(IsaKind::Alpha);
        let top = b.bind_here();
        b.push(ScalarOp::AluI { op: AluOp::Add, rd: r(1), ra: r(1), imm: 1 });
        b.push(ScalarOp::Jmp { target: top });
        let program = b.build().unwrap();

        let mut legacy_sink = Trace::new(IsaKind::Alpha);
        let legacy = program.stream_with_fuel_legacy(&mut machine(1), &mut legacy_sink, fuel);
        let mut decoded_sink = Trace::new(IsaKind::Alpha);
        let decoded = program.decode().stream_with_fuel(&mut machine(1), &mut decoded_sink, fuel);
        prop_assert_eq!(legacy, decoded);
        let legacy_insts: Vec<DynInst> = legacy_sink.insts;
        prop_assert_eq!(legacy_insts, decoded_sink.insts);
    }
}
