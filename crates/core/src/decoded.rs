//! The pre-decoded µop execution engine.
//!
//! [`Program::run`] originally re-paid per-*dynamic*-instruction costs that
//! are pure functions of the *static* instruction: two levels of `Inst` enum
//! matching, `Vec<ArchReg>` allocations for the source/destination operand
//! lists, per-instruction [`DynInst`] assembly through the builder methods,
//! and a label-table lookup per executed branch. At the trace lengths of the
//! `stress` experiment those costs dominate the streaming
//! interpreter→simulator pipeline.
//!
//! [`Program::decode`] lowers the instruction list **once** into a dense
//! [`DecodedProgram`] of µops. Each µop carries:
//!
//! * a flat `ExecOp` — one single-level dispatch per executed instruction,
//!   with MDMX's `Simd(MmxOp)` wrapper and every other nesting already peeled
//!   off, branch labels resolved to instruction indices, and the lane /
//!   saturation / shift / stride operands unpacked into the variant;
//! * a pre-built [`DynInst`] **skeleton** — class, static pc and the resolved
//!   source/destination register slots (no `Option` unpacking and no
//!   heap allocation on the hot path). The streaming loop clones the
//!   skeleton (a flat copy; the inline [`MemList`] keeps it off the heap)
//!   and patches only the dynamic fields: vector element count, element
//!   memory accesses and the branch outcome;
//! * the memory plan of the operation where one exists — a scalar
//!   base+offset access or a MOM base+stride row plan, sized so vector
//!   access lists are built in one exact allocation.
//!
//! On top of the decoded form, **threaded dispatch** cuts per-dynamic-
//! instruction overhead further: each µop carries a handler *function
//! pointer* resolved at decode time, so the hot loop is load → indirect call
//! → advance instead of a ~50-way `match`. The per-µop call sites give the
//! branch predictor one target per static instruction rather than one shared
//! dispatch point for the whole program.
//!
//! [`Program::stream`], [`Program::run`] and every path layered on them
//! (kernel and application execution in `mom-kernels`/`mom-apps`, the streamed
//! `SimStream` cells in `mom-lab`) route through this engine; the original
//! walk-the-`Inst`-list interpreter survives as
//! [`Program::stream_with_fuel_legacy`] so differential tests can pin the two
//! engines against each other.
//! The decoded engine is **byte-identical** to the legacy interpreter: same
//! architectural side effects, same emitted [`DynInst`] sequence, same fuel
//! accounting (`tests/proptest_decoded.rs` enforces this for arbitrary
//! programs across all four ISAs).

use crate::inst::Inst;
use crate::matrix::{MomAccReg, MomReg};
use crate::ops::MomOp;
use crate::program::{ExecError, Program, DEFAULT_FUEL};
use crate::state::Machine;
use mom_isa::mdmx::{AccOp, MdmxOp};
use mom_isa::mmx::{MmxOp, PackedBinOp, ShiftKind};
use mom_isa::packed::{Lane, PackedWord, Saturation};
use mom_isa::regs::{AccReg, IntReg, MediaReg};
use mom_isa::scalar::{AluOp, Cond, ScalarOp};
use mom_isa::trace::{
    BranchInfo, DynInst, InstClass, IsaKind, MemAccess, MemKind, MemList, Trace, TraceSink,
    MEM_INLINE,
};

/// A program lowered into directly executable µops (see the
/// [module docs](self)).
///
/// Obtained from [`Program::decode`]; executing it is byte-identical to the
/// legacy interpreter, only faster. Decoding is cheap (linear in the static
/// instruction count, which is tiny next to any dynamic trace), so
/// [`Program::stream`] simply decodes on entry; callers that execute the same
/// program many times can decode once and reuse the result.
#[derive(Debug, Clone)]
pub struct DecodedProgram {
    ops: Vec<MicroOp>,
    isa: IsaKind,
}

/// One decoded µop: the flat executable form, its handler function pointer
/// and the pre-built trace skeleton.
#[derive(Debug, Clone)]
struct MicroOp {
    exec: ExecOp,
    /// Variant handler resolved at decode time — the hot loop dispatches
    /// with one indirect call instead of matching on `exec`.
    handler: OpFn,
    /// Pre-assembled [`DynInst`]: class, pc, sources and destinations are
    /// final; `elems`, `mem` and `branch` are patched per execution.
    skeleton: DynInst,
    /// Whether `elems` must be patched with the live vector length.
    is_vector: bool,
}

/// Threaded-dispatch handler: executes one µop's architectural effects,
/// patching the dynamic fields of the [`DynInst`] in place. `scratch` is the
/// hot loop's recycled spill buffer for vector memory access lists; only the
/// MOM memory handlers touch it.
type OpFn = fn(&ExecOp, &mut Machine, &mut DynInst, &mut MemList) -> Flow;

/// Where control flow goes after executing a µop.
#[derive(Debug, Clone, Copy)]
enum Flow {
    /// Fall through to the next µop.
    Next,
    /// Continue at the given instruction index (branch targets are resolved
    /// at decode time — no label table on the hot path).
    Jump(u32),
    /// Stop the program.
    Halt,
}

/// The flat, fully resolved execution form of one instruction.
///
/// Exactly one `match` stands between the fetch of a µop and its
/// architectural side effects — no nested dialect enums, no `Option`
/// operands, no label lookups.
#[derive(Debug, Clone)]
enum ExecOp {
    // ---- scalar baseline ----
    Li { rd: IntReg, imm: i64 },
    Mov { rd: IntReg, rs: IntReg },
    Alu { op: AluOp, rd: IntReg, ra: IntReg, rb: IntReg },
    AluI { op: AluOp, rd: IntReg, ra: IntReg, imm: i64 },
    CmpSet { cond: Cond, rd: IntReg, ra: IntReg, rb: IntReg },
    CMov { rd: IntReg, rc: IntReg, rs: IntReg },
    Abs { rd: IntReg, ra: IntReg },
    Ld { rd: IntReg, base: IntReg, offset: i64, size: u8, signed: bool },
    St { rs: IntReg, base: IntReg, offset: i64, size: u8 },
    Br { cond: Cond, ra: IntReg, rb: IntReg, target: u32 },
    Jmp { target: u32 },
    Nop,
    Halt,
    // ---- MMX-like media (also MDMX's SIMD subset, unwrapped at decode) ----
    MediaLd { md: MediaReg, base: IntReg, offset: i64 },
    MediaSt { ms: MediaReg, base: IntReg, offset: i64 },
    Splat { md: MediaReg, rs: IntReg, lane: Lane },
    FromInt { md: MediaReg, rs: IntReg },
    ToInt { rd: IntReg, ms: MediaReg, lane: Lane, idx: u8 },
    MediaPacked { op: PackedBinOp, md: MediaReg, ma: MediaReg, mb: MediaReg, lane: Lane, sat: Saturation },
    MediaShift { kind: ShiftKind, md: MediaReg, ms: MediaReg, lane: Lane, amount: u8 },
    MediaSelect { md: MediaReg, mask: MediaReg, ma: MediaReg, mb: MediaReg, lane: Lane },
    MediaPack { md: MediaReg, ma: MediaReg, mb: MediaReg, from: Lane, to_signed: bool },
    MediaUnpackLo { md: MediaReg, ma: MediaReg, mb: MediaReg, lane: Lane },
    MediaUnpackHi { md: MediaReg, ma: MediaReg, mb: MediaReg, lane: Lane },
    MediaWidenLo { md: MediaReg, ms: MediaReg, lane: Lane },
    MediaWidenHi { md: MediaReg, ms: MediaReg, lane: Lane },
    MediaSad { md: MediaReg, ma: MediaReg, mb: MediaReg, lane: Lane },
    MediaReduceSum { rd: IntReg, ms: MediaReg, lane: Lane },
    // ---- MDMX accumulator forms ----
    AccClear { acc: AccReg },
    Acc { op: AccOp, acc: AccReg, ma: MediaReg, mb: MediaReg, lane: Lane },
    ReadAcc { md: MediaReg, acc: AccReg, lane: Lane, shift: u8, sat: Saturation },
    ReduceAcc { rd: IntReg, acc: AccReg },
    // ---- MOM matrix extension ----
    SetVl { rs: IntReg },
    SetVlI { vl: u8 },
    MomLd { vd: MomReg, base: IntReg, stride: IntReg },
    MomSt { vs: MomReg, base: IntReg, stride: IntReg },
    MomPacked { op: PackedBinOp, vd: MomReg, va: MomReg, vb: MomReg, lane: Lane, sat: Saturation },
    MomPackedMedia { op: PackedBinOp, vd: MomReg, va: MomReg, mb: MediaReg, lane: Lane, sat: Saturation },
    MomShift { kind: ShiftKind, vd: MomReg, va: MomReg, lane: Lane, amount: u8 },
    MomSelect { vd: MomReg, mask: MomReg, va: MomReg, vb: MomReg, lane: Lane },
    MomPack { vd: MomReg, va: MomReg, vb: MomReg, from: Lane, to_signed: bool },
    MomUnpackLo { vd: MomReg, va: MomReg, vb: MomReg, lane: Lane },
    MomUnpackHi { vd: MomReg, va: MomReg, vb: MomReg, lane: Lane },
    MomWidenLo { vd: MomReg, va: MomReg, lane: Lane },
    MomWidenHi { vd: MomReg, va: MomReg, lane: Lane },
    MomTranspose { vd: MomReg, va: MomReg, lane: Lane },
    MomTransposePair { vd_lo: MomReg, vd_hi: MomReg, va_lo: MomReg, va_hi: MomReg },
    MomAccClear { acc: MomAccReg },
    MomAcc { op: AccOp, acc: MomAccReg, va: MomReg, vb: MomReg, lane: Lane },
    MomAccMedia { op: AccOp, acc: MomAccReg, va: MomReg, mb: MediaReg, lane: Lane },
    MomReadAcc { md: MediaReg, acc: MomAccReg, lane: Lane, shift: u8, sat: Saturation },
    MomReduceAcc { rd: IntReg, acc: MomAccReg },
    RowToMedia { md: MediaReg, vs: MomReg, row: u8 },
    MediaToRow { vd: MomReg, row: u8, ms: MediaReg },
}

/// Lower one static instruction to its flat execution form, resolving branch
/// labels against `program`.
fn lower(inst: &Inst, program: &Program) -> ExecOp {
    match inst {
        Inst::Scalar(op) => lower_scalar(op, program),
        Inst::Mmx(op) => lower_mmx(op),
        Inst::Mdmx(MdmxOp::Simd(op)) => lower_mmx(op),
        Inst::Mdmx(MdmxOp::AccClear { acc }) => ExecOp::AccClear { acc: *acc },
        Inst::Mdmx(MdmxOp::Acc { op, acc, ma, mb, lane }) => {
            ExecOp::Acc { op: *op, acc: *acc, ma: *ma, mb: *mb, lane: *lane }
        }
        Inst::Mdmx(MdmxOp::ReadAcc { md, acc, lane, shift, sat }) => {
            ExecOp::ReadAcc { md: *md, acc: *acc, lane: *lane, shift: *shift, sat: *sat }
        }
        Inst::Mdmx(MdmxOp::ReduceAcc { rd, acc }) => ExecOp::ReduceAcc { rd: *rd, acc: *acc },
        Inst::Mom(op) => lower_mom(op),
    }
}

fn lower_scalar(op: &ScalarOp, program: &Program) -> ExecOp {
    match op {
        ScalarOp::Li { rd, imm } => ExecOp::Li { rd: *rd, imm: *imm },
        ScalarOp::Mov { rd, rs } => ExecOp::Mov { rd: *rd, rs: *rs },
        ScalarOp::Alu { op, rd, ra, rb } => ExecOp::Alu { op: *op, rd: *rd, ra: *ra, rb: *rb },
        ScalarOp::AluI { op, rd, ra, imm } => ExecOp::AluI { op: *op, rd: *rd, ra: *ra, imm: *imm },
        ScalarOp::CmpSet { cond, rd, ra, rb } => {
            ExecOp::CmpSet { cond: *cond, rd: *rd, ra: *ra, rb: *rb }
        }
        ScalarOp::CMov { rd, rc, rs } => ExecOp::CMov { rd: *rd, rc: *rc, rs: *rs },
        ScalarOp::Abs { rd, ra } => ExecOp::Abs { rd: *rd, ra: *ra },
        ScalarOp::Ld { rd, base, offset, size, signed } => {
            ExecOp::Ld { rd: *rd, base: *base, offset: *offset, size: *size, signed: *signed }
        }
        ScalarOp::St { rs, base, offset, size } => {
            ExecOp::St { rs: *rs, base: *base, offset: *offset, size: *size }
        }
        ScalarOp::Br { cond, ra, rb, target } => ExecOp::Br {
            cond: *cond,
            ra: *ra,
            rb: *rb,
            target: program.target(*target) as u32,
        },
        ScalarOp::Jmp { target } => ExecOp::Jmp { target: program.target(*target) as u32 },
        ScalarOp::Nop => ExecOp::Nop,
        ScalarOp::Halt => ExecOp::Halt,
    }
}

fn lower_mmx(op: &MmxOp) -> ExecOp {
    match op {
        MmxOp::Ld { md, base, offset } => ExecOp::MediaLd { md: *md, base: *base, offset: *offset },
        MmxOp::St { ms, base, offset } => ExecOp::MediaSt { ms: *ms, base: *base, offset: *offset },
        MmxOp::Splat { md, rs, lane } => ExecOp::Splat { md: *md, rs: *rs, lane: *lane },
        MmxOp::FromInt { md, rs } => ExecOp::FromInt { md: *md, rs: *rs },
        MmxOp::ToInt { rd, ms, lane, idx } => {
            ExecOp::ToInt { rd: *rd, ms: *ms, lane: *lane, idx: *idx }
        }
        MmxOp::Packed { op, md, ma, mb, lane, sat } => {
            ExecOp::MediaPacked { op: *op, md: *md, ma: *ma, mb: *mb, lane: *lane, sat: *sat }
        }
        MmxOp::Shift { kind, md, ms, lane, amount } => {
            ExecOp::MediaShift { kind: *kind, md: *md, ms: *ms, lane: *lane, amount: *amount }
        }
        MmxOp::Select { md, mask, ma, mb, lane } => {
            ExecOp::MediaSelect { md: *md, mask: *mask, ma: *ma, mb: *mb, lane: *lane }
        }
        MmxOp::Pack { md, ma, mb, from, to_signed } => {
            ExecOp::MediaPack { md: *md, ma: *ma, mb: *mb, from: *from, to_signed: *to_signed }
        }
        MmxOp::UnpackLo { md, ma, mb, lane } => {
            ExecOp::MediaUnpackLo { md: *md, ma: *ma, mb: *mb, lane: *lane }
        }
        MmxOp::UnpackHi { md, ma, mb, lane } => {
            ExecOp::MediaUnpackHi { md: *md, ma: *ma, mb: *mb, lane: *lane }
        }
        MmxOp::WidenLo { md, ms, lane } => ExecOp::MediaWidenLo { md: *md, ms: *ms, lane: *lane },
        MmxOp::WidenHi { md, ms, lane } => ExecOp::MediaWidenHi { md: *md, ms: *ms, lane: *lane },
        MmxOp::Sad { md, ma, mb, lane } => {
            ExecOp::MediaSad { md: *md, ma: *ma, mb: *mb, lane: *lane }
        }
        MmxOp::ReduceSum { rd, ms, lane } => {
            ExecOp::MediaReduceSum { rd: *rd, ms: *ms, lane: *lane }
        }
    }
}

fn lower_mom(op: &MomOp) -> ExecOp {
    match op {
        MomOp::SetVl { rs } => ExecOp::SetVl { rs: *rs },
        MomOp::SetVlI { vl } => ExecOp::SetVlI { vl: *vl },
        MomOp::Ld { vd, base, stride } => ExecOp::MomLd { vd: *vd, base: *base, stride: *stride },
        MomOp::St { vs, base, stride } => ExecOp::MomSt { vs: *vs, base: *base, stride: *stride },
        MomOp::Packed { op, vd, va, vb, lane, sat } => {
            ExecOp::MomPacked { op: *op, vd: *vd, va: *va, vb: *vb, lane: *lane, sat: *sat }
        }
        MomOp::PackedMedia { op, vd, va, mb, lane, sat } => {
            ExecOp::MomPackedMedia { op: *op, vd: *vd, va: *va, mb: *mb, lane: *lane, sat: *sat }
        }
        MomOp::Shift { kind, vd, va, lane, amount } => {
            ExecOp::MomShift { kind: *kind, vd: *vd, va: *va, lane: *lane, amount: *amount }
        }
        MomOp::Select { vd, mask, va, vb, lane } => {
            ExecOp::MomSelect { vd: *vd, mask: *mask, va: *va, vb: *vb, lane: *lane }
        }
        MomOp::Pack { vd, va, vb, from, to_signed } => {
            ExecOp::MomPack { vd: *vd, va: *va, vb: *vb, from: *from, to_signed: *to_signed }
        }
        MomOp::UnpackLo { vd, va, vb, lane } => {
            ExecOp::MomUnpackLo { vd: *vd, va: *va, vb: *vb, lane: *lane }
        }
        MomOp::UnpackHi { vd, va, vb, lane } => {
            ExecOp::MomUnpackHi { vd: *vd, va: *va, vb: *vb, lane: *lane }
        }
        MomOp::WidenLo { vd, va, lane } => ExecOp::MomWidenLo { vd: *vd, va: *va, lane: *lane },
        MomOp::WidenHi { vd, va, lane } => ExecOp::MomWidenHi { vd: *vd, va: *va, lane: *lane },
        MomOp::Transpose { vd, va, lane } => ExecOp::MomTranspose { vd: *vd, va: *va, lane: *lane },
        MomOp::TransposePair { vd_lo, vd_hi, va_lo, va_hi } => ExecOp::MomTransposePair {
            vd_lo: *vd_lo,
            vd_hi: *vd_hi,
            va_lo: *va_lo,
            va_hi: *va_hi,
        },
        MomOp::AccClear { acc } => ExecOp::MomAccClear { acc: *acc },
        MomOp::Acc { op, acc, va, vb, lane } => {
            ExecOp::MomAcc { op: *op, acc: *acc, va: *va, vb: *vb, lane: *lane }
        }
        MomOp::AccMedia { op, acc, va, mb, lane } => {
            ExecOp::MomAccMedia { op: *op, acc: *acc, va: *va, mb: *mb, lane: *lane }
        }
        MomOp::ReadAcc { md, acc, lane, shift, sat } => {
            ExecOp::MomReadAcc { md: *md, acc: *acc, lane: *lane, shift: *shift, sat: *sat }
        }
        MomOp::ReduceAcc { rd, acc } => ExecOp::MomReduceAcc { rd: *rd, acc: *acc },
        MomOp::RowToMedia { md, vs, row } => ExecOp::RowToMedia { md: *md, vs: *vs, row: *row },
        MomOp::MediaToRow { vd, row, ms } => ExecOp::MediaToRow { vd: *vd, row: *row, ms: *ms },
    }
}

/// Define one handler function per [`ExecOp`] variant plus the
/// decode-time `dispatch_for` resolver. The first parenthesized group names
/// the handler parameters at the *invocation* site so the bodies (which are
/// textually the old `ExecOp::execute` match arms) can refer to them across
/// the macro hygiene boundary. The generated `dispatch_for` match is
/// exhaustive, so adding an `ExecOp` variant without a handler is a compile
/// error.
macro_rules! handlers {
    (
        ($st:ident, $inst:ident, $scratch:ident)
        $( $fname:ident : $Variant:ident $( { $($field:ident),* $(,)? } )? => $body:block )*
    ) => {
        $(
            #[allow(unused_variables)]
            fn $fname(exec: &ExecOp, $st: &mut Machine, $inst: &mut DynInst, $scratch: &mut MemList) -> Flow {
                let ExecOp::$Variant $( { $($field),* } )? = exec else {
                    unreachable!("µop handler bound to the wrong ExecOp variant")
                };
                $body
            }
        )*

        /// Resolve the threaded-dispatch handler for a µop at decode time.
        fn dispatch_for(exec: &ExecOp) -> OpFn {
            match exec {
                $( ExecOp::$Variant { .. } => $fname, )*
            }
        }
    };
}

handlers! {
    (st, inst, scratch)
    // ---- scalar baseline ----
    op_li: Li { rd, imm } => {
        st.core.int.write(*rd, *imm);
        Flow::Next
    }
    op_mov: Mov { rd, rs } => {
        let v = st.core.int.read(*rs);
        st.core.int.write(*rd, v);
        Flow::Next
    }
    op_alu: Alu { op, rd, ra, rb } => {
        let v = op.apply(st.core.int.read(*ra), st.core.int.read(*rb));
        st.core.int.write(*rd, v);
        Flow::Next
    }
    op_alui: AluI { op, rd, ra, imm } => {
        let v = op.apply(st.core.int.read(*ra), *imm);
        st.core.int.write(*rd, v);
        Flow::Next
    }
    op_cmpset: CmpSet { cond, rd, ra, rb } => {
        let v = cond.eval(st.core.int.read(*ra), st.core.int.read(*rb));
        st.core.int.write(*rd, v as i64);
        Flow::Next
    }
    op_cmov: CMov { rd, rc, rs } => {
        if st.core.int.read(*rc) != 0 {
            let v = st.core.int.read(*rs);
            st.core.int.write(*rd, v);
        }
        Flow::Next
    }
    op_abs: Abs { rd, ra } => {
        let v = st.core.int.read(*ra).wrapping_abs();
        st.core.int.write(*rd, v);
        Flow::Next
    }
    op_ld: Ld { rd, base, offset, size, signed } => {
        let addr = (st.core.int.read(*base) + offset) as u64;
        let v = if *signed {
            st.core.mem.read_signed(addr, *size as usize)
        } else {
            st.core.mem.read_unsigned(addr, *size as usize) as i64
        };
        st.core.int.write(*rd, v);
        inst.mem.set_one(MemAccess { addr, size: *size, kind: MemKind::Load });
        Flow::Next
    }
    op_st: St { rs, base, offset, size } => {
        let addr = (st.core.int.read(*base) + offset) as u64;
        st.core.mem.write_value(addr, *size as usize, st.core.int.read(*rs) as u64);
        inst.mem.set_one(MemAccess { addr, size: *size, kind: MemKind::Store });
        Flow::Next
    }
    op_br: Br { cond, ra, rb, target } => {
        let taken = cond.eval(st.core.int.read(*ra), st.core.int.read(*rb));
        inst.branch = Some(BranchInfo {
            taken,
            conditional: true,
            pc: inst.pc,
            target: *target as u64,
        });
        if taken {
            Flow::Jump(*target)
        } else {
            Flow::Next
        }
    }
    op_jmp: Jmp { target } => {
        inst.branch = Some(BranchInfo {
            taken: true,
            conditional: false,
            pc: inst.pc,
            target: *target as u64,
        });
        Flow::Jump(*target)
    }
    op_nop: Nop => { Flow::Next }
    op_halt: Halt => { Flow::Halt }
    // ---- MMX-like media ----
    op_media_ld: MediaLd { md, base, offset } => {
        let addr = (st.core.int.read(*base) + offset) as u64;
        st.core.media.write(*md, PackedWord::new(st.core.mem.read_u64(addr)));
        inst.mem.set_one(MemAccess { addr, size: 8, kind: MemKind::Load });
        Flow::Next
    }
    op_media_st: MediaSt { ms, base, offset } => {
        let addr = (st.core.int.read(*base) + offset) as u64;
        st.core.mem.write_u64(addr, st.core.media.read(*ms).bits());
        inst.mem.set_one(MemAccess { addr, size: 8, kind: MemKind::Store });
        Flow::Next
    }
    op_splat: Splat { md, rs, lane } => {
        let v = PackedWord::splat(*lane, st.core.int.read(*rs));
        st.core.media.write(*md, v);
        Flow::Next
    }
    op_from_int: FromInt { md, rs } => {
        st.core.media.write(*md, PackedWord::new(st.core.int.read(*rs) as u64));
        Flow::Next
    }
    op_to_int: ToInt { rd, ms, lane, idx } => {
        let v = st.core.media.read(*ms).lane(*lane, *idx as usize);
        st.core.int.write(*rd, v);
        Flow::Next
    }
    op_media_packed: MediaPacked { op, md, ma, mb, lane, sat } => {
        let v = op.apply(st.core.media.read(*ma), st.core.media.read(*mb), *lane, *sat);
        st.core.media.write(*md, v);
        Flow::Next
    }
    op_media_shift: MediaShift { kind, md, ms, lane, amount } => {
        let a = st.core.media.read(*ms);
        let v = match kind {
            ShiftKind::LeftLogical => a.shl(*lane, *amount as u32),
            ShiftKind::RightLogical => a.shr_logical(*lane, *amount as u32),
            ShiftKind::RightArith => a.shr_arith(*lane, *amount as u32),
        };
        st.core.media.write(*md, v);
        Flow::Next
    }
    op_media_select: MediaSelect { md, mask, ma, mb, lane } => {
        let v = PackedWord::select(
            st.core.media.read(*mask),
            st.core.media.read(*ma),
            st.core.media.read(*mb),
            *lane,
        );
        st.core.media.write(*md, v);
        Flow::Next
    }
    op_media_pack: MediaPack { md, ma, mb, from, to_signed } => {
        let v = st.core.media.read(*ma).pack(st.core.media.read(*mb), *from, *to_signed);
        st.core.media.write(*md, v);
        Flow::Next
    }
    op_media_unpack_lo: MediaUnpackLo { md, ma, mb, lane } => {
        let v = st.core.media.read(*ma).unpack_lo(st.core.media.read(*mb), *lane);
        st.core.media.write(*md, v);
        Flow::Next
    }
    op_media_unpack_hi: MediaUnpackHi { md, ma, mb, lane } => {
        let v = st.core.media.read(*ma).unpack_hi(st.core.media.read(*mb), *lane);
        st.core.media.write(*md, v);
        Flow::Next
    }
    op_media_widen_lo: MediaWidenLo { md, ms, lane } => {
        let v = st.core.media.read(*ms).widen_lo(*lane);
        st.core.media.write(*md, v);
        Flow::Next
    }
    op_media_widen_hi: MediaWidenHi { md, ms, lane } => {
        let v = st.core.media.read(*ms).widen_hi(*lane);
        st.core.media.write(*md, v);
        Flow::Next
    }
    op_media_sad: MediaSad { md, ma, mb, lane } => {
        let s = st.core.media.read(*ma).sad(st.core.media.read(*mb), *lane);
        st.core.media.write(*md, PackedWord::ZERO.with_lane(Lane::I32, 0, s));
        Flow::Next
    }
    op_media_reduce_sum: MediaReduceSum { rd, ms, lane } => {
        let s = st.core.media.read(*ms).reduce_sum(*lane);
        st.core.int.write(*rd, s);
        Flow::Next
    }
    // ---- MDMX accumulator forms ----
    op_acc_clear: AccClear { acc } => {
        st.core.accs[acc.index()].clear();
        Flow::Next
    }
    op_acc: Acc { op, acc, ma, mb, lane } => {
        let a = st.core.media.read(*ma);
        let b = st.core.media.read(*mb);
        op.apply(&mut st.core.accs[acc.index()], a, b, *lane);
        Flow::Next
    }
    op_read_acc: ReadAcc { md, acc, lane, shift, sat } => {
        let v = st.core.accs[acc.index()].read_packed(*lane, *shift as u32, *sat);
        st.core.media.write(*md, v);
        Flow::Next
    }
    op_reduce_acc: ReduceAcc { rd, acc } => {
        let v = st.core.accs[acc.index()].reduce_sum();
        st.core.int.write(*rd, v);
        Flow::Next
    }
    // ---- MOM matrix extension ----
    op_set_vl: SetVl { rs } => {
        let v = st.core.int.read(*rs).max(0) as usize;
        st.mom.set_vl(v);
        Flow::Next
    }
    op_set_vl_i: SetVlI { vl } => {
        st.mom.set_vl(*vl as usize);
        Flow::Next
    }
    op_mom_ld: MomLd { vd, base, stride } => {
        let vl = st.mom.vl();
        let base_addr = st.core.int.read(*base) as u64;
        let stride = st.core.int.read(*stride);
        let value = st.mom.matrix.get_mut(*vd);
        // Recycle the loop's spill buffer: steady-state vector loads reuse
        // one heap allocation instead of paying one per instruction.
        let mut accesses = std::mem::take(scratch);
        accesses.clear();
        if !accesses.is_spilled() && vl > MEM_INLINE {
            accesses = MemList::with_capacity(vl);
        }
        for k in 0..vl {
            let addr = (base_addr as i64 + k as i64 * stride) as u64;
            value.set_row(k, PackedWord::new(st.core.mem.read_u64(addr)));
            accesses.push(MemAccess { addr, size: 8, kind: MemKind::Load });
        }
        inst.mem = accesses;
        Flow::Next
    }
    op_mom_st: MomSt { vs, base, stride } => {
        let vl = st.mom.vl();
        let base_addr = st.core.int.read(*base) as u64;
        let stride = st.core.int.read(*stride);
        let value = st.mom.matrix.get(*vs);
        let mut accesses = std::mem::take(scratch);
        accesses.clear();
        if !accesses.is_spilled() && vl > MEM_INLINE {
            accesses = MemList::with_capacity(vl);
        }
        for k in 0..vl {
            let addr = (base_addr as i64 + k as i64 * stride) as u64;
            st.core.mem.write_u64(addr, value.row(k).bits());
            accesses.push(MemAccess { addr, size: 8, kind: MemKind::Store });
        }
        inst.mem = accesses;
        Flow::Next
    }
    op_mom_packed: MomPacked { op, vd, va, vb, lane, sat } => {
        let vl = st.mom.vl();
        let a = st.mom.matrix.read(*va);
        let b = st.mom.matrix.read(*vb);
        let out = st.mom.matrix.get_mut(*vd);
        for r in 0..vl {
            out.set_row(r, op.apply(a.row(r), b.row(r), *lane, *sat));
        }
        Flow::Next
    }
    op_mom_packed_media: MomPackedMedia { op, vd, va, mb, lane, sat } => {
        let vl = st.mom.vl();
        let a = st.mom.matrix.read(*va);
        let b = st.core.media.read(*mb);
        let out = st.mom.matrix.get_mut(*vd);
        for r in 0..vl {
            out.set_row(r, op.apply(a.row(r), b, *lane, *sat));
        }
        Flow::Next
    }
    op_mom_shift: MomShift { kind, vd, va, lane, amount } => {
        let vl = st.mom.vl();
        let a = st.mom.matrix.read(*va);
        let out = st.mom.matrix.get_mut(*vd);
        *out = a;
        for r in 0..vl {
            let w = a.row(r);
            out.set_row(
                r,
                match kind {
                    ShiftKind::LeftLogical => w.shl(*lane, *amount as u32),
                    ShiftKind::RightLogical => w.shr_logical(*lane, *amount as u32),
                    ShiftKind::RightArith => w.shr_arith(*lane, *amount as u32),
                },
            );
        }
        Flow::Next
    }
    op_mom_select: MomSelect { vd, mask, va, vb, lane } => {
        let vl = st.mom.vl();
        let mk = st.mom.matrix.read(*mask);
        let a = st.mom.matrix.read(*va);
        let b = st.mom.matrix.read(*vb);
        let out = st.mom.matrix.get_mut(*vd);
        for r in 0..vl {
            out.set_row(r, PackedWord::select(mk.row(r), a.row(r), b.row(r), *lane));
        }
        Flow::Next
    }
    op_mom_pack: MomPack { vd, va, vb, from, to_signed } => {
        let vl = st.mom.vl();
        let a = st.mom.matrix.read(*va);
        let b = st.mom.matrix.read(*vb);
        let out = st.mom.matrix.get_mut(*vd);
        for r in 0..vl {
            out.set_row(r, a.row(r).pack(b.row(r), *from, *to_signed));
        }
        Flow::Next
    }
    op_mom_unpack_lo: MomUnpackLo { vd, va, vb, lane } => {
        let vl = st.mom.vl();
        let a = st.mom.matrix.read(*va);
        let b = st.mom.matrix.read(*vb);
        let out = st.mom.matrix.get_mut(*vd);
        *out = a;
        for r in 0..vl {
            out.set_row(r, a.row(r).unpack_lo(b.row(r), *lane));
        }
        Flow::Next
    }
    op_mom_unpack_hi: MomUnpackHi { vd, va, vb, lane } => {
        let vl = st.mom.vl();
        let a = st.mom.matrix.read(*va);
        let b = st.mom.matrix.read(*vb);
        let out = st.mom.matrix.get_mut(*vd);
        *out = a;
        for r in 0..vl {
            out.set_row(r, a.row(r).unpack_hi(b.row(r), *lane));
        }
        Flow::Next
    }
    op_mom_widen_lo: MomWidenLo { vd, va, lane } => {
        let vl = st.mom.vl();
        let a = st.mom.matrix.read(*va);
        let out = st.mom.matrix.get_mut(*vd);
        *out = a;
        for r in 0..vl {
            out.set_row(r, a.row(r).widen_lo(*lane));
        }
        Flow::Next
    }
    op_mom_widen_hi: MomWidenHi { vd, va, lane } => {
        let vl = st.mom.vl();
        let a = st.mom.matrix.read(*va);
        let out = st.mom.matrix.get_mut(*vd);
        *out = a;
        for r in 0..vl {
            out.set_row(r, a.row(r).widen_hi(*lane));
        }
        Flow::Next
    }
    op_mom_transpose: MomTranspose { vd, va, lane } => {
        let a = st.mom.matrix.read(*va);
        st.mom.matrix.write(*vd, a.transpose(*lane));
        Flow::Next
    }
    op_mom_transpose_pair: MomTransposePair { vd_lo, vd_hi, va_lo, va_hi } => {
        let lo = st.mom.matrix.read(*va_lo);
        let hi = st.mom.matrix.read(*va_hi);
        let elem = |r: usize, c: usize| {
            if c < 4 {
                lo.element(Lane::I16, r, c)
            } else {
                hi.element(Lane::I16, r, c - 4)
            }
        };
        let mut out_lo = st.mom.matrix.read(*vd_lo);
        let mut out_hi = st.mom.matrix.read(*vd_hi);
        for r in 0..8 {
            for c in 0..8 {
                let value = elem(c, r);
                if c < 4 {
                    out_lo.set_element(Lane::I16, r, c, value);
                } else {
                    out_hi.set_element(Lane::I16, r, c - 4, value);
                }
            }
        }
        st.mom.matrix.write(*vd_lo, out_lo);
        st.mom.matrix.write(*vd_hi, out_hi);
        Flow::Next
    }
    op_mom_acc_clear: MomAccClear { acc } => {
        st.mom.accs[acc.index()].clear();
        Flow::Next
    }
    op_mom_acc: MomAcc { op, acc, va, vb, lane } => {
        let vl = st.mom.vl();
        let a = st.mom.matrix.read(*va);
        let b = st.mom.matrix.read(*vb);
        let accu = &mut st.mom.accs[acc.index()];
        for r in 0..vl {
            op.apply(accu, a.row(r), b.row(r), *lane);
        }
        Flow::Next
    }
    op_mom_acc_media: MomAccMedia { op, acc, va, mb, lane } => {
        let vl = st.mom.vl();
        let a = st.mom.matrix.read(*va);
        let b = st.core.media.read(*mb);
        let accu = &mut st.mom.accs[acc.index()];
        for r in 0..vl {
            op.apply(accu, a.row(r), b, *lane);
        }
        Flow::Next
    }
    op_mom_read_acc: MomReadAcc { md, acc, lane, shift, sat } => {
        let v = st.mom.accs[acc.index()].read_packed(*lane, *shift as u32, *sat);
        st.core.media.write(*md, v);
        Flow::Next
    }
    op_mom_reduce_acc: MomReduceAcc { rd, acc } => {
        let v = st.mom.accs[acc.index()].reduce_sum();
        st.core.int.write(*rd, v);
        Flow::Next
    }
    op_row_to_media: RowToMedia { md, vs, row } => {
        let v = st.mom.matrix.get(*vs).row(*row as usize);
        st.core.media.write(*md, v);
        Flow::Next
    }
    op_media_to_row: MediaToRow { vd, row, ms } => {
        let w = st.core.media.read(*ms);
        st.mom.matrix.get_mut(*vd).set_row(*row as usize, w);
        Flow::Next
    }
}

impl DecodedProgram {
    /// Lower `program` into µops (the implementation of [`Program::decode`]).
    pub(crate) fn new(program: &Program) -> Self {
        let ops = program
            .insts()
            .iter()
            .enumerate()
            .map(|(pc, inst)| {
                let mut skeleton = DynInst::new(inst.class(), pc as u64);
                for s in inst.srcs() {
                    skeleton = skeleton.with_src(s);
                }
                for d in inst.dsts() {
                    skeleton = skeleton.with_dst(d);
                }
                let exec = lower(inst, program);
                let handler = dispatch_for(&exec);
                MicroOp { exec, handler, skeleton, is_vector: inst.is_vector() }
            })
            .collect();
        Self { ops, isa: program.isa() }
    }

    /// Number of µops (equal to the static instruction count of the source
    /// program).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The ISA dialect the program was built for.
    pub fn isa(&self) -> IsaKind {
        self.isa
    }

    /// Execute with the default budget, collecting the trace — the decoded
    /// equivalent of [`Program::run`].
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::FuelExhausted`] if more than
    /// [`DEFAULT_FUEL`] dynamic instructions execute.
    pub fn run(&self, machine: &mut Machine) -> Result<Trace, ExecError> {
        let mut trace = Trace::new(self.isa);
        self.stream_with_fuel(machine, &mut trace, DEFAULT_FUEL)?;
        Ok(trace)
    }

    /// Execute, pushing every graduated instruction into `sink`, with the
    /// default instruction budget. Returns the number of instructions
    /// executed.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::FuelExhausted`] if the budget is exceeded;
    /// already-executed instructions have been emitted to the sink.
    pub fn stream<S: TraceSink + ?Sized>(
        &self,
        machine: &mut Machine,
        sink: &mut S,
    ) -> Result<usize, ExecError> {
        self.stream_with_fuel(machine, sink, DEFAULT_FUEL)
    }

    /// [`DecodedProgram::stream`] with an explicit dynamic-instruction
    /// budget: one [`stream_segment`](Self::stream_segment) window from
    /// [`ExecCursor::start`], where a window that ends before the program
    /// halts means the budget ran out.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::FuelExhausted`] if the budget is exceeded;
    /// already-executed instructions have been emitted to the sink.
    pub fn stream_with_fuel<S: TraceSink + ?Sized>(
        &self,
        machine: &mut Machine,
        sink: &mut S,
        fuel: usize,
    ) -> Result<usize, ExecError> {
        let mut cursor = ExecCursor::start();
        let executed = self.stream_segment(machine, sink, &mut cursor, fuel as u64) as usize;
        if cursor.is_done(self) {
            Ok(executed)
        } else {
            Err(ExecError::FuelExhausted { executed })
        }
    }

    /// Functionally execute up to `max` dynamic instructions from `cursor`,
    /// applying architectural effects only — no trace emission, no timing.
    /// This is the fast-forward driver of the sampled execution mode: it
    /// advances the architectural [`Machine`] between sampling units at a
    /// fraction of the detailed cost by skipping [`DynInst`] assembly and
    /// sink handoff entirely.
    ///
    /// Interleaving fast-forward and [`stream_segment`](Self::stream_segment)
    /// windows partitions the dynamic instruction sequence exactly as one
    /// continuous detailed run would.
    ///
    /// Returns the number of instructions executed, which is less than `max`
    /// only if the program halted. `cursor` is left at the next instruction
    /// (or past the end after a halt).
    pub fn fast_forward(
        &self,
        machine: &mut Machine,
        cursor: &mut ExecCursor,
        max: u64,
    ) -> u64 {
        let mut pc = cursor.pc;
        let mut executed = 0u64;
        let mut scratch = MemList::new();
        // Handlers only *write* the dynamic trace fields (`mem`, `branch`)
        // and read `pc` solely to stamp the discarded `BranchInfo`, so one
        // recycled slot absorbs their output without any per-instruction
        // skeleton refresh.
        let mut slot = DynInst::new(InstClass::Nop, 0);
        while pc < self.ops.len() && executed < max {
            let op = &self.ops[pc];
            reclaim(&mut slot, &mut scratch);
            executed += 1;
            let flow = (op.handler)(&op.exec, machine, &mut slot, &mut scratch);
            pc = match flow {
                Flow::Next => pc + 1,
                Flow::Jump(target) => target as usize,
                Flow::Halt => self.ops.len(),
            };
        }
        cursor.pc = pc;
        executed
    }

    /// Execute up to `max` dynamic instructions from `cursor` in full detail,
    /// emitting every graduated [`DynInst`] to `sink`. This is the hot loop
    /// of the whole workspace, behind [`stream_with_fuel`](Self::stream_with_fuel)
    /// and the warm-up and measurement units of the sampled execution mode:
    /// refresh a chunk slot from the µop's skeleton, patch the vector length,
    /// call the handler resolved at decode time (which patches memory
    /// accesses and branch outcome in place), advance.
    ///
    /// Graduated instructions accumulate in a 64-slot chunk buffer that is
    /// flushed to the sink with one [`TraceSink::emit_batch`] call — when the
    /// chunk fills and when the window ends — so a streaming consumer retires
    /// a run of instructions per call frame instead of paying one handoff
    /// each. Sinks observe exactly the same instructions in the same order as
    /// one-at-a-time emission.
    ///
    /// Hitting the `max` budget is the expected way a window ends, so it is
    /// not an error: the count executed is returned, with `cursor` parked at
    /// the next instruction (or past the end after a halt). The emitted
    /// instruction sequence across consecutive segments (and interleaved
    /// [`fast_forward`](Self::fast_forward) windows) is byte-identical to one
    /// uninterrupted stream.
    pub fn stream_segment<S: TraceSink + ?Sized>(
        &self,
        machine: &mut Machine,
        sink: &mut S,
        cursor: &mut ExecCursor,
        max: u64,
    ) -> u64 {
        let mut pc = cursor.pc;
        let mut executed = 0u64;
        // Spill-buffer recycled across vector loads/stores (see the MomLd
        // handler): when a chunk slot holding a spilled MemList is refreshed
        // for reuse, the heap buffer migrates here and the next vector
        // memory handler takes it back, so steady-state loops stop
        // allocating.
        let mut scratch = MemList::new();
        // Persistent output slots refreshed from the skeletons in place —
        // cheaper than cloning a whole DynInst (whose inline memory buffer
        // dominates the size) per dynamic instruction. Slots `filled..` hold
        // stale contents from earlier rounds.
        let mut chunk: Vec<DynInst> =
            (0..CHUNK).map(|_| DynInst::new(InstClass::Nop, 0)).collect();
        let mut filled = 0usize;
        while pc < self.ops.len() && executed < max {
            let op = &self.ops[pc];
            if filled == CHUNK {
                sink.emit_batch(&chunk);
                filled = 0;
            }
            let elems = if op.is_vector { machine.mom.vl().max(1) as u16 } else { 1 };
            let slot = &mut chunk[filled];
            refresh(slot, &op.skeleton, elems, &mut scratch);
            executed += 1;
            let flow = (op.handler)(&op.exec, machine, slot, &mut scratch);
            filled += 1;
            pc = match flow {
                Flow::Next => pc + 1,
                Flow::Jump(target) => target as usize,
                Flow::Halt => self.ops.len(),
            };
        }
        sink.emit_batch(&chunk[..filled]);
        cursor.pc = pc;
        executed
    }
}

/// A resumable position in a [`DecodedProgram`] execution, advanced by
/// [`DecodedProgram::fast_forward`] and [`DecodedProgram::stream_segment`].
///
/// The cursor is just the static instruction index of the next µop; a value
/// at or past the program length means the program has halted. Together with
/// the architectural [`Machine`] it fully determines the remaining dynamic
/// instruction stream, which is what lets checkpoints persist it as a single
/// integer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecCursor {
    pc: usize,
}

impl Default for ExecCursor {
    fn default() -> Self {
        Self::start()
    }
}

impl ExecCursor {
    /// A cursor at the first instruction of a program.
    pub fn start() -> Self {
        Self { pc: 0 }
    }

    /// A cursor at static instruction index `pc` (used when restoring from a
    /// checkpoint; any value at or past the program length means done).
    pub fn at(pc: usize) -> Self {
        Self { pc }
    }

    /// The static instruction index of the next µop to execute.
    pub fn pc(&self) -> usize {
        self.pc
    }

    /// Whether execution of `program` has halted at this cursor.
    pub fn is_done(&self, program: &DecodedProgram) -> bool {
        self.pc >= program.ops.len()
    }
}

/// Fast-forward counterpart of [`refresh`]: clear a recycled slot's memory
/// list (migrating a spilled heap buffer into `scratch` for the next vector
/// memory handler to take) without touching the static fields nobody reads.
#[inline(always)]
fn reclaim(dst: &mut DynInst, scratch: &mut MemList) {
    if dst.mem.is_spilled() && !scratch.is_spilled() {
        dst.mem.clear();
        *scratch = std::mem::take(&mut dst.mem);
    } else {
        dst.mem.clear();
    }
}

/// Graduation-chunk size: instructions accumulate in this many persistent
/// slots before one [`TraceSink::emit_batch`] flush. 64 slots amortize the
/// per-chunk handoff to well under a nanosecond per instruction while the
/// buffer stays comfortably cache-resident.
const CHUNK: usize = 64;

/// Reset a persistent output slot to a µop's skeleton: static fields copied,
/// dynamic fields (memory accesses, branch outcome) cleared, element count
/// patched. A spilled memory buffer left in the slot by an earlier round is
/// reclaimed into the interpreter's scratch slot (unless scratch already
/// holds one), ready for the next vector load/store to take.
#[inline(always)]
fn refresh(dst: &mut DynInst, skel: &DynInst, elems: u16, scratch: &mut MemList) {
    dst.class = skel.class;
    dst.regs = skel.regs;
    if dst.mem.is_spilled() && !scratch.is_spilled() {
        dst.mem.clear();
        *scratch = std::mem::take(&mut dst.mem);
    } else {
        dst.mem.clear();
    }
    dst.branch = None;
    dst.elems = elems;
    dst.pc = skel.pc;
}
