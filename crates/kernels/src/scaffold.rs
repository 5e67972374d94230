//! Shared scaffolding for kernel builders: a machine with a memory allocator
//! and a program builder, plus helpers for emitting per-ISA media code.

use mom_core::program::ProgramBuilder;
use mom_core::state::Machine;
use mom_isa::mem::{Allocator, MemImage};
use mom_isa::mmx::MmxOp;
use mom_isa::regs::IntReg;
use mom_isa::scalar::{AluOp, ScalarOp};
use mom_isa::trace::IsaKind;

/// Default base address for kernel working sets.
pub const KERNEL_MEM_BASE: u64 = 0x10_000;
/// Default size of the kernel memory image. 64 MB covers every workload up
/// to `stress --scale 100` (effective scale 800, where the rgb2ycc frame
/// alone needs ~36 MB); the allocator bumps from the same base either way,
/// so growing the capacity changes no addresses and no timing results.
pub const KERNEL_MEM_SIZE: usize = 64 * 1024 * 1024;

/// Scaffolding shared by every kernel builder: machine + memory allocator +
/// program builder for one ISA dialect.
#[derive(Debug)]
pub struct Scaffold {
    /// The machine whose memory image is being populated.
    pub machine: Machine,
    /// Bump allocator over the machine's memory image.
    pub alloc: Allocator,
    /// The program being built.
    pub b: ProgramBuilder,
    isa: IsaKind,
}

impl Scaffold {
    /// Create a scaffold for the given ISA with the default memory image.
    pub fn new(isa: IsaKind) -> Self {
        let mem = MemImage::new(KERNEL_MEM_BASE, KERNEL_MEM_SIZE);
        let alloc = Allocator::for_image(&mem);
        Self { machine: Machine::new(mem), alloc, b: ProgramBuilder::new(isa), isa }
    }

    /// The ISA dialect the program targets.
    pub fn isa(&self) -> IsaKind {
        self.isa
    }

    /// Allocate `data.len()` bytes, copy `data` into them and return the base
    /// address.
    pub fn alloc_bytes(&mut self, data: &[u8], align: u64) -> u64 {
        let addr = self.alloc.alloc(data.len(), align);
        self.machine.mem_mut().write_bytes(addr, data);
        addr
    }

    /// Allocate a zero-initialised region and return its base address.
    pub fn alloc_zeroed(&mut self, len: usize, align: u64) -> u64 {
        self.alloc.alloc(len, align)
    }

    /// Allocate a region holding a slice of `i16` values (little-endian).
    pub fn alloc_i16(&mut self, data: &[i16], align: u64) -> u64 {
        let addr = self.alloc.alloc(data.len() * 2, align);
        let mem = self.machine.mem_mut();
        for (i, &v) in data.iter().enumerate() {
            mem.write_u16(addr + 2 * i as u64, v as u16);
        }
        addr
    }

    /// Allocate a region holding a slice of `u64` packed words.
    pub fn alloc_u64(&mut self, data: &[u64], align: u64) -> u64 {
        let addr = self.alloc.alloc(data.len() * 8, align);
        let mem = self.machine.mem_mut();
        for (i, &v) in data.iter().enumerate() {
            mem.write_u64(addr + 8 * i as u64, v);
        }
        addr
    }

    /// Emit `Li rd, value`.
    pub fn li(&mut self, rd: IntReg, value: i64) {
        self.b.push(ScalarOp::Li { rd, imm: value });
    }

    /// Emit `rd = ra + imm`.
    pub fn addi(&mut self, rd: IntReg, ra: IntReg, imm: i64) {
        self.b.push(ScalarOp::AluI { op: AluOp::Add, rd, ra, imm });
    }

    /// Push a media instruction wrapped for the scaffold's ISA dialect:
    /// as a plain MMX instruction when targeting MMX, or as an MDMX SIMD
    /// instruction when targeting MDMX.
    ///
    /// # Panics
    ///
    /// Panics if the scaffold targets the scalar or MOM dialects — kernels
    /// must not accidentally mix dialects.
    pub fn push_media(&mut self, op: MmxOp) {
        match self.isa {
            IsaKind::Mmx => {
                self.b.push(op);
            }
            IsaKind::Mdmx => {
                self.b.push(mom_isa::mdmx::MdmxOp::Simd(op));
            }
            other => panic!("push_media called for {other} program"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mom_isa::packed::Lane;
    use mom_isa::regs::{m, r};

    #[test]
    fn alloc_helpers_write_data() {
        let mut s = Scaffold::new(IsaKind::Alpha);
        let a = s.alloc_bytes(&[1, 2, 3, 4], 8);
        assert_eq!(s.machine.mem().read_u32(a), 0x0403_0201);
        let b = s.alloc_i16(&[-1, 2], 8);
        assert_eq!(s.machine.mem().read_u16(b), 0xffff);
        assert_eq!(s.machine.mem().read_u16(b + 2), 2);
        let c = s.alloc_u64(&[0xdead, u64::MAX - 1], 64);
        assert_eq!(c % 64, 0);
        assert_eq!(s.machine.mem().read_u64(c), 0xdead);
        assert_eq!(s.machine.mem().read_u64(c + 8), u64::MAX - 1);
        let z = s.alloc_zeroed(16, 8);
        assert_eq!(s.machine.mem().read_u64(z), 0);
    }

    #[test]
    fn push_media_wraps_for_mdmx() {
        let mut mmx = Scaffold::new(IsaKind::Mmx);
        mmx.push_media(MmxOp::Splat { md: m(0), rs: r(1), lane: Lane::U8 });
        let mut mdmx = Scaffold::new(IsaKind::Mdmx);
        mdmx.push_media(MmxOp::Splat { md: m(0), rs: r(1), lane: Lane::U8 });
        assert_eq!(mmx.b.len(), 1);
        assert_eq!(mdmx.b.len(), 1);
        assert_eq!(mmx.isa(), IsaKind::Mmx);
    }

    #[test]
    #[should_panic]
    fn push_media_rejects_scalar_programs() {
        let mut s = Scaffold::new(IsaKind::Alpha);
        s.push_media(MmxOp::Splat { md: m(0), rs: r(1), lane: Lane::U8 });
    }
}
