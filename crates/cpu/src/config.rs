//! Processor configurations (Table 1 of the paper, plus the per-ISA register
//! file parameters of Table 2).
//!
//! The modelled machine closely follows a MIPS R10000-style out-of-order core
//! with a dedicated multimedia unit and its own register file. Configurations
//! are parameterised by issue width (1-, 2-, 4- and 8-way); the 8-way machine
//! implements its multimedia and memory resources as two double-width units
//! for the MOM configuration, exactly as Table 1 describes.

use mom_isa::trace::{IsaKind, RegClass};

/// A pool of functional units of one kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuPool {
    /// Units that can execute only simple operations.
    pub simple: usize,
    /// Units that can execute both simple and complex operations.
    pub complex: usize,
    /// Vector lanes per multimedia unit (1 for scalar-width units; 2 for the
    /// 8-way MOM machine's double-width units).
    pub lanes: usize,
}

impl FuPool {
    /// Total number of units.
    pub fn total(&self) -> usize {
        self.simple + self.complex
    }
}

/// Out-of-order core configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreConfig {
    /// Issue width (fetch/rename/commit width share this value).
    pub way: usize,
    /// Reorder-buffer entries.
    pub rob_size: usize,
    /// Load/store queue entries.
    pub lsq_size: usize,
    /// Bimodal predictor entries (2-bit counters).
    pub bimodal_entries: usize,
    /// Branch target buffer entries.
    pub btb_entries: usize,
    /// Integer functional units.
    pub int_units: FuPool,
    /// Floating-point functional units.
    pub fp_units: FuPool,
    /// Multimedia functional units.
    pub media_units: FuPool,
    /// Number of memory ports (informational; the memory model enforces it).
    pub mem_ports: usize,
    /// Physical registers available per register class.
    pub phys_regs: PhysRegs,
    /// Which ISA the media register file is sized for.
    pub isa: IsaKind,
}

/// Physical register counts per class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhysRegs {
    /// Integer physical registers.
    pub int: usize,
    /// Floating-point physical registers.
    pub fp: usize,
    /// Media (MMX/MDMX) physical registers.
    pub media: usize,
    /// MDMX accumulator physical registers.
    pub acc: usize,
    /// MOM matrix physical registers.
    pub mom: usize,
    /// MOM accumulator physical registers.
    pub mom_acc: usize,
}

impl PhysRegs {
    /// Physical registers available for the given class.
    pub fn for_class(&self, class: RegClass) -> usize {
        match class {
            RegClass::Int => self.int,
            RegClass::Fp => self.fp,
            RegClass::Media => self.media,
            RegClass::Acc => self.acc,
            RegClass::Mom => self.mom,
            RegClass::MomAcc => self.mom_acc,
        }
    }

    /// Architectural (logical) registers of the given class, per Table 2.
    pub fn logical_for_class(class: RegClass, isa: IsaKind) -> usize {
        match class {
            RegClass::Int | RegClass::Fp => 32,
            RegClass::Media => {
                if isa == IsaKind::Mom {
                    // MOM still has the scalar 64-bit media file available for
                    // accumulator read-back; it is lightly used.
                    32
                } else {
                    32
                }
            }
            RegClass::Acc => 4,
            RegClass::Mom => 16,
            RegClass::MomAcc => 2,
        }
    }
}

impl CoreConfig {
    /// Table 1 configuration for the given issue width (1, 2, 4 or 8),
    /// with the media register file sized for `isa` per Table 2.
    ///
    /// # Panics
    ///
    /// Panics if `way` is not one of 1, 2, 4, 8.
    pub fn for_width(way: usize, isa: IsaKind) -> Self {
        let (rob, lsq, bimodal, btb) = match way {
            1 => (8, 4, 512, 64),
            2 => (16, 8, 2048, 256),
            4 => (32, 16, 4096, 512),
            8 => (64, 32, 16384, 1024),
            _ => panic!("unsupported issue width {way}; expected 1, 2, 4 or 8"),
        };
        let (int_units, fp_units) = match way {
            1 => (FuPool { simple: 0, complex: 1, lanes: 1 }, FuPool { simple: 0, complex: 1, lanes: 1 }),
            2 => (FuPool { simple: 1, complex: 1, lanes: 1 }, FuPool { simple: 1, complex: 1, lanes: 1 }),
            4 => (FuPool { simple: 2, complex: 1, lanes: 1 }, FuPool { simple: 2, complex: 1, lanes: 1 }),
            _ => (FuPool { simple: 2, complex: 2, lanes: 1 }, FuPool { simple: 2, complex: 2, lanes: 1 }),
        };
        // Table 1: MED simple/complex — 0/1, 1/1, 2, 4; for the 8-way machine
        // the MOM configuration uses 2 units of width 2 instead of 4 units.
        let media_units = match (way, isa) {
            (1, _) => FuPool { simple: 0, complex: 1, lanes: 1 },
            (2, _) => FuPool { simple: 1, complex: 1, lanes: 1 },
            (4, _) => FuPool { simple: 0, complex: 2, lanes: 1 },
            (8, IsaKind::Mom) => FuPool { simple: 0, complex: 2, lanes: 2 },
            (8, _) => FuPool { simple: 0, complex: 4, lanes: 1 },
            _ => unreachable!("width validated above"),
        };
        let mem_ports = match way {
            1 | 2 => 1,
            4 => 2,
            _ => 4,
        };
        let (int_phys, fp_phys) = match way {
            1 => (40, 40),
            2 => (48, 48),
            4 => (64, 64),
            _ => (96, 96),
        };
        // Table 2 (4-way sizing, reused across widths): MMX 32/64, MDMX 32/52
        // + 4/16 accumulators, MOM 16/20 matrix + 2/4 accumulators.
        let (media_phys, acc_phys, mom_phys, mom_acc_phys) = match isa {
            IsaKind::Alpha => (40, 4, 16, 2),
            IsaKind::Mmx => (64, 4, 16, 2),
            IsaKind::Mdmx => (52, 16, 16, 2),
            IsaKind::Mom => (40, 4, 20, 4),
        };
        Self {
            way,
            rob_size: rob,
            lsq_size: lsq,
            bimodal_entries: bimodal,
            btb_entries: btb,
            int_units,
            fp_units,
            media_units,
            mem_ports,
            phys_regs: PhysRegs {
                int: int_phys,
                fp: fp_phys,
                media: media_phys,
                acc: acc_phys,
                mom: mom_phys,
                mom_acc: mom_acc_phys,
            },
            isa,
        }
    }

    /// Renaming headroom (physical minus logical registers) for a class;
    /// dispatch stalls when more destinations of the class are in flight.
    pub fn rename_headroom(&self, class: RegClass) -> usize {
        let phys = self.phys_regs.for_class(class);
        let logical = PhysRegs::logical_for_class(class, self.isa);
        phys.saturating_sub(logical).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_resources_scale_with_width() {
        let w1 = CoreConfig::for_width(1, IsaKind::Alpha);
        let w2 = CoreConfig::for_width(2, IsaKind::Alpha);
        let w4 = CoreConfig::for_width(4, IsaKind::Alpha);
        let w8 = CoreConfig::for_width(8, IsaKind::Alpha);
        assert_eq!((w1.rob_size, w1.lsq_size), (8, 4));
        assert_eq!((w2.rob_size, w2.lsq_size), (16, 8));
        assert_eq!((w4.rob_size, w4.lsq_size), (32, 16));
        assert_eq!((w8.rob_size, w8.lsq_size), (64, 32));
        assert_eq!(w1.bimodal_entries, 512);
        assert_eq!(w8.bimodal_entries, 16384);
        assert_eq!(w1.int_units.total(), 1);
        assert_eq!(w8.int_units.total(), 4);
        assert_eq!(w4.mem_ports, 2);
        assert_eq!(w8.mem_ports, 4);
        assert_eq!(w1.phys_regs.int, 40);
        assert_eq!(w8.phys_regs.int, 96);
    }

    #[test]
    #[should_panic]
    fn unsupported_width_panics() {
        let _ = CoreConfig::for_width(3, IsaKind::Alpha);
    }

    #[test]
    fn mom_8way_uses_two_double_width_media_units() {
        let mom = CoreConfig::for_width(8, IsaKind::Mom);
        assert_eq!(mom.media_units.total(), 2);
        assert_eq!(mom.media_units.lanes, 2);
        let mmx = CoreConfig::for_width(8, IsaKind::Mmx);
        assert_eq!(mmx.media_units.total(), 4);
        assert_eq!(mmx.media_units.lanes, 1);
    }

    #[test]
    fn table2_register_files_per_isa() {
        let mmx = CoreConfig::for_width(4, IsaKind::Mmx);
        assert_eq!(mmx.phys_regs.media, 64);
        let mdmx = CoreConfig::for_width(4, IsaKind::Mdmx);
        assert_eq!(mdmx.phys_regs.media, 52);
        assert_eq!(mdmx.phys_regs.acc, 16);
        let mom = CoreConfig::for_width(4, IsaKind::Mom);
        assert_eq!(mom.phys_regs.mom, 20);
        assert_eq!(mom.phys_regs.mom_acc, 4);
    }

    #[test]
    fn rename_headroom_is_at_least_one() {
        let mom = CoreConfig::for_width(4, IsaKind::Mom);
        assert_eq!(mom.rename_headroom(RegClass::Mom), 4);
        assert_eq!(mom.rename_headroom(RegClass::MomAcc), 2);
        let alpha = CoreConfig::for_width(1, IsaKind::Alpha);
        assert_eq!(alpha.rename_headroom(RegClass::Int), 8);
        assert!(alpha.rename_headroom(RegClass::Acc) >= 1);
    }

    #[test]
    fn phys_regs_by_class() {
        let c = CoreConfig::for_width(4, IsaKind::Mdmx);
        assert_eq!(c.phys_regs.for_class(RegClass::Int), 64);
        assert_eq!(c.phys_regs.for_class(RegClass::Acc), 16);
        assert_eq!(PhysRegs::logical_for_class(RegClass::Mom, IsaKind::Mom), 16);
        assert_eq!(PhysRegs::logical_for_class(RegClass::Acc, IsaKind::Mdmx), 4);
    }
}
