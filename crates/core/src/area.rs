//! Register-file size and area-cost model (Table 2 of the paper).
//!
//! The paper argues that although the MOM matrix register file holds five
//! times more state than the MMX register file (2.6 KB vs 0.5 KB), its area
//! cost is *lower*, because the matrix register file needs far fewer ports
//! (2 read / 1 write, 8 bytes wide, with rows interleaved across banks)
//! than the 6-read/3-write flat multimedia register file a 4-way machine
//! requires. The area model follows the resource-widening study the paper
//! cites (López et al. \[16\]): the area of a storage cell grows quadratically
//! with the number of ports wired through it, so
//!
//! ```text
//! area  ∝  total bits × (1 + read_ports + write_ports)²
//! ```
//!
//! where the ports counted are the ports of each *bank* (interleaving a
//! vector/matrix register across banks is what buys MOM its cheap cells).

/// Physical configuration of one register file (or accumulator file).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegFileGeometry {
    /// Human-readable name used in reports.
    pub name: &'static str,
    /// Number of logical (architectural) registers.
    pub logical: usize,
    /// Number of physical registers (after renaming headroom).
    pub physical: usize,
    /// Width of one register in bits.
    pub bits_per_entry: usize,
    /// Read ports per bank.
    pub read_ports: usize,
    /// Write ports per bank.
    pub write_ports: usize,
}

impl RegFileGeometry {
    /// Total storage in bits (physical registers × entry width).
    pub fn total_bits(&self) -> usize {
        self.physical * self.bits_per_entry
    }

    /// Total storage in bytes.
    pub fn size_bytes(&self) -> usize {
        self.total_bits() / 8
    }

    /// Area in arbitrary units: `bits × (1 + read_ports + write_ports)²`.
    pub fn area_units(&self) -> f64 {
        let ports = 1 + self.read_ports + self.write_ports;
        self.total_bits() as f64 * (ports * ports) as f64
    }
}

/// The register-file complement of one multimedia ISA (media/matrix file plus
/// optional accumulator file).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IsaRegFiles {
    /// ISA label ("MMX", "MDMX", "MOM").
    pub isa: &'static str,
    /// The media or matrix register file.
    pub media: RegFileGeometry,
    /// The accumulator register file, if the ISA has one.
    pub accumulator: Option<RegFileGeometry>,
}

impl IsaRegFiles {
    /// Total register-file storage in bytes.
    pub fn size_bytes(&self) -> usize {
        self.media.size_bytes() + self.accumulator.map_or(0, |a| a.size_bytes())
    }

    /// Total area in model units.
    pub fn area_units(&self) -> f64 {
        self.media.area_units() + self.accumulator.map_or(0.0, |a| a.area_units())
    }
}

/// One row of the reproduced Table 2.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    /// ISA label.
    pub isa: &'static str,
    /// Logical/physical media (or matrix) registers.
    pub media_regs: (usize, usize),
    /// Logical/physical accumulators (zero for MMX).
    pub acc_regs: (usize, usize),
    /// Media read/write ports per bank.
    pub media_ports: (usize, usize),
    /// Accumulator read/write ports.
    pub acc_ports: (usize, usize),
    /// Total register-file storage in KB.
    pub size_kb: f64,
    /// Area cost normalised to the MMX configuration.
    pub normalized_area: f64,
}

/// Register-file configurations for the 4-way machine of Table 2.
pub fn table2_configs() -> [IsaRegFiles; 3] {
    [
        IsaRegFiles {
            isa: "MMX",
            media: RegFileGeometry {
                name: "MMX media",
                logical: 32,
                physical: 64,
                bits_per_entry: 64,
                read_ports: 6,
                write_ports: 3,
            },
            accumulator: None,
        },
        IsaRegFiles {
            isa: "MDMX",
            media: RegFileGeometry {
                name: "MDMX media",
                logical: 32,
                physical: 52,
                bits_per_entry: 64,
                read_ports: 6,
                write_ports: 3,
            },
            accumulator: Some(RegFileGeometry {
                name: "MDMX accumulators",
                logical: 4,
                physical: 16,
                bits_per_entry: 192,
                read_ports: 4,
                write_ports: 2,
            }),
        },
        IsaRegFiles {
            isa: "MOM",
            media: RegFileGeometry {
                name: "MOM matrix",
                logical: 16,
                physical: 20,
                bits_per_entry: 16 * 64,
                read_ports: 2,
                write_ports: 1,
            },
            accumulator: Some(RegFileGeometry {
                name: "MOM accumulators",
                logical: 2,
                physical: 4,
                bits_per_entry: 192,
                read_ports: 2,
                write_ports: 1,
            }),
        },
    ]
}

/// Reproduce Table 2: register-file sizes and area costs normalised to MMX.
pub fn table2() -> Vec<Table2Row> {
    let configs = table2_configs();
    let mmx_area = configs[0].area_units();
    configs
        .iter()
        .map(|c| Table2Row {
            isa: c.isa,
            media_regs: (c.media.logical, c.media.physical),
            acc_regs: c.accumulator.map_or((0, 0), |a| (a.logical, a.physical)),
            media_ports: (c.media.read_ports, c.media.write_ports),
            acc_ports: c.accumulator.map_or((0, 0), |a| (a.read_ports, a.write_ports)),
            size_kb: c.size_bytes() as f64 / 1024.0,
            normalized_area: c.area_units() / mmx_area,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regfile_size_and_area() {
        let c = RegFileGeometry {
            name: "test",
            logical: 8,
            physical: 16,
            bits_per_entry: 64,
            read_ports: 2,
            write_ports: 1,
        };
        assert_eq!(c.total_bits(), 1024);
        assert_eq!(c.size_bytes(), 128);
        assert_eq!(c.area_units(), 1024.0 * 16.0);
    }

    #[test]
    fn table2_sizes_match_paper() {
        let rows = table2();
        let mmx = &rows[0];
        let mdmx = &rows[1];
        let mom = &rows[2];
        // Paper: 0.5 K, 0.78 K, 2.6 K.
        assert!((mmx.size_kb - 0.5).abs() < 0.01, "MMX size {} KB", mmx.size_kb);
        assert!((mdmx.size_kb - 0.78).abs() < 0.02, "MDMX size {} KB", mdmx.size_kb);
        assert!((mom.size_kb - 2.6).abs() < 0.1, "MOM size {} KB", mom.size_kb);
    }

    #[test]
    fn table2_normalized_area_shape_matches_paper() {
        let rows = table2();
        let mmx = rows[0].normalized_area;
        let mdmx = rows[1].normalized_area;
        let mom = rows[2].normalized_area;
        assert!((mmx - 1.0).abs() < 1e-9);
        // Paper: MDMX 1.19, MOM 0.87. The model reproduces the ordering and
        // approximate magnitudes: MDMX costs more than MMX despite fewer
        // physical media registers (because of the accumulator file), and MOM
        // costs *less* than MMX despite holding 5x the state.
        assert!(mdmx > 1.05 && mdmx < 1.35, "MDMX normalized area {mdmx}");
        assert!(mom < 1.0 && mom > 0.6, "MOM normalized area {mom}");
        // MOM register file stores about 5x the bytes of MMX.
        let ratio = rows[2].size_kb / rows[0].size_kb;
        assert!(ratio > 4.5 && ratio < 5.8, "size ratio {ratio}");
    }

    #[test]
    fn table2_register_counts_match_paper() {
        let rows = table2();
        assert_eq!(rows[0].media_regs, (32, 64));
        assert_eq!(rows[1].media_regs, (32, 52));
        assert_eq!(rows[1].acc_regs, (4, 16));
        assert_eq!(rows[2].media_regs, (16, 20));
        assert_eq!(rows[2].acc_regs, (2, 4));
        assert_eq!(rows[2].media_ports, (2, 1));
    }
}
