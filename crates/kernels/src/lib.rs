//! # mom-kernels — hand-vectorized multimedia kernels
//!
//! The eight most time-consuming kernels of the paper's Mediabench workloads,
//! each implemented four times — scalar baseline ("Alpha"), MMX-like,
//! MDMX-like and MOM — plus a pure-Rust golden reference every version is
//! verified against bit-exactly, and deterministic synthetic workload
//! generators standing in for the original (non-redistributable) Mediabench
//! inputs.
//!
//! | Kernel | Application | Description |
//! |--------|-------------|-------------|
//! | [`KernelKind::Motion1`] | mpeg2 encode | 16×16 sum of absolute differences |
//! | [`KernelKind::Motion2`] | mpeg2 encode | 16×16 sum of squared differences |
//! | [`KernelKind::Idct`] | mpeg2/jpeg decode | 8×8 inverse discrete cosine transform |
//! | [`KernelKind::Rgb2Ycc`] | jpeg encode | RGB→YCbCr colour conversion |
//! | [`KernelKind::Compensation`] | mpeg2 decode | bidirectional prediction averaging |
//! | [`KernelKind::AddBlock`] | mpeg2 decode | saturating residual addition |
//! | [`KernelKind::LtpParameters`] | gsm encode | long-term predictor lag search |
//! | [`KernelKind::H2v2Upsample`] | jpeg decode | 2×2 chroma upsampling |
//!
//! Building a kernel produces a [`BuiltKernel`]: a ready-to-run machine state
//! (memory image laid out with the synthetic workload), the program for the
//! requested ISA, and the expected output bytes.
//! [`BuiltKernel::stream_verified`] executes the program, streams every
//! graduated instruction into a [`TraceSink`] — a collecting
//! [`Trace`](mom_isa::trace::Trace) or a timing simulator's stream
//! (`SimMachine::sim` in `mom-cpu`) — and checks the output region against
//! the reference.
//!
//! ```
//! use mom_kernels::{build_kernel, KernelKind, KernelParams};
//! use mom_isa::trace::{IsaKind, Trace};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let params = KernelParams { seed: 1, scale: 1 };
//! let mut mom = Trace::new(IsaKind::Mom);
//! build_kernel(KernelKind::Compensation, IsaKind::Mom, &params).stream_verified(&mut mom)?;
//! let mut alpha = Trace::new(IsaKind::Alpha);
//! build_kernel(KernelKind::Compensation, IsaKind::Alpha, &params).stream_verified(&mut alpha)?;
//! // The MOM version needs far fewer dynamic instructions for the same work.
//! assert!(mom.len() * 10 < alpha.len());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod addblock;
pub mod compensation;
pub mod idct;
pub mod ltp;
pub mod motion;
pub mod reference;
pub mod rgb2ycc;
pub mod upsample;
pub mod workload;

mod scaffold;

pub use scaffold::Scaffold;

use mom_core::program::{ExecError, Program};
use mom_core::state::Machine;
use mom_isa::trace::{IsaKind, TraceSink};

/// The eight evaluated kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum KernelKind {
    /// 8×8 inverse discrete cosine transform (mpeg2/jpeg decode).
    Idct,
    /// Sum of absolute differences over 16×16 blocks (MPEG-2 motion estimation).
    Motion1,
    /// Sum of squared differences over 16×16 blocks (MPEG-2 motion estimation).
    Motion2,
    /// RGB to YCbCr colour-space conversion (jpeg encode).
    Rgb2Ycc,
    /// GSM long-term-predictor parameter (lag) search (gsm encode).
    LtpParameters,
    /// Saturating addition of IDCT residuals to predictions (mpeg2 decode).
    AddBlock,
    /// Bidirectional motion-compensation averaging (mpeg2 decode).
    Compensation,
    /// 2×2 chroma upsampling (jpeg decode).
    H2v2Upsample,
}

impl KernelKind {
    /// All kernels in the order Figure 5 presents them.
    pub const ALL: [KernelKind; 8] = [
        KernelKind::Idct,
        KernelKind::Motion2,
        KernelKind::Rgb2Ycc,
        KernelKind::LtpParameters,
        KernelKind::AddBlock,
        KernelKind::Compensation,
        KernelKind::H2v2Upsample,
        KernelKind::Motion1,
    ];

    /// Kernel name as used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            KernelKind::Idct => "idct",
            KernelKind::Motion1 => "motion1",
            KernelKind::Motion2 => "motion2",
            KernelKind::Rgb2Ycc => "rgb2ycc",
            KernelKind::LtpParameters => "ltpparameters",
            KernelKind::AddBlock => "addblock",
            KernelKind::Compensation => "compensation",
            KernelKind::H2v2Upsample => "h2v2upsample",
        }
    }
}

impl std::fmt::Display for KernelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for KernelKind {
    type Err = String;

    /// Parse the [`KernelKind::label`] form. Matching is case-insensitive and
    /// ignores `-`/`_` separators (so `ltp-parameters` and `LtpParameters`
    /// both parse), guaranteeing `kind.label().parse() == Ok(kind)`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let normalize =
            |s: &str| s.chars().filter(|c| !matches!(c, '-' | '_' | ' ')).collect::<String>().to_ascii_lowercase();
        let needle = normalize(s.trim());
        KernelKind::ALL.iter().copied().find(|k| normalize(k.label()) == needle).ok_or_else(|| {
            let all: Vec<&str> = KernelKind::ALL.iter().map(|k| k.label()).collect();
            format!("unknown kernel {s:?} (expected one of: {})", all.join(", "))
        })
    }
}

/// Workload parameters shared by every kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelParams {
    /// Seed for the synthetic workload generators.
    pub seed: u64,
    /// Workload scale factor (1 = the default working set; larger values
    /// process proportionally more blocks/pixels/sub-windows).
    pub scale: usize,
}

impl Default for KernelParams {
    fn default() -> Self {
        Self { seed: 42, scale: 1 }
    }
}

/// A kernel that has been laid out in memory and compiled for one ISA.
#[derive(Debug)]
pub struct BuiltKernel {
    /// Which kernel this is.
    pub kind: KernelKind,
    /// Which ISA dialect the program uses.
    pub isa: IsaKind,
    /// Machine state with the workload already placed in memory.
    pub machine: Machine,
    /// The program to execute.
    pub program: Program,
    /// Expected contents of the output region after execution.
    pub expected: Vec<u8>,
    /// Base address of the output region.
    pub output_addr: u64,
}

/// Errors running a kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelError {
    /// The functional interpreter ran out of fuel.
    Exec(ExecError),
    /// The kernel executed but its output did not match the reference.
    OutputMismatch {
        /// Which kernel failed.
        kind: KernelKind,
        /// Which ISA dialect failed.
        isa: IsaKind,
        /// Byte offset of the first mismatching output byte.
        offset: usize,
    },
}

impl std::fmt::Display for KernelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KernelError::Exec(e) => write!(f, "kernel execution failed: {e}"),
            KernelError::OutputMismatch { kind, isa, offset } => {
                write!(f, "{kind} ({isa}) output mismatch at byte {offset}")
            }
        }
    }
}

impl std::error::Error for KernelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            KernelError::Exec(e) => Some(e),
            KernelError::OutputMismatch { .. } => None,
        }
    }
}

impl From<ExecError> for KernelError {
    fn from(e: ExecError) -> Self {
        KernelError::Exec(e)
    }
}

impl BuiltKernel {
    /// Compare the output region with the golden reference.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::OutputMismatch`] at the first differing byte.
    pub fn verify(&self) -> Result<(), KernelError> {
        let actual = self.machine.mem().read_bytes(self.output_addr, self.expected.len());
        match actual.iter().zip(&self.expected).position(|(a, e)| a != e) {
            Some(offset) => Err(KernelError::OutputMismatch { kind: self.kind, isa: self.isa, offset }),
            None => Ok(()),
        }
    }

    /// Execute the kernel, streaming every graduated instruction into `sink`,
    /// and [`verify`](Self::verify) the output against the golden reference.
    /// Returns the number of instructions streamed.
    ///
    /// Execution goes through [`Program::stream`] and therefore the
    /// pre-decoded µop engine (`Program::decode` in `mom-core`): the program
    /// is lowered once and the per-dynamic-instruction loop runs flat µops.
    /// With a timing simulator's stream as the sink this fuses
    /// interpretation and simulation into one pass with no intermediate
    /// trace; with a [`Trace`](mom_isa::trace::Trace) as the sink it collects
    /// the trace.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::Exec`] on fuel exhaustion or
    /// [`KernelError::OutputMismatch`] on the first differing output byte
    /// (the sink has received the instructions either way).
    pub fn stream_verified<S: TraceSink + ?Sized>(mut self, sink: &mut S) -> Result<usize, KernelError> {
        let executed = self.program.stream(&mut self.machine, sink)?;
        self.verify()?;
        Ok(executed)
    }
}

/// Build the requested kernel for the requested ISA.
pub fn build_kernel(kind: KernelKind, isa: IsaKind, params: &KernelParams) -> BuiltKernel {
    match kind {
        KernelKind::Idct => idct::build(isa, params),
        KernelKind::Motion1 => motion::build(motion::Metric::AbsoluteDifference, isa, params),
        KernelKind::Motion2 => motion::build(motion::Metric::SquaredDifference, isa, params),
        KernelKind::Rgb2Ycc => rgb2ycc::build(isa, params),
        KernelKind::LtpParameters => ltp::build(isa, params),
        KernelKind::AddBlock => addblock::build(isa, params),
        KernelKind::Compensation => compensation::build(isa, params),
        KernelKind::H2v2Upsample => upsample::build(isa, params),
    }
}

/// Run `kernel`, verify its output and collect its trace — the collected
/// form the unit tests read.
#[cfg(test)]
fn verified_trace(kernel: BuiltKernel) -> mom_isa::trace::Trace {
    let mut trace = mom_isa::trace::Trace::new(kernel.isa);
    kernel.stream_verified(&mut trace).unwrap_or_else(|e| panic!("{e}"));
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use mom_isa::trace::Trace;

    #[test]
    fn kernel_labels_match_the_paper() {
        assert_eq!(KernelKind::ALL.len(), 8);
        assert_eq!(KernelKind::Idct.to_string(), "idct");
        assert_eq!(KernelKind::LtpParameters.label(), "ltpparameters");
        assert_eq!(KernelKind::H2v2Upsample.label(), "h2v2upsample");
    }

    #[test]
    fn kernel_from_str_round_trips_every_variant() {
        for kind in KernelKind::ALL {
            assert_eq!(kind.label().parse::<KernelKind>(), Ok(kind));
            assert_eq!(kind.to_string().parse::<KernelKind>(), Ok(kind));
            assert_eq!(kind.label().to_uppercase().parse::<KernelKind>(), Ok(kind));
        }
        assert_eq!("ltp-parameters".parse::<KernelKind>(), Ok(KernelKind::LtpParameters));
        assert_eq!("LtpParameters".parse::<KernelKind>(), Ok(KernelKind::LtpParameters));
        assert_eq!(" idct ".parse::<KernelKind>(), Ok(KernelKind::Idct));
        assert!("dct".parse::<KernelKind>().is_err());
        assert!("".parse::<KernelKind>().is_err());
    }

    #[test]
    fn default_params() {
        let p = KernelParams::default();
        assert_eq!(p.seed, 42);
        assert_eq!(p.scale, 1);
    }

    #[test]
    fn kernel_error_display() {
        let e = KernelError::OutputMismatch { kind: KernelKind::Idct, isa: IsaKind::Mom, offset: 3 };
        assert!(e.to_string().contains("idct"));
        assert!(e.to_string().contains("mom"));
    }

    #[test]
    fn a_flipped_expected_byte_is_an_output_mismatch_at_its_offset() {
        let params = KernelParams { seed: 4, scale: 1 };
        for isa in [IsaKind::Alpha, IsaKind::Mom] {
            let mut kernel = build_kernel(KernelKind::AddBlock, isa, &params);
            let offset = kernel.expected.len() / 3;
            kernel.expected[offset] ^= 0x5a;
            let err = kernel.stream_verified(&mut Trace::new(isa)).unwrap_err();
            assert_eq!(err, KernelError::OutputMismatch { kind: KernelKind::AddBlock, isa, offset });
        }
    }

    #[test]
    fn fused_streamed_run_is_bit_identical_to_materialized_simulation() {
        use mom_cpu::MachineDescriptor;
        use mom_mem::MemModelKind;

        let params = KernelParams { seed: 9, scale: 1 };
        for kind in [KernelKind::Compensation, KernelKind::AddBlock] {
            for isa in [IsaKind::Alpha, IsaKind::Mom] {
                let desc = MachineDescriptor::for_cell(4, isa, MemModelKind::Perfect { latency: 1 });
                let trace = verified_trace(build_kernel(kind, isa, &params));
                let batch = desc.build().simulate_trace(&trace);

                let mut machine = desc.build();
                let mut sim = machine.sim();
                build_kernel(kind, isa, &params).stream_verified(&mut sim).expect("fused run verifies");
                let fused = sim.finish();

                assert_eq!(batch, fused, "{kind} ({isa}): streamed != materialized");
                assert_eq!(fused.committed as usize, trace.len());
            }
        }
    }
}
