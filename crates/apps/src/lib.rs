//! # mom-apps — whole applications for the program-level evaluation
//!
//! The paper's Figure 7 evaluates five Mediabench programs: `jpeg encode`,
//! `jpeg decode`, `gsm encode`, `mpeg2 decode` and `mpeg2 encode`. This crate
//! assembles the equivalent workloads from the verified kernels of
//! `mom-kernels` plus non-vectorizable scalar phases (entropy coding,
//! bit-stream handling), so that Amdahl's law shapes whole-program speedups
//! exactly as it does in the paper: kernels accelerate with the media ISA in
//! use, scalar phases do not.
//!
//! The mix of kernel invocations and scalar work per application follows the
//! published execution profiles of the Mediabench programs (motion estimation
//! dominating `mpeg2 encode`, IDCT and motion compensation dominating
//! `mpeg2 decode`, colour conversion plus DCT for `jpeg encode`, and so on);
//! the original inputs are replaced by the synthetic workloads of
//! `mom_kernels::workload`.
//!
//! ```
//! use mom_apps::{build_app, AppKind, AppParams};
//! use mom_isa::trace::IsaKind;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let params = AppParams { seed: 1, scale: 1 };
//! let alpha = build_app(AppKind::Mpeg2Decode, IsaKind::Alpha, &params)?;
//! let mom = build_app(AppKind::Mpeg2Decode, IsaKind::Mom, &params)?;
//! // The MOM binary is much smaller dynamically, but not by the kernel-only
//! // factor: the scalar phases are shared.
//! assert!(mom.trace.len() < alpha.trace.len());
//! assert!(mom.trace.len() * 20 > alpha.trace.len());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod scalar_phase;

use mom_core::program::Program;
use mom_core::state::Machine;
use mom_isa::trace::{Broadcast, IsaKind, Trace, TraceSink};
use mom_kernels::{build_kernel, BuiltKernel, KernelError, KernelKind, KernelParams};
use scalar_phase::build_scalar_phase;

/// The five evaluated applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AppKind {
    /// JPEG compression of an RGB image.
    JpegEncode,
    /// JPEG decompression.
    JpegDecode,
    /// GSM 06.10 speech encoding.
    GsmEncode,
    /// MPEG-2 video decoding.
    Mpeg2Decode,
    /// MPEG-2 video encoding.
    Mpeg2Encode,
}

impl AppKind {
    /// All applications in the order Figure 7 presents them.
    pub const ALL: [AppKind; 5] = [
        AppKind::JpegEncode,
        AppKind::JpegDecode,
        AppKind::GsmEncode,
        AppKind::Mpeg2Decode,
        AppKind::Mpeg2Encode,
    ];

    /// Label used in experiment output.
    pub fn label(self) -> &'static str {
        match self {
            AppKind::JpegEncode => "jpeg encode",
            AppKind::JpegDecode => "jpeg decode",
            AppKind::GsmEncode => "gsm encode",
            AppKind::Mpeg2Decode => "mpeg2 decode",
            AppKind::Mpeg2Encode => "mpeg2 encode",
        }
    }
}

impl std::fmt::Display for AppKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for AppKind {
    type Err = String;

    /// Parse the [`AppKind::label`] form. Matching is case-insensitive and
    /// ignores ` `/`-`/`_` separators (so `jpeg-encode`, `jpeg_encode` and
    /// `jpeg encode` all parse), guaranteeing `kind.label().parse() == Ok(kind)`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let normalize =
            |s: &str| s.chars().filter(|c| !matches!(c, '-' | '_' | ' ')).collect::<String>().to_ascii_lowercase();
        let needle = normalize(s.trim());
        AppKind::ALL.iter().copied().find(|k| normalize(k.label()) == needle).ok_or_else(|| {
            let all: Vec<&str> = AppKind::ALL.iter().map(|k| k.label()).collect();
            format!("unknown application {s:?} (expected one of: {})", all.join(", "))
        })
    }
}

/// Application workload parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppParams {
    /// Seed for the synthetic inputs.
    pub seed: u64,
    /// Workload scale (1 = default frame/image/speech sizes).
    pub scale: usize,
}

impl Default for AppParams {
    fn default() -> Self {
        Self { seed: 42, scale: 1 }
    }
}

/// One phase of an application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseReport {
    /// Human-readable phase name.
    pub name: String,
    /// Dynamic instructions contributed by the phase.
    pub instructions: usize,
    /// Whether the phase was vectorized (uses the media ISA under test).
    pub vectorized: bool,
}

/// A fully built application: its dynamic trace and a per-phase breakdown.
#[derive(Debug)]
pub struct BuiltApp {
    /// Which application this is.
    pub kind: AppKind,
    /// Which ISA the vectorized phases target.
    pub isa: IsaKind,
    /// The concatenated dynamic trace of all phases.
    pub trace: Trace,
    /// Per-phase breakdown.
    pub phases: Vec<PhaseReport>,
}

/// One row of an application's phase mix: a kernel invocation or scalar work.
#[derive(Debug, Clone, Copy)]
enum Phase {
    /// A kernel, run `repeat` times in a row.
    Kernel { kind: KernelKind, repeat: u64 },
    /// Scalar work of `units` loop iterations.
    Scalar { name: &'static str, units: usize },
}

/// One phase of an application run with its inputs fixed: a single kernel
/// invocation (a repeated kernel phase is one per repeat) or scalar work.
/// [`phases`] lists them and derives each seed; every driver —
/// [`stream_app`], [`stream_app_multi`] and the experiment runner's sampled
/// loop — builds them through [`AppPhase::build`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppPhase {
    /// A verified media kernel, built for the ISA under test.
    Kernel {
        /// Which kernel.
        kind: KernelKind,
        /// Its seed and scale.
        params: KernelParams,
    },
    /// Non-vectorizable scalar work, identical for every ISA (see
    /// [`scalar_phase`]).
    Scalar {
        /// Human-readable phase name.
        name: &'static str,
        /// Loop iterations.
        units: usize,
        /// Seed of the phase's input symbols.
        seed: u64,
    },
}

/// The phases of one application run, in program order.
///
/// The scalar unit counts are calibrated so the fraction of dynamic scalar
/// work (measured on the Alpha version) approximates the published Mediabench
/// profiles: motion estimation dominates `mpeg2 encode` (leaving only ~15-20%
/// scalar), while the JPEG codecs spend more than half their time in Huffman
/// coding and bit-stream handling.
pub fn phases(kind: AppKind, params: &AppParams) -> Vec<AppPhase> {
    let s = params.scale.max(1);
    let mix = match kind {
        AppKind::JpegEncode => vec![
            Phase::Kernel { kind: KernelKind::Rgb2Ycc, repeat: 1 },
            Phase::Kernel { kind: KernelKind::Idct, repeat: 1 }, // forward DCT stand-in
            Phase::Scalar { name: "huffman encode + bitstream", units: 28_000 * s },
        ],
        AppKind::JpegDecode => vec![
            Phase::Scalar { name: "huffman decode", units: 22_000 * s },
            Phase::Kernel { kind: KernelKind::Idct, repeat: 1 },
            Phase::Kernel { kind: KernelKind::H2v2Upsample, repeat: 1 },
            Phase::Kernel { kind: KernelKind::Rgb2Ycc, repeat: 1 }, // colour conversion back
            Phase::Scalar { name: "dithering + output", units: 8_000 * s },
        ],
        AppKind::GsmEncode => vec![
            Phase::Scalar { name: "lpc analysis + preprocessing", units: 6_000 * s },
            Phase::Kernel { kind: KernelKind::LtpParameters, repeat: 3 },
            Phase::Scalar { name: "rpe coding + bitstream", units: 3_000 * s },
        ],
        AppKind::Mpeg2Decode => vec![
            Phase::Scalar { name: "vld + header parsing", units: 3_500 * s },
            Phase::Kernel { kind: KernelKind::Idct, repeat: 2 },
            Phase::Kernel { kind: KernelKind::Compensation, repeat: 1 },
            Phase::Kernel { kind: KernelKind::AddBlock, repeat: 1 },
            Phase::Scalar { name: "store + display conversion", units: 1_500 * s },
        ],
        AppKind::Mpeg2Encode => vec![
            Phase::Kernel { kind: KernelKind::Motion1, repeat: 2 },
            Phase::Kernel { kind: KernelKind::Motion2, repeat: 1 },
            Phase::Kernel { kind: KernelKind::Idct, repeat: 1 }, // DCT + quantisation
            Phase::Kernel { kind: KernelKind::Compensation, repeat: 1 },
            Phase::Scalar { name: "rate control + vlc", units: 4_000 * s },
        ],
    };
    let mut steps = Vec::new();
    for (i, phase) in (0u64..).zip(mix) {
        match phase {
            Phase::Kernel { kind, repeat } => {
                steps.extend((0..repeat).map(|rep| AppPhase::Kernel {
                    kind,
                    params: KernelParams { seed: params.seed ^ (i << 8) ^ rep, scale: s },
                }));
            }
            Phase::Scalar { name, units } => {
                steps.push(AppPhase::Scalar { name, units, seed: params.seed ^ (i * 0x9e37) });
            }
        }
    }
    steps
}

impl AppPhase {
    /// Whether the phase uses the media ISA under test.
    pub fn vectorized(&self) -> bool {
        matches!(self, AppPhase::Kernel { .. })
    }

    /// Build the phase for `isa`: a kernel through [`build_kernel`], a
    /// scalar phase (the same for every ISA) through
    /// [`scalar_phase::build_scalar_phase`].
    pub fn build(&self, isa: IsaKind) -> BuiltPhase {
        match *self {
            AppPhase::Kernel { kind, params } => {
                BuiltPhase::Kernel(build_kernel(kind, isa, &params))
            }
            AppPhase::Scalar { units, seed, .. } => {
                let (machine, program) = build_scalar_phase(units, seed);
                BuiltPhase::Scalar(machine, program)
            }
        }
    }

    fn report(&self, instructions: usize) -> PhaseReport {
        let name = match self {
            AppPhase::Kernel { kind, .. } => kind.to_string(),
            AppPhase::Scalar { name, .. } => name.to_string(),
        };
        PhaseReport { name, instructions, vectorized: self.vectorized() }
    }
}

/// A phase ready to run.
#[derive(Debug)]
pub enum BuiltPhase {
    /// A kernel, with the golden output it must leave behind.
    Kernel(BuiltKernel),
    /// A scalar phase: the machine holding its input, and its program.
    Scalar(Machine, Program),
}

impl BuiltPhase {
    /// The machine the phase runs on, and its program.
    pub fn parts(&mut self) -> (&mut Machine, &Program) {
        match self {
            BuiltPhase::Kernel(kernel) => (&mut kernel.machine, &kernel.program),
            BuiltPhase::Scalar(machine, program) => (machine, program),
        }
    }

    /// Check a halted kernel phase's output region against its golden
    /// reference. Scalar phases have no reference and always pass.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::OutputMismatch`] at the first differing byte.
    pub fn verify(&self) -> Result<(), KernelError> {
        match self {
            BuiltPhase::Kernel(kernel) => kernel.verify(),
            BuiltPhase::Scalar(..) => Ok(()),
        }
    }

    /// Run the whole phase into `sink` within [`Program::stream`]'s fuel
    /// budget and verify it. Returns the number of instructions.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::Exec`] on fuel exhaustion or
    /// [`KernelError::OutputMismatch`] if a kernel's output is wrong (the
    /// sink has received the instructions either way).
    pub fn stream<S: TraceSink + ?Sized>(self, sink: &mut S) -> Result<usize, KernelError> {
        match self {
            BuiltPhase::Kernel(kernel) => kernel.stream_verified(sink),
            BuiltPhase::Scalar(mut machine, program) => Ok(program.stream(&mut machine, sink)?),
        }
    }
}

/// Run every phase of an application functionally (kernels are verified
/// against their references), streaming all graduated instructions into
/// `sink` in phase order. Returns the per-phase breakdown.
///
/// This is the streaming driver behind [`build_app`]: with a collecting
/// [`Trace`] sink it reproduces the concatenated application trace; with the
/// timing simulator's `SimStream` sink the whole application is interpreted
/// and simulated in one fused pass whose memory use is independent of the
/// dynamic instruction count. Every phase — kernel and scalar alike —
/// interprets through the pre-decoded µop engine (`Program::decode` in
/// `mom-core`): each phase program is lowered once and its dynamic
/// instructions execute as flat µops.
///
/// # Errors
///
/// Returns a [`KernelError`] if any phase runs out of fuel or a kernel phase
/// does not match its golden reference.
pub fn stream_app<S: TraceSink + ?Sized>(
    kind: AppKind,
    isa: IsaKind,
    params: &AppParams,
    sink: &mut S,
) -> Result<Vec<PhaseReport>, KernelError> {
    phases(kind, params)
        .iter()
        .map(|phase| Ok(phase.report(phase.build(isa).stream(sink)?)))
        .collect()
}

/// Stream one application into several per-ISA sinks at once, interpreting
/// every **scalar phase exactly once**.
///
/// The phase sequence of an application is ISA-independent and its scalar
/// phases produce identical instruction streams for every ISA (only the
/// kernel phases differ), so when the same application must be evaluated for
/// several ISAs — every column of Figure 7 — the scalar work can be fanned
/// out through a [`Broadcast`] instead of being re-interpreted per ISA.
/// Each lane receives **exactly** the stream [`stream_app`] would have
/// produced for its ISA, in program order; with `SimStream`-backed sinks the
/// results are bit-identical to independent per-ISA passes.
///
/// Returns the per-lane phase breakdowns (scalar rows identical across
/// lanes) and the number of instructions the interpreter actually executed —
/// each shared scalar phase counted once, which is what the experiment
/// runner's `meta.shared_passes` accounting reports.
///
/// # Errors
///
/// Returns a [`KernelError`] if any phase of any lane runs out of fuel or a
/// kernel phase does not match its golden reference.
pub fn stream_app_multi<S: TraceSink>(
    kind: AppKind,
    params: &AppParams,
    lanes: &mut [(IsaKind, S)],
) -> Result<(Vec<Vec<PhaseReport>>, u64), KernelError> {
    let mut reports: Vec<Vec<PhaseReport>> = lanes.iter().map(|_| Vec::new()).collect();
    let mut interpreted = 0u64;
    for phase in phases(kind, params) {
        if phase.vectorized() {
            for (lane, (isa, sink)) in lanes.iter_mut().enumerate() {
                let executed = phase.build(*isa).stream(sink)?;
                interpreted += executed as u64;
                reports[lane].push(phase.report(executed));
            }
        } else {
            // One interpretation, fanned out to every lane.
            let mut fan = Broadcast::new(lanes.iter_mut().map(|(_, sink)| sink).collect());
            let executed = phase.build(IsaKind::Alpha).stream(&mut fan)?;
            interpreted += executed as u64;
            for lane in &mut reports {
                lane.push(phase.report(executed));
            }
        }
    }
    Ok((reports, interpreted))
}

/// Build an application for the given ISA: run every phase functionally
/// (kernels are verified against their references) and collect the
/// concatenated trace — the collecting wrapper over [`stream_app`].
///
/// # Errors
///
/// Returns a [`KernelError`] if any kernel phase fails to execute or does not
/// match its golden reference.
pub fn build_app(kind: AppKind, isa: IsaKind, params: &AppParams) -> Result<BuiltApp, KernelError> {
    let mut trace = Trace::new(isa);
    let reports = stream_app(kind, isa, params, &mut trace)?;
    Ok(BuiltApp { kind, isa, trace, phases: reports })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mom_cpu::{MachineDescriptor, SimResult};

    #[test]
    fn labels_and_ordering() {
        assert_eq!(AppKind::ALL.len(), 5);
        assert_eq!(AppKind::Mpeg2Encode.to_string(), "mpeg2 encode");
        assert_eq!(AppParams::default().scale, 1);
    }

    #[test]
    fn app_from_str_round_trips_every_variant() {
        for kind in AppKind::ALL {
            assert_eq!(kind.label().parse::<AppKind>(), Ok(kind));
            assert_eq!(kind.to_string().parse::<AppKind>(), Ok(kind));
            assert_eq!(kind.label().to_uppercase().parse::<AppKind>(), Ok(kind));
        }
        assert_eq!("jpeg-encode".parse::<AppKind>(), Ok(AppKind::JpegEncode));
        assert_eq!("mpeg2_decode".parse::<AppKind>(), Ok(AppKind::Mpeg2Decode));
        assert_eq!("GsmEncode".parse::<AppKind>(), Ok(AppKind::GsmEncode));
        assert!("h264 encode".parse::<AppKind>().is_err());
        assert!("".parse::<AppKind>().is_err());
    }

    #[test]
    fn every_app_builds_for_alpha_and_mom() {
        let params = AppParams { seed: 3, scale: 1 };
        for kind in AppKind::ALL {
            let alpha = build_app(kind, IsaKind::Alpha, &params).expect("alpha app builds");
            let mom = build_app(kind, IsaKind::Mom, &params).expect("mom app builds");
            assert!(!alpha.trace.is_empty());
            assert!(mom.trace.len() < alpha.trace.len(), "{kind}: MOM should shrink the trace");
            assert!(!alpha.phases.is_empty());
        }
    }

    /// Fraction of dynamic instructions spent in vectorized phases.
    fn vectorized_fraction(app: &BuiltApp) -> f64 {
        let total: usize = app.phases.iter().map(|p| p.instructions).sum();
        let vec: usize = app.phases.iter().filter(|p| p.vectorized).map(|p| p.instructions).sum();
        vec as f64 / total as f64
    }

    #[test]
    fn amdahl_fractions_follow_the_mediabench_profiles() {
        let params = AppParams::default();
        let encode = build_app(AppKind::Mpeg2Encode, IsaKind::Alpha, &params).unwrap();
        let jpeg = build_app(AppKind::JpegEncode, IsaKind::Alpha, &params).unwrap();
        // Motion estimation dominates mpeg2 encode; Huffman coding keeps the
        // JPEG codecs much less vectorizable.
        let (encode, jpeg) = (vectorized_fraction(&encode), vectorized_fraction(&jpeg));
        assert!(encode > 0.75, "mpeg2 encode {encode}");
        assert!(jpeg < 0.75, "jpeg encode {jpeg}");
        assert!(jpeg > 0.2);
    }

    #[test]
    fn a_flipped_expected_byte_fails_the_phase_check_at_its_offset() {
        let kind = KernelKind::Idct;
        let phase = AppPhase::Kernel { kind, params: KernelParams { seed: 5, scale: 1 } };
        let mut built = phase.build(IsaKind::Mom);
        let (machine, program) = built.parts();
        program.stream(machine, &mut Trace::new(IsaKind::Mom)).expect("idct halts");
        assert_eq!(built.verify(), Ok(()));

        let BuiltPhase::Kernel(kernel) = &mut built else { unreachable!("a kernel phase") };
        let offset = kernel.expected.len() - 1;
        kernel.expected[offset] ^= 1;
        let mismatch = KernelError::OutputMismatch { kind, isa: IsaKind::Mom, offset };
        assert_eq!(built.verify(), Err(mismatch));
    }

    #[test]
    fn fused_streamed_app_is_bit_identical_to_materialized_simulation() {
        use mom_mem::MemModelKind;

        let params = AppParams { seed: 3, scale: 1 };
        for isa in [IsaKind::Alpha, IsaKind::Mom] {
            let desc = MachineDescriptor::for_cell(4, isa, MemModelKind::Conventional);
            let app = build_app(AppKind::GsmEncode, isa, &params).expect("app builds");
            let batch = desc.build().simulate_trace(&app.trace);

            let mut machine = desc.build();
            let mut sim = machine.sim();
            let reports =
                stream_app(AppKind::GsmEncode, isa, &params, &mut sim).expect("fused app runs");
            let fused = sim.finish();

            assert_eq!(batch, fused, "gsm encode ({isa}): streamed != materialized");
            assert_eq!(reports, app.phases, "phase breakdowns agree");
            assert_eq!(fused.committed as usize, app.trace.len());
        }
    }

    #[test]
    fn multi_isa_stream_is_bit_identical_to_per_isa_streams() {
        use mom_cpu::SimStream;
        use mom_mem::MemModelKind;

        // One shared pass fanned out to three ISA lanes (two simulators per
        // lane, different widths) must equal six independent per-ISA runs.
        let params = AppParams { seed: 42, scale: 1 };
        let isas = [IsaKind::Alpha, IsaKind::Mmx, IsaKind::Mom];
        for app in [AppKind::GsmEncode, AppKind::Mpeg2Decode] {
            let mut machines: Vec<Vec<_>> = isas
                .iter()
                .map(|&isa| {
                    [4usize, 8].iter()
                        .map(|&way| {
                            MachineDescriptor::for_cell(way, isa, MemModelKind::Conventional).build()
                        })
                        .collect()
                })
                .collect();
            let mut lanes: Vec<(IsaKind, Broadcast<SimStream>)> = isas
                .iter()
                .zip(machines.iter_mut())
                .map(|(&isa, ms)| (isa, Broadcast::new(ms.iter_mut().map(|m| m.sim()).collect())))
                .collect();
            let (reports, interpreted) =
                stream_app_multi(app, &params, &mut lanes).expect("multi-lane app runs");
            let fanned: Vec<Vec<SimResult>> = lanes
                .into_iter()
                .map(|(_, fan)| fan.into_inner().into_iter().map(SimStream::finish).collect())
                .collect();

            let mut expected_interpreted = 0u64;
            let mut scalar_once = 0u64;
            for (lane, &isa) in isas.iter().enumerate() {
                let built = build_app(app, isa, &params).expect("app builds");
                assert_eq!(reports[lane], built.phases, "{app} ({isa}): phase reports differ");
                expected_interpreted += built.trace.len() as u64;
                scalar_once = built
                    .phases
                    .iter()
                    .filter(|p| !p.vectorized)
                    .map(|p| p.instructions as u64)
                    .sum();
                for (sim, &way) in fanned[lane].iter().zip(&[4usize, 8]) {
                    let reference = MachineDescriptor::for_cell(way, isa, MemModelKind::Conventional)
                        .build()
                        .simulate_trace(&built.trace);
                    assert_eq!(*sim, reference, "{app} ({isa}, {way}-way): fan-out diverged");
                }
            }
            // The interpreter executed each scalar phase once, not once per
            // lane: exactly 2 lanes' worth of scalar work was saved.
            assert_eq!(interpreted, expected_interpreted - 2 * scalar_once, "{app}");
        }
    }

    #[test]
    fn pipelined_app_stream_is_bit_identical_to_independent_runs() {
        use mom_isa::pipe::{batch_channel, BatchSink};
        use mom_mem::MemModelKind;

        // One interpreter thread publishing into per-member channels, each
        // member draining on its own thread, must reproduce the independent
        // per-ISA materialized runs bit for bit. Tiny batch/capacity keeps the
        // backpressure path hot.
        let params = AppParams { seed: 9, scale: 1 };
        let isas = [IsaKind::Alpha, IsaKind::Mom];
        let ways = [2usize, 4];
        let mut lanes = Vec::new();
        let mut members = Vec::new(); // (isa, way, machine, receiver)
        for &isa in &isas {
            let mut senders = Vec::new();
            for &way in &ways {
                let (tx, rx) = batch_channel(1);
                senders.push(tx);
                let desc = MachineDescriptor::for_cell(way, isa, MemModelKind::Conventional);
                members.push((isa, way, desc.build(), rx));
            }
            lanes.push((isa, BatchSink::new(senders, 3)));
        }

        let results: Vec<(IsaKind, usize, SimResult)> = std::thread::scope(|scope| {
            let handles: Vec<_> = members
                .iter_mut()
                .map(|(isa, way, machine, rx)| {
                    let (isa, way) = (*isa, *way);
                    scope.spawn(move || (isa, way, machine.consume_batches(rx)))
                })
                .collect();
            stream_app_multi(AppKind::GsmEncode, &params, &mut lanes).expect("pipelined app runs");
            for (_, sink) in lanes {
                sink.finish();
            }
            handles.into_iter().map(|h| h.join().expect("consumer thread")).collect()
        });

        for (isa, way, got) in results {
            let built = build_app(AppKind::GsmEncode, isa, &params).expect("app builds");
            let mut machine = MachineDescriptor::for_cell(way, isa, MemModelKind::Conventional).build();
            let reference = machine.simulate_trace(&built.trace);
            assert_eq!(got, reference, "gsm encode ({isa}, {way}-way): pipelined diverged");
        }
    }

    #[test]
    fn scalar_phases_are_identical_across_isas() {
        let params = AppParams::default();
        let mmx = build_app(AppKind::GsmEncode, IsaKind::Mmx, &params).unwrap();
        let mom = build_app(AppKind::GsmEncode, IsaKind::Mom, &params).unwrap();
        let scalar_insts = |app: &BuiltApp| -> usize {
            app.phases.iter().filter(|p| !p.vectorized).map(|p| p.instructions).sum()
        };
        assert_eq!(scalar_insts(&mmx), scalar_insts(&mom));
    }
}
