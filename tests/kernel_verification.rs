//! Cross-crate integration tests: every kernel, in every ISA dialect, produces
//! output bit-identical to the golden reference in
//! `crates/kernels/src/reference.rs` on a seed different from the one the unit
//! tests use.
//!
//! Each kernel×ISA pair gets its own `#[test]` (via `verify_pair_tests!`) so a
//! regression in one implementation is reported by name instead of aborting a
//! shared loop; the full 8-kernel × 4-ISA matrix is 32 tests.

use momsim::isa::trace::{IsaKind, Trace};
use momsim::kernels::{build_kernel, KernelKind, KernelParams};

/// Seed distinct from the unit tests' (42) and the benches' workloads.
const FRESH_SEED: u64 = 20_260_614;

/// Build and run one kernel, collecting its trace; `stream_verified` turns
/// any mismatch with the golden reference into an error.
fn verified_trace(kernel: KernelKind, isa: IsaKind, params: &KernelParams) -> Trace {
    let mut trace = Trace::new(isa);
    build_kernel(kernel, isa, params)
        .stream_verified(&mut trace)
        .unwrap_or_else(|e| panic!("{kernel} ({isa}) at scale {} failed: {e}", params.scale));
    trace
}

/// Build and run one kernel×ISA pair, asserting bit-exact agreement with the
/// golden reference and a non-empty dynamic trace.
fn verify_pair(kernel: KernelKind, isa: IsaKind) {
    let params = KernelParams { seed: FRESH_SEED, scale: 1 };
    let trace = verified_trace(kernel, isa, &params);
    assert!(!trace.is_empty(), "{kernel} ({isa}) produced an empty trace");
}

macro_rules! verify_pair_tests {
    ($($name:ident => ($kernel:ident, $isa:ident);)*) => {
        $(
            #[test]
            fn $name() {
                verify_pair(KernelKind::$kernel, IsaKind::$isa);
            }
        )*

        /// One entry per generated pair test (duplicate pairs would collide
        /// as duplicate `fn` names and fail to compile).
        const PAIR_TESTS: &[(KernelKind, IsaKind)] =
            &[$((KernelKind::$kernel, IsaKind::$isa)),*];
    };
}

verify_pair_tests! {
    idct_alpha => (Idct, Alpha);
    idct_mmx => (Idct, Mmx);
    idct_mdmx => (Idct, Mdmx);
    idct_mom => (Idct, Mom);
    motion1_alpha => (Motion1, Alpha);
    motion1_mmx => (Motion1, Mmx);
    motion1_mdmx => (Motion1, Mdmx);
    motion1_mom => (Motion1, Mom);
    motion2_alpha => (Motion2, Alpha);
    motion2_mmx => (Motion2, Mmx);
    motion2_mdmx => (Motion2, Mdmx);
    motion2_mom => (Motion2, Mom);
    rgb2ycc_alpha => (Rgb2Ycc, Alpha);
    rgb2ycc_mmx => (Rgb2Ycc, Mmx);
    rgb2ycc_mdmx => (Rgb2Ycc, Mdmx);
    rgb2ycc_mom => (Rgb2Ycc, Mom);
    ltp_parameters_alpha => (LtpParameters, Alpha);
    ltp_parameters_mmx => (LtpParameters, Mmx);
    ltp_parameters_mdmx => (LtpParameters, Mdmx);
    ltp_parameters_mom => (LtpParameters, Mom);
    addblock_alpha => (AddBlock, Alpha);
    addblock_mmx => (AddBlock, Mmx);
    addblock_mdmx => (AddBlock, Mdmx);
    addblock_mom => (AddBlock, Mom);
    compensation_alpha => (Compensation, Alpha);
    compensation_mmx => (Compensation, Mmx);
    compensation_mdmx => (Compensation, Mdmx);
    compensation_mom => (Compensation, Mom);
    h2v2_upsample_alpha => (H2v2Upsample, Alpha);
    h2v2_upsample_mmx => (H2v2Upsample, Mmx);
    h2v2_upsample_mdmx => (H2v2Upsample, Mdmx);
    h2v2_upsample_mom => (H2v2Upsample, Mom);
}

#[test]
fn pair_tests_cover_the_whole_matrix() {
    // Every (kernel, isa) combination must appear in the macro invocation
    // above; if either enum grows (or a row is deleted), this fails until the
    // matrix is extended.
    for kernel in KernelKind::ALL {
        for isa in IsaKind::ALL {
            assert!(
                PAIR_TESTS.contains(&(kernel, isa)),
                "no pair test generated for {kernel} ({isa})"
            );
        }
    }
    assert_eq!(PAIR_TESTS.len(), KernelKind::ALL.len() * IsaKind::ALL.len());
}

#[test]
fn every_pair_also_verifies_at_scale_2() {
    // The per-pair tests above pin scale 1; larger workloads exercise the
    // loop bounds and address arithmetic the scale factor drives.
    let params = KernelParams { seed: FRESH_SEED + 1, scale: 2 };
    for kernel in KernelKind::ALL {
        for isa in IsaKind::ALL {
            verified_trace(kernel, isa, &params);
        }
    }
}

#[test]
fn media_isas_never_shrink_below_mom() {
    // For every kernel the dynamic instruction ordering must be
    // Alpha > MMX >= MDMX-ish > MOM (MDMX may tie MMX where accumulators
    // bring nothing).
    let params = KernelParams { seed: 99, scale: 1 };
    for kernel in KernelKind::ALL {
        let count = |isa: IsaKind| verified_trace(kernel, isa, &params).len();
        let alpha = count(IsaKind::Alpha);
        let mmx = count(IsaKind::Mmx);
        let mdmx = count(IsaKind::Mdmx);
        let mom = count(IsaKind::Mom);
        assert!(mmx < alpha, "{kernel}: MMX {mmx} vs Alpha {alpha}");
        assert!(mdmx <= mmx, "{kernel}: MDMX {mdmx} vs MMX {mmx}");
        assert!(mom < mdmx, "{kernel}: MOM {mom} vs MDMX {mdmx}");
    }
}

#[test]
fn workload_scale_is_monotonic() {
    for scale in [1usize, 2] {
        let params = KernelParams { seed: 3, scale };
        let trace = verified_trace(KernelKind::AddBlock, IsaKind::Mom, &params);
        assert!(trace.len() > 100 * scale);
    }
}
