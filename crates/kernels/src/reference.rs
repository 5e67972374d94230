//! Golden reference implementations of the eight kernels.
//!
//! Every ISA version of a kernel (scalar "Alpha", MMX, MDMX, MOM) must produce
//! output that is **bit-exact** with these functions. The references therefore
//! pin down the fixed-point algorithm (coefficient scaling, rounding, order of
//! saturation) rather than an idealised floating-point definition — exactly as
//! the paper's emulation libraries fixed one arithmetic and verified "no
//! visually perceptible losses in accuracy".

/// Clamp to the unsigned 8-bit range.
pub fn clamp_u8(v: i32) -> u8 {
    v.clamp(0, 255) as u8
}

/// Clamp to the signed 16-bit range.
pub fn clamp_i16(v: i32) -> i16 {
    v.clamp(i16::MIN as i32, i16::MAX as i32) as i16
}

// ---------------------------------------------------------------------------
// Motion estimation
// ---------------------------------------------------------------------------

/// Sum of absolute differences between two 16×16 pixel blocks (`motion1`,
/// the `dist1` function of the MPEG-2 encoder).
pub fn sad_16x16(a: &[u8], a_stride: usize, b: &[u8], b_stride: usize) -> i64 {
    let mut s = 0i64;
    for row in 0..16 {
        for col in 0..16 {
            let x = a[row * a_stride + col] as i64;
            let y = b[row * b_stride + col] as i64;
            s += (x - y).abs();
        }
    }
    s
}

/// Sum of squared differences between two 16×16 pixel blocks (`motion2`).
pub fn sqd_16x16(a: &[u8], a_stride: usize, b: &[u8], b_stride: usize) -> i64 {
    let mut s = 0i64;
    for row in 0..16 {
        for col in 0..16 {
            let x = a[row * a_stride + col] as i64;
            let y = b[row * b_stride + col] as i64;
            s += (x - y) * (x - y);
        }
    }
    s
}

// ---------------------------------------------------------------------------
// Inverse DCT
// ---------------------------------------------------------------------------

/// The 8×8 inverse-DCT basis matrix scaled by 128 and rounded to integers.
///
/// `IDCT_W[x][u] = round(128 · c(u)/2 · cos((2x+1)uπ/16))`, `c(0)=1/√2`,
/// `c(u)=1` otherwise. Every kernel implementation multiplies by these
/// integers and divides by 128 with round-to-nearest, so all of them agree
/// bit-exactly.
pub fn idct_weights() -> [[i32; 8]; 8] {
    let mut w = [[0i32; 8]; 8];
    for (x, row) in w.iter_mut().enumerate() {
        for (u, cell) in row.iter_mut().enumerate() {
            let cu = if u == 0 { 1.0 / std::f64::consts::SQRT_2 } else { 1.0 };
            let angle = (2.0 * x as f64 + 1.0) * u as f64 * std::f64::consts::PI / 16.0;
            *cell = (128.0 * 0.5 * cu * angle.cos()).round() as i32;
        }
    }
    w
}

/// One 8-point transform pass applied to the columns of an 8×8 block:
/// `out[r][c] = clamp_i16((Σ_k W[r][k]·in[k][c] + 64) >> 7)`.
pub fn idct_pass(input: &[i16; 64], w: &[[i32; 8]; 8]) -> [i16; 64] {
    let mut out = [0i16; 64];
    for r in 0..8 {
        for c in 0..8 {
            let mut acc = 0i64;
            for k in 0..8 {
                acc += w[r][k] as i64 * input[k * 8 + c] as i64;
            }
            out[r * 8 + c] = clamp_i16(((acc + 64) >> 7) as i32);
        }
    }
    out
}

/// Transpose an 8×8 block.
pub fn transpose8(input: &[i16; 64]) -> [i16; 64] {
    let mut out = [0i16; 64];
    for r in 0..8 {
        for c in 0..8 {
            out[r * 8 + c] = input[c * 8 + r];
        }
    }
    out
}

/// Two-dimensional 8×8 inverse DCT: a column pass, a transpose, a second
/// column pass and a final transpose (the separable row–column algorithm all
/// kernel versions implement).
pub fn idct_8x8(input: &[i16; 64]) -> [i16; 64] {
    let w = idct_weights();
    let pass1 = idct_pass(input, &w);
    let t = transpose8(&pass1);
    let pass2 = idct_pass(&t, &w);
    transpose8(&pass2)
}

// ---------------------------------------------------------------------------
// Colour conversion
// ---------------------------------------------------------------------------

/// Fixed-point RGB→YCbCr coefficients scaled by 64.
///
/// Rows are (Y, Cb, Cr); columns are the (R, G, B) weights.
pub const RGB2YCC_COEFFS: [[i32; 3]; 3] = [
    [19, 38, 7],    // Y  ≈ 0.299 R + 0.587 G + 0.114 B
    [-11, -21, 32], // Cb ≈ -0.169 R - 0.331 G + 0.500 B (+128)
    [32, -27, -5],  // Cr ≈  0.500 R - 0.419 G - 0.081 B (+128)
];

/// Offsets added to each component after the scaled dot product.
pub const RGB2YCC_OFFSET: [i32; 3] = [0, 128, 128];

/// Convert one pixel to (Y, Cb, Cr) with the exact fixed-point arithmetic the
/// kernel versions use: dot product with the scaled coefficients, +32
/// rounding, arithmetic shift by 6, 16-bit clamp, offset, 8-bit clamp.
pub fn rgb2ycc_pixel(r: u8, g: u8, b: u8) -> (u8, u8, u8) {
    let mut out = [0u8; 3];
    for comp in 0..3 {
        let c = RGB2YCC_COEFFS[comp];
        let acc = c[0] * r as i32 + c[1] * g as i32 + c[2] * b as i32;
        let shifted = clamp_i16((acc + 32) >> 6) as i32;
        out[comp] = clamp_u8(shifted + RGB2YCC_OFFSET[comp]);
    }
    (out[0], out[1], out[2])
}

/// Convert planar RGB buffers of `n` pixels to planar YCbCr in one buffer:
/// the Y plane, then Cb, then Cr, `n` bytes each.
pub fn rgb2ycc(r: &[u8], g: &[u8], b: &[u8]) -> Vec<u8> {
    let n = r.len().min(g.len()).min(b.len());
    let mut out = vec![0u8; 3 * n];
    for i in 0..n {
        let (y, cb, cr) = rgb2ycc_pixel(r[i], g[i], b[i]);
        out[i] = y;
        out[n + i] = cb;
        out[2 * n + i] = cr;
    }
    out
}

// ---------------------------------------------------------------------------
// MPEG-2 motion compensation helpers
// ---------------------------------------------------------------------------

/// `addblock`: add an 8×8 IDCT residual block to an 8×8 prediction block with
/// saturation to 8 bits.
pub fn addblock(pred: &[u8], pred_stride: usize, resid: &[i16; 64]) -> [u8; 64] {
    let mut out = [0u8; 64];
    for row in 0..8 {
        for col in 0..8 {
            let p = pred[row * pred_stride + col] as i32;
            let d = resid[row * 8 + col] as i32;
            out[row * 8 + col] = clamp_u8(p + d);
        }
    }
    out
}

/// `compensation`: bidirectional prediction averaging of two 16×16 blocks
/// with upward rounding, `(a + b + 1) >> 1`.
pub fn compensation_16x16(a: &[u8], a_stride: usize, b: &[u8], b_stride: usize) -> [u8; 256] {
    let mut out = [0u8; 256];
    for row in 0..16 {
        for col in 0..16 {
            let x = a[row * a_stride + col] as u16;
            let y = b[row * b_stride + col] as u16;
            out[row * 16 + col] = ((x + y + 1) >> 1) as u8;
        }
    }
    out
}

// ---------------------------------------------------------------------------
// JPEG chroma upsampling
// ---------------------------------------------------------------------------

/// `h2v2upsample`: replicate every input pixel into a 2×2 block of the output
/// (the jpeglib `h2v2_upsample` routine used when fancy upsampling is off).
pub fn h2v2_upsample(input: &[u8], width: usize, height: usize) -> Vec<u8> {
    let ow = width * 2;
    let mut out = vec![0u8; ow * height * 2];
    for y in 0..height {
        for x in 0..width {
            let v = input[y * width + x];
            out[(2 * y) * ow + 2 * x] = v;
            out[(2 * y) * ow + 2 * x + 1] = v;
            out[(2 * y + 1) * ow + 2 * x] = v;
            out[(2 * y + 1) * ow + 2 * x + 1] = v;
        }
    }
    out
}

// ---------------------------------------------------------------------------
// GSM long-term predictor
// ---------------------------------------------------------------------------

/// Smallest lag searched by the GSM long-term predictor.
pub const LTP_MIN_LAG: usize = 40;
/// Largest lag searched by the GSM long-term predictor.
pub const LTP_MAX_LAG: usize = 120;

/// `ltpparameters`: cross-correlate the 40-sample current sub-window `d`
/// against the reconstructed short-term residual history `dp` for every lag in
/// `[LTP_MIN_LAG, LTP_MAX_LAG]`.
///
/// `dp` must hold at least `LTP_MAX_LAG + d.len()` samples; lag `λ` correlates
/// `d[k]` with `dp[dp.len() - λ + k]`... more precisely with the sample `λ`
/// positions before the start of the current window, matching the GSM 06.10
/// `Calculation_of_the_LTP_parameters` loop.
///
/// Returns the correlation for every lag (index 0 = lag 40) and the lag with
/// the maximum correlation.
pub fn ltp_correlations(d: &[i16; 40], dp: &[i16]) -> (Vec<i64>, usize) {
    assert!(dp.len() >= LTP_MAX_LAG, "history must cover the largest lag");
    let base = dp.len();
    let mut best_lag = LTP_MIN_LAG;
    let mut best = i64::MIN;
    let mut all = Vec::with_capacity(LTP_MAX_LAG - LTP_MIN_LAG + 1);
    for lag in LTP_MIN_LAG..=LTP_MAX_LAG {
        let mut acc = 0i64;
        for (k, &dk) in d.iter().enumerate() {
            let idx = base - lag + k;
            let h = if idx < dp.len() { dp[idx] as i64 } else { 0 };
            acc += dk as i64 * h;
        }
        if acc > best {
            best = acc;
            best_lag = lag;
        }
        all.push(acc);
    }
    (all, best_lag)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{PcmAudio, VideoFrame};

    #[test]
    fn clamps() {
        assert_eq!(clamp_u8(-5), 0);
        assert_eq!(clamp_u8(300), 255);
        assert_eq!(clamp_u8(77), 77);
        assert_eq!(clamp_i16(40000), 32767);
        assert_eq!(clamp_i16(-40000), -32768);
    }

    #[test]
    fn sad_and_sqd_identical_blocks_are_zero() {
        let a = vec![7u8; 16 * 20];
        assert_eq!(sad_16x16(&a, 20, &a, 20), 0);
        assert_eq!(sqd_16x16(&a, 20, &a, 20), 0);
        let b = vec![9u8; 16 * 20];
        assert_eq!(sad_16x16(&a, 20, &b, 20), 2 * 256);
        assert_eq!(sqd_16x16(&a, 20, &b, 20), 4 * 256);
    }

    #[test]
    fn motion_search_finds_planted_shift() {
        let f = VideoFrame::synthetic(96, 96, 5);
        let g = f.shifted(3, 2, 6);
        // Block at (40, 40) in g should best match (37, 38) in f.
        let blk = |img: &VideoFrame, x: usize, y: usize| {
            (0..16).flat_map(|r| (0..16).map(move |c| img.pixel(x + c, y + r))).collect::<Vec<u8>>()
        };
        let target = blk(&g, 40, 40);
        let mut best = (i64::MAX, 0usize, 0usize);
        for dy in 0..8 {
            for dx in 0..8 {
                let cand = blk(&f, 34 + dx, 34 + dy);
                let s = sad_16x16(&target, 16, &cand, 16);
                if s < best.0 {
                    best = (s, 34 + dx, 34 + dy);
                }
            }
        }
        assert_eq!((best.1, best.2), (37, 38));
    }

    #[test]
    fn idct_weights_have_expected_structure() {
        let w = idct_weights();
        // DC basis: constant 128·0.5/√2 ≈ 45 for every x.
        for row in &w {
            assert_eq!(row[0], 45);
        }
        // Odd symmetry of the u=4 basis.
        assert_eq!(w[0][4], -w[1][4]);
    }

    #[test]
    fn idct_of_zero_block_is_zero_and_dc_is_flat() {
        let zero = [0i16; 64];
        assert_eq!(idct_8x8(&zero), [0i16; 64]);
        let mut dc = [0i16; 64];
        dc[0] = 256;
        let out = idct_8x8(&dc);
        // A pure DC input produces a flat block.
        assert!(out.iter().all(|&v| v == out[0]), "{out:?}");
        assert!(out[0] > 20 && out[0] < 200, "DC level {}", out[0]);
    }

    #[test]
    fn transpose_is_involutive() {
        let mut b = [0i16; 64];
        for (i, v) in b.iter_mut().enumerate() {
            *v = i as i16;
        }
        assert_eq!(transpose8(&transpose8(&b)), b);
        assert_eq!(transpose8(&b)[8 + 7], b[7 * 8 + 1]);
    }

    #[test]
    fn rgb2ycc_known_colours() {
        // Pure white: Y≈255, Cb≈Cr≈128.
        let (y, cb, cr) = rgb2ycc_pixel(255, 255, 255);
        assert!(y >= 250);
        assert!((cb as i32 - 128).abs() <= 2);
        assert!((cr as i32 - 128).abs() <= 2);
        // Pure black.
        let (y, cb, cr) = rgb2ycc_pixel(0, 0, 0);
        assert_eq!(y, 0);
        assert_eq!(cb, 128);
        assert_eq!(cr, 128);
        // Pure red has high Cr.
        let (_, _, cr) = rgb2ycc_pixel(255, 0, 0);
        assert!(cr > 200);
    }

    #[test]
    fn rgb2ycc_planar_matches_per_pixel() {
        let r = vec![10, 200, 30];
        let g = vec![20, 100, 40];
        let b = vec![30, 50, 250];
        let ycc = rgb2ycc(&r, &g, &b);
        assert_eq!(ycc.len(), 9);
        for i in 0..3 {
            let (py, pcb, pcr) = rgb2ycc_pixel(r[i], g[i], b[i]);
            assert_eq!((ycc[i], ycc[3 + i], ycc[6 + i]), (py, pcb, pcr));
        }
    }

    #[test]
    fn addblock_saturates() {
        let pred = vec![250u8; 64];
        let mut resid = [0i16; 64];
        resid[0] = 100; // saturates high
        resid[1] = -300; // saturates low
        resid[2] = 3;
        let out = addblock(&pred, 8, &resid);
        assert_eq!(out[0], 255);
        assert_eq!(out[1], 0);
        assert_eq!(out[2], 253);
    }

    #[test]
    fn compensation_rounds_up() {
        let a = vec![10u8; 16 * 16];
        let b = vec![11u8; 16 * 16];
        let out = compensation_16x16(&a, 16, &b, 16);
        assert!(out.iter().all(|&v| v == 11));
    }

    #[test]
    fn h2v2_upsample_replicates() {
        let input = vec![1, 2, 3, 4]; // 2x2
        let out = h2v2_upsample(&input, 2, 2);
        assert_eq!(out.len(), 16);
        assert_eq!(out[0..4], [1, 1, 2, 2]);
        assert_eq!(out[4..8], [1, 1, 2, 2]);
        assert_eq!(out[8..12], [3, 3, 4, 4]);
    }

    #[test]
    fn ltp_finds_planted_pitch() {
        let audio = PcmAudio::synthetic(500, 71, 3);
        let n = audio.samples.len();
        let mut d = [0i16; 40];
        d.copy_from_slice(&audio.samples[n - 40..]);
        let history = &audio.samples[..n - 40];
        let (corrs, best) = ltp_correlations(&d, history);
        assert_eq!(corrs.len(), 81);
        assert!(
            (best as i64 - 71).abs() <= 2,
            "best lag {best} should be near the planted pitch period 71"
        );
    }
}
