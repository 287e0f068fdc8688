//! Pixel-vector helpers.
//!
//! A "pixel" in hyperspectral processing is the full N-band spectral vector
//! at one spatial location. These free functions operate on plain `&[f32]`
//! slices so they work on borrowed BIP pixels and scratch buffers alike.

/// Sum of all band values (the denominator of eqs. 3–4 in the paper).
#[inline]
pub fn band_sum(pixel: &[f32]) -> f32 {
    pixel.iter().sum()
}

/// Normalize `pixel` into `out` so the result sums to 1 (eqs. 3–4).
///
/// The paper's SID needs probability-like vectors `p_l = f_l / Σ_k f_k`.
/// Non-positive sums (possible on synthetic or denoised data) fall back to a
/// uniform distribution so downstream `log` calls stay finite, mirroring the
/// epsilon-guarding every practical implementation applies.
pub fn normalize_into(pixel: &[f32], out: &mut [f32]) {
    debug_assert_eq!(pixel.len(), out.len());
    let sum = band_sum(pixel);
    if sum > f32::MIN_POSITIVE {
        let inv = 1.0 / sum;
        for (o, &v) in out.iter_mut().zip(pixel) {
            *o = v * inv;
        }
    } else {
        let uniform = 1.0 / pixel.len() as f32;
        out.fill(uniform);
    }
}

/// Allocate and return the normalized copy of `pixel`.
pub fn normalized(pixel: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0; pixel.len()];
    normalize_into(pixel, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn band_sum_basic() {
        assert_eq!(band_sum(&[1.0, 2.0, 3.0]), 6.0);
        assert_eq!(band_sum(&[]), 0.0);
    }

    #[test]
    fn normalize_produces_probability_vector() {
        let p = normalized(&[2.0, 6.0, 2.0]);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert_eq!(p, vec![0.2, 0.6, 0.2]);
    }

    #[test]
    fn normalize_zero_pixel_falls_back_to_uniform() {
        let p = normalized(&[0.0, 0.0, 0.0, 0.0]);
        assert_eq!(p, vec![0.25; 4]);
    }

    #[test]
    fn normalize_negative_sum_falls_back_to_uniform() {
        let p = normalized(&[-1.0, -1.0]);
        assert_eq!(p, vec![0.5, 0.5]);
    }
}
