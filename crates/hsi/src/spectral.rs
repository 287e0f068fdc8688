//! The spectral distance that orders pixels.
//!
//! The paper's morphological ordering is driven by the **Spectral Information
//! Divergence** (SID, eq. 2): the symmetrised Kullback–Leibler divergence
//! between the band-normalized "probability" spectra of two pixels
//! (eqs. 3–4). SID is the only distance the reproduction evaluates, so it is
//! the only one provided.

use crate::pixel;

/// Epsilon used to keep `log(p/q)` finite when a normalized band is zero.
///
/// Matches the guard every practical SID implementation applies; at `1e-12`
/// relative to probabilities that sum to one it perturbs distances far below
/// the sensor noise floor.
pub const SID_EPSILON: f32 = 1e-12;

/// SID between two **already normalized** probability spectra (eq. 2).
///
/// `p` and `q` must be non-negative and each sum to ~1 (see
/// [`pixel::normalize_into`]). The result is symmetric, non-negative and zero
/// iff `p == q`.
pub fn sid_normalized(p: &[f32], q: &[f32]) -> f32 {
    debug_assert_eq!(p.len(), q.len());
    let mut acc = 0.0f32;
    for (&pl, &ql) in p.iter().zip(q) {
        let pl = pl.max(SID_EPSILON);
        let ql = ql.max(SID_EPSILON);
        let log_ratio = (pl / ql).ln();
        // p·log(p/q) + q·log(q/p) = (p − q)·log(p/q)
        acc += (pl - ql) * log_ratio;
    }
    // Rounding can leave a tiny negative residue when p ≈ q.
    acc.max(0.0)
}

/// SID between two raw radiance pixels: normalizes (eqs. 3–4) then applies
/// eq. 2.
pub fn sid(a: &[f32], b: &[f32]) -> f32 {
    let p = pixel::normalized(a);
    let q = pixel::normalized(b);
    sid_normalized(&p, &q)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOL: f32 = 1e-6;

    #[test]
    fn sid_of_identical_pixels_is_zero() {
        let a = [0.3f32, 0.5, 0.2];
        assert_eq!(sid_normalized(&a, &a), 0.0);
        let raw = [10.0f32, 90.0, 45.0];
        assert!(sid(&raw, &raw).abs() < TOL);
    }

    #[test]
    fn sid_is_scale_invariant() {
        // Normalization makes SID invariant to per-pixel gain.
        let a = [1.0f32, 2.0, 3.0];
        let b = [3.0f32, 1.0, 2.0];
        let a2: Vec<f32> = a.iter().map(|v| v * 7.5).collect();
        assert!((sid(&a, &b) - sid(&a2, &b)).abs() < TOL);
    }

    #[test]
    fn sid_is_symmetric() {
        let a = [0.1f32, 0.4, 0.5];
        let b = [0.6f32, 0.3, 0.1];
        assert!((sid_normalized(&a, &b) - sid_normalized(&b, &a)).abs() < TOL);
    }

    #[test]
    fn sid_matches_textbook_formula() {
        // Direct evaluation of eq. 2 on a hand-picked pair.
        let p = [0.2f32, 0.8];
        let q = [0.5f32, 0.5];
        let expected: f32 = p
            .iter()
            .zip(&q)
            .map(|(&pl, &ql)| pl * (pl / ql).ln() + ql * (ql / pl).ln())
            .sum();
        assert!((sid_normalized(&p, &q) - expected).abs() < TOL);
        assert!(expected > 0.0);
    }

    #[test]
    fn sid_handles_zero_bands() {
        let p = [0.0f32, 1.0];
        let q = [0.5f32, 0.5];
        let d = sid_normalized(&p, &q);
        assert!(d.is_finite());
        assert!(d > 0.0);
    }

    #[test]
    fn sid_grows_with_divergence() {
        let p = [0.5f32, 0.5];
        let near = [0.45f32, 0.55];
        let far = [0.1f32, 0.9];
        assert!(sid_normalized(&p, &near) < sid_normalized(&p, &far));
    }
}
