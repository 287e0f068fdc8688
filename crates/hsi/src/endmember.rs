//! Endmember selection from the MEI image (step 3 of AMC).
//!
//! The paper selects "the set of c pixel vectors in f with higher associated
//! score in the resulting MEI image". A literal top-c by score tends to pick
//! the same spectral signature many times: a strong anomaly peaks every
//! window that contains it, and one material boundary yields a continuum of
//! mixed spectra. Either makes the endmember matrix singular. The
//! reproduction's one documented deviation in step 3 is therefore MEI-seeded
//! ATGP (Chang 2003, the paper's reference \[2\]): the highest-MEI pixel
//! seeds the set, and each further endmember is the pixel worst explained by
//! those chosen so far ([`select_endmembers_atgp`]).

use crate::cube::Cube;
use crate::error::{HsiError, Result};
use crate::morphology::MeiImage;

/// One selected endmember.
#[derive(Debug, Clone)]
pub struct Endmember {
    /// Spatial location in the image.
    pub x: usize,
    /// Spatial location in the image.
    pub y: usize,
    /// MEI score that ranked this pixel.
    pub score: f32,
    /// The raw (unnormalized) spectral signature.
    pub spectrum: Vec<f32>,
}

/// Borrow the spectra of a selected endmember set as `&[f32]` slices, the
/// form [`crate::unmix::LinearMixtureModel::new`] consumes.
pub fn spectra(endmembers: &[Endmember]) -> Vec<&[f32]> {
    endmembers.iter().map(|e| e.spectrum.as_slice()).collect()
}

/// Residual-driven endmember selection (ATGP, after Chang — the paper's
/// reference \[2\]): seed with the highest-MEI pixel ([`MeiImage::peak`]),
/// then repeatedly add the pixel **worst explained** (largest
/// orthogonal-projection residual) by the endmembers selected so far.
///
/// A descending-MEI walk that skips near-duplicates by pairwise SID fails on
/// scenes where one strong material boundary produces a *continuum* of
/// mixed spectra: the continuum yields arbitrarily many "distinct"
/// signatures and the walk never leaves that boundary. Residual-driven
/// selection is immune — once both ends of a mixing line are in the set,
/// every point on the line reconstructs exactly and is skipped.
///
/// The projection residuals are maintained *incrementally*: an orthonormal
/// basis of the selected spectra is grown by Gram-Schmidt, and adding one
/// endmember subtracts a single squared dot product per pixel
/// (`r ← r − (q·p)²`) instead of refitting a mixture model and sweeping the
/// image through it. Selecting `c` endmembers therefore costs `O(c·N·bands)`
/// total rather than `O(c²·N·bands)`, with no per-pixel allocation.
///
/// This is the first reader of the MEI on every classification path, so it
/// checks the MEI against the cube: [`HsiError::ShapeMismatch`] when its
/// `(width, height)` differs from the cube's, [`HsiError::DimensionMismatch`]
/// when it holds other than `width · height` scores.
pub fn select_endmembers_atgp(cube: &Cube, mei: &MeiImage, count: usize) -> Result<Vec<Endmember>> {
    use rayon::prelude::*;
    let dims = cube.dims();
    if (mei.width, mei.height) != (dims.width, dims.height) {
        return Err(HsiError::ShapeMismatch {
            left: (mei.width, mei.height),
            right: (dims.width, dims.height),
        });
    }
    if mei.scores.len() != dims.pixels() {
        return Err(HsiError::DimensionMismatch {
            expected: dims.pixels(),
            actual: mei.scores.len(),
        });
    }
    if count == 0 || count > dims.pixels() {
        return Err(HsiError::InvalidClassCount {
            requested: count,
            available: dims.pixels(),
        });
    }
    let bip = cube.to_interleave(crate::cube::Interleave::Bip);
    let data = bip.data();
    let bands = dims.bands;
    // r_i starts at ‖p_i‖² (the residual against an empty basis).
    let mut residuals: Vec<f64> = data
        .par_chunks(bands)
        .map(|px| px.iter().map(|&v| (v as f64) * (v as f64)).sum())
        .collect();
    // Stop threshold: a residual this far below the mean pixel energy means
    // the image is already fully explained (degenerate scenes return fewer
    // endmembers than requested instead of duplicating spectra).
    let mean_energy: f64 = residuals.iter().sum::<f64>() / dims.pixels() as f64;
    let stop = mean_energy * 1e-8;

    // Orthonormalize `spectrum` against `basis` and fold it into the pixel
    // residuals. Returns false (leaving both untouched) when the spectrum is
    // linearly dependent on the basis and cannot extend it.
    let mut basis: Vec<Vec<f64>> = Vec::with_capacity(count);
    let extend = |basis: &mut Vec<Vec<f64>>, residuals: &mut [f64], spectrum: &[f32]| {
        let mut v: Vec<f64> = spectrum.iter().map(|&x| x as f64).collect();
        let orig2: f64 = v.iter().map(|x| x * x).sum();
        for q in basis.iter() {
            let proj = crate::linalg::dot_f64(q, &v);
            for (vi, qi) in v.iter_mut().zip(q) {
                *vi -= proj * qi;
            }
        }
        let norm2: f64 = v.iter().map(|x| x * x).sum();
        if norm2 <= orig2 * 1e-24 {
            return false;
        }
        let inv = 1.0 / norm2.sqrt();
        for vi in v.iter_mut() {
            *vi *= inv;
        }
        residuals
            .par_chunks_mut(crate::unmix::BATCH_TILE_PIXELS)
            .zip(data.par_chunks(crate::unmix::BATCH_TILE_PIXELS * bands))
            .for_each(|(rt, pt)| {
                for (r, px) in rt.iter_mut().zip(pt.chunks_exact(bands)) {
                    let d = crate::linalg::dot_f32(&v, px);
                    // Clamp: the subtraction can dip below zero by rounding
                    // once a pixel is fully explained.
                    *r = (*r - d * d).max(0.0);
                }
            });
        basis.push(v);
        true
    };

    let seed = mei.peak().expect("a non-empty cube has an MEI peak");
    let mut selected = vec![Endmember {
        x: seed.0,
        y: seed.1,
        score: mei.get(seed.0, seed.1),
        spectrum: cube.pixel(seed.0, seed.1),
    }];
    extend(&mut basis, &mut residuals, &selected[0].spectrum);
    while selected.len() < count {
        // First index wins ties, matching the stable descending ranking the
        // model-based sweep used.
        let (best, residual) = residuals.iter().copied().enumerate().fold(
            (0usize, f64::NEG_INFINITY),
            |acc, (i, r)| if r > acc.1 { (i, r) } else { acc },
        );
        if residual <= stop {
            break;
        }
        let (x, y) = (best % dims.width, best / dims.width);
        let spectrum = cube.pixel(x, y);
        if !extend(&mut basis, &mut residuals, &spectrum) {
            break;
        }
        selected.push(Endmember {
            x,
            y,
            score: mei.get(x, y),
            spectrum,
        });
    }
    Ok(selected)
}

/// Rank every pixel by unconstrained-LS reconstruction residual under
/// `model`, descending. Used by the classifier's starved-cluster
/// reseeding; ATGP selection keeps its own incremental residuals.
///
/// Residuals come from the batched operator kernel
/// ([`crate::unmix::LinearMixtureModel::residuals_batch`]), which runs one
/// tile at a time on per-worker scratch buffers with no per-pixel
/// allocation.
pub fn residual_ranking(
    cube: &Cube,
    model: &crate::unmix::LinearMixtureModel,
) -> Vec<(f64, usize, usize)> {
    use rayon::prelude::*;
    let dims = cube.dims();
    let bip = cube.to_interleave(crate::cube::Interleave::Bip);
    let mut residuals = vec![0.0f64; dims.pixels()];
    model
        .residuals_batch(bip.data(), &mut residuals)
        .expect("cube bands match the fitted model");
    let mut ranked: Vec<(f64, usize, usize)> = residuals
        .iter()
        .enumerate()
        .map(|(i, &r)| (r, i % dims.width, i / dims.width))
        .collect();
    ranked.par_sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube::{CubeDims, Interleave};
    use crate::morphology::{mei_of_raw, StructuringElement};
    use crate::spectral;

    /// 8x8 cube with three materials in vertical strips.
    fn three_material_cube() -> Cube {
        let mats = [
            [100.0f32, 10.0, 10.0, 10.0],
            [10.0f32, 100.0, 10.0, 10.0],
            [10.0f32, 10.0, 100.0, 10.0],
        ];
        Cube::from_fn(CubeDims::new(8, 8, 4), Interleave::Bip, |x, _, b| {
            mats[x * 3 / 8][b]
        })
        .unwrap()
    }

    fn mei_of(cube: &Cube) -> MeiImage {
        mei_of_raw(cube, &StructuringElement::square(3).unwrap()).0
    }

    #[test]
    fn selects_spectrally_distinct_endmembers() {
        let cube = three_material_cube();
        let ems = select_endmembers_atgp(&cube, &mei_of(&cube), 3).unwrap();
        assert_eq!(ems.len(), 3);
        for i in 0..3 {
            for j in i + 1..3 {
                assert!(spectral::sid(&ems[i].spectrum, &ems[j].spectrum) > 1e-3);
            }
        }
        // Each selected spectrum is dominated by a different band.
        let mut dominant: Vec<usize> = ems
            .iter()
            .map(|e| {
                e.spectrum
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                    .unwrap()
                    .0
            })
            .collect();
        dominant.sort_unstable();
        assert_eq!(dominant, vec![0, 1, 2]);
    }

    #[test]
    fn returns_fewer_when_scene_lacks_diversity() {
        // Constant image: the seed explains every pixel.
        let cube = Cube::from_fn(CubeDims::new(6, 6, 3), Interleave::Bip, |_, _, b| {
            (b + 1) as f32
        })
        .unwrap();
        let ems = select_endmembers_atgp(&cube, &mei_of(&cube), 5).unwrap();
        assert_eq!(ems.len(), 1);
    }

    #[test]
    fn invalid_counts_rejected() {
        let cube = three_material_cube();
        let mei = mei_of(&cube);
        assert!(matches!(
            select_endmembers_atgp(&cube, &mei, 0),
            Err(HsiError::InvalidClassCount { requested: 0, .. })
        ));
        assert!(matches!(
            select_endmembers_atgp(&cube, &mei, 10_000),
            Err(HsiError::InvalidClassCount {
                requested: 10_000,
                available: 64
            })
        ));
    }

    #[test]
    fn endmember_records_location_and_score() {
        let cube = three_material_cube();
        let mei = mei_of(&cube);
        let ems = select_endmembers_atgp(&cube, &mei, 3).unwrap();
        // The seed is the MEI peak.
        assert_eq!(Some((ems[0].x, ems[0].y)), mei.peak());
        for e in &ems {
            assert_eq!(e.score, mei.get(e.x, e.y));
            assert_eq!(e.spectrum, cube.pixel(e.x, e.y));
        }
    }

    #[test]
    fn spectra_view_matches() {
        let cube = three_material_cube();
        let ems = select_endmembers_atgp(&cube, &mei_of(&cube), 3).unwrap();
        let views = spectra(&ems);
        assert_eq!(views.len(), ems.len());
        assert_eq!(views[0], ems[0].spectrum.as_slice());
    }

    #[test]
    fn mei_of_the_wrong_shape_is_rejected() {
        // 10x6 cube: a transposed MEI, a smaller one and one whose score
        // buffer is short each return an error instead of indexing past it.
        let cube = Cube::from_fn(CubeDims::new(10, 6, 4), Interleave::Bip, |x, y, b| {
            1.0 + ((x * 7 + y * 3 + b) % 5) as f32
        })
        .unwrap();
        let mei = |width, height, len| MeiImage {
            width,
            height,
            scores: (0..len).map(|i| i as f32).collect(),
        };
        assert_eq!(
            select_endmembers_atgp(&cube, &mei(6, 10, 60), 2).unwrap_err(),
            HsiError::ShapeMismatch {
                left: (6, 10),
                right: (10, 6)
            }
        );
        assert_eq!(
            select_endmembers_atgp(&cube, &mei(4, 4, 16), 2).unwrap_err(),
            HsiError::ShapeMismatch {
                left: (4, 4),
                right: (10, 6)
            }
        );
        assert_eq!(
            select_endmembers_atgp(&cube, &mei(10, 6, 59), 2).unwrap_err(),
            HsiError::DimensionMismatch {
                expected: 60,
                actual: 59
            }
        );
        // The right shape selects, seeded at the last (highest) score.
        let ems = select_endmembers_atgp(&cube, &mei(10, 6, 60), 2).unwrap();
        assert_eq!((ems[0].x, ems[0].y), (9, 5));
    }
}
