//! Linear spectral unmixing (step 3 of the AMC algorithm).
//!
//! The standard linear mixture model (Chang 2003, the paper's \[2\]) writes
//! each pixel as `f(x,y) ≈ Σ_i α_i(x,y) · e_i` where `e_i` are the endmember
//! spectra selected from the MEI image. Abundances are estimated by least
//! squares; the classic variants differ in which physical constraints they
//! enforce.

use crate::cube::{Cube, Interleave};
use crate::error::{HsiError, Result};
use crate::linalg::{self, Cholesky, Lu, Matrix};
use rayon::prelude::*;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Which abundance constraints the estimator enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AbundanceConstraint {
    /// Unconstrained least squares (UCLS).
    None,
    /// Sum-to-one constrained least squares (SCLS) via a bordered KKT system.
    SumToOne,
    /// SCLS followed by clamping negatives to zero and renormalizing — the
    /// cheap approximation of fully-constrained LS used when only the argmax
    /// is needed (as in AMC's classification step).
    #[default]
    SumToOneNonNeg,
}

/// Default ridge λ as a fraction of the Gram matrix's mean diagonal.
pub const RIDGE_SCALE: f64 = 3e-5;

/// Pixels per tile of the batched unmixing kernels.
///
/// 256 pixels × ~100 bands × 4 bytes keeps a tile's input (~100 KiB) plus its
/// abundance scratch well inside L2 next to the cache-resident operator. The
/// tile size is a fixed constant — never derived from the worker count — so
/// tile boundaries, and therefore every f64 summation, are identical at every
/// `GPU_SIM_THREADS` setting.
pub const BATCH_TILE_PIXELS: usize = 256;

// Per-worker scratch for the batched kernels (abundance / Eᵀp / Gα rows).
// Reused across tiles so the steady state performs zero per-pixel and zero
// per-tile allocations.
thread_local! {
    static TILE_SCRATCH: RefCell<(Vec<f64>, Vec<f64>, Vec<f64>)> =
        const { RefCell::new((Vec::new(), Vec::new(), Vec::new())) };
}

/// Worker-summed CPU seconds of one batched classification call.
///
/// Each worker thread times its own tiles; the fields are the sums across
/// workers. At one worker thread they add up to the call's wall clock; at `n`
/// workers the sum can exceed wall time (it counts total CPU work, not
/// elapsed time).
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchTimings {
    /// Seconds in the abundance GEMM + constraint fix-up (clamp/renormalize).
    pub unmix_s: f64,
    /// Seconds in the per-pixel argmax label assignment.
    pub argmax_s: f64,
}

/// A fitted linear mixture model over a fixed endmember set.
///
/// Construction factorizes the (c×c) systems once and precomputes the dense
/// abundance operators; per-pixel unmixing is then a matrix-vector product
/// plus a triangular solve, and batched unmixing is one GEMM per pixel tile.
#[derive(Debug, Clone)]
pub struct LinearMixtureModel {
    endmembers: Matrix,    // bands x c
    et: Matrix,            // c x bands — Eᵀ, the batched right-hand-side operator
    chol: Cholesky,        // of the ridged EᵀE
    bordered: Lu,          // KKT system for sum-to-one
    op_ucls: Matrix,       // c x bands — (EᵀE + λI)⁻¹Eᵀ
    op_scls: Matrix,       // c x bands — abundance block of KKT⁻¹ times Eᵀ
    scls_offset: Vec<f64>, // c — affine part of the bordered solve (λ row folded out)
    gram: Matrix,          // c x c — unridged EᵀE, for batched residuals
    gram_inv: Matrix,      // c x c — (EᵀE + λI)⁻¹
    bands: usize,
    count: usize,
}

impl LinearMixtureModel {
    /// Fit the model to the given endmember spectra (each of equal length).
    ///
    /// Fails with [`HsiError::SingularMatrix`] if the endmembers are linearly
    /// dependent (e.g. the same pixel selected twice).
    pub fn new(endmembers: &[&[f32]]) -> Result<Self> {
        let e = Matrix::from_columns_f32(endmembers)?;
        let bands = e.rows();
        let count = e.cols();
        if count > bands {
            return Err(HsiError::InvalidClassCount {
                requested: count,
                available: bands,
            });
        }
        let gram_unridged = e.gram();
        let mut gram = gram_unridged.clone();
        // Ridge regularisation (damped least squares): real endmember sets
        // (e.g. a dozen corn variants early in the growing season) are
        // near-collinear, so the unregularised LS estimate amplifies sensor
        // noise along the Gram matrix's small eigenvalues. A small fixed λ
        // relative to the mean diagonal stabilises abundances; it escalates
        // only if the factorization still fails (exactly duplicate spectra).
        let mean_diag: f64 = (0..count).map(|i| gram[(i, i)]).sum::<f64>() / count as f64;
        let mut scale = RIDGE_SCALE;
        for i in 0..count {
            gram[(i, i)] += mean_diag * scale;
        }
        let mut chol = Cholesky::new(&gram);
        while chol.is_err() && scale <= 1e-4 {
            scale *= 100.0;
            for i in 0..count {
                gram[(i, i)] += mean_diag * scale;
            }
            chol = Cholesky::new(&gram);
        }
        let chol = chol?;
        // Bordered KKT system for min ‖Ex − b‖ s.t. Σx = 1:
        //   [ G   1 ] [x] = [Eᵀb]
        //   [ 1ᵀ  0 ] [λ]   [ 1 ]
        let mut kkt = Matrix::zeros(count + 1, count + 1);
        for i in 0..count {
            for j in 0..count {
                kkt[(i, j)] = gram[(i, j)];
            }
            kkt[(i, count)] = 1.0;
            kkt[(count, i)] = 1.0;
        }
        let bordered = Lu::new(&kkt)?;
        // Precompute the dense abundance operators so the batched path is one
        // GEMM per pixel tile instead of a triangular solve per pixel.
        //
        // UCLS: x = (EᵀE + λI)⁻¹ Eᵀ p, so op_ucls = G̃⁻¹Eᵀ (c × bands).
        //
        // SCLS: the bordered solve is affine in the right-hand side,
        //   [x; μ] = KKT⁻¹ [Eᵀp; 1]  ⇒  x = B·(Eᵀp) + d
        // where B is the top-left c×c block of KKT⁻¹ and d its last column's
        // top c entries — the multiplier row folds into a constant offset.
        let et = e.transpose();
        let gram_inv = chol.inverse();
        let op_ucls = gram_inv.matmul_block(&et)?;
        let kkt_inv = bordered.inverse();
        let op_scls = kkt_inv.sub_block(0, 0, count, count)?.matmul_block(&et)?;
        let scls_offset: Vec<f64> = (0..count).map(|i| kkt_inv[(i, count)]).collect();
        Ok(Self {
            endmembers: e,
            et,
            chol,
            bordered,
            op_ucls,
            op_scls,
            scls_offset,
            gram: gram_unridged,
            gram_inv,
            bands,
            count,
        })
    }

    /// Number of spectral bands.
    pub fn bands(&self) -> usize {
        self.bands
    }

    /// Number of endmembers (classes) `c`.
    pub fn count(&self) -> usize {
        self.count
    }

    /// The endmember matrix (bands × c).
    pub fn endmember_matrix(&self) -> &Matrix {
        &self.endmembers
    }

    /// Estimate the abundance vector of one pixel.
    pub fn abundances(&self, pixel: &[f32], constraint: AbundanceConstraint) -> Result<Vec<f64>> {
        if pixel.len() != self.bands {
            return Err(HsiError::DimensionMismatch {
                expected: self.bands,
                actual: pixel.len(),
            });
        }
        let etb = self.endmembers.transpose_matvec_f32(pixel)?;
        match constraint {
            AbundanceConstraint::None => self.chol.solve(&etb),
            AbundanceConstraint::SumToOne => {
                let x = self.solve_sum_to_one(&etb)?;
                Ok(x)
            }
            AbundanceConstraint::SumToOneNonNeg => {
                let mut x = self.solve_sum_to_one(&etb)?;
                clamp_renormalize(&mut x);
                Ok(x)
            }
        }
    }

    fn solve_sum_to_one(&self, etb: &[f64]) -> Result<Vec<f64>> {
        let mut rhs = Vec::with_capacity(self.count + 1);
        rhs.extend_from_slice(etb);
        rhs.push(1.0);
        let mut sol = self.bordered.solve(&rhs)?;
        sol.truncate(self.count); // drop the multiplier λ
        Ok(sol)
    }

    /// Index of the largest abundance — AMC's class assignment (step 4).
    pub fn classify_pixel(&self, pixel: &[f32], constraint: AbundanceConstraint) -> Result<usize> {
        let a = self.abundances(pixel, constraint)?;
        Ok(argmax(&a))
    }

    /// Classify every pixel of a BIP cube in parallel, returning row-major
    /// labels in `0..count`.
    pub fn classify_cube(
        &self,
        cube: &crate::cube::Cube,
        constraint: AbundanceConstraint,
    ) -> Result<Vec<u16>> {
        let dims = cube.dims();
        let bip = cube.to_interleave(crate::cube::Interleave::Bip);
        let data = bip.data();
        let labels: Vec<u16> = data
            .par_chunks(dims.bands)
            .map(|px| {
                self.classify_pixel(px, constraint)
                    .map(|c| c as u16)
                    .unwrap_or(0)
            })
            .collect();
        Ok(labels)
    }

    /// Reconstruct a pixel from abundances (for residual checks).
    pub fn reconstruct(&self, abundances: &[f64]) -> Result<Vec<f64>> {
        self.endmembers.matvec(abundances)
    }

    /// Squared reconstruction residual `‖pixel − E·α‖²` under unconstrained
    /// LS abundances — the selection criterion of ATGP endmember extraction.
    pub fn residual_norm2(&self, pixel: &[f32]) -> Result<f64> {
        let a = self.abundances(pixel, AbundanceConstraint::None)?;
        let recon = self.reconstruct(&a)?;
        Ok(pixel
            .iter()
            .zip(&recon)
            .map(|(&p, &q)| {
                let d = p as f64 - q;
                d * d
            })
            .sum())
    }

    /// Estimate abundances for a block of BIP pixels in one batched pass.
    ///
    /// `pixels` holds `n` contiguous `bands`-length spectra; on return
    /// `out[p*count .. (p+1)*count]` is the abundance vector of pixel `p`,
    /// identical (up to f64 rounding, see the batch-vs-oracle proptests) to
    /// calling [`LinearMixtureModel::abundances`] per pixel. The work is
    /// tiled into [`BATCH_TILE_PIXELS`]-pixel blocks executed on the rayon
    /// worker pool with zero per-pixel allocations; results are
    /// bit-identical at every thread count because tile boundaries and
    /// summation order are fixed.
    pub fn abundances_batch(
        &self,
        pixels: &[f32],
        constraint: AbundanceConstraint,
        out: &mut [f64],
    ) -> Result<()> {
        if !pixels.len().is_multiple_of(self.bands) {
            return Err(HsiError::DimensionMismatch {
                expected: self.bands,
                actual: pixels.len(),
            });
        }
        let n = pixels.len() / self.bands;
        if out.len() != n * self.count {
            return Err(HsiError::DimensionMismatch {
                expected: n * self.count,
                actual: out.len(),
            });
        }
        out.par_chunks_mut(BATCH_TILE_PIXELS * self.count)
            .zip(pixels.par_chunks(BATCH_TILE_PIXELS * self.bands))
            .for_each(|(ob, pb)| self.abundances_tile(pb, constraint, ob));
        Ok(())
    }

    // One tile of `abundances_batch`: operator GEMM straight into `out`,
    // then the constraint fix-up row by row. Shapes are validated by the
    // callers, so the GEMM cannot fail.
    fn abundances_tile(&self, pixels: &[f32], constraint: AbundanceConstraint, out: &mut [f64]) {
        let op = match constraint {
            AbundanceConstraint::None => &self.op_ucls,
            _ => &self.op_scls,
        };
        linalg::apply_operator_f32(op, pixels, out).expect("tile shapes validated by caller");
        match constraint {
            AbundanceConstraint::None => {}
            AbundanceConstraint::SumToOne => {
                for row in out.chunks_exact_mut(self.count) {
                    for (v, d) in row.iter_mut().zip(&self.scls_offset) {
                        *v += d;
                    }
                }
            }
            AbundanceConstraint::SumToOneNonNeg => {
                for row in out.chunks_exact_mut(self.count) {
                    for (v, d) in row.iter_mut().zip(&self.scls_offset) {
                        *v += d;
                    }
                    clamp_renormalize(row);
                }
            }
        }
    }

    /// Batched [`LinearMixtureModel::classify_cube`]: one operator GEMM +
    /// fused constraint fix-up + argmax per pixel tile, with per-worker
    /// scratch instead of per-pixel allocations.
    pub fn classify_cube_batched(
        &self,
        cube: &Cube,
        constraint: AbundanceConstraint,
    ) -> Result<Vec<u16>> {
        self.classify_cube_batched_timed(cube, constraint)
            .map(|(labels, _)| labels)
    }

    /// [`LinearMixtureModel::classify_cube_batched`] plus a [`BatchTimings`]
    /// breakdown of where the CPU time went.
    pub fn classify_cube_batched_timed(
        &self,
        cube: &Cube,
        constraint: AbundanceConstraint,
    ) -> Result<(Vec<u16>, BatchTimings)> {
        let dims = cube.dims();
        if dims.bands != self.bands {
            return Err(HsiError::DimensionMismatch {
                expected: self.bands,
                actual: dims.bands,
            });
        }
        let bip = cube.to_interleave(Interleave::Bip);
        let data = bip.data();
        let mut labels = vec![0u16; dims.pixels()];
        let unmix_ns = AtomicU64::new(0);
        let argmax_ns = AtomicU64::new(0);
        labels
            .par_chunks_mut(BATCH_TILE_PIXELS)
            .zip(data.par_chunks(BATCH_TILE_PIXELS * self.bands))
            .for_each(|(lab_tile, px_tile)| {
                TILE_SCRATCH.with(|scratch| {
                    let mut scratch = scratch.borrow_mut();
                    let ab = &mut scratch.0;
                    ab.resize(lab_tile.len() * self.count, 0.0);
                    let span = trace::span("tail.batch", "unmix");
                    let t = Instant::now();
                    self.abundances_tile(px_tile, constraint, ab);
                    unmix_ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    drop(span);
                    let span = trace::span("tail.batch", "argmax");
                    let t = Instant::now();
                    for (row, lab) in ab.chunks_exact(self.count).zip(lab_tile.iter_mut()) {
                        *lab = argmax(row) as u16;
                    }
                    argmax_ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    drop(span);
                });
            });
        let timings = BatchTimings {
            unmix_s: unmix_ns.load(Ordering::Relaxed) as f64 * 1e-9,
            argmax_s: argmax_ns.load(Ordering::Relaxed) as f64 * 1e-9,
        };
        Ok((labels, timings))
    }

    /// Batched squared reconstruction residuals under unconstrained LS:
    /// `out[p] = ‖pixel_p − E·α_p‖²`, matching
    /// [`LinearMixtureModel::residual_norm2`] per pixel (up to f64 rounding).
    ///
    /// Expanded as `‖p‖² − 2·(Eᵀp)ᵀα + αᵀ(EᵀE)α` so the whole tile needs
    /// three operator applications (`Eᵀ`, `G̃⁻¹` and `G = EᵀE`) plus
    /// c-length sums — no band-space reconstruction. The quadratic form is
    /// summed in row order, `Σ_i α_i·(Gα)_i`. The expansion can go slightly
    /// negative through cancellation on fully-explained pixels, so it is
    /// clamped at zero.
    pub fn residuals_batch(&self, pixels: &[f32], out: &mut [f64]) -> Result<()> {
        if !pixels.len().is_multiple_of(self.bands) {
            return Err(HsiError::DimensionMismatch {
                expected: self.bands,
                actual: pixels.len(),
            });
        }
        let n = pixels.len() / self.bands;
        if out.len() != n {
            return Err(HsiError::DimensionMismatch {
                expected: n,
                actual: out.len(),
            });
        }
        out.par_chunks_mut(BATCH_TILE_PIXELS)
            .zip(pixels.par_chunks(BATCH_TILE_PIXELS * self.bands))
            .for_each(|(res_tile, px_tile)| {
                TILE_SCRATCH.with(|scratch| {
                    let mut scratch = scratch.borrow_mut();
                    let (etb, a, ga) = &mut *scratch;
                    etb.resize(res_tile.len() * self.count, 0.0);
                    a.resize(res_tile.len() * self.count, 0.0);
                    ga.resize(res_tile.len() * self.count, 0.0);
                    linalg::apply_operator_f32(&self.et, px_tile, etb)
                        .expect("tile shapes validated by caller");
                    linalg::apply_operator_f64(&self.gram_inv, etb, a)
                        .expect("tile shapes validated by caller");
                    linalg::apply_operator_f64(&self.gram, a, ga)
                        .expect("tile shapes validated by caller");
                    let rows = px_tile
                        .chunks_exact(self.bands)
                        .zip(etb.chunks_exact(self.count))
                        .zip(a.chunks_exact(self.count).zip(ga.chunks_exact(self.count)));
                    for (res, ((px, eb), (ar, gar))) in res_tile.iter_mut().zip(rows) {
                        let mut pp = 0.0f64;
                        for &v in px {
                            let v = v as f64;
                            pp += v * v;
                        }
                        let mut quad = 0.0f64;
                        for (&ai, &gi) in ar.iter().zip(gar) {
                            quad += ai * gi;
                        }
                        *res = (pp - 2.0 * linalg::dot_f64(eb, ar) + quad).max(0.0);
                    }
                });
            });
        Ok(())
    }
}

/// Clamp negative abundances to zero and renormalize to sum one.
pub fn clamp_renormalize(x: &mut [f64]) {
    let mut sum = 0.0;
    for v in x.iter_mut() {
        if *v < 0.0 {
            *v = 0.0;
        }
        sum += *v;
    }
    if sum > 0.0 {
        let inv = 1.0 / sum;
        x.iter_mut().for_each(|v| *v *= inv);
    } else {
        let uniform = 1.0 / x.len() as f64;
        x.iter_mut().for_each(|v| *v = uniform);
    }
}

/// Index of the maximum element (first on ties).
pub fn argmax(x: &[f64]) -> usize {
    let mut best = 0;
    for (i, &v) in x.iter().enumerate() {
        if v > x[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube::{Cube, CubeDims, Interleave};

    fn simple_model() -> LinearMixtureModel {
        let e0 = [1.0f32, 0.0, 0.0, 0.5];
        let e1 = [0.0f32, 1.0, 0.0, 0.5];
        let e2 = [0.0f32, 0.0, 1.0, 0.5];
        LinearMixtureModel::new(&[&e0, &e1, &e2]).unwrap()
    }

    #[test]
    fn model_shape_accessors() {
        let m = simple_model();
        assert_eq!(m.bands(), 4);
        assert_eq!(m.count(), 3);
        assert_eq!(m.endmember_matrix().shape(), (4, 3));
    }

    #[test]
    fn ridge_handles_dependent_endmembers() {
        // Collinear endmembers (the same material selected twice) must not
        // crash: the ridge makes the system solvable with finite abundances.
        let e0 = [1.0f32, 2.0, 3.0];
        let e1 = [2.0f32, 4.0, 6.0];
        let m = LinearMixtureModel::new(&[&e0, &e1]).unwrap();
        let a = m
            .abundances(&[1.5, 3.0, 4.5], AbundanceConstraint::SumToOneNonNeg)
            .unwrap();
        assert!(a.iter().all(|v| v.is_finite()));
        assert!((a.iter().sum::<f64>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn rejects_more_endmembers_than_bands() {
        let e = [1.0f32, 0.0];
        let e2 = [0.0f32, 1.0];
        let e3 = [1.0f32, 1.0];
        assert!(matches!(
            LinearMixtureModel::new(&[&e[..], &e2[..], &e3[..]]),
            Err(HsiError::InvalidClassCount { .. })
        ));
    }

    #[test]
    fn unconstrained_recovers_exact_mixture() {
        let m = simple_model();
        // pixel = 0.2 e0 + 0.3 e1 + 0.5 e2
        let px = [0.2f32, 0.3, 0.5, 0.5];
        let a = m.abundances(&px, AbundanceConstraint::None).unwrap();
        // Tolerance reflects the stabilising ridge bias (RIDGE_SCALE).
        assert!((a[0] - 0.2).abs() < 1e-3, "{a:?}");
        assert!((a[1] - 0.3).abs() < 1e-3);
        assert!((a[2] - 0.5).abs() < 1e-3);
    }

    #[test]
    fn sum_to_one_enforces_constraint() {
        let m = simple_model();
        // Pixel scaled by 3: unconstrained abundances sum to 3, SCLS to 1.
        let px = [0.6f32, 0.9, 1.5, 1.5];
        let unc = m.abundances(&px, AbundanceConstraint::None).unwrap();
        assert!((unc.iter().sum::<f64>() - 3.0).abs() < 1e-2);
        let scls = m.abundances(&px, AbundanceConstraint::SumToOne).unwrap();
        assert!((scls.iter().sum::<f64>() - 1.0).abs() < 1e-8, "{scls:?}");
        // Relative ordering preserved.
        assert!(scls[2] > scls[1] && scls[1] > scls[0]);
    }

    #[test]
    fn nonneg_variant_produces_probability_vector() {
        let m = simple_model();
        // A pixel outside the simplex can yield negative SCLS abundances.
        let px = [2.0f32, -0.5, 0.1, 0.2];
        let a = m
            .abundances(&px, AbundanceConstraint::SumToOneNonNeg)
            .unwrap();
        assert!(a.iter().all(|&v| v >= 0.0), "{a:?}");
        assert!((a.iter().sum::<f64>() - 1.0).abs() < 1e-8);
    }

    #[test]
    fn pixel_length_checked() {
        let m = simple_model();
        assert!(m
            .abundances(&[1.0, 2.0], AbundanceConstraint::None)
            .is_err());
    }

    #[test]
    fn classify_pixel_picks_dominant_endmember() {
        let m = simple_model();
        for (i, px) in [
            [0.9f32, 0.05, 0.05, 0.5],
            [0.05f32, 0.9, 0.05, 0.5],
            [0.05f32, 0.05, 0.9, 0.5],
        ]
        .iter()
        .enumerate()
        {
            assert_eq!(
                m.classify_pixel(px, AbundanceConstraint::SumToOneNonNeg)
                    .unwrap(),
                i
            );
        }
    }

    #[test]
    fn classify_cube_labels_every_pixel() {
        let m = simple_model();
        let cube = Cube::from_fn(CubeDims::new(2, 2, 4), Interleave::Bip, |x, y, b| {
            // (0,0)->e0, (1,0)->e1, (0,1)->e2, (1,1)->e0-ish
            let e: usize = match (x, y) {
                (0, 0) => 0,
                (1, 0) => 1,
                (0, 1) => 2,
                _ => 0,
            };
            if b == e {
                1.0
            } else if b == 3 {
                0.5
            } else {
                0.0
            }
        })
        .unwrap();
        let labels = m
            .classify_cube(&cube, AbundanceConstraint::SumToOneNonNeg)
            .unwrap();
        assert_eq!(labels, vec![0, 1, 2, 0]);
    }

    #[test]
    fn reconstruct_round_trips() {
        let m = simple_model();
        let recon = m.reconstruct(&[0.2, 0.3, 0.5]).unwrap();
        assert!((recon[0] - 0.2).abs() < 1e-9);
        assert!((recon[3] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn clamp_renormalize_edge_cases() {
        let mut x = vec![-1.0, 2.0, 2.0];
        clamp_renormalize(&mut x);
        assert_eq!(x, vec![0.0, 0.5, 0.5]);
        let mut zeros = vec![-1.0, -2.0];
        clamp_renormalize(&mut zeros);
        assert_eq!(zeros, vec![0.5, 0.5]);
    }

    #[test]
    fn argmax_first_on_ties() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0]), 1);
        assert_eq!(argmax(&[5.0]), 0);
    }

    const ALL_CONSTRAINTS: [AbundanceConstraint; 3] = [
        AbundanceConstraint::None,
        AbundanceConstraint::SumToOne,
        AbundanceConstraint::SumToOneNonNeg,
    ];

    // A deterministic pseudo-random pixel stream (xorshift), spanning
    // several tiles so partial-tile handling is exercised.
    fn synthetic_pixels(n: usize, bands: usize) -> Vec<f32> {
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut out = Vec::with_capacity(n * bands);
        for _ in 0..n * bands {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            // Values in [-0.5, 1.5): includes negatives to exercise clamping.
            out.push((state >> 40) as f32 / (1u64 << 24) as f32 * 2.0 - 0.5);
        }
        out
    }

    #[test]
    fn batched_abundances_match_oracle() {
        let m = simple_model();
        let pixels = synthetic_pixels(BATCH_TILE_PIXELS + 37, m.bands());
        for constraint in ALL_CONSTRAINTS {
            let mut batch = vec![0.0f64; (BATCH_TILE_PIXELS + 37) * m.count()];
            m.abundances_batch(&pixels, constraint, &mut batch).unwrap();
            for (p, px) in pixels.chunks_exact(m.bands()).enumerate() {
                let oracle = m.abundances(px, constraint).unwrap();
                for (b, o) in batch[p * m.count()..(p + 1) * m.count()]
                    .iter()
                    .zip(&oracle)
                {
                    assert!(
                        (b - o).abs() <= 1e-9 * (1.0 + o.abs()),
                        "constraint {constraint:?} pixel {p}: batch {b} oracle {o}"
                    );
                }
            }
        }
    }

    #[test]
    fn batched_lengths_validated() {
        let m = simple_model();
        let pixels = vec![0.5f32; 2 * m.bands()];
        let mut out = vec![0.0f64; 2 * m.count()];
        assert!(m
            .abundances_batch(&pixels[..5], AbundanceConstraint::None, &mut out)
            .is_err());
        assert!(m
            .abundances_batch(&pixels, AbundanceConstraint::None, &mut out[..3])
            .is_err());
        let mut res = vec![0.0f64; 2];
        assert!(m.residuals_batch(&pixels[..5], &mut res).is_err());
        assert!(m.residuals_batch(&pixels, &mut res[..1]).is_err());
    }

    #[test]
    fn classify_cube_batched_matches_per_pixel_oracle() {
        let m = simple_model();
        // 407 pixels: one full 256-pixel tile plus a 151-pixel remainder.
        let dims = CubeDims::new(37, 11, 4);
        let data = synthetic_pixels(dims.pixels(), dims.bands);
        let cube = Cube::from_vec(dims, Interleave::Bip, data).unwrap();
        for constraint in ALL_CONSTRAINTS {
            let oracle = m.classify_cube(&cube, constraint).unwrap();
            let (batched, timings) = m.classify_cube_batched_timed(&cube, constraint).unwrap();
            assert_eq!(batched, oracle, "constraint {constraint:?}");
            assert!(timings.unmix_s >= 0.0 && timings.argmax_s >= 0.0);
        }
        // Non-BIP input goes through the same conversion as the oracle.
        let bsq = cube.to_interleave(Interleave::Bsq).into_owned();
        assert_eq!(
            m.classify_cube_batched(&bsq, AbundanceConstraint::SumToOneNonNeg)
                .unwrap(),
            m.classify_cube(&cube, AbundanceConstraint::SumToOneNonNeg)
                .unwrap()
        );
        let wrong_bands = Cube::zeros(CubeDims::new(2, 2, 3), Interleave::Bip).unwrap();
        assert!(m
            .classify_cube_batched(&wrong_bands, AbundanceConstraint::None)
            .is_err());
    }

    #[test]
    fn batched_results_invariant_under_thread_count() {
        let m = simple_model();
        let pixels = synthetic_pixels(3 * BATCH_TILE_PIXELS + 5, m.bands());
        let mut reference = vec![0.0f64; (3 * BATCH_TILE_PIXELS + 5) * m.count()];
        rayon::with_threads(1, || {
            m.abundances_batch(&pixels, AbundanceConstraint::SumToOneNonNeg, &mut reference)
                .unwrap();
        });
        for threads in [2, 3, 8] {
            let mut got = vec![0.0f64; reference.len()];
            rayon::with_threads(threads, || {
                m.abundances_batch(&pixels, AbundanceConstraint::SumToOneNonNeg, &mut got)
                    .unwrap();
            });
            // Bit-identical, not merely close: tile boundaries and summation
            // order do not depend on the worker count.
            assert!(
                reference.iter().zip(&got).all(|(a, b)| a == b),
                "abundances differ at {threads} threads"
            );
        }
        let n = pixels.len() / m.bands();
        let mut residuals = vec![0.0f64; n];
        rayon::with_threads(1, || m.residuals_batch(&pixels, &mut residuals).unwrap());
        for threads in [2, 3, 8] {
            let mut got = vec![0.0f64; n];
            rayon::with_threads(threads, || m.residuals_batch(&pixels, &mut got).unwrap());
            assert!(
                residuals
                    .iter()
                    .zip(&got)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "residuals differ at {threads} threads"
            );
        }
    }

    #[test]
    fn residuals_batch_is_bit_identical_to_per_pixel_form() {
        // 98 bands and 23 endmembers leave a band tail in all three
        // operator applications; the ragged third tile (29 pixels) ends in
        // a short 5-pixel block.
        let (bands, count) = (98, 23);
        let spectra: Vec<Vec<f32>> = synthetic_pixels(count, bands)
            .chunks_exact(bands)
            .map(|s| s.iter().map(|v| 1.0 + 2.0 * v.abs()).collect())
            .collect();
        let refs: Vec<&[f32]> = spectra.iter().map(Vec::as_slice).collect();
        let m = LinearMixtureModel::new(&refs).unwrap();
        let n = 2 * BATCH_TILE_PIXELS + 29;
        let pixels = synthetic_pixels(n, bands);
        let mut batch = vec![0.0f64; n];
        m.residuals_batch(&pixels, &mut batch).unwrap();
        // The per-pixel expansion with the quadratic form taken as c
        // `dot_f64` row products, summed in row order.
        for (p, px) in pixels.chunks_exact(bands).enumerate() {
            let etb: Vec<f64> = (0..count)
                .map(|i| linalg::dot_f32(m.et.row(i), px))
                .collect();
            let a: Vec<f64> = (0..count)
                .map(|i| linalg::dot_f64(m.gram_inv.row(i), &etb))
                .collect();
            let mut pp = 0.0f64;
            for &v in px {
                let v = v as f64;
                pp += v * v;
            }
            let mut quad = 0.0f64;
            for (i, &ai) in a.iter().enumerate() {
                quad += ai * linalg::dot_f64(m.gram.row(i), &a);
            }
            let want = (pp - 2.0 * linalg::dot_f64(&etb, &a) + quad).max(0.0);
            assert_eq!(
                batch[p].to_bits(),
                want.to_bits(),
                "pixel {p}: batch {} per-pixel {want}",
                batch[p]
            );
        }
    }

    #[test]
    fn residuals_batch_matches_residual_norm2() {
        let m = simple_model();
        let n = BATCH_TILE_PIXELS + 13;
        let pixels = synthetic_pixels(n, m.bands());
        let mut batch = vec![0.0f64; n];
        m.residuals_batch(&pixels, &mut batch).unwrap();
        for (p, px) in pixels.chunks_exact(m.bands()).enumerate() {
            let oracle = m.residual_norm2(px).unwrap();
            let scale: f64 = px.iter().map(|&v| (v as f64) * (v as f64)).sum::<f64>() + 1.0;
            assert!(
                (batch[p] - oracle).abs() <= 1e-9 * scale,
                "pixel {p}: batch {} oracle {oracle}",
                batch[p]
            );
            assert!(batch[p] >= 0.0);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        // The batched operator path must agree with the per-pixel
        // factorization oracle for every constraint on random models and
        // random (possibly negative) pixels.
        #[test]
        fn prop_batch_agrees_with_oracle(seed in 0u64..1u64 << 48) {
            let mut state = seed | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 40) as f64 / (1u64 << 24) as f64
            };
            let bands = 4 + (next() * 20.0) as usize; // 4..24
            let count = 2 + (next() * 3.0) as usize; // 2..5 (≤ bands)
            let npix = 1 + (next() * 40.0) as usize;
            let spectra: Vec<Vec<f32>> = (0..count)
                .map(|_| (0..bands).map(|_| 0.05 + next() as f32 * 9.95).collect())
                .collect();
            let refs: Vec<&[f32]> = spectra.iter().map(|s| s.as_slice()).collect();
            let model = LinearMixtureModel::new(&refs).unwrap();
            let pixels: Vec<f32> = (0..npix * bands)
                .map(|_| next() as f32 * 11.0 - 1.0)
                .collect();
            for constraint in ALL_CONSTRAINTS {
                let mut batch = vec![0.0f64; npix * count];
                model.abundances_batch(&pixels, constraint, &mut batch).unwrap();
                for (p, px) in pixels.chunks_exact(bands).enumerate() {
                    let oracle = model.abundances(px, constraint).unwrap();
                    for (b, o) in batch[p * count..(p + 1) * count].iter().zip(&oracle) {
                        proptest::prop_assert!(
                            (b - o).abs() <= 1e-9 * (1.0 + o.abs()),
                            "constraint {:?}: batch {} vs oracle {}",
                            constraint,
                            b,
                            o
                        );
                    }
                }
            }
        }
    }
}
