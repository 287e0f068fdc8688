//! The complete Automated Morphological Classification (AMC) algorithm —
//! reference CPU implementation.
//!
//! This is the four-step unsupervised classifier of Section 3.1 of the paper:
//!
//! 1. initialize the MEI score image;
//! 2. slide the structuring element over every pixel, compute extended
//!    erosion/dilation and update MEI with the SID between the dilation and
//!    erosion pixels;
//! 3. select the `c` highest-MEI pixel vectors as endmembers and estimate
//!    per-pixel sub-pixel abundances with the standard linear mixture model;
//! 4. label each pixel with the class of its largest abundance fraction.
//!
//! Step 3 selects by MEI-seeded ATGP, the reproduction's documented deviation
//! in that step (see [`crate::endmember`]).
//!
//! The GPU stream implementation in `amc-core` accelerates steps 1–2 (the
//! O(p_f · p_B · N) morphological part, which dominates); this module is the
//! oracle its outputs are validated against.

use crate::cube::{Cube, Interleave};
use crate::endmember::{residual_ranking, select_endmembers_atgp, spectra, Endmember};
use crate::error::Result;
use crate::morphology::{mei, normalize_cube, MeiImage, StructuringElement};
use crate::unmix::{AbundanceConstraint, LinearMixtureModel};

/// Clusters smaller than this are considered starved during refinement and
/// reseeded at high-residual pixels.
const MIN_CLUSTER_PIXELS: u64 = 20;

/// AMC configuration.
///
/// SID always orders the pixels (eq. 2) and MEI-seeded ATGP always picks
/// the endmembers ([`select_endmembers_atgp`]); these are the choices the
/// reproduction evaluates, so they are not configurable.
#[derive(Debug, Clone)]
pub struct AmcConfig {
    /// Square structuring element (the paper evaluates with 3×3).
    pub se: StructuringElement,
    /// Number of classes `c` to extract.
    pub classes: usize,
    /// Abundance constraint for the mixture model.
    pub constraint: AbundanceConstraint,
    /// Iterations of class-mean endmember refinement after the initial
    /// classification (0 = the plain single-pass algorithm).
    pub refine_iterations: usize,
}

impl AmcConfig {
    /// The paper's evaluation configuration: 3×3 SE.
    pub fn paper_default(classes: usize) -> Self {
        Self {
            se: StructuringElement::square(3).expect("3x3 SE is valid"),
            classes,
            constraint: AbundanceConstraint::SumToOneNonNeg,
            refine_iterations: 5,
        }
    }
}

/// Output of one AMC run.
#[derive(Debug, Clone)]
pub struct AmcOutput {
    /// Image width.
    pub width: usize,
    /// Image height.
    pub height: usize,
    /// Row-major class label per pixel (index into `endmembers`).
    pub labels: Vec<u16>,
    /// The MEI score image of step 2.
    pub mei: MeiImage,
    /// Selected endmembers (step 3). May be fewer than requested when the
    /// scene lacks that many distinct signatures.
    pub endmembers: Vec<Endmember>,
}

impl AmcOutput {
    /// Label at `(x, y)`.
    pub fn label(&self, x: usize, y: usize) -> u16 {
        self.labels[y * self.width + x]
    }

    /// Number of classes actually used.
    pub fn class_count(&self) -> usize {
        self.endmembers.len()
    }
}

/// Timing breakdown of the CPU tail (steps 3–4), as reported by
/// [`AmcClassifier::classify_with_mei_timed`].
///
/// `selection_s` and `classify_s` are wall-clock seconds. `unmix_s` and
/// `argmax_s` come from the batched kernels' per-worker timers
/// ([`crate::unmix::BatchTimings`]) and are summed across worker threads: at
/// one worker `unmix_s + argmax_s ≈ classify_s`, at `n` workers the sum can
/// exceed the wall figure because it counts total CPU work.
#[derive(Debug, Clone, Copy, Default)]
pub struct TailBreakdown {
    /// Endmember selection, refinement bookkeeping and reseeding (wall):
    /// `atgp_s + means_s + reseed_s`.
    pub selection_s: f64,
    /// The initial ATGP endmember selection (wall).
    pub atgp_s: f64,
    /// Refinement's class-mean sums, endmember updates and starved-class
    /// list (wall).
    pub means_s: f64,
    /// Reseeding starved classes: the interim model fit,
    /// [`residual_ranking`] and the reassignment (wall).
    pub reseed_s: f64,
    /// Model fitting plus the abundance GEMM + constraint fix-up (CPU, summed
    /// across workers).
    pub unmix_s: f64,
    /// The batched classification calls end to end (wall).
    pub classify_s: f64,
    /// Per-pixel argmax label assignment (CPU, summed across workers).
    pub argmax_s: f64,
}

/// The reference AMC classifier.
#[derive(Debug, Clone)]
pub struct AmcClassifier {
    config: AmcConfig,
}

impl AmcClassifier {
    /// Create a classifier with the given configuration.
    pub fn new(config: AmcConfig) -> Self {
        Self { config }
    }

    /// Borrow the configuration.
    pub fn config(&self) -> &AmcConfig {
        &self.config
    }

    /// Run the full AMC pipeline on a cube.
    pub fn classify(&self, cube: &Cube) -> Result<AmcOutput> {
        let normalized = normalize_cube(cube);
        let (mei_img, _morph) = mei(&normalized, &self.config.se);
        self.classify_with_mei(cube, mei_img)
    }

    /// Run steps 3–4 given a precomputed MEI image (e.g. produced by the GPU
    /// pipeline). This is the CPU tail of the hybrid CPU/GPU partitioning.
    pub fn classify_with_mei(&self, cube: &Cube, mei_img: MeiImage) -> Result<AmcOutput> {
        self.classify_with_mei_timed(cube, mei_img)
            .map(|(out, _)| out)
    }

    /// [`AmcClassifier::classify_with_mei`] plus a [`TailBreakdown`] of where
    /// the tail time went.
    pub fn classify_with_mei_timed(
        &self,
        cube: &Cube,
        mei_img: MeiImage,
    ) -> Result<(AmcOutput, TailBreakdown)> {
        use std::time::Instant;
        let mut tail = TailBreakdown::default();

        let span = trace::span("tail", "selection");
        let t = Instant::now();
        let mut endmembers = select_endmembers_atgp(cube, &mei_img, self.config.classes)?;
        tail.atgp_s += t.elapsed().as_secs_f64();
        drop(span);

        let dims = cube.dims();
        let bip = cube.to_interleave(Interleave::Bip);
        let span = trace::span("tail", "unmix");
        let t = Instant::now();
        let mut model = LinearMixtureModel::new(&spectra(&endmembers))?;
        tail.unmix_s += t.elapsed().as_secs_f64();
        drop(span);
        let span = trace::span("tail", "classify");
        let t = Instant::now();
        let (mut labels, timings) =
            model.classify_cube_batched_timed(&bip, self.config.constraint)?;
        let d = t.elapsed();
        tail.classify_s += d.as_secs_f64();
        trace::metrics::observe("tail.classify_wall", d);
        drop(span);
        tail.unmix_s += timings.unmix_s;
        tail.argmax_s += timings.argmax_s;

        // Endmember refinement: replace each populated cluster's endmember
        // with its class-mean spectrum (averaging out per-pixel mixing and
        // noise); reseed starved clusters at the least-explained pixels.
        for _ in 0..self.config.refine_iterations {
            let span = trace::span("tail", "selection");
            let t = Instant::now();
            let c = endmembers.len();
            let mut sums = vec![vec![0.0f64; dims.bands]; c];
            let mut counts = vec![0u64; c];
            for (i, px) in bip.data().chunks_exact(dims.bands).enumerate() {
                let l = labels[i] as usize;
                for (s, &v) in sums[l].iter_mut().zip(px) {
                    *s += v as f64;
                }
                counts[l] += 1;
            }
            let mut starved = Vec::new();
            for k in 0..c {
                if counts[k] >= MIN_CLUSTER_PIXELS {
                    endmembers[k].spectrum = sums[k]
                        .iter()
                        .map(|v| (*v / counts[k] as f64) as f32)
                        .collect();
                } else {
                    starved.push(k);
                }
            }
            tail.means_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            if !starved.is_empty() {
                let interim = LinearMixtureModel::new(&spectra(&endmembers))?;
                let ranked = residual_ranking(&bip, &interim);
                // Spread reseeds across distinct high-residual sites.
                let stride = (ranked.len() / (starved.len() * 8)).clamp(1, 50);
                for (j, &k) in starved.iter().enumerate() {
                    let (_, x, y) = ranked[(j * stride).min(ranked.len() - 1)];
                    endmembers[k].x = x;
                    endmembers[k].y = y;
                    endmembers[k].score = mei_img.get(x, y);
                    endmembers[k].spectrum = cube.pixel(x, y);
                }
            }
            tail.reseed_s += t.elapsed().as_secs_f64();
            drop(span);
            let span = trace::span("tail", "unmix");
            let t = Instant::now();
            model = LinearMixtureModel::new(&spectra(&endmembers))?;
            tail.unmix_s += t.elapsed().as_secs_f64();
            drop(span);
            let span = trace::span("tail", "classify");
            let t = Instant::now();
            let (new_labels, timings) =
                model.classify_cube_batched_timed(&bip, self.config.constraint)?;
            let d = t.elapsed();
            tail.classify_s += d.as_secs_f64();
            trace::metrics::observe("tail.classify_wall", d);
            drop(span);
            tail.unmix_s += timings.unmix_s;
            tail.argmax_s += timings.argmax_s;
            labels = new_labels;
        }
        tail.selection_s = tail.atgp_s + tail.means_s + tail.reseed_s;

        let out = AmcOutput {
            width: dims.width,
            height: dims.height,
            labels,
            mei: mei_img,
            endmembers,
        };
        Ok((out, tail))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube::{CubeDims, Interleave};

    /// A scene of two vertical half-planes of distinct materials with a
    /// boundary in the middle.
    fn half_plane_cube() -> Cube {
        let a = [100.0f32, 10.0, 10.0];
        let b = [10.0f32, 10.0, 100.0];
        Cube::from_fn(CubeDims::new(10, 6, 3), Interleave::Bip, |x, _, band| {
            if x < 5 {
                a[band]
            } else {
                b[band]
            }
        })
        .unwrap()
    }

    #[test]
    fn paper_default_config() {
        let cfg = AmcConfig::paper_default(30);
        assert_eq!(cfg.classes, 30);
        assert_eq!(cfg.se.extent(), (3, 3));
    }

    #[test]
    fn amc_separates_two_materials() {
        let cube = half_plane_cube();
        let amc = AmcClassifier::new(AmcConfig::paper_default(2));
        let out = amc.classify(&cube).unwrap();
        assert_eq!(out.class_count(), 2);
        assert_eq!(out.width, 10);
        assert_eq!(out.height, 6);
        // All pixels on the same side share a label, and the two sides differ.
        let left = out.label(0, 0);
        let right = out.label(9, 0);
        assert_ne!(left, right);
        for y in 0..6 {
            for x in 0..4 {
                assert_eq!(out.label(x, y), left, "({x},{y})");
            }
            for x in 6..10 {
                assert_eq!(out.label(x, y), right, "({x},{y})");
            }
        }
    }

    #[test]
    fn mei_concentrates_on_material_boundary() {
        let cube = half_plane_cube();
        let amc = AmcClassifier::new(AmcConfig::paper_default(2));
        let out = amc.classify(&cube).unwrap();
        // Boundary windows (x in 4..=5) have high MEI; interiors near zero.
        let boundary = out.mei.get(4, 3).max(out.mei.get(5, 3));
        assert!(boundary > 1e-3);
        assert!(out.mei.get(0, 3) < 1e-6);
        assert!(out.mei.get(9, 3) < 1e-6);
    }

    #[test]
    fn endmembers_come_from_opposite_materials() {
        let cube = half_plane_cube();
        let amc = AmcClassifier::new(AmcConfig::paper_default(2));
        let out = amc.classify(&cube).unwrap();
        let sides: Vec<bool> = out.endmembers.iter().map(|e| e.x < 5).collect();
        assert_ne!(sides[0], sides[1], "endmembers should span both materials");
    }

    #[test]
    fn classify_with_external_mei_matches_full_run() {
        let cube = half_plane_cube();
        let amc = AmcClassifier::new(AmcConfig::paper_default(2));
        let full = amc.classify(&cube).unwrap();
        let normalized = normalize_cube(&cube);
        let (mei_img, _) = mei(&normalized, &amc.config().se);
        let hybrid = amc.classify_with_mei(&cube, mei_img).unwrap();
        assert_eq!(full.labels, hybrid.labels);
    }

    #[test]
    fn classify_with_a_transposed_mei_is_an_error() {
        let cube = half_plane_cube();
        let amc = AmcClassifier::new(AmcConfig::paper_default(2));
        let transposed = MeiImage {
            width: 6,
            height: 10,
            scores: vec![0.0; 60],
        };
        assert_eq!(
            amc.classify_with_mei(&cube, transposed).unwrap_err(),
            crate::error::HsiError::ShapeMismatch {
                left: (6, 10),
                right: (10, 6)
            }
        );
    }

    #[test]
    fn degenerate_scene_still_classifies() {
        // One material only: AMC degrades to a single class.
        let cube = Cube::from_fn(CubeDims::new(5, 5, 3), Interleave::Bip, |_, _, b| {
            (10 * (b + 1)) as f32
        })
        .unwrap();
        let amc = AmcClassifier::new(AmcConfig::paper_default(3));
        let out = amc.classify(&cube).unwrap();
        assert_eq!(out.class_count(), 1);
        assert!(out.labels.iter().all(|&l| l == 0));
    }
}
