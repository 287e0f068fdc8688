//! Output checks, run outside the timed region.
//!
//! * MEI bits and min/max indices must equal `amc_core::cpu::run_simd4`,
//!   which shares the GPU kernels' 4-lane arithmetic. The reference runs in
//!   horizontal strips with a halo of twice the structuring element's
//!   radius (the distance field reads one radius, the erosion/dilation pick
//!   reads the field one radius further), so it covers every pixel while
//!   holding far less memory than the workload itself.
//! * One exception is accepted and counted: an fp32 near-tie. The GPU sums
//!   the cumulative distance as one chain over (offset, band group), while
//!   `run_simd4` sums each offset's band groups first, so two neighbours
//!   whose distances agree to rounding can swap places in the erosion or
//!   dilation pick. Such a pixel passes only if both picks' distances, in
//!   `run_simd4`'s arithmetic, agree within the summation bound `n·ε`, and
//!   the GPU's MEI is bit-equal to the SID of the pair it picked.
//! * Labels at sampled pixels must equal
//!   `LinearMixtureModel::classify_pixel` on the scene's final endmembers.

use crate::workload::SceneOut;
use amc_core::{cpu, kernels};
use hsi::classify::{AmcConfig, AmcOutput};
use hsi::cube::Cube;
use hsi::endmember::spectra;
use hsi::morphology::StructuringElement;
use hsi::unmix::LinearMixtureModel;
use rayon::prelude::*;

/// Body lines per reference strip.
const STRIP_LINES: usize = 16;
/// Label samples per classification.
const LABEL_SAMPLES: usize = 256;

/// SplitMix64 step: the harness's only random source.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The CPU SIMD4 MEI of a whole cube.
pub struct MeiReference {
    mei_bits: Vec<u32>,
    min_index: Vec<u32>,
    max_index: Vec<u32>,
}

impl MeiReference {
    /// Compute the reference strip by strip, strips in parallel.
    pub fn compute(cube: &Cube, se: &StructuringElement) -> Self {
        let dims = cube.dims();
        let (w, h) = (dims.width, dims.height);
        let halo = 2 * se.radius_y();
        let strips: Vec<_> = (0..h.div_ceil(STRIP_LINES))
            .into_par_iter()
            .map(|s| {
                let (y0, y1) = (s * STRIP_LINES, ((s + 1) * STRIP_LINES).min(h));
                let top = y0.saturating_sub(halo);
                let bottom = (y1 + halo).min(h);
                let strip = cube
                    .crop(0, top, w, bottom - top)
                    .expect("strip lies inside the cube");
                let res = cpu::run_simd4(&strip, se);
                let body = (y0 - top) * w..(y1 - top) * w;
                (
                    res.mei.scores[body.clone()]
                        .iter()
                        .map(|s| s.to_bits())
                        .collect::<Vec<_>>(),
                    res.morph.min_index[body.clone()].to_vec(),
                    res.morph.max_index[body].to_vec(),
                )
            })
            .collect();
        let mut r = Self {
            mei_bits: Vec::with_capacity(w * h),
            min_index: Vec::with_capacity(w * h),
            max_index: Vec::with_capacity(w * h),
        };
        for (mei, min, max) in strips {
            r.mei_bits.extend(mei);
            r.min_index.extend(min);
            r.max_index.extend(max);
        }
        r
    }

    /// Compare one scene's MEI and picks with the reference.
    pub fn verdict(
        &self,
        cube: &Cube,
        se: &StructuringElement,
        mei: &[f32],
        min_index: &[u32],
        max_index: &[u32],
    ) -> Verdict {
        let n = self.mei_bits.len();
        if mei.len() != n || min_index.len() != n || max_index.len() != n {
            return Verdict {
                failures: n.max(1),
                near_ties: 0,
            };
        }
        let mut v = Verdict::default();
        for i in 0..n {
            let same_picks = min_index[i] == self.min_index[i] && max_index[i] == self.max_index[i];
            if same_picks && mei[i].to_bits() == self.mei_bits[i] {
                continue;
            }
            let gpu = (min_index[i], max_index[i], mei[i]);
            let reference = (self.min_index[i], self.max_index[i]);
            if !same_picks && near_tie(cube, se, i, gpu, reference) {
                v.near_ties += 1;
            } else {
                v.failures += 1;
            }
        }
        v
    }
}

/// Outcome of checking one scene.
#[derive(Debug, Default, Clone, Copy)]
pub struct Verdict {
    /// Outputs that differ from the oracles.
    pub failures: usize,
    /// Pixels accepted as fp32 near-ties of the erosion/dilation pick.
    pub near_ties: usize,
}

/// Single-pixel distances in exactly `run_simd4`'s arithmetic: the same
/// 4-lane normalisation, partial-SID kernel, summation order and
/// edge clamping.
struct Simd4Pixels<'a> {
    cube: &'a Cube,
    offsets: Vec<(i32, i32)>,
}

impl Simd4Pixels<'_> {
    fn clamp(&self, (x, y): (i64, i64)) -> (usize, usize) {
        let d = self.cube.dims();
        (
            x.clamp(0, d.width as i64 - 1) as usize,
            y.clamp(0, d.height as i64 - 1) as usize,
        )
    }

    fn normalized(&self, at: (i64, i64)) -> Vec<[f32; 4]> {
        let (x, y) = self.clamp(at);
        let mut groups: Vec<[f32; 4]> = self
            .cube
            .pixel(x, y)
            .chunks(4)
            .map(|c| {
                let mut g = [0.0f32; 4];
                g[..c.len()].copy_from_slice(c);
                g
            })
            .collect();
        let mut sum = 0.0f32;
        for g in &groups {
            sum += g[0] + g[1] + g[2] + g[3];
        }
        let inv = 1.0 / sum.max(1e-30);
        for v in groups.iter_mut().flatten() {
            *v *= inv;
        }
        groups
    }

    fn sid4(&self, a: (i64, i64), b: (i64, i64)) -> f32 {
        let (p, q) = (self.normalized(a), self.normalized(b));
        let mut acc = 0.0f32;
        for (p, q) in p.into_iter().zip(q) {
            acc += kernels::sid_partial_value(p, q);
        }
        acc
    }

    /// Cumulative distance of the (clamped) pixel `at`.
    fn field(&self, at: (i64, i64)) -> f32 {
        let (x, y) = self.clamp(at);
        let (x, y) = (x as i64, y as i64);
        let mut acc = 0.0f32;
        for &(dx, dy) in self.offsets.iter().filter(|&&o| o != (0, 0)) {
            acc += self.sid4((x, y), (x + dx as i64, y + dy as i64));
        }
        acc
    }
}

/// Is pixel `i`'s disagreement with the reference an fp32 near-tie?
/// `gpu` is (min pick, max pick, MEI), `reference` is (min pick, max pick).
fn near_tie(
    cube: &Cube,
    se: &StructuringElement,
    i: usize,
    gpu: (u32, u32, f32),
    reference: (u32, u32),
) -> bool {
    let dims = cube.dims();
    let (x, y) = ((i % dims.width) as i64, (i / dims.width) as i64);
    let px = Simd4Pixels {
        cube,
        offsets: se.offsets(),
    };
    // A pick outside the structuring element is never a near-tie.
    if [gpu.0, gpu.1]
        .iter()
        .any(|&k| k as usize >= px.offsets.len())
    {
        return false;
    }
    let at = |k: u32| {
        let (dx, dy) = px.offsets[k as usize];
        (x + dx as i64, y + dy as i64)
    };
    // Recursive summation of n terms rounds by at most n·ε relative.
    let terms = (px.offsets.len() - 1) * dims.bands.div_ceil(4);
    let tol = terms as f32 * f32::EPSILON;
    let tied = |a: u32, b: u32| {
        a == b || {
            let (fa, fb) = (px.field(at(a)), px.field(at(b)));
            (fa - fb).abs() <= tol * fa.abs().max(fb.abs())
        }
    };
    tied(gpu.0, reference.0)
        && tied(gpu.1, reference.1)
        && px.sid4(at(gpu.1), at(gpu.0)).to_bits() == gpu.2.to_bits()
}

/// Per-pixel oracle labels at sampled pixels of one classification.
pub struct LabelReference {
    samples: Vec<(usize, u16)>,
}

impl LabelReference {
    /// Classify `LABEL_SAMPLES` pixels drawn from `sample_seed` one by one
    /// with a model fitted on `out`'s final endmembers.
    pub fn compute(cube: &Cube, out: &AmcOutput, sample_seed: u64) -> Result<Self, String> {
        let model =
            LinearMixtureModel::new(&spectra(&out.endmembers)).map_err(|e| e.to_string())?;
        let constraint = AmcConfig::paper_default(out.class_count()).constraint;
        let width = cube.dims().width;
        let mut state = sample_seed;
        let samples = (0..LABEL_SAMPLES)
            .map(|_| {
                let i = (splitmix64(&mut state) % out.labels.len() as u64) as usize;
                let label = model
                    .classify_pixel(&cube.pixel(i % width, i / width), constraint)
                    .map_err(|e| e.to_string())?;
                Ok((i, label as u16))
            })
            .collect::<Result<_, String>>()?;
        Ok(Self { samples })
    }

    /// Sampled pixels whose label differs from the oracle.
    pub fn mismatches(&self, labels: &[u16]) -> usize {
        self.samples
            .iter()
            .filter(|&&(i, l)| labels.get(i) != Some(&l))
            .count()
    }
}

/// References for every output of one scene.
pub struct SceneReference {
    mei: MeiReference,
    labels: Vec<LabelReference>,
}

impl SceneReference {
    /// Build the references for `out` (and any extra classifications, such
    /// as the untimed accuracy classification of an MEI-only workload).
    pub fn compute(
        cube: &Cube,
        se: &StructuringElement,
        classifications: &[&AmcOutput],
        sample_seed: u64,
    ) -> Result<Self, String> {
        let mut state = sample_seed;
        Ok(Self {
            mei: MeiReference::compute(cube, se),
            labels: classifications
                .iter()
                .map(|out| LabelReference::compute(cube, out, splitmix64(&mut state)))
                .collect::<Result<_, String>>()?,
        })
    }

    /// Check the scene's MEI and every classification's sampled labels.
    pub fn verdict(
        &self,
        cube: &Cube,
        se: &StructuringElement,
        out: &SceneOut,
        classifications: &[&AmcOutput],
    ) -> Verdict {
        let p = &out.pipeline;
        let mut v = self
            .mei
            .verdict(cube, se, &p.mei.scores, &p.min_index, &p.max_index);
        v.failures += self
            .labels
            .iter()
            .zip(classifications)
            .map(|(r, out)| r.mismatches(&out.labels))
            .sum::<usize>()
            + self.labels.len().abs_diff(classifications.len());
        v
    }

    /// Show the checker has teeth: one flipped MEI bit, and separately one
    /// swapped label per classification, must each count as a failure.
    pub fn self_test(
        &self,
        cube: &Cube,
        se: &StructuringElement,
        out: &SceneOut,
        classifications: &[&AmcOutput],
        flip_seed: u64,
    ) -> Result<(), String> {
        if self.verdict(cube, se, out, classifications).failures != 0 {
            return Err("the unperturbed scene does not pass".into());
        }
        let p = &out.pipeline;
        let mut state = flip_seed;
        let mut mei = p.mei.scores.clone();
        let i = (splitmix64(&mut state) % mei.len() as u64) as usize;
        mei[i] = f32::from_bits(mei[i].to_bits() ^ 1);
        if self
            .mei
            .verdict(cube, se, &mei, &p.min_index, &p.max_index)
            .failures
            != 1
        {
            return Err(format!("a flipped MEI bit at pixel {i} was not counted"));
        }
        for (r, c) in self.labels.iter().zip(classifications) {
            let (i, _) = r.samples[(splitmix64(&mut state) % r.samples.len() as u64) as usize];
            let mut labels = c.labels.clone();
            labels[i] = ((labels[i] as usize + 1) % c.class_count()) as u16;
            if r.mismatches(&labels) == 0 {
                return Err(format!("a swapped label at pixel {i} was not counted"));
            }
        }
        Ok(())
    }
}
