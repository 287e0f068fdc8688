//! CPU reference implementations of the AMC morphological stage.
//!
//! The paper's baselines are "hand-tuned to exploit data locality and
//! maximize computation reuse" and built two ways: gcc 4.0 (scalar code) and
//! icc 9.0 (autovectorised SSE). We model both *code shapes*:
//!
//! * [`run_scalar`] — straightforward scalar band loops (what gcc emits);
//! * [`run_simd4`] — the same computation blocked into 4-wide lanes exactly
//!   like the GPU's RGBA packing (the form icc's autovectoriser produces).
//!
//! Both return identical classifications (floating-point grouping differs
//! within tolerance) plus an exact operation count; the *compiler/platform*
//! distinction (how fast those operations retire on a Northwood vs Prescott,
//! gcc vs icc) is applied by `gpu_sim::timing::cpu_time_ms`.

use crate::kernels;
use crate::layout;
use gpu_sim::timing::CpuWork;
use hsi::cube::Cube;
use hsi::morphology::{self, MeiImage, MorphResult, StructuringElement};

/// Floating-point operations we charge per band per SID evaluation
/// (2 ε-guards, reciprocal, ratio multiply, log, ln-scale multiply,
/// difference, product, accumulate).
pub const FLOPS_PER_SID_BAND: u64 = 9;

/// Result of one CPU AMC morphological run.
#[derive(Debug, Clone)]
pub struct CpuAmcResult {
    /// The MEI score image.
    pub mei: MeiImage,
    /// Erosion/dilation selection per pixel.
    pub morph: MorphResult,
    /// Counted work for the timing model.
    pub work: CpuWork,
}

/// Analytic operation count of the morphological stage for a cube of the
/// given dimensions and a `p_b`-neighbour SE — the same formula for both
/// code shapes (they execute the same arithmetic).
pub fn amc_work(dims: hsi::cube::CubeDims, p_b: usize) -> CpuWork {
    let pixels = dims.pixels() as u64;
    let n = dims.bands as u64;
    let p_b = p_b as u64;
    // Normalization: N adds (band sum) + N multiplies per pixel.
    let normalize = 2 * n;
    // Cumulative field: (p_B − 1) non-null neighbours, one SID each.
    let field = (p_b - 1) * n * FLOPS_PER_SID_BAND;
    // Min/max: two comparisons per neighbour.
    let minmax = 2 * p_b;
    // MEI: one SID between the selected extrema.
    let mei = n * FLOPS_PER_SID_BAND;
    let flops = pixels * (normalize + field + minmax + mei);
    // Streaming traffic: read the cube, write/read the normalized copy,
    // plus the small field/score rasters (2 f32 reads + 3 f32 writes/pixel).
    let bytes = dims.samples() as u64 * 4 * 3 + pixels * 4 * 5;
    CpuWork { flops, bytes }
}

/// Scalar ("gcc-shaped") implementation: per-pixel band loops using the
/// natural-log SID of the `hsi` crate.
pub fn run_scalar(cube: &Cube, se: &StructuringElement) -> CpuAmcResult {
    let normalized = morphology::normalize_cube(cube);
    let (mei, morph) = morphology::mei(&normalized, se);
    CpuAmcResult {
        mei,
        morph,
        work: amc_work(cube.dims(), se.len()),
    }
}

/// SIMD4 ("icc-shaped") implementation: bands processed in groups of four
/// lanes with per-lane ε-guards and `log2·ln2`, exactly the arithmetic of
/// the GPU kernels.
pub fn run_simd4(cube: &Cube, se: &StructuringElement) -> CpuAmcResult {
    let dims = cube.dims();
    let (w, h) = (dims.width, dims.height);
    let groups = layout::band_groups(dims.bands);
    let offsets = se.offsets();

    // Normalization over packed 4-lane planes.
    let packed = layout::pack_cube(cube);
    let mut norm: Vec<Vec<f32>> = packed.clone();
    for y in 0..h {
        for x in 0..w {
            let base = (y * w + x) * 4;
            let mut sum = 0.0f32;
            for plane in &packed {
                sum += plane[base] + plane[base + 1] + plane[base + 2] + plane[base + 3];
            }
            let inv = 1.0 / sum.max(1e-30);
            for plane in norm.iter_mut() {
                for lane in 0..4 {
                    plane[base + lane] *= inv;
                }
            }
        }
    }

    let texel = |plane: &Vec<f32>, x: i64, y: i64| -> [f32; 4] {
        let cx = x.clamp(0, w as i64 - 1) as usize;
        let cy = y.clamp(0, h as i64 - 1) as usize;
        let base = (cy * w + cx) * 4;
        [
            plane[base],
            plane[base + 1],
            plane[base + 2],
            plane[base + 3],
        ]
    };

    let sid4 = |ax: i64, ay: i64, bx: i64, by: i64| -> f32 {
        let mut acc = 0.0f32;
        for plane in norm.iter().take(groups) {
            let p = texel(plane, ax, ay);
            let q = texel(plane, bx, by);
            acc += kernels::sid_partial_value(p, q);
        }
        acc
    };

    // Cumulative field: one accumulator chain over (offset, band group),
    // the order the GPU's distance passes add their partials in, so every
    // rounding matches.
    let mut field = vec![0.0f32; w * h];
    for y in 0..h as i64 {
        for x in 0..w as i64 {
            let mut acc = 0.0f32;
            for &(dx, dy) in offsets.iter().filter(|&&o| o != (0, 0)) {
                for plane in norm.iter().take(groups) {
                    let p = texel(plane, x, y);
                    let q = texel(plane, x + dx as i64, y + dy as i64);
                    acc += kernels::sid_partial_value(p, q);
                }
            }
            field[y as usize * w + x as usize] = acc;
        }
    }

    let morph = morphology::erode_dilate_from_field(w, h, se, &field);

    // MEI between the selected extrema.
    let mut scores = vec![0.0f32; w * h];
    for y in 0..h {
        for x in 0..w {
            let i = y * w + x;
            let (mindx, mindy) = offsets[morph.min_index[i] as usize];
            let (maxdx, maxdy) = offsets[morph.max_index[i] as usize];
            scores[i] = sid4(
                x as i64 + maxdx as i64,
                y as i64 + maxdy as i64,
                x as i64 + mindx as i64,
                y as i64 + mindy as i64,
            );
        }
    }

    CpuAmcResult {
        mei: MeiImage {
            width: w,
            height: h,
            scores,
        },
        morph,
        work: amc_work(dims, se.len()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsi::cube::{CubeDims, Interleave};

    fn test_cube(w: usize, h: usize, bands: usize) -> Cube {
        let mut state = 0xDEADBEEFu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 40) as f32 / 16777216.0
        };
        Cube::from_fn(CubeDims::new(w, h, bands), Interleave::Bip, |_, _, _| {
            10.0 + 100.0 * next()
        })
        .unwrap()
    }

    #[test]
    fn scalar_and_simd4_agree_within_tolerance() {
        let cube = test_cube(10, 8, 7);
        let se = StructuringElement::square(3).unwrap();
        let a = run_scalar(&cube, &se);
        let b = run_simd4(&cube, &se);
        assert_eq!(a.morph.min_index, b.morph.min_index);
        assert_eq!(a.morph.max_index, b.morph.max_index);
        for (x, y) in a.mei.scores.iter().zip(&b.mei.scores) {
            assert!((x - y).abs() < 1e-4 * (1.0 + x.abs()), "{x} vs {y}");
        }
        assert_eq!(a.work, b.work);
    }

    #[test]
    fn work_formula_scales_linearly_in_pixels() {
        let d1 = CubeDims::new(100, 100, 216);
        let d2 = CubeDims::new(100, 200, 216);
        let w1 = amc_work(d1, 9);
        let w2 = amc_work(d2, 9);
        assert_eq!(w2.flops, 2 * w1.flops);
        assert_eq!(w2.bytes, 2 * w1.bytes);
    }

    #[test]
    fn work_formula_known_value() {
        // 1 pixel, 4 bands, 9 neighbours:
        // normalize 8 + field 8·4·9 = 288 + minmax 18 + mei 36 = 350.
        let w = amc_work(CubeDims::new(1, 1, 4), 9);
        assert_eq!(w.flops, 350);
    }

    #[test]
    fn simd4_handles_band_padding() {
        // 6 bands → 2 groups with 2 padded lanes.
        let cube = test_cube(6, 6, 6);
        let se = StructuringElement::square(3).unwrap();
        let a = run_scalar(&cube, &se);
        let b = run_simd4(&cube, &se);
        assert_eq!(a.morph.max_index, b.morph.max_index);
        for (x, y) in a.mei.scores.iter().zip(&b.mei.scores) {
            assert!((x - y).abs() < 1e-4 * (1.0 + x.abs()));
        }
    }

    #[test]
    fn results_identify_boundary_structure() {
        // Two-material half-planes: MEI concentrates at the boundary for
        // both implementations.
        let a_mat = [100.0f32, 10.0, 10.0, 20.0];
        let b_mat = [10.0f32, 10.0, 100.0, 20.0];
        let cube = Cube::from_fn(CubeDims::new(8, 4, 4), Interleave::Bip, |x, _, b| {
            if x < 4 {
                a_mat[b]
            } else {
                b_mat[b]
            }
        })
        .unwrap();
        let se = StructuringElement::square(3).unwrap();
        for result in [run_scalar(&cube, &se), run_simd4(&cube, &se)] {
            // The window at x=4 spans both materials; tie-breaking makes it
            // the first column whose erosion/dilation pixels differ.
            assert!(result.mei.get(4, 2) > 1e-3);
            assert!(result.mei.get(0, 2) < 1e-6);
            assert!(result.mei.get(7, 2) < 1e-6);
        }
    }
}
