//! Extended mathematical morphology for hyperspectral cubes.
//!
//! Implements the paper's eqs. 1, 5 and 6. Reading eq. 1 literally, the
//! cumulative distance is a per-pixel **field**
//!
//! ```text
//! D_B[f(x,y)] = Σ_{(i,j) ∈ B} SID(f(x,y), f(x+i, y+j))
//! ```
//!
//! and extended erosion/dilation (eqs. 5–6) select the SE neighbour whose
//! *field value* is minimal/maximal:
//!
//! ```text
//! (f Θ B)(x,y) = argmin_{(i,j)} D_B[f(x+i, y+j)]
//! (f ⊕ B)(x,y) = argmax_{(i,j)} D_B[f(x+i, y+j)]
//! ```
//!
//! This is the variant whose complexity matches the paper's stated
//! `O(p_f · p_B · N)` and whose `accum_k` streams (one cumulative stream per
//! SE neighbour, Section 3.2) the GPU pipeline materialises.
//!
//! The per-pixel **MEI** score (step 2 of AMC) is the SID between the
//! dilation and erosion pixels of each neighbourhood.
//!
//! This is the one configuration the reproduction evaluates: SID orders
//! the pixels (eq. 2) and `B` is a square of odd side (the paper's 3×3).
//!
//! Borders use clamp-to-edge semantics, matching the `CLAMP_TO_EDGE` texture
//! addressing the GPU implementation inherits from the graphics pipeline.

use crate::cube::Cube;
use crate::error::{HsiError, Result};
use crate::spectral::sid_normalized;
use rayon::prelude::*;

/// A flat (unweighted) square structuring element of odd side, anchored at
/// its centre. The paper evaluates with 3×3.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructuringElement {
    side: usize,
}

impl StructuringElement {
    /// A full square SE of side `side`.
    pub fn square(side: usize) -> Result<Self> {
        if side == 0 {
            return Err(HsiError::InvalidStructuringElement {
                reason: "zero-sized".into(),
            });
        }
        if side.is_multiple_of(2) {
            return Err(HsiError::InvalidStructuringElement {
                reason: format!("side {side} must be odd so the anchor is central"),
            });
        }
        Ok(Self { side })
    }

    /// SE extent.
    pub fn extent(&self) -> (usize, usize) {
        (self.side, self.side)
    }

    /// Horizontal radius (`side / 2`).
    pub fn radius_x(&self) -> usize {
        self.side / 2
    }

    /// Vertical radius (`side / 2`) — the chunk halo the SE requires.
    ///
    /// Note the *field* semantics need a halo of `2 * radius_y` lines for
    /// chunked processing to be exact: the field at a neighbour one radius
    /// away itself looks one radius further.
    pub fn radius_y(&self) -> usize {
        self.side / 2
    }

    /// Number of neighbours (the paper's `p_B`).
    pub fn len(&self) -> usize {
        self.side * self.side
    }

    /// True if the SE has no cells (cannot happen via [`Self::square`]).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Offsets `(dx, dy)` relative to the anchor, row-major order.
    ///
    /// The order is deterministic: it defines the neighbour indices the GPU
    /// pipeline's `accum_k` streams use, so CPU and GPU paths agree on which
    /// "neighbour 0" is.
    pub fn offsets(&self) -> Vec<(i32, i32)> {
        let r = self.radius_x() as i32;
        (-r..=r)
            .flat_map(|dy| (-r..=r).map(move |dx| (dx, dy)))
            .collect()
    }
}

/// Per-pixel result of one extended erosion + dilation pass.
#[derive(Debug, Clone)]
pub struct MorphResult {
    /// Image width.
    pub width: usize,
    /// Image height.
    pub height: usize,
    /// For each pixel, the SE-offset index (into [`StructuringElement::offsets`])
    /// of the **erosion** pixel: minimum cumulative distance (eq. 5).
    pub min_index: Vec<u32>,
    /// SE-offset index of the **dilation** pixel: maximum cumulative distance
    /// (eq. 6).
    pub max_index: Vec<u32>,
    /// Field value `D_B` at the erosion pixel.
    pub min_value: Vec<f32>,
    /// Field value `D_B` at the dilation pixel.
    pub max_value: Vec<f32>,
}

/// The MEI score image (step 2 of AMC).
#[derive(Debug, Clone)]
pub struct MeiImage {
    /// Image width.
    pub width: usize,
    /// Image height.
    pub height: usize,
    /// Row-major MEI scores.
    pub scores: Vec<f32>,
}

impl MeiImage {
    /// Score at `(x, y)`.
    pub fn get(&self, x: usize, y: usize) -> f32 {
        self.scores[y * self.width + x]
    }

    /// Coordinates `(x, y)` of the highest score; the first maximum in
    /// row-major order wins ties. `None` for an empty image.
    pub fn peak(&self) -> Option<(usize, usize)> {
        let mut best: Option<(usize, f32)> = None;
        for (i, &v) in self.scores.iter().enumerate() {
            if best.is_none_or(|(_, b)| v > b) {
                best = Some((i, v));
            }
        }
        best.map(|(i, _)| (i % self.width, i / self.width))
    }
}

#[inline(always)]
fn clamp_coord(v: i64, max: usize) -> usize {
    v.clamp(0, max as i64 - 1) as usize
}

/// Normalize every pixel of a cube (eqs. 3–4), producing a BIP cube of
/// probability spectra — the output of the pipeline's Normalization stage.
pub fn normalize_cube(cube: &Cube) -> Cube {
    let dims = cube.dims();
    let mut data = cube
        .to_interleave(crate::cube::Interleave::Bip)
        .into_owned()
        .into_vec();
    data.par_chunks_mut(dims.bands).for_each(|px| {
        let sum: f32 = px.iter().sum();
        if sum > f32::MIN_POSITIVE {
            let inv = 1.0 / sum;
            px.iter_mut().for_each(|v| *v *= inv);
        } else {
            px.fill(1.0 / dims.bands as f32);
        }
    });
    Cube::from_vec(dims, crate::cube::Interleave::Bip, data)
        .expect("normalize preserves dimensions")
}

/// Compute the cumulative-distance **field** `D_B` (eq. 1) for every pixel:
/// `field[y*w + x] = Σ_{δ∈B} SID(f(x,y), f((x,y)+δ))` with clamped borders.
///
/// `normalized` must be a BIP cube of normalized spectra (see
/// [`normalize_cube`]).
pub fn cumulative_field(normalized: &Cube, se: &StructuringElement) -> Vec<f32> {
    let dims = normalized.dims();
    let (w, h) = (dims.width, dims.height);
    let offsets = se.offsets();
    let mut field = vec![0.0f32; w * h];
    field.par_chunks_mut(w).enumerate().for_each(|(y, row)| {
        for (x, slot) in row.iter_mut().enumerate() {
            let centre = normalized
                .pixel_slice(x, y)
                .expect("normalized cube is BIP");
            let mut acc = 0.0f32;
            for &(dx, dy) in &offsets {
                let nx = clamp_coord(x as i64 + dx as i64, w);
                let ny = clamp_coord(y as i64 + dy as i64, h);
                let other = normalized
                    .pixel_slice(nx, ny)
                    .expect("normalized cube is BIP");
                acc += sid_normalized(centre, other);
            }
            *slot = acc;
        }
    });
    field
}

/// Extended erosion and dilation (eqs. 5–6): per pixel, the SE neighbour
/// index whose field value is minimal (erosion) and maximal (dilation).
///
/// Ties keep the first neighbour in [`StructuringElement::offsets`] order,
/// matching the GPU min/max kernel's strict comparisons.
pub fn erode_dilate(normalized: &Cube, se: &StructuringElement) -> MorphResult {
    let field = cumulative_field(normalized, se);
    erode_dilate_from_field(
        normalized.dims().width,
        normalized.dims().height,
        se,
        &field,
    )
}

/// Erosion/dilation selection given a precomputed cumulative field.
pub fn erode_dilate_from_field(
    width: usize,
    height: usize,
    se: &StructuringElement,
    field: &[f32],
) -> MorphResult {
    assert_eq!(field.len(), width * height, "field size");
    let offsets = se.offsets();
    let (w, h) = (width, height);
    let mut min_index = vec![0u32; w * h];
    let mut max_index = vec![0u32; w * h];
    let mut min_value = vec![0.0f32; w * h];
    let mut max_value = vec![0.0f32; w * h];

    min_index
        .par_chunks_mut(w)
        .zip(max_index.par_chunks_mut(w))
        .zip(min_value.par_chunks_mut(w))
        .zip(max_value.par_chunks_mut(w))
        .enumerate()
        .for_each(|(y, (((mini, maxi), minv), maxv))| {
            for x in 0..w {
                let mut kmin = 0usize;
                let mut kmax = 0usize;
                let mut vmin = f32::INFINITY;
                let mut vmax = f32::NEG_INFINITY;
                for (k, &(dx, dy)) in offsets.iter().enumerate() {
                    let nx = clamp_coord(x as i64 + dx as i64, w);
                    let ny = clamp_coord(y as i64 + dy as i64, h);
                    let d = field[ny * w + nx];
                    if d < vmin {
                        vmin = d;
                        kmin = k;
                    }
                    if d > vmax {
                        vmax = d;
                        kmax = k;
                    }
                }
                mini[x] = kmin as u32;
                maxi[x] = kmax as u32;
                minv[x] = vmin;
                maxv[x] = vmax;
            }
        });

    MorphResult {
        width: w,
        height: h,
        min_index,
        max_index,
        min_value,
        max_value,
    }
}

/// Resolve an SE neighbour index at `(x, y)` back to clamped image
/// coordinates.
pub fn neighbour_coords(
    se_offsets: &[(i32, i32)],
    width: usize,
    height: usize,
    x: usize,
    y: usize,
    index: u32,
) -> (usize, usize) {
    let (dx, dy) = se_offsets[index as usize];
    (
        clamp_coord(x as i64 + dx as i64, width),
        clamp_coord(y as i64 + dy as i64, height),
    )
}

fn mei_from_morph(normalized: &Cube, se: &StructuringElement, morph: &MorphResult) -> MeiImage {
    let offsets = se.offsets();
    let (w, h) = (morph.width, morph.height);
    let mut scores = vec![0.0f32; w * h];
    scores.par_chunks_mut(w).enumerate().for_each(|(y, row)| {
        for (x, slot) in row.iter_mut().enumerate() {
            let i = y * w + x;
            let (minx, miny) = neighbour_coords(&offsets, w, h, x, y, morph.min_index[i]);
            let (maxx, maxy) = neighbour_coords(&offsets, w, h, x, y, morph.max_index[i]);
            let pmin = normalized
                .pixel_slice(minx, miny)
                .expect("normalized cube is BIP");
            let pmax = normalized
                .pixel_slice(maxx, maxy)
                .expect("normalized cube is BIP");
            *slot = sid_normalized(pmax, pmin);
        }
    });
    MeiImage {
        width: w,
        height: h,
        scores,
    }
}

/// Compute the MEI image with the paper's field semantics.
pub fn mei(normalized: &Cube, se: &StructuringElement) -> (MeiImage, MorphResult) {
    let morph = erode_dilate(normalized, se);
    let img = mei_from_morph(normalized, se, &morph);
    (img, morph)
}

/// Convenience wrapper: normalize a raw cube and compute its MEI image.
pub fn mei_of_raw(cube: &Cube, se: &StructuringElement) -> (MeiImage, MorphResult) {
    let normalized = normalize_cube(cube);
    mei(&normalized, se)
}

/// Materialise the extended-erosion image: each output pixel is the full
/// spectral vector of its neighbourhood's erosion pixel (the most spectrally
/// typical neighbour, eq. 5).
///
/// Together with [`dilate_image`] this supports the *sequences of extended
/// morphological transformations* of the paper's reference \[11\]
/// (opening/closing by composition).
pub fn erode_image(raw: &Cube, normalized: &Cube, se: &StructuringElement) -> Cube {
    select_image(raw, normalized, se, true)
}

/// Materialise the extended-dilation image: each output pixel is the
/// spectral vector of the most spectrally distinct neighbour (eq. 6).
pub fn dilate_image(raw: &Cube, normalized: &Cube, se: &StructuringElement) -> Cube {
    select_image(raw, normalized, se, false)
}

fn select_image(raw: &Cube, normalized: &Cube, se: &StructuringElement, erosion: bool) -> Cube {
    let dims = raw.dims();
    assert_eq!(dims, normalized.dims(), "raw/normalized dims must match");
    let morph = erode_dilate(normalized, se);
    let offsets = se.offsets();
    let (w, h) = (dims.width, dims.height);
    let src = raw.to_interleave(crate::cube::Interleave::Bip);
    let mut out = vec![0.0f32; dims.samples()];
    out.par_chunks_mut(w * dims.bands)
        .enumerate()
        .for_each(|(y, row)| {
            for x in 0..w {
                let i = y * w + x;
                let idx = if erosion {
                    morph.min_index[i]
                } else {
                    morph.max_index[i]
                };
                let (sx, sy) = neighbour_coords(&offsets, w, h, x, y, idx);
                let px = src.pixel_slice(sx, sy).expect("BIP");
                row[x * dims.bands..(x + 1) * dims.bands].copy_from_slice(px);
            }
        });
    Cube::from_vec(dims, crate::cube::Interleave::Bip, out).expect("dims preserved")
}

/// Extended morphological **opening**: erosion followed by dilation.
///
/// Removes bright (spectrally anomalous) details smaller than the SE while
/// preserving the background — the building block of the derivative
/// morphological profiles in the paper's reference \[11\].
pub fn open_image(raw: &Cube, se: &StructuringElement) -> Cube {
    let norm = normalize_cube(raw);
    let eroded = erode_image(raw, &norm, se);
    let eroded_norm = normalize_cube(&eroded);
    dilate_image(&eroded, &eroded_norm, se)
}

/// Extended morphological **closing**: dilation followed by erosion.
pub fn close_image(raw: &Cube, se: &StructuringElement) -> Cube {
    let norm = normalize_cube(raw);
    let dilated = dilate_image(raw, &norm, se);
    let dilated_norm = normalize_cube(&dilated);
    erode_image(&dilated, &dilated_norm, se)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube::{Cube, CubeDims, Interleave};

    fn two_material_cube() -> Cube {
        // 5x5 cube, 3 bands: background material A everywhere, a single
        // anomalous pixel of material B at (2,2).
        let a = [10.0f32, 20.0, 30.0];
        let b = [30.0f32, 20.0, 10.0];
        Cube::from_fn(CubeDims::new(5, 5, 3), Interleave::Bip, |x, y, band| {
            if (x, y) == (2, 2) {
                b[band]
            } else {
                a[band]
            }
        })
        .unwrap()
    }

    #[test]
    fn se_constructors() {
        let sq = StructuringElement::square(3).unwrap();
        assert_eq!(sq.extent(), (3, 3));
        assert_eq!(sq.len(), 9);
        assert_eq!(sq.radius_x(), 1);
        assert_eq!(sq.radius_y(), 1);
        assert!(!sq.is_empty());

        let sq5 = StructuringElement::square(5).unwrap();
        assert_eq!(sq5.extent(), (5, 5));
        assert_eq!(sq5.len(), 25);
        assert_eq!(sq5.radius_y(), 2);
        let offs = sq5.offsets();
        assert_eq!(offs.len(), 25);
        assert_eq!((offs[0], offs[1], offs[5]), ((-2, -2), (-1, -2), (-2, -1)));
        assert_eq!(offs[24], (2, 2));
    }

    #[test]
    fn se_rejects_even_and_empty() {
        assert!(StructuringElement::square(0).is_err());
        assert!(StructuringElement::square(2).is_err());
        assert!(StructuringElement::square(4).is_err());
    }

    #[test]
    fn offsets_are_centred_and_ordered() {
        let se = StructuringElement::square(3).unwrap();
        let offs = se.offsets();
        assert_eq!(offs.len(), 9);
        assert_eq!(offs[0], (-1, -1));
        assert_eq!(offs[4], (0, 0));
        assert_eq!(offs[8], (1, 1));
        let sum: (i32, i32) = offs
            .iter()
            .fold((0, 0), |acc, &(x, y)| (acc.0 + x, acc.1 + y));
        assert_eq!(sum, (0, 0));
    }

    #[test]
    fn normalize_cube_rows_sum_to_one() {
        let cube = two_material_cube();
        let norm = normalize_cube(&cube);
        for y in 0..5 {
            for x in 0..5 {
                let p = norm.pixel_slice(x, y).unwrap();
                let s: f32 = p.iter().sum();
                assert!((s - 1.0).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn field_is_zero_on_uniform_regions() {
        let cube = two_material_cube();
        let norm = normalize_cube(&cube);
        let se = StructuringElement::square(3).unwrap();
        let field = cumulative_field(&norm, &se);
        // Far corner sees only material A.
        assert!(field[0].abs() < 1e-5);
        assert!(field[4].abs() < 1e-5);
    }

    #[test]
    fn field_peaks_at_anomalous_pixel() {
        let cube = two_material_cube();
        let norm = normalize_cube(&cube);
        let se = StructuringElement::square(3).unwrap();
        let field = cumulative_field(&norm, &se);
        // The anomaly differs from all 8 neighbours: its field value is the
        // global maximum.
        let peak_idx = field
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!((peak_idx % 5, peak_idx / 5), (2, 2));
        // A neighbour of the anomaly accumulates exactly one SID term; the
        // anomaly accumulates eight.
        let d_neighbour = field[2 * 5 + 1]; // (1,2)
        let d_anomaly = field[2 * 5 + 2];
        assert!(
            (d_anomaly / d_neighbour - 8.0).abs() < 1e-3,
            "{d_anomaly} vs {d_neighbour}"
        );
    }

    #[test]
    fn erode_dilate_selects_anomaly_as_dilation() {
        let cube = two_material_cube();
        let norm = normalize_cube(&cube);
        let se = StructuringElement::square(3).unwrap();
        let offsets = se.offsets();
        let m = erode_dilate(&norm, &se);
        // Every window containing (2,2) must pick it as the dilation pixel.
        for y in 1..=3usize {
            for x in 1..=3usize {
                let i = y * 5 + x;
                let (mx, my) = neighbour_coords(&offsets, 5, 5, x, y, m.max_index[i]);
                assert_eq!((mx, my), (2, 2), "window at ({x},{y})");
                // The erosion pixel must NOT be the anomaly.
                let (nx, ny) = neighbour_coords(&offsets, 5, 5, x, y, m.min_index[i]);
                assert_ne!((nx, ny), (2, 2));
                assert!(m.min_value[i] <= m.max_value[i]);
            }
        }
    }

    #[test]
    fn erode_dilate_from_field_matches_combined_path() {
        let cube = two_material_cube();
        let norm = normalize_cube(&cube);
        let se = StructuringElement::square(3).unwrap();
        let field = cumulative_field(&norm, &se);
        let a = erode_dilate(&norm, &se);
        let b = erode_dilate_from_field(5, 5, &se, &field);
        assert_eq!(a.min_index, b.min_index);
        assert_eq!(a.max_index, b.max_index);
        assert_eq!(a.min_value, b.min_value);
        assert_eq!(a.max_value, b.max_value);
    }

    #[test]
    fn mei_peaks_on_windows_containing_anomaly() {
        let cube = two_material_cube();
        let (mei_img, _) = mei_of_raw(&cube, &StructuringElement::square(3).unwrap());
        // Windows far from the anomaly have (near-)zero MEI.
        assert!(mei_img.get(0, 0) < 1e-5);
        assert!(mei_img.get(4, 4) < 1e-5);
        // Windows containing it see SID(material B, material A).
        let peak = mei_img.get(2, 2);
        assert!(peak > 1e-3);
        for y in 1..=3usize {
            for x in 1..=3usize {
                assert!((mei_img.get(x, y) - peak).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn mei_constant_image_is_zero_everywhere() {
        let cube = Cube::from_fn(CubeDims::new(4, 4, 6), Interleave::Bip, |_, _, b| {
            (b + 1) as f32
        })
        .unwrap();
        let (mei_img, morph) = mei_of_raw(&cube, &StructuringElement::square(3).unwrap());
        assert!(mei_img.scores.iter().all(|&s| s.abs() < 1e-6));
        assert!(morph
            .min_value
            .iter()
            .zip(&morph.max_value)
            .all(|(a, b)| a <= b));
    }

    #[test]
    fn erode_image_replaces_anomaly_with_typical_neighbour() {
        let cube = two_material_cube();
        let norm = normalize_cube(&cube);
        let se = StructuringElement::square(3).unwrap();
        let eroded = erode_image(&cube, &norm, &se);
        // Every pixel of the eroded image is material A (the anomaly's
        // neighbourhood selects a typical — A — pixel).
        let a = [10.0f32, 20.0, 30.0];
        for y in 0..5 {
            for x in 0..5 {
                assert_eq!(eroded.pixel(x, y), a.to_vec(), "({x},{y})");
            }
        }
    }

    #[test]
    fn dilate_image_spreads_the_anomaly() {
        let cube = two_material_cube();
        let norm = normalize_cube(&cube);
        let se = StructuringElement::square(3).unwrap();
        let dilated = dilate_image(&cube, &norm, &se);
        // All windows containing (2,2) now carry material B.
        let b = [30.0f32, 20.0, 10.0];
        for y in 1..=3usize {
            for x in 1..=3usize {
                assert_eq!(dilated.pixel(x, y), b.to_vec(), "({x},{y})");
            }
        }
        // Far corners keep material A.
        assert_eq!(dilated.pixel(0, 0), vec![10.0, 20.0, 30.0]);
    }

    #[test]
    fn opening_removes_small_anomaly() {
        // The single-pixel anomaly is smaller than the 3x3 SE: opening
        // (erosion then dilation) must remove it entirely.
        let cube = two_material_cube();
        let se = StructuringElement::square(3).unwrap();
        let opened = open_image(&cube, &se);
        let a = vec![10.0f32, 20.0, 30.0];
        for y in 0..5 {
            for x in 0..5 {
                assert_eq!(opened.pixel(x, y), a, "({x},{y})");
            }
        }
    }

    #[test]
    fn closing_preserves_uniform_regions() {
        // On a constant image, opening and closing are identities.
        let cube = Cube::from_fn(CubeDims::new(4, 4, 3), Interleave::Bip, |_, _, b| {
            (b + 1) as f32 * 5.0
        })
        .unwrap();
        let se = StructuringElement::square(3).unwrap();
        assert_eq!(close_image(&cube, &se), cube);
        assert_eq!(open_image(&cube, &se), cube);
    }

    #[test]
    fn morphology_images_preserve_dims_and_interleave() {
        let cube = two_material_cube();
        let norm = normalize_cube(&cube);
        let se = StructuringElement::square(3).unwrap();
        let e = erode_image(&cube, &norm, &se);
        assert_eq!(e.dims(), cube.dims());
        assert_eq!(e.interleave(), Interleave::Bip);
    }

    #[test]
    fn peak_is_the_first_maximum() {
        let img = MeiImage {
            width: 3,
            height: 2,
            scores: vec![0.5, 0.9, 0.5, 0.1, 0.9, 0.2],
        };
        assert_eq!(img.peak(), Some((1, 0)));
        let img = MeiImage {
            width: 2,
            height: 2,
            scores: vec![0.0, 0.0, 0.0, 0.3],
        };
        assert_eq!(img.peak(), Some((1, 1)));
        let empty = MeiImage {
            width: 0,
            height: 0,
            scores: vec![],
        };
        assert_eq!(empty.peak(), None);
    }

    #[test]
    fn neighbour_coords_clamp_at_borders() {
        let offs = StructuringElement::square(3).unwrap().offsets();
        // Top-left corner, offset (-1,-1) clamps to (0,0).
        assert_eq!(neighbour_coords(&offs, 5, 5, 0, 0, 0), (0, 0));
        // Bottom-right corner, offset (1,1) clamps to (4,4).
        assert_eq!(neighbour_coords(&offs, 5, 5, 4, 4, 8), (4, 4));
    }
}
