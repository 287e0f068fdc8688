//! The hyperspectral data cube.
//!
//! A cube is a `width x height` raster of pixel vectors, each with `bands`
//! spectral samples. AVIRIS-style sensors deliver the cube in one of three
//! interleaves, all of which are supported as storage orders:
//!
//! * **BSQ** (band sequential): band-major, `data[b][y][x]`.
//! * **BIL** (band interleaved by line): `data[y][b][x]`.
//! * **BIP** (band interleaved by pixel): pixel-major, `data[y][x][b]`.
//!
//! The AMC pipeline operates on entire pixel vectors, so BIP is the friendly
//! layout for CPU processing, while the GPU stream mapping (four bands per
//! RGBA texel, see `amc-core::layout`) starts from BSQ band planes.

use crate::error::{HsiError, Result};

/// Dimensions of a hyperspectral cube.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CubeDims {
    /// Number of samples per line (x extent).
    pub width: usize,
    /// Number of lines (y extent).
    pub height: usize,
    /// Number of spectral bands.
    pub bands: usize,
}

impl CubeDims {
    /// Create dimensions.
    pub const fn new(width: usize, height: usize, bands: usize) -> Self {
        Self {
            width,
            height,
            bands,
        }
    }

    /// Total number of samples (`width * height * bands`).
    pub const fn samples(&self) -> usize {
        self.width * self.height * self.bands
    }

    /// Number of pixel vectors (`width * height`).
    pub const fn pixels(&self) -> usize {
        self.width * self.height
    }

    /// Size of the cube in bytes as stored by the sensor (16-bit samples).
    ///
    /// The paper quotes scene sizes (68..547 MB) assuming AVIRIS's 2-byte
    /// integer samples; this method reproduces those figures.
    pub const fn sensor_bytes(&self) -> usize {
        self.samples() * 2
    }

    /// Sensor size in MiB (the paper's "Size (MB)" column).
    pub fn sensor_mib(&self) -> f64 {
        self.sensor_bytes() as f64 / (1024.0 * 1024.0)
    }

    /// Validate that no dimension is zero.
    pub fn validate(&self) -> Result<()> {
        if self.width == 0 {
            return Err(HsiError::EmptyDimension { which: "width" });
        }
        if self.height == 0 {
            return Err(HsiError::EmptyDimension { which: "height" });
        }
        if self.bands == 0 {
            return Err(HsiError::EmptyDimension { which: "bands" });
        }
        Ok(())
    }
}

/// Sample interleave (storage order) of a cube buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Interleave {
    /// Band sequential: `[band][line][sample]`.
    Bsq,
    /// Band interleaved by line: `[line][band][sample]`.
    Bil,
    /// Band interleaved by pixel: `[line][sample][band]`.
    Bip,
}

impl Interleave {
    /// Linear index of `(x, y, band)` under this interleave.
    #[inline(always)]
    pub fn index(&self, dims: CubeDims, x: usize, y: usize, band: usize) -> usize {
        debug_assert!(x < dims.width && y < dims.height && band < dims.bands);
        match self {
            Interleave::Bsq => (band * dims.height + y) * dims.width + x,
            Interleave::Bil => (y * dims.bands + band) * dims.width + x,
            Interleave::Bip => (y * dims.width + x) * dims.bands + band,
        }
    }

    /// All interleaves, for exhaustive tests.
    pub const ALL: [Interleave; 3] = [Interleave::Bsq, Interleave::Bil, Interleave::Bip];

    /// The canonical ENVI header name (`bsq`/`bil`/`bip`).
    pub fn envi_name(&self) -> &'static str {
        match self {
            Interleave::Bsq => "bsq",
            Interleave::Bil => "bil",
            Interleave::Bip => "bip",
        }
    }

    /// Parse an ENVI header name.
    pub fn from_envi_name(name: &str) -> Option<Self> {
        match name.trim().to_ascii_lowercase().as_str() {
            "bsq" => Some(Interleave::Bsq),
            "bil" => Some(Interleave::Bil),
            "bip" => Some(Interleave::Bip),
            _ => None,
        }
    }
}

/// An owned hyperspectral image cube of `f32` samples.
///
/// Radiance values are kept as `f32` in memory (the GPU pipeline works on
/// 32-bit float textures); [`CubeDims::sensor_bytes`] still reports the
/// on-sensor 16-bit size used for the paper's size axis.
#[derive(Debug, Clone, PartialEq)]
pub struct Cube {
    dims: CubeDims,
    interleave: Interleave,
    data: Vec<f32>,
}

impl Cube {
    /// Create a cube from a raw sample buffer.
    pub fn from_vec(dims: CubeDims, interleave: Interleave, data: Vec<f32>) -> Result<Self> {
        dims.validate()?;
        if data.len() != dims.samples() {
            return Err(HsiError::DimensionMismatch {
                expected: dims.samples(),
                actual: data.len(),
            });
        }
        Ok(Self {
            dims,
            interleave,
            data,
        })
    }

    /// Create a zero-filled cube.
    pub fn zeros(dims: CubeDims, interleave: Interleave) -> Result<Self> {
        dims.validate()?;
        Ok(Self {
            dims,
            interleave,
            data: vec![0.0; dims.samples()],
        })
    }

    /// Create a cube by evaluating `f(x, y, band)` at every sample.
    pub fn from_fn<F>(dims: CubeDims, interleave: Interleave, mut f: F) -> Result<Self>
    where
        F: FnMut(usize, usize, usize) -> f32,
    {
        let mut cube = Self::zeros(dims, interleave)?;
        for y in 0..dims.height {
            for x in 0..dims.width {
                for b in 0..dims.bands {
                    let idx = interleave.index(dims, x, y, b);
                    cube.data[idx] = f(x, y, b);
                }
            }
        }
        Ok(cube)
    }

    /// Cube dimensions.
    pub fn dims(&self) -> CubeDims {
        self.dims
    }

    /// Storage interleave.
    pub fn interleave(&self) -> Interleave {
        self.interleave
    }

    /// Raw sample buffer in storage order.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Consume the cube, returning its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Sample at `(x, y, band)`.
    #[inline(always)]
    pub fn get(&self, x: usize, y: usize, band: usize) -> f32 {
        self.data[self.interleave.index(self.dims, x, y, band)]
    }

    /// Set the sample at `(x, y, band)`.
    #[inline(always)]
    pub fn set(&mut self, x: usize, y: usize, band: usize, value: f32) {
        let idx = self.interleave.index(self.dims, x, y, band);
        self.data[idx] = value;
    }

    /// Copy the pixel vector at `(x, y)` into `out` (`out.len() == bands`).
    pub fn pixel_into(&self, x: usize, y: usize, out: &mut [f32]) {
        assert_eq!(out.len(), self.dims.bands, "pixel buffer length");
        match self.interleave {
            Interleave::Bip => {
                let start = (y * self.dims.width + x) * self.dims.bands;
                out.copy_from_slice(&self.data[start..start + self.dims.bands]);
            }
            _ => {
                for (b, slot) in out.iter_mut().enumerate() {
                    *slot = self.get(x, y, b);
                }
            }
        }
    }

    /// Allocate and return the pixel vector at `(x, y)`.
    pub fn pixel(&self, x: usize, y: usize) -> Vec<f32> {
        let mut out = vec![0.0; self.dims.bands];
        self.pixel_into(x, y, &mut out);
        out
    }

    /// Borrow the pixel vector at `(x, y)` without copying.
    ///
    /// Only possible in BIP layout, where a pixel's bands are contiguous.
    pub fn pixel_slice(&self, x: usize, y: usize) -> Option<&[f32]> {
        match self.interleave {
            Interleave::Bip => {
                let start = (y * self.dims.width + x) * self.dims.bands;
                Some(&self.data[start..start + self.dims.bands])
            }
            _ => None,
        }
    }

    /// Borrow a whole band plane (`width * height` samples, line-major).
    ///
    /// Only possible in BSQ layout, where a band's raster is contiguous.
    pub fn band_plane(&self, band: usize) -> Option<&[f32]> {
        match self.interleave {
            Interleave::Bsq => {
                let plane = self.dims.width * self.dims.height;
                Some(&self.data[band * plane..(band + 1) * plane])
            }
            _ => None,
        }
    }

    /// Re-encode the cube into a different interleave.
    ///
    /// Returns `Cow::Borrowed(self)` when the cube is already stored in the
    /// target interleave, so callers that normalize to BIP before a hot loop
    /// pay nothing when the data is already pixel-major. Call `.into_owned()`
    /// when an owned `Cube` is required.
    pub fn to_interleave(&self, target: Interleave) -> std::borrow::Cow<'_, Cube> {
        if target == self.interleave {
            return std::borrow::Cow::Borrowed(self);
        }
        let dims = self.dims;
        let mut data = vec![0.0f32; dims.samples()];
        for y in 0..dims.height {
            for x in 0..dims.width {
                for b in 0..dims.bands {
                    data[target.index(dims, x, y, b)] =
                        self.data[self.interleave.index(dims, x, y, b)];
                }
            }
        }
        std::borrow::Cow::Owned(Cube {
            dims,
            interleave: target,
            data,
        })
    }

    /// Extract the spatial window `[x0, x0+w) x [y0, y0+h)` (all bands).
    pub fn crop(&self, x0: usize, y0: usize, w: usize, h: usize) -> Result<Cube> {
        if w == 0 || h == 0 {
            return Err(HsiError::EmptyDimension { which: "crop" });
        }
        if x0 + w > self.dims.width || y0 + h > self.dims.height {
            return Err(HsiError::OutOfBounds {
                what: format!(
                    "crop {}x{} at ({}, {}) of {}x{} cube",
                    w, h, x0, y0, self.dims.width, self.dims.height
                ),
            });
        }
        let dims = CubeDims::new(w, h, self.dims.bands);
        let mut out = Cube::zeros(dims, self.interleave)?;
        for y in 0..h {
            for x in 0..w {
                for b in 0..dims.bands {
                    out.set(x, y, b, self.get(x0 + x, y0 + y, b));
                }
            }
        }
        Ok(out)
    }

    /// Split the cube into spatial chunks per the chunking policy.
    pub fn chunks(&self, chunking: Chunking) -> ChunkIter<'_> {
        ChunkIter {
            cube: self,
            chunking,
            next_y: 0,
            index: 0,
        }
    }
}

/// Spatial chunking policy.
///
/// The paper splits an image that exceeds GPU memory "into multiple chunks
/// made up of entire pixel vectors": each chunk carries full spectral depth
/// for a contiguous run of lines. The morphological window needs `halo` extra
/// lines on each side so chunked processing matches unchunked output exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chunking {
    /// Number of *output* lines per chunk (excluding halo lines).
    pub lines_per_chunk: usize,
    /// Halo lines replicated above and below each chunk (SE radius).
    pub halo: usize,
}

impl Chunking {
    /// A chunking with the given body size and halo.
    pub fn new(lines_per_chunk: usize, halo: usize) -> Self {
        Self {
            lines_per_chunk: lines_per_chunk.max(1),
            halo,
        }
    }
}

/// One spatial chunk: a sub-cube plus bookkeeping mapping it back to the
/// parent image.
#[derive(Debug, Clone)]
pub struct Chunk {
    /// Chunk ordinal (0-based).
    pub index: usize,
    /// Sub-cube including halo lines.
    pub cube: Cube,
    /// First output line of this chunk in the parent image.
    pub y_start: usize,
    /// Number of output lines (excluding halo).
    pub body_lines: usize,
    /// Halo lines present above the body in `cube`.
    pub halo_top: usize,
    /// Halo lines present below the body in `cube`.
    pub halo_bottom: usize,
}

impl Chunk {
    /// Line range of the body within the chunk-local cube.
    pub fn body_range(&self) -> std::ops::Range<usize> {
        self.halo_top..self.halo_top + self.body_lines
    }
}

/// Iterator over spatial chunks of a cube.
pub struct ChunkIter<'a> {
    cube: &'a Cube,
    chunking: Chunking,
    next_y: usize,
    index: usize,
}

impl Iterator for ChunkIter<'_> {
    type Item = Chunk;

    fn next(&mut self) -> Option<Chunk> {
        let dims = self.cube.dims();
        if self.next_y >= dims.height {
            return None;
        }
        let y_start = self.next_y;
        let body_lines = self.chunking.lines_per_chunk.min(dims.height - y_start);
        let halo_top = self.chunking.halo.min(y_start);
        let halo_bottom = self.chunking.halo.min(dims.height - (y_start + body_lines));
        let y0 = y_start - halo_top;
        let h = halo_top + body_lines + halo_bottom;
        let cube = self
            .cube
            .crop(0, y0, dims.width, h)
            .expect("chunk crop is in bounds by construction");
        let chunk = Chunk {
            index: self.index,
            cube,
            y_start,
            body_lines,
            halo_top,
            halo_bottom,
        };
        self.next_y += body_lines;
        self.index += 1;
        Some(chunk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp_cube(interleave: Interleave) -> Cube {
        let dims = CubeDims::new(4, 3, 5);
        Cube::from_fn(dims, interleave, |x, y, b| (x * 100 + y * 10 + b) as f32).unwrap()
    }

    #[test]
    fn dims_arithmetic() {
        let d = CubeDims::new(2166, 614, 216);
        assert_eq!(d.pixels(), 2166 * 614);
        assert_eq!(d.samples(), 2166 * 614 * 216);
        // The paper's "547 MB" full Indian Pines scene.
        assert!((d.sensor_mib() - 547.9).abs() < 1.0, "{}", d.sensor_mib());
    }

    #[test]
    fn zero_dims_rejected() {
        assert!(matches!(
            Cube::zeros(CubeDims::new(0, 3, 5), Interleave::Bip),
            Err(HsiError::EmptyDimension { which: "width" })
        ));
        assert!(matches!(
            Cube::zeros(CubeDims::new(3, 0, 5), Interleave::Bip),
            Err(HsiError::EmptyDimension { which: "height" })
        ));
        assert!(matches!(
            Cube::zeros(CubeDims::new(3, 3, 0), Interleave::Bip),
            Err(HsiError::EmptyDimension { which: "bands" })
        ));
    }

    #[test]
    fn from_vec_checks_length() {
        let dims = CubeDims::new(2, 2, 2);
        assert!(Cube::from_vec(dims, Interleave::Bsq, vec![0.0; 7]).is_err());
        assert!(Cube::from_vec(dims, Interleave::Bsq, vec![0.0; 8]).is_ok());
    }

    #[test]
    fn get_set_round_trip_all_interleaves() {
        for il in Interleave::ALL {
            let mut cube = Cube::zeros(CubeDims::new(3, 4, 6), il).unwrap();
            cube.set(2, 3, 5, 42.5);
            cube.set(0, 0, 0, -1.0);
            assert_eq!(cube.get(2, 3, 5), 42.5);
            assert_eq!(cube.get(0, 0, 0), -1.0);
            assert_eq!(cube.get(1, 1, 1), 0.0);
        }
    }

    #[test]
    fn interleave_indices_are_bijective() {
        let dims = CubeDims::new(3, 4, 5);
        for il in Interleave::ALL {
            let mut seen = vec![false; dims.samples()];
            for x in 0..dims.width {
                for y in 0..dims.height {
                    for b in 0..dims.bands {
                        let idx = il.index(dims, x, y, b);
                        assert!(!seen[idx], "duplicate index for {il:?}");
                        seen[idx] = true;
                    }
                }
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn interleave_conversion_preserves_samples() {
        let bip = ramp_cube(Interleave::Bip);
        for target in Interleave::ALL {
            let conv = bip.to_interleave(target).into_owned();
            assert_eq!(conv.interleave(), target);
            for x in 0..4 {
                for y in 0..3 {
                    for b in 0..5 {
                        assert_eq!(conv.get(x, y, b), bip.get(x, y, b));
                    }
                }
            }
            // And back.
            let back = conv.to_interleave(Interleave::Bip);
            assert_eq!(*back, bip);
        }
    }

    #[test]
    fn to_interleave_borrows_when_already_in_target_layout() {
        use std::borrow::Cow;
        for il in Interleave::ALL {
            let cube = ramp_cube(il);
            let same = cube.to_interleave(il);
            // No copy: the returned view aliases the original buffer.
            assert!(matches!(same, Cow::Borrowed(_)));
            assert!(std::ptr::eq(same.data().as_ptr(), cube.data().as_ptr()));
            // A genuine conversion still produces an owned re-encoding.
            let other = match il {
                Interleave::Bip => Interleave::Bsq,
                _ => Interleave::Bip,
            };
            let conv = cube.to_interleave(other);
            assert!(matches!(conv, Cow::Owned(_)));
            assert!(!std::ptr::eq(conv.data().as_ptr(), cube.data().as_ptr()));
        }
    }

    #[test]
    fn pixel_accessors_agree() {
        for il in Interleave::ALL {
            let cube = ramp_cube(il);
            let p = cube.pixel(2, 1);
            assert_eq!(p, vec![210.0, 211.0, 212.0, 213.0, 214.0]);
            let mut buf = vec![0.0; 5];
            cube.pixel_into(2, 1, &mut buf);
            assert_eq!(buf, p);
        }
    }

    #[test]
    fn pixel_slice_only_for_bip() {
        let bip = ramp_cube(Interleave::Bip);
        assert_eq!(bip.pixel_slice(1, 2).unwrap(), &bip.pixel(1, 2)[..]);
        let bsq = ramp_cube(Interleave::Bsq);
        assert!(bsq.pixel_slice(1, 2).is_none());
    }

    #[test]
    fn band_plane_only_for_bsq() {
        let bsq = ramp_cube(Interleave::Bsq);
        let plane = bsq.band_plane(3).unwrap();
        assert_eq!(plane.len(), 12);
        assert_eq!(plane[0], 3.0); // (0,0,3)
        assert_eq!(plane[1], 103.0); // (1,0,3)
        assert_eq!(plane[4], 13.0); // (0,1,3)
        assert!(ramp_cube(Interleave::Bip).band_plane(0).is_none());
    }

    #[test]
    fn envi_names_round_trip() {
        for il in Interleave::ALL {
            assert_eq!(Interleave::from_envi_name(il.envi_name()), Some(il));
        }
        assert_eq!(Interleave::from_envi_name(" BSQ "), Some(Interleave::Bsq));
        assert_eq!(Interleave::from_envi_name("nope"), None);
    }

    #[test]
    fn crop_extracts_expected_window() {
        let cube = ramp_cube(Interleave::Bip);
        let crop = cube.crop(1, 1, 2, 2).unwrap();
        assert_eq!(crop.dims(), CubeDims::new(2, 2, 5));
        for x in 0..2 {
            for y in 0..2 {
                for b in 0..5 {
                    assert_eq!(crop.get(x, y, b), cube.get(x + 1, y + 1, b));
                }
            }
        }
    }

    #[test]
    fn crop_rejects_out_of_bounds() {
        let cube = ramp_cube(Interleave::Bip);
        assert!(cube.crop(3, 0, 2, 1).is_err());
        assert!(cube.crop(0, 2, 1, 2).is_err());
        assert!(cube.crop(0, 0, 0, 1).is_err());
    }

    #[test]
    fn chunks_cover_image_exactly_once() {
        let cube = Cube::from_fn(CubeDims::new(3, 10, 2), Interleave::Bip, |x, y, b| {
            (y * 100 + x * 10 + b) as f32
        })
        .unwrap();
        for lines in [1, 2, 3, 4, 10, 99] {
            for halo in [0, 1, 2] {
                let chunks: Vec<_> = cube.chunks(Chunking::new(lines, halo)).collect();
                let mut covered = [0usize; 10];
                for c in &chunks {
                    assert_eq!(c.cube.dims().width, 3);
                    assert_eq!(
                        c.cube.dims().height,
                        c.halo_top + c.body_lines + c.halo_bottom
                    );
                    for dy in 0..c.body_lines {
                        covered[c.y_start + dy] += 1;
                    }
                    // Chunk content matches the parent image.
                    for y in 0..c.cube.dims().height {
                        let parent_y = c.y_start - c.halo_top + y;
                        for x in 0..3 {
                            for b in 0..2 {
                                assert_eq!(c.cube.get(x, y, b), cube.get(x, parent_y, b));
                            }
                        }
                    }
                }
                assert!(covered.iter().all(|&c| c == 1), "lines={lines} halo={halo}");
            }
        }
    }

    #[test]
    fn chunk_halos_clamped_at_edges() {
        let cube = Cube::zeros(CubeDims::new(2, 6, 1), Interleave::Bip).unwrap();
        let chunks: Vec<_> = cube.chunks(Chunking::new(2, 1)).collect();
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[0].halo_top, 0);
        assert_eq!(chunks[0].halo_bottom, 1);
        assert_eq!(chunks[1].halo_top, 1);
        assert_eq!(chunks[1].halo_bottom, 1);
        assert_eq!(chunks[2].halo_top, 1);
        assert_eq!(chunks[2].halo_bottom, 0);
    }
}
