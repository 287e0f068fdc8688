//! 2D RGBA32F textures — the streams of the stream programming model.
//!
//! The paper maps every group of four consecutive spectral channels onto the
//! RGBA components of a 2D texture (Fig. 3), so a single texel carries four
//! bands and the fragment processors' SIMD4 ALUs process four bands per
//! instruction. All simulator textures are RGBA32F: float textures were the
//! GPGPU workhorse format on both NV3x and G7x.
//!
//! Every fetch clamps to the edge (GL's `CLAMP_TO_EDGE`): an out-of-range
//! coordinate reads the nearest border texel. The paper's δ-shifted
//! neighbour reads and the MEI's dependent reads rely on that border
//! replication, `hsi::morphology` mirrors it on the CPU, and it is what
//! makes halo'd chunks exact. It is the only addressing rule, and
//! [`Texture2D::resolve_coords`] is where it lives (the tile executor's
//! gather applies the same clamp lane by lane).

/// One RGBA texel.
pub type Texel = [f32; 4];

/// A 2D texture of RGBA32F texels, row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct Texture2D {
    width: usize,
    height: usize,
    texels: Vec<Texel>,
}

impl Texture2D {
    /// A zero-initialised texture.
    pub fn new(width: usize, height: usize) -> Self {
        Self {
            width,
            height,
            texels: vec![[0.0; 4]; width * height],
        }
    }

    /// Build from texel data (length must be `width * height`).
    pub fn from_texels(width: usize, height: usize, texels: Vec<Texel>) -> Self {
        assert_eq!(texels.len(), width * height, "texel buffer length");
        Self {
            width,
            height,
            texels,
        }
    }

    /// Build from a flat f32 slice (4 floats per texel).
    pub fn from_flat(width: usize, height: usize, data: &[f32]) -> Self {
        assert_eq!(data.len(), width * height * 4, "flat buffer length");
        let texels = data
            .chunks_exact(4)
            .map(|c| [c[0], c[1], c[2], c[3]])
            .collect();
        Self::from_texels(width, height, texels)
    }

    /// Width in texels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Height in texels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Video-memory footprint in bytes (16 B per texel).
    pub fn bytes(&self) -> usize {
        self.texels.len() * std::mem::size_of::<Texel>()
    }

    /// Borrow all texels row-major.
    pub fn texels(&self) -> &[Texel] {
        &self.texels
    }

    /// Mutably borrow all texels row-major.
    pub fn texels_mut(&mut self) -> &mut [Texel] {
        &mut self.texels
    }

    /// Direct texel read with integer coordinates (must be in range).
    #[inline(always)]
    pub fn texel(&self, x: usize, y: usize) -> Texel {
        self.texels[y * self.width + x]
    }

    /// Direct texel write with integer coordinates (must be in range).
    #[inline(always)]
    pub fn set_texel(&mut self, x: usize, y: usize, value: Texel) {
        self.texels[y * self.width + x] = value;
    }

    /// Nearest-neighbour sample at normalized coordinates `(u, v)` in `[0,1]²`
    /// (texel centres at `(x + 0.5) / width`).
    pub fn sample(&self, u: f32, v: f32) -> Texel {
        let (x, y) = self.nearest(u, v);
        self.texel(x, y)
    }

    /// The texel a nearest-neighbour sample at `(u, v)` reads, which is the
    /// one a texture cache must tag.
    #[inline]
    pub(crate) fn nearest(&self, u: f32, v: f32) -> (usize, usize) {
        let x = (u * self.width as f32).floor() as i64;
        let y = (v * self.height as f32).floor() as i64;
        self.resolve_coords(x, y)
    }

    /// The texel a fetch at integer coordinates `(x, y)` reads: each axis
    /// clamped to the edge.
    #[inline]
    pub fn resolve_coords(&self, x: i64, y: i64) -> (usize, usize) {
        (
            x.clamp(0, self.width as i64 - 1) as usize,
            y.clamp(0, self.height as i64 - 1) as usize,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gradient() -> Texture2D {
        // 4x3, texel (x,y) = [x, y, x+y, 1].
        let mut t = Texture2D::new(4, 3);
        for y in 0..3 {
            for x in 0..4 {
                t.set_texel(x, y, [x as f32, y as f32, (x + y) as f32, 1.0]);
            }
        }
        t
    }

    #[test]
    fn constructors_and_accessors() {
        let t = Texture2D::new(8, 4);
        assert_eq!(t.width(), 8);
        assert_eq!(t.height(), 4);
        assert_eq!(t.bytes(), 8 * 4 * 16);
        assert_eq!(t.texel(7, 3), [0.0; 4]);

        let flat: Vec<f32> = (0..2 * 2 * 4).map(|i| i as f32).collect();
        let t = Texture2D::from_flat(2, 2, &flat);
        assert_eq!(t.texel(1, 1), [12.0, 13.0, 14.0, 15.0]);
        assert_eq!(t.texels().concat(), flat);
    }

    #[test]
    #[should_panic(expected = "texel buffer length")]
    fn from_texels_validates_length() {
        Texture2D::from_texels(2, 2, vec![[0.0; 4]; 3]);
    }

    #[test]
    fn sample_hits_texel_centres() {
        let t = gradient();
        // Centre of texel (2, 1) is ((2+0.5)/4, (1+0.5)/3).
        let s = t.sample(2.5 / 4.0, 1.5 / 3.0);
        assert_eq!(s, [2.0, 1.0, 3.0, 1.0]);
        // u = 0 is texel 0, u → 1 is the last texel.
        assert_eq!(t.sample(0.0, 0.0), [0.0, 0.0, 0.0, 1.0]);
        assert_eq!(t.sample(0.999, 0.999), [3.0, 2.0, 5.0, 1.0]);
    }

    #[test]
    fn clamp_to_edge_replicates_border() {
        let t = gradient(); // 4x3
        assert_eq!(t.sample(-1.25, 0.5), t.texel(0, 1));
        assert_eq!(t.sample(2.6, 0.5), t.texel(3, 1));
        assert_eq!(t.sample(0.6, -0.2), t.texel(2, 0));
        assert_eq!(t.sample(0.6, 33.0), t.texel(2, 2));
    }

    #[test]
    fn resolve_coords_follows_address_mode() {
        let t = gradient(); // 4x3
        assert_eq!(t.resolve_coords(-5, 1), (0, 1));
        assert_eq!(t.resolve_coords(10, 2), (3, 2));
        assert_eq!(t.resolve_coords(i64::MIN, i64::MAX), (0, 2));
        assert_eq!(t.resolve_coords(1, 2), (1, 2));
    }
}
