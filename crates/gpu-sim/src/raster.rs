//! Rasterization of GPGPU full-screen quads.
//!
//! Every pass of the stream model draws one screen-aligned quad covering the
//! render target; the rasterizer turns it into a fragment per target pixel
//! and interpolates the texture-coordinate sets attached to the quad's
//! vertices. Because the quad is axis-aligned, each coordinate set is an
//! affine map of the pixel position — which is also how neighbour access is
//! expressed (a coordinate set shifted by `k` texels, exactly the trick the
//! paper's Cumulative Distance stage uses to address the B-neighbourhood).

use crate::interp::FragmentInput;
use crate::isa::NUM_TEXCOORDS;

/// One interpolated texture-coordinate set: `uv = base * scale + offset`,
/// where `base` is the fragment's normalized position in the target.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TexCoordSet {
    /// Multiplies the normalized fragment position.
    pub scale: [f32; 2],
    /// Added after scaling.
    pub offset: [f32; 2],
}

impl TexCoordSet {
    /// The identity mapping: fragment `(x, y)` samples the same-size source
    /// texture at its own position.
    pub const fn identity() -> Self {
        Self {
            scale: [1.0, 1.0],
            offset: [0.0, 0.0],
        }
    }

    /// Identity shifted by `(dx, dy)` texels of a `w x h` source texture —
    /// the neighbour-access mapping.
    pub fn shifted_texels(dx: i32, dy: i32, w: usize, h: usize) -> Self {
        Self {
            scale: [1.0, 1.0],
            offset: [dx as f32 / w as f32, dy as f32 / h as f32],
        }
    }

    /// Evaluate at a normalized base position.
    #[inline(always)]
    pub fn eval(&self, u: f32, v: f32) -> [f32; 2] {
        [
            u * self.scale[0] + self.offset[0],
            v * self.scale[1] + self.offset[1],
        ]
    }
}

/// The full-screen quad a pass renders: it always covers the whole render
/// target, so it is just the target's size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Quad {
    /// Width in pixels.
    pub width: usize,
    /// Height in pixels.
    pub height: usize,
}

/// Width of one shading tile in fragments. Narrow enough that realistic
/// chunk widths split into many more tiles than any profile has fragment
/// pipes (so occupancy stays high), wide enough that the per-tile texture
/// cache still sees the horizontal block reuse of the raster scan.
pub const TILE_W: usize = 64;

/// Height of one shading tile: the texture-cache block height, so a tile
/// covers whole cache blocks vertically and the per-pipe cache model sees
/// the same vertical reuse the hardware's rasterisation order provides.
pub const TILE_ROWS: usize = crate::texcache::BLOCK_H;

impl Quad {
    /// A quad covering an entire `w x h` target.
    pub const fn full(w: usize, h: usize) -> Self {
        Self {
            width: w,
            height: h,
        }
    }

    /// Number of fragments the quad generates.
    pub const fn fragments(&self) -> usize {
        self.width * self.height
    }

    /// Number of tile columns ([`TILE_W`] wide) covering the quad.
    pub const fn tile_cols(&self) -> usize {
        self.width.div_ceil(TILE_W)
    }

    /// Number of [`TILE_W`]`x`[`TILE_ROWS`] shading tiles covering the quad
    /// — the unit of work the executor dispatches to fragment pipes.
    pub const fn tile_count(&self) -> usize {
        self.tile_cols() * self.height.div_ceil(TILE_ROWS)
    }
}

/// Compute the interpolated [`FragmentInput`] for target pixel `(x, y)`.
///
/// `target_w/h` are the full render-target dimensions (normalization basis);
/// the fragment position is taken at the pixel centre, matching texel-centre
/// sampling in [`crate::texture::Texture2D::sample`].
pub fn fragment_input(
    sets: &[TexCoordSet],
    x: usize,
    y: usize,
    target_w: usize,
    target_h: usize,
) -> FragmentInput {
    debug_assert!(sets.len() <= NUM_TEXCOORDS, "too many texcoord sets");
    let u = (x as f32 + 0.5) / target_w as f32;
    let v = (y as f32 + 0.5) / target_h as f32;
    let mut input = FragmentInput::zero();
    for (slot, set) in input.texcoords.iter_mut().zip(sets) {
        let uv = set.eval(u, v);
        *slot = [uv[0], uv[1], 0.0, 1.0];
    }
    input
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_maps_pixel_centres() {
        let sets = [TexCoordSet::identity()];
        let f = fragment_input(&sets, 3, 1, 8, 4);
        assert_eq!(f.texcoords[0], [3.5 / 8.0, 1.5 / 4.0, 0.0, 1.0]);
        // Unused sets stay at the zero default.
        assert_eq!(f.texcoords[1], [0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn identity_round_trips_through_sampling() {
        // fragment (x, y) sampling a same-size texture lands on texel (x, y).
        use crate::texture::Texture2D;
        let mut tex = Texture2D::new(5, 3);
        for y in 0..3 {
            for x in 0..5 {
                tex.set_texel(x, y, [(y * 5 + x) as f32; 4]);
            }
        }
        let sets = [TexCoordSet::identity()];
        for y in 0..3 {
            for x in 0..5 {
                let f = fragment_input(&sets, x, y, 5, 3);
                let s = tex.sample(f.texcoords[0][0], f.texcoords[0][1]);
                assert_eq!(s[0], (y * 5 + x) as f32, "({x},{y})");
            }
        }
    }

    #[test]
    fn shifted_set_addresses_neighbours() {
        use crate::texture::Texture2D;
        let mut tex = Texture2D::new(4, 4);
        for y in 0..4 {
            for x in 0..4 {
                tex.set_texel(x, y, [(y * 4 + x) as f32; 4]);
            }
        }
        let sets = [TexCoordSet::shifted_texels(1, -1, 4, 4)];
        let f = fragment_input(&sets, 1, 2, 4, 4);
        let s = tex.sample(f.texcoords[0][0], f.texcoords[0][1]);
        // (1, 2) + (1, -1) = (2, 1).
        assert_eq!(s[0], (4 + 2) as f32);
        // Clamping at the border: fragment (3, 0) + (1, -1) clamps to (3, 0).
        let f = fragment_input(&sets, 3, 0, 4, 4);
        let s = tex.sample(f.texcoords[0][0], f.texcoords[0][1]);
        assert_eq!(s[0], 3.0);
    }

    #[test]
    fn quad_geometry() {
        let q = Quad::full(10, 5);
        assert_eq!(q.fragments(), 50);
        assert_eq!((q.width, q.height), (10, 5));
    }

    #[test]
    fn tile_counts_cover_the_quad() {
        // Smaller than one tile: exactly one.
        assert_eq!(Quad::full(10, 3).tile_count(), 1);
        // Exact multiples.
        assert_eq!(Quad::full(TILE_W, TILE_ROWS).tile_count(), 1);
        assert_eq!(Quad::full(2 * TILE_W, 3 * TILE_ROWS).tile_count(), 6);
        // Ragged edges round up.
        let q = Quad::full(TILE_W + 1, TILE_ROWS + 1);
        assert_eq!(q.tile_cols(), 2);
        assert_eq!(q.tile_count(), 4);
    }

    #[test]
    fn multiple_sets_interpolate_independently() {
        let sets = [
            TexCoordSet::identity(),
            TexCoordSet::shifted_texels(2, 0, 8, 8),
            TexCoordSet {
                scale: [0.5, 0.5],
                offset: [0.25, 0.25],
            },
        ];
        let f = fragment_input(&sets, 0, 0, 8, 8);
        assert_eq!(f.texcoords[0][0], 0.5 / 8.0);
        assert!((f.texcoords[1][0] - (0.5 / 8.0 + 0.25)).abs() < 1e-7);
        assert!((f.texcoords[2][0] - (0.5 / 8.0 * 0.5 + 0.25)).abs() < 1e-7);
    }
}
