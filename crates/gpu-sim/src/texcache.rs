//! Texture-cache model.
//!
//! GPUs of the NV3x/G7x era hid texture latency with small set-associative
//! caches filled by 2D blocks of texels (Hakura & Gupta, ISCA'97 — the
//! paper's reference \[7\]). The simulator models one such cache **per
//! fragment pipe** (as in hardware): fetches are classified as hits or
//! misses, and the timing model charges memory bandwidth only for miss
//! traffic.
//!
//! Blocks are `BLOCK_W x BLOCK_H` texel tiles, so the 2D locality of the
//! morphological window (every fragment touches its 3×3 neighbourhood in
//! several band textures) turns into the high hit rates that made the
//! technique work.

/// Block width in texels.
pub const BLOCK_W: usize = 4;
/// Block height in texels.
pub const BLOCK_H: usize = 4;
/// Bytes per block (RGBA32F texels).
pub const BLOCK_BYTES: usize = BLOCK_W * BLOCK_H * 16;

/// A set-associative texture cache with LRU replacement.
///
/// Each set's ways are kept ordered most- to least-recently used, so LRU
/// needs no timestamps: a hit rotates the line to the front, a miss evicts
/// the last way. This is exactly the stamp-based formulation (same hit/miss
/// classification for every access sequence — way order within a set is not
/// observable), but the common case — a fetch landing in the same block as
/// the set's most recent one — is a single tag compare.
#[derive(Debug, Clone)]
pub struct TextureCache {
    sets: usize,
    ways: usize,
    /// `sets * ways` tags, each set's ways MRU-first; `u64::MAX` = invalid.
    /// Tag encodes (texture, block_x, block_y).
    tags: Vec<u64>,
    hits: u64,
    misses: u64,
}

impl TextureCache {
    /// A cache with the given geometry.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets.is_power_of_two(), "sets must be a power of two");
        assert!(ways >= 1);
        Self {
            sets,
            ways,
            tags: vec![u64::MAX; sets * ways],
            hits: 0,
            misses: 0,
        }
    }

    /// The per-pipe cache geometry used for the paper's GPUs: 8 KiB,
    /// 4-way (32 sets x 4 ways x 256 B blocks / 4 = 8 KiB of texels).
    pub fn per_pipe_default() -> Self {
        Self::new(32, 4)
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.sets * self.ways * BLOCK_BYTES / 4
    }

    /// Record a fetch of texel `(x, y)` from texture `texture`; returns
    /// `true` on hit.
    #[inline]
    pub fn access(&mut self, texture: u32, x: usize, y: usize) -> bool {
        let bx = (x / BLOCK_W) as u64;
        let by = (y / BLOCK_H) as u64;
        let tag = ((texture as u64) << 40) | (by << 20) | bx;
        // Simple XOR index so adjacent blocks of different textures spread.
        let set = ((bx ^ by.wrapping_mul(7) ^ (texture as u64).wrapping_mul(13)) as usize)
            & (self.sets - 1);
        let base = set * self.ways;
        let lines = &mut self.tags[base..base + self.ways];
        // MRU fast path: the raster scan mostly re-touches the block it
        // touched last in this set.
        if lines[0] == tag {
            self.hits += 1;
            return true;
        }
        if let Some(w) = lines[1..].iter().position(|&t| t == tag) {
            // Hit in a colder way: promote to MRU (the rotate carries the
            // matching tag, at `lines[w + 1]`, to the front).
            lines[..w + 2].rotate_right(1);
            self.hits += 1;
            return true;
        }
        // Miss: the last way is the LRU line; shift everything down and
        // fill the front.
        lines.rotate_right(1);
        lines[0] = tag;
        self.misses += 1;
        false
    }

    /// Replay an ordered sequence of resolved texel touches — equivalent
    /// to calling [`TextureCache::access`] once per `(texture, x, y)` item
    /// in iteration order. The tile executor records its touches during the
    /// op sweep and replays them through this in the scalar executor's
    /// fragment-major order, so hit/miss counters stay bit-identical
    /// between the two paths.
    pub fn access_all<I: IntoIterator<Item = (u32, usize, usize)>>(&mut self, touches: I) {
        for (texture, x, y) in touches {
            self.access(texture, x, y);
        }
    }

    /// Hits recorded so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses recorded so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit rate in `[0, 1]` (1.0 before any access).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Reset contents and counters.
    pub fn clear(&mut self) {
        self.tags.fill(u64::MAX);
        self.hits = 0;
        self.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_access_hits() {
        let mut c = TextureCache::new(16, 2);
        assert!(!c.access(0, 0, 0)); // cold miss
        assert!(c.access(0, 0, 0)); // hit
        assert!(c.access(0, 1, 1)); // same 4x4 block → hit
        assert!(c.access(0, 3, 3)); // same block → hit
        assert!(!c.access(0, 4, 0)); // next block → miss
        assert_eq!(c.hits(), 3);
        assert_eq!(c.misses(), 2);
        assert!((c.hit_rate() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn different_textures_do_not_alias() {
        let mut c = TextureCache::new(16, 4);
        c.access(0, 0, 0);
        c.access(1, 0, 0);
        // Both stay resident (different tags).
        assert!(c.access(0, 0, 0));
        assert!(c.access(1, 0, 0));
    }

    #[test]
    fn lru_evicts_oldest() {
        // One set, two ways: third distinct block evicts the LRU.
        let mut c = TextureCache::new(1, 2);
        c.access(0, 0, 0); // block A
        c.access(0, 4, 0); // block B
        c.access(0, 0, 0); // touch A (B becomes LRU)
        c.access(0, 8, 0); // block C evicts B
        assert!(c.access(0, 0, 0), "A should still be resident");
        assert!(!c.access(0, 4, 0), "B should have been evicted");
    }

    #[test]
    fn raster_scan_with_window_has_high_hit_rate() {
        // A 3x3 window sliding over a 64x64 texture: the blocked cache
        // should capture most of the overlap between adjacent windows.
        let mut c = TextureCache::per_pipe_default();
        for y in 0..64i64 {
            for x in 0..64i64 {
                for dy in -1..=1i64 {
                    for dx in -1..=1i64 {
                        let sx = (x + dx).clamp(0, 63) as usize;
                        let sy = (y + dy).clamp(0, 63) as usize;
                        c.access(0, sx, sy);
                    }
                }
            }
        }
        assert!(c.hit_rate() > 0.9, "hit rate = {}", c.hit_rate());
    }

    #[test]
    fn access_all_matches_individual_accesses() {
        let touches = [(0u32, 0usize, 0usize), (1, 4, 0), (0, 1, 1), (2, 8, 8)];
        let mut a = TextureCache::new(1, 2);
        let mut b = TextureCache::new(1, 2);
        a.access_all(touches);
        for (t, x, y) in touches {
            b.access(t, x, y);
        }
        assert_eq!(a.hits(), b.hits());
        assert_eq!(a.misses(), b.misses());
    }

    #[test]
    fn clear_resets_everything() {
        let mut c = TextureCache::new(4, 1);
        c.access(0, 0, 0);
        c.clear();
        assert_eq!(c.hits(), 0);
        assert_eq!(c.misses(), 0);
        assert_eq!(c.hit_rate(), 1.0);
        assert!(!c.access(0, 0, 0), "cache must be cold after clear");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn sets_must_be_power_of_two() {
        TextureCache::new(3, 2);
    }

    #[test]
    fn order_encoded_lru_matches_stamp_reference() {
        // The recency-ordered ways must classify exactly like the textbook
        // stamp-based LRU they replaced: replay a pseudo-random touch
        // stream through both and compare every single hit/miss verdict.
        struct StampLru {
            sets: usize,
            ways: usize,
            tags: Vec<u64>,
            stamps: Vec<u64>,
            clock: u64,
        }
        impl StampLru {
            fn access(&mut self, texture: u32, x: usize, y: usize) -> bool {
                let bx = (x / BLOCK_W) as u64;
                let by = (y / BLOCK_H) as u64;
                let tag = ((texture as u64) << 40) | (by << 20) | bx;
                let set = ((bx ^ by.wrapping_mul(7) ^ (texture as u64).wrapping_mul(13)) as usize)
                    & (self.sets - 1);
                self.clock += 1;
                let base = set * self.ways;
                let lines = &mut self.tags[base..base + self.ways];
                if let Some(w) = lines.iter().position(|&t| t == tag) {
                    self.stamps[base + w] = self.clock;
                    return true;
                }
                let lru = (0..self.ways)
                    .min_by_key(|&w| self.stamps[base + w])
                    .expect("ways >= 1");
                self.tags[base + lru] = tag;
                self.stamps[base + lru] = self.clock;
                false
            }
        }
        for (sets, ways) in [(1, 1), (1, 4), (8, 2), (32, 4)] {
            let mut cache = TextureCache::new(sets, ways);
            let mut reference = StampLru {
                sets,
                ways,
                tags: vec![u64::MAX; sets * ways],
                stamps: vec![0; sets * ways],
                clock: 0,
            };
            let mut state = 0x9e37_79b9_7f4a_7c15u64;
            for i in 0..20_000 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let texture = (state % 3) as u32;
                let x = ((state >> 8) % 40) as usize;
                let y = ((state >> 16) % 40) as usize;
                assert_eq!(
                    cache.access(texture, x, y),
                    reference.access(texture, x, y),
                    "{sets}x{ways} diverged at touch {i}: ({texture}, {x}, {y})"
                );
            }
            assert!(cache.hits() > 0 && cache.misses() > 0, "stream too tame");
        }
    }

    #[test]
    fn capacity_accounts_geometry() {
        let c = TextureCache::new(32, 4);
        assert_eq!(c.capacity_bytes(), 32 * 4 * BLOCK_BYTES / 4);
    }
}
