//! Performance counters.
//!
//! The simulator's functional execution produces exact work counts; the
//! timing model turns them into modeled milliseconds. Counters accumulate
//! per render pass and can be summed over a whole pipeline run.

/// Work counted during one render pass (or accumulated over many).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PassStats {
    /// Fragments shaded.
    pub fragments: u64,
    /// SIMD4 shader instructions executed (TEX included).
    pub instructions: u64,
    /// Texel fetches issued (each 16 B for RGBA32F).
    pub texel_fetches: u64,
    /// Texture-cache hits (every texel fetch is a hit or a miss).
    pub cache_hits: u64,
    /// Texture-cache misses.
    pub cache_misses: u64,
    /// Bytes written to render targets.
    pub bytes_written: u64,
    /// Bytes uploaded host → device.
    pub bytes_uploaded: u64,
    /// Bytes downloaded device → host.
    pub bytes_downloaded: u64,
    /// Render passes summed into this value.
    pub passes: u64,
    /// Shading tiles dispatched (the executor's unit of fragment-pipe
    /// parallelism; see `raster::TILE_W`/`TILE_ROWS`).
    pub tiles: u64,
}

impl PassStats {
    /// Zeroed stats.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulate another pass into this total.
    pub fn add(&mut self, other: &PassStats) {
        self.fragments += other.fragments;
        self.instructions += other.instructions;
        self.texel_fetches += other.texel_fetches;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.bytes_written += other.bytes_written;
        self.bytes_uploaded += other.bytes_uploaded;
        self.bytes_downloaded += other.bytes_downloaded;
        self.passes += other.passes;
        self.tiles += other.tiles;
    }

    /// Remove another total from this one, field by field. The exact inverse
    /// of [`PassStats::add`] whenever `other` was previously added —
    /// pipelines use it to report "work since this snapshot" deltas.
    ///
    /// `other` must be component-wise ≤ `self`: subtracting something that
    /// was never added is a snapshot-delta bug. Debug builds assert on every
    /// field so the bug surfaces in tests; release builds saturate to zero
    /// rather than wrap.
    pub fn sub(&mut self, other: &PassStats) {
        debug_assert!(
            other.fragments <= self.fragments,
            "PassStats::sub underflow: fragments {} < {}",
            self.fragments,
            other.fragments
        );
        debug_assert!(
            other.instructions <= self.instructions,
            "PassStats::sub underflow: instructions {} < {}",
            self.instructions,
            other.instructions
        );
        debug_assert!(
            other.texel_fetches <= self.texel_fetches,
            "PassStats::sub underflow: texel_fetches {} < {}",
            self.texel_fetches,
            other.texel_fetches
        );
        debug_assert!(
            other.cache_hits <= self.cache_hits,
            "PassStats::sub underflow: cache_hits {} < {}",
            self.cache_hits,
            other.cache_hits
        );
        debug_assert!(
            other.cache_misses <= self.cache_misses,
            "PassStats::sub underflow: cache_misses {} < {}",
            self.cache_misses,
            other.cache_misses
        );
        debug_assert!(
            other.bytes_written <= self.bytes_written,
            "PassStats::sub underflow: bytes_written {} < {}",
            self.bytes_written,
            other.bytes_written
        );
        debug_assert!(
            other.bytes_uploaded <= self.bytes_uploaded,
            "PassStats::sub underflow: bytes_uploaded {} < {}",
            self.bytes_uploaded,
            other.bytes_uploaded
        );
        debug_assert!(
            other.bytes_downloaded <= self.bytes_downloaded,
            "PassStats::sub underflow: bytes_downloaded {} < {}",
            self.bytes_downloaded,
            other.bytes_downloaded
        );
        debug_assert!(
            other.passes <= self.passes,
            "PassStats::sub underflow: passes {} < {}",
            self.passes,
            other.passes
        );
        debug_assert!(
            other.tiles <= self.tiles,
            "PassStats::sub underflow: tiles {} < {}",
            self.tiles,
            other.tiles
        );
        self.fragments = self.fragments.saturating_sub(other.fragments);
        self.instructions = self.instructions.saturating_sub(other.instructions);
        self.texel_fetches = self.texel_fetches.saturating_sub(other.texel_fetches);
        self.cache_hits = self.cache_hits.saturating_sub(other.cache_hits);
        self.cache_misses = self.cache_misses.saturating_sub(other.cache_misses);
        self.bytes_written = self.bytes_written.saturating_sub(other.bytes_written);
        self.bytes_uploaded = self.bytes_uploaded.saturating_sub(other.bytes_uploaded);
        self.bytes_downloaded = self.bytes_downloaded.saturating_sub(other.bytes_downloaded);
        self.passes = self.passes.saturating_sub(other.passes);
        self.tiles = self.tiles.saturating_sub(other.tiles);
    }

    /// Mean shader instructions per fragment.
    pub fn instructions_per_fragment(&self) -> f64 {
        if self.fragments == 0 {
            0.0
        } else {
            self.instructions as f64 / self.fragments as f64
        }
    }

    /// Texture-cache hit rate in `[0, 1]` (1.0 when no fetches were modeled).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            1.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// Counters one shading tile produced. The executor dispatches tiles in
/// parallel but merges their counters **in tile order** (see
/// [`TileCounts::merge_into`] call sites), so aggregate [`PassStats`] are
/// independent of scheduling.
#[derive(Debug, Clone, Copy, Default)]
pub struct TileCounts {
    /// SIMD4 shader instructions the tile executed.
    pub instructions: u64,
    /// Texel fetches the tile issued.
    pub texel_fetches: u64,
    /// Texture-cache hits in the tile's private cache model.
    pub cache_hits: u64,
    /// Texture-cache misses in the tile's private cache model.
    pub cache_misses: u64,
}

impl TileCounts {
    /// Accumulate this tile's counters into a pass total.
    pub fn merge_into(&self, pass: &mut PassStats) {
        pass.instructions += self.instructions;
        pass.texel_fetches += self.texel_fetches;
        pass.cache_hits += self.cache_hits;
        pass.cache_misses += self.cache_misses;
    }
}

/// Where shading tiles spent their thread time, layer by layer. Tiles fill
/// it only while the trace recorder is on (`trace::enabled()`); a pass
/// merges its tiles' ledgers in tile order and records the total, with the
/// pass's texel fetches and fragments from its [`PassStats`], as one
/// `gpu.ledger` trace instant, which `trace::analyze` sums per pipeline
/// stage.
///
/// The three parts partition a tile's time: `sweep_ns + replay_ns +
/// resolve_ns` is the whole tile.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShadeLedger {
    /// Nanoseconds running the specialized ops (interpolation, arithmetic,
    /// TEX address resolution, texel gather and touch recording).
    pub sweep_ns: u64,
    /// Ops run: specialized ops times lane groups.
    pub ops: u64,
    /// Nanoseconds replaying TEX touches through the texture-cache model.
    pub replay_ns: u64,
    /// Nanoseconds storing `O0` into the tile's rows.
    pub resolve_ns: u64,
}

impl ShadeLedger {
    /// Accumulate another ledger into this one.
    pub fn add(&mut self, other: &ShadeLedger) {
        self.sweep_ns += other.sweep_ns;
        self.ops += other.ops;
        self.replay_ns += other.replay_ns;
        self.resolve_ns += other.resolve_ns;
    }
}

impl std::ops::Add for PassStats {
    type Output = PassStats;
    fn add(mut self, rhs: PassStats) -> PassStats {
        PassStats::add(&mut self, &rhs);
        self
    }
}

impl std::iter::Sum for PassStats {
    fn sum<I: Iterator<Item = PassStats>>(iter: I) -> PassStats {
        iter.fold(PassStats::default(), |acc, s| acc + s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulation_sums_fields() {
        let a = PassStats {
            fragments: 10,
            instructions: 100,
            texel_fetches: 20,
            cache_hits: 15,
            cache_misses: 5,
            bytes_written: 160,
            bytes_uploaded: 1,
            bytes_downloaded: 2,
            passes: 1,
            tiles: 4,
        };
        let b = a;
        let c = a + b;
        assert_eq!(c.fragments, 20);
        assert_eq!(c.instructions, 200);
        assert_eq!(c.passes, 2);
        assert_eq!(c.tiles, 8);
        let summed: PassStats = vec![a, b].into_iter().sum();
        assert_eq!(summed, c);
    }

    #[test]
    fn add_sub_round_trip_is_identity() {
        let a = PassStats {
            fragments: 10,
            instructions: 100,
            texel_fetches: 20,
            cache_hits: 15,
            cache_misses: 5,
            bytes_written: 160,
            bytes_uploaded: 1,
            bytes_downloaded: 2,
            passes: 1,
            tiles: 4,
        };
        let b = PassStats {
            fragments: 3,
            instructions: 7,
            texel_fetches: 11,
            cache_hits: 2,
            cache_misses: 9,
            bytes_written: 31,
            bytes_uploaded: 4,
            bytes_downloaded: 8,
            passes: 2,
            tiles: 6,
        };
        let mut t = a;
        t.add(&b);
        t.sub(&b);
        assert_eq!(t, a, "add then sub must round-trip every field");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "PassStats::sub underflow")]
    fn sub_underflow_panics_in_debug() {
        let big = PassStats {
            fragments: 10,
            ..Default::default()
        };
        let mut small = PassStats {
            fragments: 3,
            ..Default::default()
        };
        small.sub(&big);
    }

    #[test]
    fn tile_counts_merge_only_shading_fields() {
        let tile = TileCounts {
            instructions: 5,
            texel_fetches: 3,
            cache_hits: 2,
            cache_misses: 1,
        };
        let mut pass = PassStats {
            fragments: 7,
            passes: 1,
            ..Default::default()
        };
        tile.merge_into(&mut pass);
        tile.merge_into(&mut pass);
        assert_eq!(pass.instructions, 10);
        assert_eq!(pass.texel_fetches, 6);
        assert_eq!(pass.cache_hits, 4);
        assert_eq!(pass.cache_misses, 2);
        // Pass-level fields are untouched by tile merges.
        assert_eq!(pass.fragments, 7);
        assert_eq!(pass.passes, 1);
    }

    #[test]
    fn derived_rates() {
        let s = PassStats {
            fragments: 4,
            instructions: 12,
            texel_fetches: 8,
            cache_hits: 6,
            cache_misses: 2,
            ..Default::default()
        };
        assert_eq!(s.instructions_per_fragment(), 3.0);
        assert_eq!(s.cache_hit_rate(), 0.75);
        // Degenerate cases are NaN-free.
        let z = PassStats::new();
        assert_eq!(z.instructions_per_fragment(), 0.0);
        assert_eq!(z.cache_hit_rate(), 1.0);
    }
}
