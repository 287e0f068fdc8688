//! The simulated GPU device.
//!
//! Owns textures under the profile's video-memory budget, executes render
//! passes (fragment programs over full-screen quads) across parallel
//! fragment pipes, and accumulates performance counters. A pass
//! ([`Gpu::run_pass`]) executes an assembled fragment program through the
//! interpreter — bit-faithful to what the modelled hardware would compute,
//! with exact instruction/texel counts.
//!
//! Passes shade the render target as independent
//! [`TILE_W`](crate::raster::TILE_W)`x`[`TILE_ROWS`](crate::raster::TILE_ROWS)
//! tiles dispatched on the host worker pool (one simulated fragment pipe per
//! tile, each with its own texture-cache model). Per-tile counters are
//! merged in tile order, so aggregate statistics and output texels are
//! bit-identical at every thread count. Programs execute through a
//! [`LoweredProgram`] — the shaded program with its resolved constants, and
//! its straight-line per-component specialization, built once per
//! (program, constants) bind and cached on the device next to the
//! verification cache. Tiles run the specialized form through
//! [`interp::execute_tile`]; while tracing is on, each pass also records
//! where its tiles' time went (a [`ShadeLedger`] in a `gpu.ledger` trace
//! instant).
//!
//! A pass shades exactly the program it is handed: the render-graph compiler
//! optimizes each program once, before it reaches the device, so the device
//! only verifies and lowers it. One switch selects the oracle form parity
//! tests compare against: [`Gpu::set_batch_execution`] (`false` shades
//! fragment by fragment through [`interp::execute`] on the cached lowering's
//! program and constants instead of through the tile executor). It defaults
//! to on.

use crate::counters::{PassStats, ShadeLedger, TileCounts};
use crate::device::GpuProfile;
use crate::error::{GpuError, Result};
use crate::interp::{self, LoweredProgram};
use crate::isa::Program;
use crate::raster::{self, fragment_input, Quad, TexCoordSet};
use crate::texcache::TextureCache;
use crate::texture::{Texel, Texture2D};
use crate::verify;
use rayon::prelude::*;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;
use trace::ArgValue;

/// Handle to a texture resident in simulated video memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TextureId(pub(crate) u32);

/// Key of the device-level verification cache: one entry per distinct
/// (program text, pass bindings) pair already proven clean on this device.
/// The profile is not part of the key — each `Gpu` owns its own cache.
#[derive(PartialEq, Eq, Hash)]
struct VerifyKey {
    /// Canonical program text (name, `DEF`s, instructions).
    program: String,
    /// The bindings the program was verified against.
    bindings: verify::PassBindings,
}

/// Key of the device-level lowering cache, keyed like the verification
/// cache on canonical program text, plus the pass-constant values the
/// lowering folded into immediates (as exact bit patterns, so the key is
/// hashable and two bindings differing only in a constant value get
/// distinct lowerings).
#[derive(PartialEq, Eq, Hash)]
struct LowerKey {
    /// Canonical program text (name, `DEF`s, instructions).
    program: String,
    /// Pass constants as `(index, value-bit-pattern)` in binding order.
    constants: Vec<(u8, [u32; 4])>,
}

/// Shade `out` (the scratch buffer for `quad`, row-major over the target)
/// as independent tiles on the worker pool. `shade_tile` is called once per
/// tile with the tile's origin in target coordinates, its rows (as mutable
/// row segments of `out`), a private texture-cache model and, while tracing
/// is on, a ledger to fill; it returns the (instructions, fetches) it
/// executed. Returns per-tile counters and the ledger total, both merged in
/// tile order.
fn shade_tiled<F>(out: &mut [Texel], quad: &Quad, shade_tile: F) -> (Vec<TileCounts>, ShadeLedger)
where
    F: Fn(
            usize,
            usize,
            Vec<&mut [Texel]>,
            &mut TextureCache,
            Option<&mut ShadeLedger>,
        ) -> (u64, u64)
        + Sync,
{
    let cols = quad.tile_cols();
    let tiles = quad.tile_count();
    // A tile's rows are disjoint contiguous segments of the row-major
    // scratch buffer, so the split needs no unsafe: chunk into rows, chunk
    // each row into tile-width segments, group segments by tile.
    let mut tile_rows: Vec<Vec<&mut [Texel]>> = Vec::with_capacity(tiles);
    tile_rows.resize_with(tiles, Vec::new);
    for (y, row) in out.chunks_mut(quad.width).enumerate() {
        let band = y / raster::TILE_ROWS;
        for (col, seg) in row.chunks_mut(raster::TILE_W).enumerate() {
            tile_rows[band * cols + col].push(seg);
        }
    }
    let timed = trace::enabled();
    let mut counts = vec![TileCounts::default(); tiles];
    let mut ledgers = vec![ShadeLedger::default(); tiles];
    let work: Vec<_> = tile_rows
        .into_iter()
        .zip(counts.iter_mut().zip(ledgers.iter_mut()))
        .enumerate()
        .map(|(tile, (rows, (slot, ledger)))| (tile, rows, slot, ledger))
        .collect();
    work.into_par_iter().for_each(|(tile, rows, slot, ledger)| {
        let mut cache = TextureCache::per_pipe_default();
        let x0 = (tile % cols) * raster::TILE_W;
        let y0 = (tile / cols) * raster::TILE_ROWS;
        let _tile_span = trace::span_with(
            "gpu.tile",
            "tile",
            &[
                ("x0", ArgValue::U64(x0 as u64)),
                ("y0", ArgValue::U64(y0 as u64)),
            ],
        );
        let (instructions, texel_fetches) =
            shade_tile(x0, y0, rows, &mut cache, timed.then_some(ledger));
        *slot = TileCounts {
            instructions,
            texel_fetches,
            cache_hits: cache.hits(),
            cache_misses: cache.misses(),
        };
    });
    let mut total = ShadeLedger::default();
    for ledger in &ledgers {
        total.add(ledger);
    }
    (counts, total)
}

/// The simulated device.
pub struct Gpu {
    profile: GpuProfile,
    textures: HashMap<u32, Texture2D>,
    next_id: u32,
    allocated_bytes: usize,
    stats: PassStats,
    /// Size-classed free lists of released pooled textures, still resident
    /// in video memory and ready for zero-fill reuse.
    pool: HashMap<(usize, usize), Vec<Texture2D>>,
    pool_bytes: usize,
    texture_allocs: u64,
    pool_hits: u64,
    verify_cache: HashSet<VerifyKey>,
    verify_runs: u64,
    verify_cache_hits: u64,
    lowered_cache: HashMap<LowerKey, Arc<LoweredProgram>>,
    lower_runs: u64,
    lower_cache_hits: u64,
    /// Whether passes shade tiles through the tile executor (default;
    /// [`Gpu::set_batch_execution`] falls back to the per-fragment
    /// oracle).
    batch_enabled: bool,
}

impl Gpu {
    /// Create a device with the given hardware profile.
    pub fn new(profile: GpuProfile) -> Self {
        Self {
            profile,
            textures: HashMap::new(),
            next_id: 0,
            allocated_bytes: 0,
            stats: PassStats::default(),
            pool: HashMap::new(),
            pool_bytes: 0,
            texture_allocs: 0,
            pool_hits: 0,
            verify_cache: HashSet::new(),
            verify_runs: 0,
            verify_cache_hits: 0,
            lowered_cache: HashMap::new(),
            lower_runs: 0,
            lower_cache_hits: 0,
            batch_enabled: true,
        }
    }

    /// The hardware profile.
    pub fn profile(&self) -> &GpuProfile {
        &self.profile
    }

    /// Bytes of video memory still free (pooled textures count as occupied
    /// until evicted or drained).
    pub fn free_bytes(&self) -> usize {
        self.profile.video_memory_bytes() - self.allocated_bytes - self.pool_bytes
    }

    /// Bytes of video memory in use by live textures.
    pub fn allocated_bytes(&self) -> usize {
        self.allocated_bytes
    }

    /// Bytes of video memory held by released pooled textures.
    pub fn pooled_bytes(&self) -> usize {
        self.pool_bytes
    }

    /// Number of real texture allocations performed (pool hits excluded).
    pub fn texture_allocs(&self) -> u64 {
        self.texture_allocs
    }

    /// Number of [`Gpu::alloc_pooled`] requests served from the free lists.
    pub fn pool_hits(&self) -> u64 {
        self.pool_hits
    }

    /// Number of full dataflow verifications executed on this device
    /// (verification-cache misses).
    pub fn verifications(&self) -> u64 {
        self.verify_runs
    }

    /// Number of passes whose verification was satisfied from the cache.
    pub fn verify_cache_hits(&self) -> u64 {
        self.verify_cache_hits
    }

    /// Number of program lowerings executed on this device (lowering-cache
    /// misses).
    pub fn lowerings(&self) -> u64 {
        self.lower_runs
    }

    /// Number of ISA passes whose lowering was satisfied from the cache.
    pub fn lower_cache_hits(&self) -> u64 {
        self.lower_cache_hits
    }

    /// Fetch or build the lowered form of `(program, constants)`. The
    /// canonical program text is shared with the verification-cache key.
    fn lowered_for(
        &mut self,
        asm: &str,
        program: &Program,
        constants: &[(u8, [f32; 4])],
    ) -> Arc<LoweredProgram> {
        let key = LowerKey {
            program: asm.to_owned(),
            constants: constants
                .iter()
                .map(|&(idx, v)| (idx, v.map(f32::to_bits)))
                .collect(),
        };
        if let Some(lowered) = self.lowered_cache.get(&key) {
            self.lower_cache_hits += 1;
            trace::metrics::incr("gpu.lower.cache_hits", 1);
            return Arc::clone(lowered);
        }
        self.lower_runs += 1;
        trace::metrics::incr("gpu.lower.runs", 1);
        let resolved = interp::resolve_constants(program, constants);
        let lowered = Arc::new(interp::lower(program, &resolved));
        self.lowered_cache.insert(key, Arc::clone(&lowered));
        lowered
    }

    /// Turn tile execution on or off for this device; off shades fragment
    /// by fragment, the oracle batch parity tests compare against. Takes
    /// effect on the next pass: both executors run the same cached
    /// lowering.
    pub fn set_batch_execution(&mut self, enabled: bool) {
        self.batch_enabled = enabled;
    }

    /// Cumulative counters since the last [`Gpu::reset_stats`].
    pub fn stats(&self) -> PassStats {
        self.stats
    }

    /// Zero the cumulative counters.
    pub fn reset_stats(&mut self) {
        self.stats = PassStats::default();
    }

    /// Evict released pooled textures until at least `bytes` are free (or
    /// the pool is empty). Largest size classes go first.
    fn evict_pool_for(&mut self, bytes: usize) {
        while self.free_bytes() < bytes && self.pool_bytes > 0 {
            let largest = self
                .pool
                .iter()
                .filter(|(_, v)| !v.is_empty())
                .max_by_key(|(&(w, h), _)| w * h)
                .map(|(&k, _)| k);
            let Some(key) = largest else { break };
            if let Some(tex) = self.pool.get_mut(&key).and_then(Vec::pop) {
                self.pool_bytes -= tex.bytes();
                trace::metrics::incr("gpu.pool.evictions", 1);
                trace::instant(
                    "gpu.pool",
                    "evict",
                    &[("bytes", ArgValue::U64(tex.bytes() as u64))],
                );
            }
            self.pool.retain(|_, v| !v.is_empty());
        }
    }

    /// Allocate a `w x h` RGBA32F texture. Released pooled textures are
    /// evicted as needed before the allocation is refused.
    pub fn alloc_texture(&mut self, width: usize, height: usize) -> Result<TextureId> {
        if width == 0
            || height == 0
            || width > self.profile.max_texture_side
            || height > self.profile.max_texture_side
        {
            return Err(GpuError::InvalidTextureSize {
                width,
                height,
                max_side: self.profile.max_texture_side,
            });
        }
        let bytes = width * height * 16;
        self.evict_pool_for(bytes);
        if bytes > self.free_bytes() {
            return Err(GpuError::OutOfVideoMemory {
                requested: bytes,
                available: self.free_bytes(),
            });
        }
        let id = self.next_id;
        self.next_id += 1;
        self.textures.insert(id, Texture2D::new(width, height));
        self.allocated_bytes += bytes;
        self.texture_allocs += 1;
        trace::metrics::incr("gpu.pool.allocs", 1);
        trace::instant(
            "gpu.pool",
            "alloc",
            &[("bytes", ArgValue::U64(bytes as u64))],
        );
        trace::counter("gpu.allocated_bytes", self.allocated_bytes as f64);
        Ok(TextureId(id))
    }

    /// Allocate a `w x h` texture, preferring a released pooled texture of
    /// the same size class. Reused textures are explicitly zero-filled, so
    /// a pooled allocation is indistinguishable from a fresh one (pipelines
    /// may rely on zero-initialised accumulators).
    pub fn alloc_pooled(&mut self, width: usize, height: usize) -> Result<TextureId> {
        self.alloc_pooled_inner(width, height, true)
    }

    /// [`Gpu::alloc_pooled`] without the zero-fill on reuse. Only sound
    /// when every texel is overwritten before it is read — as for a pass's
    /// render target, since [`Gpu::run_pass`] shades the whole target and
    /// stores whole texels. The skipped clear is the only observable
    /// difference from [`Gpu::alloc_pooled`].
    pub fn alloc_pooled_uninit(&mut self, width: usize, height: usize) -> Result<TextureId> {
        self.alloc_pooled_inner(width, height, false)
    }

    fn alloc_pooled_inner(
        &mut self,
        width: usize,
        height: usize,
        zero_fill: bool,
    ) -> Result<TextureId> {
        let recycled = self.pool.get_mut(&(width, height)).and_then(Vec::pop);
        match recycled {
            Some(mut tex) => {
                self.pool.retain(|_, v| !v.is_empty());
                self.pool_bytes -= tex.bytes();
                if zero_fill {
                    for t in tex.texels_mut() {
                        *t = [0.0; 4];
                    }
                } else {
                    trace::metrics::incr("gpu.pool.zero_fill_skips", 1);
                }
                self.allocated_bytes += tex.bytes();
                let id = self.next_id;
                self.next_id += 1;
                self.textures.insert(id, tex);
                self.pool_hits += 1;
                trace::metrics::incr("gpu.pool.hits", 1);
                trace::instant("gpu.pool", "pool_hit", &[]);
                trace::counter("gpu.pool_bytes", self.pool_bytes as f64);
                Ok(TextureId(id))
            }
            None => self.alloc_texture(width, height),
        }
    }

    /// Release a texture into the pool for later [`Gpu::alloc_pooled`]
    /// reuse. The texture stays resident in video memory until reused,
    /// evicted by an allocation under pressure, or dropped with the device.
    pub fn release_pooled(&mut self, id: TextureId) -> Result<()> {
        match self.textures.remove(&id.0) {
            Some(tex) => {
                self.allocated_bytes -= tex.bytes();
                self.pool_bytes += tex.bytes();
                self.pool
                    .entry((tex.width(), tex.height()))
                    .or_default()
                    .push(tex);
                trace::instant("gpu.pool", "release", &[]);
                trace::counter("gpu.pool_bytes", self.pool_bytes as f64);
                Ok(())
            }
            None => Err(GpuError::InvalidTexture { id: id.0 }),
        }
    }

    /// Free a texture.
    pub fn free_texture(&mut self, id: TextureId) -> Result<()> {
        match self.textures.remove(&id.0) {
            Some(t) => {
                self.allocated_bytes -= t.bytes();
                Ok(())
            }
            None => Err(GpuError::InvalidTexture { id: id.0 }),
        }
    }

    /// Borrow a texture.
    pub fn texture(&self, id: TextureId) -> Result<&Texture2D> {
        self.textures
            .get(&id.0)
            .ok_or(GpuError::InvalidTexture { id: id.0 })
    }

    /// Upload flat f32 data (4 per texel) host → device. Counts bus bytes.
    pub fn upload(&mut self, id: TextureId, data: &[f32]) -> Result<()> {
        let tex = self
            .textures
            .get_mut(&id.0)
            .ok_or(GpuError::InvalidTexture { id: id.0 })?;
        let expected = tex.width() * tex.height() * 4;
        if data.len() != expected {
            return Err(GpuError::SizeMismatch {
                expected,
                actual: data.len(),
            });
        }
        let bytes = (data.len() * 4) as u64;
        let _span = trace::span_with("gpu.xfer", "upload", &[("bytes", ArgValue::U64(bytes))]);
        let start = Instant::now();
        for (t, c) in tex.texels_mut().iter_mut().zip(data.chunks_exact(4)) {
            *t = [c[0], c[1], c[2], c[3]];
        }
        trace::metrics::observe("gpu.upload_wall", start.elapsed());
        self.stats.bytes_uploaded += bytes;
        Ok(())
    }

    /// Download a texture's contents device → host as flat f32 data.
    pub fn download(&mut self, id: TextureId) -> Result<Vec<f32>> {
        let tex = self
            .textures
            .get(&id.0)
            .ok_or(GpuError::InvalidTexture { id: id.0 })?;
        let _span = trace::span_with(
            "gpu.xfer",
            "download",
            &[(
                "bytes",
                ArgValue::U64((tex.width() * tex.height() * 16) as u64),
            )],
        );
        let start = Instant::now();
        let data = tex.to_flat();
        trace::metrics::observe("gpu.download_wall", start.elapsed());
        self.stats.bytes_downloaded += (data.len() * 4) as u64;
        Ok(data)
    }

    /// Download into a caller-owned buffer (cleared and refilled), avoiding
    /// a fresh allocation per readback. Counts the same bus bytes as
    /// [`Gpu::download`].
    pub fn download_into(&mut self, id: TextureId, out: &mut Vec<f32>) -> Result<()> {
        let tex = self
            .textures
            .get(&id.0)
            .ok_or(GpuError::InvalidTexture { id: id.0 })?;
        let _span = trace::span_with(
            "gpu.xfer",
            "download",
            &[(
                "bytes",
                ArgValue::U64((tex.width() * tex.height() * 16) as u64),
            )],
        );
        let start = Instant::now();
        out.clear();
        out.reserve(tex.width() * tex.height() * 4);
        for t in tex.texels() {
            out.extend_from_slice(t);
        }
        trace::metrics::observe("gpu.download_wall", start.elapsed());
        self.stats.bytes_downloaded += (out.len() * 4) as u64;
        Ok(())
    }

    fn gather_inputs(&self, inputs: &[TextureId], target: TextureId) -> Result<Vec<&Texture2D>> {
        if inputs.contains(&target) {
            return Err(GpuError::InvalidPass {
                message: "render target cannot also be bound as an input".into(),
            });
        }
        inputs.iter().map(|&id| self.texture(id)).collect()
    }

    /// Execute an assembled fragment program over the whole of `target`,
    /// writing output `O0` to it.
    ///
    /// `inputs[i]` binds sampler `texI`; `texcoords[i]` defines coordinate
    /// set `Ti`; `constants` override the program's `DEF`s.
    ///
    /// The program is shaded exactly as given. It is statically verified
    /// against this device's profile and the pass bindings before any
    /// fragment is shaded; a program with verification errors is rejected
    /// with [`GpuError::VerifyError`].
    pub fn run_pass(
        &mut self,
        program: &Program,
        inputs: &[TextureId],
        constants: &[(u8, [f32; 4])],
        texcoords: &[TexCoordSet],
        target: TextureId,
    ) -> Result<PassStats> {
        let bindings = verify::PassBindings {
            samplers: inputs.len(),
            texcoord_sets: texcoords.len(),
            constants: constants.iter().map(|&(idx, _)| idx).collect(),
            // run_pass resolves only O0 to the target texture.
            outputs_read: [true, false, false, false],
        };
        // Dataflow verification depends only on the program text and the
        // bindings, so a (program, bindings) pair proven clean once on this
        // device stays clean; repeat passes skip straight to shading.
        // Failures are never cached — the error path re-verifies so the
        // diagnostics stay fresh.
        let asm = program.to_asm();
        let key = VerifyKey {
            program: asm.clone(),
            bindings,
        };
        if self.verify_cache.contains(&key) {
            self.verify_cache_hits += 1;
            trace::metrics::incr("gpu.verify.cache_hits", 1);
        } else {
            self.verify_runs += 1;
            trace::metrics::incr("gpu.verify.runs", 1);
            let diagnostics = verify::verify(program, &self.profile, Some(&key.bindings));
            if verify::has_errors(&diagnostics) {
                return Err(GpuError::VerifyError {
                    program: program.name.clone(),
                    diagnostics,
                });
            }
            self.verify_cache.insert(key);
        }
        // Lower once per (program, constants) bind; repeat passes shade
        // straight from the cached lowering.
        let lowered = self.lowered_for(&asm, program, constants);
        let input_refs = self.gather_inputs(inputs, target)?;
        let tgt = self.texture(target)?;
        let (tw, th) = (tgt.width(), tgt.height());
        let quad = Quad::full(tw, th);
        let _pass_span = trace::span_with(
            "gpu.pass",
            &program.name,
            &[
                ("fragments", ArgValue::U64(quad.fragments() as u64)),
                ("tiles", ArgValue::U64(quad.tile_count() as u64)),
            ],
        );
        let pass_start = Instant::now();
        // Shade the target into a scratch buffer as independent tiles, one
        // simulated fragment pipe (with its own cache model) per tile. The
        // tile executor shades a whole tile per call through the
        // specialized form; the scalar per-fragment loop stays as the
        // bit-exactness oracle (`set_batch_execution(false)`).
        let batch = self.batch_enabled;
        let mut out = vec![[0.0f32; 4]; quad.fragments()];
        let (tile_counts, ledger) =
            shade_tiled(&mut out, &quad, |x0, y0, mut rows, cache, ledger| {
                if batch {
                    return interp::execute_tile(
                        &lowered,
                        texcoords,
                        x0,
                        y0,
                        tw,
                        th,
                        &mut rows,
                        &input_refs,
                        cache,
                        ledger,
                    );
                }
                let (mut instr, mut fetches) = (0u64, 0u64);
                for (ri, seg) in rows.iter_mut().enumerate() {
                    let y = y0 + ri;
                    for (ci, slot) in seg.iter_mut().enumerate() {
                        let r = interp::execute(
                            lowered.program(),
                            &fragment_input(texcoords, x0 + ci, y, tw, th),
                            lowered.constants(),
                            &input_refs,
                            Some(&mut *cache),
                        );
                        instr += r.instructions;
                        fetches += r.texel_fetches;
                        *slot = r.colors[0];
                    }
                }
                (instr, fetches)
            });

        // Resolve to the framebuffer: the scratch buffer is the target's
        // texels in row-major order.
        self.textures
            .get_mut(&target.0)
            .expect("target validated above")
            .texels_mut()
            .copy_from_slice(&out);

        let mut pass = PassStats {
            fragments: quad.fragments() as u64,
            bytes_written: (quad.fragments() * 16) as u64,
            passes: 1,
            tiles: quad.tile_count() as u64,
            ..PassStats::default()
        };
        // Deterministic merge: per-tile counters sum in tile order, never
        // in scheduling order.
        for c in &tile_counts {
            c.merge_into(&mut pass);
        }
        if batch {
            trace::instant(
                "gpu.ledger",
                &program.name,
                &[
                    ("sweep_ns", ArgValue::U64(ledger.sweep_ns)),
                    ("ops", ArgValue::U64(ledger.ops)),
                    ("replay_ns", ArgValue::U64(ledger.replay_ns)),
                    ("fetches", ArgValue::U64(pass.texel_fetches)),
                    ("resolve_ns", ArgValue::U64(ledger.resolve_ns)),
                    ("texels", ArgValue::U64(pass.fragments)),
                ],
            );
        }
        trace::metrics::observe("gpu.pass_wall", pass_start.elapsed());
        self.stats.add(&pass);
        Ok(pass)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    fn small_gpu() -> Gpu {
        Gpu::new(GpuProfile::fx5950_ultra())
    }

    #[test]
    fn texture_lifecycle_and_memory_accounting() {
        let mut gpu = small_gpu();
        let total = gpu.free_bytes();
        let t = gpu.alloc_texture(64, 32).unwrap();
        assert_eq!(gpu.allocated_bytes(), 64 * 32 * 16);
        assert_eq!(gpu.free_bytes(), total - 64 * 32 * 16);
        gpu.free_texture(t).unwrap();
        assert_eq!(gpu.free_bytes(), total);
        assert!(gpu.free_texture(t).is_err());
        assert!(gpu.texture(t).is_err());
    }

    #[test]
    fn allocation_limits_enforced() {
        let mut gpu = small_gpu();
        assert!(matches!(
            gpu.alloc_texture(0, 4),
            Err(GpuError::InvalidTextureSize { .. })
        ));
        assert!(matches!(
            gpu.alloc_texture(5000, 4),
            Err(GpuError::InvalidTextureSize { .. })
        ));
        // 256 MiB budget: a 4096x4096 RGBA32F texture (256 MiB) exactly fits;
        // two cannot.
        let t = gpu.alloc_texture(4096, 4096).unwrap();
        assert!(matches!(
            gpu.alloc_texture(4096, 4096),
            Err(GpuError::OutOfVideoMemory { .. })
        ));
        gpu.free_texture(t).unwrap();
    }

    #[test]
    fn upload_download_round_trip_counts_bytes() {
        let mut gpu = small_gpu();
        let t = gpu.alloc_texture(2, 2).unwrap();
        let data: Vec<f32> = (0..16).map(|i| i as f32).collect();
        gpu.upload(t, &data).unwrap();
        let back = gpu.download(t).unwrap();
        assert_eq!(back, data);
        let s = gpu.stats();
        assert_eq!(s.bytes_uploaded, 64);
        assert_eq!(s.bytes_downloaded, 64);
        assert!(gpu.upload(t, &data[..8]).is_err());
    }

    #[test]
    fn isa_pass_copies_texture() {
        let mut gpu = small_gpu();
        let src = gpu.alloc_texture(4, 4).unwrap();
        let dst = gpu.alloc_texture(4, 4).unwrap();
        let data: Vec<f32> = (0..4 * 4 * 4).map(|i| i as f32).collect();
        gpu.upload(src, &data).unwrap();
        let prog = assemble("!!copy\nTEX R0, T0, tex0\nMOV OC, R0").unwrap();
        let stats = gpu
            .run_pass(&prog, &[src], &[], &[TexCoordSet::identity()], dst)
            .unwrap();
        assert_eq!(gpu.download(dst).unwrap(), data);
        assert_eq!(stats.fragments, 16);
        // The device shades the program as written: 2 instructions per
        // fragment.
        assert_eq!(stats.instructions, 32);
        assert_eq!(stats.texel_fetches, 16);
        assert_eq!(stats.bytes_written, 256);
        assert_eq!(stats.passes, 1);
        assert_eq!(gpu.lowerings(), 1);
    }

    #[test]
    fn scalar_oracle_matches_batched_passes_exactly() {
        // The same non-trivial pass on two devices, one shading through the
        // tile executor and one through the per-fragment oracle:
        // texels AND every PassStats field must agree bit for bit. A 70x9
        // target exercises ragged tiles (partial chunks) on both axes.
        let run = |batch: bool| {
            let mut gpu = small_gpu();
            gpu.set_batch_execution(batch);
            let src = gpu.alloc_texture(70, 9).unwrap();
            let dst = gpu.alloc_texture(70, 9).unwrap();
            let data: Vec<f32> = (0..70 * 9 * 4)
                .map(|i| (i % 23) as f32 * 0.21 - 1.9)
                .collect();
            gpu.upload(src, &data).unwrap();
            let prog = assemble(
                "!!mix\nDEF C1, 0.25, -3, 1.5, 2\nTEX R0, T0, tex0\nTEX R1, T1, tex0\n\
                 MAD R2, R0, C1.wzxy, -R1\nLRP R3, C0.x, R0, R2\nDP3 R3.w, R3, C1\n\
                 MOV_SAT OC, R3",
            )
            .unwrap();
            let stats = gpu
                .run_pass(
                    &prog,
                    &[src],
                    &[(0, [0.4, 0.0, 0.0, 0.0])],
                    &[
                        TexCoordSet::identity(),
                        TexCoordSet::shifted_texels(1, -1, 70, 9),
                    ],
                    dst,
                )
                .unwrap();
            (gpu.download(dst).unwrap(), stats)
        };
        let (batched, batched_stats) = run(true);
        let (scalar, scalar_stats) = run(false);
        assert_eq!(
            batched.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            scalar.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(batched_stats, scalar_stats);
    }

    #[test]
    fn batch_toggle_reuses_the_one_lowering() {
        // Both executors run the same cached lowering: toggling batching
        // hits the cache, and the two passes shade identical texels and
        // counters.
        let mut gpu = small_gpu();
        let src = gpu.alloc_texture(9, 5).unwrap();
        let dst = gpu.alloc_texture(9, 5).unwrap();
        let data: Vec<f32> = (0..9 * 5 * 4).map(|i| (i % 7) as f32 * 0.3).collect();
        gpu.upload(src, &data).unwrap();
        let prog = assemble("TEX R0, T0, tex0\nMUL R1, R0, R0.x\nADD OC, R1, -R0").unwrap();
        let sets = [TexCoordSet::identity()];
        let shade = |gpu: &mut Gpu| {
            let stats = gpu.run_pass(&prog, &[src], &[], &sets, dst).unwrap();
            let texels: Vec<u32> = gpu
                .download(dst)
                .unwrap()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            (texels, stats)
        };
        let batched = shade(&mut gpu);
        assert_eq!(gpu.lowerings(), 1);
        gpu.set_batch_execution(false);
        let scalar = shade(&mut gpu);
        assert_eq!(gpu.lowerings(), 1, "toggling batching must not re-lower");
        assert_eq!(gpu.lower_cache_hits(), 1);
        assert_eq!(batched, scalar);
    }

    #[test]
    fn target_cannot_be_input() {
        let mut gpu = small_gpu();
        let t = gpu.alloc_texture(4, 4).unwrap();
        let prog = assemble("TEX R0, T0, tex0\nMOV OC, R0").unwrap();
        let err = gpu
            .run_pass(&prog, &[t], &[], &[TexCoordSet::identity()], t)
            .unwrap_err();
        assert!(matches!(err, GpuError::InvalidPass { .. }));
    }

    #[test]
    fn missing_binding_is_reported() {
        let mut gpu = small_gpu();
        let dst = gpu.alloc_texture(2, 2).unwrap();
        let prog = assemble("TEX R0, T0, tex0\nMOV OC, R0").unwrap();
        let err = gpu.run_pass(&prog, &[], &[], &[], dst).unwrap_err();
        match err {
            GpuError::VerifyError { diagnostics, .. } => {
                let kinds: Vec<_> = diagnostics.iter().map(|d| d.kind).collect();
                assert!(kinds.contains(&crate::verify::DiagKind::UnboundSampler));
                assert!(kinds.contains(&crate::verify::DiagKind::UnboundTexCoord));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn verifier_rejects_uninitialized_reads_before_shading() {
        let mut gpu = small_gpu();
        let dst = gpu.alloc_texture(2, 2).unwrap();
        // R3 is never written: rejected before any fragment executes.
        let prog = assemble("MOV OC, R3").unwrap();
        let err = gpu.run_pass(&prog, &[], &[], &[], dst).unwrap_err();
        assert!(matches!(err, GpuError::VerifyError { .. }), "{err:?}");
        assert_eq!(gpu.stats().passes, 0, "no pass may have run");
    }

    #[test]
    fn shifted_texcoords_access_neighbours_with_clamping() {
        let mut gpu = small_gpu();
        let src = gpu.alloc_texture(3, 1).unwrap();
        let dst = gpu.alloc_texture(3, 1).unwrap();
        let data: Vec<f32> = [[1.0f32; 4], [2.0; 4], [3.0; 4]].concat();
        gpu.upload(src, &data).unwrap();
        // Shift left by one texel: dst[x] = src[x-1] with clamp.
        let prog = assemble("TEX R0, T0, tex0\nMOV OC, R0").unwrap();
        gpu.run_pass(
            &prog,
            &[src],
            &[],
            &[TexCoordSet::shifted_texels(-1, 0, 3, 1)],
            dst,
        )
        .unwrap();
        let out = gpu.download(dst).unwrap();
        assert_eq!(out[0], 1.0); // clamped
        assert_eq!(out[4], 1.0);
        assert_eq!(out[8], 2.0);
    }

    #[test]
    fn cache_counters_cover_every_fetch() {
        let mut gpu = small_gpu();
        let src = gpu.alloc_texture(16, 16).unwrap();
        let dst = gpu.alloc_texture(16, 16).unwrap();
        let prog = assemble("TEX R0, T0, tex0\nMOV OC, R0").unwrap();
        let stats = gpu
            .run_pass(&prog, &[src], &[], &[TexCoordSet::identity()], dst)
            .unwrap();
        assert_eq!(stats.cache_hits + stats.cache_misses, stats.texel_fetches);
        assert!(stats.cache_hit_rate() > 0.5, "{}", stats.cache_hit_rate());
    }

    #[test]
    fn pooled_allocation_recycles_and_zero_fills() {
        let mut gpu = small_gpu();
        let t = gpu.alloc_pooled(4, 4).unwrap();
        assert_eq!(gpu.texture_allocs(), 1);
        assert_eq!(gpu.pool_hits(), 0);
        let junk: Vec<f32> = (0..4 * 4 * 4).map(|i| i as f32 + 1.0).collect();
        gpu.upload(t, &junk).unwrap();
        gpu.release_pooled(t).unwrap();
        assert_eq!(gpu.allocated_bytes(), 0);
        assert_eq!(gpu.pooled_bytes(), 4 * 4 * 16);
        assert!(gpu.texture(t).is_err(), "released handle must be dead");

        // Same size class: served from the pool, zero-filled.
        let t2 = gpu.alloc_pooled(4, 4).unwrap();
        assert_eq!(gpu.texture_allocs(), 1, "no new allocation");
        assert_eq!(gpu.pool_hits(), 1);
        assert_eq!(gpu.pooled_bytes(), 0);
        let tex = gpu.texture(t2).unwrap();
        assert!(tex.texels().iter().all(|t| *t == [0.0; 4]));

        // Different size class: a genuine allocation.
        let t3 = gpu.alloc_pooled(8, 8).unwrap();
        assert_eq!(gpu.texture_allocs(), 2);
        assert_eq!(gpu.pool_hits(), 1);
        gpu.release_pooled(t2).unwrap();
        gpu.release_pooled(t3).unwrap();
        assert_eq!(gpu.pooled_bytes(), (4 * 4 + 8 * 8) * 16);
        assert_eq!(gpu.allocated_bytes(), 0);
    }

    #[test]
    fn pool_evicts_under_memory_pressure() {
        // 256 MiB budget: pool a 4096x4096 (256 MiB) texture, then ask for a
        // different size class — the pooled texture must be evicted rather
        // than the allocation refused.
        let mut gpu = small_gpu();
        let big = gpu.alloc_pooled(4096, 4096).unwrap();
        gpu.release_pooled(big).unwrap();
        assert_eq!(gpu.free_bytes(), 0, "pooled bytes still occupy memory");
        let t = gpu.alloc_texture(2048, 2048).unwrap();
        assert_eq!(gpu.pooled_bytes(), 0, "pool evicted to make room");
        gpu.free_texture(t).unwrap();
    }

    #[test]
    fn verification_cache_skips_repeat_verifications() {
        let mut gpu = small_gpu();
        let src = gpu.alloc_texture(4, 4).unwrap();
        let dst = gpu.alloc_texture(4, 4).unwrap();
        let prog = assemble("TEX R0, T0, tex0\nMOV OC, R0").unwrap();
        for _ in 0..3 {
            gpu.run_pass(&prog, &[src], &[], &[TexCoordSet::identity()], dst)
                .unwrap();
        }
        assert_eq!(gpu.verifications(), 1, "one verification per program");
        assert_eq!(gpu.verify_cache_hits(), 2);

        // Different bindings are a different cache entry.
        let prog2 = assemble("DEF C0, 1, 1, 1, 1\nMOV OC, C0").unwrap();
        gpu.run_pass(&prog2, &[], &[], &[], dst).unwrap();
        gpu.run_pass(&prog2, &[], &[], &[], dst).unwrap();
        assert_eq!(gpu.verifications(), 2);
        assert_eq!(gpu.verify_cache_hits(), 3);
    }

    #[test]
    fn lowering_cache_reuses_programs_and_keys_on_constant_values() {
        let mut gpu = small_gpu();
        let dst = gpu.alloc_texture(4, 4).unwrap();
        let prog = assemble("MOV OC, C0").unwrap();
        for _ in 0..3 {
            gpu.run_pass(&prog, &[], &[(0, [1.0; 4])], &[], dst)
                .unwrap();
        }
        assert_eq!(gpu.lowerings(), 1, "one lowering per bind");
        assert_eq!(gpu.lower_cache_hits(), 2);
        // Same program text, different constant value: constants are folded
        // into the lowered form, so this is a distinct cache entry …
        gpu.run_pass(&prog, &[], &[(0, [2.0; 4])], &[], dst)
            .unwrap();
        assert_eq!(gpu.lowerings(), 2);
        // … that is itself reused.
        gpu.run_pass(&prog, &[], &[(0, [2.0; 4])], &[], dst)
            .unwrap();
        assert_eq!(gpu.lowerings(), 2);
        assert_eq!(gpu.lower_cache_hits(), 3);
        assert_eq!(gpu.texture(dst).unwrap().texel(0, 0), [2.0; 4]);
    }

    #[test]
    fn pass_stats_count_shading_tiles() {
        use crate::raster::{TILE_ROWS, TILE_W};
        let mut gpu = small_gpu();
        let small = gpu.alloc_texture(4, 4).unwrap();
        let prog = assemble("DEF C0, 1, 1, 1, 1\nMOV OC, C0").unwrap();
        let stats = gpu.run_pass(&prog, &[], &[], &[], small).unwrap();
        assert_eq!(stats.tiles, 1, "a 4x4 target is one tile");

        let (w, h) = (2 * TILE_W + 1, 2 * TILE_ROWS + 1);
        let wide = gpu.alloc_texture(w, h).unwrap();
        // Each fragment writes its own interpolated position.
        let sets = [TexCoordSet::identity()];
        let position = assemble("MOV OC, T0").unwrap();
        let stats = gpu.run_pass(&position, &[], &[], &sets, wide).unwrap();
        assert_eq!(stats.tiles, 9, "3 tile columns x 3 tile bands");
        assert_eq!(gpu.stats().tiles, 10, "tiles accumulate across passes");
        // The tiled write pattern must still cover every fragment.
        let tex = gpu.texture(wide).unwrap();
        assert_eq!(
            tex.texel(w - 1, h - 1),
            fragment_input(&sets, w - 1, h - 1, w, h).texcoords[0]
        );
    }

    #[test]
    fn verification_failures_are_not_cached() {
        let mut gpu = small_gpu();
        let dst = gpu.alloc_texture(2, 2).unwrap();
        let bad = assemble("MOV OC, R3").unwrap();
        for _ in 0..2 {
            let err = gpu.run_pass(&bad, &[], &[], &[], dst).unwrap_err();
            assert!(matches!(err, GpuError::VerifyError { .. }));
        }
        assert_eq!(gpu.verifications(), 2, "errors re-verify every time");
        assert_eq!(gpu.verify_cache_hits(), 0);
    }

    /// Runs `TEX R0, T0, tex0` over a 16x16 texture once through `far` and
    /// once through `edge`. Every fetch clamps to the edge, so when `edge`
    /// samples the texels `far` clamps to, both passes must read, fetch, hit
    /// and miss exactly alike.
    fn assert_far_fetches_match(
        far: impl Fn(usize, usize) -> TexCoordSet,
        edge: impl Fn(f32, f32) -> TexCoordSet,
    ) {
        let (w, h) = (16, 16);
        let mut gpu = small_gpu();
        let src = gpu.alloc_texture(w, h).unwrap();
        let dst = gpu.alloc_texture(w, h).unwrap();
        let data: Vec<f32> = (0..w * h * 4).map(|i| i as f32).collect();
        gpu.upload(src, &data).unwrap();
        let prog = assemble("TEX R0, T0, tex0\nMOV OC, R0").unwrap();
        let mut pass = |set: TexCoordSet| {
            let stats = gpu.run_pass(&prog, &[src], &[], &[set], dst).unwrap();
            let colors = gpu.download(dst).unwrap();
            (
                stats.texel_fetches,
                stats.cache_hits,
                stats.cache_misses,
                colors,
            )
        };
        let (far, edge) = (pass(far(w, h)), pass(edge(w as f32, h as f32)));
        assert_eq!(far.0, (w * h) as u64);
        assert_eq!(far.1 + far.2, far.0, "every fetch hits or misses");
        assert_eq!(far, edge);
    }

    #[test]
    fn far_right_fetches_tag_the_edge_column() {
        // A pass shifted 100 texels right behaves like one that samples the
        // last column directly.
        assert_far_fetches_match(
            |w, h| TexCoordSet::shifted_texels(100, 0, w, h),
            |wf, _| TexCoordSet {
                scale: [0.0, 1.0],
                offset: [(wf - 0.5) / wf, 0.0],
            },
        );
    }

    #[test]
    fn far_up_left_fetches_tag_the_corner_texel() {
        // A pass shifted 100 texels up-left behaves like one that samples
        // texel (0, 0) directly.
        assert_far_fetches_match(
            |w, h| TexCoordSet::shifted_texels(-100, -100, w, h),
            |wf, hf| TexCoordSet {
                scale: [0.0, 0.0],
                offset: [0.5 / wf, 0.5 / hf],
            },
        );
    }

    #[test]
    fn download_into_reuses_buffer_and_counts_bytes() {
        let mut gpu = small_gpu();
        let t = gpu.alloc_texture(2, 2).unwrap();
        let data: Vec<f32> = (0..16).map(|i| i as f32).collect();
        gpu.upload(t, &data).unwrap();
        let mut buf = vec![99.0; 3];
        gpu.download_into(t, &mut buf).unwrap();
        assert_eq!(buf, data);
        assert_eq!(gpu.stats().bytes_downloaded, 64);
        // Reuse: previous contents replaced, bytes counted again.
        gpu.download_into(t, &mut buf).unwrap();
        assert_eq!(buf, data);
        assert_eq!(gpu.stats().bytes_downloaded, 128);
        assert!(gpu.download_into(TextureId(999), &mut buf).is_err());
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let mut gpu = small_gpu();
        let dst = gpu.alloc_texture(2, 2).unwrap();
        let prog = assemble("DEF C0, 1, 1, 1, 1\nMOV OC, C0").unwrap();
        gpu.run_pass(&prog, &[], &[], &[], dst).unwrap();
        gpu.run_pass(&prog, &[], &[], &[], dst).unwrap();
        assert_eq!(gpu.stats().passes, 2);
        assert_eq!(gpu.stats().fragments, 8);
        gpu.reset_stats();
        assert_eq!(gpu.stats(), PassStats::default());
    }
}
