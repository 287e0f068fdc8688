//! The simulated GPU device.
//!
//! Owns textures under the profile's video-memory budget, executes render
//! passes (fragment programs over full-screen quads) across parallel
//! fragment pipes, and accumulates performance counters. A pass
//! ([`Gpu::run_pass`]) executes a verified, lowered fragment program through
//! the interpreter — bit-faithful to what the modelled hardware would
//! compute, with exact instruction/texel counts.
//!
//! Passes shade the render target as independent
//! [`TILE_W`](crate::raster::TILE_W)`x`[`TILE_ROWS`](crate::raster::TILE_ROWS)
//! tiles dispatched on the host worker pool (one simulated fragment pipe per
//! tile, each with its own texture-cache model). Per-tile counters are
//! merged in tile order, so aggregate statistics and output texels are
//! bit-identical at every thread count. Programs execute through a
//! [`LoweredProgram`] — the shaded program with its resolved constants, and
//! its straight-line per-component specialization. Tiles run the
//! specialized form through [`interp::execute_tile`]; while tracing is on,
//! each pass also records where its tiles' time went (a [`ShadeLedger`] in
//! a `gpu.ledger` trace instant).
//!
//! A pass shades exactly the lowering it is handed. [`interp::lower`]
//! verifies a program for a profile and a pass's bindings before it lowers
//! it, and the render-graph compiler lowers each pass once, so the device
//! keeps no verification or lowering state: it checks only that the
//! lowering was made for its profile and for the pass's samplers and
//! coordinate sets. One switch selects the oracle form parity tests
//! compare against: [`Gpu::set_batch_execution`] (`false` shades fragment
//! by fragment through [`interp::execute`] on the lowering's program and
//! constants instead of through the tile executor). It defaults to on.

use crate::counters::{PassStats, ShadeLedger, TileCounts};
use crate::device::GpuProfile;
use crate::error::{GpuError, Result};
use crate::interp::{self, LoweredProgram};
use crate::raster::{self, fragment_input, Quad, TexCoordSet};
use crate::texcache::TextureCache;
use crate::texture::{Texel, Texture2D};
use rayon::prelude::*;
use std::collections::HashMap;
use std::time::Instant;
use trace::ArgValue;

/// Handle to a texture resident in simulated video memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TextureId(pub(crate) u32);

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

    /// Turn tile execution on or off for this device; off shades fragment
    /// by fragment, the oracle batch parity tests compare against. Takes
    /// effect on the next pass: both executors run the lowering the pass
    /// is handed.
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

    /// Execute a lowered fragment program over the whole of `target`,
    /// writing output `O0` to it.
    ///
    /// `inputs[i]` binds sampler `texI`; `texcoords[i]` defines coordinate
    /// set `Ti`; the pass constants are already folded into `lowered`.
    ///
    /// The lowering is shaded exactly as given. It must have been verified
    /// ([`interp::lower`]) for this device's profile, for `inputs.len()`
    /// samplers and for `texcoords.len()` coordinate sets; any other pass
    /// is refused with [`GpuError::InvalidPass`] before a fragment is
    /// shaded.
    pub fn run_pass(
        &mut self,
        lowered: &LoweredProgram,
        inputs: &[TextureId],
        texcoords: &[TexCoordSet],
        target: TextureId,
    ) -> Result<PassStats> {
        lowered.check_pass(&self.profile, inputs.len(), texcoords.len())?;
        let input_refs = self.gather_inputs(inputs, target)?;
        let tgt = self.texture(target)?;
        let (tw, th) = (tgt.width(), tgt.height());
        let quad = Quad::full(tw, th);
        let name = &lowered.program().name;
        let _pass_span = trace::span_with(
            "gpu.pass",
            name,
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
                        lowered,
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
                name,
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

    /// Assemble `src` and lower it for `gpu`'s profile and a pass binding
    /// `samplers` textures, `sets` coordinate sets and `constants`.
    fn lower_for(
        gpu: &Gpu,
        src: &str,
        samplers: usize,
        sets: usize,
        constants: &[(u8, [f32; 4])],
    ) -> Result<LoweredProgram> {
        let bindings = crate::verify::PassBindings {
            samplers,
            texcoord_sets: sets,
            constants: constants.iter().map(|&(i, _)| i).collect(),
            outputs_read: [true, false, false, false],
        };
        interp::lower(&assemble(src).unwrap(), constants, &bindings, gpu.profile())
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
        let prog = lower_for(&gpu, "!!copy\nTEX R0, T0, tex0\nMOV OC, R0", 1, 1, &[]).unwrap();
        let stats = gpu
            .run_pass(&prog, &[src], &[TexCoordSet::identity()], dst)
            .unwrap();
        assert_eq!(gpu.download(dst).unwrap(), data);
        assert_eq!(stats.fragments, 16);
        // The device shades the program as written: 2 instructions per
        // fragment.
        assert_eq!(stats.instructions, 32);
        assert_eq!(stats.texel_fetches, 16);
        assert_eq!(stats.bytes_written, 256);
        assert_eq!(stats.passes, 1);
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
            let prog = lower_for(
                &gpu,
                "!!mix\nDEF C1, 0.25, -3, 1.5, 2\nTEX R0, T0, tex0\nTEX R1, T1, tex0\n\
                 MAD R2, R0, C1.wzxy, -R1\nLRP R3, C0.x, R0, R2\nDP3 R3.w, R3, C1\n\
                 MOV_SAT OC, R3",
                1,
                2,
                &[(0, [0.4, 0.0, 0.0, 0.0])],
            )
            .unwrap();
            let stats = gpu
                .run_pass(
                    &prog,
                    &[src],
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
    fn target_cannot_be_input() {
        let mut gpu = small_gpu();
        let t = gpu.alloc_texture(4, 4).unwrap();
        let prog = lower_for(&gpu, "TEX R0, T0, tex0\nMOV OC, R0", 1, 1, &[]).unwrap();
        let err = gpu
            .run_pass(&prog, &[t], &[TexCoordSet::identity()], t)
            .unwrap_err();
        assert!(matches!(err, GpuError::InvalidPass { .. }));
    }

    #[test]
    fn run_pass_refuses_a_lowering_verified_for_another_pass() {
        // Verified on an FX5950 for one sampler and one coordinate set:
        // any other sampler or coordinate-set count, or another profile,
        // is refused before a fragment is shaded, and nothing is counted.
        let mut gpu = small_gpu();
        let (a, b, dst) = (
            gpu.alloc_texture(4, 4).unwrap(),
            gpu.alloc_texture(4, 4).unwrap(),
            gpu.alloc_texture(4, 4).unwrap(),
        );
        let copy = lower_for(&gpu, "TEX R0, T0, tex0\nMOV OC, R0", 1, 1, &[]).unwrap();
        let set = [TexCoordSet::identity()];
        let refused = |gpu: &mut Gpu, inputs: &[TextureId], sets: &[TexCoordSet], dst| {
            let err = gpu.run_pass(&copy, inputs, sets, dst).unwrap_err();
            assert!(matches!(err, GpuError::InvalidPass { .. }), "{err:?}");
            assert_eq!(gpu.stats(), PassStats::default(), "a refused pass counted");
        };
        refused(&mut gpu, &[], &set, dst);
        refused(&mut gpu, &[a, b], &set, dst);
        refused(&mut gpu, &[a], &[], dst);
        let mut g70 = Gpu::new(GpuProfile::geforce_7800gtx());
        let (src70, dst70) = (
            g70.alloc_texture(4, 4).unwrap(),
            g70.alloc_texture(4, 4).unwrap(),
        );
        refused(&mut g70, &[src70], &set, dst70);
        // The pass it was verified for shades.
        gpu.run_pass(&copy, &[a], &set, dst).unwrap();
        assert_eq!(gpu.stats().passes, 1);
    }

    #[test]
    fn missing_binding_is_reported() {
        let gpu = small_gpu();
        let err = lower_for(&gpu, "TEX R0, T0, tex0\nMOV OC, R0", 0, 0, &[]).unwrap_err();
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
        // R3 is never written: the lowering is refused, so there is
        // nothing a device could shade.
        let err = lower_for(&small_gpu(), "MOV OC, R3", 0, 0, &[]).unwrap_err();
        assert!(matches!(err, GpuError::VerifyError { .. }), "{err:?}");
    }

    #[test]
    fn shifted_texcoords_access_neighbours_with_clamping() {
        let mut gpu = small_gpu();
        let src = gpu.alloc_texture(3, 1).unwrap();
        let dst = gpu.alloc_texture(3, 1).unwrap();
        let data: Vec<f32> = [[1.0f32; 4], [2.0; 4], [3.0; 4]].concat();
        gpu.upload(src, &data).unwrap();
        // Shift left by one texel: dst[x] = src[x-1] with clamp.
        let prog = lower_for(&gpu, "TEX R0, T0, tex0\nMOV OC, R0", 1, 1, &[]).unwrap();
        gpu.run_pass(
            &prog,
            &[src],
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
        let prog = lower_for(&gpu, "TEX R0, T0, tex0\nMOV OC, R0", 1, 1, &[]).unwrap();
        let stats = gpu
            .run_pass(&prog, &[src], &[TexCoordSet::identity()], dst)
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
    fn pass_stats_count_shading_tiles() {
        use crate::raster::{TILE_ROWS, TILE_W};
        let mut gpu = small_gpu();
        let small = gpu.alloc_texture(4, 4).unwrap();
        let prog = lower_for(&gpu, "DEF C0, 1, 1, 1, 1\nMOV OC, C0", 0, 0, &[]).unwrap();
        let stats = gpu.run_pass(&prog, &[], &[], small).unwrap();
        assert_eq!(stats.tiles, 1, "a 4x4 target is one tile");

        let (w, h) = (2 * TILE_W + 1, 2 * TILE_ROWS + 1);
        let wide = gpu.alloc_texture(w, h).unwrap();
        // Each fragment writes its own interpolated position.
        let sets = [TexCoordSet::identity()];
        let position = lower_for(&gpu, "MOV OC, T0", 0, 1, &[]).unwrap();
        let stats = gpu.run_pass(&position, &[], &sets, wide).unwrap();
        assert_eq!(stats.tiles, 9, "3 tile columns x 3 tile bands");
        assert_eq!(gpu.stats().tiles, 10, "tiles accumulate across passes");
        // The tiled write pattern must still cover every fragment.
        let tex = gpu.texture(wide).unwrap();
        assert_eq!(
            tex.texel(w - 1, h - 1),
            fragment_input(&sets, w - 1, h - 1, w, h).texcoords[0]
        );
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
        let prog = lower_for(&gpu, "TEX R0, T0, tex0\nMOV OC, R0", 1, 1, &[]).unwrap();
        let mut pass = |set: TexCoordSet| {
            let stats = gpu.run_pass(&prog, &[src], &[set], dst).unwrap();
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
        let prog = lower_for(&gpu, "DEF C0, 1, 1, 1, 1\nMOV OC, C0", 0, 0, &[]).unwrap();
        gpu.run_pass(&prog, &[], &[], dst).unwrap();
        gpu.run_pass(&prog, &[], &[], dst).unwrap();
        assert_eq!(gpu.stats().passes, 2);
        assert_eq!(gpu.stats().fragments, 8);
        gpu.reset_stats();
        assert_eq!(gpu.stats(), PassStats::default());
    }
}
