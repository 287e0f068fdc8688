//! Analytic work model for the GPU pipeline.
//!
//! Tables 4–5 of the paper cover image sizes up to the full 547 MB Indian
//! Pines scene. Executing the functional simulator at that scale is neither
//! necessary nor useful — counted work is a *deterministic* function of the
//! image geometry and the stage structure, so this module predicts the exact
//! [`PassStats`] the pipeline would produce. The prediction is validated
//! against executed-simulation counters on small cubes (see the tests and
//! `tests/` integration suite); only the texture-cache hit rate is a modeled
//! parameter (calibrated from executed runs).

use crate::kernels;
use crate::layout;
use crate::pipeline::{GpuAmc, KernelMode};
use gpu_sim::counters::PassStats;
use gpu_sim::device::GpuProfile;
use gpu_sim::timing::{self, GpuTime};
use hsi::cube::{Chunking, CubeDims};
use hsi::morphology::StructuringElement;

/// Default texture-cache hit rate assumed by the analytic model. The AMC
/// access patterns (identity + small-shift fetches) measure ~0.94 in
/// executed simulations across sizes (see the calibration test below).
pub const DEFAULT_CACHE_HIT_RATE: f64 = 0.94;

/// Analytic prediction parameters.
#[derive(Debug, Clone, Copy)]
pub struct PredictConfig {
    /// Assumed texture-cache hit rate (`[0, 1]`).
    pub cache_hit_rate: f64,
}

impl Default for PredictConfig {
    fn default() -> Self {
        Self {
            cache_hit_rate: DEFAULT_CACHE_HIT_RATE,
        }
    }
}

/// Exact per-chunk work counts, host↔device stream transfers included (cache
/// split governed by the config).
pub fn predict_chunk_stats(
    width: usize,
    height: usize,
    bands: usize,
    se: &StructuringElement,
    config: &PredictConfig,
) -> PassStats {
    let frag = (width * height) as u64;
    let g = layout::band_groups(bands) as u64;
    let p_b = se.len() as u64;

    // Pass structure mirrors the unfused chunk graph exactly.
    let passes = g + g + (p_b - 1) * g + p_b + g;
    let instructions = frag
        * (g * kernels::BAND_SUM_COST
            + g * kernels::NORMALIZE_COST
            + (p_b - 1) * g * kernels::SID_PARTIAL_COST
            + kernels::MINMAX_INIT_COST
            + (p_b - 1) * kernels::MINMAX_UPDATE_COST
            + g * kernels::MEI_PARTIAL_COST);
    let texel_fetches = frag
        * (g * 2              // band sums
            + g * 2           // normalize
            + (p_b - 1) * g * 3 // sid partial
            + 1               // minmax init
            + (p_b - 1) * 2   // minmax update
            + g * 6); // mei partial
                      // Every pass writes one RGBA32F texel per fragment.
    let bytes_written = frag * 16 * passes;

    let plane = layout::plane_bytes(width, height) as u64;
    let bytes_uploaded = g * plane + p_b * 16;
    let bytes_downloaded = 2 * plane;

    let cache_misses = ((texel_fetches as f64) * (1.0 - config.cache_hit_rate)).round() as u64;
    // Tile geometry is deterministic: every pass covers the chunk with the
    // executor's TILE_W x TILE_ROWS shading grid.
    let tiles_per_pass = (width.div_ceil(gpu_sim::raster::TILE_W)
        * height.div_ceil(gpu_sim::raster::TILE_ROWS)) as u64;
    PassStats {
        fragments: frag * passes,
        instructions,
        texel_fetches,
        cache_hits: texel_fetches - cache_misses,
        cache_misses,
        bytes_written,
        bytes_uploaded,
        bytes_downloaded,
        passes,
        tiles: passes * tiles_per_pass,
    }
}

/// Predict total stats for a full image processed with the given chunking.
pub fn predict_stats(
    dims: CubeDims,
    se: &StructuringElement,
    chunking: Chunking,
    config: &PredictConfig,
) -> PassStats {
    let mut total = PassStats::default();
    let mut y = 0usize;
    while y < dims.height {
        let body = chunking.lines_per_chunk.min(dims.height - y);
        let halo_top = chunking.halo.min(y);
        let halo_bottom = chunking.halo.min(dims.height - (y + body));
        let h = halo_top + body + halo_bottom;
        total.add(&predict_chunk_stats(dims.width, h, dims.bands, se, config));
        y += body;
    }
    total
}

/// Modeled execution of the AMC pipeline for an image on a GPU profile,
/// with the chunking that profile's memory forces.
///
/// Planning goes through [`GpuAmc::plan_chunking_for_budget`] — the same
/// planner the executor uses — on an unfused driver, whose schedule is the
/// one [`predict_chunk_stats`] counts, so predicted chunk geometry can
/// never drift from the executed chunk geometry of that schedule. Fails
/// like the executor would when even a single line cannot fit the
/// profile's video memory.
pub fn predict_gpu_time(
    dims: CubeDims,
    se: &StructuringElement,
    profile: &GpuProfile,
    config: &PredictConfig,
) -> crate::pipeline::Result<(GpuTime, PassStats)> {
    let mut amc = GpuAmc::new(se.clone(), KernelMode::Isa);
    amc.set_fusion(false);
    let chunking = amc.plan_chunking_for_budget(
        profile.video_memory_bytes(),
        dims.width,
        dims.height,
        dims.bands,
    )?;
    let stats = predict_stats(dims, se, chunking, config);
    Ok((timing::gpu_time(&stats, profile), stats))
}

/// Modeled seconds one device of a fleet spends on one `width × height ×
/// bands` chunk: exact predicted counters for the chunk geometry, the
/// profile's roofline rates, a host link shared with `bus_sharers - 1`
/// other devices, and the double-buffered executor's overlapped transfer
/// model. This is the weight the fleet's initial placement and
/// steal-victim selection use.
pub fn predict_chunk_time_s(
    width: usize,
    height: usize,
    bands: usize,
    se: &StructuringElement,
    profile: &GpuProfile,
    bus_sharers: usize,
    config: &PredictConfig,
) -> f64 {
    let stats = predict_chunk_stats(width, height, bands, se, config);
    timing::gpu_time_shared(&stats, profile, bus_sharers)
        .total_s_mode(timing::TransferMode::Overlapped)
}

/// The six cropped-scene sizes of Tables 4–5, as numbers of lines of the
/// 2166-sample × 216-band Indian Pines scene closest to the quoted MB sizes.
pub fn paper_image_sizes() -> Vec<(f64, CubeDims)> {
    // The six sizes are 1/8, 1/4, 3/8, 1/2, 3/4 and all of the 614 lines.
    [
        (68.0f64, 1.0 / 8.0),
        (136.0, 1.0 / 4.0),
        (205.0, 3.0 / 8.0),
        (273.0, 1.0 / 2.0),
        (410.0, 3.0 / 4.0),
        (547.0, 1.0),
    ]
    .iter()
    .map(|&(mb, frac)| {
        let lines = (614.0f64 * frac).round() as usize;
        (mb, CubeDims::new(2166, lines, 216))
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{GpuAmc, KernelMode};
    use gpu_sim::gpu::Gpu;
    use hsi::cube::{Cube, Interleave};

    fn config_no_cache_assumption() -> PredictConfig {
        PredictConfig {
            cache_hit_rate: 0.5,
        }
    }

    #[test]
    fn prediction_matches_executed_simulation_exactly() {
        // Deterministic counters: fragments, instructions, fetches, bytes
        // and passes must match an executed run bit-for-bit.
        let dims = CubeDims::new(14, 11, 10);
        let cube = Cube::from_fn(dims, Interleave::Bip, |x, y, b| {
            1.0 + ((x * 31 + y * 17 + b * 7) % 23) as f32
        })
        .unwrap();
        let se = StructuringElement::square(3).unwrap();
        let mut gpu = Gpu::new(GpuProfile::geforce_7800gtx());
        // The model counts the unfused schedule, pass for pass.
        let mut amc = GpuAmc::new(se.clone(), KernelMode::Isa);
        amc.set_fusion(false);
        let out = amc
            .run_with_chunking(&mut gpu, &cube, Chunking::new(11, 0))
            .unwrap();
        let pred = predict_chunk_stats(14, 11, 10, &se, &PredictConfig::default());
        assert_eq!(pred.passes, out.stats.passes);
        assert_eq!(pred.fragments, out.stats.fragments);
        assert_eq!(pred.instructions, out.stats.instructions);
        assert_eq!(pred.texel_fetches, out.stats.texel_fetches);
        assert_eq!(pred.bytes_written, out.stats.bytes_written);
        assert_eq!(pred.bytes_uploaded, out.stats.bytes_uploaded);
        assert_eq!(pred.bytes_downloaded, out.stats.bytes_downloaded);
        assert_eq!(pred.tiles, out.stats.tiles);
    }

    #[test]
    fn prediction_plans_the_unfused_schedule_it_counts() {
        // On a 1 MiB card the two schedules plan different chunks, so the
        // model must plan the unfused one it counts: its totals equal those
        // of an executed unfused run on that card.
        let mut card = GpuProfile::fx5950_ultra();
        card.video_memory_mib = 1;
        let dims = CubeDims::new(64, 96, 16);
        let se = StructuringElement::square(3).unwrap();
        let mut amc = GpuAmc::new(se.clone(), KernelMode::Isa);
        let lines = |amc: &GpuAmc| {
            amc.plan_chunking_for_budget(card.video_memory_bytes(), 64, 96, 16)
                .unwrap()
                .lines_per_chunk
        };
        assert_eq!(lines(&amc), 59, "fused");
        amc.set_fusion(false);
        assert_eq!(lines(&amc), 47, "unfused");
        let cube = Cube::from_fn(dims, Interleave::Bip, |x, y, b| {
            1.0 + ((x * 31 + y * 17 + b * 7) % 23) as f32
        })
        .unwrap();
        let out = amc.run(&mut Gpu::new(card.clone()), &cube).unwrap();
        let (_, pred) = predict_gpu_time(dims, &se, &card, &PredictConfig::default()).unwrap();
        let work = |s: &PassStats| {
            [
                s.passes,
                s.fragments,
                s.instructions,
                s.texel_fetches,
                s.bytes_written,
                s.bytes_uploaded,
                s.bytes_downloaded,
                s.tiles,
            ]
        };
        assert_eq!(work(&pred), work(&out.stats));
    }

    #[test]
    fn measured_cache_hit_rate_is_near_model_default() {
        let dims = CubeDims::new(48, 48, 8);
        let cube = Cube::from_fn(dims, Interleave::Bip, |x, y, b| {
            1.0 + ((x + y + b) % 13) as f32
        })
        .unwrap();
        let se = StructuringElement::square(3).unwrap();
        let mut gpu = Gpu::new(GpuProfile::geforce_7800gtx());
        let out = GpuAmc::new(se, KernelMode::Isa)
            .run_with_chunking(&mut gpu, &cube, Chunking::new(48, 0))
            .unwrap();
        let measured = out.stats.cache_hit_rate();
        assert!(
            (measured - DEFAULT_CACHE_HIT_RATE).abs() < 0.1,
            "measured hit rate {measured}"
        );
    }

    #[test]
    fn prediction_scales_linearly_with_lines() {
        let se = StructuringElement::square(3).unwrap();
        let cfg = config_no_cache_assumption();
        let a = predict_chunk_stats(100, 100, 216, &se, &cfg);
        let b = predict_chunk_stats(100, 200, 216, &se, &cfg);
        assert_eq!(b.instructions, 2 * a.instructions);
        assert_eq!(b.texel_fetches, 2 * a.texel_fetches);
    }

    #[test]
    fn chunked_prediction_adds_halo_overhead() {
        let se = StructuringElement::square(3).unwrap();
        let cfg = PredictConfig::default();
        let dims = CubeDims::new(64, 64, 16);
        let whole = predict_stats(dims, &se, Chunking::new(64, 2), &cfg);
        let chunked = predict_stats(dims, &se, Chunking::new(8, 2), &cfg);
        assert!(chunked.instructions > whole.instructions);
        // Halo of 2 on 8-line chunks ≈ 50% overhead ceiling.
        assert!(chunked.instructions < whole.instructions * 3 / 2);
    }

    #[test]
    fn gpu_generations_rank_correctly_at_paper_scale() {
        let se = StructuringElement::square(3).unwrap();
        let cfg = PredictConfig::default();
        for (_, dims) in paper_image_sizes() {
            let (fx, _) = predict_gpu_time(dims, &se, &GpuProfile::fx5950_ultra(), &cfg).unwrap();
            let (g70, _) =
                predict_gpu_time(dims, &se, &GpuProfile::geforce_7800gtx(), &cfg).unwrap();
            let ratio = fx.kernel_s() / g70.kernel_s();
            assert!(ratio > 3.0 && ratio < 7.0, "ratio {ratio} at {dims:?}");
        }
    }

    #[test]
    fn paper_sizes_reproduce_mb_column() {
        let sizes = paper_image_sizes();
        assert_eq!(sizes.len(), 6);
        for (mb, dims) in &sizes {
            let actual = dims.sensor_mib();
            assert!(
                (actual - mb).abs() / mb < 0.02,
                "{mb} MB → {actual} MiB ({dims:?})"
            );
        }
        // Largest size is the full scene.
        assert_eq!(sizes[5].1.height, 614);
    }

    #[test]
    fn modeled_time_scales_linearly_with_size() {
        let se = StructuringElement::square(3).unwrap();
        let cfg = PredictConfig::default();
        let sizes = paper_image_sizes();
        let profile = GpuProfile::geforce_7800gtx();
        let (t1, _) = predict_gpu_time(sizes[0].1, &se, &profile, &cfg).unwrap();
        let (t5, _) = predict_gpu_time(sizes[5].1, &se, &profile, &cfg).unwrap();
        let time_ratio = t5.kernel_s() / t1.kernel_s();
        let size_ratio = sizes[5].1.pixels() as f64 / sizes[0].1.pixels() as f64;
        assert!(
            (time_ratio / size_ratio - 1.0).abs() < 0.1,
            "time {time_ratio} vs size {size_ratio}"
        );
    }
}
