//! The analytic work model behind Tables 4–5 must agree exactly with
//! executed-simulation counters — the deterministic half of the timing
//! model's credibility.

use hyperspec::amc::perf::{self, PredictConfig};
use hyperspec::amc::pipeline::{GpuAmc, KernelMode};
use hyperspec::gpu::device::Compiler;
use hyperspec::gpu::timing;
use hyperspec::prelude::*;

fn cube(w: usize, h: usize, bands: usize) -> Cube {
    Cube::from_fn(CubeDims::new(w, h, bands), Interleave::Bip, |x, y, b| {
        1.0 + ((x * 7 + y * 13 + b * 3) % 31) as f32
    })
    .unwrap()
}

/// The analytic model counts the unfused schedule, pass for pass.
fn unfused(se: &StructuringElement) -> GpuAmc {
    let mut amc = GpuAmc::new(se.clone(), KernelMode::Isa);
    amc.set_fusion(false);
    amc
}

#[test]
fn analytic_counts_match_execution_for_multiple_shapes() {
    for (w, h, bands) in [(8, 8, 4), (17, 9, 10), (12, 20, 7)] {
        let c = cube(w, h, bands);
        let se = StructuringElement::square(3).unwrap();
        let mut gpu = Gpu::new(GpuProfile::geforce_7800gtx());
        let out = unfused(&se)
            .run_with_chunking(&mut gpu, &c, Chunking::new(h, 0))
            .unwrap();
        let pred = perf::predict_chunk_stats(w, h, bands, &se, &PredictConfig::default());
        assert_eq!(pred.passes, out.stats.passes, "{w}x{h}x{bands} passes");
        assert_eq!(pred.fragments, out.stats.fragments);
        assert_eq!(pred.instructions, out.stats.instructions);
        assert_eq!(pred.texel_fetches, out.stats.texel_fetches);
        assert_eq!(pred.bytes_written, out.stats.bytes_written);
        assert_eq!(pred.bytes_uploaded, out.stats.bytes_uploaded);
        assert_eq!(pred.bytes_downloaded, out.stats.bytes_downloaded);
    }
}

#[test]
fn analytic_counts_match_execution_for_5x5_se() {
    let c = cube(14, 14, 6);
    let se = StructuringElement::square(5).unwrap();
    let mut gpu = Gpu::new(GpuProfile::geforce_7800gtx());
    let out = unfused(&se)
        .run_with_chunking(&mut gpu, &c, Chunking::new(14, 0))
        .unwrap();
    let pred = perf::predict_chunk_stats(14, 14, 6, &se, &PredictConfig::default());
    assert_eq!(pred.instructions, out.stats.instructions);
    assert_eq!(pred.texel_fetches, out.stats.texel_fetches);
}

#[test]
fn chunked_prediction_matches_chunked_execution() {
    let c = cube(10, 24, 5);
    let se = StructuringElement::square(3).unwrap();
    let chunking = Chunking::new(6, 2);
    let mut gpu = Gpu::new(GpuProfile::geforce_7800gtx());
    let mut total = hyperspec::gpu::counters::PassStats::default();
    let amc = unfused(&se);
    for chunk in c.chunks(chunking) {
        let whole_chunk = Chunking::new(chunk.cube.dims().height, 0);
        let out = amc.run_with_chunking(&mut gpu, &chunk.cube, whole_chunk);
        total.add(&out.unwrap().stats);
    }
    let pred = perf::predict_stats(c.dims(), &se, chunking, &PredictConfig::default());
    assert_eq!(pred.instructions, total.instructions);
    assert_eq!(pred.texel_fetches, total.texel_fetches);
    assert_eq!(pred.passes, total.passes);
}

#[test]
fn table_shape_headlines_hold() {
    // The four headline shapes of the paper's evaluation, asserted from the
    // model that regenerates Tables 4-5 and Fig. 6.
    let se = StructuringElement::square(3).unwrap();
    let cfg = PredictConfig::default();
    let sizes = perf::paper_image_sizes();
    let p4 = hyperspec::gpu::device::CpuProfile::pentium4_northwood();

    let mut speedups = Vec::new();
    let mut gains = Vec::new();
    for (_, dims) in &sizes {
        let work = hyperspec::amc::cpu::amc_work(*dims, se.len());
        let cpu_ms = timing::cpu_time_ms(&work, &p4, Compiler::Gcc);
        let (fx, _) =
            perf::predict_gpu_time(*dims, &se, &GpuProfile::fx5950_ultra(), &cfg).unwrap();
        let (g70, _) =
            perf::predict_gpu_time(*dims, &se, &GpuProfile::geforce_7800gtx(), &cfg).unwrap();
        speedups.push(cpu_ms / g70.kernel_ms());
        gains.push(fx.kernel_ms() / g70.kernel_ms());
    }
    // 1. GPU >> CPU, near the paper's "close to 55" with gcc.
    for s in &speedups {
        assert!(*s > 35.0 && *s < 80.0, "speedup {s}");
    }
    // 2. Speedup roughly constant across sizes (streaming algorithm).
    let (lo, hi) = speedups
        .iter()
        .fold((f64::MAX, f64::MIN), |(l, h), &v| (l.min(v), h.max(v)));
    assert!(hi / lo < 1.2, "speedup spread {lo}..{hi}");
    // 3. GPU generation gain near the paper's ~4.4x.
    for g in &gains {
        assert!(*g > 3.5 && *g < 5.5, "generation gain {g}");
    }
    // 4. Linear scaling in image size.
    let (t0, _) =
        perf::predict_gpu_time(sizes[0].1, &se, &GpuProfile::geforce_7800gtx(), &cfg).unwrap();
    let (t5, _) =
        perf::predict_gpu_time(sizes[5].1, &se, &GpuProfile::geforce_7800gtx(), &cfg).unwrap();
    let ratio = t5.kernel_ms() / t0.kernel_ms();
    let size_ratio = sizes[5].1.pixels() as f64 / sizes[0].1.pixels() as f64;
    assert!(
        (ratio / size_ratio - 1.0).abs() < 0.1,
        "scaling {ratio} vs {size_ratio}"
    );
}

#[test]
fn cache_ablation_shifts_modeled_memory_time() {
    // Disabling the texture-cache model charges every fetch to DRAM: the
    // modeled memory time must increase while functional output is
    // unchanged.
    let c = cube(16, 16, 8);
    let se = StructuringElement::square(3).unwrap();
    let amc = GpuAmc::new(se, KernelMode::Isa);
    let mut with = Gpu::new(GpuProfile::fx5950_ultra());
    let out_with = amc
        .run_with_chunking(&mut with, &c, Chunking::new(16, 0))
        .unwrap();
    let mut without = Gpu::new(GpuProfile::fx5950_ultra());
    without.set_cache_model(false);
    let out_without = amc
        .run_with_chunking(&mut without, &c, Chunking::new(16, 0))
        .unwrap();
    assert_eq!(out_with.mei.scores, out_without.mei.scores);
    let t_with = timing::gpu_time(&out_with.stats, &GpuProfile::fx5950_ultra());
    let t_without = timing::gpu_time(&out_without.stats, &GpuProfile::fx5950_ultra());
    assert!(t_without.memory_s > t_with.memory_s);
}
