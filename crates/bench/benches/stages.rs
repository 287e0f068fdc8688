//! Per-stage kernel benchmarks: wall-clock of each pipeline stage pass on
//! the simulator.

use amc_core::kernels;
use amc_core::pipeline::{GpuAmc, KernelMode};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gpu_sim::device::GpuProfile;
use gpu_sim::gpu::Gpu;
use gpu_sim::raster::TexCoordSet;
use hsi::classify::AmcConfig;
use std::time::Duration;

const SIDE: usize = 64;

fn setup() -> (
    Gpu,
    gpu_sim::gpu::TextureId,
    gpu_sim::gpu::TextureId,
    gpu_sim::gpu::TextureId,
) {
    let mut gpu = Gpu::new(GpuProfile::geforce_7800gtx());
    let a = gpu.alloc_texture(SIDE, SIDE).unwrap();
    let b = gpu.alloc_texture(SIDE, SIDE).unwrap();
    let out = gpu.alloc_texture(SIDE, SIDE).unwrap();
    let data: Vec<f32> = (0..SIDE * SIDE * 4)
        .map(|i| 0.001 + ((i * 37) % 211) as f32 / 211.0)
        .collect();
    gpu.upload(a, &data).unwrap();
    gpu.upload(b, &data).unwrap();
    (gpu, a, b, out)
}

fn bench_stage_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("stage_kernels");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(1));

    let (mut gpu, a, b, out) = setup();

    group.bench_function("band_sum_isa", |bench| {
        let prog = kernels::band_sum_program();
        bench.iter(|| {
            gpu.run_pass(&prog, &[a, b], &[], &[TexCoordSet::identity()], out, None)
                .unwrap()
        })
    });
    group.bench_function("sid_partial_isa", |bench| {
        let prog = kernels::sid_partial_program();
        let coords = [
            TexCoordSet::identity(),
            TexCoordSet::shifted_texels(1, 1, SIDE, SIDE),
        ];
        bench.iter(|| {
            gpu.run_pass(&prog, &[a, b], &[], &coords, out, None)
                .unwrap()
        })
    });
    group.bench_function("minmax_update_isa", |bench| {
        let prog = kernels::minmax_update_program();
        let coords = [
            TexCoordSet::identity(),
            TexCoordSet::shifted_texels(-1, 0, SIDE, SIDE),
        ];
        bench.iter(|| {
            gpu.run_pass(&prog, &[a, b], &[(0, [3.0; 4])], &coords, out, None)
                .unwrap()
        })
    });
    group.finish();
}

fn bench_cache_ablation(c: &mut Criterion) {
    // Cache model on/off: functional output identical, simulation overhead
    // and counter fidelity differ.
    let mut group = c.benchmark_group("cache_model");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(1));
    for enabled in [true, false] {
        group.bench_with_input(
            BenchmarkId::new("sid_partial", enabled),
            &enabled,
            |bench, &enabled| {
                let (mut gpu, a, b, out) = setup();
                gpu.set_cache_model(enabled);
                let prog = kernels::sid_partial_program();
                let coords = [
                    TexCoordSet::identity(),
                    TexCoordSet::shifted_texels(1, 0, SIDE, SIDE),
                ];
                bench.iter(|| {
                    gpu.run_pass(&prog, &[a, b], &[], &coords, out, None)
                        .unwrap()
                })
            },
        );
    }
    group.finish();
}

/// Geometry of the benchmark scenes: 160×128 pixels, 96 bands.
const FUSED_DIMS: (usize, usize, usize) = (160, 128, 96);

fn bench_fused_passes(c: &mut Criterion) {
    // The fused programs the pipeline actually shades: compile the AMC
    // graph at the benchmark geometry on a 7800 GTX and time its first
    // distance pass and first MEI pass, each over a full 160×128 target.
    let mut group = c.benchmark_group("fused_pass");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    let profile = GpuProfile::geforce_7800gtx();
    let se = AmcConfig::paper_default(32).se;
    let p_b = se.len();
    let (w, h, bands) = FUSED_DIMS;
    let graph = GpuAmc::new(se.clone(), KernelMode::Isa)
        .compile_graph(&profile, w, h, bands, true)
        .unwrap();
    let lut = kernels::offset_lut(&se.offsets(), w, h);
    for stage in ["distance", "mei"] {
        let pass = graph
            .passes
            .iter()
            .find(|p| p.stage == stage)
            .expect("the AMC graph shades every stage");
        let mut gpu = Gpu::new(profile.clone());
        let inputs: Vec<_> = pass
            .inputs
            .iter()
            .map(|&handle| {
                let decl = &graph.textures[handle.0];
                let id = gpu.alloc_texture(decl.width, decl.height).unwrap();
                // Texel contents steer the MEI pass's dependent fetches:
                // the offset LUT and min/max states must hold what the
                // pipeline would put there; band data is any positive ramp.
                let data: Vec<f32> = if decl.name == "lut" {
                    lut.clone()
                } else if decl.name.starts_with("state") {
                    (0..decl.width * decl.height)
                        .flat_map(|i| {
                            let (lo, hi) = ((i * 7 % p_b) as f32, (i * 3 % p_b) as f32);
                            [0.5, lo, 2.0, hi]
                        })
                        .collect()
                } else {
                    (0..decl.width * decl.height * 4)
                        .map(|i| 0.001 + ((i * 37) % 211) as f32 / 211.0)
                        .collect()
                };
                gpu.upload(id, &data).unwrap();
                id
            })
            .collect();
        let out = gpu.alloc_texture(w, h).unwrap();
        group.bench_function(stage, |bench| {
            bench.iter(|| {
                gpu.run_pass(
                    &pass.program,
                    &inputs,
                    &pass.constants,
                    &pass.texcoords,
                    out,
                    None,
                )
                .unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_stage_kernels,
    bench_cache_ablation,
    bench_fused_passes
);
criterion_main!(benches);
