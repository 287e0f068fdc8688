//! Per-stage kernel benchmarks: wall-clock of each pipeline stage pass on
//! the simulator.

use amc_core::kernels;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gpu_sim::device::GpuProfile;
use gpu_sim::gpu::Gpu;
use gpu_sim::raster::TexCoordSet;
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

criterion_group!(benches, bench_stage_kernels, bench_cache_ablation);
criterion_main!(benches);
