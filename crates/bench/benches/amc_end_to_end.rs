//! End-to-end AMC pipeline wall-clock scaling: the simulator must scale
//! linearly in pixel count (the paper's Tables 4-5 shape, here measured as
//! real host time of the functional simulation).

use amc_core::pipeline::{GpuAmc, KernelMode};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gpu_sim::device::GpuProfile;
use gpu_sim::gpu::Gpu;
use hsi::cube::{Cube, CubeDims, Interleave};
use hsi::morphology::StructuringElement;
use std::time::Duration;

fn cube(side: usize, bands: usize) -> Cube {
    Cube::from_fn(
        CubeDims::new(side, side, bands),
        Interleave::Bip,
        |x, y, b| 10.0 + ((x * 31 + y * 17 + b * 7) % 97) as f32,
    )
    .unwrap()
}

fn bench_size_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("amc_pipeline_size");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    let se = StructuringElement::square(3).unwrap();
    for side in [16usize, 24, 32] {
        let cb = cube(side, 8);
        group.throughput(Throughput::Elements((side * side) as u64));
        group.bench_with_input(BenchmarkId::from_parameter(side), &side, |bench, _| {
            let amc = GpuAmc::new(se.clone(), KernelMode::Isa);
            let mut gpu = Gpu::new(GpuProfile::geforce_7800gtx());
            bench.iter(|| amc.run(&mut gpu, &cb).unwrap())
        });
    }
    group.finish();
}

fn bench_band_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("amc_pipeline_bands");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    let se = StructuringElement::square(3).unwrap();
    for bands in [4usize, 8, 16] {
        let cb = cube(20, bands);
        group.throughput(Throughput::Elements(bands as u64));
        group.bench_with_input(BenchmarkId::from_parameter(bands), &bands, |bench, _| {
            let amc = GpuAmc::new(se.clone(), KernelMode::Isa);
            let mut gpu = Gpu::new(GpuProfile::geforce_7800gtx());
            bench.iter(|| amc.run(&mut gpu, &cb).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_size_scaling, bench_band_scaling);
criterion_main!(benches);
