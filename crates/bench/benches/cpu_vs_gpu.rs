//! Host wall-clock of the CPU reference implementations against the
//! simulated GPU pipeline (functional simulation cost), plus the analytic
//! table generation itself.

use amc_core::cpu;
use amc_core::perf::{self, PredictConfig};
use amc_core::pipeline::{GpuAmc, KernelMode};
use criterion::{criterion_group, criterion_main, Criterion};
use gpu_sim::device::GpuProfile;
use gpu_sim::gpu::Gpu;
use hsi::cube::{Cube, CubeDims, Interleave};
use hsi::morphology::StructuringElement;
use std::time::Duration;

fn cube() -> Cube {
    Cube::from_fn(CubeDims::new(24, 24, 8), Interleave::Bip, |x, y, b| {
        10.0 + ((x * 31 + y * 17 + b * 7) % 97) as f32
    })
    .unwrap()
}

fn bench_implementations(c: &mut Criterion) {
    let mut group = c.benchmark_group("implementations_24x24x8");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    let cb = cube();
    let se = StructuringElement::square(3).unwrap();

    group.bench_function("cpu_scalar", |b| b.iter(|| cpu::run_scalar(&cb, &se)));
    group.bench_function("cpu_simd4", |b| b.iter(|| cpu::run_simd4(&cb, &se)));
    group.bench_function("gpu_isa_interpreted", |b| {
        let amc = GpuAmc::new(se.clone(), KernelMode::Isa);
        let mut gpu = Gpu::new(GpuProfile::geforce_7800gtx());
        b.iter(|| amc.run(&mut gpu, &cb).unwrap())
    });
    group.finish();
}

fn bench_analytic_model(c: &mut Criterion) {
    // Generating the full Table 4 from the analytic model must be
    // effectively free — that's the point of having it.
    let mut group = c.benchmark_group("analytic_model");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(1));
    let se = StructuringElement::square(3).unwrap();
    group.bench_function("predict_full_547mb_scene", |b| {
        b.iter(|| {
            perf::predict_gpu_time(
                CubeDims::new(2166, 614, 216),
                &se,
                &GpuProfile::geforce_7800gtx(),
                &PredictConfig::default(),
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_implementations, bench_analytic_model);
criterion_main!(benches);
