//! Ablation benchmarks for the design choices DESIGN.md calls out:
//! RGBA band packing, structuring-element size, chunk granularity.

use amc_core::pipeline::{GpuAmc, KernelMode};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gpu_sim::device::GpuProfile;
use gpu_sim::gpu::Gpu;
use hsi::cube::{Chunking, Cube, CubeDims, Interleave};
use hsi::morphology::{self, StructuringElement};
use std::time::Duration;

fn cube(w: usize, h: usize, bands: usize) -> Cube {
    Cube::from_fn(CubeDims::new(w, h, bands), Interleave::Bip, |x, y, b| {
        10.0 + ((x * 31 + y * 17 + b * 7) % 97) as f32
    })
    .unwrap()
}

fn bench_se_size(c: &mut Criterion) {
    // O(p_f * p_B * N): doubling the SE area should roughly double time.
    let mut group = c.benchmark_group("se_size");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    let cb = cube(20, 20, 8);
    for side in [3usize, 5, 7] {
        group.bench_with_input(BenchmarkId::from_parameter(side), &side, |b, &side| {
            let se = StructuringElement::square(side).unwrap();
            let norm = morphology::normalize_cube(&cb);
            b.iter(|| morphology::mei(&norm, &se))
        });
    }
    group.finish();
}

fn bench_rgba_packing(c: &mut Criterion) {
    // The paper's Fig. 3 argument: four bands per RGBA texel exploits the
    // SIMD4 ALUs. The ablation runs the same cube with the packed pipeline
    // (2 band groups) vs an unpacked emulation (8 one-band groups → 4x the
    // band-group passes).
    let mut group = c.benchmark_group("rgba_packing");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    let se = StructuringElement::square(3).unwrap();
    let packed = cube(16, 16, 8);
    // Unpacked emulation: spread each band into its own group of 4 (3 zero
    // lanes), i.e. a 32-band cube with every 4th band meaningful.
    let unpacked = Cube::from_fn(CubeDims::new(16, 16, 32), Interleave::Bip, |x, y, b| {
        if b % 4 == 0 {
            packed.get(x, y, b / 4)
        } else {
            0.0
        }
    })
    .unwrap();
    for (name, cb) in [("packed_rgba", &packed), ("one_band_per_texel", &unpacked)] {
        group.bench_with_input(BenchmarkId::from_parameter(name), cb, |b, cb| {
            let amc = GpuAmc::new(se.clone(), KernelMode::Isa);
            let mut gpu = Gpu::new(GpuProfile::geforce_7800gtx());
            b.iter(|| amc.run(&mut gpu, cb).unwrap())
        });
    }
    group.finish();
}

fn bench_chunk_granularity(c: &mut Criterion) {
    // Smaller chunks = more halo recomputation + more passes.
    let mut group = c.benchmark_group("chunk_lines");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    let cb = cube(16, 48, 8);
    let se = StructuringElement::square(3).unwrap();
    for lines in [6usize, 12, 48] {
        group.bench_with_input(BenchmarkId::from_parameter(lines), &lines, |b, &lines| {
            let amc = GpuAmc::new(se.clone(), KernelMode::Isa);
            let mut gpu = Gpu::new(GpuProfile::geforce_7800gtx());
            let chunking = Chunking::new(lines, 2);
            b.iter(|| {
                let mut total = 0u64;
                for chunk in cb.chunks(chunking) {
                    let whole_chunk = Chunking::new(chunk.cube.dims().height, 0);
                    let out = amc.run_with_chunking(&mut gpu, &chunk.cube, whole_chunk);
                    total += out.unwrap().stats.passes;
                }
                total
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_se_size,
    bench_rgba_packing,
    bench_chunk_granularity
);
criterion_main!(benches);
