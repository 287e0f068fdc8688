//! Per-pixel oracle vs the batched operator kernels on AMC-sized unmixing
//! problems (96 bands; 24 and 64 endmembers). The batched classification
//! and the starved-cluster reseed sweep (`residuals_batch`) are the two
//! heaviest callers of the pixel-lane operator kernel.

use criterion::{criterion_group, criterion_main, Criterion};
use hsi::cube::{Cube, CubeDims, Interleave};
use hsi::unmix::{AbundanceConstraint, LinearMixtureModel};
use std::time::Duration;

const BANDS: usize = 96;

fn model(count: usize) -> LinearMixtureModel {
    let mut state = 0x9E3779B97F4A7C15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        20.0 + ((state >> 40) % 4000) as f32
    };
    let spectra: Vec<Vec<f32>> = (0..count)
        .map(|_| (0..BANDS).map(|_| next()).collect())
        .collect();
    let refs: Vec<&[f32]> = spectra.iter().map(Vec::as_slice).collect();
    LinearMixtureModel::new(&refs).unwrap()
}

fn cube() -> Cube {
    Cube::from_fn(CubeDims::new(64, 32, BANDS), Interleave::Bip, |x, y, b| {
        30.0 + ((x * 31 + y * 17 + b * 7) % 3971) as f32
    })
    .unwrap()
}

fn bench_unmix(c: &mut Criterion) {
    let cb = cube();
    let constraint = AbundanceConstraint::SumToOneNonNeg;
    let pixels = cb.data();
    let n = cb.dims().pixels();
    for count in [24, 64] {
        let mut group = c.benchmark_group(format!("unmix_64x32x96_c{count}"));
        group
            .sample_size(10)
            .measurement_time(Duration::from_secs(2));
        let m = model(count);

        group.bench_function("per_pixel_oracle", |b| {
            b.iter(|| {
                let mut labels = vec![0u16; n];
                for (px, l) in pixels.chunks(BANDS).zip(labels.iter_mut()) {
                    let a = m.abundances(px, constraint).unwrap();
                    *l = hsi::unmix::argmax(&a) as u16;
                }
                labels
            })
        });
        group.bench_function("abundances_batch", |b| {
            let mut out = vec![0.0f64; n * count];
            b.iter(|| m.abundances_batch(pixels, constraint, &mut out).unwrap())
        });
        group.bench_function("classify_cube_batched", |b| {
            b.iter(|| m.classify_cube_batched(&cb, constraint).unwrap())
        });
        group.bench_function("residuals_batch", |b| {
            let mut out = vec![0.0f64; n];
            b.iter(|| m.residuals_batch(pixels, &mut out).unwrap())
        });
        group.finish();
    }
}

criterion_group!(benches, bench_unmix);
criterion_main!(benches);
