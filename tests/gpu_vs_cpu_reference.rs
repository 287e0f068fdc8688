//! The GPU stream pipeline must agree with the CPU reference morphology on
//! arbitrary cubes — this is the core correctness contract of the paper's
//! port ("the desired performance at the quality required").

use hyperspec::amc::cpu;
use hyperspec::amc::pipeline::{GpuAmc, KernelMode};
use hyperspec::prelude::*;

fn pseudo_random_cube(w: usize, h: usize, bands: usize, seed: u64) -> Cube {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 40) as f32 / 16_777_216.0
    };
    Cube::from_fn(CubeDims::new(w, h, bands), Interleave::Bip, |_, _, _| {
        25.0 + 175.0 * next()
    })
    .unwrap()
}

fn assert_close(a: &[f32], b: &[f32], tol: f32, what: &str) {
    assert_eq!(a.len(), b.len(), "{what} length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())),
            "{what}[{i}]: {x} vs {y}"
        );
    }
}

#[test]
fn gpu_mei_matches_cpu_reference_across_shapes() {
    for (w, h, bands, seed) in [(9, 7, 5, 1u64), (16, 12, 8, 2), (13, 13, 11, 3)] {
        let cube = pseudo_random_cube(w, h, bands, seed);
        let se = StructuringElement::square(3).unwrap();
        let mut gpu = Gpu::new(GpuProfile::geforce_7800gtx());
        let gpu_out = GpuAmc::new(se.clone(), KernelMode::Isa)
            .run(&mut gpu, &cube)
            .unwrap();
        let norm = hyperspec::hsi::morphology::normalize_cube(&cube);
        let (ref_mei, morph) = hyperspec::hsi::morphology::mei(&norm, &se, SpectralDistance::Sid);
        assert_close(&gpu_out.mei.scores, &ref_mei.scores, 1e-4, "mei");
        assert_eq!(gpu_out.min_index, morph.min_index, "{w}x{h}x{bands}");
        assert_eq!(gpu_out.max_index, morph.max_index);
    }
}

#[test]
fn gpu_matches_cpu_simd4_baseline() {
    let cube = pseudo_random_cube(11, 9, 7, 42);
    let se = StructuringElement::square(3).unwrap();
    let simd = cpu::run_simd4(&cube, &se);
    let mut gpu = Gpu::new(GpuProfile::fx5950_ultra());
    let gpu_out = GpuAmc::new(se, KernelMode::Isa)
        .run(&mut gpu, &cube)
        .unwrap();
    // The SIMD4 CPU baseline uses exactly the GPU's 4-lane arithmetic.
    assert_close(&gpu_out.mei.scores, &simd.mei.scores, 1e-5, "mei");
    assert_eq!(gpu_out.min_index, simd.morph.min_index);
    assert_eq!(gpu_out.max_index, simd.morph.max_index);
}

#[test]
fn scalar_baseline_matches_library_reference_exactly() {
    let cube = pseudo_random_cube(12, 10, 6, 77);
    let se = StructuringElement::square(3).unwrap();
    let scalar = cpu::run_scalar(&cube, &se);
    let norm = hyperspec::hsi::morphology::normalize_cube(&cube);
    let (ref_mei, morph) = hyperspec::hsi::morphology::mei(&norm, &se, SpectralDistance::Sid);
    assert_eq!(scalar.mei.scores, ref_mei.scores);
    assert_eq!(scalar.morph.min_index, morph.min_index);
    assert_eq!(scalar.morph.max_index, morph.max_index);
}

#[test]
fn five_by_five_se_agrees_too() {
    let cube = pseudo_random_cube(12, 12, 4, 5);
    let se = StructuringElement::square(5).unwrap();
    let mut gpu = Gpu::new(GpuProfile::geforce_7800gtx());
    let gpu_out = GpuAmc::new(se.clone(), KernelMode::Isa)
        .run(&mut gpu, &cube)
        .unwrap();
    let norm = hyperspec::hsi::morphology::normalize_cube(&cube);
    let (ref_mei, morph) = hyperspec::hsi::morphology::mei(&norm, &se, SpectralDistance::Sid);
    assert_close(&gpu_out.mei.scores, &ref_mei.scores, 1e-4, "mei5");
    assert_eq!(gpu_out.min_index, morph.min_index);
    assert_eq!(gpu_out.max_index, morph.max_index);
}
