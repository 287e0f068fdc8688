//! The GPU stream pipeline must agree with the CPU reference morphology on
//! arbitrary cubes — this is the core correctness contract of the paper's
//! port ("the desired performance at the quality required").

use hyperspec::amc::cpu;
use hyperspec::amc::perf::{self, PredictConfig};
use hyperspec::amc::pipeline::{GpuAmc, KernelMode};
use hyperspec::amc::{DeviceFleet, PipelineOutput};
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
        let (ref_mei, morph) = hyperspec::hsi::morphology::mei(&norm, &se);
        assert_close(&gpu_out.mei.scores, &ref_mei.scores, 1e-4, "mei");
        assert_eq!(gpu_out.min_index, morph.min_index, "{w}x{h}x{bands}");
        assert_eq!(gpu_out.max_index, morph.max_index);
    }
}

#[test]
fn gpu_matches_cpu_simd4_baseline() {
    // The SIMD4 CPU baseline uses exactly the GPU's 4-lane arithmetic and
    // summation order, so the MEI agrees bit for bit on both devices and
    // with or without fusion.
    let se = StructuringElement::square(3).unwrap();
    for (w, h, bands, seed) in [(11, 9, 7, 42u64), (16, 12, 13, 7)] {
        let cube = pseudo_random_cube(w, h, bands, seed);
        let simd = cpu::run_simd4(&cube, &se);
        for profile in [GpuProfile::fx5950_ultra(), GpuProfile::geforce_7800gtx()] {
            for fuse in [false, true] {
                let mut amc = GpuAmc::new(se.clone(), KernelMode::Isa);
                amc.set_fusion(fuse);
                let gpu_out = amc.run(&mut Gpu::new(profile.clone()), &cube).unwrap();
                let bits = |s: &[f32]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                let what = format!("{w}x{h}x{bands} on {} fused {fuse}", profile.name);
                assert_eq!(bits(&gpu_out.mei.scores), bits(&simd.mei.scores), "{what}");
                assert_eq!(gpu_out.min_index, simd.morph.min_index, "{what}");
                assert_eq!(gpu_out.max_index, simd.morph.max_index, "{what}");
            }
        }
    }
}

#[test]
fn scalar_baseline_matches_library_reference_exactly() {
    let cube = pseudo_random_cube(12, 10, 6, 77);
    let se = StructuringElement::square(3).unwrap();
    let scalar = cpu::run_scalar(&cube, &se);
    let norm = hyperspec::hsi::morphology::normalize_cube(&cube);
    let (ref_mei, morph) = hyperspec::hsi::morphology::mei(&norm, &se);
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
    let (ref_mei, morph) = hyperspec::hsi::morphology::mei(&norm, &se);
    assert_close(&gpu_out.mei.scores, &ref_mei.scores, 1e-4, "mei5");
    assert_eq!(gpu_out.min_index, morph.min_index);
    assert_eq!(gpu_out.max_index, morph.max_index);
}

#[test]
fn one_pixel_se_runs_on_one_card_and_on_a_fleet() {
    // A 1x1 SE has no neighbours: no distance or min/max update passes, so
    // `minmax_init` writes the state output itself, and the MEI is zero.
    let se = StructuringElement::square(1).unwrap();
    for (w, h, bands, seed) in [(2, 2, 2, 11u64), (17, 9, 10, 12)] {
        let cube = pseudo_random_cube(w, h, bands, seed);
        let simd = cpu::run_simd4(&cube, &se);
        assert!(simd.mei.scores.iter().all(|&s| s == 0.0));
        let bits = |s: &[f32]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let check = |out: &PipelineOutput, what: &str| {
            assert_eq!(bits(&out.mei.scores), bits(&simd.mei.scores), "{what}");
            assert_eq!(out.min_index, simd.morph.min_index, "{what}");
            assert_eq!(out.max_index, simd.morph.max_index, "{what}");
        };
        for fuse in [false, true] {
            let what = format!("{w}x{h}x{bands} fused {fuse}");
            let mut amc = GpuAmc::new(se.clone(), KernelMode::Isa);
            amc.set_fusion(fuse);
            let out = amc
                .run(&mut Gpu::new(GpuProfile::geforce_7800gtx()), &cube)
                .unwrap();
            check(&out, &what);
            if !fuse {
                let pred = perf::predict_chunk_stats(w, h, bands, &se, &PredictConfig::default());
                assert_eq!(out.chunks, 1);
                assert_eq!(pred.passes, out.stats.passes, "{what}");
                assert_eq!(pred.instructions, out.stats.instructions, "{what}");
                assert_eq!(pred.texel_fetches, out.stats.texel_fetches, "{what}");
            }
            let fleet = DeviceFleet::new(vec![
                GpuProfile::geforce_7800gtx(),
                GpuProfile::fx5950_ultra(),
            ]);
            check(&fleet.run(&amc, &cube).unwrap().pipeline, &what);
        }
    }
}
