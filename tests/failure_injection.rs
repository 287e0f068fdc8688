//! Failure-path coverage across crate boundaries: memory exhaustion,
//! malformed kernels, degenerate inputs.

use hyperspec::amc::pipeline::{AmcError, GpuAmc, KernelMode, PipelineOutput};
use hyperspec::gpu::asm;
use hyperspec::gpu::error::GpuError;
use hyperspec::prelude::*;

#[test]
fn video_memory_exhaustion_surfaces_as_pipeline_error() {
    // 1 MiB of video memory cannot even hold one band plane of this cube.
    let mut profile = GpuProfile::fx5950_ultra();
    profile.video_memory_mib = 1;
    let mut gpu = Gpu::new(profile);
    let cube = Cube::from_fn(CubeDims::new(256, 256, 8), Interleave::Bip, |x, y, b| {
        (x + y + b) as f32 + 1.0
    })
    .unwrap();
    let amc = GpuAmc::new(StructuringElement::square(3).unwrap(), KernelMode::Isa);
    // One whole-image chunk bypasses the chunk planner, forcing the
    // allocation failure.
    let err = amc
        .run_with_chunking(&mut gpu, &cube, Chunking::new(256, 0))
        .unwrap_err();
    assert!(
        matches!(err, AmcError::Gpu(GpuError::OutOfVideoMemory { .. })),
        "{err}"
    );
    // The error display carries context.
    assert!(err.to_string().contains("video memory"));
}

#[test]
fn chunk_planner_makes_the_same_cube_fit() {
    let mut profile = GpuProfile::fx5950_ultra();
    profile.video_memory_mib = 2;
    let mut gpu = Gpu::new(profile);
    let cube = Cube::from_fn(CubeDims::new(128, 128, 16), Interleave::Bip, |x, y, b| {
        (x * 3 + y * 5 + b) as f32 + 1.0
    })
    .unwrap();
    let amc = GpuAmc::new(StructuringElement::square(3).unwrap(), KernelMode::Isa);
    let out = amc.run(&mut gpu, &cube).expect("chunked run fits");
    assert!(out.chunks > 1, "planner should have split the image");
    assert_eq!(gpu.allocated_bytes(), 0, "all textures freed");
    // The pool keeps the run's textures for the next one. This card is too
    // small to hold every chunk height's size class at once, so a repeat
    // run re-allocates what eviction dropped, and only that.
    let cold = gpu.texture_allocs();
    amc.run(&mut gpu, &cube).expect("repeat run fits");
    let warm = gpu.texture_allocs() - cold;
    assert!(
        warm < cold,
        "repeat run allocated {warm} textures, first {cold}"
    );
}

#[test]
fn a_failed_run_leaves_no_texture_on_the_card() {
    // One whole-image chunk of this cube cannot fit a 2 MiB card: the run
    // fails with band planes already uploaded. The planned run that follows
    // on the same card budgets all of its memory, and must match a fresh
    // card's run, so the failure must have handed every texture back.
    let mut profile = GpuProfile::fx5950_ultra();
    profile.video_memory_mib = 2;
    let cube = Cube::from_fn(CubeDims::new(128, 128, 16), Interleave::Bip, |x, y, b| {
        (x * 3 + y * 5 + b) as f32 + 1.0
    })
    .unwrap();
    let amc = GpuAmc::new(StructuringElement::square(3).unwrap(), KernelMode::Isa);
    let mut gpu = Gpu::new(profile.clone());
    let err = amc
        .run_with_chunking(&mut gpu, &cube, Chunking::new(128, 0))
        .unwrap_err();
    assert!(
        matches!(err, AmcError::Gpu(GpuError::OutOfVideoMemory { .. })),
        "{err}"
    );
    assert_eq!(
        gpu.allocated_bytes(),
        0,
        "the failed run left textures live"
    );
    let out = amc
        .run(&mut gpu, &cube)
        .expect("planned run after a failure");
    let fresh = amc.run(&mut Gpu::new(profile), &cube).unwrap();
    let bits = |o: &PipelineOutput| o.mei.scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&out), bits(&fresh));
    assert_eq!(out.min_index, fresh.min_index);
    assert_eq!(out.max_index, fresh.max_index);
    assert_eq!(out.stages, fresh.stages);
}

#[test]
fn infeasible_chunking_is_a_structured_error() {
    // So wide that a single line with halo cannot fit 1 MiB: the planner
    // must refuse up front with the dedicated error, not fail mid-run with
    // an allocation error.
    let mut profile = GpuProfile::fx5950_ultra();
    profile.video_memory_mib = 1;
    let mut gpu = Gpu::new(profile);
    let cube = Cube::from_fn(CubeDims::new(4096, 16, 32), Interleave::Bip, |x, y, b| {
        (x + y + b) as f32 + 1.0
    })
    .unwrap();
    let amc = GpuAmc::new(StructuringElement::square(3).unwrap(), KernelMode::Isa);
    let err = amc.run(&mut gpu, &cube).unwrap_err();
    assert!(matches!(err, AmcError::ChunkingInfeasible { .. }), "{err}");
    assert!(err.to_string().contains("chunking infeasible"));
    assert_eq!(gpu.stats().passes, 0, "nothing may have executed");
}

#[test]
fn malformed_shaders_report_line_and_reason() {
    for (src, needle) in [
        ("FOO R0, R1", "unknown opcode"),
        ("ADD R0, R1", "expects"),
        ("MOV C0, R1", "destination"),
        ("TEX R0, T0, tex16", "sampler"),
        ("MOV R99, R0", "out of range"),
        ("DEF C0, 1, 2", "DEF"),
    ] {
        let err = asm::assemble(src).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains(needle),
            "`{src}` -> `{msg}` (wanted `{needle}`)"
        );
    }
}

#[test]
fn texture_size_limits_enforced_end_to_end() {
    let mut gpu = Gpu::new(GpuProfile::geforce_7800gtx());
    assert!(matches!(
        gpu.alloc_texture(5000, 16),
        Err(GpuError::InvalidTextureSize { .. })
    ));
    assert!(matches!(
        gpu.alloc_texture(0, 0),
        Err(GpuError::InvalidTextureSize { .. })
    ));
}

#[test]
fn degenerate_cubes_are_rejected_or_handled() {
    // Zero dimensions rejected at construction.
    assert!(Cube::zeros(CubeDims::new(0, 4, 4), Interleave::Bip).is_err());
    // Single-pixel cube classifies without panicking.
    let cube = Cube::from_fn(CubeDims::new(1, 1, 4), Interleave::Bip, |_, _, b| {
        (b + 1) as f32
    })
    .unwrap();
    let amc = AmcClassifier::new(AmcConfig::paper_default(1));
    let out = amc.classify(&cube).unwrap();
    assert_eq!(out.labels, vec![0]);
}

#[test]
fn requesting_more_classes_than_pixels_fails_cleanly() {
    let cube = Cube::from_fn(CubeDims::new(2, 2, 3), Interleave::Bip, |x, y, b| {
        (x + y * 2 + b * 4) as f32 + 1.0
    })
    .unwrap();
    let amc = AmcClassifier::new(AmcConfig::paper_default(100));
    assert!(amc.classify(&cube).is_err());
}

#[test]
fn invalid_structuring_elements_rejected() {
    assert!(StructuringElement::square(0).is_err());
    assert!(StructuringElement::square(4).is_err());
}

#[test]
fn envi_reader_rejects_corrupt_files() {
    use hyperspec::scene::envi;
    let dir = std::env::temp_dir().join(format!("hsi_fail_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cube.raw");
    // Header without a raw file.
    std::fs::write(
        dir.join("cube.raw.hdr"),
        "ENVI\nsamples = 2\nlines = 2\nbands = 1\ndata type = 4\ninterleave = bip\n",
    )
    .unwrap();
    assert!(envi::read_cube(&path).is_err());
    // Unsupported data type.
    std::fs::write(&path, [0u8; 16]).unwrap();
    std::fs::write(
        dir.join("cube.raw.hdr"),
        "ENVI\nsamples = 2\nlines = 2\nbands = 1\ndata type = 12\ninterleave = bip\n",
    )
    .unwrap();
    assert!(envi::read_cube(&path).is_err());
    std::fs::remove_dir_all(dir).ok();
}
