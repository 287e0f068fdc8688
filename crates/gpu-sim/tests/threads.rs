//! Determinism of the tiled multi-threaded executor.
//!
//! The executor's contract: render targets AND aggregate [`PassStats`] are
//! bit-identical at every thread count, because each tile shades with its
//! own counters and texture cache and the per-tile results merge in tile
//! order — never in scheduling order.

use gpu_sim::asm::assemble;
use gpu_sim::counters::PassStats;
use gpu_sim::gpu::Gpu;
use gpu_sim::interp::{lower, LoweredProgram};
use gpu_sim::raster::{TexCoordSet, TILE_ROWS, TILE_W};
use gpu_sim::{GpuProfile, PassBindings};

/// Ragged multi-tile target: 3 tile columns x 4 tile bands, both partial.
const W: usize = 2 * TILE_W + 7;
const H: usize = 3 * TILE_ROWS + 2;

fn source_data(w: usize, h: usize) -> Vec<f32> {
    (0..w * h * 4)
        .map(|i| ((i.wrapping_mul(2654435761)) % 97) as f32 * 0.25 - 6.0)
        .collect()
}

/// Assemble `src` and lower it for `gpu`'s profile and a pass binding
/// `samplers` textures, `sets` coordinate sets and `constants`.
fn lower_for(
    gpu: &Gpu,
    src: &str,
    samplers: usize,
    sets: usize,
    constants: &[(u8, [f32; 4])],
) -> LoweredProgram {
    let bindings = PassBindings {
        samplers,
        texcoord_sets: sets,
        constants: constants.iter().map(|&(i, _)| i).collect(),
        outputs_read: [true, false, false, false],
    };
    lower(&assemble(src).unwrap(), constants, &bindings, gpu.profile()).unwrap()
}

fn isa_pass(threads: usize) -> (Vec<u32>, PassStats) {
    rayon::with_threads(threads, || {
        let mut gpu = Gpu::new(GpuProfile::geforce_7800gtx());
        let src = gpu.alloc_texture(W, H).unwrap();
        let dst = gpu.alloc_texture(W, H).unwrap();
        gpu.upload(src, &source_data(W, H)).unwrap();
        let prog = lower_for(
            &gpu,
            "!!mix\n\
             DEF C0, 0.5, -1.5, 2.0, 0.25\n\
             TEX R0, T0, tex0\n\
             TEX R1, T1, tex1\n\
             MAD R2, R0, C0.x, R1\n\
             MAX R3, R2, C0.w\n\
             RSQ R4, R3.w\n\
             MUL OC, R3, R4.x",
            2,
            2,
            &[(1, [0.75, 0.5, 0.25, 1.0])],
        );
        let sets = [
            TexCoordSet::identity(),
            TexCoordSet::shifted_texels(1, -1, W, H),
        ];
        let stats = gpu.run_pass(&prog, &[src, src], &sets, dst).unwrap();
        let texels = gpu.download(dst).unwrap();
        (texels.iter().map(|v| v.to_bits()).collect(), stats)
    })
}

#[test]
fn isa_pass_is_bit_identical_at_every_thread_count() {
    let (seq_tex, seq_stats) = isa_pass(1);
    assert!(
        seq_stats.tiles > 1,
        "test target must span multiple tiles, got {}",
        seq_stats.tiles
    );
    // The cache model runs per tile, so hit/miss splits must also match.
    assert!(seq_stats.cache_hits + seq_stats.cache_misses > 0);
    for threads in [2, 4, 7] {
        let (tex, stats) = isa_pass(threads);
        assert_eq!(tex, seq_tex, "texels diverged at {threads} threads");
        assert_eq!(stats, seq_stats, "counters diverged at {threads} threads");
    }
}

#[test]
fn aggregate_gpu_stats_match_across_thread_counts() {
    // Whole-device accumulation (multiple passes, upload/download bytes)
    // is also scheduling-independent.
    let run = |threads: usize| {
        rayon::with_threads(threads, || {
            let mut gpu = Gpu::new(GpuProfile::fx5950_ultra());
            let src = gpu.alloc_texture(W, H).unwrap();
            let a = gpu.alloc_texture(W, H).unwrap();
            let b = gpu.alloc_texture(W, H).unwrap();
            gpu.upload(src, &source_data(W, H)).unwrap();
            let prog = lower_for(&gpu, "TEX R0, T0, tex0\nADD OC, R0, R0", 1, 1, &[]);
            gpu.run_pass(&prog, &[src], &[TexCoordSet::identity()], a)
                .unwrap();
            gpu.run_pass(&prog, &[a], &[TexCoordSet::identity()], b)
                .unwrap();
            gpu.download(b).unwrap();
            gpu.stats()
        })
    };
    let seq = run(1);
    assert_eq!(run(4), seq);
}
