//! Drive the simulated GPU directly: run the six-stage stream AMC pipeline
//! (Fig. 4) on both of the paper's GPUs as the fused render graph and as
//! the unfused oracle schedule, compare the streams bit-for-bit, and print
//! counted work plus modeled execution times.
//!
//! ```text
//! cargo run --release --example gpu_stream_pipeline
//! ```

use hyperspec::amc::pipeline::{GpuAmc, KernelMode};
use hyperspec::gpu::timing;
use hyperspec::prelude::*;

fn main() {
    // A deterministic pseudo-random cube: 64x48 pixels, 16 bands.
    let dims = CubeDims::new(64, 48, 16);
    let mut state = 0x0123_4567_89AB_CDEF_u64 | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 40) as f32 / 16_777_216.0
    };
    let cube =
        Cube::from_fn(dims, Interleave::Bip, |_, _, _| 40.0 + 200.0 * next()).expect("valid dims");

    let se = StructuringElement::square(3).expect("3x3");
    for profile in [GpuProfile::fx5950_ultra(), GpuProfile::geforce_7800gtx()] {
        println!("=== {} ===", profile.name);
        let mut gpu = Gpu::new(profile.clone());

        // The unfused oracle: one pass per Fig. 4 kernel invocation.
        let mut oracle_amc = GpuAmc::new(se.clone(), KernelMode::Isa);
        oracle_amc.set_fusion(false);
        let oracle = oracle_amc.run(&mut gpu, &cube).expect("unfused pipeline");
        // The fused graph (the default schedule).
        let fused = GpuAmc::new(se.clone(), KernelMode::Isa)
            .run(&mut gpu, &cube)
            .expect("fused pipeline");
        let bits = |s: &[f32]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&fused.mei.scores),
            bits(&oracle.mei.scores),
            "fused and unfused schedules produce bit-identical MEI streams"
        );
        assert_eq!(fused.min_index, oracle.min_index);
        assert_eq!(fused.max_index, oracle.max_index);
        // Fusion trades texel fetches for inlined recompute: fewer passes
        // and fetches, more instructions.
        assert!(fused.stats.passes < oracle.stats.passes);
        assert!(fused.stats.texel_fetches < oracle.stats.texel_fetches);

        let s = &fused.stats;
        println!(
            "passes: {}, fragments: {}, SIMD4 instructions: {}, texel fetches: {}",
            s.passes, s.fragments, s.instructions, s.texel_fetches
        );
        println!(
            "instructions/fragment: {:.1}, texture cache hit rate: {:.1}%",
            s.instructions_per_fragment(),
            100.0 * s.cache_hit_rate()
        );
        println!(
            "host -> device: {} KiB, device -> host: {} KiB",
            s.bytes_uploaded / 1024,
            s.bytes_downloaded / 1024
        );
        let t = timing::gpu_time(s, &gpu.profile().clone());
        println!(
            "modeled time: compute {:.3} ms, texture {:.3} ms, memory {:.3} ms",
            t.compute_s * 1e3,
            t.texture_s * 1e3,
            t.memory_s * 1e3
        );
        println!(
            "kernel {:.3} ms + transfers {:.3} ms = {:.3} ms total\n",
            t.kernel_ms(),
            (t.upload_s + t.download_s) * 1e3,
            t.total_ms()
        );
    }

    println!("Fused and unfused schedules agreed bit-for-bit on both devices.");
}
