//! Onboard-processing scenario: a scene larger than the GPU's video memory
//! is processed in chunks of entire lines (the paper's Section 3.2 chunking),
//! and the result is proven identical to the unchunked run.
//!
//! The paper motivates GPUs for *onboard* remote-sensing payloads, where the
//! full scene streams through a small device. This example shrinks the
//! device's memory to force aggressive chunking.
//!
//! ```text
//! cargo run --release --example onboard_chunked
//! ```

use hyperspec::amc::pipeline::{GpuAmc, KernelMode};
use hyperspec::gpu::timing;
use hyperspec::prelude::*;

fn main() {
    // A long thin scene, like a flight line: 96 samples x 200 lines.
    let dims = CubeDims::new(96, 200, 12);
    let mut state = 0xC0FFEEu64 | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 40) as f32 / 16_777_216.0
    };
    let cube =
        Cube::from_fn(dims, Interleave::Bip, |_, _, _| 30.0 + 150.0 * next()).expect("valid dims");
    println!(
        "flight line: {}x{} pixels, {} bands ({:.1} MiB as f32 band planes)",
        dims.width,
        dims.height,
        dims.bands,
        (dims.samples() * 4) as f64 / (1024.0 * 1024.0)
    );

    // A deliberately tiny device: shrink video memory so the whole scene
    // cannot be resident and chunking must kick in.
    let mut small = GpuProfile::fx5950_ultra();
    small.video_memory_mib = 2;
    let amc = GpuAmc::new(StructuringElement::square(3).expect("3x3"), KernelMode::Isa);
    let chunking = amc
        .plan_chunking(&Gpu::new(small.clone()), &cube)
        .expect("one line must fit even the 2 MiB device");
    println!(
        "planned chunking: {} body lines per chunk, halo {} (2x SE radius)",
        chunking.lines_per_chunk, chunking.halo
    );

    let mut small_gpu = Gpu::new(small);
    let chunked = amc.run(&mut small_gpu, &cube).expect("chunked run");
    println!(
        "chunked run: {} chunks, {} passes, {} KiB uploaded",
        chunked.chunks,
        chunked.stats.passes,
        chunked.stats.bytes_uploaded / 1024
    );
    let st = &chunked.stages;
    println!(
        "per-stage passes: normalize {}, distance {}, minmax {}, mei {}; \
         textures allocated {} (pool reuses {})",
        st.normalize.passes,
        st.distance.passes,
        st.minmax.passes,
        st.mei.passes,
        small_gpu.texture_allocs(),
        small_gpu.pool_hits()
    );

    // Reference: the same scene on a full-memory 7800GTX, unchunked.
    let mut big_gpu = Gpu::new(GpuProfile::geforce_7800gtx());
    let whole = amc.run(&mut big_gpu, &cube).expect("unchunked run");
    assert_eq!(whole.chunks, 1, "full-memory device needs no chunking");
    assert_eq!(
        chunked.mei.scores, whole.mei.scores,
        "chunked output is exactly chunk-free"
    );
    assert_eq!(chunked.min_index, whole.min_index);
    assert_eq!(chunked.max_index, whole.max_index);
    println!("chunked MEI stream identical to the unchunked reference");

    // Cost of chunking: halo recomputation + extra transfers.
    let overhead = chunked.stats.instructions as f64 / whole.stats.instructions as f64;
    println!(
        "chunking overhead: {:.1}% extra shader work, {:.1}% extra upload bytes",
        (overhead - 1.0) * 100.0,
        (chunked.stats.bytes_uploaded as f64 / whole.stats.bytes_uploaded as f64 - 1.0) * 100.0
    );
    let t_small = timing::gpu_time(&chunked.stats, &small_gpu.profile().clone());
    let t_big = timing::gpu_time(&whole.stats, &big_gpu.profile().clone());
    println!(
        "modeled: constrained FX5950 {:.2} ms vs unconstrained 7800GTX {:.2} ms (incl. transfers)",
        t_small.total_ms(),
        t_big.total_ms()
    );
    // The executor pre-packs chunk N+1 while chunk N shades, so uploads can
    // hide behind kernel time: the overlapped transfer model prices that.
    println!(
        "with double-buffered uploads: FX5950 {:.2} ms (saves {:.2} ms of upload latency)",
        t_small.total_ms_mode(timing::TransferMode::Overlapped),
        t_small.overlap_saving_s() * 1e3
    );
}
