//! Warm devices: a second run through the same driver and devices compiles
//! no graph, verifies and lowers no kernel and allocates no texture, on
//! the single card and on every device of a fleet, and returns the first
//! run's output bit for bit.
//!
//! Everything lives in one `#[test]` because the metrics registry and the
//! trace switch are process-global.

use hyperspec::amc::fleet::DeviceFleet;
use hyperspec::amc::pipeline::{GpuAmc, KernelMode, PipelineOutput};
use hyperspec::prelude::*;
use hyperspec::trace;

/// Registry counters only cold work moves.
const COLD_WORK: [&str; 3] = ["gpu.verify.runs", "gpu.lower.runs", "gpu.pool.allocs"];

fn cold_work() -> [u64; 3] {
    let counters = trace::metrics::snapshot().counters;
    COLD_WORK.map(|name| {
        counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    })
}

/// Traced graph compiles since the last drain.
fn graph_compiles() -> usize {
    trace::drain_events()
        .iter()
        .filter(|e| e.cat == "pipeline.graph_compile")
        .count()
}

/// Run `run` twice: the first run must do cold work, the second none, and
/// both must return the same output.
fn assert_second_run_is_warm(label: &str, mut run: impl FnMut() -> PipelineOutput) {
    trace::drain_events();
    let before = cold_work();
    let first = run();
    let after_first = cold_work();
    assert!(graph_compiles() > 0, "{label}: first run compiled no graph");
    for (i, name) in COLD_WORK.iter().enumerate() {
        assert!(
            after_first[i] > before[i],
            "{label}: first run did not move {name}"
        );
    }
    let second = run();
    assert_eq!(cold_work(), after_first, "{label}: {COLD_WORK:?} moved");
    assert_eq!(graph_compiles(), 0, "{label}: second run compiled a graph");
    let bits = |o: &PipelineOutput| o.mei.scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&second), bits(&first), "{label}: MEI bits");
    assert_eq!(second.min_index, first.min_index, "{label}: min index");
    assert_eq!(second.max_index, first.max_index, "{label}: max index");
    assert_eq!(second.stages, first.stages, "{label}: stage counters");
}

#[test]
fn second_runs_are_warm_on_the_single_card_and_the_fleet() {
    let cube = Cube::from_fn(CubeDims::new(48, 40, 10), Interleave::Bip, |x, y, b| {
        1.0 + ((x * 31 + y * 17 + b * 7) % 23) as f32
    })
    .unwrap();
    let amc = GpuAmc::new(StructuringElement::square(3).unwrap(), KernelMode::Isa);
    trace::enable();

    // Single card: 8 chunks in two geometries (edge and middle chunks
    // carry one and two halos).
    let mut gpu = Gpu::new(GpuProfile::geforce_7800gtx());
    let chunking = Chunking::new(5, 2);
    assert_second_run_is_warm("single card", || {
        let out = amc.run_with_chunking(&mut gpu, &cube, chunking).unwrap();
        assert_eq!(out.chunks, 8);
        out
    });

    // Fleet: every chunk has one geometry, so whichever chunks work
    // stealing hands a device in the second run, it has shaded that shape
    // in the first.
    let fleet = DeviceFleet::new(vec![
        GpuProfile::geforce_7800gtx(),
        GpuProfile::geforce_7800gtx(),
    ]);
    let chunking = Chunking::new(5, 0);
    assert_second_run_is_warm("fleet", || {
        let out = fleet.run_with_chunking(&amc, &cube, chunking).unwrap();
        assert_eq!(out.pipeline.chunks, 8);
        out.pipeline
    });
    trace::disable();
    trace::reset();
}
