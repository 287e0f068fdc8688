//! Warm devices: a first run verifies and lowers each scheduled pass of
//! each chunk geometry exactly once, in its graph compile, however many
//! chunks or cards shade it; a second run through the same driver and
//! devices compiles no graph, verifies and lowers no kernel and allocates
//! no texture, on the single card and on every device of a fleet, and
//! returns the first run's output bit for bit.
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

/// Passes scheduled over the distinct chunk geometries of `chunking`:
/// what a cold run must verify and lower, once each.
fn scheduled_passes(amc: &GpuAmc, profile: &GpuProfile, cube: &Cube, chunking: Chunking) -> u64 {
    let mut geometries: Vec<_> = cube
        .chunks(chunking)
        .map(|c| c.cube.dims())
        .map(|d| (d.width, d.height, d.bands))
        .collect();
    geometries.sort_unstable();
    geometries.dedup();
    geometries
        .into_iter()
        .map(|(w, h, b)| amc.compile_graph(profile, w, h, b, amc.fusion()).unwrap())
        .map(|g| g.passes.len() as u64)
        .sum()
}

/// Run `run` twice: the first run must verify and lower exactly `passes`
/// programs and allocate textures, the second do no cold work, and both
/// must return the same output.
fn assert_second_run_is_warm(label: &str, passes: u64, mut run: impl FnMut() -> PipelineOutput) {
    trace::drain_events();
    let before = cold_work();
    let first = run();
    let after_first = cold_work();
    assert!(graph_compiles() > 0, "{label}: first run compiled no graph");
    assert_eq!(after_first[0] - before[0], passes, "{label}: verifications");
    assert_eq!(after_first[1] - before[1], passes, "{label}: lowerings");
    assert!(
        after_first[2] > before[2],
        "{label}: first run allocated no texture"
    );
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
    let g70 = GpuProfile::geforce_7800gtx();
    let mut gpu = Gpu::new(g70.clone());
    let chunking = Chunking::new(5, 2);
    let passes = scheduled_passes(&amc, &g70, &cube, chunking);
    assert_second_run_is_warm("single card", passes, || {
        let out = amc.run_with_chunking(&mut gpu, &cube, chunking).unwrap();
        assert_eq!(out.chunks, 8);
        out
    });

    // Fleet, on a fresh driver: every chunk has one geometry, so the two
    // cards lower it once between them, and whichever chunks work stealing
    // hands a device in the second run, it has shaded that shape in the
    // first.
    let amc = GpuAmc::new(StructuringElement::square(3).unwrap(), KernelMode::Isa);
    let fleet = DeviceFleet::new(vec![g70.clone(), g70.clone()]);
    let chunking = Chunking::new(5, 0);
    let passes = scheduled_passes(&amc, &g70, &cube, chunking);
    assert_second_run_is_warm("fleet", passes, || {
        let out = fleet.run_with_chunking(&amc, &cube, chunking).unwrap();
        assert_eq!(out.pipeline.chunks, 8);
        out.pipeline
    });
    trace::disable();
    trace::reset();
}
