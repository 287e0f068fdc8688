//! Differential test of the GPU AMC pipeline across its execution axes.
//!
//! The shader optimizer, the batched SoA executor, pass fusion, the worker
//! thread count, chunking and the device fleet must all be invisible in the
//! output. Every configuration below runs the ISA render graph on one small
//! synthetic scene and must reproduce the MEI bits and the min/max index
//! maps of a single oracle configuration exactly: optimizer off, batching
//! off, fusion off, one thread, one chunk.

use hyperspec::amc::{DeviceFleet, PipelineOutput};
use hyperspec::prelude::*;
use hyperspec::scene::library::indian_pines_classes;

const HEIGHT: usize = 24;

fn scene_cube() -> Cube {
    let config = SceneConfig {
        width: 32,
        height: HEIGHT,
        bands: 12,
        ..SceneConfig::tiny(2026)
    };
    generate(&indian_pines_classes(), &config).cube
}

fn se() -> StructuringElement {
    StructuringElement::square(3).unwrap()
}

/// One chunk covering the scene, or ragged chunks (7 + 7 + 7 + 3 lines).
fn chunking(ragged: bool) -> Chunking {
    let halo = 2 * se().radius_y();
    Chunking::new(if ragged { 7 } else { HEIGHT }, halo)
}

fn driver(fusion: bool) -> GpuAmc {
    let mut amc = GpuAmc::new(se(), KernelMode::Isa);
    amc.set_fusion(fusion);
    amc
}

#[derive(Debug, Clone, Copy)]
struct Config {
    optimizer: bool,
    batch: bool,
    fusion: bool,
    threads: usize,
    ragged: bool,
}

const ORACLE: Config = Config {
    optimizer: false,
    batch: false,
    fusion: false,
    threads: 1,
    ragged: false,
};

fn run_single_device(cube: &Cube, c: Config) -> PipelineOutput {
    rayon::with_threads(c.threads, || {
        let mut gpu = Gpu::new(GpuProfile::geforce_7800gtx());
        gpu.set_optimizer(c.optimizer);
        gpu.set_batch_execution(c.batch);
        driver(c.fusion)
            .run_with_chunking(&mut gpu, cube, chunking(c.ragged))
            .unwrap()
    })
}

/// Where two outputs first differ, or `None` when they agree bit for bit.
fn first_difference(a: &PipelineOutput, b: &PipelineOutput) -> Option<String> {
    let bits = |o: &PipelineOutput| o.mei.scores.iter().map(|s| s.to_bits()).collect();
    let maps: [(&str, Vec<u32>, Vec<u32>); 3] = [
        ("MEI", bits(a), bits(b)),
        ("min index", a.min_index.clone(), b.min_index.clone()),
        ("max index", a.max_index.clone(), b.max_index.clone()),
    ];
    for (name, x, y) in maps {
        if x.len() != y.len() {
            return Some(format!("{name}: {} vs {} pixels", x.len(), y.len()));
        }
        if let Some(i) = (0..x.len()).find(|&i| x[i] != y[i]) {
            return Some(format!("{name}[{i}]: {:#010x} vs {:#010x}", x[i], y[i]));
        }
    }
    None
}

#[test]
fn every_execution_axis_matches_the_oracle_bit_for_bit() {
    let cube = scene_cube();
    let oracle = run_single_device(&cube, ORACLE);
    let threads = [1, rayon::max_threads().max(2)];
    let mut failures = Vec::new();
    for optimizer in [false, true] {
        for batch in [false, true] {
            for fusion in [false, true] {
                for &t in &threads {
                    for ragged in [false, true] {
                        let c = Config {
                            optimizer,
                            batch,
                            fusion,
                            threads: t,
                            ragged,
                        };
                        let out = run_single_device(&cube, c);
                        if let Some(diff) = first_difference(&oracle, &out) {
                            failures.push(format!("{c:?}: {diff}"));
                        }
                    }
                }
            }
        }
    }
    // A mixed fleet shares the ragged chunk plan across four devices.
    let profiles = vec![
        GpuProfile::fx5950_ultra(),
        GpuProfile::geforce_7800gtx(),
        GpuProfile::geforce_7800gtx(),
        GpuProfile::fx5950_ultra(),
    ];
    for fusion in [false, true] {
        for &t in &threads {
            let fleet = DeviceFleet::new(profiles.clone());
            let out = rayon::with_threads(t, || {
                fleet
                    .run_with_chunking(&driver(fusion), &cube, chunking(true))
                    .unwrap()
            });
            assert!(out.pipeline.chunks > 1, "the fleet run must shard");
            if let Some(diff) = first_difference(&oracle, &out.pipeline) {
                failures.push(format!("fleet fusion {fusion} threads {t}: {diff}"));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "diverged from the oracle:\n{failures:#?}"
    );
}

#[test]
fn comparator_reports_a_single_flipped_mei_bit() {
    let out = run_single_device(&scene_cube(), ORACLE);
    assert_eq!(first_difference(&out, &out), None);
    let mut flipped = out.clone();
    let i = out.mei.scores.len() / 2;
    flipped.mei.scores[i] = f32::from_bits(out.mei.scores[i].to_bits() ^ 1);
    let report = first_difference(&out, &flipped).expect("a flipped bit must be reported");
    assert!(report.starts_with(&format!("MEI[{i}]")), "{report}");
}
