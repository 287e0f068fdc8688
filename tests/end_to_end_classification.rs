//! End-to-end AMC classification on synthetic scenes with ground truth —
//! the Table 3 experiment at test scale.

use hyperspec::amc::pipeline::{GpuAmc, KernelMode};
use hyperspec::hsi::metrics::score_unsupervised;
use hyperspec::prelude::*;
use hyperspec::scene::library::indian_pines_classes;

/// A fast scene: 8 classes on a small grid.
fn small_scene(seed: u64) -> SyntheticScene {
    let classes: Vec<_> = indian_pines_classes().into_iter().take(8).collect();
    let cfg = SceneConfig {
        width: 64,
        height: 48,
        bands: 24,
        field_width: 12,
        field_height: 12,
        seed,
        noise_fraction: 0.002,
        mixing_halfwidth: 0.3,
        sensor_scale: 4000.0,
        purity_boost: 0.10,
    };
    generate(&classes, &cfg)
}

#[test]
fn amc_recovers_most_of_the_ground_truth() {
    let scene = small_scene(11);
    let amc = AmcClassifier::new(AmcConfig::paper_default(8));
    let out = amc.classify(&scene.cube).unwrap();
    assert!(out.class_count() >= 6, "found {}", out.class_count());
    let cm = score_unsupervised(&scene.ground_truth, &out.labels, out.class_count(), 8).unwrap();
    let oa = cm.overall_accuracy();
    assert!(oa > 55.0, "overall accuracy {oa}");
    assert!(cm.kappa() > 0.4, "kappa {}", cm.kappa());
}

#[test]
fn classification_is_deterministic() {
    let scene = small_scene(3);
    let amc = AmcClassifier::new(AmcConfig::paper_default(8));
    let a = amc.classify(&scene.cube).unwrap();
    let b = amc.classify(&scene.cube).unwrap();
    assert_eq!(a.labels, b.labels);
    assert_eq!(a.mei.scores, b.mei.scores);
}

#[test]
fn hybrid_gpu_mei_plus_cpu_tail_matches_pure_cpu_labels() {
    // The paper's partitioning: stages 1-5 on the GPU, endmember selection
    // and unmixing on the host. The MEI streams differ only in f32 rounding,
    // and the final labels must be essentially the same.
    let scene = small_scene(21);
    let amc = AmcClassifier::new(AmcConfig::paper_default(8));
    let cpu_out = amc.classify(&scene.cube).unwrap();

    let mut gpu = Gpu::new(GpuProfile::geforce_7800gtx());
    let gpu_mei = GpuAmc::new(StructuringElement::square(3).unwrap(), KernelMode::Isa)
        .run(&mut gpu, &scene.cube)
        .unwrap();
    let hybrid_out = amc.classify_with_mei(&scene.cube, gpu_mei.mei).unwrap();

    let disagreements = cpu_out
        .labels
        .iter()
        .zip(&hybrid_out.labels)
        .filter(|(a, b)| a != b)
        .count();
    let frac = disagreements as f64 / cpu_out.labels.len() as f64;
    assert!(
        frac < 0.02,
        "hybrid vs CPU labels disagree on {:.2}% of pixels",
        frac * 100.0
    );
}

#[test]
fn accuracy_improves_with_refinement() {
    let scene = small_scene(8);
    let score_with_iters = |iters: usize| {
        let mut cfg = AmcConfig::paper_default(8);
        cfg.refine_iterations = iters;
        let out = AmcClassifier::new(cfg).classify(&scene.cube).unwrap();
        score_unsupervised(&scene.ground_truth, &out.labels, out.class_count(), 8)
            .unwrap()
            .overall_accuracy()
    };
    let zero = score_with_iters(0);
    let five = score_with_iters(5);
    assert!(
        five >= zero - 1.0,
        "refinement should not hurt: {zero} -> {five}"
    );
}
