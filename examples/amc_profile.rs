//! Profile the hybrid AMC run with tracing enabled: capture a Chrome
//! trace-event file of the chunked pipeline (load it in Perfetto or
//! chrome://tracing) and print the metrics registry — cache hit-rates,
//! latency histograms and the measured-vs-modeled skew per stage.
//!
//! The device's video memory is shrunk so the scene splits into multiple
//! chunks: the trace then shows the packer thread preparing chunk N+1
//! while the worker pool shades chunk N (the double-buffer overlap), the
//! six `pipeline.stage` spans inside each `pipeline.chunk` span, and the
//! per-thread `gpu.tile` batches.
//!
//! After the run, the in-process analyzer (`trace::analyze`, DESIGN.md §17)
//! prints the critical path, per-thread utilization and packer-overlap
//! efficiency straight from the captured span stream. With
//! `--analyze-only <trace.json>` the profiled run is skipped and a
//! previously exported Chrome trace is analyzed instead.
//!
//! ```text
//! cargo run --release --example amc_profile
//! cargo run --release --example amc_profile -- --analyze-only out/amc_profile_trace.json
//! ```
//!
//! See DESIGN.md §12 for the full span taxonomy.

use hyperspec::gpu::timing;
use hyperspec::prelude::*;
use hyperspec::scene::library::indian_pines_classes;
use hyperspec::trace;
use std::path::Path;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = args.iter().position(|a| a == "--analyze-only") {
        let Some(path) = args.get(i + 1) else {
            eprintln!("usage: amc_profile [--analyze-only <trace.json>]");
            std::process::exit(2);
        };
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("error: cannot read {path}: {e}");
            std::process::exit(2);
        });
        let snap = trace::analyze::import_chrome_trace(&text).unwrap_or_else(|e| {
            eprintln!("error: {path} is not a loadable Chrome trace: {e}");
            std::process::exit(2);
        });
        print!(
            "{}",
            trace::analyze::render_text(&trace::analyze::analyze(&snap))
        );
        return;
    }

    trace::enable();

    let classes = indian_pines_classes();
    let scene = generate(&classes, &SceneConfig::reduced_indian_pines(2026));
    let dims = scene.cube.dims();
    println!(
        "scene: {}x{} pixels, {} bands",
        dims.width, dims.height, dims.bands
    );

    // Shrink video memory so the cube cannot be resident at once and the
    // executor must chunk (and double-buffer) — that is what we profile.
    let mut profile = GpuProfile::geforce_7800gtx();
    profile.video_memory_mib = 8;
    let mut gpu = Gpu::new(profile);

    let config = AmcConfig::paper_default(classes.len());
    let amc = GpuAmc::new(config.se.clone(), KernelMode::Isa);
    let classifier = AmcClassifier::new(config);
    let hybrid = amc
        .run_and_classify(&mut gpu, &scene.cube, &classifier)
        .expect("hybrid AMC run");
    assert!(
        hybrid.pipeline.chunks >= 2,
        "profile run should exercise chunking"
    );
    println!(
        "pipeline: {} chunks, gpu wall {:.3}s, cpu tail wall {:.3}s",
        hybrid.pipeline.chunks, hybrid.gpu_wall_s, hybrid.tail_wall_s
    );

    // Measured host wall vs modeled device time, stage by stage.
    let device = gpu.profile().clone();
    let stages = &hybrid.pipeline.stages;
    let named: [(&str, &hyperspec::gpu::counters::PassStats); 6] = [
        ("upload", &stages.upload),
        ("normalize", &stages.normalize),
        ("distance", &stages.distance),
        ("minmax", &stages.minmax),
        ("mei", &stages.mei),
        ("download", &stages.download),
    ];
    println!("\n  stage      wall_ms  modeled_ms  wall/modeled");
    for (i, (name, wall_s)) in hybrid.pipeline.stage_wall.as_named().iter().enumerate() {
        debug_assert_eq!(*name, named[i].0);
        let modeled_ms = timing::gpu_time(named[i].1, &device).total_ms();
        let skew = if modeled_ms > 0.0 {
            wall_s * 1e3 / modeled_ms
        } else {
            0.0
        };
        println!(
            "  {name:<9} {:>8.2} {:>11.3} {:>13.1}",
            wall_s * 1e3,
            modeled_ms,
            skew
        );
    }

    // The metrics registry: counters (cache effectiveness) and log2-bucket
    // latency histograms (approximate percentiles).
    let snap = trace::metrics::snapshot();
    println!("\ncounters:");
    for (name, value) in &snap.counters {
        println!("  {name:<24} {value}");
    }
    println!("histograms (ns):");
    println!(
        "  {:<24} {:>7} {:>11} {:>11} {:>11}",
        "name", "count", "p50", "p95", "p99"
    );
    for (name, h) in &snap.histograms {
        println!(
            "  {name:<24} {:>7} {:>11} {:>11} {:>11}",
            h.count, h.p50_ns, h.p95_ns, h.p99_ns
        );
    }

    // The in-process analyzer over the same span stream the Chrome export
    // carries: critical path, per-thread utilization, packer overlap.
    let analysis = trace::analyze::analyze(&trace::snapshot_events());
    println!("\nanalyzer summary (see DESIGN.md §17):");
    print!("{}", trace::analyze::render_text(&analysis));

    let out = Path::new("out/amc_profile_trace.json");
    trace::write_chrome_trace(out).expect("write trace");
    println!(
        "\nchrome trace -> {} (open in https://ui.perfetto.dev or chrome://tracing)",
        out.display()
    );
}
