//! Regenerate the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p hsi-bench --bin tables -- all
//! cargo run --release -p hsi-bench --bin tables -- table3
//! cargo run --release -p hsi-bench --bin tables -- fig5 out/
//! cargo run --release -p hsi-bench --bin tables -- bench --trace out/trace.json
//! cargo run --release -p hsi-bench --bin tables -- graph json --unfused
//! cargo run --release -p hsi-bench --bin tables -- analyze --trace out/trace.json
//! cargo run --release -p hsi-bench --bin tables -- bench-delta BENCH_results.json bench_current.json
//! ```

use gpu_sim::device::Compiler;
use hsi_bench::*;
use std::path::Path;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let what = args.first().map(String::as_str).unwrap_or("all");
    match what {
        "table1" => print!("{}", format_table1()),
        "table2" => print!("{}", format_table2()),
        "table3" => run_table3(),
        "table4" => print!(
            "{}",
            format_time_table(Compiler::Gcc, &time_rows(Compiler::Gcc))
        ),
        "table5" => print!(
            "{}",
            format_time_table(Compiler::Icc, &time_rows(Compiler::Icc))
        ),
        "fig5" => run_fig5(args.get(1).map(String::as_str).unwrap_or("out")),
        "bench" => {
            let usage = || -> ! {
                eprintln!(
                    "usage: tables bench [path] [--trace <trace.json>] \
                     [--devices <name,name,...>]"
                );
                std::process::exit(2);
            };
            let mut path = "BENCH_results.json";
            let mut trace_path = None;
            let mut devices = None;
            let mut rest = args[1..].iter();
            while let Some(a) = rest.next() {
                if a == "--trace" {
                    match rest.next() {
                        Some(p) => trace_path = Some(p.as_str()),
                        None => usage(),
                    }
                } else if a == "--devices" {
                    let Some(list) = rest.next() else { usage() };
                    match amc_core::fleet::parse_device_list(list) {
                        Ok(p) => devices = Some(p),
                        Err(e) => {
                            eprintln!("error: {e}");
                            std::process::exit(2);
                        }
                    }
                } else {
                    path = a.as_str();
                }
            }
            run_bench(path, trace_path, devices);
        }
        "graph" => {
            let mut format = "dot";
            let mut fuse = true;
            for a in &args[1..] {
                match a.as_str() {
                    "dot" | "json" => format = a.as_str(),
                    "--unfused" => fuse = false,
                    other => {
                        eprintln!("unknown graph option `{other}`");
                        eprintln!("usage: tables graph [dot|json] [--unfused]");
                        std::process::exit(2);
                    }
                }
            }
            run_graph(format, fuse);
        }
        "analyze" => {
            let mut trace_path = None;
            let mut rest = args[1..].iter();
            while let Some(a) = rest.next() {
                if a == "--trace" {
                    match rest.next() {
                        Some(p) => trace_path = Some(p.as_str()),
                        None => {
                            eprintln!("usage: tables analyze [--trace <trace.json>]");
                            std::process::exit(2);
                        }
                    }
                } else {
                    eprintln!("unknown analyze option `{a}`");
                    eprintln!("usage: tables analyze [--trace <trace.json>]");
                    std::process::exit(2);
                }
            }
            run_analyze(trace_path);
        }
        "bench-delta" => {
            let mut thr = hsi_bench::delta::Thresholds::default();
            let mut paths = Vec::new();
            let usage = || -> ! {
                eprintln!(
                    "usage: tables bench-delta <baseline.json> <current.json> \
                     [--max-stage-regress-pct X] [--min-stage-wall-s X] \
                     [--min-pack-overlap X] [--min-fleet-load-balance X]"
                );
                std::process::exit(2);
            };
            let mut rest = args[1..].iter();
            while let Some(a) = rest.next() {
                let mut flag = |slot: &mut f64| match rest.next().and_then(|s| s.parse().ok()) {
                    Some(x) => *slot = x,
                    None => usage(),
                };
                match a.as_str() {
                    "--max-stage-regress-pct" => flag(&mut thr.max_stage_regress_pct),
                    "--min-stage-wall-s" => flag(&mut thr.min_stage_wall_s),
                    "--min-pack-overlap" => flag(&mut thr.min_pack_overlap),
                    "--min-fleet-load-balance" => flag(&mut thr.min_fleet_load_balance),
                    other if other.starts_with("--") => usage(),
                    path => paths.push(path.to_owned()),
                }
            }
            let [baseline, current] = paths.as_slice() else {
                usage()
            };
            run_bench_delta(baseline, current, &thr);
        }
        "fig6" => print!("{}", format_fig6(&time_rows(Compiler::Gcc))),
        "ablations" => print!("{}", format_ablations()),
        "all" => {
            print!("{}", format_table1());
            println!();
            print!("{}", format_table2());
            println!();
            print!(
                "{}",
                format_time_table(Compiler::Gcc, &time_rows(Compiler::Gcc))
            );
            println!();
            print!(
                "{}",
                format_time_table(Compiler::Icc, &time_rows(Compiler::Icc))
            );
            println!();
            print!("{}", format_fig6(&time_rows(Compiler::Gcc)));
            println!();
            print!("{}", format_ablations());
            println!();
            run_table3();
            run_fig5("out");
        }
        other => {
            eprintln!("unknown experiment `{other}`");
            eprintln!(
                "usage: tables [table1|table2|table3|table4|table5|fig5|fig6|ablations|bench|graph|analyze|bench-delta|all]"
            );
            std::process::exit(2);
        }
    }
}

fn run_bench(
    path: &str,
    trace_path: Option<&str>,
    devices: Option<Vec<gpu_sim::device::GpuProfile>>,
) {
    if trace_path.is_some() {
        trace::enable();
    }
    eprintln!(
        "[bench] timing the end-to-end AMC run ({} worker threads)...",
        rayon::max_threads()
    );
    let run = results::run_benchmark_with_devices(2026, devices.as_deref());
    let json = results::to_json(&run);
    std::fs::write(path, &json).expect("write benchmark results");
    if let Some(tp) = trace_path {
        trace::write_chrome_trace(Path::new(tp)).expect("write trace");
        eprintln!("[bench] chrome trace (load in Perfetto or chrome://tracing) -> {tp}");
    }
    eprintln!(
        "[bench] AMC wall {:.2}s (gpu pipeline {:.2}s + cpu tail {:.2}s) -> {path}",
        run.amc_wall_s(),
        run.gpu_pipeline_s,
        run.cpu_tail_s
    );
    eprintln!(
        "[bench] tail stages: selection {:.2}s, unmix {:.2}s (cpu), \
         classify {:.2}s, argmax {:.2}s (cpu)",
        run.tail.selection_s, run.tail.unmix_s, run.tail.classify_s, run.tail.argmax_s
    );
    let rollup = results::opt_rollup(&run);
    eprintln!("[bench] shader optimizer (per-kernel, dynamic = fragments x instructions):");
    for k in &rollup.kernels {
        eprintln!(
            "[bench]   {:<14} {:>2} -> {:>2} instrs | {:>4} passes | {:>9} frags | \
             dynamic {:>9} -> {:>9}  (-{:.1}%)",
            k.name,
            k.raw_instructions,
            k.opt_instructions,
            k.passes,
            k.fragments,
            k.dynamic_raw(),
            k.dynamic_opt(),
            k.reduction_pct()
        );
    }
    eprintln!(
        "[bench]   total dynamic shaded instructions {} -> {} (-{:.1}%), \
         isa microbench wall {:.3}s -> {:.3}s",
        rollup.dynamic_raw(),
        rollup.dynamic_opt(),
        rollup.reduction_pct(),
        run.opt_wall_raw_s,
        run.opt_wall_opt_s
    );
    let fl = &run.fleet;
    eprintln!(
        "[bench] fleet scaling over {} chunks ({} lines + {} halo), \
         baseline 1x{} modeled {:.6}s:",
        fl.shapes.first().map_or(0, |s| s.chunks),
        fl.lines_per_chunk,
        fl.halo,
        fl.baseline_device,
        fl.baseline_modeled_s
    );
    eprintln!(
        "[bench]   {:<24} {:>6} {:>6} {:>11} {:>8} {:>9}",
        "shape", "chunks", "steals", "modeled_s", "speedup", "wall_s"
    );
    for shape in &fl.shapes {
        eprintln!(
            "[bench]   {:<24} {:>6} {:>6} {:>11.6} {:>7.2}x {:>9.3}",
            shape.name,
            shape.chunks,
            shape.steals,
            shape.modeled_makespan_s,
            shape.modeled_speedup(fl.baseline_modeled_s),
            shape.wall_s
        );
        for (i, d) in shape.devices.iter().enumerate() {
            eprintln!(
                "[bench]     dev{} {:<18} planned {:>2} -> executed {:>2} \
                 ({} stolen) | modeled {:.6}s | wall {:.3}s",
                i,
                d.device,
                d.planned.len(),
                d.executed.len(),
                d.steals,
                d.modeled_s,
                d.wall_s
            );
        }
    }
}

/// Analyze a captured Chrome trace, or — with no `--trace` — run a reduced
/// traced workload (a shrunk-memory single-device arm so the pipeline must
/// chunk and double-buffer, plus a dual-7800 GTX fleet arm) and report its
/// critical path, utilization and overlap.
fn run_analyze(trace_path: Option<&str>) {
    if let Some(tp) = trace_path {
        let text = match std::fs::read_to_string(tp) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: cannot read {tp}: {e}");
                std::process::exit(2);
            }
        };
        let snap = match trace::analyze::import_chrome_trace(&text) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: {tp} is not a loadable Chrome trace: {e}");
                std::process::exit(2);
            }
        };
        print!(
            "{}",
            trace::analyze::render_text(&trace::analyze::analyze(&snap))
        );
        return;
    }

    use amc_core::fleet::DeviceFleet;
    use amc_core::pipeline::{GpuAmc, KernelMode};
    use gpu_sim::device::GpuProfile;
    use gpu_sim::gpu::Gpu;
    use hsi::classify::AmcConfig;
    use hsi_scene::library::indian_pines_classes;
    use hsi_scene::scene::{generate, SceneConfig};

    trace::enable();
    trace::reset();
    eprintln!("[analyze] running the reduced traced workload (no --trace given)...");
    let classes = indian_pines_classes();
    let scene = generate(&classes, &SceneConfig::reduced_indian_pines(2026));
    let amc = GpuAmc::new(
        AmcConfig::paper_default(classes.len()).se.clone(),
        KernelMode::Isa,
    );
    {
        // Shrink video memory so the cube cannot be resident at once: the
        // run then chunks and the packer-overlap metrics are non-trivial.
        let _arm = trace::span("bench.arm", "single_device");
        let mut profile = GpuProfile::geforce_7800gtx();
        profile.video_memory_mib = 8;
        let mut gpu = Gpu::new(profile);
        amc.run(&mut gpu, &scene.cube).expect("single-device run");
    }
    {
        let _arm = trace::span("bench.arm", "fleet:7800gtx+7800gtx");
        DeviceFleet::new(vec![
            GpuProfile::geforce_7800gtx(),
            GpuProfile::geforce_7800gtx(),
        ])
        .run(&amc, &scene.cube)
        .expect("fleet run");
    }
    let analysis = trace::analyze::analyze(&trace::snapshot_events());
    print!("{}", trace::analyze::render_text(&analysis));
}

/// Compare two benchmark documents and exit 1 on any failed gate.
fn run_bench_delta(baseline: &str, current: &str, thr: &hsi_bench::delta::Thresholds) {
    let load = |path: &str| -> results::BenchRun {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: cannot read {path}: {e}");
                std::process::exit(2);
            }
        };
        match results::from_json(&text) {
            Ok(run) => run,
            Err(e) => {
                eprintln!("error: {path}: {e}");
                std::process::exit(2);
            }
        }
    };
    let baseline_run = load(baseline);
    let current_run = load(current);
    let violations = hsi_bench::delta::compare(&baseline_run, &current_run, thr);
    print!("{}", hsi_bench::delta::render(&violations));
    if !violations.is_empty() {
        std::process::exit(1);
    }
}

fn run_graph(format: &str, fuse: bool) {
    use amc_core::pipeline::{GpuAmc, KernelMode};
    use gpu_sim::device::GpuProfile;
    use hsi::classify::AmcConfig;
    use hsi_scene::scene::SceneConfig;

    // The benchmark scene geometry: the graph's shape depends only on the
    // band count and structuring element, so no cube needs generating.
    let cfg = SceneConfig::reduced_indian_pines(0);
    let config = AmcConfig::paper_default(1);
    let amc = GpuAmc::new(config.se.clone(), KernelMode::Isa);
    let graph = amc
        .compile_graph(
            &GpuProfile::geforce_7800gtx(),
            cfg.width,
            cfg.height,
            cfg.bands,
            fuse,
        )
        .expect("compile AMC render graph");
    eprintln!(
        "[graph] {}x{}x{} AMC graph, fusion {}: {} passes, {} fusions committed, {} eliminated",
        cfg.width,
        cfg.height,
        cfg.bands,
        if fuse { "on" } else { "off" },
        graph.passes.len(),
        graph.fusions.len(),
        graph.eliminated.len(),
    );
    match format {
        "json" => print!("{}", graph.to_json()),
        _ => print!("{}", graph.to_dot()),
    }
}

fn run_table3() {
    eprintln!(
        "[table3] generating the synthetic Indian Pines scene and running AMC (3x3 SE, c=32)..."
    );
    let result = accuracy_experiment(2026);
    print!("{}", format_table3(&result));
}

fn run_fig5(dir: &str) {
    use hsi_scene::library::indian_pines_classes;
    use hsi_scene::render;
    use hsi_scene::scene::{generate, SceneConfig};

    eprintln!(
        "[fig5] rendering scene band, ground truth, MEI and classification maps to {dir}/ ..."
    );
    let classes = indian_pines_classes();
    let scene = generate(&classes, &SceneConfig::reduced_indian_pines(2026));
    let dims = scene.cube.dims();
    // The paper shows the 587nm band: that wavelength lands at ~9% of the
    // 0.4–2.5um range.
    let band = dims.bands * 9 / 100;
    let out = Path::new(dir);
    render::write_file(
        &out.join("fig5a_band.pgm"),
        &render::band_to_pgm(&scene.cube, band),
    )
    .expect("write fig5a");
    render::write_file(
        &out.join("fig5b_ground_truth.ppm"),
        &render::labels_to_ppm(&scene.ground_truth, dims.width, dims.height),
    )
    .expect("write fig5b");

    let amc =
        hsi::classify::AmcClassifier::new(hsi::classify::AmcConfig::paper_default(classes.len()));
    let result = amc.classify(&scene.cube).expect("AMC");
    render::write_file(
        &out.join("mei.pgm"),
        &render::scores_to_pgm(&result.mei.scores, dims.width, dims.height),
    )
    .expect("write mei");
    let mapped = hsi::metrics::map_clusters_to_truth(
        &scene.ground_truth,
        &result.labels,
        result.class_count(),
        classes.len(),
    )
    .expect("mapping");
    render::write_file(
        &out.join("classification.ppm"),
        &render::labels_to_ppm(&mapped, dims.width, dims.height),
    )
    .expect("write classification");
    eprintln!("[fig5] wrote fig5a_band.pgm, fig5b_ground_truth.ppm, mei.pgm, classification.ppm");
}
