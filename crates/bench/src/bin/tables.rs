//! Regenerate the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p hsi-bench --bin tables -- all
//! cargo run --release -p hsi-bench --bin tables -- table3
//! cargo run --release -p hsi-bench --bin tables -- fig5 out/
//! cargo run --release -p hsi-bench --bin tables -- graph json --unfused
//! cargo run --release -p hsi-bench --bin tables -- analyze --trace out/trace.json
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
        "analyze" => match &args[1..] {
            [flag, path] if flag == "--trace" => run_analyze(path),
            _ => {
                eprintln!("usage: tables analyze --trace <trace.json>");
                std::process::exit(2);
            }
        },
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
                "usage: tables [table1|table2|table3|table4|table5|fig5|fig6|ablations|graph|analyze|all]"
            );
            std::process::exit(2);
        }
    }
}

/// Analyze a captured Chrome trace: its critical path, utilization and
/// overlap.
fn run_analyze(tp: &str) {
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

    // Fail before the scene is generated when the figures cannot be written.
    let out = Path::new(dir);
    if let Err(e) = std::fs::create_dir_all(out) {
        eprintln!("error: cannot write {dir}/: {e}");
        std::process::exit(2);
    }
    let write = |name: &str, bytes: &[u8]| {
        let path = out.join(name);
        if let Err(e) = render::write_file(&path, bytes) {
            eprintln!("error: cannot write {}: {e}", path.display());
            std::process::exit(2);
        }
    };
    eprintln!(
        "[fig5] rendering scene band, ground truth, MEI and classification maps to {dir}/ ..."
    );
    let classes = indian_pines_classes();
    let scene = generate(&classes, &SceneConfig::reduced_indian_pines(2026));
    let dims = scene.cube.dims();
    // The paper shows the 587nm band: that wavelength lands at ~9% of the
    // 0.4–2.5um range.
    let band = dims.bands * 9 / 100;
    write("fig5a_band.pgm", &render::band_to_pgm(&scene.cube, band));
    write(
        "fig5b_ground_truth.ppm",
        &render::labels_to_ppm(&scene.ground_truth, dims.width, dims.height),
    );

    let amc =
        hsi::classify::AmcClassifier::new(hsi::classify::AmcConfig::paper_default(classes.len()));
    let result = amc.classify(&scene.cube).expect("AMC");
    write(
        "mei.pgm",
        &render::scores_to_pgm(&result.mei.scores, dims.width, dims.height),
    );
    let mapped = hsi::metrics::map_clusters_to_truth(
        &scene.ground_truth,
        &result.labels,
        result.class_count(),
        classes.len(),
    )
    .expect("mapping");
    write(
        "classification.ppm",
        &render::labels_to_ppm(&mapped, dims.width, dims.height),
    );
    eprintln!("[fig5] wrote fig5a_band.pgm, fig5b_ground_truth.ppm, mei.pgm, classification.ppm");
}
