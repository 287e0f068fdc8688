//! The `tables` command line: its exit-code contract on malformed input or
//! a missing argument (exit 2 with a message, never an abort), and the
//! `graph` dumps of the compiled AMC render graph.

use std::process::Command;

#[test]
fn deeply_nested_documents_exit_2() {
    let path = std::env::temp_dir().join(format!("tables-nested-{}.json", std::process::id()));
    std::fs::write(&path, "[".repeat(50_000)).expect("write the input");
    let p = path.to_str().expect("a UTF-8 temp path");
    let out = Command::new(env!("CARGO_BIN_EXE_tables"))
        .args(["analyze", "--trace", p])
        .output()
        .expect("run tables");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "tables analyze --trace: {stderr}"
    );
    assert!(stderr.contains("nesting deeper than"), "{stderr}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn analyze_without_a_trace_prints_its_usage_and_exits_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_tables"))
        .arg("analyze")
        .output()
        .expect("run tables");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "tables analyze: {stderr}");
    assert!(
        stderr.contains("usage: tables analyze --trace <trace.json>"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty());
}

#[test]
fn fig5_into_an_uncreatable_directory_exits_2_before_rendering() {
    // A directory under a regular file cannot be created, even by root.
    let file = std::env::temp_dir().join(format!("tables-fig5-{}", std::process::id()));
    std::fs::write(&file, "not a directory").expect("write the blocker");
    let dir = file.join("figures");
    let out = Command::new(env!("CARGO_BIN_EXE_tables"))
        .args(["fig5", dir.to_str().expect("a UTF-8 temp path")])
        .output()
        .expect("run tables");
    let _ = std::fs::remove_file(&file);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "tables fig5: {stderr}");
    assert!(stderr.contains("error: cannot write"), "{stderr}");
    assert!(!stderr.contains("[fig5] rendering"), "{stderr}");
    assert!(out.stdout.is_empty());
}

/// Run `tables graph <args>`; returns its exit code, stdout and stderr.
fn tables_graph(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_tables"))
        .arg("graph")
        .args(args)
        .output()
        .expect("run tables");
    let text = |b: &[u8]| String::from_utf8_lossy(b).into_owned();
    (out.status.code(), text(&out.stdout), text(&out.stderr))
}

/// The AMC graph `tables graph` dumps, at the benchmark scene's geometry.
fn compiled_graph(fuse: bool) -> amc_core::graph::CompiledGraph {
    use amc_core::pipeline::{GpuAmc, KernelMode};
    let se = hsi::classify::AmcConfig::paper_default(1).se;
    let profile = gpu_sim::GpuProfile::geforce_7800gtx();
    let graph = GpuAmc::new(se, KernelMode::Isa).compile_graph(&profile, 160, 128, 96, fuse);
    graph.expect("compile the AMC graph")
}

#[test]
fn graph_json_dumps_match_the_compiled_graph() {
    use trace::json::{self, Value};
    for (args, fuse) in [(&["json"][..], true), (&["json", "--unfused"][..], false)] {
        let (code, stdout, stderr) = tables_graph(args);
        assert_eq!(code, Some(0), "tables graph {args:?}: {stderr}");
        let doc = json::parse(&stdout).expect("the dump parses");
        let count = |key: &str| doc.get(key).and_then(Value::as_array).map(<[Value]>::len);
        let got = (doc.get("fused").cloned(), count("passes"), count("fusions"));
        let c = compiled_graph(fuse);
        let want = (
            Ok(Value::Bool(fuse)),
            Ok(c.passes.len()),
            Ok(c.fusions.len()),
        );
        assert_eq!(got, want, "{args:?}");
        assert_eq!(count("eliminated"), Ok(c.eliminated.len()), "{args:?}");
    }
}

/// `(kernel, instructions, fetches)` of every pass `tables graph <args>`
/// dumps.
fn dumped_passes(args: &[&str]) -> Vec<(String, u64, u64)> {
    use trace::json::{self, Value};
    let (code, stdout, stderr) = tables_graph(args);
    assert_eq!(code, Some(0), "tables graph {args:?}: {stderr}");
    let doc = json::parse(&stdout).expect("the dump parses");
    let passes = doc.get("passes").and_then(Value::as_array).expect("passes");
    let field = |p: &Value, key: &str| p.get(key).and_then(Value::as_u64).expect(key);
    passes
        .iter()
        .map(|p| {
            let kernel = p.get("kernel").and_then(Value::as_str).expect("kernel");
            (
                kernel.to_owned(),
                field(p, "instructions"),
                field(p, "fetches"),
            )
        })
        .collect()
}

#[test]
fn graph_json_dumps_report_the_shaded_programs() {
    use amc_core::kernels as k;
    // Unfused, every pass runs one kernel as the device shades it: its
    // optimized cost, with every fetch of the assembled program.
    let shaded = [
        (k::BAND_SUM_COST, k::band_sum_program()),
        (k::NORMALIZE_COST, k::normalize_program()),
        (k::SID_PARTIAL_COST, k::sid_partial_program()),
        (k::MINMAX_INIT_COST, k::minmax_init_program()),
        (k::MINMAX_UPDATE_COST, k::minmax_update_program()),
        (k::MEI_PARTIAL_COST, k::mei_partial_program()),
    ];
    let unfused = dumped_passes(&["json", "--unfused"]);
    for (cost, program) in &shaded {
        let name = &program.name;
        let want = (*cost, program.tex_count() as u64);
        let runs: Vec<_> = unfused
            .iter()
            .filter(|(kernel, ..)| kernel == name)
            .collect();
        assert!(!runs.is_empty(), "no `{name}` pass");
        for (_, instructions, fetches) in runs {
            assert_eq!((*instructions, *fetches), want, "`{name}`");
        }
    }
    assert_eq!(unfused.len(), 24 + 24 + 8 * 24 + 1 + 8 + 24);
    // Fused, the min/max updates bind pass constants, so none is inlined
    // and each shades the optimized update.
    let updates: Vec<u64> = dumped_passes(&["json"])
        .into_iter()
        .filter(|(kernel, ..)| kernel == "minmax_update")
        .map(|(_, instructions, _)| instructions)
        .collect();
    assert_eq!(updates, [k::MINMAX_UPDATE_COST; 8]);
}

#[test]
fn graph_dot_dump_has_one_box_per_pass() {
    let (code, stdout, stderr) = tables_graph(&["dot"]);
    assert_eq!(code, Some(0), "tables graph dot: {stderr}");
    assert!(stdout.starts_with("digraph render_graph"), "{stdout}");
    let boxes = stdout.lines().filter(|l| l.contains("shape=box")).count();
    assert_eq!(boxes, compiled_graph(true).passes.len());
}

#[test]
fn graph_with_an_unknown_option_prints_its_usage_and_exits_2() {
    let (code, stdout, stderr) = tables_graph(&["bogus"]);
    assert_eq!(code, Some(2), "tables graph bogus: {stderr}");
    assert!(stderr.contains("usage: tables graph [dot|json] [--unfused]"));
    assert!(stdout.is_empty());
}
