//! Malformed input never panics a JSON reader: random bytes and
//! byte-mutated copies of an exporter trace and of the AMC render-graph
//! document go through `json::parse` and `import_chrome_trace`, and each
//! returns `Ok` or `Err`. Every trace that imports is also analyzed, which
//! must not panic either.

use amc_core::pipeline::{GpuAmc, KernelMode};
use gpu_sim::device::GpuProfile;
use hsi::classify::AmcConfig;
use hsi_scene::scene::SceneConfig;
use proptest::prelude::*;
use std::sync::OnceLock;
use trace::analyze::{analyze, import_chrome_trace};
use trace::{json, ArgValue};

/// Bytes that make random input look like JSON often enough to get past
/// the first token.
const ALPHABET: &[u8] = b"{}[]\":,.-+eE0123456789 \\utrfn\n";

/// A small trace written by the exporter: metadata, nested spans with
/// arguments, an instant and a counter sample.
fn exporter_trace() -> String {
    trace::enable();
    trace::reset();
    trace::set_thread_name("main");
    {
        let _chunk = trace::span_with("pipeline.chunk", "chunk", &[("index", ArgValue::U64(0))]);
        let _stage = trace::span("pipeline.stage", "distance");
        trace::instant("gpu.pool", "alloc", &[("bytes", ArgValue::U64(64))]);
        trace::counter("gpu.allocated_bytes", 64.0);
    }
    trace::disable();
    trace::chrome_trace_json()
}

/// The fused AMC render graph at the benchmark scene geometry, as
/// `tables -- graph json` prints it.
fn graph_document() -> &'static str {
    static DOC: OnceLock<String> = OnceLock::new();
    DOC.get_or_init(|| {
        let cfg = SceneConfig::reduced_indian_pines(0);
        GpuAmc::new(AmcConfig::paper_default(1).se, KernelMode::Isa)
            .compile_graph(
                &GpuProfile::geforce_7800gtx(),
                cfg.width,
                cfg.height,
                cfg.bands,
                true,
            )
            .expect("compile the AMC render graph")
            .to_json()
    })
}

fn read_everywhere(bytes: &[u8]) {
    let text = String::from_utf8_lossy(bytes);
    let _ = json::parse(&text);
    if let Ok(snap) = import_chrome_trace(&text) {
        let _ = analyze(&snap);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_bytes_never_panic(raw in prop::collection::vec(any::<u8>(), 0..200)) {
        let bytes: Vec<u8> = raw
            .iter()
            .map(|&b| if b < 128 { ALPHABET[b as usize % ALPHABET.len()] } else { b })
            .collect();
        read_everywhere(&bytes);
    }

    #[test]
    fn mutated_documents_never_panic(
        edits in prop::collection::vec((any::<usize>(), any::<u8>()), 1..6),
        keep in any::<usize>(),
    ) {
        for doc in [graph_document().to_owned(), exporter_trace()] {
            let mut bytes = doc.into_bytes();
            for &(at, b) in &edits {
                let i = at % bytes.len();
                bytes[i] = b;
            }
            read_everywhere(&bytes);
            bytes.truncate(keep % bytes.len());
            read_everywhere(&bytes);
        }
    }
}
