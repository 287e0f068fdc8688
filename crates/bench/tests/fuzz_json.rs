//! Malformed input never panics a JSON reader: random bytes and
//! byte-mutated copies of a bench document and an exporter trace go through
//! `json::parse`, `results::from_json` and `import_chrome_trace`, and each
//! returns `Ok` or `Err`. Every trace that imports is also analyzed, which
//! must not panic either.

use hsi_bench::results::from_json;
use proptest::prelude::*;
use trace::analyze::{analyze, import_chrome_trace};
use trace::{json, ArgValue};

const BENCH_DOC: &str = include_str!("../../../BENCH_results.json");
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

fn read_everywhere(bytes: &[u8]) {
    let text = String::from_utf8_lossy(bytes);
    let _ = json::parse(&text);
    let _ = from_json(&text);
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
        for doc in [BENCH_DOC.to_owned(), exporter_trace()] {
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
