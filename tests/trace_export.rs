//! Golden validation of the Chrome trace exporter on a real two-chunk
//! pipeline run, plus the observability contract that matters most:
//! tracing is an *observer* — enabling it must not change a single output
//! bit.
//!
//! Everything lives in one `#[test]` because the trace switch is
//! process-global; integration-test binaries run their tests on separate
//! threads and interleaved enable/disable would race.

use hyperspec::amc::pipeline::{GpuAmc, KernelMode, PipelineOutput};
use hyperspec::prelude::*;
use hyperspec::trace;

fn pseudo_random_cube(w: usize, h: usize, bands: usize, seed: u64) -> Cube {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 40) as f32 / 16_777_216.0
    };
    Cube::from_fn(CubeDims::new(w, h, bands), Interleave::Bip, |_, _, _| {
        25.0 + 175.0 * next()
    })
    .unwrap()
}

/// Extract a `"key":"string"` field from a single-line JSON event.
fn str_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let tag = format!("\"{key}\":\"");
    let start = line.find(&tag)? + tag.len();
    let end = line[start..].find('"')?;
    Some(&line[start..start + end])
}

/// Extract a `"key":number` field from a single-line JSON event.
fn num_field(line: &str, key: &str) -> Option<f64> {
    let tag = format!("\"{key}\":");
    let start = line.find(&tag)? + tag.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn run_pipeline(gpu: &mut Gpu, amc: &GpuAmc, cube: &Cube) -> PipelineOutput {
    amc.run(gpu, cube).expect("pipeline run")
}

#[test]
fn chrome_export_is_golden_and_tracing_is_pure_observation() {
    // A device small enough that this cube must split into >= 2 chunks.
    let cube = pseudo_random_cube(64, 96, 12, 0xA11CE);
    let mut profile = GpuProfile::geforce_7800gtx();
    profile.video_memory_mib = 1;
    let amc = GpuAmc::new(StructuringElement::square(3).unwrap(), KernelMode::Isa);

    // --- Baseline with tracing off: nothing may be recorded. ---
    trace::disable();
    trace::reset();
    let off = run_pipeline(&mut Gpu::new(profile.clone()), &amc, &cube);
    assert!(
        off.chunks >= 2,
        "test scenario must chunk, got {}",
        off.chunks
    );
    assert!(
        trace::drain_events().is_empty(),
        "disabled tracing recorded events"
    );

    // --- Same run with tracing on: outputs must be bit-identical. ---
    trace::enable();
    let on = run_pipeline(&mut Gpu::new(profile), &amc, &cube);
    trace::disable();
    assert_eq!(off.chunks, on.chunks);
    assert_eq!(off.mei.scores, on.mei.scores, "MEI texels changed");
    assert_eq!(off.min_index, on.min_index, "min labels changed");
    assert_eq!(off.max_index, on.max_index, "max labels changed");
    assert_eq!(off.stats, on.stats, "simulator counters changed");

    // --- Golden checks on the exported Chrome trace. ---
    let json = trace::chrome_trace_json();
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.trim_end().ends_with('}'));

    let events: Vec<&str> = json
        .lines()
        .filter(|l| l.starts_with('{') && l.contains("\"ph\":"))
        .collect();
    assert!(!events.is_empty(), "no events exported");

    let mut named_tids = std::collections::BTreeSet::new();
    let mut used_tids = std::collections::BTreeSet::new();
    let mut stacks: std::collections::BTreeMap<u64, Vec<String>> = Default::default();
    let mut last_ts = f64::MIN;
    let mut chunk_spans = 0usize;
    let mut pack_spans = 0usize;
    let mut stage_spans: std::collections::BTreeMap<String, usize> = Default::default();

    for line in &events {
        let ph = str_field(line, "ph").expect("every event has ph");
        assert_eq!(num_field(line, "pid"), Some(1.0), "stable pid: {line}");
        let tid = num_field(line, "tid").expect("every event has tid") as u64;
        if ph == "M" {
            // Metadata: process_name on tid 0, thread_name elsewhere.
            if str_field(line, "name") == Some("thread_name") {
                named_tids.insert(tid);
            }
            continue;
        }
        used_tids.insert(tid);
        let ts = num_field(line, "ts").expect("timed event has ts");
        assert!(ts >= last_ts, "timestamps not sorted: {ts} after {last_ts}");
        last_ts = ts;
        let name = str_field(line, "name").unwrap().to_owned();
        let cat = str_field(line, "cat").unwrap_or_default().to_owned();
        match ph {
            "B" => {
                if cat == "pipeline.chunk" {
                    chunk_spans += 1;
                }
                if cat == "pipeline.pack" {
                    pack_spans += 1;
                }
                if cat == "pipeline.stage" {
                    *stage_spans.entry(name.clone()).or_default() += 1;
                }
                stacks.entry(tid).or_default().push(name);
            }
            "E" => {
                let open = stacks
                    .get_mut(&tid)
                    .and_then(Vec::pop)
                    .unwrap_or_else(|| panic!("E without B on tid {tid}: {line}"));
                assert_eq!(open, name, "mismatched B/E pair on tid {tid}");
            }
            "i" => assert!(
                line.contains("\"s\":\"t\""),
                "instant missing scope: {line}"
            ),
            "C" => {}
            other => panic!("unexpected phase {other:?}: {line}"),
        }
    }
    for (tid, stack) in &stacks {
        assert!(stack.is_empty(), "unclosed spans on tid {tid}: {stack:?}");
    }
    for tid in &used_tids {
        assert!(named_tids.contains(tid), "tid {tid} has no thread_name");
    }

    // Per-chunk stage structure: all six stages appear once per chunk, and
    // the packer overlapped every chunk after the first.
    assert_eq!(chunk_spans, on.chunks, "one chunk span per chunk");
    for stage in [
        "upload",
        "normalize",
        "distance",
        "minmax",
        "mei",
        "download",
    ] {
        assert_eq!(
            stage_spans.get(stage).copied().unwrap_or(0),
            on.chunks,
            "stage {stage} spans != chunks"
        );
    }
    assert_eq!(pack_spans, on.chunks - 1, "double-buffer pack spans");
    trace::reset();
}
