//! Golden validation of the Chrome trace exporter on a real two-chunk
//! pipeline run and on a two-card fleet run, plus the observability
//! contract that matters most: tracing is an *observer* — enabling it must
//! not change a single output bit.
//!
//! Everything lives in one `#[test]` because the trace switch is
//! process-global; integration-test binaries run their tests on separate
//! threads and interleaved enable/disable would race.

use hyperspec::amc::pipeline::{GpuAmc, KernelMode, PipelineOutput};
use hyperspec::amc::DeviceFleet;
use hyperspec::prelude::*;
use hyperspec::trace;
use hyperspec::trace::json::{self, Value};

/// The six pipeline stages, each one `pipeline.stage` span per chunk.
const STAGES: [&str; 6] = [
    "upload",
    "normalize",
    "distance",
    "minmax",
    "mei",
    "download",
];

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

    let doc = json::parse(&json).expect("the export is JSON");
    let events = doc.get("traceEvents").and_then(Value::as_array).unwrap();
    // One event per line after the opening line.
    assert_eq!(json.lines().count(), events.len() + 3);
    assert!(!events.is_empty(), "no events exported");

    let mut named_tids = std::collections::BTreeSet::new();
    let mut used_tids = std::collections::BTreeSet::new();
    let mut stacks: std::collections::BTreeMap<u64, Vec<String>> = Default::default();
    let mut last_ts = f64::MIN;
    let mut chunk_spans = 0usize;
    let mut pack_spans = 0usize;
    let mut stage_spans: std::collections::BTreeMap<String, usize> = Default::default();
    let (mut pass_spans, mut ledgers, mut fetches, mut texels) = (0u64, 0u64, 0u64, 0u64);

    for ev in events {
        let field = |key: &str| ev.get(key).unwrap_or_else(|e| panic!("{e} in {ev:?}"));
        let ph = field("ph").as_str().unwrap();
        assert_eq!(field("pid").as_u64(), Ok(1), "stable pid: {ev:?}");
        let tid = field("tid").as_u64().unwrap();
        let name = field("name").as_str().unwrap().to_owned();
        if ph == "M" {
            // Metadata: process_name on tid 0, thread_name elsewhere.
            if name == "thread_name" {
                named_tids.insert(tid);
            }
            continue;
        }
        used_tids.insert(tid);
        let ts = field("ts").as_f64().unwrap();
        assert!(ts >= last_ts, "timestamps not sorted: {ts} after {last_ts}");
        last_ts = ts;
        let cat = field("cat").as_str().unwrap().to_owned();
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
                if cat == "gpu.pass" {
                    pass_spans += 1;
                }
                stacks.entry(tid).or_default().push(name);
            }
            "E" => {
                let open = stacks
                    .get_mut(&tid)
                    .and_then(Vec::pop)
                    .unwrap_or_else(|| panic!("E without B on tid {tid}: {ev:?}"));
                assert_eq!(open, name, "mismatched B/E pair on tid {tid}");
            }
            "i" => {
                assert_eq!(field("s").as_str(), Ok("t"), "instant scope");
                if cat == "gpu.ledger" {
                    let arg = |key: &str| field("args").get(key).unwrap().as_u64().unwrap();
                    ledgers += 1;
                    fetches += arg("fetches");
                    texels += arg("texels");
                }
            }
            "C" => {}
            other => panic!("unexpected phase {other:?}: {ev:?}"),
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
    for stage in STAGES {
        assert_eq!(
            stage_spans.get(stage).copied().unwrap_or(0),
            on.chunks,
            "stage {stage} spans != chunks"
        );
    }
    assert_eq!(pack_spans, on.chunks - 1, "double-buffer pack spans");

    // Every pass records its shading ledger: every texel it resolved and
    // every texel it fetched (each replayed through the cache model), and
    // the analyzer sums them per stage.
    assert_eq!(pass_spans, on.stats.passes, "one gpu.pass span per pass");
    assert_eq!(ledgers, on.stats.passes, "one gpu.ledger instant per pass");
    assert_eq!(texels, on.stats.fragments);
    assert_eq!(fetches, on.stats.texel_fetches);
    assert_eq!(fetches, on.stats.cache_hits + on.stats.cache_misses);
    let analysis = trace::analyze::analyze(&trace::analyze::import_chrome_trace(&json).unwrap());
    let ledger = &analysis.arms[0].ledger;
    let stages: Vec<&str> = ledger.iter().map(|l| l.stage.as_str()).collect();
    assert_eq!(stages, ["normalize", "distance", "minmax", "mei"]);
    assert_eq!(ledger.iter().map(|l| l.texels).sum::<u64>(), texels);
    assert_eq!(ledger.iter().map(|l| l.fetches).sum::<u64>(), fetches);
    assert!(ledger.iter().all(|l| l.ops > 0 && l.shading_s() > 0.0));

    // --- A traced two-card fleet over the same cube. ---
    trace::reset();
    trace::enable();
    let fleet = DeviceFleet::new(vec![
        GpuProfile::geforce_7800gtx(),
        GpuProfile::geforce_7800gtx(),
    ])
    .run(&amc, &cube)
    .expect("fleet run");
    trace::disable();
    assert_eq!(
        fleet.pipeline.mei.scores, off.mei.scores,
        "fleet MEI changed"
    );
    let json = trace::chrome_trace_json();
    let doc = json::parse(&json).expect("the fleet export is JSON");
    let events = doc.get("traceEvents").and_then(Value::as_array).unwrap();
    let mut rows = std::collections::BTreeMap::new();
    let mut chunks_per_tid: std::collections::BTreeMap<u64, usize> = Default::default();
    let mut stage_spans: std::collections::BTreeMap<String, usize> = Default::default();
    for ev in events {
        let str_field = |key: &str| ev.get(key).and_then(Value::as_str).unwrap_or_default();
        let tid = ev.get("tid").and_then(Value::as_u64).unwrap();
        match (str_field("ph"), str_field("cat")) {
            ("M", _) if str_field("name") == "thread_name" => {
                let name = ev.get("args").and_then(|a| a.get("name")).unwrap();
                rows.insert(name.as_str().unwrap().to_owned(), tid);
            }
            ("B", "fleet.chunk") => *chunks_per_tid.entry(tid).or_default() += 1,
            ("B", "pipeline.chunk") => panic!("fleet chunks span as fleet.chunk: {ev:?}"),
            ("B", "pipeline.stage") => {
                *stage_spans.entry(str_field("name").to_owned()).or_default() += 1;
            }
            _ => {}
        }
    }
    // One fleet.chunk span per executed chunk, on the row of the device
    // that shaded it, and all six stage spans inside each.
    let executed: usize = fleet.devices.iter().map(|d| d.executed.len()).sum();
    assert_eq!(executed, fleet.pipeline.chunks);
    assert!(executed >= 2, "the fleet must shard, got {executed} chunks");
    assert_eq!(chunks_per_tid.values().sum::<usize>(), executed);
    for stage in STAGES {
        assert_eq!(
            stage_spans.get(stage).copied().unwrap_or(0),
            executed,
            "fleet stage {stage} spans != executed chunks"
        );
    }
    for (i, device) in fleet.devices.iter().enumerate() {
        let row = format!("device{i}.{}", device.profile.short_name());
        let tid = *rows
            .get(&row)
            .unwrap_or_else(|| panic!("no trace row `{row}` in {rows:?}"));
        assert_eq!(
            chunks_per_tid.get(&tid).copied().unwrap_or(0),
            device.executed.len(),
            "fleet.chunk spans on `{row}`"
        );
    }
    trace::reset();
}
