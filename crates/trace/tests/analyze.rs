//! Analyzer integration tests: synthetic span-stream fixtures (ragged
//! overlap, stolen fleet chunks, zero-length spans), an exporter→importer
//! round trip over the live recorder, and property tests asserting the
//! analyzer's core invariants on random well-formed streams.

use proptest::prelude::*;
use trace::analyze::{analyze, import_chrome_trace};
use trace::{ArgValue, Event, Phase, TraceSnapshot};

fn ev(ts_ns: u64, tid: u64, phase: Phase, cat: &'static str, name: &str) -> Event {
    Event {
        ts_ns,
        tid,
        phase,
        cat,
        name: name.to_owned(),
        args: Vec::new(),
    }
}

fn ev_args(
    ts_ns: u64,
    tid: u64,
    phase: Phase,
    cat: &'static str,
    name: &str,
    args: &[(&'static str, u64)],
) -> Event {
    Event {
        args: args.iter().map(|&(k, v)| (k, ArgValue::U64(v))).collect(),
        ..ev(ts_ns, tid, phase, cat, name)
    }
}

/// A chunked pipeline with nested stage spans and a packer thread whose pack
/// raggedly half-overlaps the chunk it hides under.
#[test]
fn stage_attribution_and_ragged_pack_overlap() {
    let events = vec![
        // chunk 0 on tid 1: [0, 1000), stages upload [0,200) distance [200,900).
        ev_args(
            0,
            1,
            Phase::Begin,
            "pipeline.chunk",
            "chunk",
            &[("index", 0)],
        ),
        ev(0, 1, Phase::Begin, "pipeline.stage", "upload"),
        ev(200, 1, Phase::End, "pipeline.stage", "upload"),
        ev(200, 1, Phase::Begin, "pipeline.stage", "distance"),
        ev(900, 1, Phase::End, "pipeline.stage", "distance"),
        ev(1000, 1, Phase::End, "pipeline.chunk", "chunk"),
        // pack for chunk 1 on tid 2: [800, 1200) — 200 hidden, 200 exposed.
        ev_args(
            800,
            2,
            Phase::Begin,
            "pipeline.pack",
            "pack",
            &[("chunk", 1)],
        ),
        ev(1200, 2, Phase::End, "pipeline.pack", "pack"),
        // chunk 1 on tid 1: [1200, 1600), one distance stage [1250, 1550).
        ev_args(
            1200,
            1,
            Phase::Begin,
            "pipeline.chunk",
            "chunk",
            &[("index", 1)],
        ),
        ev(1250, 1, Phase::Begin, "pipeline.stage", "distance"),
        ev(1550, 1, Phase::End, "pipeline.stage", "distance"),
        ev(1600, 1, Phase::End, "pipeline.chunk", "chunk"),
    ];
    let snap = TraceSnapshot {
        events,
        threads: vec![(1, "main".into()), (2, "packer".into())],
    };
    let arm = &analyze(&snap).arms[0];

    assert!((arm.wall_s - 1600e-9).abs() < 1e-15);
    assert!((arm.overlap.pack_total_s - 400e-9).abs() < 1e-15);
    assert!((arm.overlap.pack_hidden_s - 200e-9).abs() < 1e-15);
    assert!((arm.overlap.pack_overlap_efficiency() - 0.5).abs() < 1e-12);

    // Critical path: chunk0 (1000) → chunk1 (400) = 1400 beats pack→chunk1.
    assert_eq!(arm.critical_path.nodes, 2);
    assert!((arm.critical_path.total_s - 1400e-9).abs() < 1e-15);
    let stage = |name: &str| -> f64 {
        arm.critical_path
            .stages
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
            .unwrap_or(0.0)
    };
    assert!((stage("upload") - 200e-9).abs() < 1e-15);
    assert!((stage("distance") - 1000e-9).abs() < 1e-15);
    // Chunk time not under any stage span: 100 (chunk 0) + 100 (chunk 1).
    assert!((stage("other") - 200e-9).abs() < 1e-15);
    let total: f64 = arm.critical_path.stages.iter().map(|(_, v)| v).sum();
    assert!((total - arm.critical_path.total_s).abs() < 1e-12);

    // Utilization: tid 1 busy 1400/1600, tid 2 busy 400/1600.
    let t1 = arm.threads.iter().find(|t| t.tid == 1).unwrap();
    let t2 = arm.threads.iter().find(|t| t.tid == 2).unwrap();
    assert!((t1.utilization - 0.875).abs() < 1e-12);
    assert!((t2.utilization - 0.25).abs() < 1e-12);
}

/// A two-device fleet where device 1 steals one of device 0's chunks.
/// One traced pass's `gpu.ledger` instant.
fn ledger(ts_ns: u64, tid: u64, parts: [u64; 6]) -> Event {
    let keys = [
        "sweep_ns",
        "ops",
        "replay_ns",
        "fetches",
        "resolve_ns",
        "texels",
    ];
    let args: Vec<(&'static str, u64)> = keys.into_iter().zip(parts).collect();
    ev_args(ts_ns, tid, Phase::Instant, "gpu.ledger", "pass", &args)
}

/// Ledger instants sum per enclosing `pipeline.stage` span on their own
/// thread, the three parts add up to the shading time, and the report
/// prints ns per unit.
#[test]
fn shading_ledger_sums_per_stage() {
    let events = vec![
        ev(0, 1, Phase::Begin, "pipeline.stage", "distance"),
        ledger(100, 1, [300, 30, 100, 50, 20, 10]),
        ledger(600, 1, [500, 70, 50, 25, 10, 10]),
        ev(1000, 1, Phase::End, "pipeline.stage", "distance"),
        ev(1000, 1, Phase::Begin, "pipeline.stage", "mei"),
        ledger(1200, 1, [200, 20, 80, 40, 20, 5]),
        ev(1500, 1, Phase::End, "pipeline.stage", "mei"),
        ledger(1800, 1, [10, 1, 0, 0, 0, 1]),
        // Another thread's distance stage spans every instant above, but
        // attribution follows the instant's own thread.
        ev(0, 2, Phase::Begin, "pipeline.stage", "distance"),
        ev(2000, 2, Phase::End, "pipeline.stage", "distance"),
    ];
    let snap = TraceSnapshot {
        events,
        threads: vec![(1, "main".into()), (2, "device1".into())],
    };
    let analysis = analyze(&snap);
    let ledger = &analysis.arms[0].ledger;
    let stages: Vec<&str> = ledger.iter().map(|l| l.stage.as_str()).collect();
    assert_eq!(stages, ["distance", "mei", "unstaged"]);
    let d = &ledger[0];
    assert_eq!((d.passes, d.ops, d.fetches, d.texels), (2, 100, 75, 20));
    assert!((d.sweep_s - 800e-9).abs() < 1e-15);
    assert!((d.replay_s - 150e-9).abs() < 1e-15);
    assert!((d.resolve_s - 30e-9).abs() < 1e-15);
    assert!((d.shading_s() - 980e-9).abs() < 1e-15);
    // Stage wall sums both threads' distance spans.
    assert!((d.wall_s - 3000e-9).abs() < 1e-15);
    let m = &ledger[1];
    assert_eq!((m.passes, m.ops, m.fetches, m.texels), (1, 20, 40, 5));
    assert!((m.wall_s - 500e-9).abs() < 1e-15);
    let text = trace::analyze::render_text(&analysis);
    assert!(text.contains("shading ledger"), "{text}");
    // distance: 800 ns / 100 ops, 150 ns / 75 fetches, 30 ns / 20 texels.
    let section = text.split("shading ledger").nth(1).unwrap();
    let row = section
        .lines()
        .find(|l| l.trim_start().starts_with("distance"))
        .unwrap();
    for figure in ["8.00", "2.00", "1.50"] {
        assert!(row.contains(figure), "{row}");
    }
}

#[test]
fn fleet_balance_counts_steals_and_utilization() {
    let mut events = Vec::new();
    // device 0 (tid 1): chunks 0 [0,400) and 1 [400,800).
    for (i, (a, b)) in [(0u64, (0u64, 400u64)), (1, (400, 800))] {
        events.push(ev_args(
            a,
            1,
            Phase::Begin,
            "fleet.chunk",
            "chunk",
            &[("device", 0), ("index", i), ("stolen", 0)],
        ));
        events.push(ev(b, 1, Phase::End, "fleet.chunk", "chunk"));
    }
    // device 1 (tid 2): chunk 2 [0,500), then steals chunk 3 [500,600).
    events.push(ev_args(
        0,
        2,
        Phase::Begin,
        "fleet.chunk",
        "chunk",
        &[("device", 1), ("index", 2), ("stolen", 0)],
    ));
    events.push(ev(500, 2, Phase::End, "fleet.chunk", "chunk"));
    events.push(ev_args(
        500,
        2,
        Phase::Begin,
        "fleet.chunk",
        "chunk",
        &[("device", 1), ("index", 3), ("stolen", 1)],
    ));
    events.push(ev(600, 2, Phase::End, "fleet.chunk", "chunk"));
    let snap = TraceSnapshot {
        events,
        threads: vec![
            (1, "device0.7800gtx".into()),
            (2, "device1.6800ultra".into()),
        ],
    };
    let arm = &analyze(&snap).arms[0];
    let fleet = arm.fleet.as_ref().expect("fleet arm");

    assert!((fleet.makespan_s - 800e-9).abs() < 1e-15);
    assert_eq!(fleet.steals, 1);
    assert_eq!(fleet.devices.len(), 2);
    let d0 = &fleet.devices[0];
    let d1 = &fleet.devices[1];
    assert_eq!((d0.device, d0.chunks, d0.stolen), (0, 2, 0));
    assert_eq!((d1.device, d1.chunks, d1.stolen), (1, 2, 1));
    assert_eq!(d0.label, "device0.7800gtx");
    assert!((d0.utilization - 1.0).abs() < 1e-12);
    assert!((d1.utilization - 0.75).abs() < 1e-12);
    // mean(800, 600) / max(800, 600) = 0.875.
    assert!((fleet.load_balance() - 0.875).abs() < 1e-12);
}

/// Zero-length spans (all events at one instant) must not divide by zero.
#[test]
fn zero_length_streams_are_finite() {
    let events = vec![
        ev_args(
            50,
            1,
            Phase::Begin,
            "pipeline.chunk",
            "chunk",
            &[("index", 0)],
        ),
        ev(50, 1, Phase::End, "pipeline.chunk", "chunk"),
        ev_args(
            50,
            2,
            Phase::Begin,
            "pipeline.pack",
            "pack",
            &[("chunk", 1)],
        ),
        ev(50, 2, Phase::End, "pipeline.pack", "pack"),
        ev(50, 3, Phase::Begin, "gpu.xfer", "upload"),
        ev(50, 3, Phase::End, "gpu.xfer", "upload"),
    ];
    let snap = TraceSnapshot {
        events,
        threads: Vec::new(),
    };
    let arm = &analyze(&snap).arms[0];
    assert_eq!(arm.wall_s, 0.0);
    assert_eq!(arm.critical_path.total_s, 0.0);
    assert!(arm.critical_path.nodes >= 1);
    for t in &arm.threads {
        assert!(t.utilization.is_finite() && (0.0..=1.0).contains(&t.utilization));
    }
    assert!((arm.overlap.pack_overlap_efficiency() - 1.0).abs() < 1e-12);
    assert!(arm.overlap.bus_busy_s == 0.0 && arm.overlap.bus_contended_s == 0.0);
}

/// Two overlapping packs of 1e16 µs each import cleanly; their summed
/// durations exceed `u64::MAX` nanoseconds, so every duration sum in the
/// analyzer must saturate instead of overflowing.
#[test]
fn huge_overlapping_spans_saturate() {
    let text = r#"{"traceEvents":[
        {"ph":"X","cat":"pipeline.pack","name":"pack","ts":0,"dur":1e16,"pid":1,"tid":1},
        {"ph":"X","cat":"pipeline.pack","name":"pack","ts":0,"dur":1e16,"pid":1,"tid":2}
    ]}"#;
    let snap = import_chrome_trace(text).expect("well-formed trace");
    let arm = &analyze(&snap).arms[0];
    assert_eq!(arm.overlap.pack_total_s, u64::MAX as f64 / 1e9);
    assert!(arm.critical_path.total_s.is_finite());
    assert!(arm.wall_s.is_finite() && arm.wall_s > 0.0);
}

/// Record through the live recorder, export Chrome JSON, import it back,
/// and check both snapshots analyze identically. (The only test in this
/// binary touching the global recorder.)
#[test]
fn export_import_analyzes_identically() {
    trace::enable();
    trace::reset();
    {
        let _arm = trace::span("bench.arm", "roundtrip");
        {
            let _c = trace::span_with(
                "pipeline.chunk",
                "chunk",
                &[("index", ArgValue::U64(0)), ("lines", ArgValue::U64(64))],
            );
            let _s = trace::span("pipeline.stage", "distance");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }
    let json = trace::chrome_trace_json();
    let live = trace::snapshot_events();
    trace::disable();
    trace::reset();

    let imported = import_chrome_trace(&json).expect("import");
    let a = analyze(&live);
    let b = analyze(&imported);
    assert_eq!(a.arms.len(), 1);
    assert_eq!(b.arms.len(), 1);
    assert_eq!(a.arms[0].name, "roundtrip");
    assert_eq!(b.arms[0].name, "roundtrip");
    assert_eq!(a.arms[0].critical_path.nodes, b.arms[0].critical_path.nodes);
    // Timestamps survive the µs-precision JSON round trip exactly (the
    // exporter keeps three decimals of microseconds = integer nanoseconds).
    assert!((a.arms[0].wall_s - b.arms[0].wall_s).abs() < 1e-12);
    assert!((a.arms[0].critical_path.total_s - b.arms[0].critical_path.total_s).abs() < 1e-12);
}

/// One generated work item: a root span, possibly with a nested child.
#[derive(Debug, Clone)]
struct GenSpan {
    tid: u64,
    cat_pick: usize,
    gap_ns: u64,
    dur_ns: u64,
    nested: bool,
}

fn gen_span_strategy() -> impl Strategy<Value = GenSpan> {
    (0u64..4, 0usize..4, 0u64..500, 0u64..1000, any::<bool>()).prop_map(
        |(tid, cat_pick, gap_ns, dur_ns, nested)| GenSpan {
            tid,
            cat_pick,
            gap_ns,
            dur_ns,
            nested,
        },
    )
}

/// Build a well-formed stream: per-thread clocks advance monotonically, and
/// every begin gets a matching end. Threads interleave raggedly because
/// each advances its own clock independently.
fn build_stream(items: &[GenSpan]) -> Vec<Event> {
    const CATS: [&str; 4] = ["pipeline.chunk", "pipeline.pack", "gpu.xfer", "tail.block"];
    let mut clock = [0u64; 4];
    let mut chunk_seq = [0u64; 4];
    let mut events = Vec::new();
    for item in items {
        let tid = item.tid;
        let t = &mut clock[tid as usize];
        *t += item.gap_ns;
        let cat = CATS[item.cat_pick];
        let start = *t;
        let args: &[(&'static str, u64)] = &match cat {
            "pipeline.chunk" => {
                let i = chunk_seq[tid as usize];
                chunk_seq[tid as usize] += 1;
                [("index", i)]
            }
            "pipeline.pack" => [("chunk", chunk_seq[tid as usize])],
            _ => [("bytes", item.dur_ns)],
        };
        events.push(ev_args(start, tid, Phase::Begin, cat, "span", args));
        if item.nested && item.dur_ns >= 2 {
            let quarter = item.dur_ns / 4;
            events.push(ev(
                start + quarter,
                tid,
                Phase::Begin,
                "pipeline.stage",
                "distance",
            ));
            events.push(ev(
                start + 3 * quarter,
                tid,
                Phase::End,
                "pipeline.stage",
                "distance",
            ));
        }
        *t += item.dur_ns;
        events.push(ev(*t, tid, Phase::End, cat, "span"));
    }
    events
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn analyzer_invariants_hold_on_random_streams(
        items in prop::collection::vec(gen_span_strategy(), 0..40),
    ) {
        let events = build_stream(&items);
        let snap = TraceSnapshot { events, threads: Vec::new() };
        let analysis = analyze(&snap);
        for arm in &analysis.arms {
            // Utilization is a fraction for every thread.
            for t in &arm.threads {
                prop_assert!(t.utilization.is_finite());
                prop_assert!((0.0..=1.0).contains(&t.utilization), "util {}", t.utilization);
                prop_assert!(t.busy_s <= arm.wall_s + 1e-12);
            }
            // The critical path is a chain of non-overlapping spans, so it
            // can never exceed the wall.
            prop_assert!(arm.critical_path.total_s <= arm.wall_s + 1e-12,
                "cp {} > wall {}", arm.critical_path.total_s, arm.wall_s);
            let attributed: f64 = arm.critical_path.stages.iter().map(|(_, v)| v).sum();
            prop_assert!((attributed - arm.critical_path.total_s).abs() < 1e-9);
            // Overlap accounting stays within bounds.
            let ov = &arm.overlap;
            prop_assert!(ov.pack_hidden_s <= ov.pack_total_s + 1e-12);
            prop_assert!((0.0..=1.0).contains(&ov.pack_overlap_efficiency()));
            prop_assert!(ov.bus_contended_s <= ov.bus_busy_s + 1e-12);
            prop_assert!(ov.bus_busy_s <= arm.wall_s + 1e-12);
        }
    }
}
