//! Per-layer metrics of the traced run.
//!
//! Layers are measured from outside only: by timing around public calls
//! (graph compile, band packing, ATGP, model fit, batched unmixing) and by
//! reading what the calls already return (`PipelineOutput`, the tail
//! breakdown, the fleet report, the metrics registry and the trace the
//! crates record). Nothing is instrumented inside the crates.

use crate::workload::{Drivers, SceneOut, Workload, ACCURACY_CLASSES};
use amc_core::layout;
use gpu_sim::timing;
use hsi::classify::AmcConfig;
use hsi::cube::{Cube, Interleave};
use hsi::endmember::{select_endmembers_atgp, spectra};
use hsi::unmix::LinearMixtureModel;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;
use trace::analyze::{self, ArmAnalysis};
use trace::metrics::Snapshot;
use trace::TraceSnapshot;

/// Name of the harness thread's timeline row.
pub const MAIN_THREAD: &str = "bench-main";
/// Timeline row of the one extra pool worker at two threads.
const WORKER_THREAD: &str = "pool-worker-1";

/// Every per-layer metric `(name, unit)`, in `BENCHMARK.json` order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("pipeline.wall_s", "s"),
    ("pipeline.upload_s", "s"),
    ("pipeline.normalize_s", "s"),
    ("pipeline.distance_s", "s"),
    ("pipeline.minmax_s", "s"),
    ("pipeline.mei_s", "s"),
    ("pipeline.download_s", "s"),
    ("pipeline.other_s", "s"),
    ("pipeline.chunks", "count"),
    ("graph.compile_s", "s"),
    ("graph.passes", "count"),
    ("graph.fusions", "count"),
    ("gpu.verify_runs.cold", "count"),
    ("gpu.verify_runs.warm", "count"),
    ("gpu.lower_runs.cold", "count"),
    ("gpu.lower_runs.warm", "count"),
    ("gpu.texture_allocs.cold", "count"),
    ("gpu.texture_allocs.warm", "count"),
    ("gpu.modeled_ms", "ms"),
    ("interp.instructions", "count"),
    ("interp.fragments", "count"),
    ("interp.tiles", "count"),
    ("interp.ns_per_instr", "ns"),
    ("texcache.fetches", "count"),
    ("texcache.miss_pct", "%"),
    ("bus.bytes_up", "B"),
    ("bus.bytes_down", "B"),
    ("bus.modeled_ms", "ms"),
    ("layout.pack_s", "s"),
    ("layout.pack_hidden_pct", "%"),
    ("fleet.steals", "count"),
    ("fleet.load_balance", "ratio"),
    ("fleet.device_wall_max_s", "s"),
    ("fleet.modeled_makespan_ms", "ms"),
    ("rayon.busy_pct.main", "%"),
    ("rayon.busy_pct.worker1", "%"),
    ("rayon.queue_wait_p50_us", "us"),
    ("classify.wall_s", "s"),
    ("classify.selection_s", "s"),
    ("classify.batched_s", "s"),
    ("classify.unmix_cpu_s", "s"),
    ("classify.argmax_cpu_s", "s"),
    ("classify.other_s", "s"),
    ("endmember.atgp_s.c16", "s"),
    ("endmember.atgp_s.c32", "s"),
    ("endmember.atgp_s.c64", "s"),
    ("unmix.fit_s", "s"),
    ("unmix.mpix_per_s", "Mpx/s"),
    ("scene.wall_s", "s"),
    ("scene.other_s", "s"),
    ("trace.overhead_pct", "%"),
    ("check.near_ties", "count"),
    ("check.failed_pct", "%"),
];

/// GPU cache counters of the always-on metrics registry (summed over every
/// simulated device in the process).
#[derive(Debug, Clone, Copy, Default)]
pub struct GpuCounters {
    verify_runs: u64,
    lower_runs: u64,
    texture_allocs: u64,
}

impl GpuCounters {
    /// Read the counters from a registry snapshot.
    pub fn from_snapshot(snap: &Snapshot) -> Self {
        let get = |name: &str| {
            snap.counters
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0, |&(_, v)| v)
        };
        Self {
            verify_runs: get("gpu.verify.runs"),
            lower_runs: get("gpu.lower.runs"),
            texture_allocs: get("gpu.pool.allocs"),
        }
    }

    /// Counts accumulated since `earlier`.
    pub fn since(self, earlier: Self) -> Self {
        Self {
            verify_runs: self.verify_runs - earlier.verify_runs,
            lower_runs: self.lower_runs - earlier.lower_runs,
            texture_allocs: self.texture_allocs - earlier.texture_allocs,
        }
    }

    /// `(metric, count)` rows of a cold (first) or warm scene.
    pub fn rows(self, cold: bool) -> [(&'static str, f64); 3] {
        let [verify, lower, allocs] = if cold {
            [
                "gpu.verify_runs.cold",
                "gpu.lower_runs.cold",
                "gpu.texture_allocs.cold",
            ]
        } else {
            [
                "gpu.verify_runs.warm",
                "gpu.lower_runs.warm",
                "gpu.texture_allocs.warm",
            ]
        };
        [
            (verify, self.verify_runs as f64),
            (lower, self.lower_runs as f64),
            (allocs, self.texture_allocs as f64),
        ]
    }
}

/// Layer timings taken by calling public layer functions on the scene's
/// data, outside the scene wall.
pub struct Outside {
    compile_s: f64,
    passes: usize,
    fusions: usize,
    pack_s: f64,
    atgp_s: BTreeMap<usize, f64>,
    fit_s: f64,
    mpix_per_s: f64,
}

impl Outside {
    /// Compile every chunk geometry of the plan, pack every chunk, run ATGP
    /// at each class count, and fit and apply the c = 32 model.
    pub fn measure(
        workload: Workload,
        drivers: &Drivers,
        cube: &Cube,
        out: &SceneOut,
    ) -> Result<Self, String> {
        let chunks: Vec<_> = cube.chunks(drivers.chunking(cube)?).collect();
        let profile = workload.profile();
        let mut graphs: BTreeMap<(usize, usize, usize), (usize, usize)> = BTreeMap::new();
        let (mut compile_s, mut passes, mut fusions) = (0.0, 0, 0);
        for chunk in &chunks {
            let d = chunk.cube.dims();
            let key = (d.width, d.height, d.bands);
            let (p, f) = match graphs.entry(key) {
                Entry::Occupied(e) => *e.get(),
                Entry::Vacant(e) => {
                    let t = Instant::now();
                    let g = drivers
                        .amc()
                        .compile_graph(&profile, d.width, d.height, d.bands, true)
                        .map_err(|e| e.to_string())?;
                    compile_s += t.elapsed().as_secs_f64();
                    *e.insert((g.passes.len(), g.fusions.len()))
                }
            };
            passes += p;
            fusions += f;
        }

        let mut bufs = Vec::new();
        let t = Instant::now();
        for chunk in &chunks {
            layout::pack_cube_into(&chunk.cube, &mut bufs);
            black_box(&bufs);
        }
        let pack_s = t.elapsed().as_secs_f64();
        drop(chunks);

        let mut atgp_s = BTreeMap::new();
        for &c in workload.class_counts() {
            let t = Instant::now();
            black_box(
                select_endmembers_atgp(cube, &out.pipeline.mei, c).map_err(|e| e.to_string())?,
            );
            atgp_s.insert(c, t.elapsed().as_secs_f64());
        }

        let (mut fit_s, mut mpix_per_s) = (0.0, 0.0);
        if let Some(tail) = out.scored_tail() {
            let t = Instant::now();
            let model = LinearMixtureModel::new(&spectra(&tail.out.endmembers))
                .map_err(|e| e.to_string())?;
            fit_s = t.elapsed().as_secs_f64();
            let bip = cube.to_interleave(Interleave::Bip);
            let t = Instant::now();
            black_box(
                model
                    .classify_cube_batched(
                        &bip,
                        AmcConfig::paper_default(ACCURACY_CLASSES).constraint,
                    )
                    .map_err(|e| e.to_string())?,
            );
            mpix_per_s = cube.dims().pixels() as f64 / 1e6 / t.elapsed().as_secs_f64();
        }
        Ok(Self {
            compile_s,
            passes,
            fusions,
            pack_s,
            atgp_s,
            fit_s,
            mpix_per_s,
        })
    }
}

/// Percent of the arm's wall that `thread` spent draining pool work
/// (`pool.worker` spans).
fn pool_busy_pct(snap: &TraceSnapshot, spans: &[analyze::SpanRec], thread: &str) -> f64 {
    let Some(arm) = spans.iter().find(|s| s.cat == "bench.arm") else {
        return 0.0;
    };
    let tids: Vec<u64> = snap
        .threads
        .iter()
        .filter(|(_, n)| n == thread)
        .map(|&(t, _)| t)
        .collect();
    let busy_ns: u64 = spans
        .iter()
        .filter(|s| s.cat == "pool.worker" && tids.contains(&s.tid))
        .map(|s| {
            s.end_ns
                .min(arm.end_ns)
                .saturating_sub(s.start_ns.max(arm.start_ns))
        })
        .sum();
    100.0 * busy_ns as f64 / (arm.end_ns - arm.start_ns).max(1) as f64
}

/// Every scene-level per-layer metric of one traced scene. Residuals are
/// explicit, so the parts sum to their whole: the six stages plus
/// `pipeline.other_s` make the pipeline wall (device-seconds on the fleet:
/// each card's stages run concurrently, so the whole there is cards ×
/// wall), selection plus batched classification plus `classify.other_s`
/// make the tail wall, and pipeline plus tail plus `scene.other_s` make the
/// scene wall.
pub fn scene_layers(
    workload: Workload,
    out: &SceneOut,
    wall_s: f64,
    snap: &TraceSnapshot,
    registry: &Snapshot,
    outside: &Outside,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let analysis = analyze::analyze(snap);
    let arm: &ArmAnalysis = analysis
        .arms
        .iter()
        .find(|a| a.name == workload.name())
        .ok_or("the traced scene has no bench.arm span")?;
    let spans = analyze::build_spans(&snap.events);
    let p = &out.pipeline;
    let sw = &p.stage_wall;
    let s = &p.stats;
    let modeled = timing::gpu_time(s, &workload.profile());
    let mut m = BTreeMap::new();

    m.insert("pipeline.wall_s", out.pipeline_wall_s);
    m.insert("pipeline.upload_s", sw.upload_s);
    m.insert("pipeline.normalize_s", sw.normalize_s);
    m.insert("pipeline.distance_s", sw.distance_s);
    m.insert("pipeline.minmax_s", sw.minmax_s);
    m.insert("pipeline.mei_s", sw.mei_s);
    m.insert("pipeline.download_s", sw.download_s);
    m.insert(
        "pipeline.other_s",
        workload.devices() as f64 * out.pipeline_wall_s - sw.total_s(),
    );
    m.insert("pipeline.chunks", p.chunks as f64);

    m.insert("graph.compile_s", outside.compile_s);
    m.insert("graph.passes", outside.passes as f64);
    m.insert("graph.fusions", outside.fusions as f64);

    m.extend(GpuCounters::from_snapshot(registry).rows(false));
    m.insert("gpu.modeled_ms", modeled.total_ms());

    m.insert("interp.instructions", s.instructions as f64);
    m.insert("interp.fragments", s.fragments as f64);
    m.insert("interp.tiles", s.tiles as f64);
    let shading_s = sw.normalize_s + sw.distance_s + sw.minmax_s + sw.mei_s;
    m.insert(
        "interp.ns_per_instr",
        shading_s * 1e9 / s.instructions.max(1) as f64,
    );
    m.insert("texcache.fetches", s.texel_fetches as f64);
    m.insert(
        "texcache.miss_pct",
        100.0 * s.cache_misses as f64 / (s.cache_hits + s.cache_misses).max(1) as f64,
    );

    m.insert("bus.bytes_up", s.bytes_uploaded as f64);
    m.insert("bus.bytes_down", s.bytes_downloaded as f64);
    m.insert(
        "bus.modeled_ms",
        (modeled.upload_s + modeled.download_s) * 1e3,
    );

    m.insert("layout.pack_s", outside.pack_s);
    m.insert(
        "layout.pack_hidden_pct",
        100.0 * arm.overlap.pack_overlap_efficiency(),
    );

    let fleet = out.fleet.as_ref();
    m.insert("fleet.steals", fleet.map_or(0.0, |f| f.steals as f64));
    m.insert(
        "fleet.load_balance",
        arm.fleet.as_ref().map_or(0.0, |f| f.load_balance()),
    );
    m.insert(
        "fleet.device_wall_max_s",
        fleet.map_or(0.0, |f| {
            f.devices.iter().map(|d| d.wall_s).fold(0.0, f64::max)
        }),
    );
    m.insert(
        "fleet.modeled_makespan_ms",
        fleet.map_or(0.0, |f| f.modeled_makespan_s * 1e3),
    );

    m.insert(
        "rayon.busy_pct.main",
        pool_busy_pct(snap, &spans, MAIN_THREAD),
    );
    m.insert(
        "rayon.busy_pct.worker1",
        pool_busy_pct(snap, &spans, WORKER_THREAD),
    );
    m.insert(
        "rayon.queue_wait_p50_us",
        registry
            .histograms
            .iter()
            .find(|(n, _)| n == "pool.queue_wait")
            .map_or(0.0, |(_, h)| h.p50_ns as f64 / 1e3),
    );

    let sum = |f: &dyn Fn(&crate::workload::Tail) -> f64| out.tails.iter().map(f).sum::<f64>();
    let tail_s = sum(&|t| t.wall_s);
    let selection_s = sum(&|t| t.breakdown.selection_s);
    let batched_s = sum(&|t| t.breakdown.classify_s);
    m.insert("classify.wall_s", tail_s);
    m.insert("classify.selection_s", selection_s);
    m.insert("classify.batched_s", batched_s);
    m.insert("classify.unmix_cpu_s", sum(&|t| t.breakdown.unmix_s));
    m.insert("classify.argmax_cpu_s", sum(&|t| t.breakdown.argmax_s));
    m.insert("classify.other_s", tail_s - selection_s - batched_s);

    for (name, c) in [
        ("endmember.atgp_s.c16", 16),
        ("endmember.atgp_s.c32", 32),
        ("endmember.atgp_s.c64", 64),
    ] {
        m.insert(name, outside.atgp_s.get(&c).copied().unwrap_or(0.0));
    }
    m.insert("unmix.fit_s", outside.fit_s);
    m.insert("unmix.mpix_per_s", outside.mpix_per_s);

    m.insert("scene.wall_s", wall_s);
    m.insert("scene.other_s", wall_s - out.pipeline_wall_s - tail_s);
    Ok(m)
}
