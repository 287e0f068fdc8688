//! Machine-readable benchmark results (`BENCH_results.json`).
//!
//! `tables -- bench [path]` runs the AMC pipeline end to end on the reduced
//! synthetic Indian Pines scene, wall-clocks each phase, and writes a JSON
//! record: host wall-clock seconds for scene generation, the GPU stream
//! pipeline and the CPU classification tail, the six-stage counter,
//! wall-clock and modeled-time breakdown, device cache hit-rates, and a
//! snapshot of the [`trace::metrics`] registry. [`to_json`] builds a
//! [`trace::json::Value`] and [`from_json`] reads one, so the document has
//! the workspace's one JSON parser and writer; keys are stable so
//! successive baselines diff cleanly.
//!
//! The document carries a `schema_version` and [`from_json`] refuses any
//! other version, so downstream consumers (the CI bench-smoke comparison)
//! fail loudly on schema drift instead of silently reading defaults.
//! [`from_json`] ∘ [`to_json`] is the identity on the serialized form:
//! derived fields (modeled milliseconds, skew ratios, hit-rates, the
//! optimizer rollup) are recomputed from the parsed inputs, and every
//! input field round-trips bit-stably (times at the writer's fixed
//! 6-decimal precision, counters as exact integers).
//!
//! Since schema 3 the document also carries an `opt` block: the
//! [`opt_rollup`] of the shader optimizer over the six AMC kernels
//! (per-kernel raw vs optimized instruction counts, dynamically shaded
//! instruction totals, eliminated-op counters, modeled-ms deltas) plus a
//! small measured A/B microbench (optimizer off vs on).
//!
//! Since schema 5 it carries a `fusion` block: the render-graph compiler's
//! pass-fusion attribution (committed producer→consumer inlines aggregated
//! per kernel pair, eliminated passes, static normalize+distance texel
//! fetches per fragment fused vs unfused) plus a measured unfused-oracle
//! arm (`GpuAmc::set_fusion(false)`) whose stage counters anchor the
//! ≥ 30% fetch-reduction gate CI enforces.
//!
//! Since schema 6 it carries a `fleet` block: the multi-device sharding
//! scaling curve ([`amc_core::fleet::DeviceFleet`]) over a fixed set of
//! fleet shapes (always 1× and 2× GeForce 7800 GTX, plus any `--devices`
//! shape), with per-device rows recording the placement model's initial
//! assignment vs the chunks actually executed, steal counts, and modeled
//! vs measured seconds. The modeled 2×7800GTX speedup over the single
//! device anchors the ≥ 1.8× scaling gate CI enforces. The fleet arms run
//! the same fused render graph as the headline arm.

use amc_core::fleet::DeviceFleet;
use amc_core::graph::CompiledGraph;
use amc_core::kernels;
use amc_core::pipeline::{GpuAmc, KernelMode, PipelineOutput, StageStats, StageWall};
use gpu_sim::counters::PassStats;
use gpu_sim::device::GpuProfile;
use gpu_sim::gpu::Gpu;
use gpu_sim::opt::OptCounters;
use gpu_sim::raster::TexCoordSet;
use gpu_sim::timing;
use hsi::classify::{AmcClassifier, AmcConfig, TailBreakdown};
use hsi_scene::library::indian_pines_classes;
use hsi_scene::scene::{generate, SceneConfig};
use std::time::Instant;
use trace::analyze::{
    ArmAnalysis, CriticalPath, DeviceLoad, FleetBalance, OverlapStats, ThreadUtil, TraceAnalysis,
};
use trace::json::{self, Error, Value};
use trace::json_object;
use trace::metrics::{HistBucket, HistSummary, Snapshot};

/// Version of the `BENCH_results.json` document layout. Bump when keys are
/// added, removed or change meaning; [`from_json`] rejects mismatches.
/// Version 3 added the `opt` block (optimizer rollup + ISA microbench).
/// Version 4 added `kernel_mode` (the headline bench now runs the ISA
/// path) and made `wall_over_modeled` `null` when the modeled time is zero
/// instead of a misleading `0.0`.
/// Version 5 added the `fusion` block (render-graph pass-fusion
/// attribution and the measured unfused-oracle arm).
/// Version 6 added the `fleet` block (multi-device scaling shapes with
/// per-device placement, steal and timing rows).
/// Version 7 added the `analysis` block (the in-process trace analyzer's
/// per-arm critical-path, utilization and overlap summaries) and exported
/// histogram bucket boundaries in the `metrics` block.
pub const SCHEMA_VERSION: u64 = 7;

/// Device-cache effectiveness counters read off the [`Gpu`] after a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GpuCacheCounters {
    /// Full dataflow verifications executed (verification-cache misses).
    pub verify_runs: u64,
    /// Passes whose verification came from the cache.
    pub verify_cache_hits: u64,
    /// Program lowerings executed (lowering-cache misses).
    pub lower_runs: u64,
    /// ISA passes whose lowering came from the cache.
    pub lower_cache_hits: u64,
    /// Texture allocations served from the release pool.
    pub pool_hits: u64,
    /// Real texture allocations performed.
    pub texture_allocs: u64,
}

impl GpuCacheCounters {
    /// Read the counters from a device.
    pub fn from_gpu(gpu: &Gpu) -> Self {
        Self {
            verify_runs: gpu.verifications(),
            verify_cache_hits: gpu.verify_cache_hits(),
            lower_runs: gpu.lowerings(),
            lower_cache_hits: gpu.lower_cache_hits(),
            pool_hits: gpu.pool_hits(),
            texture_allocs: gpu.texture_allocs(),
        }
    }

    fn rate(hits: u64, misses: u64) -> f64 {
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    }

    /// Verification-cache hit rate in `[0, 1]`.
    pub fn verify_hit_rate(&self) -> f64 {
        Self::rate(self.verify_cache_hits, self.verify_runs)
    }

    /// Lowering-cache hit rate in `[0, 1]`.
    pub fn lower_hit_rate(&self) -> f64 {
        Self::rate(self.lower_cache_hits, self.lower_runs)
    }

    /// Texture-pool hit rate in `[0, 1]`.
    pub fn pool_hit_rate(&self) -> f64 {
        Self::rate(self.pool_hits, self.texture_allocs)
    }
}

/// One timed benchmark run.
#[derive(Debug, Clone)]
pub struct BenchRun {
    /// Scene seed.
    pub seed: u64,
    /// Worker threads the executor used ([`rayon::max_threads`]).
    pub threads: usize,
    /// Scene dimensions `(width, height, bands)`.
    pub dims: (usize, usize, usize),
    /// Wall-clock seconds generating the synthetic scene.
    pub scene_s: f64,
    /// Wall-clock seconds for the GPU stream pipeline (MEI computation).
    pub gpu_pipeline_s: f64,
    /// Wall-clock seconds for the CPU tail (endmembers + classification).
    pub cpu_tail_s: f64,
    /// Stage breakdown of the CPU tail (selection/unmix/classify/argmax).
    pub tail: TailBreakdown,
    /// Chunks the pipeline split the scene into.
    pub chunks: usize,
    /// Endmembers extracted.
    pub endmembers: usize,
    /// Per-stage simulator counters.
    pub stages: StageStats,
    /// Measured host wall-clock per pipeline stage.
    pub stage_wall: StageWall,
    /// Device cache effectiveness counters.
    pub gpu_caches: GpuCacheCounters,
    /// Snapshot of the metrics registry taken after the run.
    pub metrics: Snapshot,
    /// Measured wall seconds of the kernel microbench with the shader
    /// optimizer disabled (`Gpu::set_optimizer(false)`).
    pub opt_wall_raw_s: f64,
    /// Measured wall seconds of the same microbench with the optimizer on
    /// (the default lowering path).
    pub opt_wall_opt_s: f64,
    /// Which kernel form the benchmark executed: [`KernelMode::Isa`], the
    /// only one — the path the verifier, optimizer and batched executor
    /// exercise.
    pub kernel_mode: KernelMode,
    /// Render-graph fusion attribution plus the measured unfused arm.
    pub fusion: FusionReport,
    /// Multi-device sharding scaling curve (the schema-6 `fleet` block).
    pub fleet: FleetReport,
    /// Trace-analyzer summaries per bench arm (the schema-7 `analysis`
    /// block): critical path, utilization, pack overlap, fleet balance.
    pub analysis: TraceAnalysis,
}

impl BenchRun {
    /// End-to-end wall-clock (scene generation excluded — it is input
    /// preparation, not AMC).
    pub fn amc_wall_s(&self) -> f64 {
        self.gpu_pipeline_s + self.cpu_tail_s
    }
}

// ---------------------------------------------------------------------------
// Optimizer rollup (the `opt` block)
// ---------------------------------------------------------------------------

/// One AMC kernel's row in the optimizer rollup: static instruction counts
/// from [`kernels::stage_cases`] and the optimizer, dynamic pass/fragment
/// counts attributed back from the run's per-stage [`PassStats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OptKernelRow {
    /// Kernel name (`Program::name`).
    pub name: String,
    /// Assembled (raw, Cg-shaped) instruction count.
    pub raw_instructions: u64,
    /// Instruction count after [`gpu_sim::optimize`].
    pub opt_instructions: u64,
    /// Render passes this kernel executed during the run.
    pub passes: u64,
    /// Fragments this kernel shaded during the run.
    pub fragments: u64,
}

impl OptKernelRow {
    /// Dynamically shaded instructions had the raw program been lowered.
    pub fn dynamic_raw(&self) -> u64 {
        self.fragments * self.raw_instructions
    }

    /// Dynamically shaded instructions under the optimized program.
    pub fn dynamic_opt(&self) -> u64 {
        self.fragments * self.opt_instructions
    }

    /// Percentage of dynamic instructions the optimizer removed.
    pub fn reduction_pct(&self) -> f64 {
        if self.raw_instructions == 0 {
            0.0
        } else {
            100.0 * (1.0 - self.opt_instructions as f64 / self.raw_instructions as f64)
        }
    }
}

/// Per-kernel and summed optimizer effect over the six AMC kernels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OptRollup {
    /// One row per AMC kernel, in pipeline order.
    pub kernels: Vec<OptKernelRow>,
    /// Eliminated-op counters summed over the six static optimizer runs.
    pub counters: OptCounters,
}

impl OptRollup {
    /// Total dynamically shaded instructions without the optimizer.
    pub fn dynamic_raw(&self) -> u64 {
        self.kernels.iter().map(OptKernelRow::dynamic_raw).sum()
    }

    /// Total dynamically shaded instructions with the optimizer.
    pub fn dynamic_opt(&self) -> u64 {
        self.kernels.iter().map(OptKernelRow::dynamic_opt).sum()
    }

    /// Percentage of total dynamic instructions removed (the ≥10% headline).
    pub fn reduction_pct(&self) -> f64 {
        if self.dynamic_raw() == 0 {
            0.0
        } else {
            100.0 * (1.0 - self.dynamic_opt() as f64 / self.dynamic_raw() as f64)
        }
    }
}

/// Build the optimizer rollup for a run.
///
/// Static counts come from optimizing the checked-in kernels under their
/// pipeline bindings. Dynamic pass/fragment counts are attributed from the
/// per-stage counters exactly: the `normalize` stage interleaves `band_sum`
/// and `normalize` with equal pass counts and equal fragments per pass
/// (a 50/50 split); `minmax` runs one `minmax_init` pass per chunk and
/// `p_B − 1` `minmax_update` passes, all over the same chunk quad, so the
/// init share is `1/p_B` with `p_B = minmax.passes / chunks`; `distance`
/// and `mei` each run a single kernel. The attribution is derived — it is
/// recomputed, not parsed, on a [`from_json`] round trip.
pub fn opt_rollup(run: &BenchRun) -> OptRollup {
    let s = &run.stages;
    let chunks = run.chunks as u64;
    let p_b = s.minmax.passes.checked_div(chunks).unwrap_or(0);
    let (init_passes, init_frags) = match s.minmax.fragments.checked_div(p_b) {
        Some(f) => (chunks, f),
        None => (0, 0),
    };
    let splits: [(u64, u64); 6] = [
        (s.normalize.passes / 2, s.normalize.fragments / 2),
        (s.normalize.passes / 2, s.normalize.fragments / 2),
        (s.distance.passes, s.distance.fragments),
        (init_passes, init_frags),
        (
            s.minmax.passes - init_passes,
            s.minmax.fragments - init_frags,
        ),
        (s.mei.passes, s.mei.fragments),
    ];
    let mut counters = OptCounters::default();
    let mut rows = Vec::with_capacity(6);
    for ((program, bindings), (passes, fragments)) in kernels::stage_cases().into_iter().zip(splits)
    {
        let (optimized, report) = gpu_sim::optimize(&program, &bindings);
        counters.add(&report.counters);
        rows.push(OptKernelRow {
            name: program.name.clone(),
            raw_instructions: program.len() as u64,
            opt_instructions: optimized.len() as u64,
            passes,
            fragments,
        });
    }
    OptRollup {
        kernels: rows,
        counters,
    }
}

// ---------------------------------------------------------------------------
// Fusion attribution (the `fusion` block, schema 5)
// ---------------------------------------------------------------------------

/// One aggregated family of committed producer→consumer inlines: every
/// [`amc_core::graph::FusionRecord`] with the same kernel pair and
/// coordinate mode, with sites and per-fragment fetch counts summed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FusionPairRow {
    /// Kernel whose body was inlined.
    pub producer_kernel: String,
    /// Kernel that absorbed it.
    pub consumer_kernel: String,
    /// Coordinate reconciliation (`substitute-site-coord` or
    /// `keep-producer-coords`).
    pub mode: String,
    /// Commits in this family.
    pub count: u64,
    /// `TEX` sites replaced, summed.
    pub sites: u64,
    /// Per-fragment fetches of the separate passes, summed.
    pub fetches_before: u64,
    /// Per-fragment fetches of the fused programs, summed.
    pub fetches_after: u64,
}

/// The schema-5 `fusion` block: static compiler attribution at the scene
/// geometry plus the measured unfused-oracle arm.
#[derive(Debug, Clone, PartialEq)]
pub struct FusionReport {
    /// Whether the headline run executed the fused schedule.
    pub enabled: bool,
    /// Committed fusions aggregated per (producer, consumer, mode).
    pub pairs: Vec<FusionPairRow>,
    /// Passes dead-pass elimination removed from the fused schedule.
    pub eliminated_passes: u64,
    /// Scheduled passes in the fused compile.
    pub fused_passes: u64,
    /// Scheduled passes in the unfused compile.
    pub unfused_passes: u64,
    /// Static normalize+distance texel fetches per fragment, fused.
    pub fused_fetches_per_fragment: u64,
    /// Static normalize+distance texel fetches per fragment, unfused.
    pub unfused_fetches_per_fragment: u64,
    /// Pool reuses that skipped their zero fill during the headline run
    /// (the compiler proved every texel overwritten before read).
    pub zero_fill_skips: u64,
    /// Measured normalize-stage texel fetches of the unfused-oracle arm.
    pub unfused_normalize_texel_fetches: u64,
    /// Measured distance-stage texel fetches of the unfused-oracle arm.
    pub unfused_distance_texel_fetches: u64,
    /// Measured distance-stage wall seconds of the unfused-oracle arm.
    pub unfused_distance_wall_s: f64,
}

impl FusionReport {
    fn reduction(fused: u64, unfused: u64) -> f64 {
        if unfused == 0 {
            0.0
        } else {
            100.0 * (1.0 - fused as f64 / unfused as f64)
        }
    }

    /// Percentage of static normalize+distance fetches per fragment that
    /// fusion removed (the ≥ 30% CI gate).
    pub fn static_fetch_reduction_pct(&self) -> f64 {
        Self::reduction(
            self.fused_fetches_per_fragment,
            self.unfused_fetches_per_fragment,
        )
    }

    /// Percentage of measured normalize+distance texel fetches the fused
    /// run saved against the unfused-oracle arm.
    pub fn measured_fetch_reduction_pct(&self, fused_norm_dist_fetches: u64) -> f64 {
        Self::reduction(
            fused_norm_dist_fetches,
            self.unfused_normalize_texel_fetches + self.unfused_distance_texel_fetches,
        )
    }
}

fn norm_dist_fetches(c: &CompiledGraph) -> u64 {
    (c.stage_fetches_per_fragment("normalize") + c.stage_fetches_per_fragment("distance")) as u64
}

/// Build the fusion attribution for a run. The static side compiles the
/// AMC graph at the full scene geometry — the pass/fetch structure depends
/// only on the band count and the structuring element, so it attributes the
/// chunked execution exactly — and the measured side reads the counters of
/// the unfused-oracle arm run alongside the benchmark.
pub fn fusion_report(
    amc: &GpuAmc,
    dims: (usize, usize, usize),
    zero_fill_skips: u64,
    unfused_arm: &PipelineOutput,
) -> FusionReport {
    let profile = GpuProfile::geforce_7800gtx();
    let fused = amc
        .compile_graph(&profile, dims.0, dims.1, dims.2, true)
        .expect("fused AMC graph compiles");
    let unfused = amc
        .compile_graph(&profile, dims.0, dims.1, dims.2, false)
        .expect("unfused AMC graph compiles");
    let mut pairs: Vec<FusionPairRow> = Vec::new();
    for f in &fused.fusions {
        let mode = f.mode.as_str();
        match pairs.iter_mut().find(|p| {
            p.producer_kernel == f.kernels.0 && p.consumer_kernel == f.kernels.1 && p.mode == mode
        }) {
            Some(row) => {
                row.count += 1;
                row.sites += f.sites as u64;
                row.fetches_before += f.fetches_before as u64;
                row.fetches_after += f.fetches_after as u64;
            }
            None => pairs.push(FusionPairRow {
                producer_kernel: f.kernels.0.clone(),
                consumer_kernel: f.kernels.1.clone(),
                mode: mode.to_owned(),
                count: 1,
                sites: f.sites as u64,
                fetches_before: f.fetches_before as u64,
                fetches_after: f.fetches_after as u64,
            }),
        }
    }
    FusionReport {
        enabled: amc.fusion(),
        pairs,
        eliminated_passes: fused.eliminated.len() as u64,
        fused_passes: fused.passes.len() as u64,
        unfused_passes: unfused.passes.len() as u64,
        fused_fetches_per_fragment: norm_dist_fetches(&fused),
        unfused_fetches_per_fragment: norm_dist_fetches(&unfused),
        zero_fill_skips,
        unfused_normalize_texel_fetches: unfused_arm.stages.normalize.texel_fetches,
        unfused_distance_texel_fetches: unfused_arm.stages.distance.texel_fetches,
        unfused_distance_wall_s: unfused_arm.stage_wall.distance_s,
    }
}

// ---------------------------------------------------------------------------
// Fleet scaling (the `fleet` block, schema 6)
// ---------------------------------------------------------------------------

/// One device's row inside a fleet shape run: the placement model's
/// initial assignment vs what the work-stealing dispatcher actually
/// executed, plus modeled and measured seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetDeviceRow {
    /// Device short name (`GpuProfile::short_name`).
    pub device: String,
    /// Chunk indices the placement model assigned up front.
    pub planned: Vec<u64>,
    /// Chunk indices executed, in execution order.
    pub executed: Vec<u64>,
    /// Chunks this device stole from other queues.
    pub steals: u64,
    /// Modeled busy seconds for the executed chunks.
    pub modeled_s: f64,
    /// Measured host wall seconds of this device's dispatch loop.
    pub wall_s: f64,
}

/// One fleet shape's run over the shared chunk plan.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetShapeRun {
    /// Shape name: device short names joined with `+`.
    pub name: String,
    /// Per-device rows, in fleet order.
    pub devices: Vec<FleetDeviceRow>,
    /// Chunks in the shared plan.
    pub chunks: u64,
    /// Total chunks that moved between queues.
    pub steals: u64,
    /// Modeled fleet makespan (slowest device's modeled busy time).
    pub modeled_makespan_s: f64,
    /// Measured host wall seconds of the parallel dispatch phase.
    pub wall_s: f64,
}

/// The schema-6 `fleet` block: one shared chunk plan, a single-device
/// modeled baseline, and one [`FleetShapeRun`] per fleet shape.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Body lines per chunk of the shared (fleet-shape-independent) plan.
    pub lines_per_chunk: u64,
    /// Halo lines per chunk side.
    pub halo: u64,
    /// Short name of the baseline device.
    pub baseline_device: String,
    /// Modeled seconds one baseline device needs for the whole plan
    /// (uncontended bus) — the denominator of every shape's speedup.
    pub baseline_modeled_s: f64,
    /// One run per fleet shape, in execution order.
    pub shapes: Vec<FleetShapeRun>,
}

impl FleetShapeRun {
    /// Modeled speedup over the single-baseline-device time. Derived — it
    /// is recomputed, not parsed, on a [`from_json`] round trip.
    pub fn modeled_speedup(&self, baseline_s: f64) -> f64 {
        if self.modeled_makespan_s > 0.0 {
            baseline_s / self.modeled_makespan_s
        } else {
            0.0
        }
    }
}

/// Name a fleet shape: device short names joined with `+`.
fn shape_name(profiles: &[GpuProfile]) -> String {
    profiles
        .iter()
        .map(|p| p.short_name())
        .collect::<Vec<_>>()
        .join("+")
}

/// Execute the fleet scaling arms and build the `fleet` block. Always runs
/// 1× and 2× GeForce 7800 GTX (the scaling headline CI gates on), plus
/// `extra` when it names a distinct shape. Every shape shares one chunk
/// plan, so the merged outputs — bit-identical across shapes by the fleet
/// executor's determinism guarantee — are also identical to each other.
pub fn fleet_report(
    cube: &hsi::cube::Cube,
    amc: &GpuAmc,
    extra: Option<&[GpuProfile]>,
) -> FleetReport {
    let baseline = GpuProfile::geforce_7800gtx();
    let mut shapes: Vec<Vec<GpuProfile>> = vec![
        vec![baseline.clone()],
        vec![baseline.clone(), baseline.clone()],
    ];
    if let Some(extra) = extra {
        if !extra.is_empty() && !shapes.iter().any(|s| s.as_slice() == extra) {
            shapes.push(extra.to_vec());
        }
    }
    // One plan for every shape: derived from the union of profiles, whose
    // minimum video memory governs — identical to each shape's own plan
    // whenever the memory sizes agree (they do for the paper's devices).
    let all: Vec<GpuProfile> = shapes.iter().flatten().cloned().collect();
    let chunking = DeviceFleet::new(all)
        .plan_chunking(amc, cube)
        .expect("fleet chunk plan");
    let baseline_modeled_s = DeviceFleet::modeled_single_device_s(amc, cube, chunking, &baseline);
    let runs = shapes
        .into_iter()
        .map(|profiles| {
            let name = shape_name(&profiles);
            eprintln!("[bench] fleet shape {name}...");
            let out = {
                let _arm = trace::span("bench.arm", &format!("fleet:{name}"));
                DeviceFleet::new(profiles).run_with_chunking(amc, cube, chunking)
            }
            .expect("fleet run");
            FleetShapeRun {
                name,
                devices: out
                    .devices
                    .iter()
                    .map(|d| FleetDeviceRow {
                        device: d.profile.short_name().to_owned(),
                        planned: d.planned.iter().map(|&i| i as u64).collect(),
                        executed: d.executed.iter().map(|&i| i as u64).collect(),
                        steals: d.steals,
                        modeled_s: d.modeled_s,
                        wall_s: d.wall_s,
                    })
                    .collect(),
                chunks: out.pipeline.chunks as u64,
                steals: out.steals,
                modeled_makespan_s: out.modeled_makespan_s,
                wall_s: out.wall_s,
            }
        })
        .collect();
    FleetReport {
        lines_per_chunk: chunking.lines_per_chunk as u64,
        halo: chunking.halo as u64,
        baseline_device: baseline.short_name().to_owned(),
        baseline_modeled_s,
        shapes: runs,
    }
}

/// Wall-clock the ISA lowering path with the optimizer off, then on: every
/// AMC kernel shades a 96×96 quad for a few passes on a cold device per
/// arm, so the measured delta is the per-fragment interpreter cost of the
/// instructions the optimizer removes (plus one optimizer run per kernel,
/// amortized across the passes exactly as the lowering cache amortizes it).
fn isa_microbench() -> (f64, f64) {
    const SIZE: usize = 96;
    const REPS: usize = 8;
    let time_arm = |optimize: bool| -> f64 {
        let mut gpu = Gpu::new(GpuProfile::geforce_7800gtx());
        gpu.set_optimizer(optimize);
        let t = Instant::now();
        for (program, bindings) in kernels::stage_cases() {
            let inputs: Vec<_> = (0..bindings.samplers)
                .map(|_| {
                    let id = gpu.alloc_texture(SIZE, SIZE).expect("microbench input");
                    gpu.upload(id, &vec![0.25f32; SIZE * SIZE * 4])
                        .expect("microbench upload");
                    id
                })
                .collect();
            let target = gpu.alloc_texture(SIZE, SIZE).expect("microbench target");
            let constants: Vec<_> = bindings
                .constants
                .iter()
                .map(|&idx| (idx, [0.5f32, 0.25, 0.75, 1.0]))
                .collect();
            let texcoords = vec![TexCoordSet::identity(); bindings.texcoord_sets];
            for _ in 0..REPS {
                gpu.run_pass(&program, &inputs, &constants, &texcoords, target, None)
                    .expect("microbench pass");
            }
        }
        t.elapsed().as_secs_f64()
    };
    (time_arm(false), time_arm(true))
}

/// Execute the end-to-end benchmark once. The metrics registry is reset
/// first so the emitted `metrics` block covers exactly this run.
pub fn run_benchmark(seed: u64) -> BenchRun {
    run_benchmark_with_devices(seed, None)
}

/// [`run_benchmark`] with an extra fleet shape from `--devices` appended to
/// the standard 1×/2× 7800 GTX scaling arms.
pub fn run_benchmark_with_devices(seed: u64, extra_shape: Option<&[GpuProfile]>) -> BenchRun {
    trace::metrics::reset();
    // The analyzer needs the span stream, so tracing is forced on for the
    // benchmark. The prior state is restored afterwards; the sink is left
    // intact (not drained) so a later `--trace` export still sees the run.
    let was_tracing = trace::enabled();
    trace::enable();
    trace::reset();
    let classes = indian_pines_classes();
    let t = Instant::now();
    let scene = generate(&classes, &SceneConfig::reduced_indian_pines(seed));
    let scene_s = t.elapsed().as_secs_f64();
    let dims = scene.cube.dims();

    let config = AmcConfig::paper_default(classes.len());
    let kernel_mode = KernelMode::Isa;
    let amc = GpuAmc::new(config.se.clone(), kernel_mode);
    let mut gpu = Gpu::new(GpuProfile::geforce_7800gtx());
    let classifier = AmcClassifier::new(config);
    let hybrid = {
        let _arm = trace::span("bench.arm", "headline");
        amc.run_and_classify(&mut gpu, &scene.cube, &classifier)
    }
    .expect("hybrid AMC run");
    // Snapshot before the microbench so the metrics block covers exactly
    // the end-to-end run; the A/B arms below would otherwise pollute it.
    let metrics = trace::metrics::snapshot();
    let zero_fill_skips = gpu.zero_fill_skips();
    let (opt_wall_raw_s, opt_wall_opt_s) = isa_microbench();
    // The unfused-oracle arm: same pipeline,
    // same scene, fresh device, fusion pinned off — its stage counters
    // anchor the measured fetch-reduction attribution.
    let mut amc_unfused = GpuAmc::new(amc.se().clone(), kernel_mode);
    amc_unfused.set_fusion(false);
    let mut gpu_unfused = Gpu::new(GpuProfile::geforce_7800gtx());
    let unfused_arm = {
        let _arm = trace::span("bench.arm", "unfused_oracle");
        amc_unfused.run(&mut gpu_unfused, &scene.cube)
    }
    .expect("unfused oracle run");
    let fusion = fusion_report(
        &amc,
        (dims.width, dims.height, dims.bands),
        zero_fill_skips,
        &unfused_arm,
    );
    // Fleet scaling arms on the headline's fused graph; the speedup gate
    // is on modeled time.
    let fleet = fleet_report(&scene.cube, &amc, extra_shape);

    let analysis = trace::analyze::analyze(&trace::snapshot_events());
    if !was_tracing {
        trace::disable();
    }

    BenchRun {
        seed,
        threads: rayon::max_threads(),
        dims: (dims.width, dims.height, dims.bands),
        scene_s,
        gpu_pipeline_s: hybrid.gpu_wall_s,
        cpu_tail_s: hybrid.tail_wall_s,
        tail: hybrid.tail,
        chunks: hybrid.pipeline.chunks,
        endmembers: hybrid.classification.class_count(),
        stages: hybrid.pipeline.stages,
        stage_wall: hybrid.pipeline.stage_wall,
        gpu_caches: GpuCacheCounters::from_gpu(&gpu),
        metrics,
        opt_wall_raw_s,
        opt_wall_opt_s,
        kernel_mode,
        fusion,
        fleet,
        analysis,
    }
}

/// The value a float reads back as once written. Derived values (sums,
/// ratios) are computed from rounded operands so the document is a fixed
/// point of parse → re-serialize.
fn r6(x: f64) -> f64 {
    json::as_written(x)
}

/// [`PassStats`] members in document order.
fn pass_fields(s: &mut PassStats) -> [(&'static str, &mut u64); 10] {
    [
        ("passes", &mut s.passes),
        ("fragments", &mut s.fragments),
        ("instructions", &mut s.instructions),
        ("texel_fetches", &mut s.texel_fetches),
        ("cache_hits", &mut s.cache_hits),
        ("cache_misses", &mut s.cache_misses),
        ("tiles", &mut s.tiles),
        ("bytes_written", &mut s.bytes_written),
        ("bytes_uploaded", &mut s.bytes_uploaded),
        ("bytes_downloaded", &mut s.bytes_downloaded),
    ]
}

fn stage_json(name: &str, mut s: PassStats, wall_s: f64, profile: &GpuProfile) -> Value {
    let modeled_ms = timing::gpu_time(&s, profile).total_ms();
    // Measured-over-modeled skew: >1000 means a modeled millisecond costs
    // more than a host second to simulate. A stage with no modeled time
    // (e.g. upload or download on configs that skip it) has no meaningful
    // ratio: `null`, never a `0.0` that reads as "perfectly modeled".
    let skew = (modeled_ms > 0.0).then(|| r6(wall_s) * 1e3 / modeled_ms);
    let mut members = vec![("stage".to_owned(), name.into())];
    members.extend(pass_fields(&mut s).map(|(k, v)| (k.to_owned(), Value::from(*v))));
    members.extend([
        ("wall_s".to_owned(), wall_s.into()),
        ("modeled_ms".to_owned(), modeled_ms.into()),
        ("wall_over_modeled".to_owned(), skew.into()),
    ]);
    Value::Object(members)
}

/// One `analysis` arm. The critical-path share, pack-overlap efficiency,
/// utilizations and load balance are derived from the rounded operands, so
/// a round trip recomputes them identically.
fn arm_json(arm: &ArmAnalysis) -> Value {
    let (cp, ov) = (&arm.critical_path, &arm.overlap);
    let share_of = |part_s: f64, whole_s: f64, empty: f64| {
        let whole = r6(whole_s);
        if whole > 0.0 {
            (r6(part_s) / whole).clamp(0.0, 1.0)
        } else {
            empty
        }
    };
    let rounded_overlap = OverlapStats {
        pack_total_s: r6(ov.pack_total_s),
        pack_hidden_s: r6(ov.pack_hidden_s),
        ..*ov
    };
    let fleet = arm.fleet.as_ref().map(|f| {
        let devices = f.devices.iter().map(|d| DeviceLoad {
            busy_s: r6(d.busy_s),
            ..d.clone()
        });
        let rounded = FleetBalance {
            devices: devices.collect(),
            ..f.clone()
        };
        json_object! {
            "makespan_s": f.makespan_s,
            "steals": f.steals,
            "load_balance": rounded.load_balance(),
            "devices": f.devices.iter().map(|d| json_object! {
                "device": d.device,
                "label": d.label.as_str(),
                "chunks": d.chunks,
                "stolen": d.stolen,
                "busy_s": d.busy_s,
                "utilization": share_of(d.busy_s, f.makespan_s, 0.0),
            }).collect::<Value>(),
        }
    });
    json_object! {
        "name": arm.name.as_str(),
        "wall_s": arm.wall_s,
        "critical_path_s": cp.total_s,
        "critical_path_nodes": cp.nodes,
        "critical_path_share": share_of(cp.total_s, arm.wall_s, 1.0),
        "critical_path_stages": cp.stages.iter().map(|(stage, self_s)| json_object! {
            "stage": stage.as_str(), "self_s": *self_s,
        }).collect::<Value>(),
        "pack": json_object! {
            "total_s": ov.pack_total_s,
            "hidden_s": ov.pack_hidden_s,
            "overlap_efficiency": rounded_overlap.pack_overlap_efficiency(),
        },
        "bus": json_object! {"busy_s": ov.bus_busy_s, "contended_s": ov.bus_contended_s},
        "threads": arm.threads.iter().map(|t| json_object! {
            "name": t.name.as_str(),
            "busy_s": t.busy_s,
            "utilization": share_of(t.busy_s, arm.wall_s, 0.0),
        }).collect::<Value>(),
        "fleet": fleet,
    }
}

/// Render a [`BenchRun`] as the `BENCH_results.json` document.
pub fn to_json(run: &BenchRun) -> String {
    let profile = GpuProfile::geforce_7800gtx();
    let s = &run.stages;
    let total = s.total();
    let stage_stats = [
        s.upload,
        s.normalize,
        s.distance,
        s.minmax,
        s.mei,
        s.download,
    ];
    let stages = (run.stage_wall.as_named().into_iter().zip(stage_stats))
        .map(|((name, wall_s), stats)| stage_json(name, stats, wall_s, &profile));
    // Optimizer rollup: per-kernel static counts are constants of the tree,
    // dynamic attributions derive from the stage counters above, and only
    // the microbench walls are measured inputs.
    let rollup = opt_rollup(run);
    // Modeled kernel time had the raw programs been shaded: the run's
    // instruction total plus exactly the instructions the optimizer removed.
    let mut raw_total = total;
    raw_total.instructions = total.instructions + (rollup.dynamic_raw() - rollup.dynamic_opt());
    let eliminated = rollup
        .counters
        .entries()
        .map(|(k, n)| (k.to_owned(), n.into()));
    let (f, fl, c, m, t) = (
        &run.fusion,
        &run.fleet,
        &run.gpu_caches,
        &run.metrics,
        &run.tail,
    );
    json::write(&json_object! {
        "schema_version": SCHEMA_VERSION,
        "benchmark": "amc_end_to_end",
        "kernel_mode": run.kernel_mode.as_str(),
        "seed": run.seed,
        "threads": run.threads,
        "scene": json_object! {"width": run.dims.0, "height": run.dims.1, "bands": run.dims.2},
        "scene_generation_s": run.scene_s,
        "gpu_pipeline_wall_s": run.gpu_pipeline_s,
        "cpu_tail_wall_s": run.cpu_tail_s,
        // Tail stage breakdown mirroring the GPU `stages` array. selection_s
        // and classify_s are wall clock; unmix_s and argmax_s are
        // worker-summed CPU seconds from the batched kernels (equal to wall
        // at threads=1).
        "cpu_tail_stages": json_object! {
            "selection_s": t.selection_s,
            "unmix_s": t.unmix_s,
            "classify_s": t.classify_s,
            "argmax_s": t.argmax_s,
        },
        "amc_wall_s": r6(run.gpu_pipeline_s) + r6(run.cpu_tail_s),
        "chunks": run.chunks,
        "endmembers": run.endmembers,
        "modeled_kernel_ms_7800gtx": timing::gpu_time(&total, &profile).kernel_ms(),
        "stages": stages.collect::<Value>(),
        "opt": json_object! {
            "kernels": rollup.kernels.iter().map(|k| json_object! {
                "kernel": k.name.as_str(),
                "raw_instructions": k.raw_instructions,
                "opt_instructions": k.opt_instructions,
                "passes": k.passes,
                "fragments": k.fragments,
                "dynamic_raw": k.dynamic_raw(),
                "dynamic_opt": k.dynamic_opt(),
                "reduction_pct": k.reduction_pct(),
            }).collect::<Value>(),
            "dynamic_instructions_raw": rollup.dynamic_raw(),
            "dynamic_instructions_opt": rollup.dynamic_opt(),
            "dynamic_reduction_pct": rollup.reduction_pct(),
            "eliminated": Value::Object(eliminated.into()),
            "modeled_kernel_ms_raw_7800gtx": timing::gpu_time(&raw_total, &profile).kernel_ms(),
            "modeled_kernel_ms_opt_7800gtx": timing::gpu_time(&total, &profile).kernel_ms(),
            "isa_microbench": json_object! {
                "wall_raw_s": run.opt_wall_raw_s,
                "wall_opt_s": run.opt_wall_opt_s,
            },
        },
        // Fusion attribution: both reduction percentages are derived.
        "fusion": json_object! {
            "enabled": f.enabled,
            "pairs": f.pairs.iter().map(|p| json_object! {
                "producer_kernel": p.producer_kernel.as_str(),
                "consumer_kernel": p.consumer_kernel.as_str(),
                "mode": p.mode.as_str(),
                "count": p.count,
                "sites": p.sites,
                "fetches_before": p.fetches_before,
                "fetches_after": p.fetches_after,
            }).collect::<Value>(),
            "eliminated_passes": f.eliminated_passes,
            "fused_passes": f.fused_passes,
            "unfused_passes": f.unfused_passes,
            "normalize_distance_fetches_per_fragment": json_object! {
                "fused": f.fused_fetches_per_fragment,
                "unfused": f.unfused_fetches_per_fragment,
            },
            "static_fetch_reduction_pct": f.static_fetch_reduction_pct(),
            "zero_fill_skips": f.zero_fill_skips,
            "unfused_arm": json_object! {
                "normalize_texel_fetches": f.unfused_normalize_texel_fetches,
                "distance_texel_fetches": f.unfused_distance_texel_fetches,
                "distance_wall_s": f.unfused_distance_wall_s,
            },
            "measured_fetch_reduction_pct": f.measured_fetch_reduction_pct(
                s.normalize.texel_fetches + s.distance.texel_fetches,
            ),
        },
        // Fleet scaling: every `modeled_speedup` is derived from the rounded
        // baseline and makespan.
        "fleet": json_object! {
            "chunking": json_object! {"lines_per_chunk": fl.lines_per_chunk, "halo": fl.halo},
            "baseline_device": fl.baseline_device.as_str(),
            "baseline_modeled_s": fl.baseline_modeled_s,
            "shapes": fl.shapes.iter().map(|shape| json_object! {
                "name": shape.name.as_str(),
                "chunks": shape.chunks,
                "steals": shape.steals,
                "modeled_makespan_s": shape.modeled_makespan_s,
                "modeled_speedup": FleetShapeRun {
                    modeled_makespan_s: r6(shape.modeled_makespan_s),
                    ..shape.clone()
                }
                .modeled_speedup(r6(fl.baseline_modeled_s)),
                "wall_s": shape.wall_s,
                "devices": shape.devices.iter().map(|d| json_object! {
                    "device": d.device.as_str(),
                    "planned": d.planned.iter().map(|&i| i.into()).collect::<Value>(),
                    "executed": d.executed.iter().map(|&i| i.into()).collect::<Value>(),
                    "steals": d.steals,
                    "modeled_s": d.modeled_s,
                    "wall_s": d.wall_s,
                }).collect::<Value>(),
            }).collect::<Value>(),
        },
        "analysis": json_object! {
            "arms": run.analysis.arms.iter().map(arm_json).collect::<Value>(),
        },
        "gpu_caches": json_object! {
            "verify_runs": c.verify_runs,
            "verify_cache_hits": c.verify_cache_hits,
            "lower_runs": c.lower_runs,
            "lower_cache_hits": c.lower_cache_hits,
            "pool_hits": c.pool_hits,
            "texture_allocs": c.texture_allocs,
        },
        "metrics": json_object! {
            "cache_hit_rates": json_object! {
                "verify": c.verify_hit_rate(),
                "lower": c.lower_hit_rate(),
                "texture_pool": c.pool_hit_rate(),
            },
            "counters": m.counters.iter().map(|(name, value)| json_object! {
                "name": name.as_str(), "value": *value,
            }).collect::<Value>(),
            "histograms": m.histograms.iter().map(|(name, h)| json_object! {
                "name": name.as_str(),
                "count": h.count,
                "sum_ns": h.sum_ns,
                "p50_ns": h.p50_ns,
                "p95_ns": h.p95_ns,
                "p99_ns": h.p99_ns,
                "buckets": h.buckets.iter().map(|b| json_object! {
                    "lo_ns": b.lo_ns, "hi_ns": b.hi_ns, "count": b.count,
                }).collect::<Value>(),
            }).collect::<Value>(),
        },
    })
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// Decode every item of the array `v` with `item`.
fn list<T>(v: &Value, item: impl Fn(&Value) -> Result<T, Error>) -> Result<Vec<T>, Error> {
    v.as_array()?.iter().map(item).collect()
}

fn string(v: &Value, key: &str) -> Result<String, Error> {
    Ok(v.get(key)?.as_str()?.to_owned())
}

fn arm_from(a: &Value) -> Result<ArmAnalysis, Error> {
    let (pack, bus) = (a.get("pack")?, a.get("bus")?);
    let fleet = match a.get("fleet")? {
        Value::Null => None,
        f => Some(FleetBalance {
            makespan_s: f.get("makespan_s")?.as_f64()?,
            steals: f.get("steals")?.as_u64()?,
            devices: list(f.get("devices")?, |d| {
                Ok(DeviceLoad {
                    device: d.get("device")?.as_u64()?,
                    label: string(d, "label")?,
                    chunks: d.get("chunks")?.as_u64()?,
                    stolen: d.get("stolen")?.as_u64()?,
                    busy_s: d.get("busy_s")?.as_f64()?,
                    utilization: d.get("utilization")?.as_f64()?,
                })
            })?,
        }),
    };
    Ok(ArmAnalysis {
        name: string(a, "name")?,
        wall_s: a.get("wall_s")?.as_f64()?,
        threads: list(a.get("threads")?, |t| {
            Ok(ThreadUtil {
                // The document names threads but does not carry the
                // recorder's thread ids.
                tid: 0,
                name: string(t, "name")?,
                busy_s: t.get("busy_s")?.as_f64()?,
                utilization: t.get("utilization")?.as_f64()?,
            })
        })?,
        overlap: OverlapStats {
            pack_total_s: pack.get("total_s")?.as_f64()?,
            pack_hidden_s: pack.get("hidden_s")?.as_f64()?,
            bus_busy_s: bus.get("busy_s")?.as_f64()?,
            bus_contended_s: bus.get("contended_s")?.as_f64()?,
        },
        critical_path: CriticalPath {
            total_s: a.get("critical_path_s")?.as_f64()?,
            nodes: a.get("critical_path_nodes")?.as_u64()? as usize,
            stages: list(a.get("critical_path_stages")?, |st| {
                Ok((string(st, "stage")?, st.get("self_s")?.as_f64()?))
            })?,
        },
        fleet,
        // Schema 7 does not carry the shading ledger.
        ledger: Vec::new(),
    })
}

/// Parse a `BENCH_results.json` document back into a [`BenchRun`].
///
/// Fails with a structured error on malformed JSON, a missing key, or a
/// `schema_version` other than [`SCHEMA_VERSION`] — schema drift is a hard
/// error, never a silent default. Unknown keys are ignored, a count may be
/// written as an integral float and a time as an integer. Derived fields
/// that are not struct fields (`amc_wall_s`, `modeled_*`,
/// `wall_over_modeled`, `cache_hit_rates`, the `opt` rollup, reduction and
/// speedup ratios, `critical_path_share`, `overlap_efficiency`,
/// `load_balance`) are not read; [`to_json`] recomputes them. Analysis
/// thread rows decode with `tid` 0: the document does not carry thread ids.
pub fn from_json(text: &str) -> Result<BenchRun, Error> {
    let doc = json::parse(text)?;
    let version = doc
        .get("schema_version")
        .map_err(|e| Error::Invalid(format!("{e}: the document predates schema versioning")))?
        .as_u64()?;
    if version != SCHEMA_VERSION {
        return Err(Error::Invalid(format!(
            "schema_version {version} != supported {SCHEMA_VERSION}; \
             regenerate the document with this tree's `tables -- bench`"
        )));
    }
    let scene = doc.get("scene")?;
    let tail_obj = doc.get("cpu_tail_stages")?;
    let mut stages = StageStats::default();
    let mut stage_wall = StageWall::default();
    for entry in doc.get("stages")?.as_array()? {
        let (slot, wall_slot) = match entry.get("stage")?.as_str()? {
            "upload" => (&mut stages.upload, &mut stage_wall.upload_s),
            "normalize" => (&mut stages.normalize, &mut stage_wall.normalize_s),
            "distance" => (&mut stages.distance, &mut stage_wall.distance_s),
            "minmax" => (&mut stages.minmax, &mut stage_wall.minmax_s),
            "mei" => (&mut stages.mei, &mut stage_wall.mei_s),
            "download" => (&mut stages.download, &mut stage_wall.download_s),
            other => return Err(Error::Invalid(format!("unknown stage \"{other}\""))),
        };
        for (key, field) in pass_fields(slot) {
            *field = entry.get(key)?.as_u64()?;
        }
        *wall_slot = entry.get("wall_s")?.as_f64()?;
    }
    let caches = doc.get("gpu_caches")?;
    // Of the whole `opt` block only the measured microbench walls are
    // inputs; the rollup itself is recomputed by [`to_json`].
    let micro = doc.get("opt")?.get("isa_microbench")?;
    let fus = doc.get("fusion")?;
    let per_frag = fus.get("normalize_distance_fetches_per_fragment")?;
    let unfused_arm = fus.get("unfused_arm")?;
    let fusion = FusionReport {
        enabled: fus.get("enabled")?.as_bool()?,
        pairs: list(fus.get("pairs")?, |p| {
            Ok(FusionPairRow {
                producer_kernel: string(p, "producer_kernel")?,
                consumer_kernel: string(p, "consumer_kernel")?,
                mode: string(p, "mode")?,
                count: p.get("count")?.as_u64()?,
                sites: p.get("sites")?.as_u64()?,
                fetches_before: p.get("fetches_before")?.as_u64()?,
                fetches_after: p.get("fetches_after")?.as_u64()?,
            })
        })?,
        eliminated_passes: fus.get("eliminated_passes")?.as_u64()?,
        fused_passes: fus.get("fused_passes")?.as_u64()?,
        unfused_passes: fus.get("unfused_passes")?.as_u64()?,
        fused_fetches_per_fragment: per_frag.get("fused")?.as_u64()?,
        unfused_fetches_per_fragment: per_frag.get("unfused")?.as_u64()?,
        zero_fill_skips: fus.get("zero_fill_skips")?.as_u64()?,
        unfused_normalize_texel_fetches: unfused_arm.get("normalize_texel_fetches")?.as_u64()?,
        unfused_distance_texel_fetches: unfused_arm.get("distance_texel_fetches")?.as_u64()?,
        unfused_distance_wall_s: unfused_arm.get("distance_wall_s")?.as_f64()?,
    };
    let fl = doc.get("fleet")?;
    let fl_chunking = fl.get("chunking")?;
    let fleet = FleetReport {
        lines_per_chunk: fl_chunking.get("lines_per_chunk")?.as_u64()?,
        halo: fl_chunking.get("halo")?.as_u64()?,
        baseline_device: string(fl, "baseline_device")?,
        baseline_modeled_s: fl.get("baseline_modeled_s")?.as_f64()?,
        shapes: list(fl.get("shapes")?, |shape| {
            Ok(FleetShapeRun {
                name: string(shape, "name")?,
                devices: list(shape.get("devices")?, |d| {
                    Ok(FleetDeviceRow {
                        device: string(d, "device")?,
                        planned: list(d.get("planned")?, Value::as_u64)?,
                        executed: list(d.get("executed")?, Value::as_u64)?,
                        steals: d.get("steals")?.as_u64()?,
                        modeled_s: d.get("modeled_s")?.as_f64()?,
                        wall_s: d.get("wall_s")?.as_f64()?,
                    })
                })?,
                chunks: shape.get("chunks")?.as_u64()?,
                steals: shape.get("steals")?.as_u64()?,
                modeled_makespan_s: shape.get("modeled_makespan_s")?.as_f64()?,
                wall_s: shape.get("wall_s")?.as_f64()?,
            })
        })?,
    };
    let metrics_obj = doc.get("metrics")?;
    let metrics = Snapshot {
        counters: list(metrics_obj.get("counters")?, |c| {
            Ok((string(c, "name")?, c.get("value")?.as_u64()?))
        })?,
        histograms: list(metrics_obj.get("histograms")?, |h| {
            let summary = HistSummary {
                count: h.get("count")?.as_u64()?,
                sum_ns: h.get("sum_ns")?.as_u64()?,
                p50_ns: h.get("p50_ns")?.as_u64()?,
                p95_ns: h.get("p95_ns")?.as_u64()?,
                p99_ns: h.get("p99_ns")?.as_u64()?,
                buckets: list(h.get("buckets")?, |b| {
                    Ok(HistBucket {
                        lo_ns: b.get("lo_ns")?.as_u64()?,
                        hi_ns: b.get("hi_ns")?.as_u64()?,
                        count: b.get("count")?.as_u64()?,
                    })
                })?,
            };
            Ok((string(h, "name")?, summary))
        })?,
    };
    let kernel_mode = doc.get("kernel_mode")?.as_str()?;
    Ok(BenchRun {
        seed: doc.get("seed")?.as_u64()?,
        threads: doc.get("threads")?.as_u64()? as usize,
        dims: (
            scene.get("width")?.as_u64()? as usize,
            scene.get("height")?.as_u64()? as usize,
            scene.get("bands")?.as_u64()? as usize,
        ),
        scene_s: doc.get("scene_generation_s")?.as_f64()?,
        gpu_pipeline_s: doc.get("gpu_pipeline_wall_s")?.as_f64()?,
        cpu_tail_s: doc.get("cpu_tail_wall_s")?.as_f64()?,
        tail: TailBreakdown {
            selection_s: tail_obj.get("selection_s")?.as_f64()?,
            unmix_s: tail_obj.get("unmix_s")?.as_f64()?,
            classify_s: tail_obj.get("classify_s")?.as_f64()?,
            argmax_s: tail_obj.get("argmax_s")?.as_f64()?,
        },
        chunks: doc.get("chunks")?.as_u64()? as usize,
        endmembers: doc.get("endmembers")?.as_u64()? as usize,
        stages,
        stage_wall,
        gpu_caches: GpuCacheCounters {
            verify_runs: caches.get("verify_runs")?.as_u64()?,
            verify_cache_hits: caches.get("verify_cache_hits")?.as_u64()?,
            lower_runs: caches.get("lower_runs")?.as_u64()?,
            lower_cache_hits: caches.get("lower_cache_hits")?.as_u64()?,
            pool_hits: caches.get("pool_hits")?.as_u64()?,
            texture_allocs: caches.get("texture_allocs")?.as_u64()?,
        },
        metrics,
        opt_wall_raw_s: micro.get("wall_raw_s")?.as_f64()?,
        opt_wall_opt_s: micro.get("wall_opt_s")?.as_f64()?,
        kernel_mode: KernelMode::from_name(kernel_mode)
            .ok_or_else(|| Error::Invalid(format!("unknown kernel_mode \"{kernel_mode}\"")))?,
        fusion,
        fleet,
        analysis: TraceAnalysis {
            arms: list(doc.get("analysis")?.get("arms")?, arm_from)?,
        },
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A fully-populated fixture shared with the `delta` module's tests.
    pub(crate) fn sample_run() -> BenchRun {
        let thread = |name: &str, busy_s: f64, wall_s: f64| ThreadUtil {
            tid: 0,
            name: name.into(),
            busy_s,
            utilization: busy_s / wall_s,
        };
        let device = |device: u64, chunks: u64, stolen: u64, busy_s: f64| DeviceLoad {
            device,
            label: format!("device{device}.7800gtx"),
            chunks,
            stolen,
            busy_s,
            utilization: busy_s / 0.66,
        };
        let mut stages = StageStats::default();
        stages.normalize.passes = 4;
        stages.normalize.fragments = 1024;
        stages.normalize.instructions = 9000;
        stages.normalize.tiles = 8;
        stages.normalize.cache_hits = 700;
        stages.normalize.cache_misses = 44;
        stages.normalize.bytes_written = 1024 * 16;
        stages.upload.bytes_uploaded = 1 << 20;
        BenchRun {
            seed: 7,
            threads: 4,
            dims: (145, 145, 32),
            scene_s: 0.5,
            gpu_pipeline_s: 1.25,
            cpu_tail_s: 0.75,
            tail: TailBreakdown {
                selection_s: 0.4,
                unmix_s: 0.25,
                classify_s: 0.3,
                argmax_s: 0.05,
            },
            chunks: 3,
            endmembers: 30,
            stages,
            stage_wall: StageWall {
                upload_s: 0.011,
                normalize_s: 0.25,
                distance_s: 0.8,
                minmax_s: 0.1,
                mei_s: 0.08,
                download_s: 0.009,
            },
            gpu_caches: GpuCacheCounters {
                verify_runs: 7,
                verify_cache_hits: 1400,
                lower_runs: 7,
                lower_cache_hits: 1400,
                pool_hits: 90,
                texture_allocs: 30,
            },
            metrics: Snapshot {
                counters: vec![
                    ("gpu.pool.hits".into(), 90),
                    ("gpu.verify.cache_hits".into(), 1400),
                ],
                histograms: vec![(
                    "gpu.pass_wall".into(),
                    HistSummary {
                        count: 1407,
                        sum_ns: 2_000_000_000,
                        p50_ns: 1_572_863,
                        p95_ns: 3_145_727,
                        p99_ns: 6_291_455,
                        buckets: vec![
                            HistBucket {
                                lo_ns: 1_048_576,
                                hi_ns: 2_097_151,
                                count: 900,
                            },
                            HistBucket {
                                lo_ns: 4_194_304,
                                hi_ns: 8_388_607,
                                count: 507,
                            },
                        ],
                    },
                )],
            },
            opt_wall_raw_s: 0.041,
            opt_wall_opt_s: 0.034,
            kernel_mode: KernelMode::Isa,
            fusion: FusionReport {
                enabled: true,
                pairs: vec![
                    FusionPairRow {
                        producer_kernel: "normalize".into(),
                        consumer_kernel: "sid_partial".into(),
                        mode: "substitute-site-coord".into(),
                        count: 24,
                        sites: 48,
                        fetches_before: 672,
                        fetches_after: 462,
                    },
                    FusionPairRow {
                        producer_kernel: "band_sum".into(),
                        consumer_kernel: "band_sum".into(),
                        mode: "keep-producer-coords".into(),
                        count: 9,
                        sites: 9,
                        fetches_before: 54,
                        fetches_after: 45,
                    },
                ],
                eliminated_passes: 24,
                fused_passes: 17,
                unfused_passes: 53,
                fused_fetches_per_fragment: 462,
                unfused_fetches_per_fragment: 672,
                zero_fill_skips: 41,
                unfused_normalize_texel_fetches: 19_635,
                unfused_distance_texel_fetches: 52_000,
                unfused_distance_wall_s: 0.31,
            },
            fleet: FleetReport {
                lines_per_chunk: 16,
                halo: 2,
                baseline_device: "7800gtx".into(),
                baseline_modeled_s: 0.024,
                shapes: vec![
                    FleetShapeRun {
                        name: "7800gtx".into(),
                        devices: vec![FleetDeviceRow {
                            device: "7800gtx".into(),
                            planned: vec![0, 1, 2, 3],
                            executed: vec![0, 1, 2, 3],
                            steals: 0,
                            modeled_s: 0.024,
                            wall_s: 1.2,
                        }],
                        chunks: 4,
                        steals: 0,
                        modeled_makespan_s: 0.024,
                        wall_s: 1.2,
                    },
                    FleetShapeRun {
                        name: "7800gtx+7800gtx".into(),
                        devices: vec![
                            FleetDeviceRow {
                                device: "7800gtx".into(),
                                planned: vec![0, 1],
                                executed: vec![0, 1, 3],
                                steals: 1,
                                modeled_s: 0.0075,
                                wall_s: 0.7,
                            },
                            FleetDeviceRow {
                                device: "7800gtx".into(),
                                planned: vec![2, 3],
                                executed: vec![2],
                                steals: 0,
                                modeled_s: 0.005,
                                wall_s: 0.55,
                            },
                        ],
                        chunks: 4,
                        steals: 1,
                        modeled_makespan_s: 0.0125,
                        wall_s: 0.7,
                    },
                ],
            },
            analysis: TraceAnalysis {
                arms: vec![
                    ArmAnalysis {
                        name: "headline".into(),
                        wall_s: 1.25,
                        threads: vec![thread("main", 1.2, 1.25), thread("packer", 0.4, 1.25)],
                        overlap: OverlapStats {
                            pack_total_s: 0.4,
                            pack_hidden_s: 0.3,
                            bus_busy_s: 0.2,
                            bus_contended_s: 0.05,
                        },
                        critical_path: CriticalPath {
                            total_s: 1.1,
                            nodes: 5,
                            stages: vec![
                                ("distance".into(), 0.6),
                                ("other".into(), 0.3),
                                ("pack".into(), 0.2),
                            ],
                        },
                        fleet: None,
                        ledger: Vec::new(),
                    },
                    ArmAnalysis {
                        name: "fleet:7800gtx+7800gtx".into(),
                        wall_s: 0.7,
                        threads: vec![
                            thread("device0.7800gtx", 0.6, 0.7),
                            thread("device1.7800gtx", 0.45, 0.7),
                        ],
                        overlap: OverlapStats {
                            pack_total_s: 0.1,
                            pack_hidden_s: 0.1,
                            ..OverlapStats::default()
                        },
                        critical_path: CriticalPath {
                            total_s: 0.65,
                            nodes: 4,
                            stages: vec![("other".into(), 0.65)],
                        },
                        fleet: Some(FleetBalance {
                            makespan_s: 0.66,
                            steals: 1,
                            devices: vec![device(0, 3, 1, 0.6), device(1, 1, 0, 0.45)],
                        }),
                        ledger: Vec::new(),
                    },
                ],
            },
        }
    }

    #[test]
    fn json_document_is_well_formed_and_complete() {
        // The checked-in baseline's round trip pins every key and input
        // value; this pins the derived values, each computed from the
        // sample's rounded inputs.
        let doc = json::parse(&to_json(&sample_run())).expect("the document is JSON");
        // Follow a dotted path of object keys and array indices.
        let at = |path: &str| {
            path.split('.')
                .fold(&doc, |v, key| match key.parse::<usize>() {
                    Ok(i) => &v.as_array().unwrap()[i],
                    Err(_) => v.get(key).unwrap_or_else(|e| panic!("{path}: {e}")),
                })
        };
        for (path, want) in [
            ("schema_version", "7"),
            ("kernel_mode", r#""isa""#),
            ("amc_wall_s", "2.0"),
            // A stage with zero modeled time (the zeroed distance stage in
            // this sample) reports null skew, not a fake 0.0.
            ("stages.2.wall_over_modeled", "null"),
            ("opt.kernels.0.reduction_pct", "20.0"),
            ("opt.kernels.5.opt_instructions", "19"),
            ("fusion.static_fetch_reduction_pct", "31.25"),
            ("fusion.measured_fetch_reduction_pct", "100.0"),
            // 0.024 / 0.0125.
            ("fleet.shapes.1.modeled_speedup", "1.92"),
            ("metrics.cache_hit_rates.verify", "0.995025"),
            // 1.1 / 1.25, 0.3 / 0.4 and 1.2 / 1.25.
            ("analysis.arms.0.critical_path_share", "0.88"),
            ("analysis.arms.0.pack.overlap_efficiency", "0.75"),
            ("analysis.arms.0.threads.0.utilization", "0.96"),
            ("analysis.arms.0.fleet", "null"),
            // mean(0.6, 0.45) / 0.6 and 0.45 / 0.66.
            ("analysis.arms.1.fleet.load_balance", "0.875"),
            ("analysis.arms.1.fleet.devices.1.utilization", "0.681818"),
        ] {
            assert_eq!(at(path), &json::parse(want).unwrap(), "{path}");
        }
        assert_eq!(at("stages").as_array().unwrap().len(), 6);
        assert_eq!(at("opt.kernels").as_array().unwrap().len(), 6);
    }

    #[test]
    fn round_trip_is_bit_stable() {
        // Parse → re-serialize must reproduce the document byte for byte;
        // anything less means derived fields drifted from their inputs. Names
        // that need escaping must come back unchanged too.
        let name = "q\"b\\s\nl";
        let mut escaped = sample_run();
        escaped.fusion.pairs[0].producer_kernel = name.into();
        escaped.fleet.shapes[0].devices[0].device = name.into();
        escaped.analysis.arms[0].name = name.into();
        escaped.analysis.arms[0].threads[0].name = name.into();
        escaped.metrics.counters[0].0 = name.into();
        escaped.metrics.histograms[0].0 = name.into();
        for run in [sample_run(), escaped] {
            let doc = to_json(&run);
            let parsed = from_json(&doc).expect("document parses");
            assert_eq!(to_json(&parsed), doc);
            assert_eq!(parsed.analysis.arms[0].name, run.analysis.arms[0].name);
            // And a second round proves the fixed point.
            let doc2 = to_json(&from_json(&to_json(&parsed)).unwrap());
            assert_eq!(doc2, doc);
        }
    }

    #[test]
    fn schema_drift_fails_loudly() {
        let doc = to_json(&sample_run());
        // Wrong version.
        let old = doc.replace("\"schema_version\": 7", "\"schema_version\": 3");
        let err = from_json(&old).expect_err("version 3 must be rejected");
        assert!(err.to_string().contains("schema_version 3"), "{err}");
        // Unversioned document (the pre-observability layout).
        let unversioned = doc.replacen("  \"schema_version\": 7,\n", "", 1);
        let err = from_json(&unversioned).expect_err("missing version must be rejected");
        assert!(err.to_string().contains("schema_version"), "{err}");
        // A missing input key is an error, not a default.
        let broken = doc.replacen("\"cpu_tail_wall_s\"", "\"renamed_key\"", 1);
        assert!(from_json(&broken).is_err());
        // Not drift: an unknown key, a count written as an integral float
        // and a time written as an integer.
        let lenient = doc
            .replacen("\"seed\": 7,", "\"seed\": 7, \"added_later\": [1],", 1)
            .replacen("\"chunks\": 3,", "\"chunks\": 5.0,", 1)
            .replacen(
                "\"scene_generation_s\": 0.500000",
                "\"scene_generation_s\": 2",
                1,
            );
        let run = from_json(&lenient).expect("tolerated variations parse");
        assert_eq!((run.chunks, run.scene_s), (5, 2.0));
    }

    #[test]
    fn opt_rollup_attributes_stage_counters_exactly() {
        // A physically consistent run: 2 chunks, 3 band groups (G=3), 5
        // minmax passes per chunk, 100 fragments per pass, unfused arms
        // counting the optimized per-fragment costs.
        let mut run = sample_run();
        run.chunks = 2;
        let frags = 100u64;
        let s = &mut run.stages;
        s.normalize = PassStats::default();
        s.normalize.passes = 12; // 2 * G * chunks
        s.normalize.fragments = 12 * frags;
        s.normalize.instructions = 6 * frags * (kernels::BAND_SUM_COST + kernels::NORMALIZE_COST);
        s.distance.passes = 8;
        s.distance.fragments = 8 * frags;
        s.distance.instructions = 8 * frags * kernels::SID_PARTIAL_COST;
        s.minmax.passes = 10; // p_B = 5 per chunk
        s.minmax.fragments = 10 * frags;
        s.minmax.instructions =
            2 * frags * kernels::MINMAX_INIT_COST + 8 * frags * kernels::MINMAX_UPDATE_COST;
        s.mei.passes = 6;
        s.mei.fragments = 6 * frags;
        s.mei.instructions = 6 * frags * kernels::MEI_PARTIAL_COST;

        let rollup = opt_rollup(&run);
        let got: Vec<_> = rollup
            .kernels
            .iter()
            .map(|k| {
                (
                    k.name.as_str(),
                    k.raw_instructions,
                    k.opt_instructions,
                    k.passes,
                    k.fragments,
                )
            })
            .collect();
        assert_eq!(
            got,
            vec![
                ("band_sum", 5, 4, 6, 600),
                ("normalize", 6, 5, 6, 600),
                ("sid_partial", 14, 12, 8, 800),
                ("minmax_init", 4, 3, 2, 200),
                ("minmax_update", 9, 8, 8, 800),
                ("mei_partial", 22, 19, 6, 600),
            ]
        );
        // The optimized dynamic total reproduces the shaded instruction
        // counters stage for stage — the attribution is exact, not a model.
        let shaded = run.stages.normalize.instructions
            + run.stages.distance.instructions
            + run.stages.minmax.instructions
            + run.stages.mei.instructions;
        assert_eq!(rollup.dynamic_opt(), shaded);
        assert_eq!(rollup.dynamic_raw(), 39_000);
        assert!(
            rollup.reduction_pct() >= 10.0,
            "headline reduction {:.2}% < 10%",
            rollup.reduction_pct()
        );
        // Something must have been eliminated in every category the six
        // kernels exercise.
        assert!(rollup.counters.copies_propagated > 0);
        assert!(rollup.counters.dots_fused > 0);
        assert!(rollup.counters.outputs_coalesced > 0);
    }
}
