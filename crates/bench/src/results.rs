//! Machine-readable benchmark results (`BENCH_results.json`).
//!
//! `tables -- bench [path]` runs the AMC pipeline end to end on the reduced
//! synthetic Indian Pines scene, wall-clocks each phase, and writes a JSON
//! record: host wall-clock seconds for scene generation, the GPU stream
//! pipeline and the CPU classification tail, the six-stage counter,
//! wall-clock and modeled-time breakdown, device cache hit-rates, and a
//! snapshot of the [`trace::metrics`] registry. The JSON is hand-rolled
//! (the workspace carries no serde); keys are stable so successive
//! baselines diff cleanly.
//!
//! The document carries a `schema_version` and [`from_json`] refuses any
//! other version, so downstream consumers (the CI bench-smoke comparison)
//! fail loudly on schema drift instead of silently reading defaults.
//! [`from_json`] ∘ [`to_json`] is the identity on the serialized form:
//! derived fields (modeled milliseconds, skew ratios, hit-rates, the
//! optimizer rollup) are recomputed from the parsed inputs, and every
//! input field round-trips bit-stably (times at fixed 6-decimal
//! precision, counters as exact integers — the parser goes through
//! `f64`, exact up to 2⁵³, far above any counter this workload produces).
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
use gpu_sim::opt::InlineMode;
use gpu_sim::opt::OptCounters;
use gpu_sim::raster::TexCoordSet;
use gpu_sim::timing;
use hsi::classify::{AmcClassifier, AmcConfig, TailBreakdown};
use hsi_scene::library::indian_pines_classes;
use hsi_scene::scene::{generate, SceneConfig};
use std::fmt::Write as _;
use std::time::Instant;
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
    pub analysis: AnalysisReport,
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

fn mode_str(mode: InlineMode) -> &'static str {
    match mode {
        InlineMode::SubstituteSiteCoord => "substitute-site-coord",
        InlineMode::KeepProducerCoords => "keep-producer-coords",
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
        let mode = mode_str(f.mode);
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

// ---------------------------------------------------------------------------
// Trace-analyzer summaries (the `analysis` block)
// ---------------------------------------------------------------------------

/// One thread's busy time inside an analysis arm. Utilization is derived
/// (`busy_s / wall_s`) and recomputed, not parsed, on a round trip.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisThread {
    /// Timeline-row name (`main`, `packer`, `device0.7800gtx`, …).
    pub name: String,
    /// Union of root-span time on this thread, seconds.
    pub busy_s: f64,
}

/// One device's load inside an analysis arm's fleet section.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisDevice {
    /// Device ordinal within the fleet.
    pub device: u64,
    /// Timeline-row name of the device thread.
    pub label: String,
    /// Chunks executed.
    pub chunks: u64,
    /// Of those, chunks stolen from other devices' queues.
    pub stolen: u64,
    /// Summed `fleet.chunk` span time, seconds.
    pub busy_s: f64,
}

/// Fleet balance measured off the trace (distinct from the modeled `fleet`
/// block: these are span timings, not placement-model predictions).
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisFleet {
    /// First chunk begin → last chunk end across devices, seconds.
    pub makespan_s: f64,
    /// Total stolen chunks.
    pub steals: u64,
    /// Per-device rows, in device order.
    pub devices: Vec<AnalysisDevice>,
}

/// One bench arm's analyzer summary.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisArm {
    /// Arm name (`headline`, `unfused_oracle`, `fleet:<shape>`).
    pub name: String,
    /// Arm wall clock, seconds.
    pub wall_s: f64,
    /// Critical-path length through the chunk/pack DAG, seconds.
    pub critical_path_s: f64,
    /// Spans on the critical path.
    pub critical_path_nodes: u64,
    /// `(bucket, self-seconds)` attribution along the path, sorted by
    /// bucket name (stage names plus `pack` and `other`).
    pub critical_path_stages: Vec<(String, f64)>,
    /// Total pack-span time, seconds.
    pub pack_total_s: f64,
    /// Pack time hidden under concurrent chunk execution, seconds.
    pub pack_hidden_s: f64,
    /// Time with ≥ 1 `gpu.xfer` transfer in flight, seconds.
    pub bus_busy_s: f64,
    /// Time with ≥ 2 transfers in flight (bus contention), seconds.
    pub bus_contended_s: f64,
    /// Per-thread busy rows.
    pub threads: Vec<AnalysisThread>,
    /// Fleet balance, for arms that ran `fleet.chunk` spans.
    pub fleet: Option<AnalysisFleet>,
}

impl AnalysisArm {
    /// Fraction of pack time hidden under shading (`1.0` when nothing was
    /// packed). Derived; recomputed from the rounded operands on re-serialize.
    pub fn pack_overlap_efficiency(&self) -> f64 {
        if self.pack_total_s <= 0.0 {
            1.0
        } else {
            (self.pack_hidden_s / self.pack_total_s).clamp(0.0, 1.0)
        }
    }
}

impl AnalysisFleet {
    /// Mean over max device busy time: `1.0` is perfectly balanced. Derived.
    pub fn load_balance(&self) -> f64 {
        let max = self.devices.iter().map(|d| d.busy_s).fold(0.0f64, f64::max);
        if max <= 0.0 || self.devices.is_empty() {
            return 1.0;
        }
        let mean = self.devices.iter().map(|d| d.busy_s).sum::<f64>() / self.devices.len() as f64;
        (mean / max).clamp(0.0, 1.0)
    }
}

/// The schema-7 `analysis` block: one analyzer summary per bench arm.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AnalysisReport {
    /// Per-arm summaries, in execution order.
    pub arms: Vec<AnalysisArm>,
}

/// Build the `analysis` block from a captured trace snapshot.
pub fn analysis_report(snap: &trace::TraceSnapshot) -> AnalysisReport {
    let analysis = trace::analyze::analyze(snap);
    AnalysisReport {
        arms: analysis
            .arms
            .iter()
            .map(|arm| AnalysisArm {
                name: arm.name.clone(),
                wall_s: arm.wall_s,
                critical_path_s: arm.critical_path.total_s,
                critical_path_nodes: arm.critical_path.nodes as u64,
                critical_path_stages: arm.critical_path.stages.clone(),
                pack_total_s: arm.overlap.pack_total_s,
                pack_hidden_s: arm.overlap.pack_hidden_s,
                bus_busy_s: arm.overlap.bus_busy_s,
                bus_contended_s: arm.overlap.bus_contended_s,
                threads: arm
                    .threads
                    .iter()
                    .map(|t| AnalysisThread {
                        name: t.name.clone(),
                        busy_s: t.busy_s,
                    })
                    .collect(),
                fleet: arm.fleet.as_ref().map(|f| AnalysisFleet {
                    makespan_s: f.makespan_s,
                    steals: f.steals,
                    devices: f
                        .devices
                        .iter()
                        .map(|d| AnalysisDevice {
                            device: d.device,
                            label: d.label.clone(),
                            chunks: d.chunks,
                            stolen: d.stolen,
                            busy_s: d.busy_s,
                        })
                        .collect(),
                }),
            })
            .collect(),
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

    let analysis = analysis_report(&trace::snapshot_events());
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

/// Round to the serialized 6-decimal precision, exactly as `{:.6}` prints.
/// Derived values (sums, ratios) are computed from rounded operands so the
/// document is a fixed point of parse → re-serialize.
fn r6(x: f64) -> f64 {
    format!("{x:.6}").parse().expect("fixed-precision float")
}

fn stage_json(name: &str, s: &PassStats, wall_s: f64, profile: &GpuProfile) -> String {
    let modeled_ms = timing::gpu_time(s, profile).total_ms();
    let wall_s = r6(wall_s);
    // Measured-over-modeled skew: >1000 means a modeled millisecond costs
    // more than a host second to simulate. Derived, so recomputed (not
    // parsed) on round trip. A stage with no modeled time (e.g. upload or
    // download on configs that skip it) has no meaningful ratio — emit
    // `null`, never a `0.0` that reads as "perfectly modeled".
    let skew = if modeled_ms > 0.0 {
        format!("{:.6}", wall_s * 1e3 / modeled_ms)
    } else {
        "null".to_owned()
    };
    format!(
        "    {{\"stage\": \"{name}\", \"passes\": {}, \"fragments\": {}, \
         \"instructions\": {}, \"texel_fetches\": {}, \"cache_hits\": {}, \
         \"cache_misses\": {}, \"tiles\": {}, \"bytes_written\": {}, \
         \"bytes_uploaded\": {}, \"bytes_downloaded\": {}, \
         \"wall_s\": {:.6}, \"modeled_ms\": {:.6}, \
         \"wall_over_modeled\": {skew}}}",
        s.passes,
        s.fragments,
        s.instructions,
        s.texel_fetches,
        s.cache_hits,
        s.cache_misses,
        s.tiles,
        s.bytes_written,
        s.bytes_uploaded,
        s.bytes_downloaded,
        wall_s,
        modeled_ms,
    )
}

/// Render a [`BenchRun`] as the `BENCH_results.json` document.
pub fn to_json(run: &BenchRun) -> String {
    let profile = GpuProfile::geforce_7800gtx();
    let total = run.stages.total();
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"schema_version\": {SCHEMA_VERSION},");
    let _ = writeln!(s, "  \"benchmark\": \"amc_end_to_end\",");
    let _ = writeln!(s, "  \"kernel_mode\": \"{}\",", run.kernel_mode);
    let _ = writeln!(s, "  \"seed\": {},", run.seed);
    let _ = writeln!(s, "  \"threads\": {},", run.threads);
    let _ = writeln!(
        s,
        "  \"scene\": {{\"width\": {}, \"height\": {}, \"bands\": {}}},",
        run.dims.0, run.dims.1, run.dims.2
    );
    let _ = writeln!(s, "  \"scene_generation_s\": {:.6},", run.scene_s);
    let _ = writeln!(s, "  \"gpu_pipeline_wall_s\": {:.6},", run.gpu_pipeline_s);
    let _ = writeln!(s, "  \"cpu_tail_wall_s\": {:.6},", run.cpu_tail_s);
    // Tail stage breakdown mirroring the GPU `stages` array. selection_s and
    // classify_s are wall clock; unmix_s and argmax_s are worker-summed CPU
    // seconds from the batched kernels (equal to wall at threads=1).
    let _ = writeln!(
        s,
        "  \"cpu_tail_stages\": {{\"selection_s\": {:.6}, \"unmix_s\": {:.6}, \
         \"classify_s\": {:.6}, \"argmax_s\": {:.6}}},",
        run.tail.selection_s, run.tail.unmix_s, run.tail.classify_s, run.tail.argmax_s
    );
    let _ = writeln!(
        s,
        "  \"amc_wall_s\": {:.6},",
        r6(run.gpu_pipeline_s) + r6(run.cpu_tail_s)
    );
    let _ = writeln!(s, "  \"chunks\": {},", run.chunks);
    let _ = writeln!(s, "  \"endmembers\": {},", run.endmembers);
    let _ = writeln!(
        s,
        "  \"modeled_kernel_ms_7800gtx\": {:.6},",
        timing::gpu_time(&total, &profile).kernel_ms()
    );
    s.push_str("  \"stages\": [\n");
    let walls = run.stage_wall.as_named();
    let stages: [(&str, &PassStats); 6] = [
        ("upload", &run.stages.upload),
        ("normalize", &run.stages.normalize),
        ("distance", &run.stages.distance),
        ("minmax", &run.stages.minmax),
        ("mei", &run.stages.mei),
        ("download", &run.stages.download),
    ];
    for (i, (name, stats)) in stages.iter().enumerate() {
        debug_assert_eq!(*name, walls[i].0, "stage order mismatch");
        s.push_str(&stage_json(name, stats, walls[i].1, &profile));
        s.push_str(if i + 1 < stages.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n");
    // Optimizer rollup: per-kernel static counts are constants of the tree,
    // dynamic attributions derive from the stage counters above, and only
    // the microbench walls are measured inputs (everything else is
    // recomputed on a parse → re-serialize round trip).
    let rollup = opt_rollup(run);
    s.push_str("  \"opt\": {\n    \"kernels\": [\n");
    for (i, k) in rollup.kernels.iter().enumerate() {
        let _ = write!(
            s,
            "      {{\"kernel\": \"{}\", \"raw_instructions\": {}, \
             \"opt_instructions\": {}, \"passes\": {}, \"fragments\": {}, \
             \"dynamic_raw\": {}, \"dynamic_opt\": {}, \
             \"reduction_pct\": {:.6}}}",
            k.name,
            k.raw_instructions,
            k.opt_instructions,
            k.passes,
            k.fragments,
            k.dynamic_raw(),
            k.dynamic_opt(),
            k.reduction_pct()
        );
        s.push_str(if i + 1 < rollup.kernels.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    s.push_str("    ],\n");
    let _ = writeln!(
        s,
        "    \"dynamic_instructions_raw\": {},",
        rollup.dynamic_raw()
    );
    let _ = writeln!(
        s,
        "    \"dynamic_instructions_opt\": {},",
        rollup.dynamic_opt()
    );
    let _ = writeln!(
        s,
        "    \"dynamic_reduction_pct\": {:.6},",
        rollup.reduction_pct()
    );
    s.push_str("    \"eliminated\": {");
    for (i, (label, count)) in rollup.counters.entries().iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(s, "\"{label}\": {count}");
    }
    s.push_str("},\n");
    // Modeled kernel time had the raw programs been shaded: the run's
    // instruction total plus exactly the instructions the optimizer removed.
    let mut raw_total = total;
    raw_total.instructions = total.instructions + (rollup.dynamic_raw() - rollup.dynamic_opt());
    let _ = writeln!(
        s,
        "    \"modeled_kernel_ms_raw_7800gtx\": {:.6},",
        timing::gpu_time(&raw_total, &profile).kernel_ms()
    );
    let _ = writeln!(
        s,
        "    \"modeled_kernel_ms_opt_7800gtx\": {:.6},",
        timing::gpu_time(&total, &profile).kernel_ms()
    );
    let _ = writeln!(
        s,
        "    \"isa_microbench\": {{\"wall_raw_s\": {:.6}, \"wall_opt_s\": {:.6}}}",
        run.opt_wall_raw_s, run.opt_wall_opt_s
    );
    s.push_str("  },\n");
    // Fusion attribution: the pairs, pass counts, static per-fragment
    // fetches and the unfused-arm counters are inputs; both reduction
    // percentages are derived and recomputed on a round trip.
    let f = &run.fusion;
    s.push_str("  \"fusion\": {\n");
    let _ = writeln!(s, "    \"enabled\": {},", f.enabled);
    s.push_str("    \"pairs\": [\n");
    for (i, p) in f.pairs.iter().enumerate() {
        let _ = write!(
            s,
            "      {{\"producer_kernel\": \"{}\", \"consumer_kernel\": \"{}\", \
             \"mode\": \"{}\", \"count\": {}, \"sites\": {}, \
             \"fetches_before\": {}, \"fetches_after\": {}}}",
            p.producer_kernel,
            p.consumer_kernel,
            p.mode,
            p.count,
            p.sites,
            p.fetches_before,
            p.fetches_after
        );
        s.push_str(if i + 1 < f.pairs.len() { ",\n" } else { "\n" });
    }
    s.push_str("    ],\n");
    let _ = writeln!(s, "    \"eliminated_passes\": {},", f.eliminated_passes);
    let _ = writeln!(s, "    \"fused_passes\": {},", f.fused_passes);
    let _ = writeln!(s, "    \"unfused_passes\": {},", f.unfused_passes);
    let _ = writeln!(
        s,
        "    \"normalize_distance_fetches_per_fragment\": \
         {{\"fused\": {}, \"unfused\": {}}},",
        f.fused_fetches_per_fragment, f.unfused_fetches_per_fragment
    );
    let _ = writeln!(
        s,
        "    \"static_fetch_reduction_pct\": {:.6},",
        f.static_fetch_reduction_pct()
    );
    let _ = writeln!(s, "    \"zero_fill_skips\": {},", f.zero_fill_skips);
    let _ = writeln!(
        s,
        "    \"unfused_arm\": {{\"normalize_texel_fetches\": {}, \
         \"distance_texel_fetches\": {}, \"distance_wall_s\": {:.6}}},",
        f.unfused_normalize_texel_fetches,
        f.unfused_distance_texel_fetches,
        f.unfused_distance_wall_s
    );
    let _ = writeln!(
        s,
        "    \"measured_fetch_reduction_pct\": {:.6}",
        f.measured_fetch_reduction_pct(
            run.stages.normalize.texel_fetches + run.stages.distance.texel_fetches
        )
    );
    s.push_str("  },\n");
    // Fleet scaling: the chunk plan, the single-device modeled baseline and
    // per-shape runs with per-device placement/execution rows are inputs;
    // every `modeled_speedup` is derived from the (rounded) baseline and
    // makespan and recomputed on a round trip.
    let fl = &run.fleet;
    s.push_str("  \"fleet\": {\n");
    let _ = writeln!(
        s,
        "    \"chunking\": {{\"lines_per_chunk\": {}, \"halo\": {}}},",
        fl.lines_per_chunk, fl.halo
    );
    let _ = writeln!(s, "    \"baseline_device\": \"{}\",", fl.baseline_device);
    let _ = writeln!(
        s,
        "    \"baseline_modeled_s\": {:.6},",
        fl.baseline_modeled_s
    );
    s.push_str("    \"shapes\": [\n");
    let idx_list = |idx: &[u64]| {
        let mut out = String::from("[");
        for (i, v) in idx.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{v}");
        }
        out.push(']');
        out
    };
    for (i, shape) in fl.shapes.iter().enumerate() {
        let _ = writeln!(s, "      {{\"name\": \"{}\",", shape.name);
        let _ = writeln!(s, "       \"chunks\": {},", shape.chunks);
        let _ = writeln!(s, "       \"steals\": {},", shape.steals);
        let _ = writeln!(
            s,
            "       \"modeled_makespan_s\": {:.6},",
            shape.modeled_makespan_s
        );
        let _ = writeln!(
            s,
            "       \"modeled_speedup\": {:.6},",
            FleetShapeRun {
                modeled_makespan_s: r6(shape.modeled_makespan_s),
                ..shape.clone()
            }
            .modeled_speedup(r6(fl.baseline_modeled_s))
        );
        let _ = writeln!(s, "       \"wall_s\": {:.6},", shape.wall_s);
        s.push_str("       \"devices\": [\n");
        for (j, d) in shape.devices.iter().enumerate() {
            let _ = write!(
                s,
                "         {{\"device\": \"{}\", \"planned\": {}, \
                 \"executed\": {}, \"steals\": {}, \"modeled_s\": {:.6}, \
                 \"wall_s\": {:.6}}}",
                d.device,
                idx_list(&d.planned),
                idx_list(&d.executed),
                d.steals,
                d.modeled_s,
                d.wall_s
            );
            s.push_str(if j + 1 < shape.devices.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push_str("       ]}");
        s.push_str(if i + 1 < fl.shapes.len() { ",\n" } else { "\n" });
    }
    s.push_str("    ]\n  },\n");
    s.push_str("  \"analysis\": {\n    \"arms\": [");
    for (i, arm) in run.analysis.arms.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let wall = r6(arm.wall_s);
        let cp = r6(arm.critical_path_s);
        // Share of the arm's wall clock the critical path explains. Derived
        // from the rounded operands, so recomputed (never parsed) on a
        // round trip; a zero-wall arm trivially has a full-share path.
        let share = if wall > 0.0 {
            (cp / wall).clamp(0.0, 1.0)
        } else {
            1.0
        };
        let _ = write!(
            s,
            "\n      {{\"name\": \"{}\", \"wall_s\": {:.6}, \
             \"critical_path_s\": {:.6}, \"critical_path_nodes\": {}, \
             \"critical_path_share\": {:.6},\n       \"critical_path_stages\": [",
            arm.name, arm.wall_s, arm.critical_path_s, arm.critical_path_nodes, share
        );
        for (j, (stage, self_s)) in arm.critical_path_stages.iter().enumerate() {
            if j > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "{{\"stage\": \"{stage}\", \"self_s\": {self_s:.6}}}");
        }
        let rounded_arm = AnalysisArm {
            pack_total_s: r6(arm.pack_total_s),
            pack_hidden_s: r6(arm.pack_hidden_s),
            ..arm.clone()
        };
        let _ = write!(
            s,
            "],\n       \"pack\": {{\"total_s\": {:.6}, \"hidden_s\": {:.6}, \
             \"overlap_efficiency\": {:.6}}},\n       \
             \"bus\": {{\"busy_s\": {:.6}, \"contended_s\": {:.6}}},\n       \
             \"threads\": [",
            arm.pack_total_s,
            arm.pack_hidden_s,
            rounded_arm.pack_overlap_efficiency(),
            arm.bus_busy_s,
            arm.bus_contended_s
        );
        for (j, t) in arm.threads.iter().enumerate() {
            if j > 0 {
                s.push(',');
            }
            let util = if wall > 0.0 {
                (r6(t.busy_s) / wall).clamp(0.0, 1.0)
            } else {
                0.0
            };
            let _ = write!(
                s,
                "\n         {{\"name\": \"{}\", \"busy_s\": {:.6}, \"utilization\": {:.6}}}",
                t.name, t.busy_s, util
            );
        }
        s.push_str(if arm.threads.is_empty() {
            "],\n"
        } else {
            "\n       ],\n"
        });
        match &arm.fleet {
            None => s.push_str("       \"fleet\": null}"),
            Some(f) => {
                let makespan = r6(f.makespan_s);
                let rounded_fleet = AnalysisFleet {
                    makespan_s: makespan,
                    steals: f.steals,
                    devices: f
                        .devices
                        .iter()
                        .map(|d| AnalysisDevice {
                            busy_s: r6(d.busy_s),
                            ..d.clone()
                        })
                        .collect(),
                };
                let _ = write!(
                    s,
                    "       \"fleet\": {{\"makespan_s\": {:.6}, \"steals\": {}, \
                     \"load_balance\": {:.6},\n        \"devices\": [",
                    f.makespan_s,
                    f.steals,
                    rounded_fleet.load_balance()
                );
                for (j, d) in f.devices.iter().enumerate() {
                    if j > 0 {
                        s.push(',');
                    }
                    let util = if makespan > 0.0 {
                        (r6(d.busy_s) / makespan).clamp(0.0, 1.0)
                    } else {
                        0.0
                    };
                    let _ = write!(
                        s,
                        "\n          {{\"device\": {}, \"label\": \"{}\", \
                         \"chunks\": {}, \"stolen\": {}, \"busy_s\": {:.6}, \
                         \"utilization\": {:.6}}}",
                        d.device, d.label, d.chunks, d.stolen, d.busy_s, util
                    );
                }
                s.push_str(if f.devices.is_empty() {
                    "]}}"
                } else {
                    "\n        ]}}"
                });
            }
        }
    }
    s.push_str(if run.analysis.arms.is_empty() {
        "]\n  },\n"
    } else {
        "\n    ]\n  },\n"
    });
    let c = &run.gpu_caches;
    let _ = writeln!(
        s,
        "  \"gpu_caches\": {{\"verify_runs\": {}, \"verify_cache_hits\": {}, \
         \"lower_runs\": {}, \"lower_cache_hits\": {}, \"pool_hits\": {}, \
         \"texture_allocs\": {}}},",
        c.verify_runs,
        c.verify_cache_hits,
        c.lower_runs,
        c.lower_cache_hits,
        c.pool_hits,
        c.texture_allocs
    );
    s.push_str("  \"metrics\": {\n");
    let _ = writeln!(
        s,
        "    \"cache_hit_rates\": {{\"verify\": {:.6}, \"lower\": {:.6}, \
         \"texture_pool\": {:.6}}},",
        c.verify_hit_rate(),
        c.lower_hit_rate(),
        c.pool_hit_rate()
    );
    s.push_str("    \"counters\": [");
    for (i, (name, value)) in run.metrics.counters.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "\n      {{\"name\": \"{name}\", \"value\": {value}}}");
    }
    s.push_str(if run.metrics.counters.is_empty() {
        "],\n"
    } else {
        "\n    ],\n"
    });
    s.push_str("    \"histograms\": [");
    for (i, (name, h)) in run.metrics.histograms.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "\n      {{\"name\": \"{name}\", \"count\": {}, \"sum_ns\": {}, \
             \"p50_ns\": {}, \"p95_ns\": {}, \"p99_ns\": {}, \"buckets\": [",
            h.count, h.sum_ns, h.p50_ns, h.p95_ns, h.p99_ns
        );
        for (j, b) in h.buckets.iter().enumerate() {
            if j > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "{{\"lo_ns\": {}, \"hi_ns\": {}, \"count\": {}}}",
                b.lo_ns, b.hi_ns, b.count
            );
        }
        s.push_str("]}");
    }
    s.push_str(if run.metrics.histograms.is_empty() {
        "]\n"
    } else {
        "\n    ]\n"
    });
    s.push_str("  }\n}\n");
    s
}

// ---------------------------------------------------------------------------
// Parsing (round-trip serde without serde)
// ---------------------------------------------------------------------------

/// Minimal JSON value for [`from_json`]. Numbers go through `f64`: exact
/// for the integers this document carries (all far below 2⁵³).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    /// `null`, `true`/`false` — accepted but unused by this schema.
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

type ParseResult<T> = std::result::Result<T, String>;

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Self {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn err<T>(&self, what: &str) -> ParseResult<T> {
        Err(format!("{what} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, c: u8) -> ParseResult<()> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(&format!("expected '{}'", c as char))
        }
    }

    fn value(&mut self) -> ParseResult<Json> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => self.err("expected a JSON value"),
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> ParseResult<Json> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            self.err(&format!("expected '{lit}'"))
        }
    }

    fn number(&mut self) -> ParseResult<Json> {
        self.skip_ws();
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|t| t.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> ParseResult<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32);
                            match hex {
                                Some(c) => {
                                    out.push(c);
                                    self.pos += 4;
                                }
                                None => return self.err("bad \\u escape"),
                            }
                        }
                        _ => return self.err("bad escape"),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8 sequences pass through verbatim.
                    let rest = &self.bytes[self.pos..];
                    let c = std::str::from_utf8(rest)
                        .map_err(|_| "invalid utf-8".to_string())?
                        .chars()
                        .next()
                        .expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> ParseResult<Json> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn object(&mut self) -> ParseResult<Json> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value()?));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }
}

impl Json {
    fn get<'a>(&'a self, key: &str) -> ParseResult<&'a Json> {
        match self {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("missing key \"{key}\"")),
            _ => Err(format!("expected object for key \"{key}\"")),
        }
    }

    fn num(&self) -> ParseResult<f64> {
        match self {
            Json::Num(n) => Ok(*n),
            _ => Err("expected number".into()),
        }
    }

    fn u64(&self) -> ParseResult<u64> {
        let n = self.num()?;
        if n >= 0.0 && n.fract() == 0.0 {
            Ok(n as u64)
        } else {
            Err(format!("expected unsigned integer, got {n}"))
        }
    }

    fn str(&self) -> ParseResult<&str> {
        match self {
            Json::Str(s) => Ok(s),
            _ => Err("expected string".into()),
        }
    }

    fn bool(&self) -> ParseResult<bool> {
        match self {
            Json::Bool(b) => Ok(*b),
            _ => Err("expected boolean".into()),
        }
    }

    fn arr(&self) -> ParseResult<&[Json]> {
        match self {
            Json::Arr(items) => Ok(items),
            _ => Err("expected array".into()),
        }
    }
}

fn pass_stats_from(v: &Json) -> ParseResult<PassStats> {
    Ok(PassStats {
        fragments: v.get("fragments")?.u64()?,
        instructions: v.get("instructions")?.u64()?,
        texel_fetches: v.get("texel_fetches")?.u64()?,
        cache_hits: v.get("cache_hits")?.u64()?,
        cache_misses: v.get("cache_misses")?.u64()?,
        bytes_written: v.get("bytes_written")?.u64()?,
        bytes_uploaded: v.get("bytes_uploaded")?.u64()?,
        bytes_downloaded: v.get("bytes_downloaded")?.u64()?,
        passes: v.get("passes")?.u64()?,
        tiles: v.get("tiles")?.u64()?,
    })
}

/// Parse a `BENCH_results.json` document back into a [`BenchRun`].
///
/// Fails with a descriptive error on malformed JSON, a missing key, or a
/// `schema_version` other than [`SCHEMA_VERSION`] — schema drift is a hard
/// error, never a silent default. Derived fields (`amc_wall_s`,
/// `modeled_*`, `wall_over_modeled`, `cache_hit_rates`) are not read; they
/// are recomputed from the parsed inputs on re-serialization.
pub fn from_json(text: &str) -> ParseResult<BenchRun> {
    let mut p = Parser::new(text);
    let doc = p.value()?;
    let version = doc
        .get("schema_version")
        .map_err(|e| format!("{e} — document predates schema versioning; regenerate it"))?
        .u64()?;
    if version != SCHEMA_VERSION {
        return Err(format!(
            "schema_version {version} != supported {SCHEMA_VERSION}; \
             regenerate the document with this tree's `tables -- bench`"
        ));
    }
    let scene = doc.get("scene")?;
    let tail_obj = doc.get("cpu_tail_stages")?;
    let tail = TailBreakdown {
        selection_s: tail_obj.get("selection_s")?.num()?,
        unmix_s: tail_obj.get("unmix_s")?.num()?,
        classify_s: tail_obj.get("classify_s")?.num()?,
        argmax_s: tail_obj.get("argmax_s")?.num()?,
    };
    let mut stages = StageStats::default();
    let mut stage_wall = StageWall::default();
    for entry in doc.get("stages")?.arr()? {
        let name = entry.get("stage")?.str()?.to_owned();
        let stats = pass_stats_from(entry)?;
        let wall = entry.get("wall_s")?.num()?;
        let (slot, wall_slot) = match name.as_str() {
            "upload" => (&mut stages.upload, &mut stage_wall.upload_s),
            "normalize" => (&mut stages.normalize, &mut stage_wall.normalize_s),
            "distance" => (&mut stages.distance, &mut stage_wall.distance_s),
            "minmax" => (&mut stages.minmax, &mut stage_wall.minmax_s),
            "mei" => (&mut stages.mei, &mut stage_wall.mei_s),
            "download" => (&mut stages.download, &mut stage_wall.download_s),
            other => return Err(format!("unknown stage \"{other}\"")),
        };
        *slot = stats;
        *wall_slot = wall;
    }
    let caches = doc.get("gpu_caches")?;
    // Of the whole `opt` block only the measured microbench walls are
    // inputs; the rollup itself is recomputed by [`to_json`].
    let micro = doc.get("opt")?.get("isa_microbench")?;
    let fus = doc.get("fusion")?;
    let mut pairs = Vec::new();
    for p in fus.get("pairs")?.arr()? {
        pairs.push(FusionPairRow {
            producer_kernel: p.get("producer_kernel")?.str()?.to_owned(),
            consumer_kernel: p.get("consumer_kernel")?.str()?.to_owned(),
            mode: p.get("mode")?.str()?.to_owned(),
            count: p.get("count")?.u64()?,
            sites: p.get("sites")?.u64()?,
            fetches_before: p.get("fetches_before")?.u64()?,
            fetches_after: p.get("fetches_after")?.u64()?,
        });
    }
    let per_frag = fus.get("normalize_distance_fetches_per_fragment")?;
    let arm = fus.get("unfused_arm")?;
    let fusion = FusionReport {
        enabled: fus.get("enabled")?.bool()?,
        pairs,
        eliminated_passes: fus.get("eliminated_passes")?.u64()?,
        fused_passes: fus.get("fused_passes")?.u64()?,
        unfused_passes: fus.get("unfused_passes")?.u64()?,
        fused_fetches_per_fragment: per_frag.get("fused")?.u64()?,
        unfused_fetches_per_fragment: per_frag.get("unfused")?.u64()?,
        zero_fill_skips: fus.get("zero_fill_skips")?.u64()?,
        unfused_normalize_texel_fetches: arm.get("normalize_texel_fetches")?.u64()?,
        unfused_distance_texel_fetches: arm.get("distance_texel_fetches")?.u64()?,
        unfused_distance_wall_s: arm.get("distance_wall_s")?.num()?,
    };
    let fl = doc.get("fleet")?;
    let fl_chunking = fl.get("chunking")?;
    let mut fleet_shapes = Vec::new();
    for shape in fl.get("shapes")?.arr()? {
        let mut devices = Vec::new();
        for d in shape.get("devices")?.arr()? {
            let idx = |key: &str| -> ParseResult<Vec<u64>> {
                d.get(key)?.arr()?.iter().map(Json::u64).collect()
            };
            devices.push(FleetDeviceRow {
                device: d.get("device")?.str()?.to_owned(),
                planned: idx("planned")?,
                executed: idx("executed")?,
                steals: d.get("steals")?.u64()?,
                modeled_s: d.get("modeled_s")?.num()?,
                wall_s: d.get("wall_s")?.num()?,
            });
        }
        fleet_shapes.push(FleetShapeRun {
            name: shape.get("name")?.str()?.to_owned(),
            devices,
            chunks: shape.get("chunks")?.u64()?,
            steals: shape.get("steals")?.u64()?,
            modeled_makespan_s: shape.get("modeled_makespan_s")?.num()?,
            wall_s: shape.get("wall_s")?.num()?,
        });
    }
    let fleet = FleetReport {
        lines_per_chunk: fl_chunking.get("lines_per_chunk")?.u64()?,
        halo: fl_chunking.get("halo")?.u64()?,
        baseline_device: fl.get("baseline_device")?.str()?.to_owned(),
        baseline_modeled_s: fl.get("baseline_modeled_s")?.num()?,
        shapes: fleet_shapes,
    };
    let metrics_obj = doc.get("metrics")?;
    let mut counters = Vec::new();
    for c in metrics_obj.get("counters")?.arr()? {
        counters.push((c.get("name")?.str()?.to_owned(), c.get("value")?.u64()?));
    }
    let mut histograms = Vec::new();
    for h in metrics_obj.get("histograms")?.arr()? {
        let mut buckets = Vec::new();
        for b in h.get("buckets")?.arr()? {
            buckets.push(HistBucket {
                lo_ns: b.get("lo_ns")?.u64()?,
                hi_ns: b.get("hi_ns")?.u64()?,
                count: b.get("count")?.u64()?,
            });
        }
        histograms.push((
            h.get("name")?.str()?.to_owned(),
            HistSummary {
                count: h.get("count")?.u64()?,
                sum_ns: h.get("sum_ns")?.u64()?,
                p50_ns: h.get("p50_ns")?.u64()?,
                p95_ns: h.get("p95_ns")?.u64()?,
                p99_ns: h.get("p99_ns")?.u64()?,
                buckets,
            },
        ));
    }
    let mut analysis_arms = Vec::new();
    for a in doc.get("analysis")?.get("arms")?.arr()? {
        let mut cp_stages = Vec::new();
        for st in a.get("critical_path_stages")?.arr()? {
            cp_stages.push((st.get("stage")?.str()?.to_owned(), st.get("self_s")?.num()?));
        }
        let pack = a.get("pack")?;
        let bus = a.get("bus")?;
        let mut arm_threads = Vec::new();
        for t in a.get("threads")?.arr()? {
            arm_threads.push(AnalysisThread {
                name: t.get("name")?.str()?.to_owned(),
                busy_s: t.get("busy_s")?.num()?,
            });
        }
        let arm_fleet = match a.get("fleet")? {
            Json::Null => None,
            f => {
                let mut devices = Vec::new();
                for d in f.get("devices")?.arr()? {
                    devices.push(AnalysisDevice {
                        device: d.get("device")?.u64()?,
                        label: d.get("label")?.str()?.to_owned(),
                        chunks: d.get("chunks")?.u64()?,
                        stolen: d.get("stolen")?.u64()?,
                        busy_s: d.get("busy_s")?.num()?,
                    });
                }
                Some(AnalysisFleet {
                    makespan_s: f.get("makespan_s")?.num()?,
                    steals: f.get("steals")?.u64()?,
                    devices,
                })
            }
        };
        analysis_arms.push(AnalysisArm {
            name: a.get("name")?.str()?.to_owned(),
            wall_s: a.get("wall_s")?.num()?,
            critical_path_s: a.get("critical_path_s")?.num()?,
            critical_path_nodes: a.get("critical_path_nodes")?.u64()?,
            critical_path_stages: cp_stages,
            pack_total_s: pack.get("total_s")?.num()?,
            pack_hidden_s: pack.get("hidden_s")?.num()?,
            bus_busy_s: bus.get("busy_s")?.num()?,
            bus_contended_s: bus.get("contended_s")?.num()?,
            threads: arm_threads,
            fleet: arm_fleet,
        });
    }
    let analysis = AnalysisReport {
        arms: analysis_arms,
    };
    Ok(BenchRun {
        seed: doc.get("seed")?.u64()?,
        threads: doc.get("threads")?.u64()? as usize,
        dims: (
            scene.get("width")?.u64()? as usize,
            scene.get("height")?.u64()? as usize,
            scene.get("bands")?.u64()? as usize,
        ),
        scene_s: doc.get("scene_generation_s")?.num()?,
        gpu_pipeline_s: doc.get("gpu_pipeline_wall_s")?.num()?,
        cpu_tail_s: doc.get("cpu_tail_wall_s")?.num()?,
        tail,
        chunks: doc.get("chunks")?.u64()? as usize,
        endmembers: doc.get("endmembers")?.u64()? as usize,
        stages,
        stage_wall,
        gpu_caches: GpuCacheCounters {
            verify_runs: caches.get("verify_runs")?.u64()?,
            verify_cache_hits: caches.get("verify_cache_hits")?.u64()?,
            lower_runs: caches.get("lower_runs")?.u64()?,
            lower_cache_hits: caches.get("lower_cache_hits")?.u64()?,
            pool_hits: caches.get("pool_hits")?.u64()?,
            texture_allocs: caches.get("texture_allocs")?.u64()?,
        },
        metrics: Snapshot {
            counters,
            histograms,
        },
        opt_wall_raw_s: micro.get("wall_raw_s")?.num()?,
        opt_wall_opt_s: micro.get("wall_opt_s")?.num()?,
        kernel_mode: {
            let name = doc.get("kernel_mode")?.str()?.to_owned();
            KernelMode::from_name(&name).ok_or_else(|| format!("unknown kernel_mode \"{name}\""))?
        },
        fusion,
        fleet,
        analysis,
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A fully-populated fixture shared with the `delta` module's tests.
    pub(crate) fn sample_run() -> BenchRun {
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
            analysis: AnalysisReport {
                arms: vec![
                    AnalysisArm {
                        name: "headline".into(),
                        wall_s: 1.25,
                        critical_path_s: 1.1,
                        critical_path_nodes: 5,
                        critical_path_stages: vec![
                            ("distance".into(), 0.6),
                            ("other".into(), 0.3),
                            ("pack".into(), 0.2),
                        ],
                        pack_total_s: 0.4,
                        pack_hidden_s: 0.3,
                        bus_busy_s: 0.2,
                        bus_contended_s: 0.05,
                        threads: vec![
                            AnalysisThread {
                                name: "main".into(),
                                busy_s: 1.2,
                            },
                            AnalysisThread {
                                name: "packer".into(),
                                busy_s: 0.4,
                            },
                        ],
                        fleet: None,
                    },
                    AnalysisArm {
                        name: "fleet:7800gtx+7800gtx".into(),
                        wall_s: 0.7,
                        critical_path_s: 0.65,
                        critical_path_nodes: 4,
                        critical_path_stages: vec![("other".into(), 0.65)],
                        pack_total_s: 0.1,
                        pack_hidden_s: 0.1,
                        bus_busy_s: 0.0,
                        bus_contended_s: 0.0,
                        threads: vec![
                            AnalysisThread {
                                name: "device0.7800gtx".into(),
                                busy_s: 0.6,
                            },
                            AnalysisThread {
                                name: "device1.7800gtx".into(),
                                busy_s: 0.45,
                            },
                        ],
                        fleet: Some(AnalysisFleet {
                            makespan_s: 0.66,
                            steals: 1,
                            devices: vec![
                                AnalysisDevice {
                                    device: 0,
                                    label: "device0.7800gtx".into(),
                                    chunks: 3,
                                    stolen: 1,
                                    busy_s: 0.6,
                                },
                                AnalysisDevice {
                                    device: 1,
                                    label: "device1.7800gtx".into(),
                                    chunks: 1,
                                    stolen: 0,
                                    busy_s: 0.45,
                                },
                            ],
                        }),
                    },
                ],
            },
        }
    }

    #[test]
    fn json_document_is_well_formed_and_complete() {
        let json = to_json(&sample_run());
        // Balanced braces/brackets and the stable key set.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        for key in [
            "\"schema_version\": 7",
            "\"benchmark\"",
            "\"kernel_mode\": \"isa\"",
            "\"threads\": 4",
            "\"amc_wall_s\": 2.000000",
            "\"gpu_pipeline_wall_s\": 1.250000",
            "\"cpu_tail_stages\": {\"selection_s\": 0.400000",
            "\"unmix_s\": 0.250000",
            "\"classify_s\": 0.300000",
            "\"argmax_s\": 0.050000",
            "\"stages\": [",
            "\"stage\": \"upload\"",
            "\"stage\": \"download\"",
            "\"tiles\": 8",
            "\"cache_hits\": 700",
            "\"wall_s\": 0.250000",
            "\"wall_over_modeled\"",
            // Stages with zero modeled time (the zeroed distance stage in
            // this sample) report null skew, not a fake 0.0.
            "\"wall_over_modeled\": null",
            "\"modeled_kernel_ms_7800gtx\"",
            "\"opt\": {",
            "\"kernel\": \"band_sum\", \"raw_instructions\": 5, \"opt_instructions\": 4",
            "\"kernel\": \"mei_partial\", \"raw_instructions\": 22, \"opt_instructions\": 19",
            "\"dynamic_instructions_raw\"",
            "\"dynamic_reduction_pct\"",
            "\"eliminated\": {\"consts_folded\": ",
            "\"modeled_kernel_ms_raw_7800gtx\"",
            "\"modeled_kernel_ms_opt_7800gtx\"",
            "\"isa_microbench\": {\"wall_raw_s\": 0.041000, \"wall_opt_s\": 0.034000}",
            "\"fusion\": {",
            "\"producer_kernel\": \"normalize\"",
            "\"mode\": \"substitute-site-coord\"",
            "\"normalize_distance_fetches_per_fragment\": {\"fused\": 462, \"unfused\": 672}",
            "\"static_fetch_reduction_pct\": 31.250000",
            "\"zero_fill_skips\": 41",
            "\"unfused_arm\": {",
            "\"distance_wall_s\": 0.310000",
            "\"measured_fetch_reduction_pct\": 100.000000",
            "\"fleet\": {",
            "\"chunking\": {\"lines_per_chunk\": 16, \"halo\": 2}",
            "\"baseline_device\": \"7800gtx\"",
            "\"baseline_modeled_s\": 0.024000",
            "\"name\": \"7800gtx+7800gtx\"",
            // 0.024 / 0.0125 — derived from the rounded inputs.
            "\"modeled_speedup\": 1.920000",
            "\"planned\": [0, 1]",
            "\"executed\": [0, 1, 3]",
            "\"modeled_s\": 0.007500",
            "\"gpu_caches\": {\"verify_runs\": 7",
            "\"cache_hit_rates\": {\"verify\": 0.995025",
            "\"name\": \"gpu.pass_wall\", \"count\": 1407",
            "\"buckets\": [{\"lo_ns\": 1048576, \"hi_ns\": 2097151, \"count\": 900}, \
             {\"lo_ns\": 4194304, \"hi_ns\": 8388607, \"count\": 507}]",
            "\"analysis\": {",
            "\"name\": \"headline\"",
            // 1.1 / 1.25 and 0.3 / 0.4 — derived from the rounded inputs.
            "\"critical_path_share\": 0.880000",
            "\"critical_path_stages\": [{\"stage\": \"distance\", \"self_s\": 0.600000}",
            "\"pack\": {\"total_s\": 0.400000, \"hidden_s\": 0.300000, \
             \"overlap_efficiency\": 0.750000}",
            "\"bus\": {\"busy_s\": 0.200000, \"contended_s\": 0.050000}",
            // 1.2 / 1.25 — thread utilization is derived, never parsed.
            "\"name\": \"main\", \"busy_s\": 1.200000, \"utilization\": 0.960000",
            "\"fleet\": null",
            // mean(0.6, 0.45) / 0.6 — the trace-side balance metric.
            "\"load_balance\": 0.875000",
            "\"device\": 0, \"label\": \"device0.7800gtx\", \"chunks\": 3, \"stolen\": 1",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
        // 6 pipeline stages plus the 4 critical-path attribution buckets in
        // the sample's analysis arms.
        assert_eq!(json.matches("\"stage\": ").count(), 10);
        assert_eq!(json.matches("\"kernel\": ").count(), 6);
        assert!(
            !json.contains("\"wall_over_modeled\": 0.000000"),
            "zero-modeled stages must serialize null skew:\n{json}"
        );
    }

    #[test]
    fn round_trip_is_bit_stable() {
        // Parse → re-serialize must reproduce the document byte for byte;
        // anything less means derived fields drifted from their inputs.
        let doc = to_json(&sample_run());
        let parsed = from_json(&doc).expect("document parses");
        assert_eq!(to_json(&parsed), doc);
        // And a second round proves the fixed point.
        let doc2 = to_json(&from_json(&to_json(&parsed)).unwrap());
        assert_eq!(doc2, doc);
    }

    #[test]
    fn schema_drift_fails_loudly() {
        let doc = to_json(&sample_run());
        // Wrong version.
        let old = doc.replace("\"schema_version\": 7", "\"schema_version\": 3");
        let err = from_json(&old).expect_err("version 3 must be rejected");
        assert!(err.contains("schema_version 3"), "{err}");
        // Unversioned document (the pre-observability layout).
        let unversioned = doc.replacen("  \"schema_version\": 7,\n", "", 1);
        let err = from_json(&unversioned).expect_err("missing version must be rejected");
        assert!(err.contains("schema_version"), "{err}");
        // A missing input key is an error, not a default.
        let broken = doc.replacen("\"cpu_tail_wall_s\"", "\"renamed_key\"", 1);
        assert!(from_json(&broken).is_err());
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

    #[test]
    fn parser_handles_escapes_and_nesting() {
        let mut p = Parser::new(r#"{"a": [1, 2.5, -3e2], "s": "q\"\\\nA", "b": true}"#);
        let v = p.value().unwrap();
        assert_eq!(v.get("a").unwrap().arr().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().arr().unwrap()[2].num().unwrap(), -300.0);
        assert_eq!(v.get("s").unwrap().str().unwrap(), "q\"\\\nA");
        assert_eq!(v.get("b").unwrap(), &Json::Bool(true));
        assert!(v.get("missing").is_err());
    }
}
