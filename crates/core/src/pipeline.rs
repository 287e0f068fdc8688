//! The stream-based AMC pipeline (Fig. 4 of the paper).
//!
//! Per spatial chunk the stages are:
//!
//! 1. **Stream uploading** — band-group planes ([`crate::layout`]) become
//!    textures on the device.
//! 2. **Normalization** — band sums accumulate over the group stack
//!    (ping-pong), then each group is divided by the total (eqs. 3–4).
//! 3. **Cumulative distance** — the `D_B` field of eq. 1 accumulates one
//!    partial SID per (SE offset, band group) pass; neighbour access is a
//!    δ-shifted texture-coordinate set.
//! 4. **Maximum and minimum** — a running `(minval, minidx, maxval, maxidx)`
//!    state stream folds in each neighbour's cumulative distance (eqs. 5–6).
//! 5. **Compute SID** — dependent texture reads fetch the erosion and
//!    dilation pixels selected by stage 4 and accumulate their SID over the
//!    band groups: the MEI score.
//! 6. **Stream downloading** — the MEI stream (and the min/max index
//!    stream) return to the host.
//!
//! Chunking follows the paper: when the working set exceeds video memory
//! the image is split into runs of entire lines ("chunks made up of entire
//! pixel vectors"), with enough halo lines (2× the SE radius — the field at
//! a neighbour looks one radius further) for chunked output to be exactly
//! chunk-free.

use crate::fleet::{self, Dispatch};
use crate::graph::{self, CompiledGraph, PassDecl, RenderGraph, TexHandle, TexKind};
use crate::kernels;
use crate::layout;
use gpu_sim::counters::PassStats;
use gpu_sim::device::GpuProfile;
use gpu_sim::gpu::{Gpu, TextureId};
use gpu_sim::isa::Program;
use gpu_sim::raster::TexCoordSet;
use gpu_sim::verify::PassBindings;
use hsi::cube::{Chunking, Cube};
use hsi::morphology::{MeiImage, StructuringElement};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use trace::ArgValue;

/// Which kernel form executes the pipeline. The assembled fp30 programs
/// are the only form; the enum names it in the driver's constructor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelMode {
    /// Assembled fp30-style programs, compiled into the render graph and
    /// shaded through the ISA interpreter.
    #[default]
    Isa,
}

impl KernelMode {
    /// Stable lowercase name.
    pub fn as_str(self) -> &'static str {
        match self {
            KernelMode::Isa => "isa",
        }
    }

    /// Parse a name produced by [`KernelMode::as_str`].
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "isa" => Some(KernelMode::Isa),
            _ => None,
        }
    }
}

impl fmt::Display for KernelMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Pipeline errors: device errors plus host-side validation.
#[derive(Debug)]
pub enum AmcError {
    /// Error from the simulated device.
    Gpu(gpu_sim::GpuError),
    /// Error from the hyperspectral substrate.
    Hsi(hsi::HsiError),
    /// The declarative render graph was rejected at compile time.
    Graph(graph::CompileError),
    /// No chunking fits the device: even a single image line (with its
    /// halo) needs more video memory than the budget provides.
    ChunkingInfeasible {
        /// Image width in pixels.
        width: usize,
        /// Spectral band count.
        bands: usize,
        /// Bytes the smallest possible chunk would need.
        required: usize,
        /// Video-memory budget the plan had to fit, in bytes.
        budget: usize,
    },
}

impl fmt::Display for AmcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AmcError::Gpu(e) => write!(f, "gpu: {e}"),
            AmcError::Hsi(e) => write!(f, "hsi: {e}"),
            AmcError::Graph(e) => write!(f, "graph: {e}"),
            AmcError::ChunkingInfeasible {
                width,
                bands,
                required,
                budget,
            } => write!(
                f,
                "chunking infeasible: one line of a {width}x{bands}-band cube \
                 needs {required} B of video memory, budget is {budget} B"
            ),
        }
    }
}

impl std::error::Error for AmcError {}

impl From<gpu_sim::GpuError> for AmcError {
    fn from(e: gpu_sim::GpuError) -> Self {
        AmcError::Gpu(e)
    }
}

impl From<hsi::HsiError> for AmcError {
    fn from(e: hsi::HsiError) -> Self {
        AmcError::Hsi(e)
    }
}

/// Result alias.
pub type Result<T> = std::result::Result<T, AmcError>;

/// Work counted per pipeline stage (Fig. 4's six boxes). Stage 2's two
/// kernels (band sum + normalize) share the `normalize` bucket; the sum of
/// all six buckets equals [`PipelineOutput::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageStats {
    /// Stage 1: stream uploading (band planes + offset LUT).
    pub upload: PassStats,
    /// Stage 2: band-sum and normalize passes.
    pub normalize: PassStats,
    /// Stage 3: cumulative-distance (SID partial) passes.
    pub distance: PassStats,
    /// Stage 4: min/max init and update passes.
    pub minmax: PassStats,
    /// Stage 5: MEI accumulation passes.
    pub mei: PassStats,
    /// Stage 6: stream downloading (MEI + state streams).
    pub download: PassStats,
}

impl StageStats {
    /// Accumulate another breakdown into this one, stage by stage.
    pub fn add(&mut self, other: &StageStats) {
        self.upload.add(&other.upload);
        self.normalize.add(&other.normalize);
        self.distance.add(&other.distance);
        self.minmax.add(&other.minmax);
        self.mei.add(&other.mei);
        self.download.add(&other.download);
    }

    /// Sum of all six stages.
    pub fn total(&self) -> PassStats {
        let mut t = self.upload;
        t.add(&self.normalize);
        t.add(&self.distance);
        t.add(&self.minmax);
        t.add(&self.mei);
        t.add(&self.download);
        t
    }
}

/// Host wall-clock seconds per pipeline stage, summed over chunks.
///
/// Complements [`StageStats`]: the counters feed the *modeled* GPU
/// milliseconds of `gpu_sim::timing`, while these are *measured* host
/// seconds for the same stage sections — their ratio is the
/// modeled-vs-wall skew `amc_profile` prints per stage.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageWall {
    /// Stage 1: stream uploading.
    pub upload_s: f64,
    /// Stage 2: band-sum and normalize passes.
    pub normalize_s: f64,
    /// Stage 3: cumulative-distance passes.
    pub distance_s: f64,
    /// Stage 4: min/max passes.
    pub minmax_s: f64,
    /// Stage 5: MEI accumulation passes.
    pub mei_s: f64,
    /// Stage 6: stream downloading.
    pub download_s: f64,
}

impl StageWall {
    /// Accumulate another breakdown into this one, stage by stage.
    pub fn add(&mut self, other: &StageWall) {
        self.upload_s += other.upload_s;
        self.normalize_s += other.normalize_s;
        self.distance_s += other.distance_s;
        self.minmax_s += other.minmax_s;
        self.mei_s += other.mei_s;
        self.download_s += other.download_s;
    }

    /// Sum of all six stages, seconds.
    pub fn total_s(&self) -> f64 {
        self.upload_s
            + self.normalize_s
            + self.distance_s
            + self.minmax_s
            + self.mei_s
            + self.download_s
    }

    /// `(stage name, seconds)` in pipeline order, for serialization.
    pub fn as_named(&self) -> [(&'static str, f64); 6] {
        [
            ("upload", self.upload_s),
            ("normalize", self.normalize_s),
            ("distance", self.distance_s),
            ("minmax", self.minmax_s),
            ("mei", self.mei_s),
            ("download", self.download_s),
        ]
    }
}

/// Host-side readback buffers reused across chunks (stage 6 lands here
/// instead of allocating fresh vectors per chunk), and the textures the
/// current chunk holds.
#[derive(Debug, Default)]
pub(crate) struct ChunkScratch {
    mei_flat: Vec<f32>,
    state_flat: Vec<f32>,
    /// Band planes, offset LUT and graph outputs the chunk drew from the
    /// device pool, all released when the chunk ends.
    held: Vec<TextureId>,
}

/// Output of one pipeline run over a full image.
#[derive(Debug, Clone)]
pub struct PipelineOutput {
    /// The MEI score image (stage 5 output).
    pub mei: MeiImage,
    /// Per-pixel SE-offset index of the erosion pixel.
    pub min_index: Vec<u32>,
    /// Per-pixel SE-offset index of the dilation pixel.
    pub max_index: Vec<u32>,
    /// Work counted across all passes and chunks.
    pub stats: PassStats,
    /// The same work broken down by pipeline stage.
    pub stages: StageStats,
    /// Measured host wall-clock per stage section (all chunks summed).
    pub stage_wall: StageWall,
    /// Number of chunks processed.
    pub chunks: usize,
}

/// Output of a full hybrid AMC run: the GPU stream pipeline (steps 1–2)
/// followed by the batched CPU classification tail (steps 3–4).
#[derive(Debug, Clone)]
pub struct HybridOutput {
    /// GPU pipeline output (MEI image, counters, chunk count).
    pub pipeline: PipelineOutput,
    /// CPU-tail classification result.
    pub classification: hsi::classify::AmcOutput,
    /// Stage breakdown of the CPU tail (selection/unmix/classify/argmax).
    pub tail: hsi::classify::TailBreakdown,
    /// Host wall-clock seconds of the GPU pipeline phase.
    pub gpu_wall_s: f64,
    /// Host wall-clock seconds of the CPU tail phase.
    pub tail_wall_s: f64,
}

/// Every stage kernel, as assembled, with the exact [`PassBindings`] it
/// runs under, in pipeline order (band sum, normalize, partial SID, min/max
/// init, min/max update, MEI): the first pass of each program in the
/// declared AMC graph, with [`graph::pass_bindings`]. These are the
/// bindings [`graph::compile`] optimizes, verifies and lowers each program
/// under.
pub fn stage_cases() -> Vec<(Program, PassBindings)> {
    let se = StructuringElement::square(3).expect("3x3 is a valid SE");
    let (g, ..) = GpuAmc::new(se, KernelMode::Isa).declare_amc_graph(4, 4, 4);
    let mut cases: Vec<(Program, PassBindings)> = Vec::new();
    for p in g.passes {
        if cases.iter().all(|(prog, _)| prog.name != p.program.name) {
            let bindings = graph::pass_bindings(p.inputs.len(), p.texcoords.len(), &p.constants);
            cases.push((p.program, bindings));
        }
    }
    cases
}

/// Cache key for compiled AMC graphs: device profile + chunk geometry.
type GraphKey = (&'static str, usize, usize, usize);

/// A compiled AMC chunk graph plus the handles the pipeline needs to feed
/// and drain it.
#[derive(Debug)]
struct AmcGraph {
    compiled: CompiledGraph,
    bands: Vec<TexHandle>,
    lut: TexHandle,
    mei: TexHandle,
    state: TexHandle,
}

/// The GPU AMC pipeline driver. It is `Sync`: every device thread of a
/// [`fleet::DeviceFleet`] shades through the caller's one driver.
#[derive(Debug)]
pub struct GpuAmc {
    se: StructuringElement,
    fuse: bool,
    /// Compiled graphs cached per (device, chunk geometry): every full
    /// chunk of a run shares one compile, the ragged last chunk gets its
    /// own, and repeat runs (on any device of that profile) reuse both.
    graphs: Mutex<HashMap<GraphKey, Arc<AmcGraph>>>,
}

impl GpuAmc {
    /// Create a driver for the given structuring element. Every chunk runs
    /// through the compiled render graph, fused by default; switch to the
    /// unfused oracle schedule with [`GpuAmc::set_fusion`].
    pub fn new(se: StructuringElement, _mode: KernelMode) -> Self {
        Self {
            se,
            fuse: true,
            graphs: Mutex::new(HashMap::new()),
        }
    }

    /// The structuring element.
    pub fn se(&self) -> &StructuringElement {
        &self.se
    }

    /// Whether chunks run the fused graph (`true`) or the unfused
    /// pass-per-kernel oracle (`false`).
    pub fn fusion(&self) -> bool {
        self.fuse
    }

    /// Turn fusion on or off. Clears the compiled-graph cache.
    pub fn set_fusion(&mut self, fuse: bool) {
        self.fuse = fuse;
        self.graphs
            .get_mut()
            .expect("a graph compile panicked")
            .clear();
    }

    /// Compile the AMC render graph for one chunk geometry, for
    /// introspection (`tables -- graph`):
    /// declares the same graph the executor runs and compiles it fresh —
    /// no cache — with fusion per `fuse`, independent of [`Self::fusion`].
    pub fn compile_graph(
        &self,
        profile: &GpuProfile,
        width: usize,
        height: usize,
        bands: usize,
        fuse: bool,
    ) -> Result<graph::CompiledGraph> {
        let (g, _, _, _, _) = self.declare_amc_graph(width, height, bands);
        graph::compile(&g, profile, fuse).map_err(AmcError::Graph)
    }

    /// Video-memory bytes one chunk of `lines` lines needs under this
    /// driver's schedule, where G is the band-group count.
    ///
    /// Fused, the G band planes stay resident through the distance and MEI
    /// stages (their fetches are inlined there) alongside the surviving
    /// sum/field/state/MEI planes: `G + 12` planes. Unfused, all G
    /// normalized planes also stay live from normalization to the MEI
    /// stage, next to the band planes and the sum, field, state and MEI
    /// ping-pong planes: `2G + 12` planes. Either adds the offset LUT.
    pub fn chunk_bytes(&self, width: usize, lines: usize, bands: usize) -> usize {
        let plane = layout::plane_bytes(width, lines);
        let groups = layout::band_groups(bands);
        let planes = 12 + if self.fuse { groups } else { 2 * groups };
        planes * plane + self.se.len() * 16
    }

    /// Declare the AMC chunk pipeline as a [`RenderGraph`]: the Fig. 4
    /// pass chain in SSA form (each accumulator is a chain of single-writer
    /// logical textures), with every program, stage tag, coordinate set and
    /// pass constant. Its δ-shifted halo reads and dependent LUT reads are
    /// exact at chunk edges because every texture clamps to the edge.
    fn declare_amc_graph(
        &self,
        w: usize,
        h: usize,
        bands: usize,
    ) -> (RenderGraph, Vec<TexHandle>, TexHandle, TexHandle, TexHandle) {
        let groups = layout::band_groups(bands);
        let offsets = self.se.offsets();
        let p_b = offsets.len();
        let mut g = RenderGraph::new();
        let transient = TexKind::Transient { zeroed: false };
        let bands_h: Vec<TexHandle> = (0..groups)
            .map(|i| g.texture(format!("band{i}"), w, h, TexKind::Imported))
            .collect();
        let lut = g.texture("lut", p_b, 1, TexKind::Imported);
        // Normalization: band-sum accumulator chain, then one normalize
        // pass per group.
        let band_sum = kernels::band_sum_program();
        let mut sum = g.texture("sum_seed", w, h, TexKind::Transient { zeroed: true });
        for (i, &bt) in bands_h.iter().enumerate() {
            let next = g.texture(format!("sum{i}"), w, h, transient);
            g.add_pass(PassDecl {
                name: format!("band_sum{i}"),
                stage: "normalize",
                program: band_sum.clone(),
                inputs: vec![bt, sum],
                texcoords: vec![TexCoordSet::identity()],
                constants: vec![],
                output: next,
            });
            sum = next;
        }
        let norms: Vec<TexHandle> = (0..groups)
            .map(|i| g.texture(format!("norm{i}"), w, h, transient))
            .collect();
        let normalize = kernels::normalize_program();
        for (i, (&bt, &nt)) in bands_h.iter().zip(&norms).enumerate() {
            g.add_pass(PassDecl {
                name: format!("normalize{i}"),
                stage: "normalize",
                program: normalize.clone(),
                inputs: vec![bt, sum],
                texcoords: vec![TexCoordSet::identity()],
                constants: vec![],
                output: nt,
            });
        }
        // Cumulative distance: one accumulator chain over (δ, group).
        let sid = kernels::sid_partial_program();
        let mut d = g.texture("d_seed", w, h, TexKind::Transient { zeroed: true });
        for (di, &(dx, dy)) in offsets.iter().filter(|&&o| o != (0, 0)).enumerate() {
            for (i, &nt) in norms.iter().enumerate() {
                let next = g.texture(format!("d{di}_{i}"), w, h, transient);
                g.add_pass(PassDecl {
                    name: format!("sid{di}_{i}"),
                    stage: "distance",
                    program: sid.clone(),
                    inputs: vec![nt, d],
                    texcoords: vec![
                        TexCoordSet::identity(),
                        TexCoordSet::shifted_texels(dx, dy, w, h),
                    ],
                    constants: vec![],
                    output: next,
                });
                d = next;
            }
        }
        // Min/max fold over the SE neighbourhood. The last state is the
        // output, whichever pass writes it: `minmax_init` for a 1x1 SE.
        let state_tex = |g: &mut RenderGraph, k: usize| {
            if k + 1 == p_b {
                g.texture("state_out", w, h, TexKind::Output)
            } else {
                g.texture(format!("state{k}"), w, h, transient)
            }
        };
        let mut state = state_tex(&mut g, 0);
        {
            let (dx, dy) = offsets[0];
            g.add_pass(PassDecl {
                name: "minmax_init".into(),
                stage: "minmax",
                program: kernels::minmax_init_program(),
                inputs: vec![d],
                texcoords: vec![TexCoordSet::shifted_texels(dx, dy, w, h)],
                constants: vec![],
                output: state,
            });
        }
        let minmax_update = kernels::minmax_update_program();
        for (k, &(dx, dy)) in offsets.iter().enumerate().skip(1) {
            let next = state_tex(&mut g, k);
            g.add_pass(PassDecl {
                name: format!("minmax_update{k}"),
                stage: "minmax",
                program: minmax_update.clone(),
                inputs: vec![state, d],
                texcoords: vec![
                    TexCoordSet::identity(),
                    TexCoordSet::shifted_texels(dx, dy, w, h),
                ],
                constants: vec![(0, [k as f32; 4])],
                output: next,
            });
            state = next;
        }
        // MEI accumulation over the band groups.
        let mei = kernels::mei_partial_program();
        let mut mei_acc = g.texture("mei_seed", w, h, TexKind::Transient { zeroed: true });
        let mei_const = [1.0 / p_b as f32, 0.5 / p_b as f32, 0.5, 0.0];
        for (i, &nt) in norms.iter().enumerate() {
            let next = if i + 1 == groups {
                g.texture("mei_out", w, h, TexKind::Output)
            } else {
                g.texture(format!("mei{i}"), w, h, transient)
            };
            g.add_pass(PassDecl {
                name: format!("mei{i}"),
                stage: "mei",
                program: mei.clone(),
                inputs: vec![nt, state, mei_acc, lut],
                texcoords: vec![TexCoordSet::identity()],
                constants: vec![(2, mei_const)],
                output: next,
            });
            mei_acc = next;
        }
        (g, bands_h, lut, mei_acc, state)
    }

    /// Fetch (or compile and cache) the AMC graph for one device profile
    /// and chunk geometry.
    fn compiled_graph_for(
        &self,
        profile: &GpuProfile,
        w: usize,
        h: usize,
        bands: usize,
    ) -> Result<Arc<AmcGraph>> {
        let key: GraphKey = (profile.name, w, h, bands);
        // Held across the compile, so device threads that miss on the same
        // geometry compile it once.
        let mut graphs = self.graphs.lock().expect("a graph compile panicked");
        if let Some(cached) = graphs.get(&key) {
            return Ok(cached.clone());
        }
        let _span = trace::span("pipeline.graph_compile", profile.name);
        let (g, bands_h, lut, mei, state) = self.declare_amc_graph(w, h, bands);
        let compiled = graph::compile(&g, profile, self.fuse).map_err(AmcError::Graph)?;
        let amc = Arc::new(AmcGraph {
            compiled,
            bands: bands_h,
            lut,
            mei,
            state,
        });
        graphs.insert(key, amc.clone());
        Ok(amc)
    }

    /// Pick a chunking that fits the device's video memory, or report that
    /// none exists.
    pub fn plan_chunking(&self, gpu: &Gpu, cube: &Cube) -> Result<Chunking> {
        let dims = cube.dims();
        self.plan_chunking_for_budget(
            gpu.profile().video_memory_bytes(),
            dims.width,
            dims.height,
            dims.bands,
        )
    }

    /// Pick the largest chunking whose every chunk fits `budget` bytes.
    ///
    /// A chunk of `lines` body lines is at most `lines + 2·halo` lines tall
    /// (edge chunks carry one halo, and no chunk exceeds the image), and
    /// [`GpuAmc::chunk_bytes`] is monotone in chunk height, so the fit
    /// predicate is monotone and a binary search finds the exact boundary —
    /// unlike a halving probe, which can skip feasible sizes and never
    /// re-checks that its final candidate actually fits.
    pub fn plan_chunking_for_budget(
        &self,
        budget: usize,
        width: usize,
        height: usize,
        bands: usize,
    ) -> Result<Chunking> {
        let _span = trace::span("pipeline.plan", "plan");
        let halo = 2 * self.se.radius_y();
        let height = height.max(1);
        let chunk_height = |lines: usize| (lines + 2 * halo).min(height);
        let fits = |lines: usize| self.chunk_bytes(width, chunk_height(lines), bands) <= budget;
        if !fits(1) {
            return Err(AmcError::ChunkingInfeasible {
                width,
                bands,
                required: self.chunk_bytes(width, chunk_height(1), bands),
                budget,
            });
        }
        // Largest feasible line count in [1, height].
        let (mut lo, mut hi) = (1usize, height);
        while lo < hi {
            let mid = lo + (hi - lo).div_ceil(2);
            if fits(mid) {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        Ok(Chunking::new(lo, halo))
    }

    /// Run the full pipeline over a cube, chunking as needed.
    pub fn run(&self, gpu: &mut Gpu, cube: &Cube) -> Result<PipelineOutput> {
        let chunking = self.plan_chunking(gpu, cube)?;
        self.run_with_chunking(gpu, cube, chunking)
    }

    /// The paper's hybrid partitioning end to end: the chunked GPU stream
    /// pipeline produces the MEI image (steps 1–2), then the classifier's
    /// batched CPU tail selects endmembers, unmixes and labels (steps 3–4).
    ///
    /// The classifier's structuring element and the driver's should agree for
    /// the run to be meaningful; the MEI handoff itself is shape-checked.
    pub fn run_and_classify(
        &self,
        gpu: &mut Gpu,
        cube: &Cube,
        classifier: &hsi::classify::AmcClassifier,
    ) -> Result<HybridOutput> {
        let t = std::time::Instant::now();
        let pipeline = {
            let _phase = trace::span("pipeline.phase", "gpu_pipeline");
            self.run(gpu, cube)?
        };
        let gpu_wall_s = t.elapsed().as_secs_f64();
        let t = std::time::Instant::now();
        let (classification, tail) = {
            let _phase = trace::span("pipeline.phase", "cpu_tail");
            classifier.classify_with_mei_timed(cube, pipeline.mei.clone())?
        };
        let tail_wall_s = t.elapsed().as_secs_f64();
        Ok(HybridOutput {
            pipeline,
            classification,
            tail,
            gpu_wall_s,
            tail_wall_s,
        })
    }

    /// Run the full pipeline with an explicit chunking.
    ///
    /// The chunks stream through the loop every fleet device runs
    /// (`fleet::run_device`), here on the calling thread over one queue
    /// that holds every chunk in order: chunk N+1's band groups are packed
    /// on a scoped thread while chunk N shades, and the bodies are stitched
    /// in chunk order. Textures return to the device pool and stay there,
    /// so a repeat run on the same `gpu` allocates none.
    pub fn run_with_chunking(
        &self,
        gpu: &mut Gpu,
        cube: &Cube,
        chunking: Chunking,
    ) -> Result<PipelineOutput> {
        let chunks: Vec<_> = cube.chunks(chunking).collect();
        // Wall anchor for the analyzer: one span bracketing the whole
        // chunked run, carrying the plan shape the chunk DAG hangs off.
        let _run_span = trace::span_with(
            "pipeline.run",
            "run",
            &[
                ("chunks", ArgValue::U64(chunks.len() as u64)),
                ("lines", ArgValue::U64(chunking.lines_per_chunk as u64)),
            ],
        );
        let dispatch = Mutex::new(Dispatch::in_order(chunks.len()));
        let run = fleet::run_device(self, gpu, None, &chunks, &[], &dispatch)?;
        Ok(fleet::merge(cube.dims(), &chunks, run.results))
    }

    /// Run one chunk of pre-packed band groups (`w x h x bands`) through
    /// the compiled render graph: upload, execute the graph
    /// (normalize/distance/minmax/mei stages), download. Textures are drawn
    /// from (and returned to) the device pool, whether or not the chunk
    /// shades, so a failed chunk leaves no texture live on `gpu`;
    /// readbacks land in `scratch` so repeat chunks allocate nothing on
    /// the host either.
    pub(crate) fn run_chunk_graph(
        &self,
        gpu: &mut Gpu,
        w: usize,
        h: usize,
        bands: usize,
        packed: &[Vec<f32>],
        scratch: &mut ChunkScratch,
    ) -> Result<PipelineOutput> {
        let out = self.shade_chunk(gpu, w, h, bands, packed, scratch);
        for id in scratch.held.drain(..) {
            gpu.release_pooled(id)?;
        }
        out
    }

    /// [`GpuAmc::run_chunk_graph`]'s stages. Every texture it draws stays
    /// on `scratch.held` for the caller to release.
    fn shade_chunk(
        &self,
        gpu: &mut Gpu,
        w: usize,
        h: usize,
        bands: usize,
        packed: &[Vec<f32>],
        scratch: &mut ChunkScratch,
    ) -> Result<PipelineOutput> {
        let groups = layout::band_groups(bands);
        debug_assert_eq!(packed.len(), groups, "pre-packed group count");
        let offsets = self.se.offsets();
        let p_b = offsets.len();
        let mut stages = StageStats::default();
        let mut wall = StageWall::default();

        // -- Stage 1: stream uploading ------------------------------------
        let stage_span = trace::span("pipeline.stage", "upload");
        let stage_start = Instant::now();
        let before_upload = gpu.stats();
        for plane in packed {
            let t = gpu.alloc_pooled(w, h)?;
            scratch.held.push(t);
            gpu.upload(t, plane)?;
        }
        let lut = gpu.alloc_pooled(p_b, 1)?;
        scratch.held.push(lut);
        gpu.upload(lut, &kernels::offset_lut(&offsets, w, h))?;
        stages.upload = gpu.stats();
        stages.upload.sub(&before_upload);
        wall.upload_s = stage_start.elapsed().as_secs_f64();
        drop(stage_span);

        // -- Stages 2-5: the compiled graph --------------------------------
        let profile = gpu.profile().clone();
        let amc = self.compiled_graph_for(&profile, w, h, bands)?;
        let mut imports: Vec<(TexHandle, TextureId)> = amc
            .bands
            .iter()
            .copied()
            .zip(scratch.held[..groups].iter().copied())
            .collect();
        imports.push((amc.lut, lut));
        let report = amc.compiled.execute(gpu, &imports)?;
        scratch
            .held
            .extend(report.outputs.iter().map(|&(_, id)| id));
        for run in &report.stages {
            match run.name {
                "normalize" => {
                    stages.normalize.add(&run.stats);
                    wall.normalize_s += run.wall_s;
                }
                "distance" => {
                    stages.distance.add(&run.stats);
                    wall.distance_s += run.wall_s;
                }
                "minmax" => {
                    stages.minmax.add(&run.stats);
                    wall.minmax_s += run.wall_s;
                }
                "mei" => {
                    stages.mei.add(&run.stats);
                    wall.mei_s += run.wall_s;
                }
                other => debug_assert!(false, "unknown graph stage `{other}`"),
            }
        }

        // -- Stage 6: stream downloading ------------------------------------
        let stage_span = trace::span("pipeline.stage", "download");
        let stage_start = Instant::now();
        let before_download = gpu.stats();
        let output_id = |h: TexHandle| {
            report
                .outputs
                .iter()
                .find(|&&(oh, _)| oh == h)
                .map(|&(_, id)| id)
                .expect("graph output rendered")
        };
        let (mei_id, state_id) = (output_id(amc.mei), output_id(amc.state));
        gpu.download_into(mei_id, &mut scratch.mei_flat)?;
        gpu.download_into(state_id, &mut scratch.state_flat)?;
        stages.download = gpu.stats();
        stages.download.sub(&before_download);
        let mut scores = Vec::with_capacity(w * h);
        let mut min_index = Vec::with_capacity(w * h);
        let mut max_index = Vec::with_capacity(w * h);
        for texel in scratch.mei_flat.chunks_exact(4) {
            scores.push(texel[0]);
        }
        for texel in scratch.state_flat.chunks_exact(4) {
            min_index.push(texel[1].round() as u32);
            max_index.push(texel[3].round() as u32);
        }
        wall.download_s = stage_start.elapsed().as_secs_f64();
        drop(stage_span);

        Ok(PipelineOutput {
            mei: MeiImage {
                width: w,
                height: h,
                scores,
            },
            min_index,
            max_index,
            stats: stages.total(),
            stages,
            stage_wall: wall,
            chunks: 1,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::device::GpuProfile;
    use hsi::cube::{CubeDims, Interleave};
    use hsi::morphology::{self, StructuringElement};

    fn test_cube(w: usize, h: usize, bands: usize, seed: u64) -> Cube {
        // Deterministic pseudo-random positive radiances.
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 40) as f32 / 16777216.0 // [0, 1)
        };
        Cube::from_fn(CubeDims::new(w, h, bands), Interleave::Bip, |_, _, _| {
            50.0 + 200.0 * next()
        })
        .unwrap()
    }

    fn reference_mei(cube: &Cube, se: &StructuringElement) -> (MeiImage, Vec<u32>, Vec<u32>) {
        let norm = morphology::normalize_cube(cube);
        let (mei, morph) = morphology::mei(&norm, se);
        (mei, morph.min_index, morph.max_index)
    }

    fn assert_close(a: &[f32], b: &[f32], tol: f32, what: &str) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())),
                "{what}[{i}]: {x} vs {y}"
            );
        }
    }

    #[test]
    fn pipeline_matches_cpu_reference() {
        let cube = test_cube(12, 9, 10, 7);
        let se = StructuringElement::square(3).unwrap();
        let mut gpu = Gpu::new(GpuProfile::geforce_7800gtx());
        let amc = GpuAmc::new(se.clone(), KernelMode::Isa);
        let out = amc.run(&mut gpu, &cube).unwrap();
        let (ref_mei, ref_min, ref_max) = reference_mei(&cube, &se);
        assert_close(&out.mei.scores, &ref_mei.scores, 1e-4, "mei");
        assert_eq!(out.min_index, ref_min);
        assert_eq!(out.max_index, ref_max);
        assert_eq!(out.chunks, 1);
        assert!(
            gpu.allocated_bytes() == 0,
            "pipeline must free its textures"
        );
    }

    #[test]
    fn run_and_classify_matches_separate_phases() {
        let cube = test_cube(12, 9, 8, 23);
        let se = StructuringElement::square(3).unwrap();
        let mut gpu = Gpu::new(GpuProfile::geforce_7800gtx());
        let amc = GpuAmc::new(se, KernelMode::Isa);
        let classifier =
            hsi::classify::AmcClassifier::new(hsi::classify::AmcConfig::paper_default(3));
        let hybrid = amc.run_and_classify(&mut gpu, &cube, &classifier).unwrap();
        // Same labels as handing the MEI over manually.
        let manual = classifier
            .classify_with_mei(&cube, hybrid.pipeline.mei.clone())
            .unwrap();
        assert_eq!(hybrid.classification.labels, manual.labels);
        assert_eq!(hybrid.classification.labels.len(), cube.dims().pixels());
        // Wall clocks and the tail breakdown are populated and plausible.
        assert!(hybrid.gpu_wall_s >= 0.0 && hybrid.tail_wall_s >= 0.0);
        let t = hybrid.tail;
        assert!(t.selection_s >= 0.0 && t.unmix_s >= 0.0);
        assert!(t.classify_s >= 0.0 && t.argmax_s >= 0.0);
        assert!(t.selection_s + t.classify_s <= hybrid.tail_wall_s + 1.0);
        assert!(t.atgp_s >= 0.0 && t.means_s >= 0.0 && t.reseed_s >= 0.0);
        assert_eq!(t.selection_s, t.atgp_s + t.means_s + t.reseed_s);
    }

    #[test]
    fn batched_isa_pipeline_matches_scalar_at_every_thread_count() {
        // Full ISA classification (GPU pipeline + CPU tail) with the
        // straight-line tile executor vs the per-fragment oracle
        // (`set_batch_execution(false)`), at one worker thread and at the
        // default count: MEI scores, labels, and every PassStats field must
        // be bit-identical.
        let cube = test_cube(21, 11, 6, 7); // ragged vs 64x4 tiles
        let se = StructuringElement::square(3).unwrap();
        let classifier =
            hsi::classify::AmcClassifier::new(hsi::classify::AmcConfig::paper_default(3));
        let run = |batch: bool| {
            let mut gpu = Gpu::new(GpuProfile::fx5950_ultra());
            gpu.set_batch_execution(batch);
            GpuAmc::new(se.clone(), KernelMode::Isa)
                .run_and_classify(&mut gpu, &cube, &classifier)
                .unwrap()
        };
        let baseline = run(false);
        for threads in [Some(1), None] {
            let batched = match threads {
                Some(n) => rayon::with_threads(n, || run(true)),
                None => run(true),
            };
            let score_bits =
                |m: &MeiImage| m.scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                score_bits(&batched.pipeline.mei),
                score_bits(&baseline.pipeline.mei),
                "MEI diverged (threads {threads:?})"
            );
            assert_eq!(batched.pipeline.min_index, baseline.pipeline.min_index);
            assert_eq!(batched.pipeline.max_index, baseline.pipeline.max_index);
            assert_eq!(
                batched.classification.labels, baseline.classification.labels,
                "labels diverged (threads {threads:?})"
            );
            assert_eq!(
                batched.pipeline.stats, baseline.pipeline.stats,
                "PassStats diverged (threads {threads:?})"
            );
        }
    }

    #[test]
    fn fused_pipeline_matches_unfused_at_every_thread_count() {
        // The fused graph schedule vs the unfused oracle (`set_fusion(false)`):
        // MEI scores and the min/max index maps must be bit-identical at one
        // worker thread and at the default count, while fusion strictly
        // reduces both passes and texel fetches.
        let cube = test_cube(21, 11, 6, 7); // ragged vs 64x4 tiles
        let se = StructuringElement::square(3).unwrap();
        let run = |fuse: bool| {
            let mut gpu = Gpu::new(GpuProfile::fx5950_ultra());
            let mut amc = GpuAmc::new(se.clone(), KernelMode::Isa);
            amc.set_fusion(fuse);
            amc.run(&mut gpu, &cube).unwrap()
        };
        let oracle = run(false);
        for threads in [Some(1), None] {
            let fused = match threads {
                Some(n) => rayon::with_threads(n, || run(true)),
                None => run(true),
            };
            let score_bits =
                |m: &MeiImage| m.scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                score_bits(&fused.mei),
                score_bits(&oracle.mei),
                "MEI diverged (threads {threads:?})"
            );
            assert_eq!(fused.min_index, oracle.min_index);
            assert_eq!(fused.max_index, oracle.max_index);
            assert!(
                fused.stats.passes < oracle.stats.passes,
                "fusion must remove passes ({} vs {})",
                fused.stats.passes,
                oracle.stats.passes
            );
            assert!(
                fused.stats.texel_fetches < oracle.stats.texel_fetches,
                "fusion must cut fetches ({} vs {})",
                fused.stats.texel_fetches,
                oracle.stats.texel_fetches
            );
        }
    }

    #[test]
    fn fused_ragged_last_chunk_matches_unfused() {
        // height 17 with 5-line chunks: 5+5+5+2 — the ragged tail compiles
        // a second graph geometry; both must stitch bit-identically.
        let cube = test_cube(9, 17, 6, 19);
        let se = StructuringElement::square(3).unwrap();
        let chunking = Chunking::new(5, 2 * se.radius_y());
        let mut gpu = Gpu::new(GpuProfile::fx5950_ultra());
        let mut fused_amc = GpuAmc::new(se.clone(), KernelMode::Isa);
        fused_amc.set_fusion(true);
        let fused = fused_amc
            .run_with_chunking(&mut gpu, &cube, chunking)
            .unwrap();
        let mut oracle_amc = GpuAmc::new(se, KernelMode::Isa);
        oracle_amc.set_fusion(false);
        let oracle = oracle_amc
            .run_with_chunking(&mut gpu, &cube, chunking)
            .unwrap();
        assert_eq!(fused.chunks, 4);
        let bits = |s: &[f32]| s.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&fused.mei.scores), bits(&oracle.mei.scores));
        assert_eq!(fused.min_index, oracle.min_index);
        assert_eq!(fused.max_index, oracle.max_index);
        assert_eq!(gpu.allocated_bytes(), 0);
        let allocs = gpu.texture_allocs();
        oracle_amc
            .run_with_chunking(&mut gpu, &cube, chunking)
            .unwrap();
        assert_eq!(
            gpu.texture_allocs(),
            allocs,
            "a repeat run allocates nothing"
        );
    }

    #[test]
    fn fusion_cuts_normalize_distance_fetches_by_thirty_percent() {
        // Static form of the fusion floor: at AVIRIS-like depth the fused
        // schedule fetches ≥ 30% fewer texels per fragment across the
        // normalize and distance stages combined.
        let se = StructuringElement::square(3).unwrap();
        let amc = GpuAmc::new(se, KernelMode::Isa);
        let (g, _, _, _, _) = amc.declare_amc_graph(8, 4, 96);
        let profile = GpuProfile::fx5950_ultra();
        let fused = graph::compile(&g, &profile, true).unwrap();
        let unfused = graph::compile(&g, &profile, false).unwrap();
        let per_frag = |c: &graph::CompiledGraph| {
            c.stage_fetches_per_fragment("normalize") + c.stage_fetches_per_fragment("distance")
        };
        let (f, u) = (per_frag(&fused), per_frag(&unfused));
        assert!(
            f * 10 <= u * 7,
            "normalize+distance fetches/fragment: fused {f} vs unfused {u} (< 30% cut)"
        );
        assert!(!fused.fusions.is_empty());
        // The normalize field producers are inlined away entirely.
        assert!(fused.eliminated.iter().any(|n| n.starts_with("normalize")));
        // Normalize inlining plus band-sum chain folding collapse the stage
        // to a couple of segmented passes.
        assert!(fused.stage_passes("normalize") < unfused.stage_passes("normalize") / 4);
    }

    #[test]
    fn executed_counters_clear_the_fusion_and_optimizer_floors() {
        // The two reduction floors on a 96-band cube. Fusion, executed: the
        // fused schedule fetches ≥ 30% fewer texels across the normalize and
        // distance stages than the unfused one. Optimizer, compiled: the
        // unfused graph's optimized programs carry ≥ 10% fewer instructions
        // per fragment than the declared ones (3,043 against 3,556). The
        // device adds no rewriting: a one-chunk run shades exactly its
        // compiled graph's instructions and fetches on every fragment.
        let (w, h, bands) = (32, 24, 96);
        let cube = test_cube(w, h, bands, 5);
        let se = StructuringElement::square(3).unwrap();
        let profile = GpuProfile::geforce_7800gtx();
        let run = |fuse: bool| {
            let mut amc = GpuAmc::new(se.clone(), KernelMode::Isa);
            amc.set_fusion(fuse);
            let out = amc.run(&mut Gpu::new(profile.clone()), &cube).unwrap();
            assert_eq!(out.chunks, 1);
            let compiled = amc.compile_graph(&profile, w, h, bands, fuse).unwrap();
            let per_fragment = |f: fn(&Program) -> usize| -> u64 {
                compiled.passes.iter().map(|p| f(&p.program) as u64).sum()
            };
            let frags = (w * h) as u64;
            assert_eq!(out.stats.instructions, per_fragment(Program::len) * frags);
            assert_eq!(
                out.stats.texel_fetches,
                per_fragment(Program::tex_count) * frags
            );
            (out, per_fragment(Program::len))
        };
        let ((fused, _), (unfused, compiled)) = (run(true), run(false));
        let fetches =
            |o: &PipelineOutput| o.stages.normalize.texel_fetches + o.stages.distance.texel_fetches;
        let (f, u) = (fetches(&fused), fetches(&unfused));
        assert!(
            f * 10 <= u * 7,
            "normalize+distance texel fetches: fused {f} vs unfused {u} (< 30% cut)"
        );
        let (g, ..) = GpuAmc::new(se, KernelMode::Isa).declare_amc_graph(w, h, bands);
        let declared: u64 = g.passes.iter().map(|p| p.program.len() as u64).sum();
        assert!(
            compiled * 10 <= declared * 9,
            "unfused instructions per fragment: compiled {compiled} vs declared {declared} (< 10% cut)"
        );
    }

    #[test]
    fn kernel_mode_names_round_trip() {
        let mode = KernelMode::Isa;
        assert_eq!(KernelMode::from_name(mode.as_str()), Some(mode));
        assert_eq!(format!("{mode}"), mode.as_str());
        assert_eq!(KernelMode::from_name("simd"), None);
    }

    #[test]
    fn pass_counts_match_stage_structure() {
        let cube = test_cube(6, 5, 9, 1); // 9 bands → 3 groups
        let se = StructuringElement::square(3).unwrap();
        let mut gpu = Gpu::new(GpuProfile::geforce_7800gtx());
        // The unfused oracle runs one pass per Fig. 4 kernel invocation.
        let mut amc = GpuAmc::new(se, KernelMode::Isa);
        amc.set_fusion(false);
        let out = amc.run(&mut gpu, &cube).unwrap();
        let groups = 3u64;
        let p_b = 9u64;
        // sums G + normalize G + sid (p_B−1)·G + minmax p_B + mei G.
        let expected = groups + groups + (p_b - 1) * groups + p_b + groups;
        assert_eq!(out.stats.passes, expected);
        // Upload: G planes + LUT; download: MEI + state.
        let plane = 6 * 5 * 16;
        assert_eq!(out.stats.bytes_uploaded as usize, 3 * plane + 9 * 16);
        assert_eq!(out.stats.bytes_downloaded as usize, 2 * plane);
    }

    #[test]
    fn chunked_equals_unchunked() {
        let cube = test_cube(10, 16, 8, 11);
        let se = StructuringElement::square(3).unwrap();
        let mut gpu = Gpu::new(GpuProfile::geforce_7800gtx());
        let amc = GpuAmc::new(se, KernelMode::Isa);
        let dims = cube.dims();
        let whole = amc
            .run_with_chunking(&mut gpu, &cube, Chunking::new(dims.height, 0))
            .unwrap();
        // Force small chunks by processing via explicit chunking.
        let chunking = Chunking::new(3, 2 * amc.se().radius_y());
        let mut stitched = vec![0.0f32; dims.pixels()];
        let mut stitched_min = vec![0u32; dims.pixels()];
        for chunk in cube.chunks(chunking) {
            let whole_chunk = Chunking::new(chunk.cube.dims().height, 0);
            let out = amc
                .run_with_chunking(&mut gpu, &chunk.cube, whole_chunk)
                .unwrap();
            for local_y in chunk.body_range() {
                let gy = chunk.y_start + (local_y - chunk.halo_top);
                for x in 0..dims.width {
                    stitched[gy * dims.width + x] = out.mei.scores[local_y * dims.width + x];
                    stitched_min[gy * dims.width + x] = out.min_index[local_y * dims.width + x];
                }
            }
        }
        // MEI is identical in every body row; indices too.
        assert_eq!(stitched, whole.mei.scores);
        assert_eq!(stitched_min, whole.min_index);
    }

    #[test]
    fn ragged_last_chunk_is_stitched_exactly() {
        // height 17 with 5-line chunks: 5+5+5+2 — the last chunk is ragged.
        let cube = test_cube(9, 17, 6, 19);
        let se = StructuringElement::square(3).unwrap();
        let amc = GpuAmc::new(se, KernelMode::Isa);
        let mut gpu = Gpu::new(GpuProfile::geforce_7800gtx());
        let whole = amc
            .run_with_chunking(&mut gpu, &cube, Chunking::new(17, 0))
            .unwrap();
        let chunking = Chunking::new(5, 2 * amc.se().radius_y());
        let chunked = amc.run_with_chunking(&mut gpu, &cube, chunking).unwrap();
        assert_eq!(chunked.chunks, 4);
        assert_eq!(chunked.mei.scores, whole.mei.scores);
        assert_eq!(chunked.min_index, whole.min_index);
        assert_eq!(chunked.max_index, whole.max_index);
        assert_eq!(gpu.allocated_bytes(), 0);
        let allocs = gpu.texture_allocs();
        amc.run_with_chunking(&mut gpu, &cube, chunking).unwrap();
        assert_eq!(
            gpu.texture_allocs(),
            allocs,
            "a repeat run allocates nothing"
        );
    }

    #[test]
    fn pooled_chunks_do_not_multiply_allocations() {
        // height 12, 6-line chunks, halo 2 → two symmetric 8-line chunks:
        // the second chunk's textures all come from the pool.
        let cube = test_cube(10, 12, 8, 13);
        let se = StructuringElement::square(3).unwrap();
        let amc = GpuAmc::new(se, KernelMode::Isa);

        let mut gpu_one = Gpu::new(GpuProfile::geforce_7800gtx());
        let one = amc
            .run_with_chunking(&mut gpu_one, &cube, Chunking::new(12, 2))
            .unwrap();
        assert_eq!(one.chunks, 1);

        let mut gpu_two = Gpu::new(GpuProfile::geforce_7800gtx());
        let two = amc
            .run_with_chunking(&mut gpu_two, &cube, Chunking::new(6, 2))
            .unwrap();
        assert_eq!(two.chunks, 2);
        assert_eq!(two.mei.scores, one.mei.scores);

        assert!(
            gpu_two.texture_allocs() <= gpu_one.texture_allocs(),
            "two-chunk run allocated {} textures, one-chunk {}",
            gpu_two.texture_allocs(),
            gpu_one.texture_allocs()
        );
        assert!(gpu_two.pool_hits() > 0, "second chunk must reuse the pool");
    }

    #[test]
    fn stage_breakdown_is_consistent_with_totals() {
        let cube = test_cube(6, 9, 9, 17);
        let se = StructuringElement::square(3).unwrap();
        let mut gpu = Gpu::new(GpuProfile::geforce_7800gtx());
        // Unfused, so the stage pass counts follow the Fig. 4 structure.
        let mut amc = GpuAmc::new(se, KernelMode::Isa);
        amc.set_fusion(false);
        let out = amc
            .run_with_chunking(&mut gpu, &cube, Chunking::new(4, 2))
            .unwrap();
        let st = &out.stages;
        assert_eq!(st.total(), out.stats, "stage buckets must sum to totals");
        // Transfers live only in the transfer stages.
        assert_eq!(st.upload.bytes_uploaded, out.stats.bytes_uploaded);
        assert_eq!(st.download.bytes_downloaded, out.stats.bytes_downloaded);
        assert_eq!(st.upload.passes + st.download.passes, 0);
        // Shading lives only in the kernel stages, in the Fig. 4 structure:
        // groups=3, p_B=9 per chunk.
        let chunks = out.chunks as u64;
        assert_eq!(st.normalize.passes, chunks * (3 + 3));
        assert_eq!(st.distance.passes, chunks * 8 * 3);
        assert_eq!(st.minmax.passes, chunks * 9);
        assert_eq!(st.mei.passes, chunks * 3);
        assert!(st.normalize.fragments > 0 && st.mei.instructions > 0);
        // Every fetch of every stage is a cache hit or a miss, so each
        // stage's memory time is modeled from its own misses.
        for s in [
            &st.upload,
            &st.normalize,
            &st.distance,
            &st.minmax,
            &st.mei,
            &st.download,
        ] {
            assert_eq!(s.cache_hits + s.cache_misses, s.texel_fetches);
        }
    }

    #[test]
    fn plan_chunking_fits_video_memory() {
        let se = StructuringElement::square(3).unwrap();
        let amc = GpuAmc::new(se, KernelMode::Isa);
        let gpu = Gpu::new(GpuProfile::fx5950_ultra());
        // Full AVIRIS frame: 2166 wide, 216 bands — must chunk.
        let cube_dims_bytes = amc.chunk_bytes(2166, 614, 216);
        assert!(cube_dims_bytes > gpu.profile().video_memory_bytes());
        let cube = test_cube(64, 32, 8, 5);
        let chunking = amc.plan_chunking(&gpu, &cube).unwrap();
        assert!(chunking.lines_per_chunk >= 1);
        assert_eq!(chunking.halo, 2);
    }

    #[test]
    fn both_schedules_run_at_their_plan_on_a_memory_bound_card() {
        // 64x48x96 on a 1 MiB 7800 GTX: the unfused schedule holds the 24
        // normalized planes next to the 24 band planes, so its plan must
        // budget for both; the fused plan stays at 24 lines.
        let cube = test_cube(64, 48, 96, 41);
        let se = StructuringElement::square(3).unwrap();
        let mut profile = GpuProfile::geforce_7800gtx();
        profile.video_memory_mib = 1;
        let run = |fuse: bool| {
            let mut gpu = Gpu::new(profile.clone());
            let mut amc = GpuAmc::new(se.clone(), KernelMode::Isa);
            amc.set_fusion(fuse);
            let plan = amc.plan_chunking(&gpu, &cube).unwrap();
            let out = amc.run_with_chunking(&mut gpu, &cube, plan).unwrap();
            let bits: Vec<u32> = out.mei.scores.iter().map(|s| s.to_bits()).collect();
            (plan.lines_per_chunk, bits)
        };
        let (fused_lines, fused) = run(true);
        let (unfused_lines, unfused) = run(false);
        assert_eq!(fused_lines, 24);
        assert!(unfused_lines < fused_lines, "{unfused_lines}");
        assert_eq!(fused, unfused);
    }

    #[test]
    fn plan_chunking_verifies_final_fit_and_reports_infeasible() {
        let se = StructuringElement::square(3).unwrap();
        let amc = GpuAmc::new(se.clone(), KernelMode::Isa);
        // A profile so tiny even one line (plus its 4 halo lines) of a wide
        // cube cannot fit: structured error, not a bogus chunking. The old
        // halving probe would have returned lines=1 without re-checking.
        let mut profile = GpuProfile::fx5950_ultra();
        profile.video_memory_mib = 1;
        let gpu = Gpu::new(profile);
        let cube = test_cube(2048, 8, 64, 3);
        let err = amc.plan_chunking(&gpu, &cube).unwrap_err();
        match err {
            AmcError::ChunkingInfeasible {
                width,
                bands,
                required,
                budget,
            } => {
                assert_eq!(width, 2048);
                assert_eq!(bands, 64);
                assert_eq!(budget, 1 << 20);
                assert!(required > budget);
            }
            other => panic!("expected ChunkingInfeasible, got {other}"),
        }
        assert!(format!("{err}").contains("chunking infeasible"));

        // A budget that admits only small chunks: the plan must fit exactly,
        // and planning for a bigger budget never shrinks the chunk.
        let small = amc
            .plan_chunking_for_budget(amc.chunk_bytes(64, 9, 8), 64, 32, 8)
            .unwrap();
        let h = (small.lines_per_chunk + 2 * small.halo).min(32);
        assert!(amc.chunk_bytes(64, h, 8) <= amc.chunk_bytes(64, 9, 8));
        assert!(
            amc.chunk_bytes(64, h + 1, 8) > amc.chunk_bytes(64, 9, 8),
            "planned chunk must be the largest that fits"
        );
        let big = amc.plan_chunking_for_budget(usize::MAX, 64, 32, 8).unwrap();
        assert_eq!(big.lines_per_chunk, 32, "ample budget → one chunk");
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(64))]
        #[test]
        fn plan_chunking_never_exceeds_budget(
            width in 1usize..96,
            height in 1usize..48,
            bands in 1usize..24,
            budget_kib in 1usize..512,
            se_side in 1usize..3,
        ) {
            let se = StructuringElement::square(2 * se_side + 1).unwrap();
            let amc = GpuAmc::new(se, KernelMode::Isa);
            let budget = budget_kib << 10;
            match amc.plan_chunking_for_budget(budget, width, height, bands) {
                Ok(chunking) => {
                    // Every chunk the plan produces must fit the budget.
                    let cube = Cube::zeros(
                        CubeDims::new(width, height, bands),
                        Interleave::Bip,
                    ).unwrap();
                    for chunk in cube.chunks(chunking) {
                        let ch = chunk.cube.dims().height;
                        proptest::prop_assert!(
                            amc.chunk_bytes(width, ch, bands) <= budget,
                            "chunk of {ch} lines exceeds budget {budget}"
                        );
                    }
                }
                Err(AmcError::ChunkingInfeasible { required, .. }) => {
                    // Infeasible must mean even one line cannot fit.
                    let min_h = (1 + 2 * amc.se().radius_y() * 2).min(height);
                    proptest::prop_assert!(required > budget);
                    proptest::prop_assert!(
                        amc.chunk_bytes(width, min_h, bands) > budget
                    );
                }
                Err(other) => return Err(proptest::test_runner::TestCaseError::Fail(
                    format!("unexpected error {other}"),
                )),
            }
        }
    }

    #[test]
    fn amc_contract_is_accepted_on_both_paper_gpus() {
        let amc = GpuAmc::new(StructuringElement::square(3).unwrap(), KernelMode::Isa);
        let (g, ..) = amc.declare_amc_graph(16, 8, 12);
        for profile in GpuProfile::paper_gpus() {
            let errors = g.validate(&profile);
            assert!(errors.is_empty(), "on {}: {errors:?}", profile.name);
        }
    }

    #[test]
    fn amc_contract_rejects_deliberate_mismatches() {
        let profile = GpuProfile::fx5950_ultra();
        let amc = GpuAmc::new(StructuringElement::square(3).unwrap(), KernelMode::Isa);
        let declared = || amc.declare_amc_graph(16, 8, 12).0;
        let pass = |g: &RenderGraph, name: &str| {
            g.passes
                .iter()
                .position(|p| p.name == name)
                .unwrap_or_else(|| panic!("no pass `{name}`"))
        };
        let rejects = |g: &RenderGraph, what: &str| {
            let errors = g.validate(&profile);
            assert!(
                errors.iter().any(|e| e.contains(what)),
                "{what}: {errors:?}"
            );
        };

        // Feedback: the last MEI pass samples its own render target.
        let mut g = declared();
        let i = pass(&g, "mei2");
        g.passes[i].inputs[2] = g.passes[i].output;
        rejects(&g, "while sampling it");

        // Misorder: normalize0 reads the final band sum before band_sum2
        // produces it.
        let mut g = declared();
        let (a, b) = (pass(&g, "band_sum2"), pass(&g, "normalize0"));
        g.passes.swap(a, b);
        rejects(&g, "before any pass produces it");

        // An MEI pass that lost its offset LUT binds three samplers while
        // its program fetches from four.
        let mut g = declared();
        let i = pass(&g, "mei1");
        g.passes[i].inputs.pop();
        rejects(&g, "binds 3 texture(s)");

        // Two writers: minmax_update2 renders into minmax_update1's target.
        let mut g = declared();
        let (a, b) = (pass(&g, "minmax_update1"), pass(&g, "minmax_update2"));
        g.passes[b].output = g.passes[a].output;
        rejects(&g, "which pass `minmax_update1` already produced");
    }

    #[test]
    fn five_by_five_se_works() {
        let cube = test_cube(11, 11, 5, 23);
        let se = StructuringElement::square(5).unwrap();
        let mut gpu = Gpu::new(GpuProfile::geforce_7800gtx());
        let out = GpuAmc::new(se.clone(), KernelMode::Isa)
            .run(&mut gpu, &cube)
            .unwrap();
        let (ref_mei, ref_min, ref_max) = reference_mei(&cube, &se);
        assert_close(&out.mei.scores, &ref_mei.scores, 1e-4, "mei5");
        assert_eq!(out.min_index, ref_min);
        assert_eq!(out.max_index, ref_max);
    }
}
