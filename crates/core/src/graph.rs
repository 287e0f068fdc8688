//! A declarative render graph with a compiling executor.
//!
//! The AMC pipeline is a fixed chain of fragment passes; instead of
//! wiring texture ping-pongs by hand, the pipeline *declares* every pass —
//! which textures it reads (in sampler order), which coordinate sets and
//! pass constants it binds, and the single texture it writes — against
//! SSA-style logical texture handles (each written by at most one pass).
//! [`compile`] then:
//!
//! 1. **validates** the graph on its handles ([`RenderGraph::validate`]:
//!    single writer, producers precede consumers, no pass samples its own
//!    target, every pass program verified under its own bindings);
//! 2. runs **dead-pass elimination** — passes that cannot reach a declared
//!    [`TexKind::Output`] are dropped and reported;
//! 3. optionally **fuses producer→consumer pass pairs** by inlining the
//!    producer's fp30 body at the consumer's `TEX` site
//!    ([`gpu_sim::opt::inline_producer`]), re-optimizing and re-verifying
//!    every fused program;
//! 4. **optimizes** every scheduled pass's program, fused or not, under its
//!    own [`pass_bindings`] ([`gpu_sim::opt::optimize`]), then **verifies
//!    and lowers** it for the profile under the same bindings
//!    ([`gpu_sim::interp::lower`]);
//! 5. runs **texture lifetime analysis**: each texture's producer and last
//!    reader, and the transients to release after each pass.
//!
//! [`CompiledGraph::execute`] walks the scheduled passes against a
//! [`Gpu`], handing it each pass's lowering to shade exactly as compiled,
//! materializing transient textures on first use (pass outputs skip the
//! pool's zero-fill: every pass shades its whole target), releasing them
//! after their last read into the device's LIFO texture pool, which is
//! what aliases disjoint transients, and bucketing pass statistics and
//! wall time per declared stage. A failed pass hands every texture the
//! execution drew back to the pool.
//!
//! # Fusion soundness
//!
//! Fusion decisions are made in two phases, both all-or-nothing per
//! producer and both falling back to the materialized two-pass form on any
//! resource limit or legality failure:
//!
//! * **Phase A — field producers.** A transient read by ≥ 2 passes *at
//!   diverse coordinates* (shifted sets or dependent reads — i.e. consumed
//!   as a field, not forwarded along an accumulator) is inlined at every
//!   reading site with [`InlineMode::SubstituteSiteCoord`], which is exact
//!   because the producer rendered with identity coordinate sets: its texel
//!   is a pure function of position, so recomputing the body at the site's
//!   coordinate reproduces the fetch. Candidates are chosen on the declared
//!   graph only — coordinate diversity *introduced* by substitution is an
//!   artifact of inlining, so one round suffices and accumulator chains
//!   stay materialized for phase B.
//! * **Phase B — accumulator chains.** A transient with exactly one reader
//!   is collapsed into it (forward sweep; a collapsed pass immediately
//!   becomes the next candidate, so chains fold until a register, sampler,
//!   coordinate-set, or program-length limit stops them — the limit point
//!   is where the chain segments). The producer's coordinate sets either
//!   are all identity (site substitution again) or are carried into the
//!   fused pass bit-identically with the reading site pinned at identity
//!   ([`InlineMode::KeepProducerCoords`]).
//!
//! Every fused program is rebuilt by the exact-preserving `opt` framework
//! (CSE, per-lane DCE, temp compaction) and statically re-verified against
//! the device profile, so the fused graph renders bit-identically to the
//! unfused one — which stays available as the oracle through
//! `GpuAmc::set_fusion(false)`.

use gpu_sim::counters::PassStats;
use gpu_sim::device::GpuProfile;
use gpu_sim::gpu::{Gpu, TextureId};
use gpu_sim::interp::{self, LoweredProgram};
use gpu_sim::isa::{Opcode, Program, Reg, NUM_SAMPLERS, NUM_TEXCOORDS};
use gpu_sim::opt::{self, InlineMode, InlineRequest};
use gpu_sim::raster::TexCoordSet;
use gpu_sim::verify::PassBindings;
use gpu_sim::GpuError;
use std::fmt;
use std::fmt::Write as _;
use std::time::Instant;
use trace::json::{self, Value};
use trace::json_object;

/// Handle to one logical texture in a [`RenderGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TexHandle(pub usize);

/// What a logical texture is to the graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TexKind {
    /// Supplied by the caller at execute time (e.g. uploaded band planes).
    /// Never allocated or released by the executor.
    Imported,
    /// Produced and consumed inside one execution; pooled after its last
    /// read. `zeroed` textures have no producer pass — they materialize
    /// zero-filled at first read (accumulator seeds).
    Transient {
        /// Reads observe all-zero texels until (never) written.
        zeroed: bool,
    },
    /// Survives the execution; returned to the caller for download.
    Output,
}

/// One logical texture declaration.
#[derive(Debug, Clone)]
pub struct TextureDecl {
    /// Debug name (unique).
    pub name: String,
    /// Width in texels.
    pub width: usize,
    /// Height in texels.
    pub height: usize,
    /// Role of the texture.
    pub kind: TexKind,
}

/// One declared render pass.
#[derive(Debug, Clone)]
pub struct PassDecl {
    /// Debug name (unique per pass instance).
    pub name: String,
    /// Pipeline stage tag; consecutive passes with the same tag share a
    /// `pipeline.stage` trace span and a [`StageRun`] stats bucket.
    pub stage: &'static str,
    /// The fp30 program the pass shades with.
    pub program: Program,
    /// Sampler bindings in order.
    pub inputs: Vec<TexHandle>,
    /// Interpolated coordinate sets, in `T` register order.
    pub texcoords: Vec<TexCoordSet>,
    /// Pass-bound constants overriding program `DEF`s.
    pub constants: Vec<(u8, [f32; 4])>,
    /// The texture rendered into (the quad covers all of it).
    pub output: TexHandle,
}

/// A declarative pass graph; build with [`RenderGraph::texture`] and
/// [`RenderGraph::add_pass`], then [`compile`].
#[derive(Debug, Clone, Default)]
pub struct RenderGraph {
    /// Logical textures, indexed by [`TexHandle`].
    pub textures: Vec<TextureDecl>,
    /// Passes in submission order (producers before consumers).
    pub passes: Vec<PassDecl>,
}

impl RenderGraph {
    /// Empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declare a logical texture and return its handle.
    pub fn texture(
        &mut self,
        name: impl Into<String>,
        w: usize,
        h: usize,
        kind: TexKind,
    ) -> TexHandle {
        self.textures.push(TextureDecl {
            name: name.into(),
            width: w,
            height: h,
            kind,
        });
        TexHandle(self.textures.len() - 1)
    }

    /// Append a pass.
    pub fn add_pass(&mut self, pass: PassDecl) {
        self.passes.push(pass);
    }

    /// Validate the graph against a device profile. Empty means accepted.
    ///
    /// One walk over the passes, on [`TexHandle`]s: handles in range; each
    /// texture written by at most one pass, and never an imported or
    /// zero-seeded one; every input that needs a producer produced by an
    /// earlier pass; no pass sampling its own render target; and each
    /// program verifying under its own pass's [`pass_bindings`].
    pub fn validate(&self, profile: &GpuProfile) -> Vec<String> {
        let mut errors = Vec::new();
        let n = self.textures.len();
        for (i, t) in self.textures.iter().enumerate() {
            if self.textures[..i].iter().any(|o| o.name == t.name) {
                errors.push(format!("texture `{}` declared twice", t.name));
            }
        }
        let mut producer: Vec<Option<&str>> = vec![None; n];
        for p in &self.passes {
            for (si, &h) in p.inputs.iter().enumerate() {
                let Some(input) = self.textures.get(h.0) else {
                    errors.push(format!(
                        "pass `{}`: input handle {} out of range",
                        p.name, h.0
                    ));
                    continue;
                };
                let needs_producer = matches!(
                    input.kind,
                    TexKind::Transient { zeroed: false } | TexKind::Output
                );
                if needs_producer && producer[h.0].is_none() {
                    errors.push(format!(
                        "pass `{}`: reads `{}` before any pass produces it",
                        p.name, input.name
                    ));
                }
                if h == p.output {
                    errors.push(format!(
                        "pass `{}`: renders into `{}` while sampling it via tex{si}",
                        p.name, input.name
                    ));
                }
            }
            let bindings = pass_bindings(p.inputs.len(), p.texcoords.len(), &p.constants);
            for message in verify_errors(&p.program, profile, &bindings) {
                errors.push(format!("pass `{}`: {message}", p.name));
            }
            let Some(target) = self.textures.get(p.output.0) else {
                errors.push(format!(
                    "pass `{}`: output handle {} out of range",
                    p.name, p.output.0
                ));
                continue;
            };
            match target.kind {
                TexKind::Imported => errors.push(format!(
                    "pass `{}`: renders into imported texture `{}`",
                    p.name, target.name
                )),
                TexKind::Transient { zeroed: true } => errors.push(format!(
                    "pass `{}`: renders into zero-seeded texture `{}` (seeds have no producer)",
                    p.name, target.name
                )),
                _ => {}
            }
            match producer[p.output.0] {
                Some(first) => errors.push(format!(
                    "pass `{}`: renders into `{}`, which pass `{first}` already produced",
                    p.name, target.name
                )),
                None => producer[p.output.0] = Some(&p.name),
            }
        }
        for (t, first) in self.textures.iter().zip(&producer) {
            if matches!(t.kind, TexKind::Output) && first.is_none() {
                errors.push(format!("output texture `{}` is never produced", t.name));
            }
        }
        errors
    }
}

/// The bindings a pass with `samplers` inputs, `texcoord_sets` coordinate
/// sets and `constants` runs under: what [`compile`] optimizes, verifies
/// and lowers its program under.
pub fn pass_bindings(
    samplers: usize,
    texcoord_sets: usize,
    constants: &[(u8, [f32; 4])],
) -> PassBindings {
    PassBindings {
        samplers,
        texcoord_sets,
        constants: constants.iter().map(|&(i, _)| i).collect(),
        // The executor resolves only O0 to the render target.
        outputs_read: [true, false, false, false],
    }
}

/// The verifier's error messages for `program` under `bindings`.
fn verify_errors(program: &Program, profile: &GpuProfile, bindings: &PassBindings) -> Vec<String> {
    gpu_sim::verify::verify(program, profile, Some(bindings))
        .into_iter()
        .filter(|d| d.severity == gpu_sim::verify::Severity::Error)
        .map(|d| d.message)
        .collect()
}

/// Graph compilation failure: the accumulated validation errors.
#[derive(Debug)]
pub struct CompileError {
    /// Human-readable diagnostics.
    pub errors: Vec<String>,
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "render graph rejected: {}", self.errors.join("; "))
    }
}

impl std::error::Error for CompileError {}

/// One committed producer→consumer inline, for attribution.
#[derive(Debug, Clone)]
pub struct FusionRecord {
    /// Name of the producer pass whose body was inlined.
    pub producer: String,
    /// Name of the consuming pass that absorbed it.
    pub consumer: String,
    /// `(producer, consumer)` kernel (program) names.
    pub kernels: (String, String),
    /// Coordinate reconciliation used.
    pub mode: InlineMode,
    /// `TEX` sites replaced in the consumer.
    pub sites: usize,
    /// Per-fragment texel fetches of producer + consumer before fusing.
    pub fetches_before: usize,
    /// Per-fragment texel fetches of the fused program.
    pub fetches_after: usize,
}

/// Compile-time lifetime of one logical texture over the schedule.
#[derive(Debug, Clone, Default)]
pub struct TextureMeta {
    /// Pass index producing it (`None` for imports and zero seeds).
    pub producer: Option<usize>,
    /// Last pass index reading it.
    pub last_use: Option<usize>,
}

/// A compiled, executable render graph.
#[derive(Debug, Clone)]
pub struct CompiledGraph {
    /// Logical texture declarations (indexed by [`TexHandle`]).
    pub textures: Vec<TextureDecl>,
    /// Per-texture compile results, parallel to `textures`.
    pub meta: Vec<TextureMeta>,
    /// Scheduled passes, each with the optimized program the device shades
    /// (a fused pass carries the rebuilt program and the consumer's name).
    pub passes: Vec<PassDecl>,
    /// Each scheduled pass's program, verified and lowered for the
    /// compile's profile; parallel to `passes`.
    lowered: Vec<LoweredProgram>,
    /// Committed fusions, in commit order.
    pub fusions: Vec<FusionRecord>,
    /// Names of dead passes removed by dead-pass elimination.
    pub eliminated: Vec<String>,
    /// Whether fusion ran.
    pub fused: bool,
    /// Transient handles to release after each pass (last-use lists).
    release_after: Vec<Vec<TexHandle>>,
}

/// Per-stage execution results from [`CompiledGraph::execute`].
#[derive(Debug, Clone)]
pub struct StageRun {
    /// Stage tag.
    pub name: &'static str,
    /// Device counters summed over the stage's passes.
    pub stats: PassStats,
    /// Host wall time of the stage.
    pub wall_s: f64,
}

/// What [`CompiledGraph::execute`] hands back.
#[derive(Debug, Clone)]
pub struct ExecReport {
    /// One entry per run of consecutive same-stage passes, in order.
    pub stages: Vec<StageRun>,
    /// `(handle, texture)` for every [`TexKind::Output`] texture; the
    /// caller downloads and releases them.
    pub outputs: Vec<(TexHandle, TextureId)>,
}

// ---------------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------------

/// Compile `graph` for `profile`. With `fuse` false the schedule is the
/// live declared passes, one per kernel invocation (the bit-exactness
/// oracle); with `fuse` true the producer→consumer fusion phases merge
/// them first. Either way every scheduled program is then optimized under
/// its pass's bindings, which is the program the device shades, and
/// verified and lowered for `profile` under the same bindings; lifetime
/// analysis runs last. Nothing is memoized: a program several passes share
/// is lowered once per pass.
pub fn compile(
    graph: &RenderGraph,
    profile: &GpuProfile,
    fuse: bool,
) -> Result<CompiledGraph, CompileError> {
    let errors = graph.validate(profile);
    if !errors.is_empty() {
        return Err(CompileError { errors });
    }
    let mut passes = graph.passes.clone();
    let mut eliminated = Vec::new();
    let mut fusions = Vec::new();
    eliminate_dead(&graph.textures, &mut passes, &mut eliminated);
    if fuse {
        phase_a(&graph.textures, &mut passes, profile, &mut fusions);
        eliminate_dead(&graph.textures, &mut passes, &mut eliminated);
        phase_b(&graph.textures, &mut passes, profile, &mut fusions);
    }
    let mut lowered = Vec::with_capacity(passes.len());
    for p in &mut passes {
        let bindings = pass_bindings(p.inputs.len(), p.texcoords.len(), &p.constants);
        p.program = opt::optimize(&p.program, &bindings).0;
        // Validation and fusion verified every program already, so only an
        // optimizer bug can fail here.
        let lowering = interp::lower(&p.program, &p.constants, &bindings, profile);
        lowered.push(lowering.map_err(|e| CompileError {
            errors: vec![format!("pass `{}`: {e}", p.name)],
        })?);
    }
    let (meta, release_after) = lifetimes(&graph.textures, &passes);
    Ok(CompiledGraph {
        textures: graph.textures.clone(),
        meta,
        passes,
        lowered,
        fusions,
        eliminated,
        fused: fuse,
        release_after,
    })
}

/// Remove passes whose output cannot reach a [`TexKind::Output`] texture.
fn eliminate_dead(
    textures: &[TextureDecl],
    passes: &mut Vec<PassDecl>,
    eliminated: &mut Vec<String>,
) {
    let mut live_tex = vec![false; textures.len()];
    for (i, t) in textures.iter().enumerate() {
        live_tex[i] = matches!(t.kind, TexKind::Output);
    }
    let mut live_pass = vec![false; passes.len()];
    for (i, p) in passes.iter().enumerate().rev() {
        if live_tex[p.output.0] {
            live_pass[i] = true;
            for &h in &p.inputs {
                live_tex[h.0] = true;
            }
        }
    }
    let mut i = 0;
    passes.retain(|p| {
        let keep = live_pass[i];
        if !keep {
            eliminated.push(p.name.clone());
        }
        i += 1;
        keep
    });
}

/// Where a `TEX` site takes its coordinate from.
#[derive(Clone, Copy, PartialEq)]
enum SiteCoord {
    /// A plain interpolated register: coordinate set index.
    Interpolated(usize),
    /// A computed register (dependent fetch).
    Computed,
}

/// The coordinate sources of every `TEX` on `sampler`.
fn sites_on(program: &Program, sampler: u8) -> Vec<SiteCoord> {
    let mut out = Vec::new();
    for instr in &program.instrs {
        if instr.op == Opcode::Tex && instr.sampler == Some(sampler) {
            let c = &instr.srcs[0];
            out.push(match c.reg {
                Reg::TexCoord(t) if c.swizzle.0[0] == 0 && c.swizzle.0[1] == 1 && !c.negate => {
                    SiteCoord::Interpolated(t as usize)
                }
                _ => SiteCoord::Computed,
            });
        }
    }
    out
}

/// `(pass index, sampler slot)` for every binding of `t` as an input.
/// A pass binding `t` at two slots yields two entries.
fn readers_of(passes: &[PassDecl], t: TexHandle) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for (i, p) in passes.iter().enumerate() {
        for (s, &h) in p.inputs.iter().enumerate() {
            if h == t {
                out.push((i, s));
            }
        }
    }
    out
}

fn identity_coords(sets: &[TexCoordSet]) -> bool {
    sets.iter().all(|&c| c == TexCoordSet::identity())
}

/// Phase A: inline field producers (see module docs) at all reading sites,
/// all-or-nothing per producer. Candidates are selected on the incoming
/// pass list before any of them is applied.
fn phase_a(
    textures: &[TextureDecl],
    passes: &mut [PassDecl],
    profile: &GpuProfile,
    fusions: &mut Vec<FusionRecord>,
) {
    let mut candidates = Vec::new();
    for (ti, tex) in textures.iter().enumerate() {
        if !matches!(tex.kind, TexKind::Transient { zeroed: false }) {
            continue;
        }
        let t = TexHandle(ti);
        let Some(prod) = passes.iter().position(|p| p.output == t) else {
            continue;
        };
        let readers = readers_of(passes, t);
        if readers.len() < 2 {
            continue;
        }
        // One slot per reading pass, or the rewrite bookkeeping ambiguates.
        let mut pass_ids: Vec<usize> = readers.iter().map(|&(i, _)| i).collect();
        pass_ids.dedup();
        if pass_ids.len() != readers.len() {
            continue;
        }
        // Site substitution is only exact for identity-coordinate producers.
        if !identity_coords(&passes[prod].texcoords) {
            continue;
        }
        // Field-consumption test: the readers must sample at ≥ 2 distinct
        // coordinate descriptors (or dependently). A texture every reader
        // fetches once at its own position is an accumulator link or a
        // broadcast — materialization already evaluates its body exactly
        // once per fragment, which inlining could only duplicate.
        let mut descs: Vec<Option<TexCoordSet>> = Vec::new();
        for &(pi, slot) in &readers {
            for site in sites_on(&passes[pi].program, slot as u8) {
                descs.push(match site {
                    SiteCoord::Interpolated(x) => passes[pi].texcoords.get(x).copied(),
                    SiteCoord::Computed => None,
                });
            }
        }
        let diverse = descs.iter().any(|d| d.is_none())
            || descs.windows(2).any(|w| w[0] != w[1])
            || descs.len() > readers.len();
        if !diverse {
            continue;
        }
        candidates.push((t, prod, readers));
    }
    for (t, prod, readers) in candidates {
        let mut staged = Vec::with_capacity(readers.len());
        let mut ok = true;
        for &(pi, _) in &readers {
            match fuse_into(textures, &passes[pi], &passes[prod], t, profile) {
                Ok(res) => staged.push((pi, res)),
                Err(_) => {
                    ok = false;
                    break;
                }
            }
        }
        if !ok {
            continue;
        }
        for (pi, (fused, rec)) in staged {
            passes[pi] = fused;
            fusions.push(rec);
        }
        // The producer is now unread; dead-pass elimination reaps it.
    }
}

/// Phase B: collapse single-reader accumulator chains with a forward
/// sweep. A successful collapse removes the producer and immediately
/// retries at the same index, so chains fold until a limit segments them.
fn phase_b(
    textures: &[TextureDecl],
    passes: &mut Vec<PassDecl>,
    profile: &GpuProfile,
    fusions: &mut Vec<FusionRecord>,
) {
    let mut i = 0;
    while i < passes.len() {
        let t = passes[i].output;
        let collapse = if matches!(textures[t.0].kind, TexKind::Transient { zeroed: false }) {
            let readers = readers_of(passes, t);
            match readers[..] {
                [(r, _)] => fuse_into(textures, &passes[r], &passes[i], t, profile)
                    .ok()
                    .map(|res| (r, res)),
                _ => None,
            }
        } else {
            None
        };
        if let Some((r, (fused, rec))) = collapse {
            passes[r] = fused;
            fusions.push(rec);
            passes.remove(i);
        } else {
            i += 1;
        }
    }
}

/// Build the fused form of `consumer` with `producer`'s body inlined at
/// every site sampling `t`. Errors leave both passes untouched.
fn fuse_into(
    textures: &[TextureDecl],
    consumer: &PassDecl,
    producer: &PassDecl,
    t: TexHandle,
    profile: &GpuProfile,
) -> Result<(PassDecl, FusionRecord), String> {
    if !producer.constants.is_empty() {
        return Err("producer binds pass constants".into());
    }
    let dims = (textures[t.0].width, textures[t.0].height);
    for &h in &producer.inputs {
        if (textures[h.0].width, textures[h.0].height) != dims {
            return Err("producer input size differs from its target".into());
        }
    }
    let slots: Vec<usize> = consumer
        .inputs
        .iter()
        .enumerate()
        .filter(|&(_, &h)| h == t)
        .map(|(s, _)| s)
        .collect();
    let [dying] = slots[..] else {
        return Err("consumer binds the producer at multiple samplers".into());
    };
    let mode = if identity_coords(&producer.texcoords) {
        InlineMode::SubstituteSiteCoord
    } else {
        // Carrying producer coordinates is exact only when every site
        // fetched the producer's texel at its own position.
        let at_identity = sites_on(&consumer.program, dying as u8).iter().all(|s| {
            matches!(*s, SiteCoord::Interpolated(x)
                if consumer.texcoords.get(x) == Some(&TexCoordSet::identity()))
        });
        if !at_identity {
            return Err("producer has shifted coordinates and a non-identity site".into());
        }
        InlineMode::KeepProducerCoords
    };
    // Map producer samplers into the fused pass, reusing existing bindings
    // of the same logical texture and appending the rest.
    let mut inputs = consumer.inputs.clone();
    let mut sampler_map = Vec::with_capacity(producer.inputs.len());
    for &h in &producer.inputs {
        let s = match inputs.iter().position(|&x| x == h) {
            Some(s) if s != dying => s,
            _ => {
                inputs.push(h);
                inputs.len() - 1
            }
        };
        if s >= NUM_SAMPLERS {
            return Err("sampler file exhausted".into());
        }
        sampler_map.push(s as u8);
    }
    // Carry producer coordinate sets in bit-identically (KeepProducerCoords).
    let mut texcoords = consumer.texcoords.clone();
    let mut texcoord_map = Vec::new();
    if mode == InlineMode::KeepProducerCoords {
        for &c in &producer.texcoords {
            let x = match texcoords.iter().position(|&e| e == c) {
                Some(x) => x,
                None => {
                    texcoords.push(c);
                    texcoords.len() - 1
                }
            };
            if x >= NUM_TEXCOORDS {
                return Err("coordinate sets exhausted".into());
            }
            texcoord_map.push(x as u8);
        }
    }
    let bindings = pass_bindings(inputs.len(), texcoords.len(), &consumer.constants);
    let (mut fused, sites) = opt::inline_producer(
        &consumer.program,
        &bindings,
        &InlineRequest {
            producer: &producer.program,
            sampler: dying as u8,
            sampler_map: &sampler_map,
            texcoord_map: &texcoord_map,
            mode,
        },
    )?;
    drop_sampler(&mut fused, &mut inputs, dying);
    let bindings = pass_bindings(inputs.len(), texcoords.len(), &consumer.constants);
    let (mut fused, _) = opt::optimize(&fused, &bindings);
    opt::compact_temps(&mut fused);
    fused.name = consumer.program.name.clone();
    let errors = verify_errors(&fused, profile, &bindings);
    if !errors.is_empty() {
        return Err(format!(
            "fused program fails verification: {}",
            errors.join("; ")
        ));
    }
    let rec = FusionRecord {
        producer: producer.name.clone(),
        consumer: consumer.name.clone(),
        kernels: (producer.program.name.clone(), consumer.program.name.clone()),
        mode,
        sites,
        fetches_before: producer.program.tex_count() + consumer.program.tex_count(),
        fetches_after: fused.tex_count(),
    };
    Ok((
        PassDecl {
            name: consumer.name.clone(),
            stage: consumer.stage,
            program: fused,
            inputs,
            texcoords,
            constants: consumer.constants.clone(),
            output: consumer.output,
        },
        rec,
    ))
}

/// Remove the (now unreferenced) sampler `slot` and renumber the rest.
fn drop_sampler(program: &mut Program, inputs: &mut Vec<TexHandle>, slot: usize) {
    debug_assert!(program.instrs.iter().all(|i| i.sampler != Some(slot as u8)));
    inputs.remove(slot);
    for instr in &mut program.instrs {
        if let Some(s) = instr.sampler.as_mut() {
            if (*s as usize) > slot {
                *s -= 1;
            }
        }
    }
}

/// Lifetime analysis: each texture's producer and last reading pass, and
/// per pass the transients whose last reader it is, to release after it.
fn lifetimes(
    textures: &[TextureDecl],
    passes: &[PassDecl],
) -> (Vec<TextureMeta>, Vec<Vec<TexHandle>>) {
    let mut meta = vec![TextureMeta::default(); textures.len()];
    for (i, p) in passes.iter().enumerate() {
        for &h in &p.inputs {
            meta[h.0].last_use = Some(i);
        }
        meta[p.output.0].producer = Some(i);
    }
    let mut release_after = vec![Vec::new(); passes.len()];
    for (i, (t, m)) in textures.iter().zip(&meta).enumerate() {
        if let (TexKind::Transient { .. }, Some(l)) = (t.kind, m.last_use) {
            release_after[l].push(TexHandle(i));
        }
    }
    (meta, release_after)
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

impl CompiledGraph {
    /// Run the compiled graph on `gpu`. `imports` supplies one device
    /// texture per [`TexKind::Imported`] handle (the caller keeps
    /// ownership). Transients are drawn from / returned to the texture
    /// pool around their live range; [`TexKind::Output`] textures are
    /// returned for the caller to download and release. When a pass fails,
    /// every transient and output drawn so far goes back to the pool.
    pub fn execute(
        &self,
        gpu: &mut Gpu,
        imports: &[(TexHandle, TextureId)],
    ) -> Result<ExecReport, GpuError> {
        let mut ids: Vec<Option<TextureId>> = vec![None; self.textures.len()];
        for &(h, id) in imports {
            if !matches!(self.textures[h.0].kind, TexKind::Imported) {
                return Err(GpuError::InvalidPass {
                    message: format!(
                        "graph texture `{}` is not imported",
                        self.textures[h.0].name
                    ),
                });
            }
            ids[h.0] = Some(id);
        }
        for (i, t) in self.textures.iter().enumerate() {
            if matches!(t.kind, TexKind::Imported)
                && ids[i].is_none()
                && self.meta[i].last_use.is_some()
            {
                return Err(GpuError::InvalidPass {
                    message: format!("imported texture `{}` was not supplied", t.name),
                });
            }
        }
        let report = self.run_stages(gpu, &mut ids);
        if report.is_err() {
            let drawn = self.textures.iter().zip(ids);
            let drawn = drawn.filter(|(t, _)| !matches!(t.kind, TexKind::Imported));
            for id in drawn.filter_map(|(_, id)| id) {
                gpu.release_pooled(id)?;
            }
        }
        report
    }

    /// The scheduled passes in stage runs, then the rendered outputs.
    fn run_stages(
        &self,
        gpu: &mut Gpu,
        ids: &mut [Option<TextureId>],
    ) -> Result<ExecReport, GpuError> {
        let mut stages: Vec<StageRun> = Vec::new();
        let mut p = 0;
        while p < self.passes.len() {
            let stage = self.passes[p].stage;
            let end = self.passes[p..]
                .iter()
                .position(|x| x.stage != stage)
                .map_or(self.passes.len(), |off| p + off);
            let _span = trace::span("pipeline.stage", stage);
            let start = Instant::now();
            let mut stats = PassStats::new();
            for i in p..end {
                stats.add(&self.run_pass(gpu, i, ids)?);
            }
            stages.push(StageRun {
                name: stage,
                stats,
                wall_s: start.elapsed().as_secs_f64(),
            });
            p = end;
        }
        let outputs = self
            .textures
            .iter()
            .enumerate()
            .filter(|(_, t)| matches!(t.kind, TexKind::Output))
            .map(|(i, t)| {
                ids[i]
                    .map(|id| (TexHandle(i), id))
                    .ok_or_else(|| GpuError::InvalidPass {
                        message: format!("output texture `{}` was never rendered", t.name),
                    })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ExecReport { stages, outputs })
    }

    fn run_pass(
        &self,
        gpu: &mut Gpu,
        i: usize,
        ids: &mut [Option<TextureId>],
    ) -> Result<PassStats, GpuError> {
        let pass = &self.passes[i];
        // Zero-seeded accumulators materialize (zero-filled) at first read.
        for &h in &pass.inputs {
            if ids[h.0].is_none() {
                let t = &self.textures[h.0];
                debug_assert!(matches!(t.kind, TexKind::Transient { zeroed: true }));
                ids[h.0] = Some(gpu.alloc_pooled(t.width, t.height)?);
            }
        }
        // Every pass shades its whole target and stores whole texels, so
        // a pooled reuse of its output skips the zero fill.
        let t = &self.textures[pass.output.0];
        let out = gpu.alloc_pooled_uninit(t.width, t.height)?;
        ids[pass.output.0] = Some(out);
        let inputs: Vec<TextureId> = pass.inputs.iter().map(|&h| ids[h.0].unwrap()).collect();
        let stats = gpu.run_pass(&self.lowered[i], &inputs, &pass.texcoords, out)?;
        for &h in &self.release_after[i] {
            if let Some(id) = ids[h.0].take() {
                gpu.release_pooled(id)?;
            }
        }
        Ok(stats)
    }

    /// Per-fragment texel fetches summed over the passes of `stage`.
    pub fn stage_fetches_per_fragment(&self, stage: &str) -> usize {
        self.passes
            .iter()
            .filter(|p| p.stage == stage)
            .map(|p| p.program.tex_count())
            .sum()
    }

    /// Number of scheduled passes tagged `stage`.
    pub fn stage_passes(&self, stage: &str) -> usize {
        self.passes.iter().filter(|p| p.stage == stage).count()
    }

    // -- introspection dumps ------------------------------------------------

    /// GraphViz DOT rendering: passes as boxes (fused passes bold), live
    /// textures as ellipses labelled with their size.
    pub fn to_dot(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "digraph render_graph {{");
        let _ = writeln!(s, "  rankdir=LR;");
        let fused_consumers: Vec<&str> = self.fusions.iter().map(|f| f.consumer.as_str()).collect();
        for (i, p) in self.passes.iter().enumerate() {
            let bold = if fused_consumers.contains(&p.name.as_str()) {
                ", style=bold"
            } else {
                ""
            };
            let _ = writeln!(
                s,
                "  p{i} [shape=box{bold}, label=\"{}\\n{} · {} instr · {} fetch\"];",
                p.name,
                p.stage,
                p.program.len(),
                p.program.tex_count()
            );
        }
        for (ti, t) in self.textures.iter().enumerate() {
            if self.meta[ti].last_use.is_none() && self.meta[ti].producer.is_none() {
                continue;
            }
            let _ = writeln!(
                s,
                "  t{ti} [shape=ellipse, label=\"{}\\n{}x{}\"];",
                t.name, t.width, t.height
            );
        }
        for (i, p) in self.passes.iter().enumerate() {
            for &h in &p.inputs {
                let _ = writeln!(s, "  t{} -> p{i};", h.0);
            }
            let _ = writeln!(s, "  p{i} -> t{};", p.output.0);
        }
        let _ = writeln!(s, "}}");
        s
    }

    /// JSON rendering of the compile results: passes, fused pairs,
    /// eliminated passes and texture lifetimes.
    pub fn to_json(&self) -> String {
        let tex_name = |h: TexHandle| Value::from(self.textures[h.0].name.as_str());
        let passes = self.passes.iter().map(|p| {
            json_object! {
                "name": p.name.as_str(),
                "stage": p.stage,
                "kernel": p.program.name.as_str(),
                "instructions": p.program.len(),
                "fetches": p.program.tex_count(),
                "inputs": p.inputs.iter().map(|&h| tex_name(h)).collect::<Value>(),
                "output": tex_name(p.output),
            }
        });
        let fusions = self.fusions.iter().map(|f| {
            json_object! {
                "producer": f.producer.as_str(),
                "consumer": f.consumer.as_str(),
                "mode": f.mode.as_str(),
                "sites": f.sites,
                "fetches_before": f.fetches_before,
                "fetches_after": f.fetches_after,
            }
        });
        let live = self.textures.iter().zip(&self.meta);
        let textures = live.filter(|(_, m)| m.producer.is_some() || m.last_use.is_some());
        json::write(&json_object! {
            "fused": self.fused,
            "passes": passes.collect::<Value>(),
            "fusions": fusions.collect::<Value>(),
            "eliminated": self.eliminated.iter().map(|e| e.as_str().into()).collect::<Value>(),
            "textures": textures.map(|(t, m)| json_object! {
                "name": t.name.as_str(),
                "width": t.width,
                "height": t.height,
                "live": Value::Array(vec![m.producer.or(m.last_use).into(), m.last_use.into()]),
            }).collect::<Value>(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::asm::assemble;
    use proptest::prelude::*;

    /// `out = src` (one fetch at the interpolated coordinate).
    fn copy_program() -> Program {
        assemble("!!copy\nTEX R0, T0, tex0\nMOV OC, R0").unwrap()
    }

    /// `out = prev + src` (accumulator link: prev at s0, src at s1).
    fn acc_program() -> Program {
        assemble("!!acc\nTEX R0, T0, tex0\nTEX R1, T0, tex1\nADD OC, R0, R1").unwrap()
    }

    fn pass(
        name: impl Into<String>,
        program: Program,
        inputs: Vec<TexHandle>,
        output: TexHandle,
    ) -> PassDecl {
        PassDecl {
            name: name.into(),
            stage: "chain",
            program,
            inputs,
            texcoords: vec![TexCoordSet::identity()],
            constants: Vec::new(),
            output,
        }
    }

    /// `len` passes accumulating an imported 4×4 source:
    /// `t0 = src; t1 = t0 + src; …; t(len-1)` is the output.
    fn chain_graph(len: usize) -> (RenderGraph, TexHandle) {
        let mut g = RenderGraph::new();
        let src = g.texture("src", 4, 4, TexKind::Imported);
        let mut prev: Option<TexHandle> = None;
        for j in 0..len {
            let kind = if j + 1 == len {
                TexKind::Output
            } else {
                TexKind::Transient { zeroed: false }
            };
            let out = g.texture(format!("t{j}"), 4, 4, kind);
            let p = match prev {
                None => pass(format!("p{j}"), copy_program(), vec![src], out),
                Some(t) => pass(format!("p{j}"), acc_program(), vec![t, src], out),
            };
            g.add_pass(p);
            prev = Some(out);
        }
        (g, src)
    }

    /// Execute `c` on a fresh device with each import's data uploaded at
    /// its declared size; returns the device and every output's texels.
    fn run_graph(
        c: &CompiledGraph,
        imports: &[(TexHandle, Vec<f32>)],
    ) -> (Gpu, Vec<(TexHandle, Vec<f32>)>) {
        let mut gpu = Gpu::new(GpuProfile::fx5950_ultra());
        let mut ids = Vec::new();
        for (h, data) in imports {
            let t = &c.textures[h.0];
            let id = gpu.alloc_pooled(t.width, t.height).unwrap();
            gpu.upload(id, data).unwrap();
            ids.push((*h, id));
        }
        let report = c.execute(&mut gpu, &ids).unwrap();
        let mut outputs = Vec::new();
        for &(h, id) in &report.outputs {
            outputs.push((h, gpu.download(id).unwrap()));
            gpu.release_pooled(id).unwrap();
        }
        (gpu, outputs)
    }

    fn run_chain(c: &CompiledGraph, src: TexHandle, data: &[f32]) -> Vec<f32> {
        let (_, mut outputs) = run_graph(c, &[(src, data.to_vec())]);
        assert_eq!(outputs.len(), 1, "one output expected");
        outputs.remove(0).1
    }

    #[test]
    fn validate_rejects_malformed_graphs() {
        let profile = GpuProfile::fx5950_ultra();
        let rejects = |g: &RenderGraph, what: &str| {
            let errs = g.validate(&profile);
            assert!(errs.iter().any(|e| e.contains(what)), "{what}: {errs:?}");
        };
        // Duplicate texture names.
        let mut g = RenderGraph::new();
        g.texture("x", 4, 4, TexKind::Imported);
        g.texture("x", 4, 4, TexKind::Imported);
        rejects(&g, "declared twice");
        // Rendering into an imported texture.
        let mut g = RenderGraph::new();
        let a = g.texture("a", 4, 4, TexKind::Imported);
        g.add_pass(pass("p", copy_program(), vec![a], a));
        rejects(&g, "imported");
        // Reading a transient before any pass produces it.
        let mut g = RenderGraph::new();
        let t = g.texture("t", 4, 4, TexKind::Transient { zeroed: false });
        let o = g.texture("o", 4, 4, TexKind::Output);
        g.add_pass(pass("p", copy_program(), vec![t], o));
        rejects(&g, "before any pass produces");
        // Declared output that nothing renders.
        let mut g = RenderGraph::new();
        g.texture("o", 4, 4, TexKind::Output);
        rejects(&g, "never produced");
        // compile surfaces the same diagnostics as a typed error.
        let err = compile(&g, &profile, true).unwrap_err();
        assert!(err.to_string().contains("render graph rejected"));

        // src → first → mid → second → dst.
        let chain = || {
            let mut g = RenderGraph::new();
            let src = g.texture("src", 4, 4, TexKind::Imported);
            let mid = g.texture("mid", 4, 4, TexKind::Transient { zeroed: false });
            let dst = g.texture("dst", 4, 4, TexKind::Output);
            g.add_pass(pass("first", copy_program(), vec![src], mid));
            g.add_pass(pass("second", copy_program(), vec![mid], dst));
            g
        };
        let errs = chain().validate(&profile);
        assert!(errs.is_empty(), "{errs:?}");
        // Feedback: `second` samples its own target.
        let mut g = chain();
        g.passes[1].inputs[0] = g.passes[1].output;
        rejects(&g, "while sampling it");
        // Misorder: `second` reads `mid` before `first` produces it.
        let mut g = chain();
        g.passes.swap(0, 1);
        rejects(&g, "before any pass produces");
        // Two writers of one output, and nothing else wrong.
        let mut g = RenderGraph::new();
        let src = g.texture("src", 4, 4, TexKind::Imported);
        let o = g.texture("o", 4, 4, TexKind::Output);
        g.add_pass(pass("p0", copy_program(), vec![src], o));
        g.add_pass(pass("p1", copy_program(), vec![src], o));
        assert_eq!(
            g.validate(&profile),
            ["pass `p1`: renders into `o`, which pass `p0` already produced"]
        );
        assert!(compile(&g, &profile, false).is_err());
    }

    #[test]
    fn dead_passes_are_eliminated() {
        let mut g = RenderGraph::new();
        let src = g.texture("src", 4, 4, TexKind::Imported);
        let dead = g.texture("dead", 4, 4, TexKind::Transient { zeroed: false });
        let out = g.texture("out", 4, 4, TexKind::Output);
        g.add_pass(pass("pd", copy_program(), vec![src], dead));
        g.add_pass(pass("p1", copy_program(), vec![src], out));
        let c = compile(&g, &GpuProfile::fx5950_ultra(), false).unwrap();
        assert_eq!(c.passes.len(), 1);
        assert_eq!(c.eliminated, vec!["pd".to_string()]);
        assert_eq!(c.meta[dead.0].producer, None);
        assert_eq!(c.meta[out.0].producer, Some(0));
    }

    #[test]
    fn zero_seed_and_produced_textures_get_correct_fill_metadata() {
        let mut g = RenderGraph::new();
        let src = g.texture("src", 4, 4, TexKind::Imported);
        let seed = g.texture("seed", 4, 4, TexKind::Transient { zeroed: true });
        let out = g.texture("out", 4, 4, TexKind::Output);
        g.add_pass(pass("p0", acc_program(), vec![seed, src], out));
        let c = compile(&g, &GpuProfile::fx5950_ultra(), true).unwrap();
        // The seed has no producer: it must materialize zero-filled. The
        // rendered output has one, which overwrites it whole, so its alloc
        // may skip the zero fill.
        assert_eq!(c.meta[seed.0].producer, None);
        assert_eq!(c.meta[out.0].producer, Some(0));
        // seed + src == src: the zero fill is observable.
        let data: Vec<f32> = (0..64).map(|i| i as f32 * 0.25).collect();
        assert_eq!(run_chain(&c, src, &data), data);
    }

    #[test]
    fn chain_slots_alias_disjoint_lifetimes() {
        // Five unfused passes: t2, t3 and the output each take the pool
        // slot t0, t1 and t2 free one pass earlier, so the device allocates
        // the source plus two textures, takes three pool hits, and sums.
        let (g, src) = chain_graph(5);
        let c = compile(&g, &GpuProfile::fx5950_ultra(), false).unwrap();
        assert_eq!(c.passes.len(), 5);
        let data: Vec<f32> = (0..64).map(|i| (i % 7) as f32).collect();
        let (gpu, outputs) = run_graph(&c, &[(src, data.clone())]);
        assert_eq!(gpu.texture_allocs(), 3);
        assert_eq!(gpu.pool_hits(), 3);
        let want: Vec<f32> = data.iter().map(|x| 5.0 * x).collect();
        assert_eq!(outputs[0].1, want);
    }

    #[test]
    fn fused_chain_is_bit_identical_and_shorter() {
        let (g, src) = chain_graph(4);
        let profile = GpuProfile::fx5950_ultra();
        let unfused = compile(&g, &profile, false).unwrap();
        let fused = compile(&g, &profile, true).unwrap();
        assert_eq!(unfused.passes.len(), 4);
        assert_eq!(fused.passes.len(), 1);
        assert_eq!(fused.fusions.len(), 3);
        assert!(fused
            .fusions
            .iter()
            .all(|f| f.mode == InlineMode::SubstituteSiteCoord));
        // The survivor keeps the final consumer's identity.
        assert_eq!(fused.passes[0].name, "p3");
        let data: Vec<f32> = (0..64).map(|i| (i as f32).sin()).collect();
        let a = run_chain(&unfused, src, &data);
        let b = run_chain(&fused, src, &data);
        assert_eq!(
            a.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn dot_and_json_dumps_describe_the_compile() {
        let (g, _) = chain_graph(3);
        let c = compile(&g, &GpuProfile::fx5950_ultra(), true).unwrap();
        let dot = c.to_dot();
        assert!(dot.starts_with("digraph render_graph"));
        assert!(dot.contains("p2"));
        assert!(dot.contains("style=bold"));
        let doc = json::parse(&c.to_json()).expect("the dump is JSON");
        assert_eq!(doc.get("fused"), Ok(&Value::Bool(true)));
        let passes = doc.get("passes").and_then(Value::as_array).unwrap();
        assert_eq!(passes.len(), c.passes.len());
        assert_eq!(passes[0].get("name").and_then(Value::as_str), Ok("p2"));
        let fusion = &doc.get("fusions").and_then(Value::as_array).unwrap()[0];
        assert_eq!(
            fusion.get("mode").and_then(Value::as_str),
            Ok("substitute-site-coord")
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]
        /// Execution never lets two textures with overlapping lifetimes
        /// share a pool slot, fused or not: interleaved accumulator chains
        /// of random lengths over two size classes each sum their source
        /// `len` times on a device, and a slot handed on while still live
        /// would corrupt a sum or fail a pass. Small integer data keeps the
        /// sums exact.
        #[test]
        fn compiled_graphs_never_alias_overlapping_lifetimes(
            chains in proptest::collection::vec((1usize..6, 0usize..2), 1..5),
            fuse in any::<bool>(),
        ) {
            let sizes = [(4usize, 4usize), (8, 2)];
            let mut g = RenderGraph::new();
            let srcs: Vec<TexHandle> = sizes
                .iter()
                .enumerate()
                .map(|(i, &(w, h))| g.texture(format!("src{i}"), w, h, TexKind::Imported))
                .collect();
            let mut prevs: Vec<Option<TexHandle>> = vec![None; chains.len()];
            let longest = chains.iter().map(|&(len, _)| len).max().unwrap();
            for j in 0..longest {
                for (ci, &(len, cls)) in chains.iter().enumerate() {
                    if j >= len {
                        continue;
                    }
                    let (w, h) = sizes[cls];
                    let kind = if j + 1 == len {
                        TexKind::Output
                    } else {
                        TexKind::Transient { zeroed: false }
                    };
                    let out = g.texture(format!("c{ci}t{j}"), w, h, kind);
                    let p = match prevs[ci] {
                        None => pass(format!("c{ci}p{j}"), copy_program(), vec![srcs[cls]], out),
                        Some(t) => pass(
                            format!("c{ci}p{j}"),
                            acc_program(),
                            vec![t, srcs[cls]],
                            out,
                        ),
                    };
                    g.add_pass(p);
                    prevs[ci] = Some(out);
                }
            }
            let c = compile(&g, &GpuProfile::fx5950_ultra(), fuse).unwrap();
            let data: Vec<Vec<f32>> = sizes
                .iter()
                .enumerate()
                .map(|(k, &(w, h))| (0..w * h * 4).map(|i| ((i + k) % 5) as f32).collect())
                .collect();
            let imports: Vec<(TexHandle, Vec<f32>)> =
                srcs.iter().copied().zip(data.iter().cloned()).collect();
            let (_, outputs) = run_graph(&c, &imports);
            prop_assert_eq!(outputs.len(), chains.len());
            for (&(len, cls), out) in chains.iter().zip(&prevs) {
                let got = outputs.iter().find(|(h, _)| Some(*h) == *out).map(|(_, t)| t);
                let want: Vec<f32> = data[cls].iter().map(|x| len as f32 * x).collect();
                prop_assert_eq!(got, Some(&want));
            }
        }
    }
}
