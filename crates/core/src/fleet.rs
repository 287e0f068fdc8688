//! Heterogeneous multi-device fleet executor, and the one chunk-streaming
//! loop and chunk-ordered merge that the single-card executor
//! ([`GpuAmc::run_with_chunking`]) runs too.
//!
//! [`DeviceFleet`] owns N simulated [`Gpu`] devices with arbitrary mixed
//! profiles and shards one chunk plan across them:
//!
//! * **Planning** is fleet-shape-independent: the chunking is derived from
//!   the cube, the structuring element and the *smallest* video memory in
//!   the fleet, then refined to expose at least `TARGET_CHUNKS` shardable
//!   units. The same shape and inputs always produce the same chunk list
//!   no matter how many devices execute it — the foundation of the
//!   bit-identity guarantee below.
//! * **Placement** uses the analytic perf model
//!   ([`perf::predict_chunk_time_s`]): each chunk is priced per device at
//!   the actual chunk geometry (occupancy, halo overhead, contended bus),
//!   and devices receive contiguous runs of chunks proportional to their
//!   modeled throughput.
//! * **Dispatch** rebalances with work-stealing: a device that drains its
//!   queue steals from the back of the victim with the most remaining
//!   modeled work, so a mispriced device or a ragged tail cannot idle the
//!   fleet.
//! * **Transfers** overlap shading per device: each device thread packs
//!   the next chunk at the head of its own queue on a scoped thread while
//!   the current chunk shades — the single-card loop, run once per device,
//!   with the bus model charging contention when devices share the host
//!   link ([`gpu_sim::bus::BusModel::contended`]).
//!
//! **Warm devices.** The devices live as long as the fleet, each behind
//! its own mutex, and carry only their texture pools over from run to run.
//! Compiled graphs, with every pass verified and lowered, live in the
//! caller's [`GpuAmc`] (keyed per profile and chunk geometry), and every
//! device thread shades through that one driver. A chunk that fails hands
//! its textures back to its device's pool, so an error never leaves
//! textures live to shrink a later plan.
//!
//! **Determinism.** Shading arithmetic is profile-independent in the
//! simulator, so a chunk produces bit-identical texels and [`PassStats`]
//! on every device. Chunk outputs are merged into the global image and the
//! stage counters are folded **in chunk index order** after all devices
//! join — never in completion order — so labels, renders and stats are
//! bit-identical at every fleet shape × thread count, extending the
//! tile-order (thread-count) guarantee to device count.
//!
//! [`PassStats`]: gpu_sim::counters::PassStats

use crate::layout;
use crate::perf::{self, PredictConfig};
use crate::pipeline::{ChunkScratch, GpuAmc, PipelineOutput, Result, StageStats, StageWall};
use gpu_sim::device::GpuProfile;
use gpu_sim::gpu::Gpu;
use hsi::cube::{Chunk, Chunking, Cube, CubeDims};
use hsi::morphology::MeiImage;
use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Instant;
use trace::ArgValue;

/// Structured error for an unrecognized `--devices` entry: carries the
/// offending token and every known short name so the CLI can print an
/// actionable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownDeviceError {
    /// The token that failed to resolve.
    pub unknown: String,
    /// Every accepted device name, in paper order.
    pub known: &'static [&'static str],
}

impl std::fmt::Display for UnknownDeviceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown device `{}`; known devices: {}",
            self.unknown,
            self.known.join(", ")
        )
    }
}

impl std::error::Error for UnknownDeviceError {}

/// Parse a comma-separated device list (e.g. `fx5950,7800gtx`) into
/// profiles. Empty tokens and an empty list are rejected like unknown
/// names, so every accepted list yields a runnable fleet.
pub fn parse_device_list(list: &str) -> std::result::Result<Vec<GpuProfile>, UnknownDeviceError> {
    let unknown = |tok: &str| UnknownDeviceError {
        unknown: tok.to_owned(),
        known: GpuProfile::known_device_names(),
    };
    let mut profiles = Vec::new();
    for tok in list.split(',') {
        let tok = tok.trim();
        profiles.push(GpuProfile::by_name(tok).ok_or_else(|| unknown(tok))?);
    }
    if profiles.is_empty() {
        return Err(unknown(list));
    }
    Ok(profiles)
}

/// Minimum chunk count the planner aims for, so a scene that fits one
/// device's memory in a single chunk still yields shardable units.
/// Deliberately independent of the fleet size: the chunk plan — and
/// therefore every counter — must not change with the device count.
const TARGET_CHUNKS: usize = 8;

/// One device's row in the fleet report.
#[derive(Debug, Clone)]
pub struct DeviceReport {
    /// The device's hardware profile.
    pub profile: GpuProfile,
    /// Chunk indices the placement model initially assigned.
    pub planned: Vec<usize>,
    /// Chunk indices actually executed, in execution order.
    pub executed: Vec<usize>,
    /// Chunks this device stole from other queues.
    pub steals: u64,
    /// Modeled busy seconds for the executed chunks (contended bus,
    /// overlapped transfers).
    pub modeled_s: f64,
    /// Measured host wall seconds of this device's dispatch loop.
    pub wall_s: f64,
}

/// Output of one fleet run: the merged pipeline output (bit-identical to a
/// single-device run over the same chunking) plus per-device accounting.
#[derive(Debug, Clone)]
pub struct FleetOutput {
    /// Merged pipeline output, stitched and folded in chunk index order.
    pub pipeline: PipelineOutput,
    /// The chunk plan every device shared.
    pub chunking: Chunking,
    /// Per-device placement, execution and timing rows.
    pub devices: Vec<DeviceReport>,
    /// Total chunks that moved between queues.
    pub steals: u64,
    /// Modeled fleet makespan: the slowest device's modeled busy time.
    pub modeled_makespan_s: f64,
    /// Measured host wall seconds of the parallel dispatch phase.
    pub wall_s: f64,
}

/// What one device loop produces: `(chunk index, output)` in execution
/// order (the merge re-orders), its steal count and its loop wall time.
pub(crate) struct DeviceRun {
    pub(crate) results: Vec<(usize, PipelineOutput)>,
    steals: u64,
    wall_s: f64,
}

/// Shared dispatch state: one deque per device. A single mutex keeps
/// pop-vs-steal atomic; chunk execution dwarfs the lock hold times by
/// orders of magnitude.
pub(crate) struct Dispatch {
    queues: Vec<VecDeque<usize>>,
}

impl Dispatch {
    /// One queue holding every chunk in order: the single-card plan. With
    /// one queue there is no victim, so the loop never prices a steal.
    pub(crate) fn in_order(chunks: usize) -> Self {
        Self {
            queues: vec![(0..chunks).collect()],
        }
    }

    /// Pop the next chunk for `me`: own queue front first, else steal from
    /// the back of the victim with the most remaining modeled work (its
    /// own-profile pricing), ties broken toward the lower device index.
    fn next(&mut self, me: usize, cost: &[Vec<f64>]) -> Option<(usize, bool)> {
        if let Some(i) = self.queues[me].pop_front() {
            return Some((i, false));
        }
        let victim = (0..self.queues.len())
            .filter(|&v| v != me && !self.queues[v].is_empty())
            .max_by(|&a, &b| {
                let work = |v: usize| self.queues[v].iter().map(|&i| cost[v][i]).sum::<f64>();
                work(a)
                    .partial_cmp(&work(b))
                    .expect("modeled work is finite")
                    // max_by keeps the *last* maximal element; order the tie
                    // so the lower index wins.
                    .then(b.cmp(&a))
            })?;
        let i = self.queues[victim].pop_back().expect("victim is non-empty");
        Some((i, true))
    }

    /// The chunk `me` would pop next, for pack-ahead prefetching.
    fn peek(&self, me: usize) -> Option<usize> {
        self.queues[me].front().copied()
    }
}

/// A fleet of simulated GPUs sharing one host link.
pub struct DeviceFleet {
    profiles: Vec<GpuProfile>,
    /// One device per profile, alive (texture pool warm) for the fleet's
    /// lifetime.
    devices: Vec<Mutex<Gpu>>,
}

impl DeviceFleet {
    /// Build a fleet from device profiles (at least one).
    pub fn new(profiles: Vec<GpuProfile>) -> Self {
        assert!(!profiles.is_empty(), "a fleet needs at least one device");
        let devices = profiles
            .iter()
            .map(|p| Mutex::new(Gpu::new(p.clone())))
            .collect();
        Self { profiles, devices }
    }

    /// The device profiles, in fleet order.
    pub fn profiles(&self) -> &[GpuProfile] {
        &self.profiles
    }

    /// Plan the shared chunking for a cube: the binary-search planner under
    /// the *smallest* video memory in the fleet (every device must be able
    /// to hold any chunk), refined down so the plan yields at least
    /// `TARGET_CHUNKS` chunks when the image has the lines for it. Depends
    /// on the fleet's *set* of memory sizes only — never on the device
    /// count — so every fleet shape over the same hardware generation(s)
    /// shares one plan.
    pub fn plan_chunking(&self, amc: &GpuAmc, cube: &Cube) -> Result<Chunking> {
        let dims = cube.dims();
        let budget = self
            .profiles
            .iter()
            .map(|p| p.video_memory_bytes())
            .min()
            .expect("fleet is non-empty");
        let planned = amc.plan_chunking_for_budget(budget, dims.width, dims.height, dims.bands)?;
        let target_lines = dims.height.div_ceil(TARGET_CHUNKS);
        Ok(Chunking::new(
            planned.lines_per_chunk.min(target_lines.max(1)),
            planned.halo,
        ))
    }

    /// Price every chunk on every device: `cost[d][i]` is the modeled
    /// seconds device `d` spends on chunk `i` (exact predicted counters at
    /// the chunk geometry, contended bus, overlapped transfers).
    fn chunk_costs(&self, amc: &GpuAmc, chunks: &[Chunk]) -> Vec<Vec<f64>> {
        let sharers = self.profiles.len();
        let cfg = PredictConfig::default();
        self.profiles
            .iter()
            .map(|p| {
                chunks
                    .iter()
                    .map(|c| {
                        let d = c.cube.dims();
                        perf::predict_chunk_time_s(
                            d.width,
                            d.height,
                            d.bands,
                            amc.se(),
                            p,
                            sharers,
                            &cfg,
                        )
                    })
                    .collect()
            })
            .collect()
    }

    /// Initial placement: contiguous runs of chunks proportional to each
    /// device's modeled throughput. The ideal makespan of a perfectly
    /// divisible workload is `1 / Σ_d (1/T_d)` where `T_d` is device `d`'s
    /// time for the *whole* chunk list; each device takes chunks until its
    /// own-cost load reaches that ideal, and the last device takes the
    /// remainder. Deterministic: pure arithmetic over the cost matrix.
    fn place(&self, cost: &[Vec<f64>]) -> Vec<Vec<usize>> {
        let n_dev = self.profiles.len();
        let n_chunks = cost[0].len();
        let totals: Vec<f64> = cost.iter().map(|row| row.iter().sum()).collect();
        let ideal = 1.0 / totals.iter().map(|&t| 1.0 / t.max(1e-30)).sum::<f64>();
        let mut placement = vec![Vec::new(); n_dev];
        let (mut d, mut load) = (0usize, 0.0f64);
        // A range loop on purpose: the row `cost[d]` changes as `d`
        // advances mid-walk, so there is no single slice to iterate.
        #[allow(clippy::needless_range_loop)]
        for i in 0..n_chunks {
            // Move on once the device is at (or past) its fair share —
            // charging half the next chunk keeps the boundary chunk with
            // whichever side it overlaps more.
            if d + 1 < n_dev && load + cost[d][i] / 2.0 > ideal {
                d += 1;
                load = 0.0;
            }
            placement[d].push(i);
            load += cost[d][i];
        }
        placement
    }

    /// Run the full pipeline over a cube across the fleet.
    pub fn run(&self, amc: &GpuAmc, cube: &Cube) -> Result<FleetOutput> {
        let chunking = self.plan_chunking(amc, cube)?;
        self.run_with_chunking(amc, cube, chunking)
    }

    /// Run with an explicit (fleet-shape-independent) chunking.
    pub fn run_with_chunking(
        &self,
        amc: &GpuAmc,
        cube: &Cube,
        chunking: Chunking,
    ) -> Result<FleetOutput> {
        let chunks: Vec<Chunk> = cube.chunks(chunking).collect();
        let cost = self.chunk_costs(amc, &chunks);
        let placement = self.place(&cost);
        let n_dev = self.profiles.len();
        // Wall anchor for the analyzer: brackets dispatch through merge so
        // per-device `fleet.chunk` spans reconstruct into one fleet DAG.
        let _run_span = trace::span_with(
            "fleet.run",
            "run",
            &[
                ("devices", ArgValue::U64(n_dev as u64)),
                ("chunks", ArgValue::U64(chunks.len() as u64)),
            ],
        );

        // Device threads run outside the worker pool: split the advertised
        // width across them so the fleet never runs more shading threads
        // than a single-device run would. The override is thread-local, so
        // each device thread re-establishes its share.
        let per_device_threads = (rayon::max_threads() / n_dev).max(1);

        let dispatch = Mutex::new(Dispatch {
            queues: placement
                .iter()
                .map(|p| p.iter().copied().collect())
                .collect(),
        });

        let fleet_start = Instant::now();
        let runs: Vec<Result<DeviceRun>> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .devices
                .iter()
                .enumerate()
                .map(|(me, device)| {
                    let (chunks, cost, dispatch) = (&chunks, &cost, &dispatch);
                    s.spawn(move || {
                        let mut gpu = device.lock().expect("a run panicked on this device");
                        rayon::with_threads(per_device_threads, || {
                            run_device(amc, &mut gpu, Some(me), chunks, cost, dispatch)
                        })
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("device thread panicked"))
                .collect()
        });
        let wall_s = fleet_start.elapsed().as_secs_f64();

        let mut results = Vec::with_capacity(chunks.len());
        let mut devices = Vec::with_capacity(n_dev);
        let mut steals = 0u64;
        for (me, run) in runs.into_iter().enumerate() {
            let run = run?;
            let executed: Vec<usize> = run.results.iter().map(|&(i, _)| i).collect();
            steals += run.steals;
            devices.push(DeviceReport {
                profile: self.profiles[me].clone(),
                planned: placement[me].clone(),
                modeled_s: executed.iter().map(|&i| cost[me][i]).sum(),
                executed,
                steals: run.steals,
                wall_s: run.wall_s,
            });
            results.extend(run.results);
        }
        let modeled_makespan_s = devices.iter().map(|d| d.modeled_s).fold(0.0f64, f64::max);
        Ok(FleetOutput {
            pipeline: merge(cube.dims(), &chunks, results),
            chunking,
            devices,
            steals,
            modeled_makespan_s,
            wall_s,
        })
    }

    /// Modeled seconds a *single* device of `profile` (uncontended bus)
    /// needs for the same chunk list — the baseline of the scaling curve
    /// and the ≥ 1.8× CI gate.
    pub fn modeled_single_device_s(
        amc: &GpuAmc,
        cube: &Cube,
        chunking: Chunking,
        profile: &GpuProfile,
    ) -> f64 {
        let cfg = PredictConfig::default();
        cube.chunks(chunking)
            .map(|c| {
                let d = c.cube.dims();
                perf::predict_chunk_time_s(d.width, d.height, d.bands, amc.se(), profile, 1, &cfg)
            })
            .sum()
    }
}

/// The chunk-streaming loop, for the single card and every fleet device:
/// pop (or steal) chunks until the queues drain, shading each on `gpu`
/// through [`GpuAmc::run_chunk_graph`] while a scoped thread packs the next
/// chunk at the head of this device's queue.
///
/// `device` is the fleet index, `None` on the single-card path. It picks
/// the trace rows and span names (`pipeline.*` or `fleet.*`) and nothing
/// else.
pub(crate) fn run_device(
    amc: &GpuAmc,
    gpu: &mut Gpu,
    device: Option<usize>,
    chunks: &[Chunk],
    cost: &[Vec<f64>],
    dispatch: &Mutex<Dispatch>,
) -> Result<DeviceRun> {
    let me = device.unwrap_or(0);
    let arg = |n: usize| ArgValue::U64(n as u64);
    if let (Some(me), true) = (device, trace::enabled()) {
        // One Perfetto row per device: upload/stage/pass spans emitted
        // while this thread shades land on it, so overlap across devices
        // is visible at a glance.
        trace::set_thread_name(&format!("device{me}.{}", gpu.profile().short_name()));
    }
    let mut scratch = ChunkScratch::default();
    let mut results = Vec::new();
    let mut steals = 0u64;
    // Double-buffered staging: `prepacked` holds the chunk a packer thread
    // prepared while the previous chunk shaded.
    let mut prepacked: Option<(usize, Vec<Vec<f32>>)> = None;
    let mut spare: Vec<Vec<f32>> = Vec::new();
    let start = Instant::now();
    loop {
        let Some((i, stolen)) = dispatch.lock().unwrap().next(me, cost) else {
            break;
        };
        steals += stolen as u64;
        let cd = chunks[i].cube.dims();
        let (_chunk_span, chunk_wall) = match device {
            None => (
                trace::span_with(
                    "pipeline.chunk",
                    "chunk",
                    &[("index", arg(i)), ("lines", arg(cd.height))],
                ),
                "pipeline.chunk_wall",
            ),
            Some(me) => (
                trace::span_with(
                    "fleet.chunk",
                    "chunk",
                    &[
                        ("device", arg(me)),
                        ("index", arg(i)),
                        ("stolen", arg(stolen.into())),
                    ],
                ),
                "fleet.chunk_wall",
            ),
        };
        let chunk_start = Instant::now();
        // Use the prefetched buffers when they are for this chunk; a steal
        // (ours or another device's) invalidates the prefetch, so pack
        // synchronously and recycle the buffers.
        let packed = match prepacked.take() {
            Some((j, bufs)) if j == i => bufs,
            other => {
                let mut bufs = other.map(|(_, b)| b).unwrap_or_default();
                layout::pack_cube_into(&chunks[i].cube, &mut bufs);
                bufs
            }
        };
        // Prefetch the next chunk still at the head of the own queue (best
        // effort: it may be stolen before this device pops again).
        let next = dispatch.lock().unwrap().peek(me);
        let (result, next_bufs) = std::thread::scope(|s| {
            let packer = next.map(|j| {
                let mut buf = std::mem::take(&mut spare);
                s.spawn(move || {
                    if trace::enabled() {
                        // One stable row per device: the scope joins each
                        // packer before the next spawns.
                        let row = device.map_or("packer".into(), |me| format!("device{me}.packer"));
                        trace::set_thread_name(&row);
                    }
                    let _pack = match device {
                        None => trace::span_with("pipeline.pack", "pack", &[("chunk", arg(j))]),
                        Some(me) => trace::span_with(
                            "fleet.pack",
                            "pack",
                            &[("device", arg(me)), ("chunk", arg(j))],
                        ),
                    };
                    layout::pack_cube_into(&chunks[j].cube, &mut buf);
                    (j, buf)
                })
            });
            let result =
                amc.run_chunk_graph(gpu, cd.width, cd.height, cd.bands, &packed, &mut scratch);
            let next_bufs = packer.map(|h| h.join().expect("packer thread panicked"));
            (result, next_bufs)
        });
        results.push((i, result?));
        prepacked = next_bufs;
        spare = packed;
        trace::metrics::observe(chunk_wall, chunk_start.elapsed());
    }
    Ok(DeviceRun {
        results,
        steals,
        wall_s: start.elapsed().as_secs_f64(),
    })
}

/// Stitch chunk bodies into the image and fold their counters, in chunk
/// index order whatever order `results` arrive in — the one merge behind
/// both executors, and why their outputs agree bit for bit.
pub(crate) fn merge(
    dims: CubeDims,
    chunks: &[Chunk],
    results: Vec<(usize, PipelineOutput)>,
) -> PipelineOutput {
    let mut slots: Vec<Option<PipelineOutput>> = (0..chunks.len()).map(|_| None).collect();
    for (i, out) in results {
        debug_assert!(slots[i].is_none(), "chunk executed twice");
        slots[i] = Some(out);
    }
    let mut mei_scores = vec![0.0f32; dims.pixels()];
    let mut min_index = vec![0u32; dims.pixels()];
    let mut max_index = vec![0u32; dims.pixels()];
    let mut stages = StageStats::default();
    let mut stage_wall = StageWall::default();
    for (chunk, slot) in chunks.iter().zip(slots) {
        let out = slot.expect("every chunk executed");
        let cw = chunk.cube.dims().width;
        for local_y in chunk.body_range() {
            let global_y = chunk.y_start + (local_y - chunk.halo_top);
            let src = local_y * cw;
            let dst = global_y * dims.width;
            mei_scores[dst..dst + cw].copy_from_slice(&out.mei.scores[src..src + cw]);
            min_index[dst..dst + cw].copy_from_slice(&out.min_index[src..src + cw]);
            max_index[dst..dst + cw].copy_from_slice(&out.max_index[src..src + cw]);
        }
        stages.add(&out.stages);
        stage_wall.add(&out.stage_wall);
    }
    PipelineOutput {
        mei: MeiImage {
            width: dims.width,
            height: dims.height,
            scores: mei_scores,
        },
        min_index,
        max_index,
        stats: stages.total(),
        stages,
        stage_wall,
        chunks: chunks.len(),
    }
}

/// Merge helper used by the tests: bit-pattern view of an MEI image.
#[cfg(test)]
fn mei_bits(m: &MeiImage) -> Vec<u32> {
    m.scores.iter().map(|s| s.to_bits()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{AmcError, KernelMode};
    use hsi::cube::{Cube, CubeDims, Interleave};
    use hsi::morphology::StructuringElement;
    use proptest::prelude::*;

    fn test_cube(w: usize, h: usize, bands: usize) -> Cube {
        Cube::from_fn(CubeDims::new(w, h, bands), Interleave::Bip, |x, y, b| {
            1.0 + ((x * 31 + y * 17 + b * 7) % 23) as f32
        })
        .unwrap()
    }

    fn fleet_shapes() -> Vec<Vec<GpuProfile>> {
        let fx = GpuProfile::fx5950_ultra;
        let g70 = GpuProfile::geforce_7800gtx;
        vec![
            vec![fx()],
            vec![g70()],
            vec![fx(), g70()],
            vec![g70(), g70()],
            vec![fx(), g70(), g70(), fx()],
        ]
    }

    #[test]
    fn parse_device_list_resolves_and_rejects() {
        let profiles = parse_device_list("fx5950,7800gtx,7800gtx").unwrap();
        assert_eq!(profiles.len(), 3);
        assert_eq!(profiles[0], GpuProfile::fx5950_ultra());
        assert_eq!(profiles[2], GpuProfile::geforce_7800gtx());
        // Whitespace-tolerant.
        assert!(parse_device_list(" 7800gtx , fx5950 ").is_ok());
        let err = parse_device_list("fx5950,riva128").unwrap_err();
        assert_eq!(err.unknown, "riva128");
        assert_eq!(err.known, GpuProfile::known_device_names());
        let msg = err.to_string();
        assert!(msg.contains("riva128") && msg.contains("fx5950") && msg.contains("7800gtx"));
        assert!(parse_device_list("").is_err());
    }

    #[test]
    fn chunk_plan_is_fleet_shape_independent() {
        let cube = test_cube(48, 40, 12);
        let amc = GpuAmc::new(StructuringElement::square(3).unwrap(), KernelMode::Isa);
        let plans: Vec<Chunking> = fleet_shapes()
            .into_iter()
            .map(|p| DeviceFleet::new(p).plan_chunking(&amc, &cube).unwrap())
            .collect();
        for plan in &plans {
            assert_eq!(plan, &plans[0], "chunk plan varies with fleet shape");
        }
        // The refined plan actually yields multiple shardable chunks.
        assert!(cube.chunks(plans[0]).count() >= 4);
    }

    #[test]
    fn placement_is_proportional_to_modeled_throughput() {
        let cube = test_cube(64, 48, 8);
        let amc = GpuAmc::new(StructuringElement::square(3).unwrap(), KernelMode::Isa);
        let fleet = DeviceFleet::new(vec![
            GpuProfile::fx5950_ultra(),
            GpuProfile::geforce_7800gtx(),
        ]);
        let chunking = fleet.plan_chunking(&amc, &cube).unwrap();
        let chunks: Vec<Chunk> = cube.chunks(chunking).collect();
        let cost = fleet.chunk_costs(&amc, &chunks);
        let placement = fleet.place(&cost);
        // Every chunk placed exactly once, contiguously, in order.
        let flat: Vec<usize> = placement.iter().flatten().copied().collect();
        assert_eq!(flat, (0..chunks.len()).collect::<Vec<_>>());
        // The 24-pipe 7800GTX gets at least as many chunks as the FX5950.
        assert!(
            placement[1].len() >= placement[0].len(),
            "placement {placement:?}"
        );
        assert!(!placement[0].is_empty() || chunks.len() == 1);
    }

    #[test]
    fn fleet_output_matches_single_device_chunked_run_bitwise() {
        // The acceptance property at test scale: every fleet shape, both
        // sequential and at the default thread pool, reproduces the
        // single-device chunked executor bit for bit — labels (via MEI),
        // indices and every per-stage counter — including a ragged tail
        // (40 lines over 6-line bodies).
        let cube = test_cube(48, 40, 10);
        let amc = GpuAmc::new(StructuringElement::square(3).unwrap(), KernelMode::Isa);
        let chunking = Chunking::new(6, 1);
        let mut gpu = Gpu::new(GpuProfile::geforce_7800gtx());
        let reference = amc.run_with_chunking(&mut gpu, &cube, chunking).unwrap();
        assert!(!cube.dims().height.is_multiple_of(chunking.lines_per_chunk));
        for shape in fleet_shapes() {
            for threads in [1, rayon::max_threads().max(2)] {
                let fleet = DeviceFleet::new(shape.clone());
                let out = rayon::with_threads(threads, || {
                    fleet.run_with_chunking(&amc, &cube, chunking).unwrap()
                });
                let label = format!("shape {shape:?} threads {threads}");
                assert_eq!(
                    mei_bits(&out.pipeline.mei),
                    mei_bits(&reference.mei),
                    "MEI diverged: {label}"
                );
                assert_eq!(out.pipeline.min_index, reference.min_index, "{label}");
                assert_eq!(out.pipeline.max_index, reference.max_index, "{label}");
                assert_eq!(out.pipeline.stages, reference.stages, "{label}");
                assert_eq!(out.pipeline.stats, reference.stats, "{label}");
                assert_eq!(out.pipeline.chunks, reference.chunks, "{label}");
                // Accounting invariants: every chunk executed exactly once.
                let mut all: Vec<usize> = out
                    .devices
                    .iter()
                    .flat_map(|d| d.executed.clone())
                    .collect();
                all.sort_unstable();
                assert_eq!(all, (0..reference.chunks).collect::<Vec<_>>(), "{label}");
                assert_eq!(
                    out.steals,
                    out.devices.iter().map(|d| d.steals).sum::<u64>(),
                    "{label}"
                );
            }
        }
    }

    #[test]
    fn work_stealing_rebalances_a_skewed_placement() {
        // Force all chunks onto device 0's queue; device 1 must steal to
        // participate, and the merged output must stay correct.
        let cube = test_cube(32, 36, 6);
        let amc = GpuAmc::new(StructuringElement::square(3).unwrap(), KernelMode::Isa);
        let chunking = Chunking::new(4, 1);
        let chunks: Vec<Chunk> = cube.chunks(chunking).collect();
        let fleet = DeviceFleet::new(vec![
            GpuProfile::geforce_7800gtx(),
            GpuProfile::geforce_7800gtx(),
        ]);
        let cost = fleet.chunk_costs(&amc, &chunks);
        let mut dispatch = Dispatch {
            queues: vec![(0..chunks.len()).collect(), VecDeque::new()],
        };
        // Device 1 steals from the back of device 0's queue.
        let (i, stolen) = dispatch.next(1, &cost).unwrap();
        assert!(stolen);
        assert_eq!(i, chunks.len() - 1);
        // Device 0 still pops its own front.
        let (i, stolen) = dispatch.next(0, &cost).unwrap();
        assert!(!stolen);
        assert_eq!(i, 0);
        // And the real executor ends with nothing left behind.
        let out = fleet.run_with_chunking(&amc, &cube, chunking).unwrap();
        let executed: usize = out.devices.iter().map(|d| d.executed.len()).sum();
        assert_eq!(executed, chunks.len());
    }

    #[test]
    fn modeled_two_7800gtx_clear_the_scaling_gate_at_bench_geometry() {
        // The modeled scaling floor at the benchmark scene geometry
        // (160×128×96): two 7800GTXs on a shared PCIe x16 link
        // must model ≥ 1.8× the single-device throughput under the fleet
        // chunk plan.
        let amc = GpuAmc::new(StructuringElement::square(3).unwrap(), KernelMode::Isa);
        let cube = test_cube(160, 128, 96);
        let g70 = GpuProfile::geforce_7800gtx();
        let fleet = DeviceFleet::new(vec![g70.clone(), g70.clone()]);
        let chunking = fleet.plan_chunking(&amc, &cube).unwrap();
        let chunks: Vec<Chunk> = cube.chunks(chunking).collect();
        let cost = fleet.chunk_costs(&amc, &chunks);
        let placement = fleet.place(&cost);
        let makespan = placement
            .iter()
            .enumerate()
            .map(|(d, p)| p.iter().map(|&i| cost[d][i]).sum::<f64>())
            .fold(0.0f64, f64::max);
        let single = DeviceFleet::modeled_single_device_s(&amc, &cube, chunking, &g70);
        let speedup = single / makespan;
        assert!(
            speedup >= 1.8,
            "modeled 2x7800GTX speedup {speedup:.3} < 1.8 (single {single:.6}s, makespan {makespan:.6}s)"
        );
    }

    #[test]
    fn a_failed_run_starts_the_next_on_a_clean_device() {
        // One whole-image chunk cannot fit a 1 MiB card: the run fails with
        // band planes already uploaded. The planned run after it budgets the
        // whole card, so it only fits if the failed chunk gave them back.
        let mut small = GpuProfile::fx5950_ultra();
        small.video_memory_mib = 1;
        let cube = test_cube(256, 64, 8);
        let amc = GpuAmc::new(StructuringElement::square(3).unwrap(), KernelMode::Isa);
        let fleet = DeviceFleet::new(vec![small.clone()]);
        let err = fleet
            .run_with_chunking(&amc, &cube, Chunking::new(64, 0))
            .unwrap_err();
        assert!(
            matches!(
                err,
                AmcError::Gpu(gpu_sim::GpuError::OutOfVideoMemory { .. })
            ),
            "{err}"
        );
        assert_eq!(fleet.devices[0].lock().unwrap().allocated_bytes(), 0);
        let out = fleet.run(&amc, &cube).unwrap();
        let fresh = DeviceFleet::new(vec![small]).run(&amc, &cube).unwrap();
        assert_eq!(mei_bits(&out.pipeline.mei), mei_bits(&fresh.pipeline.mei));
        assert_eq!(out.pipeline.min_index, fresh.pipeline.min_index);
        assert_eq!(out.pipeline.max_index, fresh.pipeline.max_index);
        assert_eq!(out.pipeline.stages, fresh.pipeline.stages);
    }

    proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(6))]
        #[test]
        fn fleet_bit_identity_holds_for_random_geometry(
            width in 12usize..40,
            height in 9usize..36,
            bands in 2usize..10,
            lines in 3usize..7,
        ) {
            // Random cube geometry (usually with a ragged last chunk) ×
            // every fleet shape × sequential and pooled threading: the MEI
            // bits, state indices and per-stage counters must match the
            // single-device chunked run exactly.
            let cube = test_cube(width, height, bands);
            let amc = GpuAmc::new(StructuringElement::square(3).unwrap(), KernelMode::Isa);
            let chunking = Chunking::new(lines, 1);
            let mut gpu = Gpu::new(GpuProfile::geforce_7800gtx());
            let reference = amc.run_with_chunking(&mut gpu, &cube, chunking).unwrap();
            for shape in fleet_shapes() {
                for threads in [1, rayon::max_threads().max(2)] {
                    let fleet = DeviceFleet::new(shape.clone());
                    let out = rayon::with_threads(threads, || {
                        fleet.run_with_chunking(&amc, &cube, chunking).unwrap()
                    });
                    prop_assert_eq!(mei_bits(&out.pipeline.mei), mei_bits(&reference.mei));
                    prop_assert_eq!(&out.pipeline.min_index, &reference.min_index);
                    prop_assert_eq!(&out.pipeline.max_index, &reference.max_index);
                    prop_assert_eq!(&out.pipeline.stages, &reference.stages);
                }
            }
        }
    }
}
