//! The three benchmark workloads: scene generation, driver construction and
//! one timed scene. Everything here goes through the crates' public API.

use amc_core::fleet::DeviceReport;
use amc_core::{DeviceFleet, GpuAmc, KernelMode, PipelineOutput};
use gpu_sim::{Gpu, GpuProfile};
use hsi::classify::{AmcClassifier, AmcConfig, AmcOutput, TailBreakdown};
use hsi::cube::{Chunking, Cube};
use hsi::morphology::StructuringElement;
use hsi_scene::library::indian_pines_classes;
use hsi_scene::scene::{generate, SceneConfig, SyntheticScene};
use std::time::Instant;

/// Class count whose labels are scored against the ground truth.
pub const ACCURACY_CLASSES: usize = 32;

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's configuration: one 7800 GTX holding the whole 96-band
    /// cube, GPU MEI then the CPU classification tail at c = 32.
    Hybrid,
    /// The out-of-core regime: 216 bands through a 4 MiB 7800 GTX, so each
    /// cube streams through halo'd chunks. MEI only, no tail.
    MeiOutofcore,
    /// Two 7800 GTX cards share each 96-band MEI (work stealing, contended
    /// bus), then the tail classifies that one MEI at c = 16, 32 and 64.
    FleetSweep,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Self::Hybrid, Self::MeiOutofcore, Self::FleetSweep];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Self::Hybrid => "hybrid",
            Self::MeiOutofcore => "mei-outofcore",
            Self::FleetSweep => "fleet-sweep",
        }
    }

    /// Parse a `--workload` value.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Spectral bands of the generated cube.
    fn bands(self) -> usize {
        match self {
            Self::MeiOutofcore => 216,
            Self::Hybrid | Self::FleetSweep => 96,
        }
    }

    /// Class counts the timed scene classifies at (empty: MEI only).
    pub fn class_counts(self) -> &'static [usize] {
        match self {
            Self::Hybrid => &[ACCURACY_CLASSES],
            Self::MeiOutofcore => &[],
            Self::FleetSweep => &[16, ACCURACY_CLASSES, 64],
        }
    }

    /// The device every card of the workload models. The out-of-core card
    /// has 4 MiB: the 7800 GTX's 256 MiB scaled by the same factor as the
    /// reduced scene is to the full 614-line AVIRIS scene.
    pub fn profile(self) -> GpuProfile {
        let mut profile = GpuProfile::geforce_7800gtx();
        if self == Self::MeiOutofcore {
            profile.video_memory_mib = 4;
        }
        profile
    }

    /// Number of simulated cards.
    pub fn devices(self) -> usize {
        match self {
            Self::FleetSweep => 2,
            Self::Hybrid | Self::MeiOutofcore => 1,
        }
    }

    /// The reduced Indian Pines analogue at this workload's band count.
    pub fn scene(self, seed: u64) -> SyntheticScene {
        let mut config = SceneConfig::reduced_indian_pines(seed);
        config.bands = self.bands();
        generate(&indian_pines_classes(), &config)
    }
}

/// One classification of the scene's MEI.
#[derive(Debug, Clone)]
pub struct Tail {
    /// Class count `c`.
    pub classes: usize,
    /// Labels and final endmembers.
    pub out: AmcOutput,
    /// The tail's own breakdown.
    pub breakdown: TailBreakdown,
    /// Wall seconds around the classification call.
    pub wall_s: f64,
}

/// Fleet accounting of one scene.
#[derive(Debug, Clone)]
pub struct FleetRun {
    /// Per-device rows.
    pub devices: Vec<DeviceReport>,
    /// Chunks that moved between device queues.
    pub steals: u64,
    /// Modeled makespan, seconds.
    pub modeled_makespan_s: f64,
}

/// Everything one scene returns.
#[derive(Debug, Clone)]
pub struct SceneOut {
    /// MEI, min/max indices and counters of the GPU pipeline.
    pub pipeline: PipelineOutput,
    /// Wall seconds of the GPU pipeline phase.
    pub pipeline_wall_s: f64,
    /// Classifications, in [`Workload::class_counts`] order.
    pub tails: Vec<Tail>,
    /// Present on the fleet workload.
    pub fleet: Option<FleetRun>,
}

impl SceneOut {
    /// Every classification the scene made.
    pub fn classifications(&self) -> Vec<&AmcOutput> {
        self.tails.iter().map(|t| &t.out).collect()
    }

    /// The classification scored for accuracy, if the scene classified.
    pub fn scored_tail(&self) -> Option<&Tail> {
        self.tails.iter().find(|t| t.classes == ACCURACY_CLASSES)
    }
}

enum Engine {
    Single(Box<Gpu>),
    Fleet(DeviceFleet),
}

/// The drivers one workload runs its scenes through. Constructing them is
/// part of the measured set-up.
pub struct Drivers {
    workload: Workload,
    amc: GpuAmc,
    engine: Engine,
    classifiers: Vec<AmcClassifier>,
}

impl Drivers {
    /// Fresh drivers: no compiled graph, no verified or lowered kernel, no
    /// texture allocated yet.
    pub fn new(workload: Workload) -> Self {
        let mut amc = GpuAmc::new(
            AmcConfig::paper_default(ACCURACY_CLASSES).se,
            KernelMode::Isa,
        );
        amc.set_fusion(true);
        let engine = match workload {
            Workload::FleetSweep => Engine::Fleet(DeviceFleet::new(vec![
                workload.profile();
                workload.devices()
            ])),
            Workload::Hybrid | Workload::MeiOutofcore => {
                Engine::Single(Box::new(Gpu::new(workload.profile())))
            }
        };
        let classifiers = workload
            .class_counts()
            .iter()
            .map(|&c| AmcClassifier::new(AmcConfig::paper_default(c)))
            .collect();
        Self {
            workload,
            amc,
            engine,
            classifiers,
        }
    }

    /// The pipeline driver.
    pub fn amc(&self) -> &GpuAmc {
        &self.amc
    }

    /// The structuring element the pipeline runs.
    pub fn se(&self) -> &StructuringElement {
        self.amc.se()
    }

    /// The chunk plan this workload uses for `cube`.
    pub fn chunking(&self, cube: &Cube) -> Result<Chunking, String> {
        match &self.engine {
            Engine::Single(gpu) => self.amc.plan_chunking(gpu, cube),
            Engine::Fleet(fleet) => fleet.plan_chunking(&self.amc, cube),
        }
        .map_err(|e| e.to_string())
    }

    /// Run one scene: the GPU pipeline, then the workload's tail.
    pub fn run(&mut self, cube: &Cube) -> Result<SceneOut, String> {
        match (&mut self.engine, self.workload) {
            (Engine::Single(gpu), Workload::Hybrid) => {
                let h = self
                    .amc
                    .run_and_classify(gpu, cube, &self.classifiers[0])
                    .map_err(|e| e.to_string())?;
                Ok(SceneOut {
                    pipeline: h.pipeline,
                    pipeline_wall_s: h.gpu_wall_s,
                    tails: vec![Tail {
                        classes: ACCURACY_CLASSES,
                        out: h.classification,
                        breakdown: h.tail,
                        wall_s: h.tail_wall_s,
                    }],
                    fleet: None,
                })
            }
            (Engine::Single(gpu), _) => {
                let t = Instant::now();
                let pipeline = self.amc.run(gpu, cube).map_err(|e| e.to_string())?;
                Ok(SceneOut {
                    pipeline,
                    pipeline_wall_s: t.elapsed().as_secs_f64(),
                    tails: Vec::new(),
                    fleet: None,
                })
            }
            (Engine::Fleet(fleet), _) => {
                let t = Instant::now();
                let out = fleet.run(&self.amc, cube).map_err(|e| e.to_string())?;
                let pipeline_wall_s = t.elapsed().as_secs_f64();
                let mut tails = Vec::with_capacity(self.classifiers.len());
                for classifier in &self.classifiers {
                    let t = Instant::now();
                    let (labels, breakdown) = classifier
                        .classify_with_mei_timed(cube, out.pipeline.mei.clone())
                        .map_err(|e| e.to_string())?;
                    tails.push(Tail {
                        classes: classifier.config().classes,
                        out: labels,
                        breakdown,
                        wall_s: t.elapsed().as_secs_f64(),
                    });
                }
                Ok(SceneOut {
                    pipeline: out.pipeline,
                    pipeline_wall_s,
                    tails,
                    fleet: Some(FleetRun {
                        devices: out.devices,
                        steals: out.steals,
                        modeled_makespan_s: out.modeled_makespan_s,
                    }),
                })
            }
        }
    }
}
