//! # hyperspec — GPU-style parallel hyperspectral image processing
//!
//! A full reproduction of Setoain, Tenllado, Prieto, Valencia, Plaza &
//! Plaza, *"Parallel Hyperspectral Image Processing on Commodity Graphics
//! Hardware"* (ICPP Workshops 2006): the Automated Morphological
//! Classification (AMC) algorithm mapped onto the stream programming model
//! of 2003–2005 commodity GPUs, together with every substrate the paper's
//! evaluation depends on.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`hsi`] — hyperspectral cubes, spectral distances (SID), extended
//!   morphology, linear unmixing, the reference AMC classifier, metrics.
//! * [`gpu`] (`gpu-sim`) — a functional + performance-modelling simulator of
//!   fp30-era programmable GPUs: fragment ISA, textures, rasterizer, texture
//!   cache, bus and roofline timing models.
//! * [`amc`] (`amc-core`) — the paper's contribution: the six-stage stream
//!   AMC pipeline, CPU baselines and the analytic work model behind the
//!   evaluation tables.
//! * [`scene`] (`hsi-scene`) — synthetic AVIRIS Indian Pines scenes with
//!   ground truth, ENVI I/O and rendering.
//! * [`trace`] — zero-dependency spans, instants, counters and latency
//!   histograms with a Chrome trace-event (Perfetto) exporter; see
//!   DESIGN.md §12 for the span taxonomy.
//!
//! ## Quickstart
//!
//! ```
//! use hyperspec::prelude::*;
//!
//! // A toy two-material cube.
//! let dims = CubeDims::new(8, 8, 4);
//! let cube = Cube::from_fn(dims, Interleave::Bip, |x, _, b| {
//!     if x < 4 { [80.0, 10.0, 10.0, 20.0][b] } else { [10.0, 10.0, 80.0, 20.0][b] }
//! }).unwrap();
//!
//! // Classify with the paper's configuration (3x3 SE, SID ordering).
//! let amc = AmcClassifier::new(AmcConfig::paper_default(2));
//! let out = amc.classify(&cube).unwrap();
//! assert_eq!(out.class_count(), 2);
//! assert_ne!(out.label(0, 4), out.label(7, 4));
//! ```

pub use amc_core as amc;
pub use gpu_sim as gpu;
pub use hsi;
pub use hsi_scene as scene;
pub use trace;

/// The most common imports in one place.
pub mod prelude {
    pub use amc_core::pipeline::{GpuAmc, KernelMode};
    pub use gpu_sim::device::{Compiler, CpuProfile, GpuProfile};
    pub use gpu_sim::gpu::Gpu;
    pub use hsi::classify::{AmcClassifier, AmcConfig, AmcOutput};
    pub use hsi::cube::{Chunking, Cube, CubeDims, Interleave};
    pub use hsi::morphology::{MeiImage, StructuringElement};
    pub use hsi::unmix::{AbundanceConstraint, LinearMixtureModel};
    pub use hsi_scene::scene::{generate, SceneConfig, SyntheticScene};
}
