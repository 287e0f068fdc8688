//! # `amc-core` — the paper's primary contribution
//!
//! A stream-model implementation of the Automated Morphological
//! Classification (AMC) algorithm on the simulated commodity GPU, plus the
//! CPU baselines the paper compares against.
//!
//! * [`layout`] — Fig. 3: the hyperspectral cube split into a stack of 2D
//!   RGBA textures, four consecutive bands per texel.
//! * [`kernels`] — the fragment programs of every pipeline stage
//!   (normalization, cumulative distance, min/max, SID), in fp30-style
//!   assembly.
//! * [`graph`] — the declarative render graph and its compiler (dead-pass
//!   elimination, texture aliasing, producer→consumer pass fusion).
//! * [`pipeline`] — Fig. 4: the six-stage stream pipeline (upload →
//!   normalize → cumulative distance → max/min → SID → download), declared
//!   as a render graph and run chunk by chunk for cubes that exceed video
//!   memory.
//! * [`cpu`] — the hand-tuned CPU reference implementations (scalar "gcc"
//!   shape and 4-lane "icc" shape) with exact operation counting.
//! * [`perf`] — the analytic work model that regenerates Tables 4–5 and
//!   Fig. 6 at full AVIRIS scale without executing 500 MB simulations, and
//!   the machinery validating it against executed-simulation counters.
//! * [`fleet`] — heterogeneous multi-device sharding: the chunk plan
//!   distributed across N simulated GPUs by modeled throughput, with
//!   work-stealing rebalancing and a deterministic chunk-order merge.

#![warn(missing_docs)]

pub mod cpu;
pub mod fleet;
pub mod graph;
pub mod kernels;
pub mod layout;
pub mod perf;
pub mod pipeline;

pub use fleet::{DeviceFleet, FleetConfig, FleetOutput};
pub use pipeline::{GpuAmc, KernelMode, PipelineOutput};
