//! # `gpu-sim` — a commodity-GPU stream processor simulator
//!
//! The paper runs its pipeline on 2003–2005 NVIDIA GPUs (FX5950 Ultra,
//! GeForce 7800GTX) programmed through Cg `fp30` fragment shaders. Those
//! devices are unobtainable and modern GPU crates cannot target them, so this
//! crate provides a functional **and** performance-modelling substitute:
//!
//! * [`texture`] — 2D RGBA32F textures whose fetches clamp to the edge,
//!   as GPGPU passes sample them (streams live in textures).
//! * [`isa`]/[`asm`]/[`interp`] — an fp30-flavoured SIMD4 fragment ISA, a
//!   textual assembler, and an interpreter (kernels are fragment programs)
//!   whose tile executor runs each program's straight-line specialization.
//! * [`opt`] — the exact-preserving shader optimizer and the producer
//!   inliner pass fusion uses. Programs are optimized before they reach a
//!   device (the render-graph compiler runs it once per pass), and the
//!   device shades what it is handed.
//! * [`raster`] — the full-screen-quad rasterizer GPGPU passes use, with
//!   multiple interpolated texture-coordinate sets.
//! * [`gpu`] — the device: texture/framebuffer management under a video
//!   memory budget, render passes executing fragments across parallel pipes
//!   (rayon), and per-pass performance counters.
//! * [`texcache`] — a 2D-blocked texture cache model feeding the memory side
//!   of the timing model.
//! * [`bus`] — AGP 8x / PCI-Express host transfer model.
//! * [`device`]/[`timing`] — published hardware parameters of the paper's
//!   four platforms (Tables 1–2) and the roofline model converting counted
//!   work into modeled milliseconds.
//!
//! Functional semantics are exact (deterministic f32 arithmetic); timing is a
//! model, clearly separated in [`timing`], so experiments can report both
//! "what was computed" and "what it would have cost on the paper's hardware".

#![warn(missing_docs)]

pub mod asm;
pub mod bus;
pub mod counters;
pub mod device;
pub mod error;
pub mod gpu;
pub mod interp;
pub mod isa;
pub mod opt;
pub mod raster;
pub mod texcache;
pub mod texture;
pub mod timing;
pub mod verify;

pub use counters::{PassStats, ShadeLedger, TileCounts};
pub use device::{CpuProfile, GpuProfile};
pub use error::GpuError;
pub use gpu::{Gpu, TextureId};
pub use opt::{optimize, OptCounters, OptReport};
pub use verify::{verify, DiagKind, Diagnostic, PassBindings, Severity};
