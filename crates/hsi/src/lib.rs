//! # `hsi` — hyperspectral image substrate
//!
//! This crate provides every data structure and numerical routine the
//! Automated Morphological Classification (AMC) algorithm of Setoain et al.
//! (ICPPW'06) needs, independent of *where* it runs (CPU reference or the
//! simulated GPU stream pipeline in the `gpu-sim`/`amc-core` crates):
//!
//! * [`cube`] — the hyperspectral data cube with the three classic interleave
//!   layouts (BSQ/BIL/BIP), spatial crops and chunking.
//! * [`spectral`] — spectral distances: SID (eq. 2 of the paper), SAM,
//!   Euclidean, and the per-pixel normalization of eqs. 3–4.
//! * [`morphology`] — structuring elements, the cumulative distance of eq. 1,
//!   extended erosion/dilation (eqs. 5–6) and the MEI score.
//! * [`linalg`] — small dense matrices with the factorizations linear
//!   unmixing needs (Cholesky, LU, least squares).
//! * [`unmix`] — the standard linear mixture model: abundance estimation.
//! * [`endmember`] — MEI-driven endmember selection.
//! * [`classify`] — the complete reference AMC classifier.
//! * [`metrics`] — confusion matrices, overall/average accuracy, kappa.
//!
//! The reference implementations here are the ground truth every accelerated
//! path is tested against.

#![warn(missing_docs)]

pub mod classify;
pub mod cube;
pub mod endmember;
pub mod error;
pub mod linalg;
pub mod metrics;
pub mod morphology;
pub mod pixel;
pub mod spectral;
pub mod unmix;

pub use classify::{AmcClassifier, AmcConfig, AmcOutput};
pub use cube::{Chunking, Cube, CubeDims, Interleave};
pub use error::HsiError;
pub use morphology::{MeiImage, StructuringElement};
pub use spectral::SpectralDistance;
