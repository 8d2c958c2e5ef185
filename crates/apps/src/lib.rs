//! The paper's five benchmark applications, ported to the Midway DSM
//! reproduction.
//!
//! Each application follows the structure described in §4 of the paper:
//!
//! * [`water`] — N-body molecular dynamics (SPLASH), medium-grained
//!   sharing, with the private-accumulation optimization the paper cites.
//! * [`quicksort`] — TreadMarks parallel quicksort over 250,000 integers
//!   with a 1000-element bubblesort threshold and dynamic lock rebinding.
//! * [`matmul`] — 512×512 matrix multiply: coarse-grained, the expected
//!   best case for VM-DSM and worst case for RT-DSM.
//! * [`sor`] — red-black successive over-relaxation on a 1000×1000 grid
//!   for 25 iterations; only partition edges are shared.
//! * [`cholesky`] — sparse Cholesky factorization with per-column locks:
//!   fine-grained sharing. The SPLASH input matrices are unavailable, so a
//!   synthetic 2-D grid Laplacian (a standard sparse SPD test family) is
//!   factored instead; see `DESIGN.md`.
//!
//! Every application verifies its own output (sortedness, residuals,
//! factorization error) and returns a deterministic summary so runs can be
//! compared across backends and processor counts. [`run_app`] runs that
//! check on every run it returns; a run that fails it panics.

//! Beyond the paper's batch kernels, the crate carries the service-scale
//! workload family ([`kvstore`], [`taskqueue`] — shared
//! scaffolding in [`service`]) and a cross-backend differential fuzzer
//! ([`fuzz`]) that turns backend agreement into a standing oracle.

pub mod cholesky;
pub mod fuzz;
pub mod kvstore;
pub mod matmul;
pub mod mutants;
pub mod quicksort;
pub mod service;
pub mod sor;
pub mod taskqueue;
pub mod water;

mod driver;

pub use driver::{checked, run_app, run_on, AppKind, Scale};
