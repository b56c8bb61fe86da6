#![warn(missing_docs)]
// Unit tests assert on known-good values; unwrap is fine there.
#![cfg_attr(test, allow(clippy::unwrap_used))]
//! Convolution algorithms: direct references and the cuDNN-analogue BFC
//! baselines the paper benchmarks against.
//!
//! The paper evaluates WinRS against five cuDNN backward-filter algorithms
//! (§6): three GEMM-based (`Algo0`, `Algo1`, `Algo3`), an FFT backend, and
//! the non-fused Winograd backend (`WinNF`, 3×3/5×5 only). This crate
//! implements each as a *real* CPU algorithm with the same structure —
//! lowering, staging, workspace — so that:
//!
//! * accuracy experiments (Table 4, Figure 12) compare genuine numerics;
//! * workspace experiments (Table 2, Figure 9) report genuine buffer sizes;
//! * the GPU performance model receives genuine FLOP counts and
//!   intermediate-traffic volumes per algorithm.
//!
//! Conventions (paper Table 1): `X ∈ ℝ^{N×I_H×I_W×I_C}`,
//! `∇Y ∈ ℝ^{N×O_H×O_W×O_C}`, `∇W ∈ ℝ^{O_C×F_H×F_W×I_C}`, stride 1,
//! zero padding `(p_H, p_W)`, correlation (no filter flip).

pub mod direct;
pub mod error;
pub mod fft_bfc;
pub mod gemm_bfc;
pub mod ndim;
pub mod shapes;
pub mod winnf;

pub use error::{ShapeError, ShapeViolation};
pub use shapes::ConvShape;
