#![warn(missing_docs)]
// Unit tests assert on known-good values; unwrap is fine there.
#![cfg_attr(test, allow(clippy::unwrap_used))]
//! Analytic GPU performance model.
//!
//! The paper's throughput analysis (§6.2) explains every observed trend with
//! the breakdown of Eq. (8):
//!
//! ```text
//! T̂ = C_time / V_comp + C_data / V_band
//! ```
//!
//! where `C_time` is the algorithm's arithmetic complexity, `C_data` the
//! I/O volume of *intermediate* results moved through global memory (zero
//! for fused algorithms), and `V_comp` / `V_band` the device's arithmetic
//! peak and DRAM bandwidth. On top of Eq. (8) this model adds the two
//! first-order GPU effects the paper leans on for its small-output analysis:
//!
//! * **wave quantisation / SM under-utilisation** — a launch of `b` blocks
//!   on `N_SM` SMs runs in `⌈b/N_SM⌉` waves; the last partial wave leaves
//!   SMs idle (Figure 2's 8-block BFC launch uses 8 of 128 SMs);
//! * **latency hiding** — kernels with low computation intensity or few
//!   resident blocks per SM cannot hide memory latency; efficiency ramps
//!   with blocks-per-SM up to a kernel-dependent saturation point (the `k`
//!   threshold of Algorithm 1).
//!
//! Substitution note (DESIGN.md): this model *replaces the paper's physical
//! GPUs*. Accuracy and workspace experiments never touch it; only the
//! throughput experiments (Table 3, Figures 10–11) are computed through it,
//! fed with real FLOP/traffic/block counts from each algorithm's planner.

mod blocks;
mod cost;
mod device;

pub use blocks::{bfc_block_count, fc_block_count, BlockGeometry};
pub use cost::{estimate_pipeline_time, estimate_time, KernelProfile, Precision};
pub use device::{DeviceSpec, A5000, L40S, RTX_3090, RTX_4090};
