#![warn(missing_docs)]
// Unit tests assert on known-good values; unwrap is fine there.
#![cfg_attr(test, allow(clippy::unwrap_used))]
//! WinRS: fast, memory-efficient, flexible Winograd backward-filter
//! convolution — the primary contribution of the reproduced paper.
//!
//! # Algorithm (paper §3)
//!
//! Given input feature maps `X` and output gradients `∇Y`, WinRS computes
//! the filter gradients `∇W` through a three-phase pipeline:
//!
//! 1. **Partitioning** — `∇Y` is split into `Z` segments. Segment widths
//!    are multiples of the selected kernels' unit widths `r₀`/`r₁`, so each
//!    segment maps exactly onto one fused kernel. A workspace of
//!    `(Z−1) × |∇W|` is allocated and logically concatenated with `∇W`
//!    into `Z` buckets.
//! 2. **Kernel execution** — each segment's block group runs a fully fused
//!    `Ω_α(n, r)` kernel: *dimension reduction* (treat each ∇Y row as a 1D
//!    filter), *filter split* (cut rows into width-`r` units), 1D Winograd
//!    convolution `F(n, r)` against the matching region of `X`, and
//!    accumulation of all unit contributions into the segment's bucket —
//!    entirely in on-chip memory, with only the output transform after the
//!    main loop.
//! 3. **Reduction** — the `Z` buckets are summed (FP32 Kahan) into `∇W`.
//!
//! # Configuration adaptation (paper §4)
//!
//! Before execution WinRS picks the fastest kernel pair (§4.1, criterion:
//! `n | F_W`, `k₀r₀ + k₁r₁ = O_W`, maximal weighted throughput), estimates
//! the baseline segment count `Ẑ` (Algorithm 1), and derives the segment
//! shape `Ŝ_H × Ŝ_W` (Algorithm 2).
//!
//! # Entry point
//!
//! ```
//! use winrs_core::{Precision, WinRsPlan};
//! use winrs_conv::ConvShape;
//! use winrs_gpu_sim::RTX_4090;
//! use winrs_tensor::Tensor4;
//!
//! let shape = ConvShape::square(2, 16, 8, 8, 3);
//! let plan = WinRsPlan::new(&shape, &RTX_4090, Precision::Fp32).unwrap();
//! let x = Tensor4::<f32>::random_uniform([2, 16, 16, 8], 1, 1.0);
//! let dy = Tensor4::<f32>::random_uniform([2, 16, 16, 8], 2, 1.0);
//! let dw = plan.execute_f32(&x, &dy).unwrap();
//! assert_eq!(dw.dims(), [8, 3, 3, 8]);
//! ```
//!
//! Every fallible entry point returns a typed [`WinrsError`] listing the
//! complete set of violated invariants. [`ExecHandle::run`] and
//! [`ExecHandle::run_batch`] are the dispatch path: the [`tuner`] chooses
//! the algorithm, the pool leases the workspace, and the run degrades to
//! GEMM-BFC or direct convolution when the WinRS envelope is exceeded.
//!
//! One vocabulary serves choosing, forcing and reporting: the tuner ranks
//! and persists the same [`Algorithm`] that [`FallbackPolicy::Force`] pins
//! and [`ExecutionReport::algorithm`] names, and [`Algorithm`],
//! [`Precision`], [`FallbackPolicy`] and [`NumericGuard`] each have one
//! `name()` and one parse. Every dispatch returns one
//! [`ExecutionReport`], whose [`PoolStats`] snapshot carries the pool's
//! lease and plan-cache counters.

pub mod cache;
pub mod config;
pub mod engine;
pub mod error;
pub mod fallback;
#[cfg(feature = "faults")]
pub mod faults;
pub mod forward;
pub mod metrics;
pub mod ndim;
pub mod partition;
pub mod plan;
pub mod pool;
pub(crate) mod reduce;
pub(crate) mod sync;
pub mod tuner;
pub mod workspace;

pub use config::pair::KernelPair;
pub use config::Precision;
pub use error::{Violation, WinrsError};
pub use fallback::{Algorithm, ExecutionReport, FallbackPolicy, NumericGuard};
pub use metrics::{PhaseTimings, PoolStats, TimingSink};
pub use partition::{Partition, Segment};
pub use plan::WinRsPlan;
pub use pool::{BfcJob, ExecHandle, Lease, PoolConfig, WorkspacePool};
pub use tuner::{
    device_key, ChoiceSource, RankedCandidate, TuneDb, TuneDbWarning, TunedEntry, Tuner,
    TunerConfig, TunerCounters, TunerDecision, TunerStats, TUNE_DB_SCHEMA,
};

/// The former name of [`Algorithm`], from when the tuner's planning
/// vocabulary was a separate enum. Held only so `perfbench` keeps
/// compiling; no workspace crate uses it.
pub type AlgoChoice = Algorithm;
pub use workspace::{ExecCtx, Region, RegionKind, ScratchPool, Workspace, WorkspaceLayout};

/// Deliberately-undersized bucket-buffer length shared by the numeric
/// health / argument-rejection tests in [`engine`] and [`reduce`]: 7 is
/// prime and smaller than any real `Z·|∇W|`, so it can never accidentally
/// match a plan's bucket size.
#[cfg(test)]
pub(crate) const NUMERIC_HEALTH_BUCKETS: usize = 7;
