#![warn(missing_docs)]
//! Experiment harness for the WinRS reproduction.
//!
//! Each table and figure of the paper has a regeneration binary under
//! `src/bin/` (see DESIGN.md's experiment index E1–E16); this library holds
//! the shared pieces: the §6 workload sweep, the unified algorithm
//! interface (WinRS + the cuDNN analogues) with workspace accounting and
//! GPU-model cost profiles, and plain-text table/series printers.

pub mod algos;
pub mod models;
pub mod table;
pub mod workloads;

pub use algos::{cu_gemm_best, Algo, AlgoCosts, ALL_ALGOS};
pub use table::{mb, print_series, ratio, Table};
pub use workloads::{accuracy_sweep, paper_sweep, throughput_dims, workspace_dims, Workload};
