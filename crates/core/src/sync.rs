//! Sync-primitive indirection for loom model checking.
//!
//! Normal builds re-export `std::sync`; `RUSTFLAGS="--cfg loom"` builds
//! re-export the vendored model checker instead, so the concurrency suite
//! (`tests/loom_models.rs`, `tests/pool_models.rs`) exhaustively explores
//! the interleavings of [`crate::metrics::TimingSink`],
//! [`crate::workspace::ScratchPool`], and the leasing
//! [`crate::pool::WorkspacePool`] (with the per-shape store behind its
//! tuner lock) through exactly the code paths production uses. Only
//! modules with real concurrent state go through this shim.

#[cfg(loom)]
pub(crate) use loom::sync::{atomic, Condvar, Mutex, MutexGuard};

#[cfg(not(loom))]
pub(crate) use std::sync::{atomic, Condvar, Mutex, MutexGuard};
