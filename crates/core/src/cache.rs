//! Sizing of the per-shape cache.
//!
//! Plan construction runs exact rational linear algebra (Cook–Toom) and the
//! configuration algorithms — cheap, but not free, and a training loop hits
//! the same handful of layer shapes thousands of times. The one per-shape
//! cache is the tuner's per-key store ([`crate::Tuner`]): an LRU keyed by
//! `(shape, precision, device)` whose entries hold the algorithm ranking,
//! the committed choice and the `Arc<WinRsPlan>`. A [`crate::WorkspacePool`]
//! owns one, sized by [`crate::TunerConfig::capacity`].

/// Default capacity: comfortably above the distinct layer shapes of the
/// networks in the evaluation (VGG-16 has 13 conv layers, the paper's
/// ResNet variants fewer), so a normal training loop never evicts.
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 32;
