//! Configuration adaptation (paper §4): kernel-pair selection, baseline
//! segment count (Algorithm 1) and segment shape (Algorithm 2).

pub mod pair;
pub mod segment_count;
pub mod segment_shape;

use crate::engine::TileMode;
use winrs_gpu_sim::Precision as SimPrecision;

/// Arithmetic precision of a WinRS execution. Declaration order is the
/// order of the persisted tuning database's entries.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Precision {
    /// FP32 on CUDA cores: all 13 kernels available.
    Fp32,
    /// FP16 on Tensor Cores: the six ported kernels only; mixed-precision
    /// transforms; scaling matrices for α = 16.
    Fp16,
    /// BF16 on Tensor Cores — the paper's first stated porting target.
    /// Same kernel set and cache blocks as FP16; bfloat16 shares the f32
    /// exponent range, so the α = 16 scaling matrices are unnecessary.
    Bf16,
}

impl Precision {
    /// Every precision, in declaration order.
    pub const ALL: [Precision; 3] = [Precision::Fp32, Precision::Fp16, Precision::Bf16];

    /// Stable lowercase name (CLI flags, the serve protocol, the tuning
    /// database).
    pub fn name(&self) -> &'static str {
        match self {
            Precision::Fp32 => "fp32",
            Precision::Fp16 => "fp16",
            Precision::Bf16 => "bf16",
        }
    }

    /// Inverse of [`Precision::name`].
    pub fn parse(s: &str) -> Option<Precision> {
        Precision::ALL.into_iter().find(|p| p.name() == s)
    }

    /// Bytes per stored element.
    pub fn elem_bytes(self) -> usize {
        match self {
            Precision::Fp32 => 4,
            Precision::Fp16 | Precision::Bf16 => 2,
        }
    }

    /// The engine tile mode that executes this precision; its cache
    /// blocks come from [`crate::engine::cache_block`].
    pub fn tile_mode(self) -> TileMode {
        match self {
            Precision::Fp32 => TileMode::Fp32,
            Precision::Fp16 => TileMode::Fp16,
            Precision::Bf16 => TileMode::Bf16,
        }
    }

    /// The GPU model's precision for this one: its Tensor-Core peak covers
    /// both 16-bit formats.
    pub fn sim_precision(self) -> SimPrecision {
        match self {
            Precision::Fp32 => SimPrecision::Fp32,
            Precision::Fp16 | Precision::Bf16 => SimPrecision::Fp16,
        }
    }
}
