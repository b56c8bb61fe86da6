//! Baseline segment count estimation — Algorithm 1 of the paper (§4.2).
//!
//! Raising the segment count `Z` multiplies BFC parallelism by `Z` but adds
//! partitioning overhead: `(Z−1)·|∇W|` workspace and bucket-reduction time.
//! Algorithm 1 balances the two:
//!
//! ```text
//! 1: Ẑ ← (b₀ + b₁) / 1.45·b₂
//! 2: compute b̂₂ and Z_max from N_SM and the data size
//! 3: if Ẑ < 2 and b₂ ≥ b̂₂: return 1
//! 4: Z₁ from computation intensity and N_SM
//! 5: Z₂ from time complexity
//! 6: Ẑ ← min(Ẑ, Z₁, Z₂, N·O_H·O_W/512)
//! 7: Ẑ ← min(P·⌈Ẑ/P⌉, Z_max),  P = min(2^⌈log₂ Ẑ⌉, 8)
//! ```
//!
//! `b₀`/`b₁` are the FC/BDC block counts of the same layer (large, since
//! they scale with feature-map area) and `b₂` the BFC block count of one
//! unsegmented launch; their ratio is a hardware-independent proxy for how
//! much parallelism the BFC is missing. The constants below (`1.45`, the
//! `b̂₂` multiple, the latency-hiding target `k`, the per-segment workload
//! floor) are the calibration this reproduction uses; the paper gives the
//! structure but not the constants.

use crate::config::pair::KernelPair;
use crate::config::Precision;
use crate::engine::cache_block;
use winrs_conv::ConvShape;
use winrs_gpu_sim::{bfc_block_count, fc_block_count, BlockGeometry, DeviceSpec};

/// All quantities Algorithm 1 derives, kept for inspection/reporting.
#[derive(Clone, Copy, Debug)]
pub struct SegmentCountPlan {
    /// FC block count `b₀`.
    pub b0: usize,
    /// BDC block count `b₁`.
    pub b1: usize,
    /// Unsegmented BFC block count `b₂` (per full-∇Y launch of the bulk
    /// kernel).
    pub b2: usize,
    /// Full-utilisation threshold `b̂₂`.
    pub b2_hat: usize,
    /// Workspace-bounded maximum `Z_max`.
    pub z_max: usize,
    /// Latency-hiding bound `Z₁`.
    pub z1: usize,
    /// Workload-volume bound `Z₂`.
    pub z2: usize,
    /// The final baseline segment count `Ẑ`.
    pub z_hat: usize,
}

/// Cache-block geometry the bulk kernel runs with at a given precision.
fn geometry(pair: &KernelPair, precision: Precision) -> BlockGeometry {
    let (bn, bm) = cache_block(precision.tile_mode(), pair.bulk.alpha());
    BlockGeometry { bn, bm }
}

/// Computation intensity `ρ₁D = 2·B_N·B_M / (B_N·r + B_M·α)` of the bulk
/// kernel (paper Eq. 4) in MACs per loaded element.
pub fn computation_intensity(pair: &KernelPair, precision: Precision) -> f64 {
    let geom = geometry(pair, precision);
    let (r, alpha) = (pair.bulk.r, pair.bulk.alpha());
    2.0 * (geom.bn * geom.bm) as f64 / (geom.bn * r + geom.bm * alpha) as f64
}

/// Run Algorithm 1.
pub fn estimate(
    shape: &ConvShape,
    pair: &KernelPair,
    device: &DeviceSpec,
    precision: Precision,
) -> SegmentCountPlan {
    let geom = geometry(pair, precision);
    let (oh, ow) = (shape.oh(), shape.ow());

    // FC/BDC block counts of the same layer: F(2×2, ·) output tiling, the
    // standard fused-Winograd forward geometry (Figure 2).
    let b0 = fc_block_count(BlockGeometry::FIG2, shape.oc, shape.n, oh, ow, 2, 2);
    let b1 = fc_block_count(BlockGeometry::FIG2, shape.ic, shape.n, shape.ih, shape.iw, 2, 2);
    // One unsegmented BFC launch of the bulk kernel: 1D tiling of F_W.
    let b2 = bfc_block_count(geom, shape.oc, shape.ic, shape.fh, shape.fw, 1, pair.bulk.n);

    // Line 1.
    let mut z_hat = ((b0 + b1) as f64 / (1.45 * b2 as f64)).round().max(1.0) as usize;

    // Line 2: b̂₂ — enough blocks for every SM plus headroom to hide the
    // tail wave; Z_max — bound workspace to ~1.7× the data size (the
    // paper's observed maximum is 1.67×).
    let b2_hat = 2 * device.n_sm;
    let dw_bytes = shape.dw_elems() * 4;
    let z_max = (1 + (1.7 * shape.data_bytes(4) as f64 / dw_bytes as f64) as usize).clamp(1, 512);

    // Line 3.
    if z_hat < 2 && b2 >= b2_hat {
        return SegmentCountPlan {
            b0,
            b1,
            b2,
            b2_hat,
            z_max,
            z1: 1,
            z2: 1,
            z_hat: 1,
        };
    }

    // Line 4: Z₁ — beyond k resident block-waves per SM, extra segments
    // only add overhead. The target k rises with computation intensity
    // (denser kernels pipeline deeper before saturating).
    let rho = computation_intensity(pair, precision);
    let k = if rho >= 40.0 { 3.0 } else { 2.0 };
    let z1 = ((k * device.n_sm as f64 / b2 as f64).ceil() as usize).max(1);

    // Line 5: Z₂ — keep per-segment work above a pipeline-filling floor
    // (256 MFLOP per segment).
    let z2 = ((shape.bfc_flops() as f64 / 2.56e8).ceil() as usize).max(1);

    // Line 6.
    let z_floor = (shape.n * oh * ow) / 512;
    z_hat = z_hat.min(z1).min(z2).min(z_floor.max(1));

    // Line 7: pad to a GPU-friendly multiple, clamp by Z_max.
    let p = (z_hat.next_power_of_two()).min(8);
    z_hat = (p * z_hat.div_ceil(p)).min(z_max).max(1);

    SegmentCountPlan {
        b0,
        b1,
        b2,
        b2_hat,
        z_max,
        z1,
        z2,
        z_hat,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::pair::select_pair;
    use crate::config::Precision;
    use winrs_gpu_sim::RTX_4090;

    fn plan_for(shape: &ConvShape) -> SegmentCountPlan {
        let pair = select_pair(shape.fw, shape.ow(), Precision::Fp32);
        estimate(shape, &pair, &RTX_4090, Precision::Fp32)
    }

    #[test]
    fn vgg16_conv2_needs_many_segments() {
        // Small channels + 3×3 ∇W: one launch yields a handful of blocks on
        // a 128-SM GPU, so Z must be well above 1.
        let p = plan_for(&ConvShape::vgg16_conv2(32));
        assert!(p.b2 < RTX_4090.n_sm, "b2 = {}", p.b2);
        assert!(p.z_hat >= 8, "z = {}", p.z_hat);
    }

    #[test]
    fn huge_channels_need_one_segment() {
        // Figure 9: "When channel sizes are sufficiently large (e.g. 1024),
        // a single ∇Y segment provides sufficient blocks, resulting in 0
        // workspace."
        let shape = ConvShape::square(32, 28, 1024, 1024, 3);
        let p = plan_for(&shape);
        assert_eq!(p.z_hat, 1, "{p:?}");
    }

    #[test]
    fn z_decreases_with_channel_size() {
        // Figure 9's trend: bigger channels -> more blocks per segment ->
        // fewer segments.
        let mut prev = usize::MAX;
        for &c in &[64usize, 128, 256, 512, 1024] {
            let shape = ConvShape::square(32, 56, c, c, 3);
            let z = plan_for(&shape).z_hat;
            assert!(z <= prev, "c={c}: z={z} prev={prev}");
            prev = z;
        }
    }

    #[test]
    fn z_respects_workspace_cap() {
        for &c in &[64usize, 256, 1024] {
            let shape = ConvShape::square(32, 56, c, c, 3);
            let p = plan_for(&shape);
            assert!(p.z_hat <= p.z_max);
            let workspace = (p.z_hat - 1) * shape.dw_elems() * 4;
            assert!(
                (workspace as f64) <= 1.8 * shape.data_bytes(4) as f64,
                "workspace {workspace} vs data {}",
                shape.data_bytes(4)
            );
        }
    }

    #[test]
    fn z_is_gpu_friendly_multiple() {
        let p = plan_for(&ConvShape::vgg16_conv2(32));
        if p.z_hat > 8 {
            assert_eq!(p.z_hat % 8, 0, "z = {}", p.z_hat);
        }
    }

    #[test]
    fn tiny_workload_stays_unsegmented_or_small() {
        let shape = ConvShape::new(1, 8, 8, 8, 8, 3, 3, 1, 1);
        let p = plan_for(&shape);
        // Workload floor (N·O_H·O_W/512 = 0 -> max(1)) pins Z to 1.
        assert_eq!(p.z_hat, 1);
    }

    #[test]
    fn intensity_formula_matches_eq4() {
        let pair = select_pair(3, 224, Precision::Fp32);
        // Ω₈(3,6): B_N×B_M = 64×32, ρ = 2·2048/(64·6 + 32·8) = 6.4.
        let rho = computation_intensity(&pair, Precision::Fp32);
        assert!((rho - 2.0 * 2048.0 / 640.0).abs() < 1e-12, "rho = {rho}");
    }
}
