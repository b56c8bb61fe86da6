//! Unified view over WinRS and the five cuDNN-analogue baselines:
//! workspace accounting, GPU-model cost profiles, and (for the accuracy
//! experiments) real execution.
//!
//! Cost-profile calibration notes: `pipe_efficiency` values are the
//! per-algorithm kernel-quality constants of this reproduction (cuDNN's
//! GEMM kernels are near-peak; FFT stages are bandwidth-heavy; Algo0 pays
//! for atomic accumulation). Block counts follow each algorithm's natural
//! launch geometry. FLOP counts and intermediate-traffic volumes come from
//! the real planners in `winrs-conv` — nothing in this module invents
//! work; it only assigns launch shape and quality to it. Cu-Algo0,
//! Cu-Algo1 and Cu-FFT are the substitutes the tuner ranks (direct,
//! GEMM-BFC, FFT-BFC): their profiles and workspace come from
//! [`winrs_core::tuner::substitute_profiles`] and
//! [`winrs_core::fallback::substitute_workspace_bytes`], so the figures
//! and the dispatcher share one calibration.

use winrs_conv::{direct, fft_bfc, gemm_bfc, winnf, ConvShape};
use winrs_core::fallback::substitute_workspace_bytes;
use winrs_core::tuner::substitute_profiles;
use winrs_core::{Algorithm, Precision, WinRsPlan};
use winrs_fp16::f16;
use winrs_gpu_sim::{estimate_pipeline_time, DeviceSpec, KernelProfile};
use winrs_tensor::Tensor4;

/// The algorithms compared throughout §6.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algo {
    /// This paper's contribution.
    WinRs,
    /// cuDNN GEMM wgrad, zero workspace (direct accumulation).
    CuAlgo0,
    /// cuDNN GEMM wgrad, full im2col panel.
    CuAlgo1,
    /// cuDNN GEMM wgrad, tiled im2col panel.
    CuAlgo3,
    /// cuDNN FFT wgrad.
    CuFft,
    /// cuDNN non-fused Winograd wgrad (3×3 / 5×5).
    CuWinNF,
}

/// All `Algo` variants in display order.
pub const ALL_ALGOS: [Algo; 6] = [
    Algo::WinRs,
    Algo::CuAlgo0,
    Algo::CuAlgo1,
    Algo::CuAlgo3,
    Algo::CuFft,
    Algo::CuWinNF,
];

/// Cost summary of one algorithm on one shape.
#[derive(Clone, Debug)]
pub struct AlgoCosts {
    /// Workspace bytes.
    pub workspace: usize,
    /// Modelled execution time, seconds.
    pub time: f64,
    /// Effective throughput on direct-conv FLOPs, TFLOPS.
    pub tflops: f64,
}

impl Algo {
    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            Algo::WinRs => "WinRS",
            Algo::CuAlgo0 => "Cu-Algo0",
            Algo::CuAlgo1 => "Cu-Algo1",
            Algo::CuAlgo3 => "Cu-Algo3",
            Algo::CuFft => "Cu-FFT",
            Algo::CuWinNF => "Cu-WinNF",
        }
    }

    /// Availability under the paper's support matrix: Cu-WinNF is 3×3/5×5
    /// only (3×3 only in FP16); only Cu-Algo1 and Cu-WinNF have FP16
    /// Tensor-Core paths among the baselines. WinRS runs exactly the keys
    /// its planner accepts ([`WinRsPlan::validate`]): FP16 has no kernel
    /// for F = 2, 4 and 8. [`Algo::costs`] and the `execute_*` entries
    /// answer every key this admits.
    pub fn supports(&self, shape: &ConvShape, precision: Precision) -> bool {
        match self {
            Algo::WinRs => WinRsPlan::validate(shape, precision).is_empty(),
            Algo::CuAlgo0 | Algo::CuAlgo3 | Algo::CuFft => precision == Precision::Fp32,
            Algo::CuAlgo1 => true,
            Algo::CuWinNF => {
                winnf::supported(shape)
                    && (precision == Precision::Fp32 || shape.fh == 3)
            }
        }
    }

    /// Workspace in bytes (real buffer sizes from the planners).
    pub fn workspace_bytes(&self, shape: &ConvShape, device: &DeviceSpec) -> usize {
        match self {
            Algo::WinRs => WinRsPlan::new(shape, device, Precision::Fp32)
                .expect("benchmark shape is inside the WinRS envelope")
                .workspace_bytes(),
            Algo::CuAlgo0 => substitute_workspace_bytes(Algorithm::Direct, shape),
            Algo::CuAlgo1 => substitute_workspace_bytes(Algorithm::GemmBfc, shape),
            Algo::CuAlgo3 => gemm_bfc::workspace_bytes(gemm_bfc::GemmAlgo::Algo3, shape),
            Algo::CuFft => substitute_workspace_bytes(Algorithm::FftBfc, shape),
            Algo::CuWinNF => winnf::workspace_bytes(shape),
        }
    }

    /// GPU-model launch profiles of a key [`Algo::supports`] admits.
    pub fn profiles(
        &self,
        shape: &ConvShape,
        device: &DeviceSpec,
        precision: Precision,
    ) -> Vec<KernelProfile> {
        let prec = precision.sim_precision();
        let eb = precision.elem_bytes() as u64;
        let io = (shape.x_elems() + shape.dy_elems() + shape.dw_elems()) as u64 * eb;
        let o_total = shape.oh() * shape.ow();
        let f_total = shape.fh * shape.fw * shape.ic;
        let substitute = |algo| {
            substitute_profiles(algo, shape, precision)
                .expect("the substitute has a kernel at every precision `supports` admits")
        };

        match self {
            Algo::WinRs => WinRsPlan::new(shape, device, precision)
                .expect("benchmark shape is inside the WinRS envelope")
                .kernel_profiles(),
            Algo::CuAlgo0 => substitute(Algorithm::Direct),
            // The GEMM algorithms are *implicit*-im2col kernels (paper
            // §6.2 classifies Cu-GEMM among the fused algorithms): the
            // lowering panel lives in SMEM/L2, so no intermediate DRAM
            // traffic is charged — only an extra overlappable X read for
            // the im2col duplication. (The CPU implementation in
            // `winrs-conv::gemm_bfc` does materialise panels; its traffic
            // accounting is used by the ablation binary, not here.)
            Algo::CuAlgo1 => substitute(Algorithm::GemmBfc),
            Algo::CuAlgo3 => vec![KernelProfile {
                flops: shape.bfc_flops(),
                io_bytes: io + shape.x_elems() as u64 * eb,
                intermediate_bytes: 0,
                blocks: shape.n
                    * o_total.div_ceil(gemm_bfc::ALGO3_TILE)
                    * f_total.div_ceil(128)
                    * shape.oc.div_ceil(64),
                pipe_efficiency: 0.80,
                precision: prec,
            }],
            Algo::CuFft => substitute(Algorithm::FftBfc),
            Algo::CuWinNF => {
                let nt = shape.n
                    * shape.oh().div_ceil(winnf::WINNF_TILE)
                    * shape.ow().div_ceil(winnf::WINNF_TILE);
                vec![KernelProfile {
                    flops: winnf::flops(shape),
                    io_bytes: io,
                    // Stage buffers are stored in the execution precision.
                    intermediate_bytes: winnf::intermediate_traffic_bytes(shape) * eb / 4,
                    blocks: nt.div_ceil(32) * shape.oc.div_ceil(64) * shape.ic.div_ceil(64),
                    // The EWM stage is a dense batched GEMM — the paper
                    // notes it has *higher* computation intensity than
                    // WinRS's fused loop.
                    pipe_efficiency: 0.90,
                    precision: prec,
                }]
            }
        }
    }

    /// Full modelled cost summary.
    pub fn costs(&self, shape: &ConvShape, device: &DeviceSpec, precision: Precision) -> AlgoCosts {
        let time = estimate_pipeline_time(&self.profiles(shape, device, precision), device);
        AlgoCosts {
            workspace: self.workspace_bytes(shape, device),
            time,
            tflops: shape.bfc_flops() as f64 / time / 1e12,
        }
    }

    /// Execute for real in FP32 (accuracy experiments).
    pub fn execute_f32(
        &self,
        shape: &ConvShape,
        device: &DeviceSpec,
        x: &Tensor4<f32>,
        dy: &Tensor4<f32>,
    ) -> Tensor4<f32> {
        match self {
            Algo::WinRs => WinRsPlan::new(shape, device, Precision::Fp32)
                .expect("benchmark shape is inside the WinRS envelope")
                .execute_f32(x, dy)
                .expect("FP32 plan accepts FP32 tensors"),
            Algo::CuAlgo0 => direct::bfc_direct(shape, x, dy),
            Algo::CuAlgo1 => gemm_bfc::bfc_gemm_f32(gemm_bfc::GemmAlgo::Algo1, shape, x, dy),
            Algo::CuAlgo3 => gemm_bfc::bfc_gemm_f32(gemm_bfc::GemmAlgo::Algo3, shape, x, dy),
            Algo::CuFft => fft_bfc::bfc_fft(shape, x, dy),
            Algo::CuWinNF => winnf::bfc_winnf(shape, x, dy),
        }
    }

    /// Execute for real in FP16 (only for FP16-capable algorithms).
    pub fn execute_f16(
        &self,
        shape: &ConvShape,
        device: &DeviceSpec,
        x: &Tensor4<f16>,
        dy: &Tensor4<f16>,
    ) -> Tensor4<f16> {
        match self {
            Algo::WinRs => WinRsPlan::new(shape, device, Precision::Fp16)
                .expect("benchmark shape is inside the WinRS envelope")
                .execute_f16(x, dy)
                .expect("FP16 plan accepts FP16 tensors"),
            Algo::CuAlgo1 => gemm_bfc::bfc_gemm_f16(shape, x, dy),
            Algo::CuWinNF => winnf::bfc_winnf(shape, x, dy),
            other => panic!("{} has no FP16 path", other.name()),
        }
    }
}

/// The paper's "Cu-GEMM" column: the fastest of Algo0/Algo1/Algo3 on the
/// shape.
pub fn cu_gemm_best(shape: &ConvShape, device: &DeviceSpec, precision: Precision) -> AlgoCosts {
    [Algo::CuAlgo0, Algo::CuAlgo1, Algo::CuAlgo3]
        .iter()
        .filter(|a| a.supports(shape, precision))
        .map(|a| a.costs(shape, device, precision))
        .min_by(|a, b| a.time.partial_cmp(&b.time).unwrap())
        .expect("at least one GEMM algorithm supports every shape")
}

#[cfg(test)]
mod tests {
    use super::*;
    use winrs_gpu_sim::{RTX_3090, RTX_4090};

    #[test]
    fn winrs_beats_cu_gemm_across_sweep() {
        // Table 3: FP32 speedup over Cu-GEMM is 1.05×–3.56× on the 4090.
        for &f in &[2usize, 3, 5, 7, 9] {
            let shape = ConvShape::square(32, 56, 128, 128, f);
            let winrs = Algo::WinRs.costs(&shape, &RTX_4090, Precision::Fp32);
            let gemm = cu_gemm_best(&shape, &RTX_4090, Precision::Fp32);
            let speedup = gemm.time / winrs.time;
            assert!(
                speedup > 1.0 && speedup < 6.0,
                "f={f}: speedup {speedup:.2}"
            );
        }
    }

    #[test]
    fn winrs_speedup_grows_with_filter_size() {
        // Table 3 trend: larger F_H×F_W → larger speedup over Cu-GEMM
        // (bigger transform-based FLOP reduction).
        let shape3 = ConvShape::square(32, 56, 128, 128, 3);
        let shape9 = ConvShape::square(32, 56, 128, 128, 9);
        let s3 = cu_gemm_best(&shape3, &RTX_4090, Precision::Fp32).time
            / Algo::WinRs.costs(&shape3, &RTX_4090, Precision::Fp32).time;
        let s9 = cu_gemm_best(&shape9, &RTX_4090, Precision::Fp32).time
            / Algo::WinRs.costs(&shape9, &RTX_4090, Precision::Fp32).time;
        assert!(s9 > s3, "s3 {s3:.2} vs s9 {s9:.2}");
    }

    #[test]
    fn winnf_crossover_with_channel_size() {
        // §6.2: FP32 WinRS beats Cu-WinNF at small O_C; Cu-WinNF's higher
        // FLOP reduction wins once channels amortise its intermediate
        // traffic. (This model's crossover sits near O_C ≈ 1024 — higher
        // than the paper's 256–512, see EXPERIMENTS.md.)
        let small = ConvShape::square(32, 112, 64, 64, 3);
        let big = ConvShape::square(32, 56, 2048, 2048, 3);
        let w_small = Algo::WinRs.costs(&small, &RTX_4090, Precision::Fp32);
        let n_small = Algo::CuWinNF.costs(&small, &RTX_4090, Precision::Fp32);
        assert!(
            w_small.time < n_small.time,
            "small channels: WinRS {} vs WinNF {}",
            w_small.time,
            n_small.time
        );
        let w_big = Algo::WinRs.costs(&big, &RTX_4090, Precision::Fp32);
        let n_big = Algo::CuWinNF.costs(&big, &RTX_4090, Precision::Fp32);
        assert!(
            n_big.time < w_big.time,
            "big channels: WinRS {} vs WinNF {}",
            w_big.time,
            n_big.time
        );
    }

    #[test]
    fn fft_loses_at_small_filters() {
        // §6.4: "Cu-FFT lags behind Cu-GEMM with small F_H×F_W"; WinRS
        // consistently beats it there.
        let shape = ConvShape::square(32, 112, 64, 64, 2);
        let winrs = Algo::WinRs.costs(&shape, &RTX_4090, Precision::Fp32);
        let fft = Algo::CuFft.costs(&shape, &RTX_4090, Precision::Fp32);
        assert!(
            fft.time > 1.5 * winrs.time,
            "fft {} vs winrs {}",
            fft.time,
            winrs.time
        );
    }

    #[test]
    fn nonfused_relatively_better_on_3090() {
        // Observation 2: WinRS's edge over non-fused algorithms shrinks on
        // the 3090 (lower compute-to-bandwidth ratio).
        let shape = ConvShape::square(32, 56, 256, 256, 3);
        let edge_4090 = Algo::CuWinNF.costs(&shape, &RTX_4090, Precision::Fp32).time
            / Algo::WinRs.costs(&shape, &RTX_4090, Precision::Fp32).time;
        let edge_3090 = Algo::CuWinNF.costs(&shape, &RTX_3090, Precision::Fp32).time
            / Algo::WinRs.costs(&shape, &RTX_3090, Precision::Fp32).time;
        assert!(
            edge_3090 < edge_4090,
            "3090 edge {edge_3090:.2} vs 4090 edge {edge_4090:.2}"
        );
    }

    #[test]
    fn support_matrix_matches_paper() {
        let s3 = ConvShape::square(32, 56, 64, 64, 3);
        let s5 = ConvShape::square(32, 56, 64, 64, 5);
        let s7 = ConvShape::square(32, 56, 64, 64, 7);
        assert!(Algo::CuWinNF.supports(&s3, Precision::Fp16));
        assert!(!Algo::CuWinNF.supports(&s5, Precision::Fp16));
        assert!(Algo::CuWinNF.supports(&s5, Precision::Fp32));
        assert!(!Algo::CuWinNF.supports(&s7, Precision::Fp32));
        assert!(!Algo::CuFft.supports(&s3, Precision::Fp16));
        assert!(Algo::CuAlgo1.supports(&s3, Precision::Fp16));
        assert!(Algo::WinRs.supports(&s7, Precision::Fp16));
    }

    #[test]
    fn workspace_ordering_matches_table2() {
        let shape = ConvShape::square(32, 56, 256, 256, 3);
        let winrs = Algo::WinRs.workspace_bytes(&shape, &RTX_4090);
        let fft = Algo::CuFft.workspace_bytes(&shape, &RTX_4090);
        let winnf = Algo::CuWinNF.workspace_bytes(&shape, &RTX_4090);
        let algo0 = Algo::CuAlgo0.workspace_bytes(&shape, &RTX_4090);
        assert_eq!(algo0, 0);
        assert!(winrs * 10 < fft, "winrs {winrs} vs fft {fft}");
        assert!(winrs * 10 < winnf, "winrs {winrs} vs winnf {winnf}");
    }
}
