//! Integration: the paper's headline numbers, asserted end-to-end through
//! the public API. Each test names the claim it pins down.

use winrs::conv::ConvShape;
use winrs::core::{Precision, WinRsPlan};
use winrs::gpu::{bfc_block_count, fc_block_count, BlockGeometry, RTX_4090};
use winrs_bench::{cu_gemm_best, paper_sweep, Algo};

#[test]
fn abstract_claim_workspace_below_4_percent_of_fft_and_winnf() {
    // "WinRS uses less than 4% workspace of cuDNN FFT and Winograd".
    // Like the paper, compare *average* workspace per algorithm over the
    // shapes each supports.
    let sweep = paper_sweep();
    let avg = |algo: Algo| -> f64 {
        let pts: Vec<f64> = sweep
            .iter()
            .filter(|w| algo.supports(&w.shape, Precision::Fp32))
            .map(|w| algo.workspace_bytes(&w.shape, &RTX_4090) as f64)
            .collect();
        assert!(!pts.is_empty());
        pts.iter().sum::<f64>() / pts.len() as f64
    };
    let winrs = avg(Algo::WinRs);
    assert!(winrs / avg(Algo::CuFft) < 0.04);
    assert!(winrs / avg(Algo::CuWinNF) < 0.04);
}

#[test]
fn abstract_claim_speedup_over_gemm_with_comparable_workspace() {
    // "WinRS achieves 1.05× to 4.7× speedup over cuDNN GEMM using
    // comparable workspace" — modelled speedup in (1, 5) and workspace
    // within a small multiple of Cu-Algo3's.
    let sweep = paper_sweep();
    for w in sweep.iter().filter(|w| w.shape.fh >= 3) {
        let winrs = Algo::WinRs.costs(&w.shape, &RTX_4090, Precision::Fp32);
        let gemm = cu_gemm_best(&w.shape, &RTX_4090, Precision::Fp32);
        let speedup = gemm.time / winrs.time;
        assert!(
            speedup > 1.0 && speedup < 6.0,
            "{}: speedup {speedup:.2}",
            w.label
        );
    }
}

#[test]
fn intro_claim_flop_reduction_band() {
    // "reducing time complexity by 1.5× to 4.5×" (clipping adds a little).
    for w in paper_sweep() {
        let plan = WinRsPlan::new(&w.shape, &RTX_4090, Precision::Fp32).unwrap();
        let red = plan.flop_reduction();
        assert!(
            (1.4..=5.5).contains(&red),
            "{}: reduction {red:.2}",
            w.label
        );
    }
}

#[test]
fn figure2_exact_block_counts() {
    let s = ConvShape::vgg16_conv2(32);
    assert_eq!(
        fc_block_count(BlockGeometry::FIG2, s.oc, s.n, s.oh(), s.ow(), 2, 2),
        12544
    );
    assert_eq!(
        bfc_block_count(BlockGeometry::FIG2, s.oc, s.ic, s.fh, s.fw, 2, 2),
        8
    );
}

#[test]
fn figure5_exact_pair_for_fw3_ow16() {
    let pair = winrs::core::config::pair::select_pair(3, 16, Precision::Fp32);
    assert_eq!(format!("{}", pair.bulk), "Ω8(3,6)");
    assert_eq!(format!("{}", pair.residual.unwrap()), "Ω4(3,2)");
    assert_eq!(pair.bulk_width(), 12);
    assert_eq!(pair.residual_width(), 4);
}

#[test]
fn fp16_speedup_near_3x() {
    // "WinRS achieves 3.27× the throughput of its FP32 CUDA-Core version".
    let mut total = 0.0;
    let mut count = 0;
    for w in paper_sweep().iter().filter(|w| w.shape.fh % 2 == 1) {
        let t32 = Algo::WinRs.costs(&w.shape, &RTX_4090, Precision::Fp32).time;
        let t16 = Algo::WinRs.costs(&w.shape, &RTX_4090, Precision::Fp16).time;
        total += t32 / t16;
        count += 1;
    }
    let avg = total / count as f64;
    assert!((2.2..=4.5).contains(&avg), "average FP16 speedup {avg:.2}");
}

#[test]
fn average_workspace_fraction_is_small() {
    // "a small average workspace 18% of data size" — ours comes out even
    // smaller (the sweep differs); assert the order of magnitude.
    let sweep = paper_sweep();
    let avg: f64 = sweep
        .iter()
        .map(|w| {
            let plan = WinRsPlan::new(&w.shape, &RTX_4090, Precision::Fp32).unwrap();
            plan.workspace_bytes() as f64 / w.shape.data_bytes(4) as f64
        })
        .sum::<f64>()
        / sweep.len() as f64;
    assert!(avg < 0.25, "average workspace fraction {avg:.3}");
}

#[test]
fn measured_workspace_peak_is_exactly_z_minus_1_gradw() {
    // §4: "the workspace of WinRS is (Z−1)·|∇W|". Not just the planned
    // figure — the *measured* peak of a real execution must land on the
    // formula exactly, and on the layout the plan publishes.
    use winrs::core::fallback::{run_planned_into, NumericGuard};
    use winrs::core::Workspace;
    use winrs::tensor::Tensor4;
    for &(res, f, z_hat) in &[(16usize, 3usize, 4usize), (20, 2, 3), (18, 5, 2)] {
        let conv = ConvShape::square(1, res, 2, 2, f);
        let plan = WinRsPlan::with_z_hat(&conv, &RTX_4090, Precision::Fp32, z_hat)
            .expect("in-envelope shape");
        assert!(plan.z() > 1, "res={res} f={f}: want a segmented plan");
        let x = Tensor4::<f32>::random_uniform([conv.n, conv.ih, conv.iw, conv.ic], 51, 1.0);
        let dy = Tensor4::<f32>::random_uniform([conv.n, conv.oh(), conv.ow(), conv.oc], 52, 1.0);
        let mut dw = Tensor4::<f32>::zeros([conv.oc, conv.fh, conv.fw, conv.ic]);
        let report = run_planned_into(
            &plan,
            &x,
            &dy,
            NumericGuard::Ignore,
            &mut Workspace::new(),
            &mut dw,
        )
        .unwrap();
        let dw_bytes = conv.dw_elems() * 4;
        assert_eq!(
            report.mem.workspace_bytes_peak,
            (plan.z() - 1) * dw_bytes,
            "res={res} f={f} z={}",
            plan.z()
        );
        assert_eq!(
            report.mem.workspace_bytes_peak,
            plan.workspace_layout().workspace_bytes()
        );
    }
}

#[test]
fn winnf_only_supports_3x3_and_5x5_like_cudnn() {
    for f in 2..=9usize {
        let shape = ConvShape::square(2, 32, 8, 8, f);
        let supported = Algo::CuWinNF.supports(&shape, Precision::Fp32);
        assert_eq!(supported, f == 3 || f == 5, "f = {f}");
    }
}

#[test]
fn winrs_support_is_the_planners_answer() {
    // One answer to "can WinRS run this key": the bench harness admits
    // exactly the keys the planner accepts, and models a cost for each.
    // FP16 has no kernel for F = 2, 4 and 8: 30 of the sweep's 80 keys.
    let mut refused = 0;
    for w in paper_sweep() {
        for precision in [Precision::Fp32, Precision::Fp16] {
            let valid = WinRsPlan::validate(&w.shape, precision).is_empty();
            assert_eq!(
                Algo::WinRs.supports(&w.shape, precision),
                valid,
                "{} {precision:?}",
                w.label
            );
            if !valid {
                refused += 1;
                continue;
            }
            let cost = Algo::WinRs.costs(&w.shape, &RTX_4090, precision);
            assert!(
                cost.time > 0.0,
                "{} {precision:?}: time {}",
                w.label,
                cost.time
            );
        }
    }
    assert_eq!(refused, 30);
}
