//! Integration: the paper's headline numbers, asserted end-to-end through
//! the public API. Each test names the claim it pins down.

use winrs::conv::ConvShape;
use winrs::core::{Precision, WinRsPlan};
use winrs::gpu::{bfc_block_count, fc_block_count, BlockGeometry, RTX_4090};
use winrs_bench::{cu_gemm_best, paper_sweep, workspace_dims, Algo};

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
fn figure3_workflow_layout_and_figure4_check() {
    // E3 (Figures 3–4), as `fig03_workflow` prints it: F_W = 3 and
    // O_H = O_W = 16. Rows are (rows, first column, width, kernel, bucket,
    // pass).
    use winrs::conv::direct;
    use winrs::tensor::{mare, Tensor4};
    type Row = ((usize, usize), usize, usize, String, usize, u8);
    let layout = |plan: &WinRsPlan| -> Vec<Row> {
        let segments = &plan.partition().segments;
        segments
            .iter()
            .map(|s| {
                (
                    (s.h0, s.h1),
                    s.w0,
                    s.width(),
                    s.kernel.to_string(),
                    s.bucket,
                    s.pass,
                )
            })
            .collect()
    };
    let (bulk, residual) = ("Ω8(3,6)".to_string(), "Ω4(3,2)".to_string());
    let shape = ConvShape::new(2, 16, 16, 8, 8, 3, 3, 1, 1);

    // Unforced: one two-unit bulk segment and the residual, Z = 1.
    let plan = WinRsPlan::new(&shape, &RTX_4090, Precision::Fp32).unwrap();
    assert_eq!(plan.z(), 1);
    assert_eq!(
        layout(&plan),
        vec![
            ((0, 16), 0, 12, bulk.clone(), 0, 0),
            ((0, 16), 12, 4, residual.clone(), 0, 1),
        ]
    );

    // The figure's Ẑ = 9, on the binary's FP16 plan: Z = 6 buckets over 9
    // segments in three row bands. Each band has two one-unit bulk
    // segments in buckets of their own (pass 0) and a residual in the
    // band's first bucket (pass 1).
    let plan9 = WinRsPlan::with_z_hat(&shape, &RTX_4090, Precision::Fp16, 9).unwrap();
    assert_eq!(plan9.z(), 6);
    let mut expected = Vec::new();
    for (band, rows) in [(0, 5), (5, 10), (10, 16)].into_iter().enumerate() {
        expected.push((rows, 0, 6, bulk.clone(), 2 * band, 0));
        expected.push((rows, 6, 6, bulk.clone(), 2 * band + 1, 0));
        expected.push((rows, 12, 4, residual.clone(), 2 * band, 1));
    }
    assert_eq!(layout(&plan9), expected);

    // Figure 4: the unforced plan's fused execution against direct
    // convolution (the binary prints MARE = 8.989e-8).
    let x = Tensor4::<f64>::random_uniform([shape.n, shape.ih, shape.iw, shape.ic], 1, 1.0);
    let dy = Tensor4::<f64>::random_uniform([shape.n, shape.oh(), shape.ow(), shape.oc], 2, 1.0);
    let dw = plan.execute_f32(&x.cast(), &dy.cast()).unwrap();
    let err = mare(&dw, &direct::bfc_direct(&shape, &x, &dy));
    assert!((5e-8..2e-7).contains(&err), "MARE {err:.3e}");
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
    // formula exactly, and on the layout the plan publishes. Bucket 0 is
    // the caller's ∇W, so the arena the run grew holds exactly that
    // workspace plus the scratch: at Z = 1 (the last case) only scratch.
    use winrs::core::fallback::{run_planned_into, NumericGuard};
    use winrs::core::Workspace;
    use winrs::tensor::Tensor4;
    for &(res, f, z_hat) in &[
        (16usize, 3usize, 4usize),
        (20, 2, 3),
        (18, 5, 2),
        (16, 3, 1),
    ] {
        let conv = ConvShape::square(1, res, 2, 2, f);
        let plan = WinRsPlan::with_z_hat(&conv, &RTX_4090, Precision::Fp32, z_hat)
            .expect("in-envelope shape");
        assert_eq!(plan.z() > 1, z_hat > 1, "res={res} f={f}: Z = {}", plan.z());
        let x = Tensor4::<f32>::random_uniform([conv.n, conv.ih, conv.iw, conv.ic], 51, 1.0);
        let dy = Tensor4::<f32>::random_uniform([conv.n, conv.oh(), conv.ow(), conv.oc], 52, 1.0);
        let mut dw = Tensor4::<f32>::zeros([conv.oc, conv.fh, conv.fw, conv.ic]);
        let mut ws = Workspace::new();
        let report =
            run_planned_into(&plan, &x, &dy, NumericGuard::Ignore, &mut ws, &mut dw).unwrap();
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
        let scratch_elems = plan.workspace_layout().scratch_elems();
        assert_eq!(
            ws.arena_bytes(),
            ((plan.z() - 1) * conv.dw_elems() + scratch_elems) * 4,
            "res={res} f={f} z={}: arena",
            plan.z()
        );
    }
}

#[test]
fn figure9_segments_fall_and_workspace_stays_small() {
    // E8 (Figure 9): along the series the segment count never rises from
    // tens of segments, the workspace stays at most 11 MB, and at 512 and
    // 1024 channels one segment suffices, so the workspace is exactly 0.
    let mut prev_z = usize::MAX;
    let mut single_segment = 0;
    for (i, w) in workspace_dims().iter().enumerate() {
        let plan = WinRsPlan::new(&w.shape, &RTX_4090, Precision::Fp32).unwrap();
        let z = plan.z();
        if i == 0 {
            assert!(z >= 40, "{}: first point has Z = {z}", w.label);
        }
        assert!(z <= prev_z, "{}: Z rose from {prev_z} to {z}", w.label);
        prev_z = z;
        let bytes = plan.workspace_bytes();
        assert!(bytes <= 11_000_000, "{}: workspace {bytes} B", w.label);
        assert_eq!(
            plan.workspace_layout().workspace_bytes(),
            (z - 1) * w.shape.dw_elems() * 4,
            "{}",
            w.label
        );
        if w.shape.oc >= 512 {
            assert_eq!((z, bytes), (1, 0), "{}", w.label);
            single_segment += 1;
        }
    }
    assert_eq!(single_segment, 4);
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
