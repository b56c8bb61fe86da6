//! Fail-safe acceptance tests (the robustness contract of the dispatcher,
//! `ExecHandle`, and of the guarded plan executor it runs):
//!
//! 1. A problem outside the WinRS envelope completes through the GEMM-BFC
//!    fallback, with a report naming exactly why WinRS did not run.
//! 2. A deterministically injected FP16 overflow under `PromoteAndRetry`
//!    is repaired to full FP32 accuracy, re-running *only* the poisoned
//!    buckets.
//! 3. No CLI-reachable invalid input panics: ill-formed shapes and
//!    mismatched tensors come back as typed errors listing every violated
//!    invariant.
//!
//! The fault injector (`winrs_core::faults`) is compiled in via the root
//! package's dev-dependency feature; its state is process-global, so every
//! test that arms it holds `faults::serial_guard()`.

use winrs::conv::{direct, ConvShape};
use winrs::core::fallback::{run_planned_into, Algorithm, NumericGuard};
use winrs::core::faults;
use winrs::core::{
    ExecHandle, Precision, Violation, WinRsPlan, WinrsError, Workspace, WorkspacePool,
};
use winrs::gpu::RTX_4090;
use winrs::tensor::{mare, Tensor4};

/// A private single-slot pool under the default `Auto` policy.
fn handle(precision: Precision, guard: NumericGuard) -> ExecHandle {
    ExecHandle::new(WorkspacePool::with_slots(1), RTX_4090, precision).with_guard(guard)
}

/// Benign random problem: FP32 inputs plus the f64 direct-convolution
/// reference. Magnitudes ~1, so FP16 never overflows *naturally* — any
/// overflow in these tests is the injector's doing.
fn problem(conv: &ConvShape, seed: u64) -> (Tensor4<f32>, Tensor4<f32>, Tensor4<f64>) {
    let x64 = Tensor4::<f64>::random_uniform([conv.n, conv.ih, conv.iw, conv.ic], seed, 1.0);
    let dy64 =
        Tensor4::<f64>::random_uniform([conv.n, conv.oh(), conv.ow(), conv.oc], seed + 1, 1.0);
    let exact = direct::bfc_direct(conv, &x64, &dy64);
    (x64.cast(), dy64.cast(), exact)
}

#[test]
fn unsupported_shape_completes_via_gemm_fallback() {
    // F_W = 4 has no FP16-ported kernel, so the plan is rejected — the
    // dispatcher must still deliver ∇W, via GEMM-BFC, and say why.
    let conv = ConvShape::square(1, 16, 3, 3, 4);
    let (x, dy, exact) = problem(&conv, 11);
    assert!(WinRsPlan::new(&conv, &RTX_4090, Precision::Fp16).is_err());

    let (dw, report) = handle(Precision::Fp16, NumericGuard::Warn)
        .run(&conv, &x, &dy)
        .expect("auto fallback must deliver");
    assert_eq!(report.algorithm, Algorithm::GemmBfc);
    let reason = report.fallback_reason.as_ref().expect("reason recorded");
    assert!(matches!(
        reason.violations()[0],
        Violation::NoReducedPrecisionKernel { fw: 4, .. }
    ));
    assert!(report.summary_line().contains("filter width 4"));
    assert!(mare(&dw, &exact) < 1e-5);
}

#[test]
fn injected_overflow_everywhere_promote_retry_restores_fp32_accuracy() {
    let _g = faults::serial_guard();
    let conv = ConvShape::square(1, 12, 2, 2, 3);
    let (x, dy, exact) = problem(&conv, 21);
    let plan = WinRsPlan::new(&conv, &RTX_4090, Precision::Fp16).expect("in-envelope");
    let num_segments = plan.partition().segments.len();

    // Poison every segment: PromoteAndRetry must re-run every bucket at
    // FP32, so the result carries no FP16 rounding at all.
    faults::arm(0..num_segments);
    let (dw, report) = handle(Precision::Fp16, NumericGuard::PromoteAndRetry)
        .run(&conv, &x, &dy)
        .expect("guarded WinRS run");
    let fired = faults::disarm();

    assert_eq!(fired.len(), num_segments, "every armed segment must fire");
    assert!(report.saturated > 0, "injected 1e30 must saturate binary16");
    assert_eq!(report.algorithm, Algorithm::WinRs);
    assert_eq!(report.promoted_buckets, plan.z(), "all buckets promoted");
    assert_eq!(report.promoted_segments.len(), num_segments);
    assert!(!report.tainted(), "promotion repairs the taint");
    assert!(dw.as_slice().iter().all(|v| v.is_finite()));
    // With every bucket re-run at FP32 the result is a plain FP32 WinRS
    // execution: full accuracy against the f64 direct reference.
    let m = mare(&dw, &exact);
    assert!(m < 1e-5, "MARE {m}");
}

#[test]
fn single_injected_fault_promotes_only_the_poisoned_bucket() {
    let _g = faults::serial_guard();
    let conv = ConvShape::square(2, 16, 4, 4, 3);
    let (x, dy, exact) = problem(&conv, 31);
    // CPU-testable shapes auto-plan to Z = 1 (channels already saturate the
    // modelled GPU), so force a segmented plan and run it through the
    // guarded executor the dispatcher itself uses.
    let plan = WinRsPlan::with_z_hat(&conv, &RTX_4090, Precision::Fp16, 6).expect("in-envelope");
    let segments = &plan.partition().segments;
    assert!(plan.z() > 1, "test needs a multi-bucket plan, got Z = 1");

    faults::arm([0usize]);
    let mut dw = Tensor4::<f32>::zeros([conv.oc, conv.fh, conv.fw, conv.ic]);
    let report = run_planned_into(
        &plan,
        &x,
        &dy,
        NumericGuard::PromoteAndRetry,
        &mut Workspace::new(),
        &mut dw,
    )
    .expect("guarded WinRS run");
    let fired = faults::disarm();

    assert_eq!(fired, vec![0], "exactly the armed segment fires");
    assert!(report.saturated > 0);
    // Promotion is bucket-granular: segment 0's bucket re-ran, with its
    // bucket-mates (a band's residual shares its first bulk segment's
    // bucket) — and nothing else.
    assert_eq!(report.promoted_buckets, 1);
    assert!(report.promoted_segments.contains(&0));
    let poisoned_bucket = segments[0].bucket;
    for &s in &report.promoted_segments {
        assert_eq!(
            segments[s].bucket, poisoned_bucket,
            "segment {s} re-ran but lives in a different bucket"
        );
    }
    assert!(
        report.promoted_segments.len() < segments.len(),
        "healthy segments must keep their FP16 results"
    );
    assert!(!report.tainted());
    assert!(dw.as_slice().iter().all(|v| v.is_finite()));
    // The repaired result stays inside the plain FP16 accuracy band.
    let m = mare(&dw, &exact);
    assert!(m < 5e-3, "MARE {m}");
}

#[test]
fn warn_guard_reports_injected_fault_without_repair() {
    let _g = faults::serial_guard();
    let conv = ConvShape::square(1, 12, 2, 2, 3);
    let (x, dy, _) = problem(&conv, 41);

    faults::arm([0usize]);
    let (dw, report) = handle(Precision::Fp16, NumericGuard::Warn)
        .run(&conv, &x, &dy)
        .expect("guarded WinRS run");
    faults::disarm();

    assert!(report.saturated > 0);
    assert_eq!(report.promoted_buckets, 0);
    assert!(report.tainted(), "Warn counts but does not repair");
    // The poison must be visible in the output — Warn never masks it.
    assert!(dw.as_slice().iter().any(|v| !v.is_finite()));
}

#[test]
fn invalid_shape_is_a_typed_error_listing_every_violation() {
    // n = 0, ic = 0 and fw = 0 are all ill-formed. No algorithm can run
    // this, fallback or not: the dispatcher must return InvalidShape
    // naming all three, and must not touch the tensors (so no panic).
    let conv = ConvShape {
        n: 0,
        ih: 8,
        iw: 8,
        ic: 0,
        oc: 2,
        fh: 3,
        fw: 0,
        ph: 1,
        pw: 1,
    };
    let x = Tensor4::<f32>::zeros([1, 8, 8, 1]);
    let dy = Tensor4::<f32>::zeros([1, 8, 8, 2]);
    let err = handle(Precision::Fp32, NumericGuard::Warn)
        .run(&conv, &x, &dy)
        .unwrap_err();
    assert!(matches!(err, WinrsError::InvalidShape(_)));
    assert!(!err.recoverable_by_fallback());
    assert_eq!(err.violations().len(), 3, "{err}");
    let msg = err.to_string();
    for field in ["n", "ic", "fw"] {
        assert!(msg.contains(field), "missing '{field}' in: {msg}");
    }
}

#[test]
fn mismatched_tensors_are_typed_errors_not_panics() {
    let conv = ConvShape::square(1, 8, 2, 2, 3);
    let plan = WinRsPlan::new(&conv, &RTX_4090, Precision::Fp32).expect("in-envelope");
    // Both tensors wrong at once: one error, both named.
    let x = Tensor4::<f32>::zeros([1, 9, 8, 2]);
    let dy = Tensor4::<f32>::zeros([2, 8, 8, 2]);
    let err = plan.execute_f32(&x, &dy).unwrap_err();
    assert!(matches!(err, WinrsError::ExecutionRejected(_)));
    assert_eq!(err.violations().len(), 2, "{err}");
}
