//! Fail-safe acceptance tests (the robustness contract of the dispatcher,
//! `ExecHandle`, and of the guarded plan executor it runs):
//!
//! 1. A problem WinRS cannot run completes through the GEMM-BFC
//!    fallback, with a report naming exactly why WinRS did not run; an
//!    FP16 request whose filter width has no FP16 kernel runs WinRS on
//!    FP32 tiles instead, and says so.
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

use std::sync::Arc;
use std::time::Duration;
use winrs::conv::{direct, ConvShape};
use winrs::core::engine::TileMode;
use winrs::core::fallback::{run_planned_into, Algorithm, FallbackPolicy, NumericGuard};
use winrs::core::faults;
use winrs::core::{
    BfcJob, ExecHandle, PoolConfig, Precision, Violation, WinRsPlan, WinrsError, Workspace,
    WorkspacePool,
};
use winrs::gpu::RTX_4090;
use winrs::tensor::{mare, Tensor4};

/// A private single-slot pool under the default `Auto` policy.
fn handle(precision: Precision, guard: NumericGuard) -> ExecHandle {
    ExecHandle::new(WorkspacePool::with_slots(1), RTX_4090, precision).with_guard(guard)
}

/// The same under `Strict`, which pins WinRS: the fault-injection tests
/// below inject into WinRS's FP16 tiles, and on their micro shape the
/// host model would run a substitute.
fn strict(precision: Precision, guard: NumericGuard) -> ExecHandle {
    handle(precision, guard).with_policy(FallbackPolicy::Strict)
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
    // F_W = 4 has no FP16-ported kernel: the planner rejects the FP16
    // plan, and the tuner runs the key's FP32-tile plan instead. When that
    // WinRS run cannot start either (the pool's only slot is held), the
    // dispatcher must still deliver ∇W, via GEMM-BFC, and say why.
    let conv = ConvShape::square(1, 16, 3, 3, 4);
    let (x, dy, exact) = problem(&conv, 11);
    let refusal = WinRsPlan::new(&conv, &RTX_4090, Precision::Fp16)
        .err()
        .expect("no FP16 kernel for F_W = 4");
    assert!(matches!(
        refusal.violations()[0],
        Violation::NoReducedPrecisionKernel { fw: 4, .. }
    ));
    assert!(refusal.to_string().contains("filter width 4"), "{refusal}");

    let pool = WorkspacePool::new(PoolConfig {
        slots: 1,
        max_wait: Duration::from_millis(5),
        ..PoolConfig::default()
    });
    let plan = pool
        .cached_plan(&conv, &RTX_4090, Precision::Fp16)
        .expect("FP32 tiles");
    let _held = pool.lease(plan.workspace_layout()).expect("the only slot");
    let (dw, report) = ExecHandle::new(Arc::clone(&pool), RTX_4090, Precision::Fp16)
        .run(&conv, &x, &dy)
        .expect("auto fallback must deliver");
    assert_eq!(report.algorithm, Algorithm::GemmBfc);
    assert_eq!(report.chosen, Algorithm::WinRs);
    let reason = report.fallback_reason.as_ref().expect("reason recorded");
    assert!(
        matches!(reason, WinrsError::PoolExhausted { slots: 1, .. }),
        "{reason}"
    );
    assert!(report
        .summary_line()
        .contains(&format!("fallback=\"{reason}\"")));
    assert_eq!(report.pool.expect("pool snapshot").degradations, 1);
    assert!(mare(&dw, &exact) < 1e-5);
}

/// An FP16 request whose filter width has no FP16 kernel runs WinRS on
/// FP32 tiles under `Auto`: the report names the caller's precision and
/// the tiles that ran, records no fallback, and the ∇W is an FP32
/// dispatch's, bit for bit.
#[test]
fn unported_fp16_width_runs_winrs_on_fp32_tiles() {
    let conv = ConvShape::square(1, 16, 3, 3, 4);
    let (x, dy, exact) = problem(&conv, 12);
    let (dw16, report) = handle(Precision::Fp16, NumericGuard::Warn)
        .run(&conv, &x, &dy)
        .expect("FP32-tile WinRS");
    assert_eq!(report.algorithm, Algorithm::WinRs);
    assert_eq!(report.requested_precision, Precision::Fp16);
    assert_eq!(report.tiles, Some(TileMode::Fp32));
    assert!(report.fallback_reason.is_none());
    assert_eq!(report.pool.expect("pool snapshot").degradations, 0);
    let line = report.summary_line();
    assert!(
        line.starts_with("algorithm=winrs precision=Fp16 tiles=fp32 "),
        "{line}"
    );
    let (dw32, fp32) = handle(Precision::Fp32, NumericGuard::Warn)
        .run(&conv, &x, &dy)
        .expect("FP32 WinRS");
    assert_eq!(fp32.algorithm, Algorithm::WinRs);
    assert!(
        dw16.as_slice()
            .iter()
            .zip(dw32.as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "FP32 tiles must give the FP32 dispatch's ∇W bit for bit"
    );
    let m = mare(&dw16, &exact);
    assert!(m < 1e-5, "MARE {m}");
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
    let (dw, report) = strict(Precision::Fp16, NumericGuard::PromoteAndRetry)
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
    let (dw, report) = strict(Precision::Fp16, NumericGuard::Warn)
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

/// Every dispatch rung refuses mis-shaped operands the same way: one
/// `ExecutionRejected` naming each bad tensor, before any lease or
/// degradation. The substitute rungs (direct, GEMM-BFC, FFT) run outside
/// the WinRS engine, so without the per-job check they would panic or
/// compute a ∇W from the wrong tensor.
#[test]
fn mis_shaped_operands_are_refused_on_every_rung() {
    use Algorithm::{Direct, FftBfc, GemmBfc, WinRs};
    use FallbackPolicy::{Auto, Force, Strict};
    // Micro shapes where a substitute's smaller fixed cost per call wins
    // under the host model (the FP16 f=2 key runs GEMM-BFC although its
    // FP32-tile WinRS plan is viable).
    let to_direct = ConvShape::square(1, 8, 2, 2, 3);
    let to_gemm = ConvShape::square(1, 8, 4, 4, 2);
    let (fp32, fp16) = (Precision::Fp32, Precision::Fp16);
    // (label, shape, precision, policy, where Auto routes well-shaped
    // operands — checked first so the case keeps covering that rung).
    let cases = [
        ("auto->direct", to_direct, fp32, Auto, Some(Direct)),
        ("auto->gemm", to_gemm, fp16, Auto, Some(GemmBfc)),
        ("strict", to_direct, fp32, Strict, None),
        ("force-fft", to_direct, fp32, Force(FftBfc), None),
        ("force-direct", to_direct, fp32, Force(Direct), None),
        ("force-gemm", to_direct, fp32, Force(GemmBfc), None),
        ("force-winrs", to_direct, fp32, Force(WinRs), None),
    ];
    for (label, conv, precision, policy, auto_route) in cases {
        let handle = |pool: &Arc<WorkspacePool>| {
            ExecHandle::new(Arc::clone(pool), RTX_4090, precision).with_policy(policy)
        };
        if let Some(want) = auto_route {
            let (x, dy, _) = problem(&conv, 7);
            let (_, report) = handle(&WorkspacePool::with_slots(1))
                .run(&conv, &x, &dy)
                .expect("well-shaped operands run");
            assert_eq!(report.algorithm, want, "{label}: Auto routes elsewhere now");
        }
        let good_x = [conv.n, conv.ih, conv.iw, conv.ic];
        let good_dy = [conv.n, conv.oh(), conv.ow(), conv.oc];
        let bad_x = [conv.n, conv.ih, conv.iw, conv.ic + 1];
        let bad_dy = [conv.n, conv.oh(), conv.ow(), conv.oc + 1];
        for (x_dims, dy_dims, want) in [
            (bad_x, good_dy, vec!["x"]),
            (good_x, bad_dy, vec!["dy"]),
            (bad_x, bad_dy, vec!["x", "dy"]),
        ] {
            let x = Tensor4::<f32>::random_uniform(x_dims, 1, 1.0);
            let dy = Tensor4::<f32>::random_uniform(dy_dims, 2, 1.0);
            let pool = WorkspacePool::with_slots(1);
            let h = handle(&pool);
            let single = h.run(&conv, &x, &dy).map(|_| ());
            let mut batch = h.run_batch(&conv, vec![BfcJob::new(x, dy)]);
            assert_eq!(batch.len(), 1);
            let batched = batch.remove(0).map(|_| ());
            for (path, result) in [("run", single), ("run_batch", batched)] {
                let Err(WinrsError::ExecutionRejected(violations)) = result else {
                    panic!("{label}/{path} {want:?}: expected ExecutionRejected, got {result:?}");
                };
                let named: Vec<&str> = violations
                    .iter()
                    .map(|v| match v {
                        Violation::TensorDimsMismatch { tensor, .. } => *tensor,
                        other => panic!("{label}/{path}: unexpected violation {other:?}"),
                    })
                    .collect();
                assert_eq!(named, want, "{label}/{path}");
            }
            let st = pool.stats();
            assert_eq!(
                (st.leases, st.degradations),
                (0, 0),
                "{label} {want:?}: {st}"
            );
        }
    }
}

#[test]
fn force_winrs_runs_the_winrs_rung_like_strict() {
    // `Force(WinRs)` pins the WinRS engine: the same rung as `Strict`, so
    // the same Z and the same ∇W bits, through single and batched dispatch.
    let conv = ConvShape::square(2, 16, 8, 8, 3);
    let (x, dy, _) = problem(&conv, 91);
    let pinned = |policy| handle(Precision::Fp32, NumericGuard::Warn).with_policy(policy);
    let (strict_dw, strict) = pinned(FallbackPolicy::Strict)
        .run(&conv, &x, &dy)
        .expect("strict WinRS run");
    assert_eq!(strict.algorithm, Algorithm::WinRs);
    assert!(strict.z.is_some());

    let forced = pinned(FallbackPolicy::Force(Algorithm::WinRs));
    let single = forced.run(&conv, &x, &dy).expect("forced WinRS run");
    let batched = forced
        .run_batch(&conv, vec![BfcJob::new(x.clone(), dy.clone())])
        .pop()
        .expect("one job in, one result out")
        .expect("forced WinRS batch");
    for (dw, report) in [single, batched] {
        assert_eq!(report.algorithm, Algorithm::WinRs);
        assert_eq!(report.chosen, Algorithm::WinRs);
        assert_eq!(report.z, strict.z, "the WinRS rung reports its Z");
        assert!(report.tuner.is_none(), "a pinned policy consults no tuner");
        assert!(
            dw.as_slice()
                .iter()
                .zip(strict_dw.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "Force(WinRs) must produce Strict's ∇W bit for bit"
        );
    }
}
