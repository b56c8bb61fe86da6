//! Cross-crate observability contract: `ExecutionReport.timing` must be
//! populated on every dispatch path (WinRS, GEMM fallback, the tuner's
//! choice of a substitute, forced direct, warm plan cache), and the
//! wall-clock phases must account for the total. The FT/IT/EWMM/OT busy
//! split is one timed pass on request (`metrics::time_block_loop`).

use winrs::core::engine::sched;
use winrs::core::fallback::{ExecutionReport, FallbackPolicy, NumericGuard};
use winrs::core::metrics::time_block_loop;
use std::sync::Arc;
use std::time::Duration;
use winrs::core::{
    Algorithm, ExecHandle, PoolConfig, Precision, WorkspaceLayout, WorkspacePool,
};
use winrs::gpu::RTX_4090;
use winrs::tensor::Tensor4;
use winrs_conv::ConvShape;

/// A handle over a private pool, so each test's cache counters start cold.
fn handle(precision: Precision, policy: FallbackPolicy) -> ExecHandle {
    ExecHandle::new(WorkspacePool::with_slots(1), RTX_4090, precision).with_policy(policy)
}

fn tensors(shape: &ConvShape, scale: f64) -> (Tensor4<f32>, Tensor4<f32>) {
    let x = Tensor4::<f32>::random_uniform([shape.n, shape.ih, shape.iw, shape.ic], 21, 1.0);
    let dy = Tensor4::<f32>::random_uniform(
        [shape.n, shape.oh(), shape.ow(), shape.oc],
        22,
        scale,
    );
    (x, dy)
}

/// The wall phases are timed as sub-intervals of the total, so their sum
/// (with `other_s` closing the gap) must match the total almost exactly;
/// 10% is the documented acceptance bound.
fn assert_wall_phases_account_for_total(report: &ExecutionReport) {
    let t = &report.timing;
    assert!(t.is_populated(), "timing not populated: {t:?}");
    let sum = t.plan_s + t.block_loop_s + t.promote_s + t.reduce_s + t.other_s();
    assert!(
        (sum - t.total_s).abs() <= 0.10 * t.total_s,
        "phase sum {sum} vs total {} on {}",
        t.total_s,
        report.algorithm.name()
    );
}

#[test]
fn winrs_path_reports_full_phase_breakdown() {
    let shape = ConvShape::square(2, 16, 4, 8, 3);
    let (x, dy) = tensors(&shape, 1.0);
    let handle = handle(Precision::Fp32, FallbackPolicy::default());
    let (_dw, report) = handle.run(&shape, &x, &dy).expect("dispatch");
    assert_eq!(report.algorithm, Algorithm::WinRs);
    assert_wall_phases_account_for_total(&report);
    // Per-block phase data comes from one timed pass of the cached plan
    // over a lease from the same pool.
    let plan = handle
        .pool()
        .cached_plan(&shape, &RTX_4090, Precision::Fp32)
        .expect("cached plan");
    let mut lease = handle.pool().lease(plan.workspace_layout()).expect("lease");
    let (sink, wall_s) =
        time_block_loop(&plan, &x, &dy, NumericGuard::default(), lease.workspace())
            .expect("timed pass");
    assert!(sink.blocks() > 0, "engine should count block tasks");
    assert!(sink.ewmm_ns() > 0 && sink.ft_ns() > 0 && sink.it_ns() > 0 && sink.ot_ns() > 0);
    assert!(sink.busy_ns() >= sink.ft_ns() + sink.it_ns() + sink.ewmm_ns() + sink.ot_ns());
    let utilisation = sink.utilisation(wall_s, sched::workers());
    assert!(utilisation > 0.0 && utilisation <= 1.0);
    assert!(sink.min_ns() <= sink.mean_ns() && sink.mean_ns() <= sink.max_ns());
    assert!(report.summary_line().contains(" total="), "{}", report.summary_line());
}

#[test]
fn gemm_fallback_path_reports_timing() {
    // The pool's only slot is held, so the WinRS rung cannot lease: the
    // auto policy degrades to GEMM-BFC, whose runtime is charged to the
    // block-loop phase.
    let shape = ConvShape::square(1, 16, 3, 3, 4);
    let (x, dy) = tensors(&shape, 0.01);
    let pool = WorkspacePool::new(PoolConfig {
        slots: 1,
        max_wait: Duration::from_millis(5),
        ..PoolConfig::default()
    });
    let _held = pool
        .lease(&WorkspaceLayout::winrs(0, 1, 16, 1, 0))
        .expect("the only slot");
    let (_dw, report) = ExecHandle::new(Arc::clone(&pool), RTX_4090, Precision::Fp16)
        .run(&shape, &x, &dy)
        .expect("dispatch");
    assert_eq!(report.algorithm, Algorithm::GemmBfc);
    assert!(report.fallback_reason.is_some());
    assert_wall_phases_account_for_total(&report);
    assert!(report.timing.block_loop_s > 0.0);
}

#[test]
fn tuner_choice_path_reports_timing() {
    // On this micro shape the tuner picks direct convolution although
    // WinRS is viable: a choice, not a fallback.
    let shape = ConvShape::square(1, 8, 2, 2, 3);
    let (x, dy) = tensors(&shape, 1.0);
    let (_dw, report) = handle(Precision::Fp32, FallbackPolicy::Auto)
        .run(&shape, &x, &dy)
        .expect("dispatch");
    assert_eq!(report.algorithm, Algorithm::Direct);
    assert!(report.fallback_reason.is_none());
    assert_wall_phases_account_for_total(&report);
    assert!(report.timing.block_loop_s > 0.0);
}

#[test]
fn forced_direct_path_reports_timing() {
    let shape = ConvShape::square(1, 10, 2, 2, 3);
    let (x, dy) = tensors(&shape, 1.0);
    let (_dw, report) = handle(Precision::Fp32, FallbackPolicy::Force(Algorithm::Direct))
        .run(&shape, &x, &dy)
        .expect("dispatch");
    assert_eq!(report.algorithm, Algorithm::Direct);
    assert_wall_phases_account_for_total(&report);
}

#[test]
fn cached_dispatch_reports_timing_and_counters_each_call() {
    let shape = ConvShape::square(1, 16, 8, 8, 3);
    let (x, dy) = tensors(&shape, 1.0);
    let handle = handle(Precision::Fp32, FallbackPolicy::default());
    for call in 0..3u64 {
        let (_dw, report) = handle.run(&shape, &x, &dy).expect("dispatch");
        assert_eq!(report.algorithm, Algorithm::WinRs);
        assert_wall_phases_account_for_total(&report);
        let pool = report.pool.expect("pool snapshot");
        assert_eq!((pool.plan_hits, pool.plan_misses), (call, 1));
    }
    // Warm calls skip planning entirely; the cache makes plan_s ≈ 0 worth
    // asserting structurally via the counters above rather than by time.
    assert_eq!(handle.pool().plan_stats(), (2, 1));
}
