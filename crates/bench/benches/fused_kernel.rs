//! Criterion bench: the fused WinRS engine (FP32 and FP16 paths) on a
//! fixed mid-sized shape, plus segmentation on/off ablation.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use winrs_conv::ConvShape;
use winrs_core::fallback::{run_planned_into, NumericGuard};
use winrs_core::{Precision, WinRsPlan, Workspace};
use winrs_gpu_sim::RTX_4090;
use winrs_tensor::Tensor4;

fn bench_fused_execute(c: &mut Criterion) {
    let shape = ConvShape::square(2, 32, 16, 16, 3);
    let x = Tensor4::<f32>::random_uniform([2, 32, 32, 16], 1, 1.0);
    let dy = Tensor4::<f32>::random_uniform([2, 32, 32, 16], 2, 1.0);
    let plan = WinRsPlan::new(&shape, &RTX_4090, Precision::Fp32)
        .expect("benchmark shape is inside the WinRS envelope");

    let mut g = c.benchmark_group("fused_execute");
    g.throughput(Throughput::Elements(shape.bfc_flops()));
    g.bench_function("fp32", |b| {
        b.iter(|| {
            black_box(
                plan.execute_f32(black_box(&x), black_box(&dy))
                    .expect("valid args"),
            )
        })
    });

    let plan16 = WinRsPlan::new(&shape, &RTX_4090, Precision::Fp16)
        .expect("benchmark shape is inside the WinRS envelope");
    let x16 = x.cast::<winrs_tensor::f16>();
    let dy16 = dy.scale(0.01).cast::<winrs_tensor::f16>();
    g.bench_function("fp16_mixed", |b| {
        b.iter(|| {
            black_box(
                plan16
                    .execute_f16(black_box(&x16), black_box(&dy16))
                    .expect("valid args"),
            )
        })
    });
    g.finish();
}

/// Segmentation ablation on the CPU substrate: more segments = more
/// scheduler tasks here, mirroring (qualitatively) the SM-utilisation effect
/// the partitioning buys on a GPU.
fn bench_segmentation_scaling(c: &mut Criterion) {
    let shape = ConvShape::square(2, 48, 8, 8, 3);
    let x = Tensor4::<f32>::random_uniform([2, 48, 48, 8], 3, 1.0);
    let dy = Tensor4::<f32>::random_uniform([2, 48, 48, 8], 4, 1.0);

    let mut g = c.benchmark_group("segmentation_scaling");
    for z in [1usize, 4, 16] {
        let plan = WinRsPlan::with_z_hat(&shape, &RTX_4090, Precision::Fp32, z)
            .expect("benchmark shape is inside the WinRS envelope");
        g.bench_function(format!("z_{}", plan.z()), |b| {
            b.iter(|| {
                black_box(
                    plan.execute_f32(black_box(&x), black_box(&dy))
                        .expect("valid args"),
                )
            })
        });
    }
    g.finish();
}

/// The tentpole's payoff, measured: per-call `execute_f32` (fresh buckets
/// and scratch every call) against the warm `run_planned_into` path where
/// buckets, scratch and `∇W` all live in caller-owned reused storage.
fn bench_workspace_reuse(c: &mut Criterion) {
    let shape = ConvShape::square(2, 32, 16, 16, 3);
    let x = Tensor4::<f32>::random_uniform([2, 32, 32, 16], 1, 1.0);
    let dy = Tensor4::<f32>::random_uniform([2, 32, 32, 16], 2, 1.0);
    let plan = WinRsPlan::new(&shape, &RTX_4090, Precision::Fp32)
        .expect("benchmark shape is inside the WinRS envelope");

    let mut g = c.benchmark_group("workspace_reuse");
    g.throughput(Throughput::Elements(shape.bfc_flops()));
    g.bench_function("cold_alloc_per_call", |b| {
        b.iter(|| {
            black_box(
                plan.execute_f32(black_box(&x), black_box(&dy))
                    .expect("valid args"),
            )
        })
    });
    let mut ws = Workspace::new();
    let mut dw = Tensor4::<f32>::zeros([shape.oc, shape.fh, shape.fw, shape.ic]);
    g.bench_function("warm_reused_arena", |b| {
        b.iter(|| {
            let report = run_planned_into(
                &plan,
                black_box(&x),
                black_box(&dy),
                NumericGuard::Ignore,
                &mut ws,
                &mut dw,
            )
            .expect("valid args");
            black_box(report.mem.hot_loop_allocs)
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_fused_execute,
    bench_segmentation_scaling,
    bench_workspace_reuse
);
criterion_main!(benches);
