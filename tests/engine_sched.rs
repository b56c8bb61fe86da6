//! Scheduler determinism tests (PR 9): the locality-aware work-stealing
//! scheduler must be *invisible* in the output. `∇W` is required to be
//! bitwise-identical
//!
//! 1. across worker counts 1 / 2 / 8 (different queue layouts, different
//!    steal opportunities),
//! 2. across repeated runs at the same worker count (steal interleavings
//!    are timing-dependent and must not matter), and
//! 3. between the scheduler path and the historical flat traversal
//!    (workers = 1 executes the task list in its deterministic build
//!    order).
//!
//! This holds because the scheduler only decides *which worker executes a
//! block group when* — each group owns a disjoint set of bucket rows keyed
//! by its deterministic `(bucket, oc-tile, filter-row)` coordinates, and
//! every row's accumulation order is fixed by the group's internal loops,
//! not by the schedule.

use proptest::prelude::*;
use winrs::conv::ConvShape;
use winrs::core::engine::{ExecOptions, TileMode};
use winrs::core::{Precision, WinRsPlan};
use winrs::gpu::RTX_4090;
use winrs::tensor::Tensor4;

/// The FP32 plan for `conv` with a forced baseline segment count `Ẑ`.
fn plan(conv: &ConvShape, z_hat: usize) -> WinRsPlan {
    WinRsPlan::with_z_hat(conv, &RTX_4090, Precision::Fp32, z_hat).expect("in-envelope shape")
}

/// Execute the fused engine with an explicit worker count; return the raw
/// bucket buffer (pre-reduction, so per-bucket placement is visible too).
fn run_with_workers(conv: &ConvShape, z_hat: usize, seed: u64, workers: usize) -> Vec<f32> {
    let plan = plan(conv, z_hat);
    let x = Tensor4::<f32>::random_uniform([conv.n, conv.ih, conv.iw, conv.ic], seed, 1.0);
    let dy = Tensor4::<f32>::random_uniform([conv.n, conv.oh(), conv.ow(), conv.oc], seed + 1, 1.0);
    let mut buckets = vec![0.0f32; plan.bucket_elems()];
    plan.execute_into_buckets(
        &x,
        &dy,
        TileMode::Fp32,
        &mut buckets,
        ExecOptions {
            workers: Some(workers),
            ..Default::default()
        },
    )
    .expect("valid arguments");
    buckets
}

fn assert_bits_equal(want: &[f32], got: &[f32], label: &str) {
    assert_eq!(want.len(), got.len(), "{label}: length diverged");
    for (k, (a, b)) in want.iter().zip(got).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{label} bucket[{k}]: {a} vs {b}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// ∇W buckets are bitwise-identical across worker counts 1/2/8 and
    /// across repeated runs, for randomly drawn shapes (border residuals,
    /// odd channel counts, multi-segment partitions included).
    #[test]
    fn gradients_bit_identical_across_worker_counts(
        n in 1usize..3,
        hw in 8usize..17,
        ic in 1usize..5,
        oc in 1usize..7,
        fidx in 0usize..3,
        z_hat in 2usize..5,
        seed in 0u64..1000,
    ) {
        let f = [2usize, 3, 5][fidx];
        prop_assume!(hw > f);
        let conv = ConvShape::new(n, hw, hw, ic, oc, f, f, f / 2, f / 2);
        let baseline = run_with_workers(&conv, z_hat, seed, 1);
        for workers in [2usize, 8] {
            let got = run_with_workers(&conv, z_hat, seed, workers);
            assert_bits_equal(&baseline, &got, &format!("workers={workers}"));
        }
        // Repeated runs at the same worker count: steal interleavings are
        // nondeterministic, the bits must not be.
        for rep in 0..3 {
            let got = run_with_workers(&conv, z_hat, seed, 8);
            assert_bits_equal(&baseline, &got, &format!("workers=8 rep={rep}"));
        }
    }
}

/// A fixed many-task shape (large filter → many filter-row spans, several
/// oc-tiles, several buckets) pushed through every worker count in
/// 1..=8 repeatedly. This is the densest steal-pressure configuration the
/// small-test budget allows: more tasks than workers, unequal group sizes.
#[test]
fn dense_steal_pressure_is_bit_invisible() {
    let conv = ConvShape::new(1, 18, 18, 3, 10, 9, 9, 4, 4);
    let baseline = run_with_workers(&conv, 3, 42, 1);
    for workers in 1..=8usize {
        for rep in 0..2 {
            let got = run_with_workers(&conv, 3, 42, workers);
            assert_bits_equal(
                &baseline,
                &got,
                &format!("dense workers={workers} rep={rep}"),
            );
        }
    }
}

/// `workers: None` (the default) resolves to the scratch-pool default and
/// must agree with any explicit count.
#[test]
fn default_worker_count_matches_explicit() {
    let conv = ConvShape::new(2, 12, 12, 2, 4, 3, 3, 1, 1);
    let plan = plan(&conv, 2);
    let x = Tensor4::<f32>::random_uniform([conv.n, conv.ih, conv.iw, conv.ic], 5, 1.0);
    let dy = Tensor4::<f32>::random_uniform([conv.n, conv.oh(), conv.ow(), conv.oc], 6, 1.0);
    let mut buckets = vec![0.0f32; plan.bucket_elems()];
    plan.execute_into_buckets(
        &x,
        &dy,
        TileMode::Fp32,
        &mut buckets,
        ExecOptions::default(),
    )
    .expect("valid arguments");
    let explicit = run_with_workers(&conv, 2, 5, 4);
    assert_bits_equal(&explicit, &buckets, "default-vs-explicit");
}
