//! Equivalence and bit-identity tests for the vectorised engine hot path
//! (PR 4):
//!
//! 1. The interior fast-path tile loaders (`load_filter_tile` /
//!    `load_input_tile`) must produce *bit-identical* tiles to a scalar
//!    padded-read reference, for border and interior positions, every
//!    precision, and odd block-tail widths.
//! 2. The full FP32 pipeline must produce bit-identical `∇W` with the
//!    explicit-SIMD dispatch forced off and left on auto — the micro-kernel
//!    contract (one arithmetic form per kernel at every width: the EWMM a
//!    fused multiply-add, every other kernel mul + add; fixed accumulation
//!    order) made observable.
//! 3. The saturation / non-finite health counters must not depend on the
//!    dispatch width either: pinned totals, with the deterministic fault
//!    injector and with a natural FP16 overflow.
//!
//! The width pin (`winrs::gemm::micro::force_width`) is process-global, so
//! every test that toggles it serialises on a local mutex (and restores
//! auto dispatch before releasing it). Tests parameterise over *every*
//! width available on the host — scalar, AVX2, AVX-512 — so a
//! single run on wide hardware covers the whole compiled-in family,
//! including odd tails and border tiles.

use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard, OnceLock};
use winrs::conv::ConvShape;
use winrs::core::engine::{load_filter_tile, load_input_tile, ExecOptions, HealthSink, TileMode};
use winrs::core::{faults, Precision, WinRsPlan};
use winrs::fp16::{bf16, f16};
use winrs::gemm::micro;
use winrs::gpu::RTX_4090;
use winrs::tensor::{Scalar, Tensor4};
use winrs::winograd::cook_toom::{Transform, TransformReal};

/// Serialises tests that flip the global scalar/SIMD dispatch switch.
fn dispatch_guard() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Every micro-kernel width available on this host (always at least
/// `Scalar`), plus `None` for auto dispatch. Pinning any entry must not
/// change a single output bit.
fn pinnable_widths() -> Vec<Option<micro::SimdWidth>> {
    let mut v: Vec<Option<micro::SimdWidth>> = micro::SimdWidth::ALL
        .iter()
        .copied()
        .filter(|w| w.is_available())
        .map(Some)
        .collect();
    v.push(None); // auto: the detected (widest) width
    v
}

/// Scalar reference of the filter-tile load: padded reads, zero-skip, the
/// exact pre-vectorisation loop.
fn ref_filter_tile<T: Scalar>(
    dy: &Tensor4<T>,
    t: &TransformReal,
    b: usize,
    i: usize,
    col0: usize,
    oc0: usize,
    bn_cur: usize,
) -> Vec<f32> {
    let (alpha, r) = (t.alpha, t.r);
    let mut ghat = vec![0.0f32; alpha * bn_cur];
    for tt in 0..r {
        for oc_i in 0..bn_cur {
            let v = dy
                .get_padded(b, i as isize, (col0 + tt) as isize, oc0 + oc_i)
                .to_f32();
            if v != 0.0 {
                for beta in 0..alpha {
                    ghat[beta * bn_cur + oc_i] += t.g_f32[beta * r + tt] * v;
                }
            }
        }
    }
    ghat
}

/// Scalar reference of the input-tile load.
fn ref_input_tile<T: Scalar>(
    x: &Tensor4<T>,
    t: &TransformReal,
    b: usize,
    x_row: isize,
    x_col0: isize,
    ic0: usize,
    bm_cur: usize,
) -> Vec<f32> {
    let alpha = t.alpha;
    let mut dhat = vec![0.0f32; alpha * bm_cur];
    for s in 0..alpha {
        for ic_i in 0..bm_cur {
            let v = x
                .get_padded(b, x_row, x_col0 + s as isize, ic0 + ic_i)
                .to_f32();
            if v != 0.0 {
                for beta in 0..alpha {
                    dhat[beta * bm_cur + ic_i] += t.dt_f32[beta * alpha + s] * v;
                }
            }
        }
    }
    dhat
}

/// Compare the loaders against the reference over every spatial position
/// (interior and border alike) of a small tensor, asserting exact bits.
fn check_loaders<T: Scalar>(n: usize, r: usize, dims: [usize; 4], bn_cur: usize, seed: u64) {
    let t = Transform::generate(n, r).to_real();
    let dy = Tensor4::<T>::random_uniform(dims, seed, 1.0);
    let chans = dims[3];
    let oc0_max = chans - bn_cur;
    let mut ghat = vec![7.5f32; t.alpha * bn_cur]; // dirty, must be overwritten
    for b in 0..dims[0] {
        for i in 0..dims[1] {
            // col0 sweeps past the right edge so both paths are exercised.
            for col0 in 0..dims[2] + 2 {
                for oc0 in [0, oc0_max] {
                    load_filter_tile(&dy, &t, b, i, col0, oc0, bn_cur, &mut ghat);
                    let want = ref_filter_tile(&dy, &t, b, i, col0, oc0, bn_cur);
                    for (k, (g, w)) in ghat.iter().zip(&want).enumerate() {
                        assert_eq!(
                            g.to_bits(),
                            w.to_bits(),
                            "filter tile ({b},{i},{col0},oc0={oc0})[{k}]: {g} vs {w}"
                        );
                    }

                    let mut dhat = vec![-3.25f32; t.alpha * bn_cur];
                    // Signed rows/cols sweep from -2 so the top/left border
                    // (negative coordinates) is covered too.
                    let x_row = i as isize - 2;
                    let x_col0 = col0 as isize - 2;
                    load_input_tile(&dy, &t, b, x_row, x_col0, oc0, bn_cur, &mut dhat);
                    let want = ref_input_tile(&dy, &t, b, x_row, x_col0, oc0, bn_cur);
                    for (k, (d, w)) in dhat.iter().zip(&want).enumerate() {
                        assert_eq!(
                            d.to_bits(),
                            w.to_bits(),
                            "input tile ({b},{x_row},{x_col0},c0={oc0})[{k}]: {d} vs {w}"
                        );
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fast-path loaders are bit-identical to the scalar reference for
    /// every kernel geometry, precision, position and odd tail width —
    /// under every compiled-in dispatch width plus auto.
    #[test]
    fn loaders_match_scalar_reference(
        n in 1usize..5,
        r in 2usize..6,
        chans in 1usize..11,
        hw in 4usize..8,
        seed in 0u64..1000,
    ) {
        let _g = dispatch_guard();
        let bn_cur = 1 + (seed as usize) % chans; // odd tails included
        let dims = [2, hw, hw, chans];
        for width in pinnable_widths() {
            micro::force_width(width).expect("available width");
            check_loaders::<f32>(n, r, dims, bn_cur, seed);
            check_loaders::<f16>(n, r, dims, bn_cur, seed.wrapping_add(1));
            check_loaders::<bf16>(n, r, dims, bn_cur, seed.wrapping_add(2));
        }
        micro::force_width(None).expect("auto always pins");
    }
}

/// The plan for `conv` at `precision` with a forced baseline segment
/// count `Ẑ`.
fn plan(conv: &ConvShape, z_hat: usize, precision: Precision) -> WinRsPlan {
    WinRsPlan::with_z_hat(conv, &RTX_4090, precision, z_hat).expect("in-envelope shape")
}

/// Run the fused engine once and return the raw bucket buffer.
fn run_buckets(conv: &ConvShape, z_hat: usize, mode: TileMode, seed: u64) -> Vec<f32> {
    let precision = match mode {
        TileMode::Fp16 => Precision::Fp16,
        _ => Precision::Fp32,
    };
    let plan = plan(conv, z_hat, precision);
    let x = Tensor4::<f32>::random_uniform([conv.n, conv.ih, conv.iw, conv.ic], seed, 1.0);
    let dy = Tensor4::<f32>::random_uniform([conv.n, conv.oh(), conv.ow(), conv.oc], seed + 1, 1.0);
    let mut buckets = vec![0.0f32; plan.bucket_elems()];
    plan.execute_into_buckets(&x, &dy, mode, &mut buckets, ExecOptions::default())
        .expect("valid arguments");
    buckets
}

/// Acceptance criterion: FP32 `∇W` is bit-identical between forced-scalar
/// dispatch and *every* other width available on the host (AVX2, AVX-512,
/// plus auto) — across tile modes and across shapes that hit the
/// border fast-path splits (odd O_W phantom padding, no padding, large
/// filters) and channel counts wide enough to run the EWMM's full 16- and
/// 32-lane register tiles, their row tails and their lane tails.
#[test]
fn engine_gradients_bit_identical_across_every_width() {
    let _g = dispatch_guard();
    let shapes = [
        ConvShape::new(2, 16, 16, 4, 6, 3, 3, 1, 1),
        ConvShape::new(1, 11, 11, 2, 2, 5, 5, 2, 2), // odd O_W: phantom column
        ConvShape::new(2, 13, 17, 3, 2, 2, 2, 0, 0), // no padding
        ConvShape::new(1, 18, 18, 2, 2, 9, 9, 4, 4), // large filter
        ConvShape::new(1, 14, 14, 37, 70, 3, 3, 1, 1), // lane + row tails, 2 ic tiles
        ConvShape::new(2, 12, 12, 64, 64, 5, 5, 2, 2), // full 64 × 32 blocks
        ConvShape::new(1, 10, 10, 64, 64, 3, 3, 1, 1), // FP16/BF16 64 × 64 blocks
    ];
    let widths = pinnable_widths();
    for (si, conv) in shapes.iter().enumerate() {
        for mode in [TileMode::Fp32, TileMode::Fp16, TileMode::Bf16] {
            if mode != TileMode::Fp32 && conv.fw != 3 {
                continue; // reduced-precision kernels are only ported for F_W = 3
            }
            micro::force_width(Some(micro::SimdWidth::Scalar)).expect("scalar always available");
            let scalar = run_buckets(conv, 3, mode, 90 + si as u64);
            for &width in &widths {
                micro::force_width(width).expect("available width");
                let got = run_buckets(conv, 3, mode, 90 + si as u64);
                assert_eq!(scalar.len(), got.len());
                let wname = width.map_or("auto", |w| w.name());
                for (k, (a, b)) in scalar.iter().zip(&got).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "shape {si} mode {mode:?} width {wname} bucket[{k}]: {a} vs {b}"
                    );
                }
            }
        }
    }
    micro::force_width(None).expect("auto always pins");
}

/// Run `conv` once at FP16 with a health sink under `width` and `workers`
/// and return the sink's `(saturated, non_finite)` totals. With `inject`,
/// every segment's first filter tile gets the fault injector's 1e30
/// before re-rounding.
fn fp16_health_totals(
    conv: &ConvShape,
    x: &Tensor4<f32>,
    dy: &Tensor4<f32>,
    width: Option<micro::SimdWidth>,
    workers: usize,
    inject: bool,
) -> (u64, u64) {
    let plan = plan(conv, 2, Precision::Fp16);
    let segments = plan.partition().segments.len();
    micro::force_width(width).expect("available width");
    if inject {
        faults::arm(0..segments);
    }
    let mut buckets = vec![0.0f32; plan.bucket_elems()];
    let sink = HealthSink::new(segments);
    plan.execute_into_buckets(
        x,
        dy,
        TileMode::Fp16,
        &mut buckets,
        ExecOptions {
            health: Some(&sink),
            workers: Some(workers),
            ..Default::default()
        },
    )
    .expect("valid arguments");
    if inject {
        let fired = faults::disarm();
        assert_eq!(fired.len(), segments, "every armed segment must fire");
    }
    micro::force_width(None).expect("auto always pins");
    sink.totals()
}

/// Saturation / non-finite counting must not depend on the dispatch
/// width: the re-rounding kernel and the output transform count in
/// registers at every width, the scalar bodies element by element. The
/// totals are pinned to the values recorded before either count moved
/// into a SIMD kernel, at every pinnable width (plus auto) and at one and
/// two workers, so a count that drifts the same way at every width fails
/// too.
#[test]
fn fault_injection_counts_identical_scalar_vs_auto_dispatch() {
    let _fg = faults::serial_guard();
    let _dg = dispatch_guard();
    let conv = ConvShape::square(1, 12, 2, 2, 3);
    let x = Tensor4::<f32>::random_uniform([conv.n, conv.ih, conv.iw, conv.ic], 7, 1.0);
    let dy = Tensor4::<f32>::random_uniform([conv.n, conv.oh(), conv.ow(), conv.oc], 8, 0.01);
    for width in pinnable_widths() {
        for workers in [1, 2] {
            assert_eq!(
                fp16_health_totals(&conv, &x, &dy, width, workers, true),
                (2, 24),
                "(saturated, non_finite) at width {width:?}, {workers} worker(s)"
            );
        }
    }
}

/// Natural FP16 overflow, no injector: ∇Y = 6e4 passes binary16's 65504
/// as soon as a G row sums two of them, so the re-rounding saturates and
/// the ∞ reaches the output transform. Totals pinned as above.
#[test]
fn natural_fp16_overflow_counts_pinned_at_every_width() {
    let _dg = dispatch_guard();
    let conv = ConvShape::new(1, 12, 12, 2, 2, 3, 3, 1, 1);
    let x = Tensor4::<f32>::from_fn([1, 12, 12, 2], |_, _, _, _| 1.0);
    let dy = Tensor4::<f32>::from_fn([1, 12, 12, 2], |_, _, _, _| 6.0e4);
    for width in pinnable_widths() {
        for workers in [1, 2] {
            assert_eq!(
                fp16_health_totals(&conv, &x, &dy, width, workers, false),
                (192, 72),
                "(saturated, non_finite) at width {width:?}, {workers} worker(s)"
            );
        }
    }
}

/// The family has three members. Every x86-64 build compiles the AVX2 and
/// AVX-512 bodies, so each is available exactly when the CPU reports its
/// features, and every other target runs the scalar bodies alone — the
/// suites above then cover the whole family under a plain `cargo test`.
#[test]
fn default_build_carries_every_width_the_cpu_supports() {
    use micro::SimdWidth;
    assert_eq!(
        SimdWidth::ALL,
        [SimdWidth::Scalar, SimdWidth::Avx2, SimdWidth::Avx512]
    );
    #[cfg(target_arch = "x86_64")]
    {
        let avx2 = std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("fma")
            && std::arch::is_x86_feature_detected!("f16c");
        let avx512 = avx2 && std::arch::is_x86_feature_detected!("avx512f");
        assert_eq!(
            SimdWidth::Avx2.is_available(),
            avx2,
            "avx2 + fma + f16c detected"
        );
        assert_eq!(
            SimdWidth::Avx512.is_available(),
            avx512,
            "avx512f + avx2 + fma + f16c detected"
        );
    }
    #[cfg(not(target_arch = "x86_64"))]
    assert!(!SimdWidth::Avx2.is_available() && !SimdWidth::Avx512.is_available());
}
