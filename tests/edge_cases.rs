//! Edge cases and failure injection across the public API: degenerate
//! shapes, extreme padding, forced mis-use (which must return a typed
//! error naming every violated invariant — never panic, never corrupt
//! results).

use winrs::conv::{direct, ConvShape};
use winrs::core::{Precision, Violation, WinRsPlan, WinrsError};
use winrs::gpu::RTX_4090;
use winrs::tensor::{mare, Tensor4};

fn verify(shape: ConvShape, seed: u64, tol: f64) {
    let x = Tensor4::<f64>::random_uniform([shape.n, shape.ih, shape.iw, shape.ic], seed, 1.0);
    let dy = Tensor4::<f64>::random_uniform(
        [shape.n, shape.oh(), shape.ow(), shape.oc],
        seed + 1,
        1.0,
    );
    let exact = direct::bfc_direct(&shape, &x, &dy);
    let plan = WinRsPlan::new(&shape, &RTX_4090, Precision::Fp32).unwrap();
    let dw = plan.execute_f32(&x.cast(), &dy.cast()).unwrap();
    let m = mare(&dw, &exact);
    assert!(m < tol, "{shape:?}: MARE {m}");
}

#[test]
fn minimal_everything() {
    // 1 batch, 1 channel each way, smallest legal map.
    verify(ConvShape::new(1, 3, 3, 1, 1, 2, 2, 0, 0), 10, 1e-5);
}

#[test]
fn single_output_row_and_column() {
    // O_H = O_W = 1: exactly one output position.
    verify(ConvShape::new(1, 5, 5, 2, 2, 5, 5, 0, 0), 20, 1e-5);
}

#[test]
fn output_width_below_every_unit_width() {
    // O_W = 2 with F_W = 5 (unit widths 4/12/2 … only Ω₂'s r = 2 or padded
    // fits): exercises the narrow-row path.
    verify(ConvShape::new(1, 6, 6, 2, 2, 5, 5, 0, 0), 30, 1e-5);
}

#[test]
fn maximal_padding() {
    // p = F − 1: "full" correlation; most X reads are padding.
    verify(ConvShape::new(1, 6, 6, 1, 1, 3, 3, 2, 2), 40, 1e-4);
}

#[test]
fn very_wide_but_one_row_high() {
    verify(ConvShape::new(1, 2, 64, 2, 2, 2, 2, 0, 0), 50, 1e-5);
}

#[test]
fn very_tall_but_narrow() {
    verify(ConvShape::new(1, 64, 4, 2, 2, 3, 3, 1, 1), 60, 1e-5);
}

#[test]
fn channels_prime_and_mismatched() {
    // I_C = 7, O_C = 11: nothing divides the cache-block tiles.
    verify(ConvShape::new(2, 10, 10, 7, 11, 3, 3, 1, 1), 70, 1e-5);
}

#[test]
fn forced_huge_z_is_clamped_and_correct() {
    let shape = ConvShape::square(2, 16, 4, 4, 3);
    let plan = WinRsPlan::with_z_hat(&shape, &RTX_4090, Precision::Fp32, 1_000_000).unwrap();
    // Segment count is bounded by the geometry (H_max·W_max), not the ask.
    assert!(plan.z() <= 16 * 6);
    let x = Tensor4::<f64>::random_uniform([2, 16, 16, 4], 80, 1.0);
    let dy = Tensor4::<f64>::random_uniform([2, 16, 16, 4], 81, 1.0);
    let exact = direct::bfc_direct(&shape, &x, &dy);
    let dw = plan.execute_f32(&x.cast(), &dy.cast()).unwrap();
    assert!(mare(&dw, &exact) < 1e-5);
}

#[test]
fn fp16_execute_on_fp32_plan_is_a_typed_error() {
    let shape = ConvShape::square(1, 8, 2, 2, 3);
    let plan = WinRsPlan::new(&shape, &RTX_4090, Precision::Fp32).unwrap();
    let x = Tensor4::<winrs::fp16::f16>::zeros([1, 8, 8, 2]);
    let dy = Tensor4::<winrs::fp16::f16>::zeros([1, 8, 8, 2]);
    let err = plan.execute_f16(&x, &dy).unwrap_err();
    assert!(matches!(err, WinrsError::ExecutionRejected(_)));
    assert!(matches!(
        err.violations()[0],
        Violation::PrecisionMismatch { plan: Precision::Fp32, .. }
    ));
}

#[test]
fn wrong_input_shape_is_a_typed_error() {
    let shape = ConvShape::square(1, 8, 2, 2, 3);
    let plan = WinRsPlan::new(&shape, &RTX_4090, Precision::Fp32).unwrap();
    let x = Tensor4::<f32>::zeros([1, 9, 8, 2]); // wrong height
    let dy = Tensor4::<f32>::zeros([1, 8, 8, 2]);
    let err = plan.execute_f32(&x, &dy).unwrap_err();
    assert!(matches!(
        err.violations()[0],
        Violation::TensorDimsMismatch { tensor: "x", .. }
    ));
}

#[test]
fn wrong_gradient_shape_is_a_typed_error() {
    let shape = ConvShape::square(1, 8, 2, 2, 3);
    let plan = WinRsPlan::new(&shape, &RTX_4090, Precision::Fp32).unwrap();
    let x = Tensor4::<f32>::zeros([1, 8, 8, 2]);
    let dy = Tensor4::<f32>::zeros([2, 8, 8, 2]); // wrong batch
    let err = plan.execute_f32(&x, &dy).unwrap_err();
    assert!(matches!(
        err.violations()[0],
        Violation::TensorDimsMismatch { tensor: "dy", .. }
    ));
}

#[test]
fn every_violation_reported_at_once() {
    // Both tensors wrong at the same time: the single error must name both
    // problems so the caller can fix everything in one round trip.
    let shape = ConvShape::square(1, 8, 2, 2, 3);
    let plan = WinRsPlan::new(&shape, &RTX_4090, Precision::Fp32).unwrap();
    let x = Tensor4::<f32>::zeros([1, 9, 8, 2]);
    let dy = Tensor4::<f32>::zeros([2, 8, 8, 2]);
    let err = plan.execute_f32(&x, &dy).unwrap_err();
    assert_eq!(err.violations().len(), 2, "{err}");
}

#[test]
fn plan_reuse_is_deterministic() {
    // Two executions of the same plan on the same data must agree bit-for-
    // bit (scheduler order does not affect per-element summation order).
    let shape = ConvShape::square(2, 16, 4, 4, 3);
    let plan = WinRsPlan::new(&shape, &RTX_4090, Precision::Fp32).unwrap();
    let x = Tensor4::<f32>::random_uniform([2, 16, 16, 4], 90, 1.0);
    let dy = Tensor4::<f32>::random_uniform([2, 16, 16, 4], 91, 1.0);
    let a = plan.execute_f32(&x, &dy).unwrap();
    let b = plan.execute_f32(&x, &dy).unwrap();
    assert_eq!(a.as_slice(), b.as_slice());
}

#[test]
fn two_plans_same_shape_agree() {
    let shape = ConvShape::square(2, 16, 4, 4, 3);
    let p1 = WinRsPlan::new(&shape, &RTX_4090, Precision::Fp32).unwrap();
    let p2 = WinRsPlan::new(&shape, &RTX_4090, Precision::Fp32).unwrap();
    let x = Tensor4::<f32>::random_uniform([2, 16, 16, 4], 92, 1.0);
    let dy = Tensor4::<f32>::random_uniform([2, 16, 16, 4], 93, 1.0);
    assert_eq!(
        p1.execute_f32(&x, &dy).unwrap().as_slice(),
        p2.execute_f32(&x, &dy).unwrap().as_slice()
    );
}
