//! Direct (naive) convolutions for all three training passes.
//!
//! These are the semantic definitions of FC, BDC and BFC (paper §2.2) and
//! the ground-truth oracles of every test and accuracy experiment. The f64
//! instantiation of [`bfc_direct`] is the reference all MAREs are measured
//! against (§6.3). Loops are ordered for clarity, not speed; running the
//! outermost axis as `winrs_gemm::sched` tasks keeps the test suite quick
//! without changing summation order within one output element.

use crate::ConvShape;
use winrs_gemm::sched;
use winrs_tensor::{Scalar, Tensor4};

/// Forward convolution: `Y[n,oh,ow,oc] = Σ_{fh,fw,ic}
/// X[n, oh+fh−p_H, ow+fw−p_W, ic] · W[oc,fh,fw,ic]`.
pub fn fc_direct<T: Scalar>(shape: &ConvShape, x: &Tensor4<T>, w: &Tensor4<T>) -> Tensor4<T> {
    assert_eq!(x.dims(), [shape.n, shape.ih, shape.iw, shape.ic]);
    assert_eq!(w.dims(), [shape.oc, shape.fh, shape.fw, shape.ic]);
    let (oh, ow) = (shape.oh(), shape.ow());
    let mut y = Tensor4::zeros([shape.n, oh, ow, shape.oc]);
    let oc_stride = shape.oc;
    let per_n = oh * ow * oc_stride;
    let chunks = y.as_mut_slice().chunks_mut(per_n).enumerate().collect();
    sched::run_tasks(chunks, sched::workers(), |_, (n, yn)| {
        for i in 0..oh {
            for j in 0..ow {
                for c_out in 0..shape.oc {
                    let mut acc = T::ZERO;
                    for a in 0..shape.fh {
                        for b in 0..shape.fw {
                            let xi = (i + a) as isize - shape.ph as isize;
                            let xj = (j + b) as isize - shape.pw as isize;
                            for c_in in 0..shape.ic {
                                acc += x.get_padded(n, xi, xj, c_in) * w[(c_out, a, b, c_in)];
                            }
                        }
                    }
                    yn[(i * ow + j) * oc_stride + c_out] = acc;
                }
            }
        }
    });
    y
}

/// Backward-data convolution: `∇X[n,ih,iw,ic] = Σ_{fh,fw,oc}
/// ∇Y[n, ih−fh+p_H, iw−fw+p_W, oc] · W[oc,fh,fw,ic]` (the adjoint of FC).
pub fn bdc_direct<T: Scalar>(shape: &ConvShape, dy: &Tensor4<T>, w: &Tensor4<T>) -> Tensor4<T> {
    let (oh, ow) = (shape.oh(), shape.ow());
    assert_eq!(dy.dims(), [shape.n, oh, ow, shape.oc]);
    assert_eq!(w.dims(), [shape.oc, shape.fh, shape.fw, shape.ic]);
    let mut dx = Tensor4::zeros([shape.n, shape.ih, shape.iw, shape.ic]);
    let per_n = shape.ih * shape.iw * shape.ic;
    let chunks = dx.as_mut_slice().chunks_mut(per_n).enumerate().collect();
    sched::run_tasks(chunks, sched::workers(), |_, (n, dxn)| {
        for i in 0..shape.ih {
            for j in 0..shape.iw {
                for c_in in 0..shape.ic {
                    let mut acc = T::ZERO;
                    for a in 0..shape.fh {
                        for b in 0..shape.fw {
                            let yi = i as isize + shape.ph as isize - a as isize;
                            let yj = j as isize + shape.pw as isize - b as isize;
                            for c_out in 0..shape.oc {
                                acc += dy.get_padded(n, yi, yj, c_out) * w[(c_out, a, b, c_in)];
                            }
                        }
                    }
                    dxn[(i * shape.iw + j) * shape.ic + c_in] = acc;
                }
            }
        }
    });
    dx
}

/// Backward-filter convolution — the operation this whole repository is
/// about: `∇W[oc,fh,fw,ic] = Σ_{n,oh,ow}
/// X[n, fh+oh−p_H, fw+ow−p_W, ic] · ∇Y[n,oh,ow,oc]`.
pub fn bfc_direct<T: Scalar>(shape: &ConvShape, x: &Tensor4<T>, dy: &Tensor4<T>) -> Tensor4<T> {
    let (oh, ow) = (shape.oh(), shape.ow());
    assert_eq!(x.dims(), [shape.n, shape.ih, shape.iw, shape.ic]);
    assert_eq!(dy.dims(), [shape.n, oh, ow, shape.oc]);
    let mut dw = Tensor4::zeros([shape.oc, shape.fh, shape.fw, shape.ic]);
    let per_oc = shape.fh * shape.fw * shape.ic;
    let chunks = dw.as_mut_slice().chunks_mut(per_oc).enumerate().collect();
    sched::run_tasks(chunks, sched::workers(), |_, (c_out, dwo)| {
        for a in 0..shape.fh {
            for b in 0..shape.fw {
                for c_in in 0..shape.ic {
                    let mut acc = T::ZERO;
                    for n in 0..shape.n {
                        for i in 0..oh {
                            for j in 0..ow {
                                let xi = (a + i) as isize - shape.ph as isize;
                                let xj = (b + j) as isize - shape.pw as isize;
                                acc += x.get_padded(n, xi, xj, c_in) * dy[(n, i, j, c_out)];
                            }
                        }
                    }
                    dwo[(a * shape.fw + b) * shape.ic + c_in] = acc;
                }
            }
        }
    });
    dw
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_shape() -> ConvShape {
        ConvShape::new(2, 5, 6, 3, 4, 3, 3, 1, 1)
    }

    #[test]
    fn bfc_matches_finite_difference_of_fc() {
        // d⟨∇Y, FC(X, W)⟩/dW[e] == BFC(X, ∇Y)[e]: check a few filter
        // entries by central finite differences in f64.
        let shape = small_shape();
        let x = Tensor4::<f64>::random_uniform([shape.n, shape.ih, shape.iw, shape.ic], 1, 1.0);
        let w = Tensor4::<f64>::random_uniform([shape.oc, shape.fh, shape.fw, shape.ic], 2, 1.0);
        let dy = Tensor4::<f64>::random_uniform([shape.n, shape.oh(), shape.ow(), shape.oc], 3, 1.0);

        let dw = bfc_direct(&shape, &x, &dy);

        let loss = |w: &Tensor4<f64>| -> f64 {
            let y = fc_direct(&shape, &x, w);
            y.as_slice()
                .iter()
                .zip(dy.as_slice())
                .map(|(a, b)| a * b)
                .sum()
        };
        let eps = 1e-6;
        for &(oc, a, b, ic) in &[(0usize, 0usize, 0usize, 0usize), (3, 2, 1, 2), (1, 1, 2, 0)] {
            let mut wp = w.clone();
            wp[(oc, a, b, ic)] += eps;
            let mut wm = w.clone();
            wm[(oc, a, b, ic)] -= eps;
            let fd = (loss(&wp) - loss(&wm)) / (2.0 * eps);
            let an = dw[(oc, a, b, ic)];
            assert!(
                (fd - an).abs() < 1e-4 * an.abs().max(1.0),
                "({oc},{a},{b},{ic}): fd {fd} vs analytic {an}"
            );
        }
    }

    #[test]
    fn bdc_matches_finite_difference_of_fc() {
        let shape = ConvShape::new(1, 4, 4, 2, 3, 3, 3, 1, 1);
        let x = Tensor4::<f64>::random_uniform([shape.n, shape.ih, shape.iw, shape.ic], 4, 1.0);
        let w = Tensor4::<f64>::random_uniform([shape.oc, shape.fh, shape.fw, shape.ic], 5, 1.0);
        let dy = Tensor4::<f64>::random_uniform([shape.n, shape.oh(), shape.ow(), shape.oc], 6, 1.0);
        let dx = bdc_direct(&shape, &dy, &w);
        let loss = |x: &Tensor4<f64>| -> f64 {
            fc_direct(&shape, x, &w)
                .as_slice()
                .iter()
                .zip(dy.as_slice())
                .map(|(a, b)| a * b)
                .sum()
        };
        let eps = 1e-6;
        for &(n, i, j, c) in &[(0usize, 0usize, 0usize, 0usize), (0, 3, 3, 1), (0, 2, 1, 0)] {
            let mut xp = x.clone();
            xp[(n, i, j, c)] += eps;
            let mut xm = x.clone();
            xm[(n, i, j, c)] -= eps;
            let fd = (loss(&xp) - loss(&xm)) / (2.0 * eps);
            let an = dx[(n, i, j, c)];
            assert!(
                (fd - an).abs() < 1e-4 * an.abs().max(1.0),
                "({n},{i},{j},{c}): fd {fd} vs analytic {an}"
            );
        }
    }

    #[test]
    fn fc_identity_filter_passes_input_through() {
        // 1×1 filter with a single 1.0: Y == X (same channels).
        let shape = ConvShape::new(1, 3, 3, 1, 1, 1, 1, 0, 0);
        let x = Tensor4::<f64>::random_uniform([1, 3, 3, 1], 7, 1.0);
        let mut w = Tensor4::<f64>::zeros([1, 1, 1, 1]);
        w[(0, 0, 0, 0)] = 1.0;
        let y = fc_direct(&shape, &x, &w);
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn bfc_all_ones_counts_contributions() {
        // With X ≡ 1, ∇Y ≡ 1 and no padding, each ∇W element equals
        // N·O_H·O_W.
        let shape = ConvShape::new(2, 4, 4, 1, 1, 2, 2, 0, 0);
        let x = Tensor4::<f64>::from_fn([2, 4, 4, 1], |_, _, _, _| 1.0);
        let dy = Tensor4::<f64>::from_fn([2, 3, 3, 1], |_, _, _, _| 1.0);
        let dw = bfc_direct(&shape, &x, &dy);
        for &v in dw.as_slice() {
            assert_eq!(v, (2 * 3 * 3) as f64);
        }
    }

    #[test]
    fn bfc_padding_reduces_corner_sums() {
        // With padding, corner filter taps see fewer valid input pixels, so
        // with all-ones tensors their gradient is strictly smaller than the
        // centre tap's.
        let shape = ConvShape::square(1, 6, 1, 1, 3);
        let x = Tensor4::<f64>::from_fn([1, 6, 6, 1], |_, _, _, _| 1.0);
        let dy = Tensor4::<f64>::from_fn([1, 6, 6, 1], |_, _, _, _| 1.0);
        let dw = bfc_direct(&shape, &x, &dy);
        let centre = dw[(0, 1, 1, 0)];
        let corner = dw[(0, 0, 0, 0)];
        assert_eq!(centre, 36.0);
        assert_eq!(corner, 25.0);
        assert!(corner < centre);
    }

    #[test]
    fn f32_bfc_close_to_f64() {
        let shape = small_shape();
        let x = Tensor4::<f64>::random_uniform([shape.n, shape.ih, shape.iw, shape.ic], 8, 1.0);
        let dy = Tensor4::<f64>::random_uniform([shape.n, shape.oh(), shape.ow(), shape.oc], 9, 1.0);
        let exact = bfc_direct(&shape, &x, &dy);
        let approx = bfc_direct(&shape, &x.cast::<f32>(), &dy.cast::<f32>());
        let m = winrs_tensor::mare(&approx, &exact);
        assert!(m < 1e-5, "MARE {m}");
    }
}
