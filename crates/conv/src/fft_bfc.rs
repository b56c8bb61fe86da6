//! FFT-based BFC: the `Cu-FFT` baseline analogue.
//!
//! Classic four-stage, non-fused FFT convolution (paper §2.1):
//!
//! 1. forward-transform every padded input plane `X[n, :, :, ic]`
//!    (`N·I_C` 2D FFTs, all spectra kept in workspace);
//! 2. forward-transform every output-gradient plane `∇Y[n, :, :, oc]`
//!    (`N·O_C` more spectra, also kept);
//! 3. element-wise multiply–accumulate spectra over the batch for every
//!    `(oc, ic)` pair;
//! 4. inverse-transform the `O_C·I_C` product spectra and extract the
//!    `F_H × F_W` valid region.
//!
//! Caching the spectra is what makes the FFT approach fast *and* what makes
//! its workspace enormous — Table 2 reports 3.1×–30.4× the data size for
//! Cu-FFT, and [`workspace_bytes`] reproduces that blow-up mechanically
//! (padded complex spectra for every channel of every tensor).
//!
//! Transforms run in f64 (cuFFT accumulates in higher precision than the
//! I/O type); the result is rounded to the caller's precision at the end.

use crate::ConvShape;
use winrs_fft::{fft_pow2, ifft_pow2, next_pow2, Complex};
use winrs_gemm::sched;
use winrs_tensor::{Scalar, Tensor4};

/// FFT plan dimensions for one shape: padded spatial size and the
/// power-of-two transform size that avoids circular wrap. Used by the
/// *execution* path (our radix-2 substrate).
fn plan(shape: &ConvShape) -> (usize, usize, usize, usize) {
    let xh = shape.ih + 2 * shape.ph;
    let xw = shape.iw + 2 * shape.pw;
    let mh = next_pow2(xh + shape.oh() - 1);
    let mw = next_pow2(xw + shape.ow() - 1);
    (xh, xw, mh, mw)
}

/// Smallest 5-smooth number `≥ n` — the transform sizes a mixed-radix FFT
/// library (cuFFT) actually plans, used by the *cost model* so that
/// workspace/FLOP/traffic accounting is not inflated by our radix-2
/// substrate's power-of-two padding.
pub fn smooth_size(n: usize) -> usize {
    let cap = n.next_power_of_two();
    let mut best = cap;
    let mut a = 1usize;
    while a <= cap {
        let mut b = a;
        while b <= cap {
            let mut c = b;
            while c <= cap {
                if c >= n && c < best {
                    best = c;
                }
                c *= 5;
            }
            b *= 3;
        }
        a *= 2;
    }
    best
}

/// Cost-model plan with mixed-radix sizes.
fn smooth_plan(shape: &ConvShape) -> (usize, usize) {
    let xh = shape.ih + 2 * shape.ph;
    let xw = shape.iw + 2 * shape.pw;
    (
        smooth_size(xh + shape.oh() - 1),
        smooth_size(xw + shape.ow() - 1),
    )
}

fn fft2(buf: &mut [Complex], mh: usize, mw: usize, inverse: bool) {
    for i in 0..mh {
        let row = &mut buf[i * mw..(i + 1) * mw];
        if inverse {
            ifft_pow2(row);
        } else {
            fft_pow2(row, false);
        }
    }
    let mut col = vec![Complex::ZERO; mh];
    for j in 0..mw {
        for i in 0..mh {
            col[i] = buf[i * mw + j];
        }
        if inverse {
            ifft_pow2(&mut col);
        } else {
            fft_pow2(&mut col, false);
        }
        for i in 0..mh {
            buf[i * mw + j] = col[i];
        }
    }
}

/// BFC via cached-spectra FFT convolution.
pub fn bfc_fft<T: Scalar>(shape: &ConvShape, x: &Tensor4<T>, dy: &Tensor4<T>) -> Tensor4<T> {
    let (oh, ow) = (shape.oh(), shape.ow());
    assert_eq!(x.dims(), [shape.n, shape.ih, shape.iw, shape.ic]);
    assert_eq!(dy.dims(), [shape.n, oh, ow, shape.oc]);
    let (_, _, mh, mw) = plan(shape);
    let m = mh * mw;

    // Stage 1: spectra of padded inputs, one per (n, ic).
    let mut x_spec: Vec<Vec<Complex>> = vec![Vec::new(); shape.n * shape.ic];
    let slots = x_spec.iter_mut().enumerate().collect();
    sched::run_tasks(slots, sched::workers(), |_, (idx, buf)| {
        let (n, c_in) = (idx / shape.ic, idx % shape.ic);
        *buf = vec![Complex::ZERO; m];
        for i in 0..shape.ih {
            for j in 0..shape.iw {
                buf[(i + shape.ph) * mw + (j + shape.pw)] =
                    Complex::real(x[(n, i, j, c_in)].to_f64());
            }
        }
        fft2(buf, mh, mw, false);
    });

    // Stage 2: spectra of reversed output gradients, one per (n, oc)
    // (reversal turns the circular convolution into a correlation).
    let mut dy_spec: Vec<Vec<Complex>> = vec![Vec::new(); shape.n * shape.oc];
    let slots = dy_spec.iter_mut().enumerate().collect();
    sched::run_tasks(slots, sched::workers(), |_, (idx, buf)| {
        let (n, c_out) = (idx / shape.oc, idx % shape.oc);
        *buf = vec![Complex::ZERO; m];
        for i in 0..oh {
            for j in 0..ow {
                buf[(oh - 1 - i) * mw + (ow - 1 - j)] =
                    Complex::real(dy[(n, i, j, c_out)].to_f64());
            }
        }
        fft2(buf, mh, mw, false);
    });

    // Stages 3 + 4: per (oc, ic), batch-accumulate products and invert.
    let mut dw = Tensor4::<T>::zeros([shape.oc, shape.fh, shape.fw, shape.ic]);
    let per_oc = shape.fh * shape.fw * shape.ic;
    let chunks = dw.as_mut_slice().chunks_mut(per_oc).enumerate().collect();
    sched::run_tasks(chunks, sched::workers(), |_, (c_out, dwo)| {
        let mut acc = vec![Complex::ZERO; m];
        for c_in in 0..shape.ic {
            acc.fill(Complex::ZERO);
            for n in 0..shape.n {
                let xs = &x_spec[n * shape.ic + c_in];
                let ys = &dy_spec[n * shape.oc + c_out];
                for k in 0..m {
                    acc[k] += xs[k] * ys[k];
                }
            }
            fft2(&mut acc, mh, mw, true);
            // Valid region of the correlation starts at (oh−1, ow−1).
            for a in 0..shape.fh {
                for b in 0..shape.fw {
                    let v = acc[(oh - 1 + a) * mw + (ow - 1 + b)].re;
                    dwo[(a * shape.fw + b) * shape.ic + c_in] = T::from_f64(v);
                }
            }
        }
    });
    dw
}

/// Workspace bytes: all cached spectra (complex, 8 bytes at f32 complex —
/// matching cuFFT's C2C single-precision plans) at mixed-radix transform
/// sizes.
pub fn workspace_bytes(shape: &ConvShape) -> usize {
    let (mh, mw) = smooth_plan(shape);
    let spectra = shape.n * (shape.ic + shape.oc) + shape.oc * shape.ic;
    spectra * mh * mw * 8
}

/// Modelled FLOPs: `5·M·log₂M` per 2D transform (the standard FFT cost) for
/// every cached spectrum and inverse, plus `8` real ops per complex MAC in
/// stage 3, at mixed-radix sizes.
pub fn flops(shape: &ConvShape) -> u64 {
    let (mh, mw) = smooth_plan(shape);
    let m = (mh * mw) as u64;
    let log_m = (m as f64).log2().ceil() as u64;
    let fwd = (shape.n * (shape.ic + shape.oc)) as u64;
    let inv = (shape.oc * shape.ic) as u64;
    let transforms = (fwd + inv) * 5 * m * log_m;
    let ewm = 8 * (shape.n * shape.oc * shape.ic) as u64 * m;
    transforms + ewm
}

/// Intermediate traffic: each spectrum written once and re-read once —
/// stage 3 is tiled over channel blocks so spectra are reused from cache
/// within a tile (the batched-GEMM structure cuFFT convolution uses).
pub fn intermediate_traffic_bytes(shape: &ConvShape) -> u64 {
    2 * workspace_bytes(shape) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direct;
    use winrs_tensor::mare;

    fn check(shape: ConvShape, tol: f64) {
        let x = Tensor4::<f64>::random_uniform([shape.n, shape.ih, shape.iw, shape.ic], 51, 1.0);
        let dy =
            Tensor4::<f64>::random_uniform([shape.n, shape.oh(), shape.ow(), shape.oc], 52, 1.0);
        let exact = direct::bfc_direct(&shape, &x, &dy);
        let got = bfc_fft(&shape, &x, &dy);
        let m = mare(&got, &exact);
        assert!(m < tol, "{shape:?}: MARE {m}");
    }

    #[test]
    fn matches_direct_3x3_padded() {
        check(ConvShape::new(2, 8, 8, 2, 3, 3, 3, 1, 1), 1e-10);
    }

    #[test]
    fn matches_direct_5x5() {
        check(ConvShape::new(1, 12, 10, 2, 2, 5, 5, 2, 2), 1e-10);
    }

    #[test]
    fn matches_direct_odd_sizes_no_padding() {
        check(ConvShape::new(1, 9, 7, 1, 1, 4, 2, 0, 0), 1e-10);
    }

    #[test]
    fn matches_direct_large_filter() {
        // BFC's defining regime: filter (∇Y) nearly as large as the input.
        check(ConvShape::new(1, 11, 11, 1, 2, 9, 9, 4, 4), 1e-10);
    }

    #[test]
    fn f32_io_precision() {
        let shape = ConvShape::new(1, 8, 8, 2, 2, 3, 3, 1, 1);
        let x64 = Tensor4::<f64>::random_uniform([1, 8, 8, 2], 53, 1.0);
        let dy64 = Tensor4::<f64>::random_uniform([1, 8, 8, 2], 54, 1.0);
        let exact = direct::bfc_direct(&shape, &x64, &dy64);
        let got = bfc_fft(&shape, &x64.cast::<f32>(), &dy64.cast::<f32>());
        // f32 I/O rounding only: MARE near 1e-7 like Table 4's Cu-FFT row.
        let m = mare(&got, &exact);
        assert!(m < 1e-6, "MARE {m}");
    }

    #[test]
    fn workspace_dwarfs_data_size() {
        // Table 2: Cu-FFT workspace is 3×–30× the data size.
        let shape = ConvShape::square(32, 56, 256, 256, 3);
        let ratio = workspace_bytes(&shape) as f64 / shape.data_bytes(4) as f64;
        assert!(ratio > 3.0, "ratio {ratio}");
    }

    #[test]
    fn flops_beat_direct_for_large_filters() {
        // FFT complexity is (quasi-)independent of filter area, so for the
        // large-filter BFC regime with enough channels to amortise the
        // transforms it undercuts direct-conv FLOPs. (Small channel counts
        // or pathological power-of-two padding blow-up flip the comparison,
        // which is exactly Table 3's "Cu-FFT lags for small F_H×F_W".)
        let big_filter = ConvShape::square(8, 56, 256, 256, 9);
        assert!(flops(&big_filter) < big_filter.bfc_flops());
        let small_filter = ConvShape::square(8, 56, 256, 256, 2);
        assert!(flops(&small_filter) > small_filter.bfc_flops());
    }
}
