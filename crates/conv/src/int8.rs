//! INT8 quantized backward-filter convolution — the last porting target in
//! the paper's conclusion ("FP16 WinRS kernels can be ported to BF16, and
//! further to FP8 and INT8").
//!
//! This is the standard symmetric per-tensor recipe used by INT8 Tensor
//! Cores (`dp4a`/IMMA): each tensor is scaled by `127/absmax` and rounded
//! to `i8`; products accumulate exactly in `i32`; the result is
//! dequantised by the product of the two scales. Because the integer
//! accumulation is *exact*, the only error is the input quantisation —
//! which makes INT8 BFC an interesting contrast to FP8: coarser inputs, but
//! no accumulation error at any accumulation length (the Figure 12C failure
//! mode cannot occur).

use crate::ConvShape;
use winrs_gemm::sched;
use winrs_tensor::Tensor4;

/// A quantised tensor: `i8` payload plus the dequantisation scale.
pub struct QuantTensor {
    /// Quantised values, same layout as the source tensor.
    pub data: Vec<i8>,
    /// Original dims.
    pub dims: [usize; 4],
    /// `real ≈ data · scale`.
    pub scale: f32,
}

/// Symmetric per-tensor quantisation to `i8` (round-to-nearest, saturating).
pub fn quantize(t: &Tensor4<f32>) -> QuantTensor {
    let absmax = t
        .as_slice()
        .iter()
        .fold(0.0f32, |m, &v| m.max(v.abs()))
        .max(f32::MIN_POSITIVE);
    let scale = absmax / 127.0;
    let inv = 1.0 / scale;
    QuantTensor {
        data: t
            .as_slice()
            .iter()
            .map(|&v| (v * inv).round().clamp(-127.0, 127.0) as i8)
            .collect(),
        dims: t.dims(),
        scale,
    }
}

/// INT8 BFC: exact `i32` accumulation over the quantised operands,
/// dequantised once at the end.
pub fn bfc_int8(shape: &ConvShape, x: &QuantTensor, dy: &QuantTensor) -> Tensor4<f32> {
    assert_eq!(x.dims, [shape.n, shape.ih, shape.iw, shape.ic]);
    let (oh, ow) = (shape.oh(), shape.ow());
    assert_eq!(dy.dims, [shape.n, oh, ow, shape.oc]);
    let dequant = x.scale * dy.scale;

    let xi = |n: usize, i: isize, j: isize, c: usize| -> i32 {
        if i < 0 || j < 0 || i as usize >= shape.ih || j as usize >= shape.iw {
            0
        } else {
            x.data[((n * shape.ih + i as usize) * shape.iw + j as usize) * shape.ic + c] as i32
        }
    };

    let mut dw = Tensor4::<f32>::zeros([shape.oc, shape.fh, shape.fw, shape.ic]);
    let per_oc = shape.fh * shape.fw * shape.ic;
    let chunks = dw.as_mut_slice().chunks_mut(per_oc).enumerate().collect();
    sched::run_tasks(chunks, sched::workers(), |_, (oc, dwo)| {
        for a in 0..shape.fh {
            for b in 0..shape.fw {
                for ic in 0..shape.ic {
                    // i32 accumulation is exact up to ~2^31/127² ≈ 1.3e5
                    // MACs; widen to i64 for safety at any size.
                    let mut acc: i64 = 0;
                    for n in 0..shape.n {
                        for i in 0..oh {
                            let xr = (a + i) as isize - shape.ph as isize;
                            for j in 0..ow {
                                let xc = (b + j) as isize - shape.pw as isize;
                                let dyv = dy.data[((n * oh + i) * ow + j) * shape.oc + oc] as i32;
                                acc += (xi(n, xr, xc, ic) * dyv) as i64;
                            }
                        }
                    }
                    dwo[(a * shape.fw + b) * shape.ic + ic] = acc as f32 * dequant;
                }
            }
        }
    });
    dw
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direct;
    use winrs_tensor::mare;

    #[test]
    fn quantize_roundtrip_error_bounded() {
        let t = Tensor4::<f32>::random_uniform([1, 8, 8, 4], 3, 2.0);
        let q = quantize(&t);
        for (orig, &qv) in t.as_slice().iter().zip(&q.data) {
            let back = qv as f32 * q.scale;
            assert!((back - orig).abs() <= q.scale / 2.0 + 1e-7);
        }
    }

    #[test]
    fn int8_bfc_matches_direct_within_quantisation_noise() {
        let shape = ConvShape::new(2, 12, 12, 3, 4, 3, 3, 1, 1);
        let x64 = Tensor4::<f64>::random_uniform([2, 12, 12, 3], 11, 1.0);
        let dy64 = Tensor4::<f64>::random_uniform([2, 12, 12, 4], 12, 1.0);
        let exact = direct::bfc_direct(&shape, &x64, &dy64);
        let dw = bfc_int8(&shape, &quantize(&x64.cast()), &quantize(&dy64.cast()));
        let m = mare(&dw, &exact);
        // ~0.4% input noise, averaged down by the accumulation.
        assert!(m < 0.02, "MARE {m}");
    }

    #[test]
    fn int8_error_does_not_grow_with_accumulation_length() {
        // The anti-Figure-12C property: exact integer accumulation keeps
        // MARE flat regardless of N·O_H·O_W.
        let mut mares = Vec::new();
        for &(n, res) in &[(1usize, 8usize), (4, 16), (8, 32)] {
            let shape = ConvShape::square(n, res, 2, 2, 3);
            let x64 = Tensor4::<f64>::random_uniform([n, res, res, 2], 21, 1.0);
            let dy64 =
                Tensor4::<f64>::random_uniform([n, shape.oh(), shape.ow(), 2], 22, 1.0);
            let exact = direct::bfc_direct(&shape, &x64, &dy64);
            let dw = bfc_int8(&shape, &quantize(&x64.cast()), &quantize(&dy64.cast()));
            mares.push(mare(&dw, &exact));
        }
        // Longest accumulation must not be dramatically worse than the
        // shortest (quantisation noise actually *averages down*).
        assert!(
            mares[2] < 3.0 * mares[0],
            "mares {mares:?} — INT8 error should stay flat"
        );
    }

    #[test]
    fn exact_for_integer_valued_inputs() {
        // Inputs already integer-valued with absmax = 127: quantisation is
        // lossless (scale = 1) and the whole computation is exact.
        let shape = ConvShape::new(1, 6, 6, 1, 1, 2, 2, 0, 0);
        let x = Tensor4::<f32>::from_fn([1, 6, 6, 1], |_, i, j, _| {
            if i == 0 && j == 0 {
                127.0
            } else {
                ((i * 6 + j) % 11) as f32
            }
        });
        let dy = Tensor4::<f32>::from_fn([1, 5, 5, 1], |_, i, j, _| {
            if i == 0 && j == 0 {
                127.0
            } else {
                ((i + j) % 7) as f32
            }
        });
        let qx = quantize(&x);
        let qdy = quantize(&dy);
        assert_eq!(qx.scale, 1.0);
        assert_eq!(qdy.scale, 1.0);
        let exact = direct::bfc_direct(&shape, &x.cast::<f64>(), &dy.cast::<f64>());
        let dw = bfc_int8(&shape, &qx, &qdy);
        for (got, want) in dw.as_slice().iter().zip(exact.as_slice()) {
            assert_eq!(*got as f64, *want, "{got} vs {want}");
        }
    }
}
