//! Forward and backward-data convolution on the WinRS kernel substrate.
//!
//! The paper's conclusion: "With moderate modifications, WinRS can support
//! FC and BDC." This module is that modification. FC/BDC have the
//! *opposite* shape profile from BFC — small filters, large outputs — so
//! no segmentation is needed (block counts are naturally large, Figure 2);
//! what carries over is the fused 1D-Winograd machinery:
//!
//! * the same `F(n, r)` transforms, picked from the same inventory with
//!   `r = F_W` (the real filter width this time);
//! * dimension reduction: a 2D convolution is computed as `F_H`
//!   accumulated 1D convolutions along rows;
//! * full fusion: filter tiles are transformed once up front (they are
//!   tiny and reused across the whole feature map), input tiles are
//!   transformed on the fly, and the output transform runs once per tile
//!   after accumulating over `(f_h, ic)`.
//!
//! BDC is expressed as an FC with the 180°-rotated, channel-transposed
//! filter and complementary padding — the standard adjoint identity.

use crate::error::{Violation, WinrsError};
use crate::workspace::ScratchPool;
use std::sync::Arc;
use winrs_conv::ConvShape;
use winrs_gemm::sched;
use winrs_tensor::Tensor4;
use winrs_winograd::cook_toom::TransformReal;
use winrs_winograd::kernels::WINRS_KERNELS;
use winrs_winograd::registry;

/// Pick the fastest inventory kernel with `r = fw` (here `r` is the true
/// filter width, not a split unit); fall back to `F(4, fw)` when the
/// inventory has no matching unit width. Both come from the process-wide
/// transform registry, as the plan's do.
fn forward_kernel(fw: usize) -> Arc<TransformReal> {
    let best = WINRS_KERNELS
        .iter()
        .copied()
        .filter(|k| k.r == fw)
        .max_by(|a, b| {
            a.throughput_coefficient()
                .total_cmp(&b.throughput_coefficient())
        });
    match best {
        Some(k) => registry::transform(k.n, k.r),
        None => registry::transform(4, fw),
    }
}

/// Refuse mis-shaped operands: one [`Violation::TensorDimsMismatch`] per
/// `(tensor, expected, got)` that disagrees, all at once.
fn check_dims(operands: [(&'static str, [usize; 4], [usize; 4]); 2]) -> Result<(), WinrsError> {
    let violations = Violation::dims_mismatches(operands);
    if violations.is_empty() {
        return Ok(());
    }
    Err(WinrsError::ExecutionRejected(violations))
}

/// Forward convolution `Y = X ⊛ W` with fused 1D Winograd along rows.
///
/// Each worker's per-row IT tile (`α`) and output accumulator (`O_C · α`)
/// live in one slot of a scratch arena carved once per call, so the row
/// loop never allocates. An ill-formed shape or a mis-shaped `x` or `w`
/// is a typed error listing every violation.
pub fn fc_winograd(
    shape: &ConvShape,
    x: &Tensor4<f32>,
    w: &Tensor4<f32>,
) -> Result<Tensor4<f32>, WinrsError> {
    WinrsError::check_shape(shape)?;
    check_dims([
        ("x", [shape.n, shape.ih, shape.iw, shape.ic], x.dims()),
        ("w", [shape.oc, shape.fh, shape.fw, shape.ic], w.dims()),
    ])?;
    let (oh, ow) = (shape.oh(), shape.ow());
    let t = forward_kernel(shape.fw);
    let (alpha, n_t) = (t.alpha, t.n);
    let slot = alpha * (1 + shape.oc);
    let mut arena = vec![0.0f32; ScratchPool::region_elems(slot, sched::workers())];
    let scratch = ScratchPool::new(&mut arena, slot);

    // FT once: ghat[oc][fh][ic][α].
    let ghat: Vec<f32> = {
        let mut g = vec![0.0f32; shape.oc * shape.fh * shape.ic * alpha];
        for oc in 0..shape.oc {
            for a in 0..shape.fh {
                for ic in 0..shape.ic {
                    let base = ((oc * shape.fh + a) * shape.ic + ic) * alpha;
                    for beta in 0..alpha {
                        let mut acc = 0.0f32;
                        for tt in 0..shape.fw {
                            acc += t.g_f32[beta * shape.fw + tt] * w[(oc, a, tt, ic)];
                        }
                        g[base + beta] = acc;
                    }
                }
            }
        }
        g
    };

    let mut y = Tensor4::<f32>::zeros([shape.n, oh, ow, shape.oc]);
    let row_elems = ow * shape.oc;
    let chunks = y.as_mut_slice().chunks_mut(row_elems).enumerate().collect();
    sched::run_tasks(chunks, sched::workers(), |worker, (row_idx, yrow)| {
        let (b, i) = (row_idx / oh, row_idx % oh);
        scratch.with_slot_at(worker, slot, |buf| {
            let (dhat, acc) = buf.split_at_mut(alpha);
            let full_tiles = ow / n_t;
            for tile in 0..full_tiles {
                let j0 = tile * n_t;
                acc.fill(0.0);
                for a in 0..shape.fh {
                    let xi = (i + a) as isize - shape.ph as isize;
                    for ic in 0..shape.ic {
                        // IT on the fly.
                        for (beta, d) in dhat.iter_mut().enumerate() {
                            let mut s = 0.0f32;
                            for k in 0..alpha {
                                let xj = (j0 + k) as isize - shape.pw as isize;
                                let v = x.get_padded(b, xi, xj, ic);
                                if v != 0.0 {
                                    s += t.dt_f32[beta * alpha + k] * v;
                                }
                            }
                            *d = s;
                        }
                        // EWM accumulate over (f_h, ic) per output channel.
                        for oc in 0..shape.oc {
                            let g = &ghat[((oc * shape.fh + a) * shape.ic + ic) * alpha..][..alpha];
                            let dst = &mut acc[oc * alpha..(oc + 1) * alpha];
                            for beta in 0..alpha {
                                dst[beta] += g[beta] * dhat[beta];
                            }
                        }
                    }
                }
                // OT per (tile, oc).
                for oc in 0..shape.oc {
                    let src = &acc[oc * alpha..(oc + 1) * alpha];
                    for d in 0..n_t {
                        let s: f32 = t.at_f32[d * alpha..(d + 1) * alpha]
                            .iter()
                            .zip(src)
                            .map(|(a, v)| a * v)
                            .sum();
                        yrow[(j0 + d) * shape.oc + oc] = s;
                    }
                }
            }
            // Residual output columns: direct.
            for j in full_tiles * n_t..ow {
                for oc in 0..shape.oc {
                    let mut s = 0.0f32;
                    for a in 0..shape.fh {
                        let xi = (i + a) as isize - shape.ph as isize;
                        for bb in 0..shape.fw {
                            let xj = (j + bb) as isize - shape.pw as isize;
                            for ic in 0..shape.ic {
                                s += x.get_padded(b, xi, xj, ic) * w[(oc, a, bb, ic)];
                            }
                        }
                    }
                    yrow[j * shape.oc + oc] = s;
                }
            }
        });
    });
    Ok(y)
}

/// Backward-data convolution `∇X` via the adjoint identity: FC of `∇Y`
/// with the rotated, channel-transposed filter under complementary
/// padding `(F−1−p)`. On an axis padded past `F − 1` that padding would be
/// negative, so `p − (F − 1)` rows (columns) are cropped from both sides
/// of `∇Y` instead and the axis is not padded. An ill-formed shape or a
/// mis-shaped `dy` or `w` is a typed error listing every violation.
pub fn bdc_winograd(
    shape: &ConvShape,
    dy: &Tensor4<f32>,
    w: &Tensor4<f32>,
) -> Result<Tensor4<f32>, WinrsError> {
    WinrsError::check_shape(shape)?;
    let (oh, ow) = (shape.oh(), shape.ow());
    check_dims([
        ("dy", [shape.n, oh, ow, shape.oc], dy.dims()),
        ("w", [shape.oc, shape.fh, shape.fw, shape.ic], w.dims()),
    ])?;

    // W'[ic, a, b, oc] = W[oc, F_H−1−a, F_W−1−b, ic].
    let wrot =
        Tensor4::<f32>::from_fn([shape.ic, shape.fh, shape.fw, shape.oc], |ic, a, bb, oc| {
            w[(oc, shape.fh - 1 - a, shape.fw - 1 - bb, ic)]
        });
    let (crop_h, crop_w) = (
        shape.ph.saturating_sub(shape.fh - 1),
        shape.pw.saturating_sub(shape.fw - 1),
    );
    let adj = ConvShape::new(
        shape.n,
        oh - 2 * crop_h,
        ow - 2 * crop_w,
        shape.oc,
        shape.ic,
        shape.fh,
        shape.fw,
        (shape.fh - 1).saturating_sub(shape.ph),
        (shape.fw - 1).saturating_sub(shape.pw),
    );
    debug_assert_eq!(adj.oh(), shape.ih);
    debug_assert_eq!(adj.ow(), shape.iw);
    if crop_h == 0 && crop_w == 0 {
        return fc_winograd(&adj, dy, &wrot);
    }
    let cropped = Tensor4::<f32>::from_fn([adj.n, adj.ih, adj.iw, adj.ic], |b, i, j, oc| {
        dy[(b, i + crop_h, j + crop_w, oc)]
    });
    fc_winograd(&adj, &cropped, &wrot)
}

#[cfg(test)]
mod tests {
    use super::*;
    use winrs_conv::direct;
    use winrs_tensor::mare;

    fn setup(shape: &ConvShape) -> (Tensor4<f64>, Tensor4<f64>, Tensor4<f64>) {
        let x = Tensor4::<f64>::random_uniform([shape.n, shape.ih, shape.iw, shape.ic], 91, 1.0);
        let w = Tensor4::<f64>::random_uniform([shape.oc, shape.fh, shape.fw, shape.ic], 92, 1.0);
        let dy =
            Tensor4::<f64>::random_uniform([shape.n, shape.oh(), shape.ow(), shape.oc], 93, 1.0);
        (x, w, dy)
    }

    #[test]
    fn fc_matches_direct_3x3() {
        let shape = ConvShape::square(2, 12, 3, 4, 3);
        let (x, w, _) = setup(&shape);
        let got = fc_winograd(&shape, &x.cast(), &w.cast()).unwrap();
        let want = direct::fc_direct(&shape, &x, &w);
        let m = mare(&got, &want);
        assert!(m < 1e-5, "MARE {m}");
    }

    #[test]
    fn fc_matches_direct_various_filters() {
        for &f in &[2usize, 3, 4, 5, 6] {
            let shape = ConvShape::square(1, 14, 2, 3, f);
            let (x, w, _) = setup(&shape);
            let got = fc_winograd(&shape, &x.cast(), &w.cast()).unwrap();
            let want = direct::fc_direct(&shape, &x, &w);
            let m = mare(&got, &want);
            assert!(m < 1e-4, "f={f}: MARE {m}");
        }
    }

    #[test]
    fn fc_handles_residual_output_columns() {
        // O_W not a multiple of the tile size n.
        let shape = ConvShape::new(1, 9, 13, 2, 2, 3, 3, 1, 1);
        let (x, w, _) = setup(&shape);
        let got = fc_winograd(&shape, &x.cast(), &w.cast()).unwrap();
        let want = direct::fc_direct(&shape, &x, &w);
        assert!(mare(&got, &want) < 1e-5);
    }

    #[test]
    fn bdc_matches_direct() {
        let shape = ConvShape::square(2, 10, 3, 4, 3);
        let (_, w, dy) = setup(&shape);
        let got = bdc_winograd(&shape, &dy.cast(), &w.cast()).unwrap();
        let want = direct::bdc_direct(&shape, &dy, &w);
        let m = mare(&got, &want);
        assert!(m < 1e-5, "MARE {m}");
    }

    #[test]
    fn bdc_even_filter() {
        let shape = ConvShape::new(1, 10, 10, 2, 2, 4, 4, 2, 2);
        let (_, w, dy) = setup(&shape);
        let got = bdc_winograd(&shape, &dy.cast(), &w.cast()).unwrap();
        let want = direct::bdc_direct(&shape, &dy, &w);
        assert!(mare(&got, &want) < 1e-4);
    }

    /// Padding at or past the filter size has no complementary padding:
    /// F ∈ {1, 2, 3} at p ∈ {F − 1, F, F + 1}, plus a map padded past the
    /// filter on one axis only, all match direct BDC.
    #[test]
    fn bdc_matches_direct_when_padding_reaches_the_filter() {
        let mut shapes: Vec<ConvShape> = (1..=3usize)
            .flat_map(|f| (f - 1..=f + 1).map(move |p| ConvShape::new(2, 6, 7, 3, 4, f, f, p, p)))
            .collect();
        shapes.push(ConvShape::new(1, 5, 8, 2, 3, 2, 3, 3, 1));
        for shape in shapes {
            assert!(shape.violations().is_empty(), "{shape:?}");
            let (_, w, dy) = setup(&shape);
            let got = bdc_winograd(&shape, &dy.cast(), &w.cast()).unwrap();
            let want = direct::bdc_direct(&shape, &dy, &w);
            let m = mare(&got, &want);
            assert!(m < 1e-5, "{shape:?}: MARE {m}");
        }
    }

    /// Mis-shaped operands come back as one typed refusal listing every
    /// mismatched operand, on both entries, instead of a panic; an
    /// ill-formed shape is refused before any operand is read.
    #[test]
    fn mis_shaped_operands_are_typed_errors_listing_every_violation() {
        let shape = ConvShape::square(2, 10, 3, 4, 3);
        let x = Tensor4::<f32>::zeros([2, 10, 10, 2]); // ic 2, shape wants 3
        let dy = Tensor4::<f32>::zeros([2, 9, 10, 4]); // oh 9, shape wants 10
        let w = Tensor4::<f32>::zeros([4, 3, 3, 2]); // ic 2, shape wants 3
        let mismatch = |tensor, expected, got| Violation::TensorDimsMismatch {
            tensor,
            expected,
            got,
        };
        let w_bad = mismatch("w", [4, 3, 3, 3], [4, 3, 3, 2]);
        let fc = fc_winograd(&shape, &x, &w).unwrap_err();
        assert!(matches!(fc, WinrsError::ExecutionRejected(_)), "{fc}");
        assert_eq!(
            fc.violations(),
            [mismatch("x", [2, 10, 10, 3], [2, 10, 10, 2]), w_bad.clone()]
        );
        let bdc = bdc_winograd(&shape, &dy, &w).unwrap_err();
        assert!(matches!(bdc, WinrsError::ExecutionRejected(_)), "{bdc}");
        assert_eq!(
            bdc.violations(),
            [mismatch("dy", [2, 10, 10, 4], [2, 9, 10, 4]), w_bad]
        );
        // One operand off: exactly that one is named.
        let w_ok = Tensor4::<f32>::zeros([4, 3, 3, 3]);
        let one = fc_winograd(&shape, &x, &w_ok).unwrap_err();
        assert_eq!(one.violations().len(), 1, "{one}");
        // A filter taller than the padded map: no operand dims exist.
        let tall = ConvShape {
            ih: 2,
            ph: 0,
            fh: 5,
            ..shape
        };
        let err = bdc_winograd(&tall, &dy, &w).unwrap_err();
        assert!(matches!(err, WinrsError::InvalidShape(_)), "{err}");
    }

    #[test]
    fn forward_kernel_prefers_inventory() {
        // fw = 3 should pick Ω₈(6,3) (the highest-coefficient r = 3 kernel).
        let t = forward_kernel(3);
        assert_eq!(t.r, 3);
        assert_eq!(t.n, 6);
        // fw = 7 is not an inventory unit width: generated fallback.
        let t7 = forward_kernel(7);
        assert_eq!(t7.r, 7);
        assert_eq!(t7.n, 4);
    }
}
