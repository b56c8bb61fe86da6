//! N-D (3D) backward-filter convolution via WinRS dimension reduction —
//! the paper's Level-2 extension (§3).
//!
//! "The 1D filters enable … straightforward extension to N-D BFC with two
//! modifications: in Partitioning, divide ∇Y ∈ ℝ^{N×D₁×…×D_k×O_C} into Z
//! segments; in Dimension Reduction, decompose ∇Y(z) ∈
//! ℝ^{N×S₁(z)×…×S_k(z)×O_C} into (∏ S_i)/S_k filters ∈ ℝ^{N×S_k(z)×O_C}."
//!
//! This module implements the 3D case: every `(o_d, o_h)` row of `∇Y` is a
//! 1D filter along the innermost spatial axis, split into hybrid units by
//! the same kernel pair used in 2D, convolved with the matching region of
//! `X`, and accumulated over `(batch, rows, units, f_d, f_h)` into the
//! `∇W` tile before a single output transform. Height/depth clipping
//! generalises Figure 7 to both outer spatial axes.

use crate::config::pair::{select_pair, KernelPair};
use crate::config::Precision;
use crate::engine::clip_rows;
use crate::workspace::ScratchPool;
use std::collections::HashMap;
use std::sync::Arc;
use winrs_conv::ndim::Conv3dShape;
use winrs_gemm::sched;
use winrs_tensor::TensorN;
use winrs_winograd::cook_toom::TransformReal;
use winrs_winograd::registry;

/// 3D WinRS BFC in FP32. Segmentation is left at Z = 1 (the extension
/// demonstrates dimension reduction + filter split; 3D workloads have
/// `O_D·O_H` rows of parallelism, which this implementation exploits over
/// output channels and filter tiles instead of buckets).
///
/// Each worker's FT/IT/accumulator triple (`3·α` at the widest kernel's
/// `α`) lives in one slot of a scratch arena carved once per call, so the
/// output-channel loop never allocates.
pub fn bfc3d_winrs(shape: &Conv3dShape, x: &TensorN<f32>, dy: &TensorN<f32>) -> TensorN<f32> {
    assert_eq!(x.dims(), &shape.x_dims()[..]);
    assert_eq!(dy.dims(), &shape.dy_dims()[..]);
    let (od, oh, ow) = (shape.od(), shape.oh(), shape.ow());

    let pair = select_pair(shape.fw, ow, Precision::Fp32);
    let transforms: HashMap<(usize, usize), Arc<TransformReal>> = [Some(pair.bulk), pair.residual]
        .into_iter()
        .flatten()
        .map(|k| ((k.n, k.r), registry::transform(k.n, k.r)))
        .collect();
    // Hoisted out of the parallel loop: the unit decomposition of a ∇Y
    // row, grouped per kernel, and the widest α (sizes the scratch slot).
    let units = row_units(&pair);
    let kernel_units: Vec<((usize, usize), Vec<usize>)> = transforms
        .keys()
        .map(|&(kn, kr)| {
            let mine: Vec<usize> = units
                .iter()
                .filter(|(_, r, n)| *r == kr && *n == kn)
                .map(|(w0, _, _)| *w0)
                .collect();
            ((kn, kr), mine)
        })
        .filter(|(_, mine)| !mine.is_empty())
        .collect();
    let max_alpha = transforms.values().map(|t| t.alpha).max().unwrap_or(0);
    let slot = 3 * max_alpha;
    let mut arena = vec![0.0f32; ScratchPool::region_elems(slot, sched::workers())];
    let scratch = ScratchPool::new(&mut arena, slot);

    let mut dw = TensorN::<f32>::zeros(&shape.dw_dims());
    let per_oc = shape.fd * shape.fh * shape.fw * shape.ic;
    let chunks = dw.as_mut_slice().chunks_mut(per_oc).enumerate().collect();
    sched::run_tasks(chunks, sched::workers(), |worker, (c_out, dwo)| {
        scratch.with_slot_at(worker, slot, |buf| {
            compute_oc_slice(
                shape,
                x,
                dy,
                &transforms,
                &kernel_units,
                c_out,
                od,
                oh,
                dwo,
                buf,
                max_alpha,
            );
        });
    });
    dw
}

/// The unit decomposition of one ∇Y row under the pair: `(w0, kernel)` per
/// unit.
fn row_units(pair: &KernelPair) -> Vec<(usize, usize, usize)> {
    // (start column, r, alpha-key n) per unit.
    let mut units = Vec::new();
    for u in 0..pair.bulk_units {
        units.push((u * pair.bulk.r, pair.bulk.r, pair.bulk.n));
    }
    if let Some(res) = pair.residual {
        let base = pair.bulk_units * pair.bulk.r;
        for u in 0..pair.residual_units {
            units.push((base + u * res.r, res.r, res.n));
        }
    }
    units
}

#[allow(clippy::too_many_arguments)]
fn compute_oc_slice(
    shape: &Conv3dShape,
    x: &TensorN<f32>,
    dy: &TensorN<f32>,
    transforms: &HashMap<(usize, usize), Arc<TransformReal>>,
    kernel_units: &[((usize, usize), Vec<usize>)],
    c_out: usize,
    od: usize,
    oh: usize,
    dwo: &mut [f32],
    buf: &mut [f32],
    max_alpha: usize,
) {
    let (ghat_buf, rest) = buf.split_at_mut(max_alpha);
    let (dhat_buf, acc_buf) = rest.split_at_mut(max_alpha);

    // Process per (kernel, filter tile along F_W).
    for ((kn, kr), my_units) in kernel_units {
        let t = &transforms[&(*kn, *kr)];
        let (alpha, n_out) = (t.alpha, t.n);
        let kr = *kr;
        let fw_tiles = shape.fw / n_out;

        let ghat = &mut ghat_buf[..alpha];
        let dhat = &mut dhat_buf[..alpha];
        for fd in 0..shape.fd {
            // Depth clipping: the Figure 7 argument along O_D.
            let (d_lo, d_hi) = clip_rows(0, od, fd, shape.pd, shape.id);
            for fh in 0..shape.fh {
                let (h_lo, h_hi) = clip_rows(0, oh, fh, shape.ph, shape.ih);
                for ftw in 0..fw_tiles {
                    let fw0 = ftw * n_out;
                    for c_in in 0..shape.ic {
                        let acc = &mut acc_buf[..alpha];
                        acc.fill(0.0);
                        for b in 0..shape.n {
                            for zd in d_lo..d_hi {
                                let xd = (fd + zd) as isize - shape.pd as isize;
                                for i in h_lo..h_hi {
                                    let xh = (fh + i) as isize - shape.ph as isize;
                                    for &col0 in my_units {
                                        // FT: the ∇Y unit as a 1D filter.
                                        for (beta, g) in ghat.iter_mut().enumerate() {
                                            let mut s = 0.0f32;
                                            for tt in 0..kr {
                                                let v = dy.get_padded(
                                                    b,
                                                    &[
                                                        zd as isize,
                                                        i as isize,
                                                        (col0 + tt) as isize,
                                                    ],
                                                    c_out,
                                                );
                                                s += t.g_f32[beta * kr + tt] * v;
                                            }
                                            *g = s;
                                        }
                                        // IT: the matching X span.
                                        let x_col0 = (fw0 + col0) as isize - shape.pw as isize;
                                        for (beta, d) in dhat.iter_mut().enumerate() {
                                            let mut s = 0.0f32;
                                            for k in 0..alpha {
                                                let v = x.get_padded(
                                                    b,
                                                    &[xd, xh, x_col0 + k as isize],
                                                    c_in,
                                                );
                                                if v != 0.0 {
                                                    s += t.dt_f32[beta * alpha + k] * v;
                                                }
                                            }
                                            *d = s;
                                        }
                                        for beta in 0..alpha {
                                            acc[beta] += ghat[beta] * dhat[beta];
                                        }
                                    }
                                }
                            }
                        }
                        // OT once per (fd, fh, tile, ic): accumulate into
                        // the tile (bulk and residual kernels add up).
                        for d in 0..n_out {
                            let s: f32 = t.at_f32[d * alpha..(d + 1) * alpha]
                                .iter()
                                .zip(acc.iter())
                                .map(|(a, v)| a * v)
                                .sum();
                            let idx = ((fd * shape.fh + fh) * shape.fw + fw0 + d) * shape.ic + c_in;
                            dwo[idx] += s;
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use winrs_conv::ndim::bfc3d_direct;
    use winrs_tensor::mare_n;

    fn check(shape: Conv3dShape, tol: f64) {
        let x = TensorN::<f64>::random_uniform(&shape.x_dims(), 31, 1.0);
        let dy = TensorN::<f64>::random_uniform(&shape.dy_dims(), 32, 1.0);
        let exact = bfc3d_direct(&shape, &x, &dy);
        let got = bfc3d_winrs(&shape, &x.cast(), &dy.cast());
        let m = mare_n(&got, &exact);
        assert!(m < tol, "{shape:?}: MARE {m}");
    }

    #[test]
    fn matches_direct_cube_3x3x3() {
        check(Conv3dShape::cube(1, 8, 2, 2, 3), 1e-5);
    }

    #[test]
    fn matches_direct_cube_2x2x2() {
        check(Conv3dShape::cube(2, 6, 1, 2, 2), 1e-5);
    }

    #[test]
    fn matches_direct_anisotropic() {
        let shape = Conv3dShape {
            n: 1,
            id: 4,
            ih: 9,
            iw: 11,
            ic: 2,
            oc: 1,
            fd: 2,
            fh: 3,
            fw: 3,
            pd: 1,
            ph: 1,
            pw: 1,
        };
        check(shape, 1e-5);
    }

    #[test]
    fn matches_direct_no_padding() {
        let shape = Conv3dShape {
            n: 2,
            id: 5,
            ih: 7,
            iw: 9,
            ic: 1,
            oc: 2,
            fd: 2,
            fh: 2,
            fw: 3,
            pd: 0,
            ph: 0,
            pw: 0,
        };
        check(shape, 1e-5);
    }
}
