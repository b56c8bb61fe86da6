//! Non-fused 2D Winograd BFC: the `Cu-WinNF` baseline analogue.
//!
//! cuDNN's only Winograd BFC is non-fused and supports 3×3 and 5×5 `∇W`
//! (paper §6). It reduces time complexity 4× (3×3) and 6.25× (5×5)
//! (footnote 4), which pins down its tiling: `F(4×4, 3×3)` (α = 6) and
//! `F(4×4, 5×5)` (α = 8), with `(m·r/α)² = 4` and `6.25` respectively.
//!
//! The weight-gradient identity follows from differentiating the forward
//! Winograd form `y = Aᵀ[(G·w) ⊙ (Dᵀ·x)]` with respect to `w`:
//!
//! ```text
//! ∇w = Gᵀ[(Dᵀ·x) ⊙ (A·∇y)]            (1D)
//! ∇W = G₀ᵀ[(D₀ᵀ·X·D₁) ⊙ (A₀·∇Y·A₁ᵀ)]G₁  (2D, summed over tiles & batch)
//! ```
//!
//! The four stages run as *separate* passes with materialised global
//! buffers — exactly the structure whose workspace and intermediate traffic
//! the paper contrasts against WinRS's full fusion:
//!
//! 1. **IT**: transform every α×α input patch → `N·T·α²·I_C` floats;
//! 2. **YT**: transform every m×m `∇Y` tile → `N·T·α²·O_C` floats;
//! 3. **EWM**: α² batched GEMMs `(I_C × NT)·(NT × O_C)` → `α²·I_C·O_C`;
//! 4. **OT**: apply `G₀ᵀ…G₁` per `(oc, ic)` pair → `∇W`.

use crate::ConvShape;
use winrs_gemm::sched;
use winrs_tensor::{Scalar, Tensor4};
use winrs_winograd::cook_toom::Transform;

/// The Cu-WinNF output-tile side `m` (fixed by footnote 4's reduction
/// factors).
pub const WINNF_TILE: usize = 4;

/// True if the analogue supports this shape (square 3×3 / 5×5, like
/// cuDNN's backend).
pub fn supported(shape: &ConvShape) -> bool {
    shape.fh == shape.fw && (shape.fh == 3 || shape.fh == 5)
}

struct Plan<T> {
    m: usize,
    r: usize,
    alpha: usize,
    /// `Aᵀ` rounded to T, `m × α` — its transpose `A` maps m → α.
    at: Vec<T>,
    /// `G` rounded to T, `α × r`.
    g: Vec<T>,
    /// `Dᵀ` rounded to T, `α × α`.
    dt: Vec<T>,
}

impl<T: Scalar> Plan<T> {
    fn new(m: usize, r: usize) -> Plan<T> {
        let t = Transform::generate(m, r).to_real();
        let round = |v: &[f64]| v.iter().map(|&x| T::from_f64(x)).collect::<Vec<T>>();
        Plan {
            m,
            r,
            alpha: t.alpha,
            at: round(&t.at_f64),
            g: round(&t.g_f64),
            dt: round(&t.dt_f64),
        }
    }

    /// `out[α×α] = Dᵀ · x · D` (x is α×α row-major).
    fn input_transform(&self, x: &[T], out: &mut [T], tmp: &mut [T]) {
        let a = self.alpha;
        // tmp = Dᵀ · x.
        for i in 0..a {
            for j in 0..a {
                let mut acc = T::ZERO;
                for k in 0..a {
                    acc += self.dt[i * a + k] * x[k * a + j];
                }
                tmp[i * a + j] = acc;
            }
        }
        // out = tmp · D  (D[k][j] = Dᵀ[j][k]).
        for i in 0..a {
            for j in 0..a {
                let mut acc = T::ZERO;
                for k in 0..a {
                    acc += tmp[i * a + k] * self.dt[j * a + k];
                }
                out[i * a + j] = acc;
            }
        }
    }

    /// `out[α×α] = A · y · Aᵀ` (y is m×m row-major; `A = atᵀ`).
    fn grad_transform(&self, y: &[T], out: &mut [T], tmp: &mut [T]) {
        let (a, m) = (self.alpha, self.m);
        // tmp[α×m] = A · y, A[i][k] = at[k*α + i].
        for i in 0..a {
            for j in 0..m {
                let mut acc = T::ZERO;
                for k in 0..m {
                    acc += self.at[k * a + i] * y[k * m + j];
                }
                tmp[i * m + j] = acc;
            }
        }
        // out[α×α] = tmp · Aᵀ, Aᵀ[k][j] = at[j*α + k] ... Aᵀ is m×α: (tmp·Aᵀ)[i][j] = Σ_k tmp[i][k]·A[j][k] with A α×m.
        for i in 0..a {
            for j in 0..a {
                let mut acc = T::ZERO;
                for k in 0..m {
                    acc += tmp[i * m + k] * self.at[k * a + j];
                }
                out[i * a + j] = acc;
            }
        }
    }

    /// `out[r×r] = Gᵀ · v · G` (v is α×α row-major).
    fn output_transform(&self, v: &[T], out: &mut [T], tmp: &mut [T]) {
        let (a, r) = (self.alpha, self.r);
        // tmp[r×α] = Gᵀ · v.
        for i in 0..r {
            for j in 0..a {
                let mut acc = T::ZERO;
                for k in 0..a {
                    acc += self.g[k * r + i] * v[k * a + j];
                }
                tmp[i * a + j] = acc;
            }
        }
        // out[r×r] = tmp · G.
        for i in 0..r {
            for j in 0..r {
                let mut acc = T::ZERO;
                for k in 0..a {
                    acc += tmp[i * a + k] * self.g[k * r + j];
                }
                out[i * r + j] = acc;
            }
        }
    }
}

/// Tile grid of a shape under `m×m` output tiles.
fn tile_grid(shape: &ConvShape, m: usize) -> (usize, usize) {
    (shape.oh().div_ceil(m), shape.ow().div_ceil(m))
}

/// Non-fused Winograd BFC. Panics if [`supported`] is false.
pub fn bfc_winnf<T: Scalar>(shape: &ConvShape, x: &Tensor4<T>, dy: &Tensor4<T>) -> Tensor4<T> {
    assert!(supported(shape), "WinNF supports square 3×3/5×5 only");
    let plan = Plan::<T>::new(WINNF_TILE, shape.fh);
    let (a, m, r) = (plan.alpha, plan.m, plan.r);
    let a2 = a * a;
    let (th, tw) = tile_grid(shape, m);
    let tiles = th * tw;
    let nt = shape.n * tiles;

    // Stage 1: IT. Layout xhat[pos][t·I_C + ic] for the stage-3 GEMMs.
    let mut xhat = vec![T::ZERO; a2 * nt * shape.ic];
    {
        let mut results: Vec<Vec<T>> = vec![Vec::new(); nt];
        let slots = results.iter_mut().enumerate().collect();
        sched::run_tasks(slots, sched::workers(), |_, (t, slot)| {
            let n = t / tiles;
            let (ti, tj) = ((t % tiles) / tw, (t % tiles) % tw);
            let mut patch = vec![T::ZERO; a2];
            let mut out = vec![T::ZERO; a2];
            let mut tmp = vec![T::ZERO; a2];
            let mut local = vec![T::ZERO; a2 * shape.ic];
            for c_in in 0..shape.ic {
                for u in 0..a {
                    for v in 0..a {
                        let xi = (ti * m + u) as isize - shape.ph as isize;
                        let xj = (tj * m + v) as isize - shape.pw as isize;
                        patch[u * a + v] = x.get_padded(n, xi, xj, c_in);
                    }
                }
                plan.input_transform(&patch, &mut out, &mut tmp);
                for pos in 0..a2 {
                    local[pos * shape.ic + c_in] = out[pos];
                }
            }
            *slot = local;
        });
        for (t, local) in results.into_iter().enumerate() {
            for pos in 0..a2 {
                let dst = pos * nt * shape.ic + t * shape.ic;
                xhat[dst..dst + shape.ic]
                    .copy_from_slice(&local[pos * shape.ic..(pos + 1) * shape.ic]);
            }
        }
    }

    // Stage 2: YT, layout yhat[pos][t·O_C + oc].
    let mut yhat = vec![T::ZERO; a2 * nt * shape.oc];
    {
        let (oh, ow) = (shape.oh(), shape.ow());
        let mut results: Vec<Vec<T>> = vec![Vec::new(); nt];
        let slots = results.iter_mut().enumerate().collect();
        sched::run_tasks(slots, sched::workers(), |_, (t, slot)| {
            let n = t / tiles;
            let (ti, tj) = ((t % tiles) / tw, (t % tiles) % tw);
            let mut tile = vec![T::ZERO; m * m];
            let mut out = vec![T::ZERO; a2];
            let mut tmp = vec![T::ZERO; a * m];
            let mut local = vec![T::ZERO; a2 * shape.oc];
            for c_out in 0..shape.oc {
                for u in 0..m {
                    for v in 0..m {
                        let yi = ti * m + u;
                        let yj = tj * m + v;
                        tile[u * m + v] = if yi < oh && yj < ow {
                            dy[(n, yi, yj, c_out)]
                        } else {
                            T::ZERO // partial edge tile
                        };
                    }
                }
                plan.grad_transform(&tile, &mut out, &mut tmp);
                for pos in 0..a2 {
                    local[pos * shape.oc + c_out] = out[pos];
                }
            }
            *slot = local;
        });
        for (t, local) in results.into_iter().enumerate() {
            for pos in 0..a2 {
                let dst = pos * nt * shape.oc + t * shape.oc;
                yhat[dst..dst + shape.oc]
                    .copy_from_slice(&local[pos * shape.oc..(pos + 1) * shape.oc]);
            }
        }
    }

    // Stage 3: α² batched GEMMs, M[pos] (I_C×O_C) = X̂[pos]ᵀ · Ŷ[pos].
    let mut prod = vec![T::ZERO; a2 * shape.ic * shape.oc];
    let chunks = prod.chunks_mut(shape.ic * shape.oc).enumerate().collect();
    sched::run_tasks(chunks, sched::workers(), |_, (pos, mpos)| {
        let xs = &xhat[pos * nt * shape.ic..(pos + 1) * nt * shape.ic];
        let ys = &yhat[pos * nt * shape.oc..(pos + 1) * nt * shape.oc];
        for t in 0..nt {
            let xrow = &xs[t * shape.ic..(t + 1) * shape.ic];
            let yrow = &ys[t * shape.oc..(t + 1) * shape.oc];
            for (ci, &xv) in xrow.iter().enumerate() {
                let dst = &mut mpos[ci * shape.oc..(ci + 1) * shape.oc];
                for (co, &yv) in yrow.iter().enumerate() {
                    dst[co] += xv * yv;
                }
            }
        }
    });

    // Stage 4: OT per (oc, ic).
    let mut dw = Tensor4::<T>::zeros([shape.oc, shape.fh, shape.fw, shape.ic]);
    let per_oc = shape.fh * shape.fw * shape.ic;
    let chunks = dw.as_mut_slice().chunks_mut(per_oc).enumerate().collect();
    sched::run_tasks(chunks, sched::workers(), |_, (c_out, dwo)| {
        let mut v = vec![T::ZERO; a2];
        let mut out = vec![T::ZERO; r * r];
        let mut tmp = vec![T::ZERO; r * a];
        for c_in in 0..shape.ic {
            for pos in 0..a2 {
                v[pos] = prod[pos * shape.ic * shape.oc + c_in * shape.oc + c_out];
            }
            plan.output_transform(&v, &mut out, &mut tmp);
            for fa in 0..r {
                for fb in 0..r {
                    dwo[(fa * shape.fw + fb) * shape.ic + c_in] = out[fa * r + fb];
                }
            }
        }
    });
    dw
}

/// Workspace bytes at 4-byte elements: the three materialised stage buffers
/// (X̂, Ŷ, product spectra).
pub fn workspace_bytes(shape: &ConvShape) -> usize {
    if !supported(shape) {
        return 0;
    }
    let alpha = WINNF_TILE + shape.fh - 1;
    let a2 = alpha * alpha;
    let (th, tw) = tile_grid(shape, WINNF_TILE);
    let nt = shape.n * th * tw;
    (a2 * nt * (shape.ic + shape.oc) + a2 * shape.ic * shape.oc) * 4
}

/// FLOPs: transforms + EWM GEMMs (the EWM dominates). Direct-conv FLOPs
/// divide by `(m·r/α)²` = 4 (3×3) or 6.25 (5×5) plus transform overhead.
pub fn flops(shape: &ConvShape) -> u64 {
    if !supported(shape) {
        return 0;
    }
    let m = WINNF_TILE as u64;
    let alpha = m + shape.fh as u64 - 1;
    let a2 = alpha * alpha;
    let (th, tw) = tile_grid(shape, WINNF_TILE);
    let nt = (shape.n * th * tw) as u64;
    let ewm = 2 * a2 * nt * shape.ic as u64 * shape.oc as u64;
    // Transform cost: 2·α·α² MACs per 2D transform application.
    let it = nt * shape.ic as u64 * 4 * alpha * a2;
    let yt = nt * shape.oc as u64 * 4 * alpha * a2;
    let ot = (shape.ic * shape.oc) as u64 * 4 * alpha * a2;
    ewm + it + yt + ot
}

/// Intermediate traffic: each stage buffer written once and read once.
pub fn intermediate_traffic_bytes(shape: &ConvShape) -> u64 {
    2 * workspace_bytes(shape) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direct;
    use winrs_fp16::f16;
    use winrs_tensor::mare;

    fn check_f64(shape: ConvShape, tol: f64) {
        let x = Tensor4::<f64>::random_uniform([shape.n, shape.ih, shape.iw, shape.ic], 61, 1.0);
        let dy =
            Tensor4::<f64>::random_uniform([shape.n, shape.oh(), shape.ow(), shape.oc], 62, 1.0);
        let exact = direct::bfc_direct(&shape, &x, &dy);
        let got = bfc_winnf(&shape, &x, &dy);
        let m = mare(&got, &exact);
        assert!(m < tol, "{shape:?}: MARE {m}");
    }

    #[test]
    fn matches_direct_3x3() {
        check_f64(ConvShape::new(2, 8, 8, 2, 3, 3, 3, 1, 1), 1e-12);
    }

    #[test]
    fn matches_direct_5x5() {
        check_f64(ConvShape::new(1, 12, 12, 2, 2, 5, 5, 2, 2), 1e-12);
    }

    #[test]
    fn matches_direct_partial_edge_tiles() {
        // O_H, O_W = 9: not a multiple of the m = 4 tile.
        check_f64(ConvShape::new(1, 9, 9, 1, 1, 3, 3, 1, 1), 1e-12);
    }

    #[test]
    fn matches_direct_no_padding() {
        check_f64(ConvShape::new(2, 10, 10, 1, 2, 3, 3, 0, 0), 1e-12);
    }

    #[test]
    fn fp32_accuracy_near_table4_row() {
        // Table 4: FP32 Cu-WinNF MARE 4.78e-7 … 3.68e-6.
        let shape = ConvShape::new(2, 16, 16, 4, 4, 3, 3, 1, 1);
        let x = Tensor4::<f64>::random_uniform([shape.n, shape.ih, shape.iw, shape.ic], 63, 1.0);
        let dy =
            Tensor4::<f64>::random_uniform([shape.n, shape.oh(), shape.ow(), shape.oc], 64, 1.0);
        let exact = direct::bfc_direct(&shape, &x, &dy);
        let got = bfc_winnf(&shape, &x.cast::<f32>(), &dy.cast::<f32>());
        let m = mare(&got, &exact);
        assert!(m > 1e-8 && m < 1e-4, "MARE {m}");
    }

    #[test]
    fn fp16_is_much_worse_than_fp32() {
        // Table 4: FP16 Cu-WinNF MARE up to 6.5e-1 — the non-fused f16
        // pipeline degrades badly. Verify the ordering, not the absolute.
        let shape = ConvShape::new(2, 16, 16, 2, 2, 3, 3, 1, 1);
        let x = Tensor4::<f64>::random_uniform([shape.n, shape.ih, shape.iw, shape.ic], 65, 1.0);
        let dy =
            Tensor4::<f64>::random_uniform([shape.n, shape.oh(), shape.ow(), shape.oc], 66, 0.01);
        let exact = direct::bfc_direct(&shape, &x, &dy);
        let m32 = mare(&bfc_winnf(&shape, &x.cast::<f32>(), &dy.cast::<f32>()), &exact);
        let m16 = mare(&bfc_winnf(&shape, &x.cast::<f16>(), &dy.cast::<f16>()), &exact);
        assert!(m16 > 50.0 * m32, "fp16 {m16} vs fp32 {m32}");
    }

    #[test]
    fn unsupported_shapes_rejected() {
        assert!(!supported(&ConvShape::new(1, 8, 8, 1, 1, 4, 4, 2, 2)));
        assert!(!supported(&ConvShape::new(1, 8, 8, 1, 1, 3, 5, 1, 2)));
        assert!(supported(&ConvShape::new(1, 8, 8, 1, 1, 5, 5, 2, 2)));
    }

    #[test]
    #[should_panic(expected = "WinNF supports")]
    fn unsupported_execution_panics() {
        let shape = ConvShape::new(1, 8, 8, 1, 1, 7, 7, 3, 3);
        let x = Tensor4::<f32>::zeros([1, 8, 8, 1]);
        let dy = Tensor4::<f32>::zeros([1, shape.oh(), shape.ow(), 1]);
        let _ = bfc_winnf(&shape, &x, &dy);
    }

    #[test]
    fn workspace_is_multiple_of_data_size() {
        // Table 2: Cu-WinNF workspace 2.23×–5.9× data size.
        let shape = ConvShape::square(32, 56, 128, 128, 3);
        let ratio = workspace_bytes(&shape) as f64 / shape.data_bytes(4) as f64;
        assert!(ratio > 1.5, "ratio {ratio}");
    }

    #[test]
    fn flop_reduction_near_4x_for_3x3() {
        // EWM-only reduction is (m·r/α)² = 4; transforms eat some of it.
        let shape = ConvShape::square(8, 64, 64, 64, 3);
        let reduction = shape.bfc_flops() as f64 / flops(&shape) as f64;
        assert!(reduction > 2.0 && reduction < 4.0, "reduction {reduction}");
    }
}
