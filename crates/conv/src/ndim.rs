//! N-dimensional (3D) backward-filter convolution — reference
//! implementation for the paper's Level-2 extension claim.
//!
//! §3 Level 2: "WinRS reduces ∇Y(z) into 1D filters, enabling
//! straightforward extension to N-D BFC". This module provides the 3D
//! problem shape and the direct (oracle) 3D BFC the extension is verified
//! against; the WinRS-side implementation lives in `winrs-core::ndim`.
//!
//! Layouts follow the 2D convention with one more spatial axis:
//! `X ∈ ℝ^{N×I_D×I_H×I_W×I_C}`, `∇Y ∈ ℝ^{N×O_D×O_H×O_W×O_C}`,
//! `∇W ∈ ℝ^{O_C×F_D×F_H×F_W×I_C}`.

use winrs_gemm::sched;
use winrs_tensor::{Scalar, TensorN};

/// Shape of a 3D convolutional layer, stride 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Conv3dShape {
    /// Batch size.
    pub n: usize,
    /// Input depth/height/width.
    pub id: usize,
    /// Input height.
    pub ih: usize,
    /// Input width.
    pub iw: usize,
    /// Input channels.
    pub ic: usize,
    /// Output channels.
    pub oc: usize,
    /// Filter depth.
    pub fd: usize,
    /// Filter height.
    pub fh: usize,
    /// Filter width.
    pub fw: usize,
    /// Padding along depth.
    pub pd: usize,
    /// Padding along height.
    pub ph: usize,
    /// Padding along width.
    pub pw: usize,
}

impl Conv3dShape {
    /// Cubic "same"-style shape.
    pub fn cube(n: usize, res: usize, ic: usize, oc: usize, f: usize) -> Conv3dShape {
        Conv3dShape {
            n,
            id: res,
            ih: res,
            iw: res,
            ic,
            oc,
            fd: f,
            fh: f,
            fw: f,
            pd: f / 2,
            ph: f / 2,
            pw: f / 2,
        }
    }

    /// Output depth.
    pub fn od(&self) -> usize {
        self.id + 2 * self.pd + 1 - self.fd
    }

    /// Output height.
    pub fn oh(&self) -> usize {
        self.ih + 2 * self.ph + 1 - self.fh
    }

    /// Output width.
    pub fn ow(&self) -> usize {
        self.iw + 2 * self.pw + 1 - self.fw
    }

    /// `X` dims.
    pub fn x_dims(&self) -> Vec<usize> {
        vec![self.n, self.id, self.ih, self.iw, self.ic]
    }

    /// `∇Y` dims.
    pub fn dy_dims(&self) -> Vec<usize> {
        vec![self.n, self.od(), self.oh(), self.ow(), self.oc]
    }

    /// `∇W` dims.
    pub fn dw_dims(&self) -> Vec<usize> {
        vec![self.oc, self.fd, self.fh, self.fw, self.ic]
    }

    /// Direct BFC FLOPs.
    pub fn bfc_flops(&self) -> u64 {
        2 * (self.oc * self.fd * self.fh * self.fw * self.ic) as u64
            * (self.od() * self.oh() * self.ow() * self.n) as u64
    }
}

/// Direct 3D BFC: `∇W[oc,fd,fh,fw,ic] = Σ_{n,od,oh,ow}
/// X[n, fd+od−p_D, fh+oh−p_H, fw+ow−p_W, ic] · ∇Y[n,od,oh,ow,oc]`.
pub fn bfc3d_direct<T: Scalar>(
    shape: &Conv3dShape,
    x: &TensorN<T>,
    dy: &TensorN<T>,
) -> TensorN<T> {
    assert_eq!(x.dims(), &shape.x_dims()[..]);
    assert_eq!(dy.dims(), &shape.dy_dims()[..]);
    let (od, oh, ow) = (shape.od(), shape.oh(), shape.ow());
    let mut dw = TensorN::<T>::zeros(&shape.dw_dims());
    let per_oc = shape.fd * shape.fh * shape.fw * shape.ic;
    let chunks = dw.as_mut_slice().chunks_mut(per_oc).enumerate().collect();
    sched::run_tasks(chunks, sched::workers(), |_, (c_out, dwo)| {
        for a in 0..shape.fd {
            for b in 0..shape.fh {
                for c in 0..shape.fw {
                    for c_in in 0..shape.ic {
                        let mut acc = T::ZERO;
                        for n in 0..shape.n {
                            for zd in 0..od {
                                for i in 0..oh {
                                    for j in 0..ow {
                                        let xs = [
                                            (a + zd) as isize - shape.pd as isize,
                                            (b + i) as isize - shape.ph as isize,
                                            (c + j) as isize - shape.pw as isize,
                                        ];
                                        acc += x.get_padded(n, &xs, c_in)
                                            * dy.get(&[n, zd, i, j, c_out]);
                                    }
                                }
                            }
                        }
                        dwo[((a * shape.fh + b) * shape.fw + c) * shape.ic + c_in] = acc;
                    }
                }
            }
        }
    });
    dw
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_arithmetic() {
        let s = Conv3dShape::cube(2, 8, 3, 4, 3);
        assert_eq!((s.od(), s.oh(), s.ow()), (8, 8, 8));
        assert_eq!(s.dw_dims(), vec![4, 3, 3, 3, 3]);
    }

    #[test]
    fn all_ones_counts_positions() {
        // No padding: every ∇W element sums N·O_D·O_H·O_W ones.
        let s = Conv3dShape {
            n: 2,
            id: 4,
            ih: 4,
            iw: 4,
            ic: 1,
            oc: 1,
            fd: 2,
            fh: 2,
            fw: 2,
            pd: 0,
            ph: 0,
            pw: 0,
        };
        let mut x = TensorN::<f64>::zeros(&s.x_dims());
        x.as_mut_slice().fill(1.0);
        let mut dy = TensorN::<f64>::zeros(&s.dy_dims());
        dy.as_mut_slice().fill(1.0);
        let dw = bfc3d_direct(&s, &x, &dy);
        let want = (2 * 3 * 3 * 3) as f64;
        assert!(dw.as_slice().iter().all(|&v| v == want));
    }

    #[test]
    fn reduces_to_2d_when_depth_is_trivial() {
        // F_D = 1, I_D = 1: the 3D BFC must equal the 2D BFC on the slice.
        let s3 = Conv3dShape {
            n: 1,
            id: 1,
            ih: 6,
            iw: 6,
            ic: 2,
            oc: 2,
            fd: 1,
            fh: 3,
            fw: 3,
            pd: 0,
            ph: 1,
            pw: 1,
        };
        let x3 = TensorN::<f64>::random_uniform(&s3.x_dims(), 1, 1.0);
        let dy3 = TensorN::<f64>::random_uniform(&s3.dy_dims(), 2, 1.0);
        let dw3 = bfc3d_direct(&s3, &x3, &dy3);

        let s2 = crate::ConvShape::new(1, 6, 6, 2, 2, 3, 3, 1, 1);
        let x2 = winrs_tensor::Tensor4::<f64>::from_vec(
            [1, 6, 6, 2],
            x3.as_slice().to_vec(),
        );
        let dy2 = winrs_tensor::Tensor4::<f64>::from_vec(
            [1, 6, 6, 2],
            dy3.as_slice().to_vec(),
        );
        let dw2 = crate::direct::bfc_direct(&s2, &x2, &dy2);
        for (a, b) in dw3.as_slice().iter().zip(dw2.as_slice()) {
            assert!((a - b).abs() < 1e-12);
        }
    }
}
