#![warn(missing_docs)]
// Unit tests assert on known-good values; unwrap is fine there.
#![cfg_attr(test, allow(clippy::unwrap_used))]
//! Blocked, cache-aware GEMM, the shared SIMD micro-kernels ([`micro`])
//! and the work-stealing scheduler ([`sched`]) that every parallel loop of
//! the workspace runs on.
//!
//! Substrate for the `Cu-GEMM` baseline family (`winrs-conv::gemm_bfc`) and
//! for the batched element-wise-multiplication stage of the non-fused
//! Winograd baseline. Three entry points:
//!
//! * [`gemm_f32`] — single-precision, register-blocked micro-kernel with
//!   L2-sized macro tiles, parallelised over row panels on [`sched`] (the
//!   CUDA-core analogue).
//! * [`gemm_mixed_f16`] — binary16 inputs, f32 accumulation, binary16
//!   store: the Tensor-Core `mma` contract.
//! * [`gemm_generic`] — straightforward triple loop over any [`Scalar`],
//!   used as the ground-truth oracle in tests and for f64.
//!
//! All matrices are dense row-major with explicit leading dimensions kept
//! equal to their logical widths (no padding), which is what the conv
//! lowering produces.

pub mod micro;
pub mod sched;

use micro::{micro_kernel_4x8, micro_kernel_4xn, MR, NR};
use winrs_fp16::f16;
use winrs_tensor::Scalar;

/// Cache-block sizes for the f32 kernel: `MC × KC` panels of A, full rows
/// of B. Sized for a ~1 MiB L2 slice.
const MC: usize = 64;
const KC: usize = 256;

/// `C = alpha · A·B + beta · C`, all row-major; `A` is `m×k`, `B` is `k×n`,
/// `C` is `m×n`. Reference implementation over any scalar type.
#[allow(clippy::too_many_arguments)] // the BLAS gemm signature
pub fn gemm_generic<T: Scalar>(
    m: usize,
    n: usize,
    k: usize,
    alpha: T,
    a: &[T],
    b: &[T],
    beta: T,
    c: &mut [T],
) {
    assert_eq!(a.len(), m * k, "A size");
    assert_eq!(b.len(), k * n, "B size");
    assert_eq!(c.len(), m * n, "C size");
    for i in 0..m {
        for j in 0..n {
            let mut acc = T::ZERO;
            for p in 0..k {
                acc += a[i * k + p] * b[p * n + j];
            }
            c[i * n + j] = alpha * acc + beta * c[i * n + j];
        }
    }
}

/// Parallel blocked f32 GEMM: `C = alpha·A·B + beta·C`.
///
/// Row panels of `MC` rows are distributed over [`sched`]'s workers; within a
/// panel the kernel walks `KC`-deep strips and updates `MR × NR` register
/// tiles, which keeps the hot loop in registers and `A`/`B` strips in L1/L2
/// — the CPU shape of the paper's cache-blocked SM kernels.
#[allow(clippy::too_many_arguments)] // the BLAS gemm signature
pub fn gemm_f32(
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    b: &[f32],
    beta: f32,
    c: &mut [f32],
) {
    assert_eq!(a.len(), m * k, "A size");
    assert_eq!(b.len(), k * n, "B size");
    assert_eq!(c.len(), m * n, "C size");
    if m == 0 || n == 0 {
        return;
    }

    // Scale C once up front so panel updates can pure-accumulate.
    if beta != 1.0 {
        if beta == 0.0 {
            c.fill(0.0);
        } else {
            c.iter_mut().for_each(|x| *x *= beta);
        }
    }

    let panels = c.chunks_mut(MC * n).enumerate().collect();
    sched::run_tasks(panels, sched::workers(), |_, (panel, c_panel)| {
        let i0 = panel * MC;
        let mc = MC.min(m - i0);
        let mut kb = 0;
        while kb < k {
            let kc = KC.min(k - kb);
            panel_kernel(
                mc,
                n,
                kc,
                alpha,
                &a[i0 * k + kb..],
                k,
                &b[kb * n..],
                n,
                c_panel,
            );
            kb += kc;
        }
    });
}

/// One `mc × n` panel update: `C += alpha · A[mc × kc] · B[kc × n]`.
#[allow(clippy::too_many_arguments)]
fn panel_kernel(
    mc: usize,
    n: usize,
    kc: usize,
    alpha: f32,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    c: &mut [f32],
) {
    let mut i = 0;
    while i < mc {
        let mr = MR.min(mc - i);
        let mut j = 0;
        while j < n {
            let nr = NR.min(n - j);
            if mr == MR && nr == NR {
                micro_kernel_4x8(
                    kc,
                    alpha,
                    &a[i * lda..],
                    lda,
                    &b[j..],
                    ldb,
                    &mut c[i * n + j..],
                    n,
                );
            } else if mr == MR {
                // Column tail: vector-shaped kernel with zero-padded B lanes.
                micro_kernel_4xn(
                    kc,
                    alpha,
                    &a[i * lda..],
                    lda,
                    &b[j..],
                    ldb,
                    nr,
                    &mut c[i * n + j..],
                    n,
                );
            } else {
                // Row-tail tile: scalar loop.
                for ii in 0..mr {
                    for jj in 0..nr {
                        let mut acc = 0.0f32;
                        for p in 0..kc {
                            acc += a[(i + ii) * lda + p] * b[p * ldb + j + jj];
                        }
                        c[(i + ii) * n + j + jj] += alpha * acc;
                    }
                }
            }
            j += nr;
        }
        i += mr;
    }
}

/// Mixed-precision GEMM with Tensor-Core semantics: binary16 operands,
/// f32 accumulation, one binary16 rounding on store.
/// `C = f16(alpha · Σ_p f32(A)·f32(B) + beta · f32(C))`.
#[allow(clippy::too_many_arguments)] // the BLAS gemm signature
pub fn gemm_mixed_f16(
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f16],
    b: &[f16],
    beta: f32,
    c: &mut [f16],
) {
    assert_eq!(a.len(), m * k, "A size");
    assert_eq!(b.len(), k * n, "B size");
    assert_eq!(c.len(), m * n, "C size");
    let rows = c.chunks_mut(n).enumerate().collect();
    sched::run_tasks(rows, sched::workers(), |_, (i, crow)| {
        for (j, cj) in crow.iter_mut().enumerate() {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a[i * k + p].to_f32() * b[p * n + j].to_f32();
            }
            *cj = f16::from_f32(alpha * acc + beta * cj.to_f32());
        }
    });
}

/// FLOP count of one GEMM (`2·m·n·k`), used by the cost models.
pub fn gemm_flops(m: usize, n: usize, k: usize) -> u64 {
    2 * m as u64 * n as u64 * k as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn random_matrix(rng: &mut StdRng, len: usize) -> Vec<f32> {
        (0..len).map(|_| rng.random::<f32>() * 2.0 - 1.0).collect()
    }

    fn assert_close(a: &[f32], b: &[f32], tol: f32) {
        assert_eq!(a.len(), b.len());
        for i in 0..a.len() {
            assert!((a[i] - b[i]).abs() < tol, "elem {i}: {} vs {}", a[i], b[i]);
        }
    }

    #[test]
    fn blocked_matches_generic_various_shapes() {
        let mut rng = StdRng::seed_from_u64(11);
        for &(m, n, k) in &[
            (1usize, 1usize, 1usize),
            (4, 8, 16),
            (5, 7, 9),      // edge tiles everywhere
            (64, 64, 64),   // exact blocking
            (65, 33, 257),  // straddles MC/KC boundaries
            (130, 24, 100), // multiple panels
        ] {
            let a = random_matrix(&mut rng, m * k);
            let b = random_matrix(&mut rng, k * n);
            let mut c_blocked = random_matrix(&mut rng, m * n);
            let mut c_ref = c_blocked.clone();
            gemm_f32(m, n, k, 1.3, &a, &b, 0.5, &mut c_blocked);
            gemm_generic(m, n, k, 1.3f32, &a, &b, 0.5, &mut c_ref);
            assert_close(&c_blocked, &c_ref, 1e-3 * k as f32);
        }
    }

    #[test]
    fn beta_zero_overwrites_garbage() {
        // With beta = 0, pre-existing NaNs in C must not propagate.
        let a = vec![1.0f32; 4];
        let b = vec![1.0f32; 4];
        let mut c = vec![f32::NAN; 4];
        gemm_f32(2, 2, 2, 1.0, &a, &b, 0.0, &mut c);
        assert_eq!(c, vec![2.0; 4]);
    }

    #[test]
    fn identity_multiplication() {
        let n = 17;
        let mut id = vec![0.0f32; n * n];
        for i in 0..n {
            id[i * n + i] = 1.0;
        }
        let mut rng = StdRng::seed_from_u64(5);
        let x = random_matrix(&mut rng, n * n);
        let mut c = vec![0.0f32; n * n];
        gemm_f32(n, n, n, 1.0, &id, &x, 0.0, &mut c);
        assert_close(&c, &x, 1e-6);
    }

    #[test]
    fn mixed_f16_accumulates_in_f32() {
        // Sum of 4096 × (1/2048)·1: exact in f32 accumulation (= 2.0), but
        // pure-f16 accumulation would stall long before 2.0.
        let k = 4096;
        let a: Vec<f16> = (0..k).map(|_| f16::from_f32(1.0 / 2048.0)).collect();
        let b: Vec<f16> = (0..k).map(|_| f16::ONE).collect();
        let mut c = vec![f16::ZERO; 1];
        gemm_mixed_f16(1, 1, k, 1.0, &a, &b, 0.0, &mut c);
        assert_eq!(c[0].to_f32(), 2.0);
    }

    #[test]
    fn mixed_f16_matches_f32_reference_closely() {
        let mut rng = StdRng::seed_from_u64(9);
        let (m, n, k) = (9usize, 13usize, 31usize);
        let a32 = random_matrix(&mut rng, m * k);
        let b32 = random_matrix(&mut rng, k * n);
        let a: Vec<f16> = a32.iter().map(|&x| f16::from_f32(x)).collect();
        let b: Vec<f16> = b32.iter().map(|&x| f16::from_f32(x)).collect();
        // Reference computed from the rounded f16 inputs in f32.
        let a_r: Vec<f32> = a.iter().map(|x| x.to_f32()).collect();
        let b_r: Vec<f32> = b.iter().map(|x| x.to_f32()).collect();
        let mut want = vec![0.0f32; m * n];
        gemm_generic(m, n, k, 1.0f32, &a_r, &b_r, 0.0, &mut want);
        let mut c = vec![f16::ZERO; m * n];
        gemm_mixed_f16(m, n, k, 1.0, &a, &b, 0.0, &mut c);
        for i in 0..m * n {
            // One f16 rounding at the end: within an ulp of the f32 ref.
            let got = c[i].to_f32();
            assert!(
                (got - want[i]).abs() <= want[i].abs() * 2.0f32.powi(-10) + 1e-6,
                "elem {i}: {got} vs {}",
                want[i]
            );
        }
    }

    #[test]
    fn gemm_flops_formula() {
        assert_eq!(gemm_flops(2, 3, 4), 48);
    }

    #[test]
    fn generic_f64_exactness() {
        // Small integer matrices: exact in f64.
        let a: Vec<f64> = vec![1.0, 2.0, 3.0, 4.0]; // 2×2
        let b: Vec<f64> = vec![5.0, 6.0, 7.0, 8.0];
        let mut c = vec![0.0f64; 4];
        gemm_generic(2, 2, 2, 1.0f64, &a, &b, 0.0, &mut c);
        assert_eq!(c, vec![19.0, 22.0, 43.0, 50.0]);
    }
}
