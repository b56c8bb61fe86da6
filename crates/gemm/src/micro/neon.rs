//! 4-lane NEON bodies of the micro-kernel family (aarch64; dispatched by
//! the parent module when [`super::SimdWidth::Neon`] is active).
//!
//! All bodies use `vmulq_f32` + `vaddq_f32`, never `vfmaq_f32`: the fused
//! op skips the intermediate rounding and would break the cross-width
//! bit-identity contract stated at the family top (`super`).
#![doc = "audit: no-alloc"]

use super::{MR, NR};
use std::arch::aarch64::*;

/// f32 lanes per 128-bit NEON register.
const LANES4: usize = 4;

/// # Safety
/// Caller must have verified `neon` at runtime.
#[target_feature(enable = "neon")]
pub unsafe fn axpy(dst: &mut [f32], a: f32, x: &[f32]) {
    let n = dst.len();
    let dp = dst.as_mut_ptr();
    let xp = x.as_ptr();
    let av = vdupq_n_f32(a);
    let mut i = 0;
    while i + LANES4 <= n {
        let prod = vmulq_f32(av, vld1q_f32(xp.add(i)));
        vst1q_f32(dp.add(i), vaddq_f32(vld1q_f32(dp.add(i)), prod));
        i += LANES4;
    }
    while i < n {
        *dp.add(i) += a * *xp.add(i);
        i += 1;
    }
}

/// Batched transform AXPY (see the safe wrapper): the β loop runs inside
/// the `target_feature` body so the per-chunk `axpy` calls inline here.
///
/// # Safety
/// Caller must have verified `neon` at runtime.
#[target_feature(enable = "neon")]
pub unsafe fn expand_axpy(dst: &mut [f32], coeffs: &[f32], cstride: usize, src: &[f32]) {
    let w = src.len();
    for (j, chunk) in dst.chunks_exact_mut(w).enumerate() {
        axpy(chunk, *coeffs.get_unchecked(j * cstride), src);
    }
}

/// Batched reduction AXPY (see the safe wrapper).
///
/// # Safety
/// Caller must have verified `neon` at runtime.
#[target_feature(enable = "neon")]
pub unsafe fn gather_axpy(dst: &mut [f32], coeffs: &[f32], src: &[f32], sstride: usize) {
    let w = dst.len();
    for (j, &c) in coeffs.iter().enumerate() {
        axpy(dst, c, src.get_unchecked(j * sstride..j * sstride + w));
    }
}

/// `MR × NR` GEMM register tile: NR = 8 columns is two 128-bit registers
/// per accumulator row; per rank-1 step a B row is loaded once and
/// combined with four A broadcasts via separate mul + add.
///
/// # Safety
/// Caller must have verified `neon` at runtime, and slice bounds as
/// asserted by the safe wrapper (`a` ≥ `(MR-1)·lda + kc`, `b` ≥ `kc·ldb`
/// with `ldb ≥ NR`, `c` ≥ `(MR-1)·ldc + NR`).
#[target_feature(enable = "neon")]
#[allow(clippy::too_many_arguments)]
pub unsafe fn micro_kernel_4x8(
    kc: usize,
    alpha: f32,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    c: &mut [f32],
    ldc: usize,
) {
    let ap = a.as_ptr();
    let bp = b.as_ptr();
    let cp = c.as_mut_ptr();
    let mut acc = [[vdupq_n_f32(0.0); 2]; MR];
    for p in 0..kc {
        let b0 = vld1q_f32(bp.add(p * ldb));
        let b1 = vld1q_f32(bp.add(p * ldb + LANES4));
        for (ii, row) in acc.iter_mut().enumerate() {
            let av = vdupq_n_f32(*ap.add(ii * lda + p));
            row[0] = vaddq_f32(row[0], vmulq_f32(av, b0));
            row[1] = vaddq_f32(row[1], vmulq_f32(av, b1));
        }
    }
    let av = vdupq_n_f32(alpha);
    for (ii, row) in acc.iter().enumerate() {
        let crow = cp.add(ii * ldc);
        vst1q_f32(crow, vaddq_f32(vld1q_f32(crow), vmulq_f32(av, row[0])));
        let hi = crow.add(LANES4);
        vst1q_f32(hi, vaddq_f32(vld1q_f32(hi), vmulq_f32(av, row[1])));
    }
}

/// NR-tail GEMM tile: B rows are zero-padded into a full 8-lane buffer
/// (matching the scalar body) and the epilogue writes back only the live
/// `nr` columns from a spilled accumulator, one scalar mul+add per
/// element — the same per-element sequence as scalar.
///
/// # Safety
/// Caller must have verified `neon` at runtime, and slice bounds as
/// asserted by the safe wrapper (`b` rows hold `nr` live elements, `c`
/// rows hold `nr`).
#[target_feature(enable = "neon")]
#[allow(clippy::too_many_arguments)]
pub unsafe fn micro_kernel_4xn(
    kc: usize,
    alpha: f32,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    nr: usize,
    c: &mut [f32],
    ldc: usize,
) {
    let ap = a.as_ptr();
    let mut acc = [[vdupq_n_f32(0.0); 2]; MR];
    for p in 0..kc {
        let mut pad = [0.0f32; NR];
        pad[..nr].copy_from_slice(b.get_unchecked(p * ldb..p * ldb + nr));
        let b0 = vld1q_f32(pad.as_ptr());
        let b1 = vld1q_f32(pad.as_ptr().add(LANES4));
        for (ii, row) in acc.iter_mut().enumerate() {
            let av = vdupq_n_f32(*ap.add(ii * lda + p));
            row[0] = vaddq_f32(row[0], vmulq_f32(av, b0));
            row[1] = vaddq_f32(row[1], vmulq_f32(av, b1));
        }
    }
    for (ii, row) in acc.iter().enumerate() {
        let mut spill = [0.0f32; NR];
        vst1q_f32(spill.as_mut_ptr(), row[0]);
        vst1q_f32(spill.as_mut_ptr().add(LANES4), row[1]);
        let crow = c.get_unchecked_mut(ii * ldc..ii * ldc + nr);
        for jj in 0..nr {
            crow[jj] += alpha * spill[jj];
        }
    }
}
