//! 16-lane AVX-512 bodies of the micro-kernel family (dispatched by the
//! parent module when [`super::SimdWidth::Avx512`] is active).
//!
//! All bodies use mul+add, never fmadd — same cross-width bit-identity
//! contract as the family top (`super`). Every `target_feature` set here
//! enables `avx2`+`fma` alongside `avx512f` because tails and the GEMM
//! tiles (whose natural shape is one 256-bit row; no 512-bit form of the
//! 4×8 tile exists) run AVX2 instructions — `avx512_ready` verifies the
//! full set.
#![doc = "audit: no-alloc"]

use super::avx2::Steps;
use super::{MR, NR};
use std::arch::x86_64::*;

/// f32 lanes per 512-bit register.
const LANES16: usize = 16;
/// f32 lanes per 256-bit register — the sub-tail width. Rows shorter than
/// 16 lanes (tiny channel counts are common) would otherwise fall straight
/// to the scalar remainder and run *slower* than the AVX2 member; the
/// 8-lane step keeps them vectorised. Bit-identity is unaffected: the ops
/// are element-independent mul+add at any lane count.
const LANES8: usize = 8;

/// # Safety
/// Caller must have verified `avx512f`, `avx2` and `fma` at runtime.
#[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
pub unsafe fn axpy(dst: &mut [f32], a: f32, x: &[f32]) {
    let n = dst.len();
    let dp = dst.as_mut_ptr();
    let xp = x.as_ptr();
    let av = _mm512_set1_ps(a);
    let mut i = 0;
    while i + LANES16 <= n {
        let prod = _mm512_mul_ps(av, _mm512_loadu_ps(xp.add(i)));
        _mm512_storeu_ps(dp.add(i), _mm512_add_ps(_mm512_loadu_ps(dp.add(i)), prod));
        i += LANES16;
    }
    if i + LANES8 <= n {
        let av8 = _mm256_set1_ps(a);
        let prod = _mm256_mul_ps(av8, _mm256_loadu_ps(xp.add(i)));
        _mm256_storeu_ps(dp.add(i), _mm256_add_ps(_mm256_loadu_ps(dp.add(i)), prod));
        i += LANES8;
    }
    while i < n {
        *dp.add(i) += a * *xp.add(i);
        i += 1;
    }
}

/// # Safety
/// Caller must have verified `avx512f`, `avx2` and `fma` at runtime.
#[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
pub unsafe fn add_assign(dst: &mut [f32], x: &[f32]) {
    let n = dst.len();
    let dp = dst.as_mut_ptr();
    let xp = x.as_ptr();
    let mut i = 0;
    while i + LANES16 <= n {
        let sum = _mm512_add_ps(_mm512_loadu_ps(dp.add(i)), _mm512_loadu_ps(xp.add(i)));
        _mm512_storeu_ps(dp.add(i), sum);
        i += LANES16;
    }
    if i + LANES8 <= n {
        let sum = _mm256_add_ps(_mm256_loadu_ps(dp.add(i)), _mm256_loadu_ps(xp.add(i)));
        _mm256_storeu_ps(dp.add(i), sum);
        i += LANES8;
    }
    while i < n {
        *dp.add(i) += *xp.add(i);
        i += 1;
    }
}

/// Batched transform AXPY (see the safe wrapper): the β loop runs inside
/// the `target_feature` body so the per-chunk `axpy` calls inline here.
///
/// # Safety
/// Caller must have verified `avx512f`, `avx2` and `fma` at runtime.
#[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
pub unsafe fn expand_axpy(dst: &mut [f32], coeffs: &[f32], cstride: usize, src: &[f32]) {
    let w = src.len();
    for (j, chunk) in dst.chunks_exact_mut(w).enumerate() {
        axpy(chunk, *coeffs.get_unchecked(j * cstride), src);
    }
}

/// Batched reduction AXPY (see the safe wrapper).
///
/// # Safety
/// Caller must have verified `avx512f`, `avx2` and `fma` at runtime.
#[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
pub unsafe fn gather_axpy(dst: &mut [f32], coeffs: &[f32], src: &[f32], sstride: usize) {
    let w = dst.len();
    for (j, &c) in coeffs.iter().enumerate() {
        axpy(dst, c, src.get_unchecked(j * sstride..j * sstride + w));
    }
}

/// Staged α-batched EWMM (see the safe wrapper `super::rank_k_batch`):
/// each β plane is walked in `R × 32`-lane register tiles (`R ≤ MR`, two
/// 512-bit vectors per row); a lane tail narrower than a vector runs the
/// same tile under a load/store mask, so no element leaves the vector
/// path.
///
/// # Safety
/// Caller must have verified `avx512f`, `avx2` and `fma` at runtime, and
/// `acc ≥ α·bn·bm`, `g ≥ k·α·bn`, `d ≥ k·α·bm` elements.
#[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
pub unsafe fn rank_k_batch(
    acc: &mut [f32],
    g: &[f32],
    d: &[f32],
    alpha: usize,
    k: usize,
    bn: usize,
    bm: usize,
) {
    let steps = Steps {
        g: alpha * bn,
        d: alpha * bm,
        k,
        ldc: bm,
    };
    for beta in 0..alpha {
        let plane = acc.as_mut_ptr().add(beta * bn * bm);
        let (gb, db) = (g.as_ptr().add(beta * bn), d.as_ptr().add(beta * bm));
        let mut j = 0;
        while j < bm {
            let left = bm - j;
            let at = (plane.add(j), gb, db.add(j));
            if left > LANES16 {
                let masks = [lane_mask(LANES16), lane_mask(left - LANES16)];
                column::<2>(at, bn, steps, masks);
            } else {
                column::<1>(at, bn, steps, [lane_mask(left)]);
            }
            j += left.min(2 * LANES16);
        }
    }
}

/// Mask of the low `n` of 16 lanes (`n ≥ 16` → all of them).
#[inline]
fn lane_mask(n: usize) -> __mmask16 {
    if n >= LANES16 {
        0xFFFF
    } else {
        (1u16 << n) - 1
    }
}

/// Every row of one `16·V`-lane column of a plane: full `MR`-row tiles,
/// then the 1–3 row tail.
///
/// # Safety
/// As [`tile`], for `rows` rows from `at`.
#[inline]
#[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
unsafe fn column<const V: usize>(
    at: (*mut f32, *const f32, *const f32),
    rows: usize,
    steps: Steps,
    masks: [__mmask16; V],
) {
    let (c, g, d) = at;
    let mut oi = 0;
    while oi + MR <= rows {
        tile::<MR, V>((c.add(oi * steps.ldc), g.add(oi), d), steps, masks);
        oi += MR;
    }
    let tail = (c.add(oi * steps.ldc), g.add(oi), d);
    match rows - oi {
        3 => tile::<3, V>(tail, steps, masks),
        2 => tile::<2, V>(tail, steps, masks),
        1 => tile::<1, V>(tail, steps, masks),
        _ => {}
    }
}

/// One `R × 16·V` tile: load the accumulator rows once, fold every step's
/// `ĝ` broadcast × `d̂` vector in with mul + add in step order, store once.
/// Lanes outside `masks` are neither read nor written.
///
/// # Safety
/// `avx512f` verified at runtime; `at = (c, g, d)` points at the tile's
/// accumulator origin (rows `steps.ldc` apart), its first `ĝ` row entry
/// and its first `d̂` lane, and every masked-in element of `R`
/// accumulator rows, `R` `ĝ` entries and `16·V` `d̂` lanes is in bounds
/// for all `steps.k` steps.
#[inline]
#[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
unsafe fn tile<const R: usize, const V: usize>(
    at: (*mut f32, *const f32, *const f32),
    steps: Steps,
    masks: [__mmask16; V],
) {
    let (c, g, d) = at;
    let ldc = steps.ldc;
    let mut t = [[_mm512_setzero_ps(); V]; R];
    for (r, row) in t.iter_mut().enumerate() {
        for (v, lane) in row.iter_mut().enumerate() {
            *lane = _mm512_maskz_loadu_ps(masks[v], c.add(r * ldc + v * LANES16));
        }
    }
    for s in 0..steps.k {
        let (gs, ds) = (g.add(s * steps.g), d.add(s * steps.d));
        let mut dv = [_mm512_setzero_ps(); V];
        for (v, lane) in dv.iter_mut().enumerate() {
            *lane = _mm512_maskz_loadu_ps(masks[v], ds.add(v * LANES16));
        }
        for (r, row) in t.iter_mut().enumerate() {
            let gv = _mm512_set1_ps(*gs.add(r));
            for (lane, &dl) in row.iter_mut().zip(&dv) {
                *lane = _mm512_add_ps(*lane, _mm512_mul_ps(gv, dl));
            }
        }
    }
    for (r, row) in t.iter().enumerate() {
        for (v, &lane) in row.iter().enumerate() {
            _mm512_mask_storeu_ps(c.add(r * ldc + v * LANES16), masks[v], lane);
        }
    }
}

/// `MR × NR` GEMM tile under an AVX-512 pin. The tile is NR = 8 columns —
/// one 256-bit row — so there is no 512-bit body to write; this delegates
/// to the AVX2 tile (compiled here with `avx512f` also enabled, letting
/// LLVM use EVEX encodings and the extra registers).
///
/// # Safety
/// Caller must have verified `avx512f`, `avx2` and `fma` at runtime, plus
/// the slice bounds documented on [`super::avx2::micro_kernel_4x8`].
#[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
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
    super::avx2::micro_kernel_4x8(kc, alpha, a, lda, b, ldb, c, ldc);
}

/// NR-tail GEMM tile under an AVX-512 pin — delegates to the AVX2 body
/// for the same reason as [`micro_kernel_4x8`].
///
/// # Safety
/// Caller must have verified `avx512f`, `avx2` and `fma` at runtime, plus
/// the slice bounds documented on [`super::avx2::micro_kernel_4xn`].
#[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
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
    debug_assert!(nr < NR);
    super::avx2::micro_kernel_4xn(kc, alpha, a, lda, b, ldb, nr, c, ldc);
}
