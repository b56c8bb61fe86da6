//! 16-lane AVX-512 bodies of the micro-kernel family (dispatched by the
//! parent module when [`super::SimdWidth::Avx512`] is active).
//!
//! Each body keeps the arithmetic form its kernel has at every width
//! (`super`'s bit-identity contract): the EWMM ([`rank_k_batch`]) is one
//! fused multiply-add per step, every other body separate mul + add.
//! Every `target_feature` set here enables `avx2`+`fma` alongside
//! `avx512f` because tails and the GEMM tiles (whose natural shape is one
//! 256-bit row; no 512-bit form of the 4×8 tile exists) run AVX2
//! instructions — `avx512_ready` verifies the full set.
#![doc = "audit: no-alloc"]

use super::avx2::{RowGeom, Steps};
use super::NR;
use std::arch::x86_64::*;

/// f32 lanes per 512-bit register.
const LANES16: usize = 16;
/// f32 lanes per 256-bit register — the sub-tail width. Rows shorter than
/// 16 lanes (tiny channel counts are common) would otherwise fall straight
/// to the scalar remainder and run *slower* than the AVX2 member; the
/// 8-lane step keeps them vectorised. Bit-identity is unaffected: the ops
/// are element-independent mul+add at any lane count.
const LANES8: usize = 8;

/// Rows of the EWMM register tile: 8 rows × two zmm hold 16
/// accumulators, and each step's two d̂ vectors serve 16 fused
/// multiply-adds, half the d̂ loads per multiply-add of 4 rows. On the 22
/// fig10 keys (one vCPU, three alternating runs, geometric mean) 8 rows
/// ran 112–119 GFLOP/s, 4 rows 113–116 and 12 rows 106–112.
const EWMM_ROWS: usize = 8;

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

/// Multi-row reduction AXPY (see the safe wrapper
/// `super::gather_axpy_rows`) for α ∈ {2, 4, 8, 16}: columns of two
/// 16-lane vectors, a lane tail under a load/store mask; a column's α
/// source vectors are loaded once for every row. With `COUNT` it returns
/// the non-finite row sums, otherwise 0; with `STORE` it stores each row
/// sum instead of adding it onto `dst`.
///
/// # Safety
/// Caller must have verified `avx512f`, `avx2` and `fma` at runtime, and
/// `dst ≥ (n−1)·dstride + w`, `src ≥ (α−1)·sstride + w` elements with
/// `n = coeffs.len() / α`.
#[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
pub unsafe fn gather_axpy_rows<const COUNT: bool, const STORE: bool>(
    dst: &mut [f32],
    dstride: usize,
    coeffs: &[f32],
    alpha: usize,
    src: &[f32],
    sstride: usize,
    w: usize,
) -> u64 {
    let (dp, sp, cp) = (dst.as_mut_ptr(), src.as_ptr(), coeffs.as_ptr());
    let geom = RowGeom {
        dstride,
        sstride,
        n: coeffs.len() / alpha,
    };
    let mut non_finite = 0u64;
    let mut j = 0;
    while j < w {
        let left = w - j;
        let at = (dp.add(j), cp, sp.add(j));
        non_finite += if left > LANES16 {
            let masks = [lane_mask(LANES16), lane_mask(left - LANES16)];
            match alpha {
                2 => rows_chunk::<2, 2, COUNT, STORE>(at, geom, masks),
                4 => rows_chunk::<4, 2, COUNT, STORE>(at, geom, masks),
                8 => rows_chunk::<8, 2, COUNT, STORE>(at, geom, masks),
                16 => rows_chunk::<16, 2, COUNT, STORE>(at, geom, masks),
                _ => 0, // unreachable: the wrapper sends other α to the portable body
            }
        } else {
            let masks = [lane_mask(left)];
            match alpha {
                2 => rows_chunk::<2, 1, COUNT, STORE>(at, geom, masks),
                4 => rows_chunk::<4, 1, COUNT, STORE>(at, geom, masks),
                8 => rows_chunk::<8, 1, COUNT, STORE>(at, geom, masks),
                16 => rows_chunk::<16, 1, COUNT, STORE>(at, geom, masks),
                _ => 0, // unreachable: as above
            }
        };
        j += left.min(2 * LANES16);
    }
    non_finite
}

/// One `16·V`-lane column of [`gather_axpy_rows`] at a compile-time α:
/// load the α source vectors once, then fold them into every row with
/// mul + add in β order, each sum starting at +0.0; with `COUNT`, count
/// the sums that are not finite (`|y| < ∞` fails for ±∞ and NaN) before
/// storing (`STORE`) or adding them on. Lanes outside `masks` are neither
/// read, written nor counted.
///
/// # Safety
/// `avx512f` verified at runtime; `at = (dst, coeffs, src)` points at the
/// column's first lane of output row 0, the `n × A` coefficients and the
/// column's first lane of source plane 0, and every masked-in lane of `n`
/// output rows and `A` planes is in bounds.
#[inline]
#[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
unsafe fn rows_chunk<const A: usize, const V: usize, const COUNT: bool, const STORE: bool>(
    at: (*mut f32, *const f32, *const f32),
    geom: RowGeom,
    masks: [__mmask16; V],
) -> u64 {
    let (dst, coeffs, src) = at;
    let inf = _mm512_set1_ps(f32::INFINITY);
    let mut non_finite = 0u32;
    let mut planes = [[_mm512_setzero_ps(); V]; A];
    for (b, p) in planes.iter_mut().enumerate() {
        for (v, lane) in p.iter_mut().enumerate() {
            *lane = _mm512_maskz_loadu_ps(masks[v], src.add(b * geom.sstride + v * LANES16));
        }
    }
    for d in 0..geom.n {
        let c = coeffs.add(d * A);
        let mut y = [_mm512_setzero_ps(); V];
        for (b, p) in planes.iter().enumerate() {
            let cb = _mm512_set1_ps(*c.add(b));
            for (yl, &pl) in y.iter_mut().zip(p) {
                *yl = _mm512_add_ps(*yl, _mm512_mul_ps(cb, pl));
            }
        }
        let o = dst.add(d * geom.dstride);
        for (v, &yl) in y.iter().enumerate() {
            if COUNT {
                let finite = _mm512_cmp_ps_mask::<_CMP_LT_OQ>(_mm512_abs_ps(yl), inf);
                non_finite += (masks[v] & !finite).count_ones();
            }
            let ov = o.add(v * LANES16);
            let out = if STORE {
                yl
            } else {
                _mm512_add_ps(_mm512_maskz_loadu_ps(masks[v], ov), yl)
            };
            _mm512_mask_storeu_ps(ov, masks[v], out);
        }
    }
    u64::from(non_finite)
}

/// Binary16 round trip (see the safe wrapper `super::round_f16`): 16
/// lanes per `vcvtps2ph` + `vcvtph2ps`, rounding to nearest even from the
/// immediate, the lane tail under a load/store mask. A lane saturates
/// when `|v| < ∞` held before the round trip and fails after it.
///
/// # Safety
/// Caller must have verified `avx512f`, `avx2` and `fma` at runtime.
#[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
pub unsafe fn round_f16(buf: &mut [f32]) -> u64 {
    let (n, p) = (buf.len(), buf.as_mut_ptr());
    let inf = _mm512_set1_ps(f32::INFINITY);
    let mut saturated = 0u64;
    let mut i = 0;
    while i < n {
        let mask = lane_mask(n - i);
        let v = _mm512_maskz_loadu_ps(mask, p.add(i));
        let half = _mm512_cvtps_ph::<{ _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC }>(v);
        let r = _mm512_cvtph_ps(half);
        let was = _mm512_cmp_ps_mask::<_CMP_LT_OQ>(_mm512_abs_ps(v), inf);
        let now = _mm512_cmp_ps_mask::<_CMP_LT_OQ>(_mm512_abs_ps(r), inf);
        saturated += u64::from((mask & was & !now).count_ones());
        _mm512_mask_storeu_ps(p.add(i), mask, r);
        i += LANES16;
    }
    saturated
}

/// Staged α-batched EWMM (see the safe wrapper `super::rank_k_batch`):
/// each β plane is walked in `R × 32`-lane register tiles
/// (`R ≤ EWMM_ROWS`, two 512-bit vectors per row); a lane tail narrower
/// than a vector runs the same tile under a load/store mask, so no
/// element leaves the vector path.
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

/// Every row of one `16·V`-lane column of a plane: full
/// [`EWMM_ROWS`]-row tiles, then the 1–7 row tail.
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
    while oi + EWMM_ROWS <= rows {
        tile::<EWMM_ROWS, V>((c.add(oi * steps.ldc), g.add(oi), d), steps, masks);
        oi += EWMM_ROWS;
    }
    let tail = (c.add(oi * steps.ldc), g.add(oi), d);
    match rows - oi {
        7 => tile::<7, V>(tail, steps, masks),
        6 => tile::<6, V>(tail, steps, masks),
        5 => tile::<5, V>(tail, steps, masks),
        4 => tile::<4, V>(tail, steps, masks),
        3 => tile::<3, V>(tail, steps, masks),
        2 => tile::<2, V>(tail, steps, masks),
        1 => tile::<1, V>(tail, steps, masks),
        _ => {}
    }
}

/// One `R × 16·V` tile: load the accumulator rows once, fold every step's
/// `ĝ` broadcast × `d̂` vector in with one fused multiply-add in step
/// order, store once. Lanes outside `masks` are neither read nor written.
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
                // winrs-audit: allow(bit-identity) — every width fuses this kernel
                *lane = _mm512_fmadd_ps(gv, dl, *lane);
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
