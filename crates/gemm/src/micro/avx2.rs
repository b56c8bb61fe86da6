//! 8-lane AVX2 bodies of the micro-kernel family (dispatched by the
//! parent module when [`super::SimdWidth::Avx2`] is active).
//!
//! Each body keeps the arithmetic form its kernel has at every width
//! (`super`'s bit-identity contract): the EWMM ([`rank_k_batch`]) is one
//! fused multiply-add per step, every other body separate mul + add —
//! fusing one of those here alone would skip a rounding the other widths
//! take.
#![doc = "audit: no-alloc"]

use super::{LANES, MR, NR};
use std::arch::x86_64::*;

/// # Safety
/// Caller must have verified `avx2` and `fma` at runtime.
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn axpy(dst: &mut [f32], a: f32, x: &[f32]) {
    let n = dst.len();
    let dp = dst.as_mut_ptr();
    let xp = x.as_ptr();
    let av = _mm256_set1_ps(a);
    let mut i = 0;
    while i + LANES <= n {
        let prod = _mm256_mul_ps(av, _mm256_loadu_ps(xp.add(i)));
        _mm256_storeu_ps(dp.add(i), _mm256_add_ps(_mm256_loadu_ps(dp.add(i)), prod));
        i += LANES;
    }
    while i < n {
        *dp.add(i) += a * *xp.add(i);
        i += 1;
    }
}

/// Batched transform AXPY (see the safe wrapper): the β loop runs
/// inside the `target_feature` body so the per-chunk `axpy` calls
/// inline here instead of going through dispatch again.
///
/// # Safety
/// Caller must have verified `avx2` and `fma` at runtime.
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn expand_axpy(dst: &mut [f32], coeffs: &[f32], cstride: usize, src: &[f32]) {
    let w = src.len();
    for (j, chunk) in dst.chunks_exact_mut(w).enumerate() {
        axpy(chunk, *coeffs.get_unchecked(j * cstride), src);
    }
}

/// Batched reduction AXPY (see the safe wrapper).
///
/// # Safety
/// Caller must have verified `avx2` and `fma` at runtime.
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn gather_axpy(dst: &mut [f32], coeffs: &[f32], src: &[f32], sstride: usize) {
    let w = dst.len();
    for (j, &c) in coeffs.iter().enumerate() {
        axpy(dst, c, src.get_unchecked(j * sstride..j * sstride + w));
    }
}

/// Multi-row reduction AXPY (see the safe wrapper
/// `super::gather_axpy_rows`) for α ∈ {2, 4, 8, 16}: columns of two
/// 8-lane vectors (one for α = 16, whose 16 source vectors fill the
/// register file), a ragged column under `maskload`/`maskstore`; a
/// column's α source vectors are loaded once for every row. With `COUNT`
/// it returns the non-finite row sums, otherwise 0; with `STORE` it stores
/// each row sum instead of adding it onto `dst`.
///
/// # Safety
/// Caller must have verified `avx2` and `fma` at runtime, and
/// `dst ≥ (n−1)·dstride + w`, `src ≥ (α−1)·sstride + w` elements with
/// `n = coeffs.len() / α`.
#[target_feature(enable = "avx2", enable = "fma")]
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
    let full = lane_mask(LANES);
    let mut non_finite = 0u64;
    let mut j = 0;
    while j < w {
        let left = w - j;
        let at = (dp.add(j), cp, sp.add(j));
        non_finite += if alpha == 16 || left < 2 * LANES {
            let masks = [lane_mask(left)];
            j += left.min(LANES);
            match (alpha, left < LANES) {
                (2, false) => rows_chunk::<2, 1, false, COUNT, STORE>(at, geom, masks),
                (4, false) => rows_chunk::<4, 1, false, COUNT, STORE>(at, geom, masks),
                (8, false) => rows_chunk::<8, 1, false, COUNT, STORE>(at, geom, masks),
                (16, false) => rows_chunk::<16, 1, false, COUNT, STORE>(at, geom, masks),
                (2, true) => rows_chunk::<2, 1, true, COUNT, STORE>(at, geom, masks),
                (4, true) => rows_chunk::<4, 1, true, COUNT, STORE>(at, geom, masks),
                (8, true) => rows_chunk::<8, 1, true, COUNT, STORE>(at, geom, masks),
                (16, true) => rows_chunk::<16, 1, true, COUNT, STORE>(at, geom, masks),
                _ => 0, // unreachable: the wrapper sends other α to the portable body
            }
        } else {
            j += 2 * LANES;
            match alpha {
                2 => rows_chunk::<2, 2, false, COUNT, STORE>(at, geom, [full; 2]),
                4 => rows_chunk::<4, 2, false, COUNT, STORE>(at, geom, [full; 2]),
                8 => rows_chunk::<8, 2, false, COUNT, STORE>(at, geom, [full; 2]),
                _ => 0, // unreachable: as above
            }
        };
    }
    non_finite
}

/// Strides of one [`gather_axpy_rows`] call (this body's and the AVX-512
/// one's): output rows sit `dstride` apart, source planes `sstride`
/// apart, and there are `n` rows.
#[derive(Clone, Copy)]
pub(super) struct RowGeom {
    pub(super) dstride: usize,
    pub(super) sstride: usize,
    pub(super) n: usize,
}

/// Load 8 lanes at `p` — only the lanes in `mask` when `MASKED`.
///
/// # Safety
/// `avx2` verified at runtime; every live lane at `p` is in bounds.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn load8<const MASKED: bool>(p: *const f32, mask: __m256i) -> __m256 {
    if MASKED {
        _mm256_maskload_ps(p, mask)
    } else {
        _mm256_loadu_ps(p)
    }
}

/// `dst[l] = y[l]` with `STORE`, else `dst[l] += y[l]`, for the 8 lanes
/// at `p` (only those in `mask` when `MASKED`).
///
/// # Safety
/// `avx2` verified at runtime; every live lane at `p` is in bounds.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn store8<const MASKED: bool, const STORE: bool>(p: *mut f32, mask: __m256i, y: __m256) {
    let out = if STORE {
        y
    } else {
        _mm256_add_ps(load8::<MASKED>(p, mask), y)
    };
    if MASKED {
        _mm256_maskstore_ps(p, mask, out);
    } else {
        _mm256_storeu_ps(p, out);
    }
}

/// One `8·V`-lane column of [`gather_axpy_rows`] at a compile-time α:
/// load the α source vectors once, then fold them into every row with
/// mul + add in β order, each sum starting at +0.0; with `COUNT`, count
/// the live lanes whose sum is not finite (`|y| < ∞` fails for ±∞ and
/// NaN) before storing (`STORE`) or adding them on.
///
/// # Safety
/// `avx2` verified at runtime; `at = (dst, coeffs, src)` points at the
/// column's first lane of output row 0, the `n × A` coefficients and the
/// column's first lane of source plane 0, and every live lane of `n`
/// output rows and `A` planes is in bounds.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn rows_chunk<
    const A: usize,
    const V: usize,
    const MASKED: bool,
    const COUNT: bool,
    const STORE: bool,
>(
    at: (*mut f32, *const f32, *const f32),
    geom: RowGeom,
    masks: [__m256i; V],
) -> u64 {
    let (dst, coeffs, src) = at;
    let inf = _mm256_set1_ps(f32::INFINITY);
    let mut non_finite = 0u32;
    let mut planes = [[_mm256_setzero_ps(); V]; A];
    for (b, p) in planes.iter_mut().enumerate() {
        for (v, lane) in p.iter_mut().enumerate() {
            *lane = load8::<MASKED>(src.add(b * geom.sstride + v * LANES), masks[v]);
        }
    }
    for d in 0..geom.n {
        let c = coeffs.add(d * A);
        let mut y = [_mm256_setzero_ps(); V];
        for (b, p) in planes.iter().enumerate() {
            let cb = _mm256_set1_ps(*c.add(b));
            for (yl, &pl) in y.iter_mut().zip(p) {
                *yl = _mm256_add_ps(*yl, _mm256_mul_ps(cb, pl));
            }
        }
        let o = dst.add(d * geom.dstride);
        for (v, &yl) in y.iter().enumerate() {
            if COUNT {
                let live = _mm256_movemask_ps(_mm256_castsi256_ps(masks[v]));
                non_finite += (live & !finite_lanes(yl, inf)).count_ones();
            }
            store8::<MASKED, STORE>(o.add(v * LANES), masks[v], yl);
        }
    }
    u64::from(non_finite)
}

/// Bit `l` set when lane `l` of `v` is finite (`|v| < ∞`, false for ±∞
/// and NaN); `inf` is `+∞` in every lane.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
fn finite_lanes(v: __m256, inf: __m256) -> i32 {
    let abs = _mm256_andnot_ps(_mm256_set1_ps(-0.0), v);
    _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_LT_OQ>(abs, inf))
}

/// Binary16 round trip (see the safe wrapper `super::round_f16`): F16C's
/// `vcvtps2ph` (round to nearest even from the immediate 0) and
/// `vcvtph2ps`, 8 lanes at a time, the tail under `maskload`/`maskstore`.
/// A lane saturates when it was finite before the round trip and is not
/// after it.
///
/// # Safety
/// Caller must have verified `avx2`, `fma` and `f16c` at runtime.
#[target_feature(enable = "avx2", enable = "fma", enable = "f16c")]
pub unsafe fn round_f16(buf: &mut [f32]) -> u64 {
    let (n, p) = (buf.len(), buf.as_mut_ptr());
    let inf = _mm256_set1_ps(f32::INFINITY);
    let mut saturated = 0u64;
    let mut i = 0;
    while i < n {
        let (at, mask) = (p.add(i), lane_mask(n - i));
        let whole = n - i >= LANES;
        let v = if whole {
            _mm256_loadu_ps(at)
        } else {
            _mm256_maskload_ps(at, mask)
        };
        let r = _mm256_cvtph_ps(_mm256_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(v));
        if whole {
            _mm256_storeu_ps(at, r);
        } else {
            _mm256_maskstore_ps(at, mask, r);
        }
        let live = _mm256_movemask_ps(_mm256_castsi256_ps(mask));
        saturated += u64::from((live & finite_lanes(v, inf) & !finite_lanes(r, inf)).count_ones());
        i += LANES;
    }
    saturated
}

/// Rows of the EWMM register tile: 4 rows × two ymm hold 8 accumulators
/// beside the two d̂ vectors and the ĝ broadcast.
const EWMM_ROWS: usize = 4;

/// Staged α-batched EWMM (see the safe wrapper `super::rank_k_batch`):
/// each β plane is walked in `R × 16`-lane register tiles
/// (`R ≤ EWMM_ROWS`, two 256-bit vectors per row); a column whose lanes
/// do not fill whole vectors runs under `maskload`/`maskstore` masks.
///
/// # Safety
/// Caller must have verified `avx2` and `fma` at runtime, and
/// `acc ≥ α·bn·bm`, `g ≥ k·α·bn`, `d ≥ k·α·bm` elements.
#[target_feature(enable = "avx2", enable = "fma")]
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
            let full = lane_mask(LANES);
            if left >= 2 * LANES {
                column::<2, false>(at, bn, steps, [full; 2]);
            } else if left > LANES {
                column::<2, true>(at, bn, steps, [full, lane_mask(left - LANES)]);
            } else if left == LANES {
                column::<1, false>(at, bn, steps, [full]);
            } else {
                column::<1, true>(at, bn, steps, [lane_mask(left)]);
            }
            j += left.min(2 * LANES);
        }
    }
}

/// Step strides of one `rank_k_batch` call (this body's and the AVX-512
/// one's): consecutive steps' `ĝ` and `d̂` rows sit `g` and `d` elements
/// apart, there are `k` of them, and accumulator rows sit `ldc` elements
/// apart.
#[derive(Clone, Copy)]
pub(super) struct Steps {
    pub(super) g: usize,
    pub(super) d: usize,
    pub(super) k: usize,
    pub(super) ldc: usize,
}

/// `maskload`/`maskstore` mask of the low `n` of 8 lanes.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
fn lane_mask(n: usize) -> __m256i {
    let live = _mm256_set1_epi32(n.min(LANES) as i32);
    _mm256_cmpgt_epi32(live, _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7))
}

/// Every row of one `8·V`-lane column of a plane: full
/// [`EWMM_ROWS`]-row tiles, then the 1–3 row tail.
///
/// # Safety
/// As [`tile`], for `rows` rows from `at`.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn column<const V: usize, const MASKED: bool>(
    at: (*mut f32, *const f32, *const f32),
    rows: usize,
    steps: Steps,
    masks: [__m256i; V],
) {
    let (c, g, d) = at;
    let mut oi = 0;
    while oi + EWMM_ROWS <= rows {
        tile::<EWMM_ROWS, V, MASKED>((c.add(oi * steps.ldc), g.add(oi), d), steps, masks);
        oi += EWMM_ROWS;
    }
    let tail = (c.add(oi * steps.ldc), g.add(oi), d);
    match rows - oi {
        3 => tile::<3, V, MASKED>(tail, steps, masks),
        2 => tile::<2, V, MASKED>(tail, steps, masks),
        1 => tile::<1, V, MASKED>(tail, steps, masks),
        _ => {}
    }
}

/// One `R × 8·V` tile: load the accumulator rows once, fold every step's
/// `ĝ` broadcast × `d̂` vector in with one fused multiply-add in step
/// order, store once.
/// With `MASKED`, lanes outside `masks` are neither read nor written;
/// without it every lane is live and plain loads/stores run.
///
/// # Safety
/// `avx2` verified at runtime; `at = (c, g, d)` points at the tile's
/// accumulator origin (rows `steps.ldc` apart), its first `ĝ` row entry
/// and its first `d̂` lane, and every live element of `R` accumulator
/// rows, `R` `ĝ` entries and `8·V` `d̂` lanes is in bounds for all
/// `steps.k` steps.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn tile<const R: usize, const V: usize, const MASKED: bool>(
    at: (*mut f32, *const f32, *const f32),
    steps: Steps,
    masks: [__m256i; V],
) {
    let (c, g, d) = at;
    let ldc = steps.ldc;
    let mut t = [[_mm256_setzero_ps(); V]; R];
    for (r, row) in t.iter_mut().enumerate() {
        for (v, lane) in row.iter_mut().enumerate() {
            let p = c.add(r * ldc + v * LANES);
            *lane = if MASKED {
                _mm256_maskload_ps(p, masks[v])
            } else {
                _mm256_loadu_ps(p)
            };
        }
    }
    for s in 0..steps.k {
        let (gs, ds) = (g.add(s * steps.g), d.add(s * steps.d));
        let mut dv = [_mm256_setzero_ps(); V];
        for (v, lane) in dv.iter_mut().enumerate() {
            let p = ds.add(v * LANES);
            *lane = if MASKED {
                _mm256_maskload_ps(p, masks[v])
            } else {
                _mm256_loadu_ps(p)
            };
        }
        for (r, row) in t.iter_mut().enumerate() {
            let gv = _mm256_set1_ps(*gs.add(r));
            for (lane, &dl) in row.iter_mut().zip(&dv) {
                // winrs-audit: allow(bit-identity) — every width fuses this kernel
                *lane = _mm256_fmadd_ps(gv, dl, *lane);
            }
        }
    }
    for (r, row) in t.iter().enumerate() {
        for (v, &lane) in row.iter().enumerate() {
            let p = c.add(r * ldc + v * LANES);
            if MASKED {
                _mm256_maskstore_ps(p, masks[v], lane);
            } else {
                _mm256_storeu_ps(p, lane);
            }
        }
    }
}

/// `MR × NR` GEMM register tile: each accumulator row is one 256-bit
/// register; per rank-1 step a B row is loaded once and combined with
/// four A broadcasts via separate mul + add (bit-identical to the scalar
/// body's `row[jj] += av * bp[jj]`).
///
/// # Safety
/// Caller must have verified `avx2` and `fma` at runtime, and slice
/// bounds as asserted by the safe wrapper (`a` ≥ `(MR-1)·lda + kc`,
/// `b` ≥ `kc·ldb` with `ldb ≥ NR`, `c` ≥ `(MR-1)·ldc + NR`).
#[target_feature(enable = "avx2", enable = "fma")]
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
    let mut acc0 = _mm256_setzero_ps();
    let mut acc1 = _mm256_setzero_ps();
    let mut acc2 = _mm256_setzero_ps();
    let mut acc3 = _mm256_setzero_ps();
    for p in 0..kc {
        let bv = _mm256_loadu_ps(bp.add(p * ldb));
        acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(_mm256_set1_ps(*ap.add(p)), bv));
        acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(_mm256_set1_ps(*ap.add(lda + p)), bv));
        acc2 = _mm256_add_ps(acc2, _mm256_mul_ps(_mm256_set1_ps(*ap.add(2 * lda + p)), bv));
        acc3 = _mm256_add_ps(acc3, _mm256_mul_ps(_mm256_set1_ps(*ap.add(3 * lda + p)), bv));
    }
    let av = _mm256_set1_ps(alpha);
    for (ii, acc) in [acc0, acc1, acc2, acc3].into_iter().enumerate() {
        let crow = cp.add(ii * ldc);
        let sum = _mm256_add_ps(_mm256_loadu_ps(crow), _mm256_mul_ps(av, acc));
        _mm256_storeu_ps(crow, sum);
    }
}

/// NR-tail GEMM tile: B rows are zero-padded into a full 8-lane vector
/// (identical to the scalar body's padded `bp` buffer) and the epilogue
/// writes back only the live `nr` columns from a spilled accumulator, one
/// scalar mul+add per element — the same per-element sequence as scalar.
///
/// # Safety
/// Caller must have verified `avx2` and `fma` at runtime, and slice
/// bounds as asserted by the safe wrapper (`b` rows hold `nr` live
/// elements, `c` rows hold `nr`).
#[target_feature(enable = "avx2", enable = "fma")]
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
    let mut acc0 = _mm256_setzero_ps();
    let mut acc1 = _mm256_setzero_ps();
    let mut acc2 = _mm256_setzero_ps();
    let mut acc3 = _mm256_setzero_ps();
    for p in 0..kc {
        let mut pad = [0.0f32; NR];
        pad[..nr].copy_from_slice(b.get_unchecked(p * ldb..p * ldb + nr));
        let bv = _mm256_loadu_ps(pad.as_ptr());
        acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(_mm256_set1_ps(*ap.add(p)), bv));
        acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(_mm256_set1_ps(*ap.add(lda + p)), bv));
        acc2 = _mm256_add_ps(acc2, _mm256_mul_ps(_mm256_set1_ps(*ap.add(2 * lda + p)), bv));
        acc3 = _mm256_add_ps(acc3, _mm256_mul_ps(_mm256_set1_ps(*ap.add(3 * lda + p)), bv));
    }
    let mut spill = [[0.0f32; NR]; MR];
    _mm256_storeu_ps(spill[0].as_mut_ptr(), acc0);
    _mm256_storeu_ps(spill[1].as_mut_ptr(), acc1);
    _mm256_storeu_ps(spill[2].as_mut_ptr(), acc2);
    _mm256_storeu_ps(spill[3].as_mut_ptr(), acc3);
    for (ii, row) in spill.iter().enumerate() {
        let crow = c.get_unchecked_mut(ii * ldc..ii * ldc + nr);
        for jj in 0..nr {
            crow[jj] += alpha * row[jj];
        }
    }
}
