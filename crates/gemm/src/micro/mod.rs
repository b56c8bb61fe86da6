//! Register-blocked f32 micro-kernels shared by the GEMM panels and the
//! fused Winograd engine (`winrs-core::engine`).
//!
//! Every kernel exists as a **width-dispatched family** whose members are
//! all **bit-identical**:
//!
//! * a scalar body written as fixed-width unrolled loops, which LLVM
//!   auto-vectorises to SSE/AVX on any target;
//! * an explicit 8-lane AVX2 body ([`SimdWidth::Avx2`]);
//! * an explicit 16-lane AVX-512 body ([`SimdWidth::Avx512`]).
//!
//! Every x86-64 build compiles the explicit bodies; runtime feature
//! detection, probed once and cached, selects among them (see
//! [`active_width`]). Every other target, aarch64 included, runs the
//! scalar bodies.
//!
//! Bit-identity is a hard contract, not an accident: each kernel has one
//! arithmetic form, and every member computes it. The EWMM
//! ([`rank_k_batch`]) takes each step as one fused multiply-add —
//! `_mm512_fmadd_ps`, `_mm256_fmadd_ps` and `f32::mul_add` — and every
//! other kernel as a separate IEEE-754 multiply and add. A fused
//! multiply-add is correctly rounded wherever it runs, so either form
//! gives the same bits in a 1-, 8- or 16-lane register; what would make
//! the dispatch width change `∇W` bits is one member fusing a kernel that
//! another member rounds twice. Each kernel's per-element operation
//! sequence is independent of the vector width — element `i` of an AXPY
//! always computes `dst[i] + a·x[i]` with one multiply and one add, and
//! an EWMM element `fma(ĝ[s], d̂[s], v)` for each step `s` in order,
//! whichever register it rides in — so scalar, 8- and 16-lane bodies
//! produce identical bits and the engine's equivalence tests assert exact
//! equality across every compiled-in width.
//!
//! [`force_width`] pins the dispatch to one member (the test hook behind
//! the cross-width equivalence suites) and rejects unavailable members
//! with a typed [`UnsupportedWidth`]. The `WINRS_FORCE_WIDTH` environment
//! override ([`FORCE_WIDTH_ENV`]) is applied by the engine / CLI layer,
//! which owns the typed rejection of unavailable widths at execute time.
#![doc = "audit: no-alloc"]

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;
use winrs_fp16::f16;

#[cfg(target_arch = "x86_64")]
mod avx2;
#[cfg(target_arch = "x86_64")]
mod avx512;

/// Vector width of the scalar bodies' unrolled loops: 8 f32 lanes = one
/// 256-bit register. (The AVX-512 bodies run 16 lanes; see
/// [`SimdWidth::lanes`].)
pub const LANES: usize = 8;

/// Register micro-tile rows of the GEMM kernel.
pub const MR: usize = 4;
/// Register micro-tile columns of the GEMM kernel.
pub const NR: usize = 8;

/// Environment variable the engine/CLI layer reads to pin the dispatch
/// width (`scalar`, `avx2` or `avx512`). Parsing and the typed
/// rejection of unavailable widths live in `winrs-core::engine`; this
/// module only exposes the knob ([`force_width`]).
pub const FORCE_WIDTH_ENV: &str = "WINRS_FORCE_WIDTH";

/// One member of the kernel family: the vector width the dispatcher
/// selects bodies for. All members are bit-identical (module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum SimdWidth {
    /// Auto-vectorised scalar bodies — always available.
    Scalar = 0,
    /// Explicit 8-lane AVX2 bodies (x86-64, `avx2` + `fma` + `f16c`
    /// detected; F16C's `vcvtps2ph`/`vcvtph2ps` pair re-rounds FP16 tiles).
    Avx2 = 1,
    /// Explicit 16-lane AVX-512 bodies (x86-64, `avx512f` on top of the
    /// AVX2 pair — the 4×8 GEMM tile and row epilogues reuse 256-bit ops).
    Avx512 = 2,
}

impl SimdWidth {
    /// Every member. Iterated by tests and the CLI's width report.
    pub const ALL: [SimdWidth; 3] = [SimdWidth::Scalar, SimdWidth::Avx2, SimdWidth::Avx512];

    /// f32 lanes per vector register of this member's explicit bodies
    /// (1 for the scalar bodies).
    pub fn lanes(self) -> usize {
        match self {
            SimdWidth::Scalar => 1,
            SimdWidth::Avx2 => 8,
            SimdWidth::Avx512 => 16,
        }
    }

    /// Canonical lower-case name — the spelling [`SimdWidth::parse`]
    /// accepts and `WINRS_FORCE_WIDTH` uses.
    pub fn name(self) -> &'static str {
        match self {
            SimdWidth::Scalar => "scalar",
            SimdWidth::Avx2 => "avx2",
            SimdWidth::Avx512 => "avx512",
        }
    }

    /// Parse a canonical width name (case-sensitive, as documented for
    /// `WINRS_FORCE_WIDTH`).
    pub fn parse(s: &str) -> Option<SimdWidth> {
        match s {
            "scalar" => Some(SimdWidth::Scalar),
            "avx2" => Some(SimdWidth::Avx2),
            "avx512" => Some(SimdWidth::Avx512),
            _ => None,
        }
    }

    /// True when this member's bodies are compiled in *and* the running
    /// CPU reports the features they need. `Scalar` is always available.
    pub fn is_available(self) -> bool {
        match self {
            SimdWidth::Scalar => true,
            SimdWidth::Avx2 => avx2_ready(),
            SimdWidth::Avx512 => avx512_ready(),
        }
    }
}

impl std::fmt::Display for SimdWidth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A width that cannot be pinned on this host: either its bodies are not
/// compiled in (a non-x86-64 target) or the CPU lacks the features they
/// need.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UnsupportedWidth {
    /// The width the caller asked to pin.
    pub requested: SimdWidth,
    /// The best width this build + CPU actually supports.
    pub detected: SimdWidth,
}

impl std::fmt::Display for UnsupportedWidth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SIMD width `{}` is unavailable on this host (best compiled+detected width: `{}`)",
            self.requested.name(),
            self.detected.name()
        )
    }
}

impl std::error::Error for UnsupportedWidth {}

/// Pinned dispatch width: 0 = auto (use [`detected_width`]), otherwise
/// the [`SimdWidth`] discriminant + 1. Global; tests that pin must
/// serialise among themselves.
static FORCED: AtomicU8 = AtomicU8::new(0);

/// Pin dispatch to one family member (`Some`) or restore auto detection
/// (`None`). Fails with a typed [`UnsupportedWidth`] — never a silent
/// fallback — when the requested member is not available on this host;
/// a failed pin leaves the previous dispatch state untouched.
pub fn force_width(width: Option<SimdWidth>) -> Result<(), UnsupportedWidth> {
    match width {
        None => {
            // ORDERING: idempotent dispatch pin with no associated data —
            // there is nothing to publish, so Relaxed is sufficient.
            FORCED.store(0, Ordering::Relaxed);
            Ok(())
        }
        Some(w) if w.is_available() => {
            // ORDERING: as above — the pin carries no data to publish.
            FORCED.store(w as u8 + 1, Ordering::Relaxed);
            Ok(())
        }
        Some(w) => Err(UnsupportedWidth {
            requested: w,
            detected: detected_width(),
        }),
    }
}

/// The currently pinned width, if any.
pub fn forced_width() -> Option<SimdWidth> {
    // ORDERING: dispatch pin only — a stale read selects another
    // (bit-identical) family member, so Relaxed is safe.
    match FORCED.load(Ordering::Relaxed) {
        1 => Some(SimdWidth::Scalar),
        2 => Some(SimdWidth::Avx2),
        3 => Some(SimdWidth::Avx512),
        _ => None,
    }
}

/// The width kernels dispatch on right now: the pinned width if any,
/// otherwise the best detected one.
#[inline]
pub fn active_width() -> SimdWidth {
    forced_width().unwrap_or_else(detected_width)
}

/// Best width this build + CPU supports, probed once and cached. The
/// preference is widest-first: AVX-512 over AVX2 over scalar.
pub fn detected_width() -> SimdWidth {
    static DETECTED: OnceLock<SimdWidth> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        if avx512_ready() {
            SimdWidth::Avx512
        } else if avx2_ready() {
            SimdWidth::Avx2
        } else {
            SimdWidth::Scalar
        }
    })
}

/// The AVX2 bodies need `avx2` + `fma` for the arithmetic and `f16c` for
/// the binary16 round trip ([`round_f16`]). Every AVX2 CPU has F16C.
#[cfg(target_arch = "x86_64")]
fn avx2_ready() -> bool {
    static READY: OnceLock<bool> = OnceLock::new();
    *READY.get_or_init(|| {
        std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("fma")
            && std::arch::is_x86_feature_detected!("f16c")
    })
}

/// The AVX-512 bodies need `avx512f` for the 16-lane ops *and* the AVX2
/// set: the 4×8 GEMM tile is one 256-bit row (no 512-bit shape exists
/// for it), so its body and the row epilogues run AVX2 instructions.
#[cfg(target_arch = "x86_64")]
fn avx512_ready() -> bool {
    static READY: OnceLock<bool> = OnceLock::new();
    *READY.get_or_init(|| std::arch::is_x86_feature_detected!("avx512f") && avx2_ready())
}

/// The portable EWMM body runs compiled with `fma` when the CPU has it
/// ([`rank_k_portable_fma`]); without it `f32::mul_add` is a libm call
/// per element.
#[cfg(target_arch = "x86_64")]
fn fma_ready() -> bool {
    static READY: OnceLock<bool> = OnceLock::new();
    *READY.get_or_init(|| std::arch::is_x86_feature_detected!("fma"))
}

#[cfg(not(target_arch = "x86_64"))]
#[inline(always)]
fn avx2_ready() -> bool {
    false
}

#[cfg(not(target_arch = "x86_64"))]
#[inline(always)]
fn avx512_ready() -> bool {
    false
}

/// Batched transform AXPY: `dst` is `k` consecutive chunks of width
/// `src.len()`, and chunk `j` accumulates `coeffs[j·cstride] · src`. One
/// call covers a whole transform column — the β loop lives inside the
/// kernel, so the engine pays the dispatch check (atomic load + feature
/// probe) once per ∇Y column instead of once per 4–8 element AXPY.
#[inline]
pub fn expand_axpy(dst: &mut [f32], coeffs: &[f32], cstride: usize, src: &[f32]) {
    let w = src.len();
    debug_assert!(w > 0 && dst.len().is_multiple_of(w), "expand_axpy: ragged dst");
    let k = dst.len() / w;
    debug_assert!(coeffs.len() > (k - 1) * cstride, "expand_axpy: coeffs short");
    #[cfg(target_arch = "x86_64")]
    match active_width() {
        // SAFETY: avx512f+avx2+fma verified at runtime (`avx512_ready`).
        SimdWidth::Avx512 => return unsafe { avx512::expand_axpy(dst, coeffs, cstride, src) },
        // SAFETY: avx2+fma verified at runtime (`avx2_ready`).
        SimdWidth::Avx2 => return unsafe { avx2::expand_axpy(dst, coeffs, cstride, src) },
        _ => {}
    }
    // Channel blocks are small (4–32); a compile-time width turns each
    // chunk update into exact fixed-width vector code with no per-chunk
    // iterator or bounds-check overhead.
    match w {
        2 => expand_axpy_w::<2>(dst, coeffs, cstride, src),
        4 => expand_axpy_w::<4>(dst, coeffs, cstride, src),
        8 => expand_axpy_w::<8>(dst, coeffs, cstride, src),
        16 => expand_axpy_w::<16>(dst, coeffs, cstride, src),
        _ => {
            for (j, chunk) in dst.chunks_exact_mut(w).enumerate() {
                axpy_scalar(chunk, coeffs[j * cstride], src);
            }
        }
    }
}

/// Const-width body of [`expand_axpy`]'s scalar path.
#[inline]
fn expand_axpy_w<const W: usize>(dst: &mut [f32], coeffs: &[f32], cstride: usize, src: &[f32]) {
    let Ok(s) = <&[f32; W]>::try_from(src) else {
        return; // unreachable: the caller matched on src.len()
    };
    for (chunk, c) in dst
        .chunks_exact_mut(W)
        .zip(coeffs.iter().step_by(cstride.max(1)))
    {
        for l in 0..W {
            chunk[l] += *c * s[l];
        }
    }
}

/// Batched reduction AXPY (the output-transform dual of [`expand_axpy`]):
/// `dst += Σ_j coeffs[j] · src[j·sstride .. j·sstride + dst.len()]`. One
/// call folds all α accumulator planes into the row buffer.
// BOUNDS(dst): len
#[inline]
pub fn gather_axpy(dst: &mut [f32], coeffs: &[f32], src: &[f32], sstride: usize) {
    let w = dst.len();
    debug_assert!(
        coeffs.is_empty() || src.len() >= (coeffs.len() - 1) * sstride + w,
        "gather_axpy: src short"
    );
    #[cfg(target_arch = "x86_64")]
    match active_width() {
        // SAFETY: avx512f+avx2+fma verified at runtime (`avx512_ready`).
        SimdWidth::Avx512 => return unsafe { avx512::gather_axpy(dst, coeffs, src, sstride) },
        // SAFETY: avx2+fma verified at runtime (`avx2_ready`).
        SimdWidth::Avx2 => return unsafe { avx2::gather_axpy(dst, coeffs, src, sstride) },
        _ => {}
    }
    match w {
        2 => gather_axpy_w::<2>(dst, coeffs, src, sstride),
        4 => gather_axpy_w::<4>(dst, coeffs, src, sstride),
        8 => gather_axpy_w::<8>(dst, coeffs, src, sstride),
        16 => gather_axpy_w::<16>(dst, coeffs, src, sstride),
        _ => {
            for (j, &c) in coeffs.iter().enumerate() {
                axpy_scalar(dst, c, &src[j * sstride..j * sstride + w]);
            }
        }
    }
}

/// Const-width body of [`gather_axpy`]'s scalar path.
#[inline]
fn gather_axpy_w<const W: usize>(dst: &mut [f32], coeffs: &[f32], src: &[f32], sstride: usize) {
    let Ok(d) = <&mut [f32; W]>::try_from(dst) else {
        return; // unreachable: the caller matched on dst.len()
    };
    for (j, &c) in coeffs.iter().enumerate() {
        let plane = &src[j * sstride..j * sstride + W];
        for l in 0..W {
            d[l] += c * plane[l];
        }
    }
}

/// Multi-row reduction AXPY (the engine's output transform `Aᵀ`): for
/// each of the `n = coeffs.len() / alpha` rows `d`,
/// `dst[d·dstride + j] += Σ_β coeffs[d·α + β] · src[β·sstride + j]` for
/// `j < w`. Each row's sum starts at `+0.0` and adds the β terms in order
/// with mul + add, so every element computes exactly what [`gather_axpy`]
/// into a zeroed row followed by an element-wise add onto `dst` computes
/// — the bodies just keep the sum in a register instead of storing it α
/// times, and load each lane chunk of the α source planes once for all
/// `n` rows.
/// The explicit bodies cover the engine's α ∈ {2, 4, 8, 16}; any other α
/// runs the portable loop at every width.
///
/// With `store` each row sum `y` is stored instead (`dst = y`), and `dst`
/// is never read: a row's first writer needs no zeroed row. That is
/// `+0.0 + y` bit for bit, what adding onto a zeroed row gives: a sum
/// that starts at `+0.0` is never `−0.0` (round-to-nearest gives `+0.0`
/// for `x + (−x)` and for `+0.0 + (−0.0)`), `+0.0 + y` is `y` for every
/// other finite or infinite `y`, and a NaN keeps its payload.
///
/// With `count` it returns how many of the `n·w` row sums were not
/// finite (±∞ or NaN), taken on each sum before it is added onto `dst` —
/// the engine's numeric-health count, so the output transform never
/// rescans its rows. The explicit bodies count with a vector compare and
/// a mask popcount, and the count is the same at every width. Without
/// `count` it returns 0 and runs bodies compiled without the compare,
/// which made the AVX-512 body 25–35 % slower at α = 8 on cache-resident
/// rows.
// BOUNDS(dst): len
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn gather_axpy_rows(
    dst: &mut [f32],
    dstride: usize,
    coeffs: &[f32],
    alpha: usize,
    src: &[f32],
    sstride: usize,
    w: usize,
    count: bool,
    store: bool,
) -> u64 {
    if alpha == 0 || w == 0 || coeffs.len() < alpha {
        return 0;
    }
    let n = coeffs.len() / alpha;
    assert!(
        dst.len() >= (n - 1) * dstride + w && src.len() >= (alpha - 1) * sstride + w,
        "gather_axpy_rows: dst or src too short"
    );
    // One monomorph of `$body` per (COUNT, STORE) pair, so neither flag is
    // tested inside the lane loop.
    macro_rules! by_flags {
        ($($body:ident)::+) => {
            match (count, store) {
                (false, false) => {
                    $($body)::+::<false, false>(dst, dstride, coeffs, alpha, src, sstride, w)
                }
                (false, true) => {
                    $($body)::+::<false, true>(dst, dstride, coeffs, alpha, src, sstride, w)
                }
                (true, false) => {
                    $($body)::+::<true, false>(dst, dstride, coeffs, alpha, src, sstride, w)
                }
                (true, true) => {
                    $($body)::+::<true, true>(dst, dstride, coeffs, alpha, src, sstride, w)
                }
            }
        };
    }
    #[cfg(target_arch = "x86_64")]
    match active_width() {
        SimdWidth::Avx512 if matches!(alpha, 2 | 4 | 8 | 16) => {
            // SAFETY: avx512f+avx2+fma verified at runtime
            // (`avx512_ready`); the extents the body touches are asserted
            // above.
            return unsafe { by_flags!(avx512::gather_axpy_rows) };
        }
        SimdWidth::Avx2 if matches!(alpha, 2 | 4 | 8 | 16) => {
            // SAFETY: avx2+fma verified at runtime (`avx2_ready`); extents
            // asserted above.
            return unsafe { by_flags!(avx2::gather_axpy_rows) };
        }
        _ => {}
    }
    by_flags!(gather_rows_any_alpha)
}

/// The portable member of [`gather_axpy_rows`]: a compile-time-α body for
/// the engine's four α, the element loop for any other.
#[inline]
fn gather_rows_any_alpha<const COUNT: bool, const STORE: bool>(
    dst: &mut [f32],
    dstride: usize,
    coeffs: &[f32],
    alpha: usize,
    src: &[f32],
    sstride: usize,
    w: usize,
) -> u64 {
    match alpha {
        2 => gather_rows_portable::<2, COUNT, STORE>(dst, dstride, coeffs, src, sstride, w),
        4 => gather_rows_portable::<4, COUNT, STORE>(dst, dstride, coeffs, src, sstride, w),
        8 => gather_rows_portable::<8, COUNT, STORE>(dst, dstride, coeffs, src, sstride, w),
        16 => gather_rows_portable::<16, COUNT, STORE>(dst, dstride, coeffs, src, sstride, w),
        _ => gather_rows_scalar::<COUNT, STORE>(dst, dstride, coeffs, alpha, src, sstride, 0..w),
    }
}

/// Portable body of [`gather_axpy_rows`] at a compile-time α — the scalar
/// member. Each `LANES`-wide chunk of the α planes is copied into a fixed
/// array once and folded into every row; the lane tail runs element by
/// element in the same β order.
#[inline]
fn gather_rows_portable<const A: usize, const COUNT: bool, const STORE: bool>(
    dst: &mut [f32],
    dstride: usize,
    coeffs: &[f32],
    src: &[f32],
    sstride: usize,
    w: usize,
) -> u64 {
    let w_full = w - w % LANES;
    let mut non_finite = 0u64;
    for j in (0..w_full).step_by(LANES) {
        let mut planes = [[0.0f32; LANES]; A];
        for (b, p) in planes.iter_mut().enumerate() {
            p.copy_from_slice(&src[b * sstride + j..b * sstride + j + LANES]);
        }
        for (d, c) in coeffs.chunks_exact(A).enumerate() {
            let mut y = [0.0f32; LANES];
            for (p, &cb) in planes.iter().zip(c) {
                for l in 0..LANES {
                    y[l] += cb * p[l];
                }
            }
            let out = &mut dst[d * dstride + j..d * dstride + j + LANES];
            for (o, v) in out.iter_mut().zip(y) {
                if COUNT {
                    non_finite += u64::from(!v.is_finite());
                }
                put::<STORE>(o, v);
            }
        }
    }
    non_finite
        + gather_rows_scalar::<COUNT, STORE>(dst, dstride, coeffs, A, src, sstride, w_full..w)
}

/// `*o = y` with `STORE`, else `*o += y`: how the portable bodies write
/// one row sum.
#[inline(always)]
fn put<const STORE: bool>(o: &mut f32, y: f32) {
    if STORE {
        *o = y;
    } else {
        *o += y;
    }
}

/// [`gather_axpy_rows`] element by element over `lanes`: the portable
/// body's lane tail, and every lane for an α off the engine's set.
#[inline]
fn gather_rows_scalar<const COUNT: bool, const STORE: bool>(
    dst: &mut [f32],
    dstride: usize,
    coeffs: &[f32],
    alpha: usize,
    src: &[f32],
    sstride: usize,
    lanes: std::ops::Range<usize>,
) -> u64 {
    let mut non_finite = 0u64;
    for j in lanes {
        for (d, c) in coeffs.chunks_exact(alpha).enumerate() {
            let mut y = 0.0f32;
            for (b, &cb) in c.iter().enumerate() {
                y += cb * src[b * sstride + j];
            }
            if COUNT {
                non_finite += u64::from(!y.is_finite());
            }
            put::<STORE>(&mut dst[d * dstride + j], y);
        }
    }
    non_finite
}

/// Staged α-batched EWMM: `k` successive outer-product steps folded into
/// one pass over the accumulator. `acc` holds α row-major `bn × bm`
/// planes; `g` is `k × α × bn` and `d` is `k × α × bm` (step-major, the
/// layout the engine's tile loaders write), and for every β and step `s`
/// in order, `acc[β] += ĝ[s][β] ⊗ d̂[s][β]`.
///
/// Each step is one fused multiply-add per element,
/// `v ← fma(ĝ[s][β][o], d̂[s][β][c], v)`, at every width: `_mm512_fmadd_ps`,
/// `_mm256_fmadd_ps` and `f32::mul_add` round once, correctly, so every
/// width gives the same bits. Every body walks each plane in register
/// tiles (8 rows × 32 lanes on AVX-512, 4 × 16 on AVX2, 4 × [`LANES`] in
/// the portable body): a tile is loaded once, takes all `k` steps in step
/// order, and is stored once. Each element therefore sees exactly the
/// operation sequence of `k` separate `k = 1` calls — same bits, at `1/k`
/// of the accumulator traffic.
// BOUNDS(acc): len
// BOUNDS(g): len
// BOUNDS(d): len
#[inline]
pub fn rank_k_batch(acc: &mut [f32], g: &[f32], d: &[f32], alpha: usize, k: usize) {
    let steps = alpha * k;
    if steps == 0 {
        return;
    }
    debug_assert!(g.len().is_multiple_of(steps) && d.len().is_multiple_of(steps));
    let bn = g.len() / steps;
    let bm = d.len() / steps;
    assert!(acc.len() >= alpha * bn * bm, "rank_k_batch: acc too short");
    #[cfg(target_arch = "x86_64")]
    match active_width() {
        // SAFETY: avx512f+avx2+fma verified at runtime (`avx512_ready`);
        // the slice lengths the body reads and writes are checked above.
        SimdWidth::Avx512 => return unsafe { avx512::rank_k_batch(acc, g, d, alpha, k, bn, bm) },
        // SAFETY: avx2+fma verified at runtime (`avx2_ready`); slice
        // lengths checked above.
        SimdWidth::Avx2 => return unsafe { avx2::rank_k_batch(acc, g, d, alpha, k, bn, bm) },
        // SAFETY: fma verified at runtime (`fma_ready`); the body is safe,
        // bounds-checked code.
        _ if fma_ready() => return unsafe { rank_k_portable_fma(acc, g, d, alpha, k, bn, bm) },
        _ => {}
    }
    rank_k_portable(acc, g, d, alpha, k, bn, bm);
}

/// One-step [`rank_k_batch`]: for every β, `acc[β] += ĝ[β] ⊗ d̂[β]`, with
/// `g` α rows of `bn` and `d` α rows of `bm`.
#[inline]
pub fn rank1_batch(acc: &mut [f32], g: &[f32], d: &[f32], alpha: usize) {
    rank_k_batch(acc, g, d, alpha, 1);
}

/// [`rank_k_portable`] compiled with `fma` enabled, which the scalar
/// member runs on an x86-64 CPU with FMA.
///
/// # Safety
/// Caller must have verified `fma` at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "fma")]
unsafe fn rank_k_portable_fma(
    acc: &mut [f32],
    g: &[f32],
    d: &[f32],
    alpha: usize,
    k: usize,
    bn: usize,
    bm: usize,
) {
    rank_k_portable(acc, g, d, alpha, k, bn, bm);
}

/// Portable body of [`rank_k_batch`] — the scalar member. Full
/// `MR × LANES` tiles run as fixed arrays LLVM keeps in vector registers;
/// the row tail (`bn % MR`) and lane tail (`bm % LANES`) run element by
/// element, each element still loaded and stored once. Always inlined,
/// so it compiles with its caller's target features: through
/// [`rank_k_portable_fma`] `f32::mul_add` is one `vfmadd` and LLVM
/// vectorises the tiles; compiled for the x86-64 baseline (a CPU without
/// FMA) each `mul_add` is the correctly rounded libm `fmaf`, slower but
/// the same bits. aarch64 lowers `mul_add` to `fmadd`.
#[inline(always)]
fn rank_k_portable(
    acc: &mut [f32],
    g: &[f32],
    d: &[f32],
    alpha: usize,
    k: usize,
    bn: usize,
    bm: usize,
) {
    let (gstep, dstep) = (alpha * bn, alpha * bm);
    let (bn_full, bm_full) = (bn - bn % MR, bm - bm % LANES);
    for beta in 0..alpha {
        let plane = &mut acc[beta * bn * bm..(beta + 1) * bn * bm];
        let (g0, d0) = (beta * bn, beta * bm);
        for oi in (0..bn_full).step_by(MR) {
            for j in (0..bm_full).step_by(LANES) {
                let mut tile = [[0.0f32; LANES]; MR];
                for (r, row) in tile.iter_mut().enumerate() {
                    let at = (oi + r) * bm + j;
                    row.copy_from_slice(&plane[at..at + LANES]);
                }
                for s in 0..k {
                    let gs = &g[s * gstep + g0 + oi..s * gstep + g0 + oi + MR];
                    let ds = &d[s * dstep + d0 + j..s * dstep + d0 + j + LANES];
                    let Ok(dv) = <&[f32; LANES]>::try_from(ds) else {
                        return; // unreachable: the slice is LANES long
                    };
                    for (row, &gv) in tile.iter_mut().zip(gs) {
                        for l in 0..LANES {
                            // winrs-audit: allow(bit-identity) — every width fuses this kernel
                            row[l] = gv.mul_add(dv[l], row[l]);
                        }
                    }
                }
                for (r, row) in tile.iter().enumerate() {
                    let at = (oi + r) * bm + j;
                    plane[at..at + LANES].copy_from_slice(row);
                }
            }
        }
        for oi in 0..bn {
            let j0 = if oi < bn_full { bm_full } else { 0 };
            for j in j0..bm {
                let mut v = plane[oi * bm + j];
                for s in 0..k {
                    // winrs-audit: allow(bit-identity) — every width fuses this kernel
                    v = g[s * gstep + g0 + oi].mul_add(d[s * dstep + d0 + j], v);
                }
                plane[oi * bm + j] = v;
            }
        }
    }
}

/// Re-round every element of `buf` through IEEE-754 binary16 in place —
/// `v ← f16::from_f32(v).to_f32()`, round to nearest even, gradual
/// underflow, overflow to ±∞, NaNs quieted — and return the saturations:
/// the elements that were finite before and are not after. This is the
/// FP16 engine's per-tile re-rounding (the paper's `cvt.rn.f16.f32`
/// before the Tensor-Core `mma`).
///
/// The portable body is that scalar loop (the scalar member runs it). The
/// AVX2 body runs F16C's `vcvtps2ph`/`vcvtph2ps` pair and the
/// AVX-512 body their 16-lane forms, both with round to nearest even in
/// the instruction's immediate, never MXCSR's mode. `vcvtps2ph` equals
/// `f16::from_f32` on every f32, and `vcvtph2ps` equals `f16::to_f32` on
/// every half `from_f32` can produce: the two differ only on signalling
/// NaN halves (the hardware sets the quiet bit), and `from_f32` always
/// emits a quiet NaN. So every member gives the same bits and the same
/// count on all 2³² inputs (`tests/f16_rounding.rs`); the instruction
/// pair must not be used to widen *stored* halves.
// BOUNDS(buf): len
#[inline]
pub fn round_f16(buf: &mut [f32]) -> u64 {
    #[cfg(target_arch = "x86_64")]
    match active_width() {
        // SAFETY: avx512f+avx2+fma+f16c verified at runtime
        // (`avx512_ready`); the body reads and writes only `buf`'s
        // elements, its lane tail under a mask.
        SimdWidth::Avx512 => return unsafe { avx512::round_f16(buf) },
        // SAFETY: avx2+fma+f16c verified at runtime (`avx2_ready`); the
        // body touches only `buf`'s elements, its tail masked.
        SimdWidth::Avx2 => return unsafe { avx2::round_f16(buf) },
        _ => {}
    }
    round_f16_portable(buf)
}

/// Portable body of [`round_f16`]: the scalar reference loop.
#[inline]
fn round_f16_portable(buf: &mut [f32]) -> u64 {
    let mut saturated = 0u64;
    for v in buf.iter_mut() {
        let r = f16::from_f32(*v).to_f32();
        saturated += u64::from(v.is_finite() && !r.is_finite());
        *v = r;
    }
    saturated
}

// The scalar bodies carry `#[inline]` too: the public wrappers are
// cross-crate inlined into the engine's hot loop, and without MIR for the
// bodies every 4–8 element AXPY would stay an outlined call.
//
// They are written as plain element zips, not manual LANES-chunked loops:
// every element update is independent, so LLVM's auto-vectoriser produces
// the same bit-exact results with its own (cheaper) tail handling — and
// the engine's dominant widths are *small* (a channel block, often 4–16),
// where iterator chunking machinery would cost more than the payload.
#[inline]
fn axpy_scalar(dst: &mut [f32], a: f32, x: &[f32]) {
    for (d, s) in dst.iter_mut().zip(x) {
        *d += a * *s;
    }
}

/// `MR × NR` register-tile GEMM micro-kernel:
/// `C[0..MR][0..NR] += alpha · A[0..MR][0..kc] · B[0..kc][0..NR]`.
/// The fixed-width inner updates auto-vectorise on the scalar path; the
/// explicit bodies keep each accumulator row in one (or two) registers.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn micro_kernel_4x8(
    kc: usize,
    alpha: f32,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    c: &mut [f32],
    ldc: usize,
) {
    #[cfg(target_arch = "x86_64")]
    match active_width() {
        SimdWidth::Avx512 => {
            // SAFETY: avx512f+avx2+fma verified at runtime (`avx512_ready`).
            return unsafe { avx512::micro_kernel_4x8(kc, alpha, a, lda, b, ldb, c, ldc) };
        }
        SimdWidth::Avx2 => {
            // SAFETY: avx2+fma verified at runtime (`avx2_ready`).
            return unsafe { avx2::micro_kernel_4x8(kc, alpha, a, lda, b, ldb, c, ldc) };
        }
        _ => {}
    }
    let mut acc = [[0.0f32; NR]; MR];
    for p in 0..kc {
        let bp = &b[p * ldb..p * ldb + NR];
        for (ii, row) in acc.iter_mut().enumerate() {
            let av = a[ii * lda + p];
            for jj in 0..NR {
                row[jj] += av * bp[jj];
            }
        }
    }
    for (ii, row) in acc.iter().enumerate() {
        let crow = &mut c[ii * ldc..ii * ldc + NR];
        for jj in 0..NR {
            crow[jj] += alpha * row[jj];
        }
    }
}

/// NR-tail specialisation of [`micro_kernel_4x8`]: full `MR` rows but only
/// `nr < NR` columns. B rows are zero-padded into a fixed `[f32; NR]` lane
/// buffer so the accumulation keeps the vector shape instead of degrading
/// to the scalar edge loop; the padding lanes are discarded on store.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn micro_kernel_4xn(
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
    debug_assert!(nr > 0 && nr < NR);
    #[cfg(target_arch = "x86_64")]
    match active_width() {
        SimdWidth::Avx512 => {
            // SAFETY: avx512f+avx2+fma verified at runtime (`avx512_ready`).
            return unsafe { avx512::micro_kernel_4xn(kc, alpha, a, lda, b, ldb, nr, c, ldc) };
        }
        SimdWidth::Avx2 => {
            // SAFETY: avx2+fma verified at runtime (`avx2_ready`).
            return unsafe { avx2::micro_kernel_4xn(kc, alpha, a, lda, b, ldb, nr, c, ldc) };
        }
        _ => {}
    }
    let mut acc = [[0.0f32; NR]; MR];
    for p in 0..kc {
        let mut bp = [0.0f32; NR];
        bp[..nr].copy_from_slice(&b[p * ldb..p * ldb + nr]);
        for (ii, row) in acc.iter_mut().enumerate() {
            let av = a[ii * lda + p];
            for jj in 0..NR {
                row[jj] += av * bp[jj];
            }
        }
    }
    for (ii, row) in acc.iter().enumerate() {
        let crow = &mut c[ii * ldc..ii * ldc + nr];
        for jj in 0..nr {
            crow[jj] += alpha * row[jj];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The dispatch pin is process-global; tests that toggle it serialise
    /// through this lock.
    static DISPATCH_LOCK: Mutex<()> = Mutex::new(());

    fn pseudo(seed: u32, len: usize) -> Vec<f32> {
        // Tiny LCG: deterministic, no rand dependency in the hot crate.
        let mut s = seed.wrapping_mul(2654435761).wrapping_add(12345);
        (0..len)
            .map(|_| {
                s = s.wrapping_mul(1664525).wrapping_add(1013904223);
                (s >> 8) as f32 / (1u32 << 24) as f32 * 2.0 - 1.0
            })
            .collect()
    }

    /// Every family member available on this build + CPU (always at least
    /// `Scalar`), for the cross-width equivalence loops.
    fn available() -> Vec<SimdWidth> {
        SimdWidth::ALL
            .iter()
            .copied()
            .filter(|w| w.is_available())
            .collect()
    }

    /// One chunk of `expand_axpy` is one call of the width's AXPY body:
    /// every lane tail around the 8- and 16-lane registers.
    #[test]
    fn one_chunk_expand_axpy_matches_plain_loop_all_lengths_every_width() {
        let _g = DISPATCH_LOCK.lock().unwrap();
        for n in [1usize, 7, 8, 9, 15, 16, 17, 31, 33, 100] {
            let x = pseudo(n as u32 + 1, n);
            let base = pseudo(n as u32 + 2, n);
            let mut want = base.clone();
            for i in 0..n {
                want[i] += 1.25 * x[i];
            }
            for w in available() {
                force_width(Some(w)).unwrap();
                let mut dst = base.clone();
                expand_axpy(&mut dst, &[1.25], 1, &x);
                assert_eq!(dst, want, "n={n} width={w}");
            }
            force_width(None).unwrap();
        }
    }

    /// The EWMM reference every width is held to: step by step, plane by
    /// plane, `acc ← fma(g, d, acc)` one element at a time (`g` is
    /// `k × α × bn`, `d` is `k × α × bm`).
    fn naive_rank_k(
        acc: &mut [f32],
        g: &[f32],
        d: &[f32],
        alpha: usize,
        k: usize,
        bn: usize,
        bm: usize,
    ) {
        for s in 0..k {
            for beta in 0..alpha {
                for oi in 0..bn {
                    for j in 0..bm {
                        let (gi, di) = ((s * alpha + beta) * bn + oi, (s * alpha + beta) * bm + j);
                        let a = &mut acc[(beta * bn + oi) * bm + j];
                        // winrs-audit: allow(bit-identity) — the EWMM's one form at every width
                        *a = g[gi].mul_add(d[di], *a);
                    }
                }
            }
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn rank_k_batch_matches_naive_steps_bitwise_every_width() {
        let _g = DISPATCH_LOCK.lock().unwrap();
        // Row tails (bn % 4 and bn % 8: the AVX-512 tile is 8 rows, the
        // others 4) and lane tails (bm around 8-, 16- and 32-lane tiles)
        // at every step count the engine's stage can flush.
        for k in [1usize, 2, 3, 8] {
            for alpha in [1usize, 4, 16] {
                for bn in [1usize, 3, 4, 6, 7, 13, 64] {
                    for bm in [1usize, 5, 8, 15, 16, 17, 32, 37] {
                        let seed = (k * 1000 + alpha * 100 + bn * 10 + bm) as u32;
                        let g = pseudo(seed, k * alpha * bn);
                        let d = pseudo(seed + 1, k * alpha * bm);
                        // A sentinel tail past the planes catches stray
                        // (e.g. mis-masked) stores.
                        let base = pseudo(seed + 2, alpha * bn * bm + 16);
                        let mut want = base.clone();
                        naive_rank_k(&mut want, &g, &d, alpha, k, bn, bm);
                        for w in available() {
                            force_width(Some(w)).unwrap();
                            let mut got = base.clone();
                            rank_k_batch(&mut got, &g, &d, alpha, k);
                            assert_eq!(
                                bits(&got),
                                bits(&want),
                                "k={k} alpha={alpha} bn={bn} bm={bm} width={w}"
                            );
                        }
                        force_width(None).unwrap();
                        // The portable loops compiled for the baseline
                        // target: the libm `fmaf` path of a CPU without
                        // FMA.
                        let mut got = base.clone();
                        rank_k_portable(&mut got, &g, &d, alpha, k, bn, bm);
                        assert_eq!(
                            bits(&got),
                            bits(&want),
                            "k={k} alpha={alpha} bn={bn} bm={bm} baseline body"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn rank1_all_widths_are_bit_identical() {
        let _g = DISPATCH_LOCK.lock().unwrap();
        for (bn, bm) in [(1usize, 1usize), (3, 5), (4, 8), (7, 13), (5, 17), (64, 32)] {
            let g = pseudo(77, bn);
            let d = pseudo(78, bm);
            let base = pseudo(79, bn * bm);
            let mut want = base.clone();
            naive_rank_k(&mut want, &g, &d, 1, 1, bn, bm);
            for w in available() {
                force_width(Some(w)).unwrap();
                let mut got = base.clone();
                rank1_batch(&mut got, &g, &d, 1);
                assert_eq!(bits(&got), bits(&want), "bn={bn} bm={bm} width={w}");
            }
            force_width(None).unwrap();
        }
    }

    #[test]
    fn batched_kernels_match_per_call_loops_bitwise_every_width() {
        let _g = DISPATCH_LOCK.lock().unwrap();
        for (alpha, bn, bm, cstride) in [
            (1usize, 1usize, 1usize, 1usize),
            (6, 4, 5, 6),
            (8, 8, 3, 8),
            (6, 18, 17, 6), // spans a 16-lane vector plus an odd tail
        ] {
            let g = pseudo(21, alpha * bn);
            let d = pseudo(22, alpha * bm);
            let coeffs = pseudo(23, alpha * cstride);
            let src = pseudo(24, bn);
            for w in available() {
                force_width(Some(w)).unwrap();

                // expand_axpy == per-chunk scalar axpy with strided
                // coefficients.
                let base = pseudo(25, alpha * bn);
                let mut got = base.clone();
                expand_axpy(&mut got, &coeffs, cstride, &src);
                let mut want = base.clone();
                for j in 0..alpha {
                    axpy_scalar(&mut want[j * bn..(j + 1) * bn], coeffs[j * cstride], &src);
                }
                assert_eq!(got, want, "expand_axpy width={w}");

                // rank1_batch == the naive one-step outer products.
                let base = pseudo(26, alpha * bn * bm);
                let mut got = base.clone();
                rank1_batch(&mut got, &g, &d, alpha);
                let mut want = base.clone();
                naive_rank_k(&mut want, &g, &d, alpha, 1, bn, bm);
                assert_eq!(bits(&got), bits(&want), "rank1_batch width={w}");

                // gather_axpy == per-plane scalar axpy over a strided source.
                let src2 = pseudo(27, alpha * bn * bm);
                let base = pseudo(28, bm);
                let mut got = base.clone();
                gather_axpy(&mut got, &coeffs[..alpha], &src2, bn * bm);
                let mut want = base.clone();
                for (j, &c) in coeffs[..alpha].iter().enumerate() {
                    axpy_scalar(&mut want, c, &src2[j * bn * bm..j * bn * bm + bm]);
                }
                assert_eq!(got, want, "gather_axpy width={w}");
            }
            force_width(None).unwrap();
        }
    }

    /// The OT kernel against its definition: `gather_axpy` into a zeroed
    /// row, then an element-wise add onto the output row, and the count of
    /// non-finite row sums — every α (the engine's four plus odd ones off
    /// the compile-time bodies), n = 1..9 rows, lane tails around 8 and
    /// 16, every width, with and without `count`. Gaps between output rows
    /// and past the last one hold sentinels that must survive. With
    /// `plant`, source planes carry NaN, +∞ and −∞ at a few lanes (lane 0
    /// takes ∞s of both signs from two planes, which can cancel to NaN),
    /// and the output sentinels carry non-finite values the count must not
    /// see; NaN outputs then only have to be NaN, since IEEE-754 leaves the
    /// payload of a two-NaN add open. With `store`, the rows the kernel
    /// stores into start as NaN and must come out as adding onto zeroed
    /// rows gives.
    fn check_gather_axpy_rows(plant: bool, store: bool) {
        let _g = DISPATCH_LOCK.lock().unwrap();
        for alpha in [1usize, 2, 3, 4, 8, 16] {
            for n in 1..=9usize {
                for w in [1usize, 5, 8, 15, 16, 17, 31, 32, 33, 37] {
                    let (dstride, sstride) = (w + 3, 2 * w + 1);
                    let seed = (alpha * 1000 + n * 100 + w) as u32;
                    let coeffs = pseudo(seed, n * alpha);
                    let mut src = pseudo(seed + 1, (alpha - 1) * sstride + w);
                    let mut base = pseudo(seed + 2, n * dstride + 16);
                    if plant {
                        src[w - 1] = f32::NAN;
                        src[(alpha - 1) * sstride + w / 2] = f32::INFINITY;
                        src[(alpha - 1) * sstride] = f32::NEG_INFINITY;
                        src[0] = f32::INFINITY;
                        base[w] = f32::NAN; // a gap lane, never a row sum
                        base[n * dstride + 1] = f32::INFINITY;
                    }
                    // What the stored rows must hold: the sums added onto
                    // zeroed rows. The kernel itself sees NaN there.
                    let (mut onto, mut input) = (base.clone(), base.clone());
                    if store {
                        for d in 0..n {
                            onto[d * dstride..d * dstride + w].fill(0.0);
                            input[d * dstride..d * dstride + w].fill(f32::NAN);
                        }
                    }
                    force_width(Some(SimdWidth::Scalar)).unwrap();
                    let mut want = onto;
                    let mut want_count = 0u64;
                    for d in 0..n {
                        let mut row = vec![0.0f32; w];
                        gather_axpy(&mut row, &coeffs[d * alpha..(d + 1) * alpha], &src, sstride);
                        want_count += row.iter().filter(|y| !y.is_finite()).count() as u64;
                        for (o, y) in want[d * dstride..].iter_mut().zip(&row) {
                            *o += y;
                        }
                    }
                    assert_eq!(want_count > 0, plant, "alpha={alpha} n={n} w={w}");
                    for width in available() {
                        force_width(Some(width)).unwrap();
                        for count in [true, false] {
                            let mut got = input.clone();
                            let non_finite = gather_axpy_rows(
                                &mut got, dstride, &coeffs, alpha, &src, sstride, w, count, store,
                            );
                            let same = got.iter().zip(&want).all(|(a, b)| {
                                a.to_bits() == b.to_bits() || (plant && a.is_nan() && b.is_nan())
                            });
                            let case = format!(
                                "alpha={alpha} n={n} w={w} {width} count={count} store={store}"
                            );
                            assert!(same, "{case}");
                            assert_eq!(non_finite, if count { want_count } else { 0 }, "{case}");
                        }
                    }
                    force_width(None).unwrap();
                }
            }
        }
    }

    #[test]
    fn gather_axpy_rows_matches_gather_axpy_into_zeroed_rows_every_width() {
        check_gather_axpy_rows(false, false);
    }

    #[test]
    fn gather_axpy_rows_counts_planted_non_finite_sums_every_width() {
        check_gather_axpy_rows(true, false);
    }

    /// The store member equals adding onto zeroed rows, bit for bit, on
    /// finite sums and with planted non-finite ones.
    #[test]
    fn gather_axpy_rows_store_equals_adding_onto_zeroed_rows_every_width() {
        check_gather_axpy_rows(false, true);
        check_gather_axpy_rows(true, true);
    }

    #[test]
    fn gemm_tiles_bit_identical_across_widths() {
        let _g = DISPATCH_LOCK.lock().unwrap();
        let (kc, lda, ldb, ldc) = (13usize, 13usize, NR, NR);
        let a = pseudo(31, MR * lda);
        let b = pseudo(32, kc * ldb);
        let base = pseudo(33, MR * ldc);
        force_width(Some(SimdWidth::Scalar)).unwrap();
        let mut scalar = base.clone();
        micro_kernel_4x8(kc, 0.75, &a, lda, &b, ldb, &mut scalar, ldc);
        for w in available() {
            force_width(Some(w)).unwrap();
            let mut got = base.clone();
            micro_kernel_4x8(kc, 0.75, &a, lda, &b, ldb, &mut got, ldc);
            assert_eq!(
                scalar.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "4x8 width={w}"
            );
        }
        // Column tails, every nr.
        for nr in 1..NR {
            let bt = pseudo(34, kc * nr);
            let baset = pseudo(35, MR * nr);
            force_width(Some(SimdWidth::Scalar)).unwrap();
            let mut scalar = baset.clone();
            micro_kernel_4xn(kc, 0.75, &a, lda, &bt, nr, nr, &mut scalar, nr);
            for w in available() {
                force_width(Some(w)).unwrap();
                let mut got = baset.clone();
                micro_kernel_4xn(kc, 0.75, &a, lda, &bt, nr, nr, &mut got, nr);
                assert_eq!(
                    scalar.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "4xn nr={nr} width={w}"
                );
            }
        }
        force_width(None).unwrap();
    }

    #[test]
    fn tail_kernel_matches_full_kernel_semantics() {
        // 4 × nr tail against a hand-rolled triple loop.
        for nr in 1..NR {
            let (kc, lda, ldb, ldc) = (11usize, 11usize, nr, nr);
            let a = pseudo(5, MR * lda);
            let b = pseudo(6, kc * ldb);
            let base = pseudo(7, MR * ldc);
            let mut got = base.clone();
            micro_kernel_4xn(kc, 0.75, &a, lda, &b, ldb, nr, &mut got, ldc);
            let mut want = base.clone();
            for ii in 0..MR {
                for jj in 0..nr {
                    let mut acc = 0.0f32;
                    for p in 0..kc {
                        acc += a[ii * lda + p] * b[p * ldb + jj];
                    }
                    want[ii * ldc + jj] += 0.75 * acc;
                }
            }
            for i in 0..MR * ldc {
                assert!((got[i] - want[i]).abs() < 1e-5, "nr={nr} elem {i}");
            }
        }
    }

    #[test]
    fn width_names_round_trip_and_reject_junk() {
        for w in SimdWidth::ALL {
            assert_eq!(SimdWidth::parse(w.name()), Some(w));
        }
        assert_eq!(SimdWidth::parse("avx-512"), None);
        assert_eq!(SimdWidth::parse("AVX2"), None, "names are case-sensitive");
        assert_eq!(SimdWidth::parse(""), None);
        assert_eq!(SimdWidth::parse("neon"), None, "no NEON member");
        assert_eq!(SimdWidth::Scalar.lanes(), 1);
        assert_eq!(SimdWidth::Avx2.lanes(), 8);
        assert_eq!(SimdWidth::Avx512.lanes(), 16);
    }

    #[test]
    fn force_width_rejects_unavailable_with_typed_error() {
        let _g = DISPATCH_LOCK.lock().unwrap();
        // Scalar pins always succeed; unavailable members fail typed and
        // leave the previous pin untouched.
        force_width(Some(SimdWidth::Scalar)).unwrap();
        let unavailable: Vec<SimdWidth> = SimdWidth::ALL
            .iter()
            .copied()
            .filter(|w| !w.is_available())
            .collect();
        for w in unavailable {
            let err = force_width(Some(w)).unwrap_err();
            assert_eq!(err.requested, w);
            assert_eq!(err.detected, detected_width());
            assert!(err.to_string().contains(w.name()), "{err}");
            assert_eq!(forced_width(), Some(SimdWidth::Scalar), "pin must survive");
        }
        // Off x86-64 only the scalar bodies exist.
        #[cfg(not(target_arch = "x86_64"))]
        assert!(force_width(Some(SimdWidth::Avx512)).is_err());
        force_width(None).unwrap();
        assert_eq!(forced_width(), None);
    }

    #[test]
    fn detection_is_widest_available() {
        let det = detected_width();
        assert!(det.is_available());
        for w in SimdWidth::ALL {
            if w.is_available() {
                // Preference is widest-first: nothing available may have
                // more lanes than the detected pick.
                assert!(w.lanes() <= det.lanes(), "{w} wider than detected {det}");
            }
        }
    }
}
