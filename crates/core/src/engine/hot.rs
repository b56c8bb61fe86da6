#![doc = "audit: no-alloc"]
#![doc = "audit: bounds"]
//! The fused block loop — the engine's hot path.
//!
//! Everything here runs once per `(oc-tile, filter-row)` task per block
//! column, inside a [`super::sched`] task: the tile loaders, the `Aᵀ` output
//! transform, the disjoint-row bucket writer and the per-block lap timer.
//! The module is annotated `audit: no-alloc`, so `cargo xtask audit`
//! statically rejects any allocating construct in non-test code — the
//! static half of the counting-allocator contract in
//! `tests/workspace.rs::steady_state_loop_does_not_allocate`. All scratch
//! comes in from the [`ScratchPool`]; all output goes out through rows of
//! a caller-provided bucket.

use super::clip::clip_rows;
use super::{HealthSink, TileMode};
use crate::metrics::TimingSink;
use crate::partition::Segment;
use crate::workspace::ScratchPool;
use std::time::Instant;
use winrs_conv::ConvShape;
use winrs_fp16::{bf16, e4m3, f16};
use winrs_gemm::micro;
use winrs_tensor::{Scalar, Tensor4};
use winrs_winograd::cook_toom::TransformReal;

/// Largest cache-block dimension any kernel configures (see
/// `winrs-winograd::kernels`); sizes the stack buffer the interior fast
/// paths widen reduced-precision channel runs into.
pub(super) const MAX_BLOCK: usize = 128;

/// Main-loop iterations whose transformed tiles are staged before one
/// [`micro::rank_k_batch`] flush folds them into the accumulator. The
/// accumulator is the block's large tile (α·B_N·B_M: 128 KiB at α = 16
/// with the FP32 block (64, 32)), so each flush streams it once for
/// `STAGE` steps instead of once per step; the staged ĝ/d̂ tiles of one
/// flush at that geometry are 8·16·(64 + 32)·4 B = 48 KiB, one L1d.
pub(super) const STAGE: usize = 8;

/// Scratch f32 elements one block task carves from its pool slot for
/// blocks of `bn` output × `bm` input channels: [`STAGE`] ĝ tiles (α·bn
/// each), [`STAGE`] d̂ tiles (α·bm each), the α·bn·bm accumulator and the
/// output transform's bm row buffer. The one formula both the block loop
/// and the slot provisioning (`engine::scratch_slot_elems`) use.
pub(super) fn block_scratch_elems(alpha: usize, bn: usize, bm: usize) -> usize {
    alpha * (STAGE * (bn + bm) + bn * bm) + bm
}

/// Raw-pointer view of the bucket region for a pass's block groups. Each
/// `(bucket, oc-tile, filter-row)` task owns every index whose bucket
/// offset, `oc` and `f_h` match its coordinates — distinct buckets occupy
/// disjoint `base` ranges and tasks within a bucket differ in oc-tile or
/// filter row — so the row ranges handed out by [`BucketWriter::row_mut`]
/// are disjoint across concurrently running tasks *regardless of which
/// worker the steal scheduler hands a task to*. That disjointness is the
/// safety argument for the `Sync` impl.
pub(super) struct BucketWriter<T> {
    ptr: *mut T,
    len: usize,
}

// SAFETY: tasks only touch disjoint index ranges (see type docs); the
// pointer itself is valid for the whole `run_passes` borrow of the bucket.
unsafe impl<T: Send> Send for BucketWriter<T> {}
unsafe impl<T: Send> Sync for BucketWriter<T> {}

impl<T> BucketWriter<T> {
    pub(super) fn new(bucket: &mut [T]) -> BucketWriter<T> {
        BucketWriter {
            ptr: bucket.as_mut_ptr(),
            len: bucket.len(),
        }
    }

    /// Mutable view of `start..start + len`.
    ///
    /// # Safety
    /// The range must be in-bounds and disjoint from every range any
    /// concurrent caller obtains.
    #[inline]
    #[allow(clippy::mut_from_ref)] // disjointness contract documented above
    unsafe fn row_mut(&self, start: usize, len: usize) -> &mut [T] {
        debug_assert!(start + len <= self.len, "BucketWriter row out of bounds");
        std::slice::from_raw_parts_mut(self.ptr.add(start), len)
    }
}

/// Re-round a transformed FP32 tile to the reduced format's grid, counting
/// values that were finite before rounding but not after (format
/// overflow). `Fp32` is the identity and never saturates.
// BOUNDS(buf): len
#[inline]
fn round_tile(buf: &mut [f32], mode: TileMode) -> u64 {
    let mut saturated = 0u64;
    match mode {
        TileMode::Fp32 => {}
        TileMode::Fp16 => {
            for v in buf.iter_mut() {
                let r = f16::from_f32(*v).to_f32();
                saturated += u64::from(v.is_finite() && !r.is_finite());
                *v = r;
            }
        }
        TileMode::Bf16 => {
            for v in buf.iter_mut() {
                let r = bf16::from_f32(*v).to_f32();
                saturated += u64::from(v.is_finite() && !r.is_finite());
                *v = r;
            }
        }
        TileMode::Fp8 => {
            for v in buf.iter_mut() {
                let r = e4m3::from_f32(*v).to_f32();
                saturated += u64::from(v.is_finite() && !r.is_finite());
                *v = r;
            }
        }
    }
    saturated
}

/// A lap timer for phase attribution inside the block loop: each `lap`
/// charges the time since the previous mark to one phase counter and
/// re-marks. Disabled (`None` inside) it reads no clock — an untimed run
/// constructs it with `on = false` everywhere.
struct Lap(Option<Instant>);

impl Lap {
    #[inline]
    fn start(on: bool) -> Lap {
        Lap(on.then(Instant::now))
    }

    #[inline]
    fn lap(&mut self, acc: &mut u64) {
        if let Some(prev) = self.0 {
            let now = Instant::now();
            *acc += now.duration_since(prev).as_nanos() as u64;
            self.0 = Some(now);
        }
    }
}

/// Process every `(ic-tile, filter-width-tile)` block of one
/// `(oc-tile, filter-row)` task of one segment. Writes go through `out`
/// — a view of the whole bucket region, with this task's bucket starting
/// at element `base` — into the rows this task owns (see
/// [`BucketWriter`]). `slot` pins all scratch draws to one pool slot (the
/// scheduler passes its worker index, keeping each worker's tiles
/// cache-resident across block groups). Health counts and phase timings
/// accumulate in locals and flush into their sinks once at the end.
#[allow(clippy::too_many_arguments)]
pub(super) fn run_block_tile<T: Scalar>(
    conv: &ConvShape,
    seg: &Segment,
    seg_idx: usize,
    t: &TransformReal,
    x: &Tensor4<T>,
    dy: &Tensor4<T>,
    mode: TileMode,
    base: usize,
    oc0: usize,
    bn_cur: usize,
    bm: usize,
    fh: usize,
    slot: usize,
    out: &BucketWriter<T>,
    health: Option<&HealthSink>,
    timing: Option<&TimingSink>,
    scratch: &ScratchPool<'_>,
) {
    let alpha = t.alpha;
    let (n_out, r) = (t.n, t.r);
    debug_assert_eq!(seg.kernel.r, r);
    let fw_tiles = conv.fw / n_out;
    let mut saturated = 0u64;
    let mut non_finite = 0u64;
    let bm_c = bm.min(conv.ic);
    let block_start = timing.map(|_| Instant::now());
    let (mut ft_ns, mut it_ns, mut ewmm_ns, mut ot_ns) = (0u64, 0u64, 0u64, 0u64);

    let (i_lo, i_hi) = clip_rows(seg.h0, seg.h1, fh, conv.ph, conv.ih);
    // Main-loop iterations over (∇Y row i, unit u, batch b), b fastest:
    // the step order every accumulator element sums its products in.
    let steps = (i_hi - i_lo) * seg.units * conv.n;

    // The block's "SMEM": the ĝ/d̂ stage, accumulator and OT row-buffer
    // tiles carved from the pool slot this worker is pinned to. Slots
    // arrive dirty — staged ĝ/d̂ tiles are fully overwritten by the tile
    // loaders before a flush reads them, the accumulator region in use is
    // zero-filled per filter tile below and the row buffer per row, so
    // nothing stale is ever read.
    // BOUNDS: assume t.alpha >= 1
    // (every transform has α = n + r − 1 ≥ 1; the bounds pass needs the
    // lower bound to close the accumulator-plane indexing proof.)
    scratch.with_slot_at(slot, block_scratch_elems(alpha, bn_cur, bm_c), |buf| {
        let (gstage, rest) = buf.split_at_mut(STAGE * alpha * bn_cur);
        let (dstage, rest) = rest.split_at_mut(STAGE * alpha * bm_c);
        let (acc, orow_buf) = rest.split_at_mut(alpha * bn_cur * bm_c);

        let mut ic0 = 0;
        while ic0 < conv.ic {
            let bm_cur = bm.min(conv.ic - ic0);
            // The d̂ stage at this ic tile's width: slot `s` holds
            // α·bm_cur elements, packed as `rank_k_batch` reads them.
            let dstage = &mut dstage[..STAGE * alpha * bm_cur];
            for ftw in 0..fw_tiles {
                let fw0 = ftw * n_out;
                acc[..alpha * bn_cur * bm_cur].fill(0.0);

                let mut step0 = 0;
                while step0 < steps {
                    // Stage up to STAGE consecutive steps' transformed
                    // tiles, slot `s` holding step `step0 + s`.
                    let k = STAGE.min(steps - step0);
                    let mut lap = Lap::start(timing.is_some());
                    for s in 0..k {
                        let step = step0 + s;
                        let b = step % conv.n;
                        let u = step / conv.n % seg.units;
                        let i = i_lo + step / (conv.n * seg.units);
                        let x_row = (fh + i) as isize - conv.ph as isize;
                        let col0 = seg.w0 + u * r;
                        let x_col0 = (fw0 + col0) as isize - conv.pw as isize;
                        // Filter transform: ghat[β][oc] = Σ_t G[β][t]·∇Y.
                        let ghat = &mut gstage[s * alpha * bn_cur..(s + 1) * alpha * bn_cur];
                        load_filter_tile(dy, t, b, i, col0, oc0, bn_cur, ghat);
                        #[cfg(feature = "faults")]
                        crate::faults::maybe_inject(seg_idx, mode, ghat);
                        #[cfg(feature = "faults")]
                        crate::faults::maybe_panic(crate::faults::Site::HotLoopPanic);
                        saturated += round_tile(ghat, mode);
                        lap.lap(&mut ft_ns);
                        // Input transform: dhat[β][ic] = Σ_s Dᵀ[β][s]·X.
                        let dhat = &mut dstage[s * alpha * bm_cur..(s + 1) * alpha * bm_cur];
                        load_input_tile(x, t, b, x_row, x_col0, ic0, bm_cur, dhat);
                        saturated += round_tile(dhat, mode);
                        lap.lap(&mut it_ns);
                    }
                    // α-batched outer products of all k staged steps in
                    // one register-tiled pass over the accumulator.
                    micro::rank_k_batch(
                        &mut acc[..alpha * bn_cur * bm_cur],
                        &gstage[..k * alpha * bn_cur],
                        &dstage[..k * alpha * bm_cur],
                        alpha,
                        k,
                    );
                    lap.lap(&mut ewmm_ns);
                    step0 += k;
                }

                // Output transform Aᵀ and bucket accumulation (the
                // residual pass adds onto the bulk pass's bucket): vector
                // accumulation over β into a row buffer, one finite-check
                // reduction per row, one contiguous row add.
                let mut lap = Lap::start(timing.is_some());
                for oi in 0..bn_cur {
                    for d in 0..n_out {
                        let orow = &mut orow_buf[..bm_cur];
                        orow.fill(0.0);
                        // Fold all α accumulator planes into the row buffer
                        // with one batched call (plane stride bn·bm).
                        micro::gather_axpy(
                            orow,
                            &t.at_f32[d * alpha..(d + 1) * alpha],
                            &acc[oi * bm_cur..],
                            bn_cur * bm_cur,
                        );
                        non_finite += orow
                            .iter()
                            .map(|y| u64::from(!y.is_finite()))
                            .sum::<u64>();
                        let fw = fw0 + d;
                        let dst = base
                            + (((oc0 + oi) * conv.fh + fh) * conv.fw + fw) * conv.ic
                            + ic0;
                        // SAFETY: this task owns every (oc ∈ tile, f_h = fh)
                        // row of its own bucket (offset `base`); ranges are
                        // disjoint across concurrent tasks and buckets.
                        let out_row = unsafe { out.row_mut(dst, bm_cur) };
                        match T::as_f32s_mut(out_row) {
                            Some(o) => micro::add_assign(o, orow),
                            None => {
                                for (o, &y) in out_row.iter_mut().zip(orow.iter()) {
                                    *o += T::from_f32(y);
                                }
                            }
                        }
                    }
                }
                lap.lap(&mut ot_ns);
            }
            ic0 += bm_cur;
        }
    });
    #[cfg(not(feature = "faults"))]
    let _ = seg_idx;
    if let Some(sink) = health {
        sink.record(seg_idx, saturated, non_finite);
    }
    if let (Some(sink), Some(start)) = (timing, block_start) {
        let total_ns = start.elapsed().as_nanos() as u64;
        sink.record_block(ft_ns, it_ns, ewmm_ns, ot_ns, total_ns);
    }
}

/// Load one filter tile (`r` ∇Y columns × `bn_cur` output channels) and
/// apply `G` in FP32. Phantom columns (width padding from the pair
/// fallback) read zero through the padded accessor. Reduced-precision
/// re-rounding happens separately in [`round_tile`] so the engine can
/// count saturations (and the fault injector can perturb the tile).
///
/// Every in-bounds column takes the vector path — one contiguous channel
/// run per ∇Y column, the whole `G` column applied as one batched AXPY —
/// while out-of-bounds (phantom) columns are skipped outright, since they
/// contribute exactly zero. Border tiles therefore run at interior speed.
/// This is bit-identical to the padded scalar reference: the AXPY adds
/// `G[β][t]·v` terms the reference adds too, the skipped terms are
/// `G[β][t]·0 = ±0.0`, and adding a signed zero to an accumulator that
/// starts at `+0.0` can never change its bits. Oversized channel blocks
/// (`bn_cur > MAX_BLOCK`, never produced by the planner) keep the scalar
/// reference path.
// BOUNDS(ghat): t.alpha * bn_cur
#[allow(clippy::too_many_arguments)]
#[inline]
pub fn load_filter_tile<T: Scalar>(
    dy: &Tensor4<T>,
    t: &TransformReal,
    b: usize,
    i: usize,
    col0: usize,
    oc0: usize,
    bn_cur: usize,
    ghat: &mut [f32],
) {
    let (alpha, r) = (t.alpha, t.r);
    ghat[..alpha * bn_cur].fill(0.0);
    if i < dy.dims()[1] && bn_cur <= MAX_BLOCK {
        let ow = dy.dims()[2];
        let mut widened = [0.0f32; MAX_BLOCK];
        for tt in 0..r {
            // Bounds are per *column*, so border tiles stay on the vector
            // path: a phantom column (width padding past the right edge)
            // contributes exactly zero and is simply skipped — bit-identical
            // to the padded-read reference, which skips its zero reads.
            let col = col0 + tt;
            if col >= ow {
                continue;
            }
            let src = dy.chan_slice(b, i, col, oc0, bn_cur);
            let row: &[f32] = match T::as_f32s(src) {
                Some(s) => s,
                None => {
                    for (w, v) in widened.iter_mut().zip(src) {
                        *w = v.to_f32();
                    }
                    &widened[..bn_cur]
                }
            };
            // Whole G column in one batched call: the β loop runs inside
            // the micro-kernel, one dispatch check per ∇Y column.
            micro::expand_axpy(&mut ghat[..alpha * bn_cur], &t.g_f32[tt..], r, row);
        }
        return;
    }
    for tt in 0..r {
        // One padded-row read per (t): channels are contiguous.
        let col = (col0 + tt) as isize;
        for oc_i in 0..bn_cur {
            let v = dy.get_padded(b, i as isize, col, oc0 + oc_i).to_f32();
            if v != 0.0 {
                for beta in 0..alpha {
                    ghat[beta * bn_cur + oc_i] += t.g_f32[beta * r + tt] * v;
                }
            }
        }
    }
}

/// Load one input tile (`α` X columns × `bm_cur` input channels) and apply
/// `Dᵀ` in FP32. Out-of-range rows/columns read zero (width padding,
/// Figure 7's clipping already removed out-of-range rows).
///
/// In-bounds columns take the same contiguous-read + batched-AXPY vector
/// path as [`load_filter_tile`] (per-column bounds, so border tiles stay
/// vectorised), with the same bit-identity argument; a fully clipped row
/// returns the zero tile immediately.
// BOUNDS(dhat): t.alpha * bm_cur
#[allow(clippy::too_many_arguments)]
#[inline]
pub fn load_input_tile<T: Scalar>(
    x: &Tensor4<T>,
    t: &TransformReal,
    b: usize,
    x_row: isize,
    x_col0: isize,
    ic0: usize,
    bm_cur: usize,
    dhat: &mut [f32],
) {
    let alpha = t.alpha;
    dhat[..alpha * bm_cur].fill(0.0);
    if x_row < 0 || (x_row as usize) >= x.dims()[1] {
        return; // clipped row: the whole tile reads padding zeros
    }
    if bm_cur <= MAX_BLOCK {
        let iw = x.dims()[2] as isize;
        let mut widened = [0.0f32; MAX_BLOCK];
        for s in 0..alpha {
            // Per-column bounds, as in the filter loader: padding columns
            // contribute zero and are skipped, interior columns take the
            // contiguous vector path even inside a border tile.
            let col = x_col0 + s as isize;
            if col < 0 || col >= iw {
                continue;
            }
            let src = x.chan_slice(b, x_row as usize, col as usize, ic0, bm_cur);
            let row: &[f32] = match T::as_f32s(src) {
                Some(sl) => sl,
                None => {
                    for (w, v) in widened.iter_mut().zip(src) {
                        *w = v.to_f32();
                    }
                    &widened[..bm_cur]
                }
            };
            // Whole Dᵀ column batched, same as the filter loader.
            micro::expand_axpy(&mut dhat[..alpha * bm_cur], &t.dt_f32[s..], alpha, row);
        }
        return;
    }
    for s in 0..alpha {
        let col = x_col0 + s as isize;
        for ic_i in 0..bm_cur {
            let v = x.get_padded(b, x_row, col, ic0 + ic_i).to_f32();
            if v != 0.0 {
                for beta in 0..alpha {
                    dhat[beta * bm_cur + ic_i] += t.dt_f32[beta * alpha + s] * v;
                }
            }
        }
    }
}
