#![doc = "audit: no-alloc"]
#![doc = "audit: bounds"]
//! The fused block loop — the engine's hot path.
//!
//! Everything here runs inside one [`super::sched`] task: a [`BlockGroup`]
//! (one oc-tile of one segment, every filter row), its panel fills, the
//! tile loaders, the EWMM calls, the `Aᵀ` output transform, the
//! disjoint-row bucket writer and the per-task lap timer. The module is
//! annotated `audit: no-alloc`, so `cargo xtask audit` statically rejects
//! any allocating construct in non-test code — the static half of the
//! counting-allocator contract in
//! `tests/workspace.rs::warm_run_planned_block_loop_allocates_nothing`.
//! All scratch comes in from the [`ScratchPool`]; all output goes out
//! through rows of a caller-provided bucket.
//!
//! A task transforms each ĝ tile once and each d̂ tile once per
//! `(ic-tile, fw-tile)`: the transformed tiles live in panels in the
//! worker's scratch slot and every filter row reads its steps as one
//! contiguous slice of both. A task whose panels would exceed
//! [`PANEL_CAP_BYTES`] runs the same loop over [`STAGE`]-step windows and
//! recomputes every window.

use super::clip::clip_rows;
use super::{cache_block, HealthSink, TileMode};
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

/// Steps per window when a task's panels pass the cap, and per
/// [`micro::rank_k_batch`] call either way: each call streams the
/// accumulator once for `STAGE` steps. At α = 16 with the FP32 block (64, 32) one window's ĝ/d̂ tiles
/// are 8·16·(64 + 32)·4 B = 48 KiB, one L1d.
pub(super) const STAGE: usize = 8;

/// Largest ĝ + d̂ panel pair one task keeps in its scratch slot (2 MiB).
/// A task re-reads its panels for every `(ic-tile, fw-tile, filter row)`,
/// so they should stay in the core's L2 next to the accumulator. On a
/// 2 MiB-per-core L2 the fig10 keys whose panels take 1.31–1.65 MiB ran
/// 1.3–1.8× faster at f = 3 with panels than windowed (DESIGN §9.5).
/// Past the cap a task windows instead — the per-step cost of
/// recomputing every tile, never more — so scratch per worker is bounded
/// independently of N·H·W.
pub(super) const PANEL_CAP_BYTES: usize = 2 << 20;

/// Scratch f32 elements one group task carves from its pool slot, for
/// blocks of `bn` output × `bm` input channels of a kernel with `α`
/// points and `n` outputs: the α·bn·bm accumulator, ĝ/d̂ panels of
/// `gs`/`ds` steps (α·bn and α·bm elements each) and the `n` output rows
/// of the buffered output transform. The one formula both the block loop
/// and the slot provisioning ([`BlockGroup::scratch_elems`]) use.
pub(super) fn group_scratch_elems(
    alpha: usize,
    n: usize,
    bn: usize,
    bm: usize,
    gs: usize,
    ds: usize,
) -> usize {
    alpha * (bn * bm + gs * bn + ds * bm) + n * bm
}

/// One scheduler task: every filter row of one oc-tile of one segment.
/// `(base, oc0)` is the deterministic owner coordinate: the task owns the
/// contiguous bucket region of its oc-tile (every `(oc, f_h, f_w, ic)`
/// with `oc ∈ oc0..oc0 + bn_cur`), which keeps [`BucketWriter`] rows
/// disjoint across tasks no matter which worker runs the group.
pub(super) struct BlockGroup {
    pub(super) seg_idx: usize,
    /// Element offset of the owning bucket in the bucket region.
    pub(super) base: usize,
    pub(super) oc0: usize,
    pub(super) bn_cur: usize,
    /// The kernel's input-channel block `B_M`.
    pub(super) bm: usize,
    /// ∇Y rows `g_lo..g_lo + g_rows` the filter rows read: the union of
    /// their clip ranges (contiguous — consecutive filter rows shift it by
    /// at most one row).
    g_lo: usize,
    g_rows: usize,
    /// X rows `x_lo..x_lo + x_rows` those steps read
    /// (`x_row = f_h + i − p_H`).
    x_lo: usize,
    x_rows: usize,
    /// Whether the ĝ/d̂ panels fit [`PANEL_CAP_BYTES`]; otherwise the
    /// task windows.
    pub(super) panels: bool,
}

impl BlockGroup {
    /// The group of oc-tile `oc0` of `seg`, with its row hulls and panel
    /// decision.
    pub(super) fn new(
        conv: &ConvShape,
        seg: &Segment,
        seg_idx: usize,
        mode: TileMode,
        base: usize,
        oc0: usize,
    ) -> BlockGroup {
        let alpha = seg.kernel.alpha();
        let (bn, bm) = cache_block(mode, alpha);
        let bn_cur = bn.min(conv.oc - oc0);
        let (mut g_lo, mut g_hi, mut x_lo, mut x_hi) = (usize::MAX, 0, usize::MAX, 0);
        for fh in 0..conv.fh {
            let (lo, hi) = clip_rows(seg.h0, seg.h1, fh, conv.ph, conv.ih);
            if lo < hi {
                g_lo = g_lo.min(lo);
                g_hi = g_hi.max(hi);
                x_lo = x_lo.min(fh + lo - conv.ph);
                x_hi = x_hi.max(fh + hi - conv.ph);
            }
        }
        if g_lo > g_hi {
            // Every filter row clipped away: nothing to read.
            (g_lo, g_hi, x_lo, x_hi) = (0, 0, 0, 0);
        }
        let (g_rows, x_rows) = (g_hi - g_lo, x_hi - x_lo);
        let per_row = seg.units * conv.n;
        let panel_elems = alpha * per_row * (g_rows * bn_cur + x_rows * bm.min(conv.ic));
        BlockGroup {
            seg_idx,
            base,
            oc0,
            bn_cur,
            bm,
            g_lo,
            g_rows,
            x_lo,
            x_rows,
            panels: panel_elems * std::mem::size_of::<f32>() <= PANEL_CAP_BYTES,
        }
    }

    /// Heights in steps of the task's ĝ and d̂ buffers, at `per_row`
    /// steps per ∇Y row: the whole panels, or [`STAGE`]-step windows.
    fn buffer_steps(&self, per_row: usize) -> (usize, usize) {
        if self.panels {
            (self.g_rows * per_row, self.x_rows * per_row)
        } else {
            (STAGE, STAGE)
        }
    }

    /// Scratch f32 elements this task draws from its slot.
    pub(super) fn scratch_elems(&self, conv: &ConvShape, seg: &Segment) -> usize {
        let (g_steps, d_steps) = self.buffer_steps(seg.units * conv.n);
        let (alpha, n, bm_c) = (seg.kernel.alpha(), seg.kernel.n, self.bm.min(conv.ic));
        group_scratch_elems(alpha, n, self.bn_cur, bm_c, g_steps, d_steps)
    }
}

/// Raw-pointer view of the bucket region for a pass's block groups. Each
/// task owns the bucket region of its `(bucket, oc-tile)` — distinct
/// buckets occupy disjoint `base` ranges and tasks within a bucket differ
/// in oc-tile — so the row ranges handed out by [`BucketWriter::row_mut`]
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

/// The operands every step of one task reads: the tensors, the segment
/// and its transform, the tile mode and the task's oc-tile.
struct Operands<'a, T> {
    conv: &'a ConvShape,
    seg: &'a Segment,
    #[cfg_attr(not(feature = "faults"), allow(dead_code))]
    seg_idx: usize,
    t: &'a TransformReal,
    x: &'a Tensor4<T>,
    dy: &'a Tensor4<T>,
    mode: TileMode,
    oc0: usize,
    bn_cur: usize,
}

#[cfg(test)]
thread_local! {
    /// ĝ and d̂ tiles the fills on this thread have transformed, so tests
    /// can count transforms per task (single-worker runs stay on the
    /// calling thread).
    pub(super) static TRANSFORMED: std::cell::Cell<(u64, u64)> =
        const { std::cell::Cell::new((0, 0)) };
}

/// Transform main-loop steps `s0..s0 + k` of the task's filter tiles into
/// `dst`, step-major (α·bn_cur elements per step), counting ∇Y rows from
/// `i0`: step `s` is `(i0 + s / (units·N), u, b)` with `u = s / N mod
/// units` and `b = s mod N` fastest. Returns the saturations of the
/// re-rounding.
// BOUNDS(dst): k * ops.t.alpha * ops.bn_cur
fn fill_filter<T: Scalar>(
    ops: &Operands<'_, T>,
    dst: &mut [f32],
    i0: usize,
    s0: usize,
    k: usize,
) -> u64 {
    let (n, units) = (ops.conv.n, ops.seg.units);
    let ag = ops.t.alpha * ops.bn_cur;
    let mut saturated = 0u64;
    for s in 0..k {
        let step = s0 + s;
        let (b, u, i) = (step % n, step / n % units, i0 + step / (n * units));
        let col0 = ops.seg.w0 + u * ops.t.r;
        // Filter transform: ghat[β][oc] = Σ_t G[β][t]·∇Y.
        let ghat = &mut dst[s * ag..(s + 1) * ag];
        load_filter_tile(ops.dy, ops.t, b, i, col0, ops.oc0, ops.bn_cur, ghat);
        #[cfg(feature = "faults")]
        crate::faults::maybe_inject(ops.seg_idx, ops.mode, ghat);
        #[cfg(feature = "faults")]
        crate::faults::maybe_panic(crate::faults::Site::HotLoopPanic);
        saturated += round_tile(ghat, ops.mode);
    }
    #[cfg(test)]
    TRANSFORMED.with(|c| c.set((c.get().0 + k as u64, c.get().1)));
    saturated
}

/// Transform steps `s0..s0 + k` of the input tiles of input channels
/// `ic0..ic0 + bm_cur` at filter-width tile `fw0` into `dst` (α·bm_cur
/// elements per step), counting X rows from `x0` — the step decode of
/// [`fill_filter`].
// BOUNDS(dst): k * ops.t.alpha * bm_cur
#[allow(clippy::too_many_arguments)]
fn fill_input<T: Scalar>(
    ops: &Operands<'_, T>,
    dst: &mut [f32],
    x0: usize,
    s0: usize,
    k: usize,
    fw0: usize,
    ic0: usize,
    bm_cur: usize,
) -> u64 {
    let (n, units) = (ops.conv.n, ops.seg.units);
    let ad = ops.t.alpha * bm_cur;
    let mut saturated = 0u64;
    for s in 0..k {
        let step = s0 + s;
        let (b, u) = (step % n, step / n % units);
        let x_row = (x0 + step / (n * units)) as isize;
        let x_col0 = (fw0 + ops.seg.w0 + u * ops.t.r) as isize - ops.conv.pw as isize;
        // Input transform: dhat[β][ic] = Σ_s Dᵀ[β][s]·X.
        let dhat = &mut dst[s * ad..(s + 1) * ad];
        load_input_tile(ops.x, ops.t, b, x_row, x_col0, ic0, bm_cur, dhat);
        saturated += round_tile(dhat, ops.mode);
    }
    #[cfg(test)]
    TRANSFORMED.with(|c| c.set((c.get().0, c.get().1 + k as u64)));
    saturated
}

/// Output transform `Aᵀ` of one filter row's accumulator into the bucket
/// rows `(oc0 + oi, f_h, fw0 + d, ic0..ic0 + bm_cur)`, added onto them
/// (the residual pass adds onto the bulk pass's bucket). `dst0` is the
/// bucket index of `(oc0, f_h, fw0, ic0)`. Each output element is summed
/// in registers by [`micro::gather_axpy_rows`], straight into the bucket
/// for f32 buckets; with `count` (a health sink is attached) or a
/// reduced-precision bucket the rows go through `orows` first. Returns
/// the non-finite outputs counted (0 without `count`).
// BOUNDS(acc): len
// BOUNDS(orows): ops.t.n * bm_cur
fn output_tile<T: Scalar>(
    ops: &Operands<'_, T>,
    acc: &[f32],
    orows: &mut [f32],
    out: &BucketWriter<T>,
    dst0: usize,
    bm_cur: usize,
    count: bool,
) -> u64 {
    let (alpha, n, conv, bn_cur) = (ops.t.alpha, ops.t.n, ops.conv, ops.bn_cur);
    let at = &ops.t.at_f32[..n * alpha];
    let oc_stride = conv.fh * conv.fw * conv.ic;
    let direct = !count && T::as_f32s(&[]).is_some();
    let rows = &mut orows[..n * bm_cur];
    let mut non_finite = 0u64;
    for oi in 0..bn_cur {
        // Accumulator plane β of output channel oi sits at
        // `β·bn·bm + oi·bm`.
        let src = &acc[oi * bm_cur..];
        let dst = dst0 + oi * oc_stride;
        if direct {
            // SAFETY: this task owns its oc-tile's whole bucket region
            // (offset `base`); the n rows `ic` apart stay inside the
            // `(oc0 + oi, f_h)` row of F_W·I_C elements.
            let span = unsafe { out.row_mut(dst, (n - 1) * conv.ic + bm_cur) };
            if let Some(o) = T::as_f32s_mut(span) {
                micro::gather_axpy_rows(o, conv.ic, at, alpha, src, bn_cur * bm_cur, bm_cur);
            }
            continue;
        }
        rows.fill(0.0);
        micro::gather_axpy_rows(rows, bm_cur, at, alpha, src, bn_cur * bm_cur, bm_cur);
        if count {
            non_finite += rows.iter().map(|y| u64::from(!y.is_finite())).sum::<u64>();
        }
        for d in 0..n {
            let row = &rows[d * bm_cur..(d + 1) * bm_cur];
            // SAFETY: as above — one row of this task's own region.
            let out_row = unsafe { out.row_mut(dst + d * conv.ic, bm_cur) };
            match T::as_f32s_mut(out_row) {
                Some(o) => micro::add_assign(o, row),
                None => {
                    for (o, &y) in out_row.iter_mut().zip(row.iter()) {
                        *o += T::from_f32(y);
                    }
                }
            }
        }
    }
    non_finite
}

/// Run one [`BlockGroup`]: every `(ic-tile, fw-tile, filter row)` block of
/// one oc-tile of one segment. Writes go through `out` — a view of the
/// whole bucket region — into the region this task owns (see
/// [`BucketWriter`]). `slot` pins all scratch draws to one pool slot (the
/// scheduler passes its worker index, keeping each worker's panels
/// cache-resident across tasks). Health counts and phase timings
/// accumulate in locals and flush into their sinks once at the end.
///
/// Every accumulator element sums its products in the `(i, u, b)` step
/// order, `b` fastest, whichever path runs: a filter row's steps are one
/// contiguous slice of both panels (or consecutive windows), and
/// [`micro::rank_k_batch`] gives the same bits for any split of them.
#[allow(clippy::too_many_arguments)]
pub(super) fn run_group<T: Scalar>(
    conv: &ConvShape,
    seg: &Segment,
    t: &TransformReal,
    x: &Tensor4<T>,
    dy: &Tensor4<T>,
    mode: TileMode,
    grp: &BlockGroup,
    slot: usize,
    out: &BucketWriter<T>,
    health: Option<&HealthSink>,
    timing: Option<&TimingSink>,
    scratch: &ScratchPool<'_>,
) {
    debug_assert_eq!(seg.kernel.r, t.r);
    let ops = Operands {
        conv,
        seg,
        seg_idx: grp.seg_idx,
        t,
        x,
        dy,
        mode,
        oc0: grp.oc0,
        bn_cur: grp.bn_cur,
    };
    // Sizes spelled through `ops`, the names the fills' and the output
    // transform's bounds contracts use.
    let alpha = ops.t.alpha;
    let n_out = ops.t.n;
    let bn_cur = ops.bn_cur;
    let bm = grp.bm;
    let bm_c = bm.min(conv.ic);
    let fw_tiles = conv.fw / n_out;
    let count = health.is_some();
    let mut saturated = 0u64;
    let mut non_finite = 0u64;
    let task_start = timing.map(|_| Instant::now());
    let (mut ft_ns, mut it_ns, mut ewmm_ns, mut ot_ns) = (0u64, 0u64, 0u64, 0u64);
    // Main-loop steps per ∇Y row: (unit u, batch b), b fastest.
    let per_row = seg.units * conv.n;
    let (g_lo, x_lo) = (grp.g_lo, grp.x_lo);
    // Bucket index of (oc0, f_h, fw0, ic0).
    let bucket_index = |fh: usize, fw0: usize, ic0: usize| {
        grp.base + ((grp.oc0 * conv.fh + fh) * conv.fw + fw0) * conv.ic + ic0
    };

    // The task's "SMEM", carved from the pool slot this worker is pinned
    // to: the accumulator, the ĝ/d̂ buffers — whole panels, or
    // STAGE-step windows when the panels would pass the cap — and the
    // output rows. Slots arrive dirty — the buffers are fully written by
    // the fills before any read, the accumulator region in use is
    // zero-filled per filter row and the output rows per use, so nothing
    // stale is read.
    // BOUNDS: assume ops.t.alpha >= 1
    // (every transform has α = n + r − 1 ≥ 1; the bounds pass needs the
    // lower bound to close the accumulator-plane indexing proof.)
    let (g_steps, d_steps) = grp.buffer_steps(per_row);
    let need = group_scratch_elems(alpha, n_out, bn_cur, bm_c, g_steps, d_steps);
    scratch.with_slot_at(slot, need, |buf| {
        let (acc, rest) = buf.split_at_mut(alpha * bn_cur * bm_c);
        let (gbuf, rest) = rest.split_at_mut(g_steps * alpha * bn_cur);
        let (dbuf, orows) = rest.split_at_mut(d_steps * alpha * bm_c);
        let mut lap = Lap::start(timing.is_some());
        if grp.panels {
            saturated += fill_filter(&ops, gbuf, g_lo, 0, g_steps);
            lap.lap(&mut ft_ns);
        }
        let mut ic0 = 0;
        while ic0 < conv.ic {
            let bm_cur = bm.min(conv.ic - ic0);
            // The d̂ buffer at this ic tile's width.
            let dbuf = &mut dbuf[..d_steps * alpha * bm_cur];
            let acc = &mut acc[..alpha * bn_cur * bm_cur];
            for ftw in 0..fw_tiles {
                let fw0 = ftw * n_out;
                if grp.panels {
                    saturated += fill_input(&ops, dbuf, x_lo, 0, d_steps, fw0, ic0, bm_cur);
                    lap.lap(&mut it_ns);
                }
                for fh in 0..conv.fh {
                    let (lo, hi) = clip_rows(seg.h0, seg.h1, fh, conv.ph, conv.ih);
                    if lo >= hi {
                        continue; // fully clipped row: adds nothing
                    }
                    // This row's steps read ∇Y rows from `lo` and X rows
                    // from `x0`.
                    let k = (hi - lo) * per_row;
                    let x0 = fh + lo - conv.ph;
                    acc.fill(0.0);
                    let mut s0 = 0;
                    while s0 < k {
                        let kc = STAGE.min(k - s0);
                        // Where the chunk's tiles sit: at their panel
                        // offsets, or at the start of the windows.
                        let (gb, db) = if grp.panels {
                            ((lo - g_lo) * per_row + s0, (x0 - x_lo) * per_row + s0)
                        } else {
                            (0, 0)
                        };
                        // BOUNDS: gb + kc ≤ g_steps — a panel holds every
                        // step of the rows' hull (`BlockGroup::new`), a
                        // window STAGE ≥ kc steps from its start.
                        let gc = &mut gbuf[gb * alpha * bn_cur..(gb + kc) * alpha * bn_cur];
                        // BOUNDS: db + kc ≤ d_steps, as for `gc`.
                        let dc = &mut dbuf[db * alpha * bm_cur..(db + kc) * alpha * bm_cur];
                        if !grp.panels {
                            // Recompute this window's tiles; the time since
                            // the last lap is the previous chunk's fold.
                            lap.lap(&mut ewmm_ns);
                            saturated += fill_filter(&ops, gc, lo, s0, kc);
                            lap.lap(&mut ft_ns);
                            saturated += fill_input(&ops, dc, x0, s0, kc, fw0, ic0, bm_cur);
                            lap.lap(&mut it_ns);
                        }
                        micro::rank_k_batch(acc, gc, dc, alpha, kc);
                        s0 += kc;
                    }
                    lap.lap(&mut ewmm_ns);
                    let dst0 = bucket_index(fh, fw0, ic0);
                    non_finite += output_tile(&ops, acc, orows, out, dst0, bm_cur, count);
                    lap.lap(&mut ot_ns);
                }
            }
            ic0 += bm_cur;
        }
    });
    if let Some(sink) = health {
        sink.record(grp.seg_idx, saturated, non_finite);
    }
    if let (Some(sink), Some(start)) = (timing, task_start) {
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
