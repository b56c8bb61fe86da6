//! The fused `Ω_α(n, r)` kernel engine (paper §5, Algorithm 3).
//!
//! Each segment's workload is processed by a group of
//! `⌈O_C/B_N⌉ × ⌈I_C/B_M⌉ × F_H·(F_W/n)` blocks. A block owns one
//! `(oc-tile, ic-tile, filter-tile)` triple and runs the fully fused main
//! loop: fetch a filter tile (`r` ∇Y values per output channel) and an
//! input tile (`α` X values per input channel), apply the filter transform
//! `G` and input transform `Dᵀ` on the fly, and accumulate the α-batched
//! outer products into `v[α][B_N][B_M]` — the only state that survives the
//! loop. The output transform `Aᵀ` runs once per block at the end, and the
//! result is written to the segment's `∇Ŵ` bucket: bucket 0 is the
//! caller's `∇W` itself, the others the `(Z−1)·|∇W|` overflow region.
//!
//! On this CPU substrate one scheduler task (see [`sched`]) runs every
//! block of one `(segment, oc-tile)` pair — all its ic-tiles, filter-width
//! tiles and filter rows — and `v` lives in the worker's scratch slot
//! instead of registers+SMEM. The GPU must transform each block's tiles
//! again, because SMEM belongs to one block; the task keeps its
//! transformed ĝ tiles (and, per `(ic-tile, fw-tile)`, its d̂ tiles) in
//! panels in that slot and computes each once, for every filter row and
//! channel tile that reads it (see `hot`). The numerics — what is
//! computed, in which precision, in which order — follow Algorithm 3
//! exactly, including:
//!
//! * **height-axis clipping** (Figure 7): for filter row `f_h`, only ∇Y
//!   rows `i` with `0 ≤ f_h + i − p_H < I_H` are visited;
//! * **implicit width padding**: out-of-range X (and phantom ∇Y) columns
//!   read as zero, like the masked texture loads of the FP32 kernels;
//! * **mixed-precision FP16 path**: tiles are loaded in binary16, widened,
//!   transformed in FP32, *re-rounded to binary16* (the SMEM `Gs`/`Ds`
//!   store before `ldmatrix`), multiplied into FP32 accumulators
//!   (Tensor-Core `mma` semantics) and written back in binary16 after the
//!   FP32 output transform.
//!
//! The engine has no public entry point: a [`WinRsPlan`] enters it (its
//! typed `execute_*` entries and [`WinRsPlan::execute_into_buckets`])
//! with the partition and transforms the plan built, so every run
//! executes the planner's configuration.
//!
//! # Numeric health
//!
//! The re-rounding step is where reduced precision can *overflow*: binary16
//! tops out at 65504 and E4M3 at 448, so a transformed tile value that
//! exceeds the format's range becomes Inf (f16/bf16) or NaN (E4M3) and
//! poisons every `∇W` element its segment touches. The engine counts these
//! events — saturations at the rounding step, non-finite values at the
//! output transform — per segment in a [`HealthSink`], so the fallback
//! dispatcher can re-execute only the poisoned buckets at FP32 (see
//! [`crate::fallback`]).

mod clip;
mod hot;

pub use clip::{clip_rows, clip_savings_fraction, clipped_rows_total};
pub use hot::{load_filter_tile, load_input_tile};
pub use winrs_gemm::sched;

use crate::error::{Violation, WinrsError};
use crate::metrics::TimingSink;
use crate::partition::{Partition, Segment};
use crate::plan::WinRsPlan;
use crate::workspace::ScratchPool;
use hot::{run_group, BlockGroup, BucketWriter};
use std::sync::atomic::{AtomicU64, Ordering};
use winrs_gemm::micro::{self, SimdWidth};
use winrs_conv::ConvShape;
use winrs_tensor::{Scalar, Tensor4};
use winrs_winograd::kernels::{fp16_cache_block, fp32_cache_block};

/// Numeric mode of the engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TileMode {
    /// FP32 path: transforms and EWM in f32.
    Fp32,
    /// FP16 path: transformed tiles re-rounded to binary16 before the EWM
    /// (FP32 accumulate).
    Fp16,
    /// BF16 path: tiles re-rounded to bfloat16 (FP32 accumulate). No
    /// scaling matrices needed — bfloat16 shares f32's exponent range.
    Bf16,
    /// FP8 path (conclusion's final porting target): transformed tiles
    /// re-rounded to OCP E4M3 before the EWM, FP32 accumulate. Requires the
    /// row-scaled transforms (E4M3 tops out at 448).
    Fp8,
}

impl TileMode {
    /// Stable lowercase name (reports, the serve protocol).
    pub fn name(self) -> &'static str {
        match self {
            TileMode::Fp32 => "fp32",
            TileMode::Fp16 => "fp16",
            TileMode::Bf16 => "bf16",
            TileMode::Fp8 => "fp8",
        }
    }
}

/// Per-segment numeric-health counters, filled in by the engine while it
/// runs. Index 0 counts *saturations* (a finite FP32 value that became
/// non-finite when re-rounded to the reduced format); index 1 counts
/// *non-finite outputs* (NaN/Inf reaching the output transform).
///
/// Saturations are counted per transformed element once per panel fill:
/// a block task transforms each ĝ tile once and each d̂ tile once per
/// `(ic-tile, fw-tile)`, then reads them for every filter row, so an
/// overflowing element counts once however many rows reuse it. (Only a
/// task that windows, past the panel cap, recomputes — and recounts — a
/// tile per filter row.) Either count being non-zero poisons the segment
/// all the same.
#[derive(Debug)]
pub struct HealthSink {
    counters: Vec<[AtomicU64; 2]>,
}

impl HealthSink {
    /// A sink with one counter pair per segment of the partition.
    pub fn new(num_segments: usize) -> HealthSink {
        HealthSink {
            counters: (0..num_segments)
                .map(|_| [AtomicU64::new(0), AtomicU64::new(0)])
                .collect(),
        }
    }

    /// Add a block task's local counts to segment `seg`'s totals.
    pub fn record(&self, seg: usize, saturated: u64, non_finite: u64) {
        if saturated > 0 {
            // ORDERING: independent event counter — readers only consume
            // totals after the scheduler scope joins (a happens-before edge).
            self.counters[seg][0].fetch_add(saturated, Ordering::Relaxed);
        }
        if non_finite > 0 {
            // ORDERING: as above — post-join consumption only.
            self.counters[seg][1].fetch_add(non_finite, Ordering::Relaxed);
        }
    }

    /// Saturation count for one segment.
    pub fn saturated(&self, seg: usize) -> u64 {
        self.counters[seg][0].load(Ordering::Relaxed) // ORDERING: post-join read, no ordering needed
    }

    /// Non-finite-output count for one segment.
    pub fn non_finite(&self, seg: usize) -> u64 {
        self.counters[seg][1].load(Ordering::Relaxed) // ORDERING: post-join read, no ordering needed
    }

    /// Totals over all segments: `(saturated, non_finite)`.
    pub fn totals(&self) -> (u64, u64) {
        self.counters.iter().fold((0, 0), |(s, n), c| {
            (
                // ORDERING: post-join reads, no ordering needed
                s + c[0].load(Ordering::Relaxed),
                n + c[1].load(Ordering::Relaxed),
            )
        })
    }

    /// Indices of segments whose results cannot be trusted (any saturation
    /// or non-finite output).
    pub fn poisoned_segments(&self) -> Vec<usize> {
        (0..self.counters.len())
            .filter(|&s| self.saturated(s) > 0 || self.non_finite(s) > 0)
            .collect()
    }

    /// True when no segment recorded any event.
    pub fn is_clean(&self) -> bool {
        self.totals() == (0, 0)
    }

    /// Number of segments this sink covers.
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// True when the sink covers no segments.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }

    /// Zero every counter, so one sink can be reused across runs (the
    /// [`crate::Workspace`] reuse contract).
    pub fn reset(&self) {
        for c in &self.counters {
            // ORDERING: reset happens between runs, never concurrently
            // with recording writers; Relaxed stores are sufficient.
            c[0].store(0, Ordering::Relaxed);
            c[1].store(0, Ordering::Relaxed);
        }
    }
}

impl Default for HealthSink {
    fn default() -> HealthSink {
        HealthSink::new(0)
    }
}

/// Optional behaviours of [`WinRsPlan::execute_into_buckets`].
#[derive(Clone, Copy, Default)]
pub struct ExecOptions<'a, 'p> {
    /// When set (length `plan.z()`), only buckets with a `true` entry are
    /// executed (and rewritten) — used by the numeric guard to re-run just
    /// the poisoned buckets at FP32.
    pub bucket_filter: Option<&'a [bool]>,
    /// When set, the engine flushes per-segment saturation / non-finite
    /// counts into the sink (at least `plan.partition().segments.len()`
    /// counter pairs; a workspace's sink only grows).
    pub health: Option<&'a HealthSink>,
    /// When set, block tasks draw their panels and accumulator from
    /// this pool (carved from a [`crate::Workspace`] arena) instead of
    /// allocating; when `None` the engine provisions a transient pool of
    /// its own, so the block loop never `vec!`s per block either way.
    pub scratch: Option<&'a ScratchPool<'p>>,
    /// When set, block tasks time their FT/IT/EWMM/OT phases with local
    /// counters and flush them into the sink once per task — same
    /// discipline as `health`. `None` reads no per-block clock; no
    /// dispatch sets it, [`crate::metrics::time_block_loop`] does.
    pub timing: Option<&'a TimingSink>,
    /// Worker threads for the block-group scheduler (see [`sched`]). When
    /// `None`, one worker per hardware thread ([`sched::workers`]).
    /// `Some(1)` runs the whole pass on the calling thread with no queues
    /// at all.
    pub workers: Option<usize>,
}

/// The engine's cache-block geometry `(B_N, B_M)` for `mode` at transform
/// size `alpha`.
pub fn cache_block(mode: TileMode, alpha: usize) -> (usize, usize) {
    match mode {
        TileMode::Fp32 => fp32_cache_block(alpha),
        TileMode::Fp16 | TileMode::Bf16 | TileMode::Fp8 => fp16_cache_block(alpha),
    }
}

/// Largest scratch requirement over every block group of `partition` —
/// the slot size a [`crate::WorkspaceLayout`] must provision so no task
/// ever overflows its slot. Each group needs its accumulator, output rows
/// and either its full ĝ/d̂ panels or [`hot::STAGE`]-step windows, so the
/// slot never exceeds the accumulator plus `PANEL_CAP_BYTES` of panels,
/// whatever N·H·W is.
pub fn scratch_slot_elems_for(conv: &ConvShape, partition: &Partition, mode: TileMode) -> usize {
    (0..=1u8)
        .flat_map(|pass| block_groups(conv, partition, mode, pass, |_| true))
        .map(|g| g.scratch_elems(conv, &partition.segments[g.seg_idx]))
        .max()
        .unwrap_or(0)
}

/// Scratch slots worth provisioning: one per hardware thread, capped at
/// the largest number of block groups (one per segment and oc-tile) any
/// launch pass can run at once.
pub fn scratch_slots_for(conv: &ConvShape, partition: &Partition, mode: TileMode) -> usize {
    let tasks_in_pass = |pass: u8| -> usize {
        partition
            .segments
            .iter()
            .filter(|s| s.pass == pass)
            .map(|s| conv.oc.div_ceil(cache_block(mode, s.kernel.alpha()).0))
            .sum()
    };
    let max_tasks = tasks_in_pass(0).max(tasks_in_pass(1));
    sched::workers().min(max_tasks).max(1)
}

/// One [`Violation::TensorDimsMismatch`] per operand whose dims disagree
/// with `conv` (`x` first, then `dy`); empty when both fit. The engine and
/// `ExecHandle`'s per-job routine both check operands here, so every
/// dispatch rung refuses a mis-shaped operand the same way.
pub(crate) fn operand_violations<T: Scalar>(
    conv: &ConvShape,
    x: &Tensor4<T>,
    dy: &Tensor4<T>,
) -> Vec<Violation> {
    Violation::dims_mismatches([
        ("x", [conv.n, conv.ih, conv.iw, conv.ic], x.dims()),
        ("dy", [conv.n, conv.oh(), conv.ow(), conv.oc], dy.dims()),
    ])
}

/// Execute all segments of `plan`, writing each segment's result into
/// its bucket with the plan's own transforms, under the optional
/// behaviours of [`ExecOptions`] (bucket filtering for partial
/// re-execution, numeric-health accounting). The engine's one entry:
/// [`WinRsPlan::execute_into_buckets`], the typed `execute_*` and the
/// guarded executor reach it.
///
/// Bucket 0 is `dw` itself (`|∇W|` elements) and bucket `z ≥ 1` is
/// `overflow[(z−1)·|∇W| .. z·|∇W|]` (`(Z−1)·|∇W|` elements in all), each in
/// `(O_C, F_H, F_W, I_C)` layout — the paper's workspace "logically
/// concatenated with `∇W` into `Z` buckets". Nothing is zeroed first: the
/// first writer of every bucket row stores its sum (see `block_groups`),
/// so whatever the buckets held is never read. Execution runs in two
/// sequential passes (bulk kernel launch, then residual kernel launch);
/// within a pass every segment owns a distinct bucket, so segments
/// parallelise freely.
///
/// Returns a typed [`WinrsError::ExecutionRejected`] listing *every*
/// argument inconsistency (bucket lengths, a mis-sized `bucket_filter` or
/// `health` sink, `x` dims, `dy` dims, an unavailable `WINRS_FORCE_WIDTH`
/// pin) instead of panicking.
pub(crate) fn execute_segments_with<T: Scalar>(
    plan: &WinRsPlan,
    x: &Tensor4<T>,
    dy: &Tensor4<T>,
    mode: TileMode,
    dw: &mut [T],
    overflow: &mut [T],
    opts: ExecOptions<'_, '_>,
) -> Result<(), WinrsError> {
    let (conv, partition) = (plan.shape(), plan.partition());
    let dw_elems = conv.dw_elems();
    let mut violations = Vec::new();
    // `∇W` and the overflow are the Z buckets, refused as one buffer.
    let held = dw.len() + overflow.len();
    if dw.len() != dw_elems || held != plan.bucket_elems() {
        violations.push(Violation::BucketSizeMismatch {
            expected: plan.bucket_elems(),
            got: held,
        });
    }
    if let Some(filter) = opts.bucket_filter.filter(|f| f.len() != plan.z()) {
        violations.push(Violation::OptionSizeMismatch {
            option: "bucket_filter",
            expected: plan.z(),
            got: filter.len(),
        });
    }
    let segments = partition.segments.len();
    if let Some(health) = opts.health.filter(|h| h.len() < segments) {
        violations.push(Violation::OptionSizeMismatch {
            option: "health",
            expected: segments,
            got: health.len(),
        });
    }
    violations.extend(operand_violations(conv, x, dy));
    if let Err(v) = apply_forced_width() {
        violations.push(v);
    }
    if !violations.is_empty() {
        return Err(WinrsError::ExecutionRejected(violations));
    }
    // A bucket no segment writes has no first writer to store into it:
    // zero it. The partition builder makes no such bucket.
    let (bulk, residual) = (partition.bucket_owners(0), partition.bucket_owners(1));
    let enabled = |bucket: usize| opts.bucket_filter.is_none_or(|f| f[bucket]);
    for z in (0..plan.z()).filter(|&z| enabled(z) && bulk[z].is_none() && residual[z].is_none()) {
        let bucket = match z {
            0 => &mut *dw,
            _ => &mut overflow[(z - 1) * dw_elems..z * dw_elems],
        };
        bucket.fill(T::ZERO);
    }
    let buckets = BucketWriter::new(dw, overflow);

    // ScratchPool is invariant in its region lifetime, so a caller pool
    // and a locally-built one cannot share a binding — both branches call
    // into the pass loop directly instead.
    match opts.scratch {
        Some(pool) => run_passes(plan, x, dy, mode, &buckets, opts, pool),
        None => {
            let slot_elems = scratch_slot_elems_for(conv, partition, mode);
            let slots = scratch_slots_for(conv, partition, mode);
            let mut arena = vec![0.0f32; ScratchPool::region_elems(slot_elems, slots)];
            let pool = ScratchPool::new(&mut arena, slot_elems);
            run_passes(plan, x, dy, mode, &buckets, opts, &pool);
        }
    }
    Ok(())
}

/// Apply the `WINRS_FORCE_WIDTH` environment override, read at the top of
/// every `ExecHandle` job and every engine entry: parse the token, pin the
/// kernel family to that member, and convert any failure — junk token or
/// an unavailable width — into a typed [`Violation::SimdWidthUnavailable`]
/// instead of a silent fallback. Absent/empty leaves the current dispatch
/// state (detected or programmatically pinned) untouched. Returns the
/// width that was pinned, if any.
pub fn apply_forced_width() -> Result<Option<SimdWidth>, Violation> {
    let Ok(raw) = std::env::var(micro::FORCE_WIDTH_ENV) else {
        return Ok(None);
    };
    if raw.is_empty() {
        return Ok(None);
    }
    let pinned = request_width(&raw)?;
    Ok(Some(pinned))
}

/// Pin the kernel family to the width named by `token` (the CLI's
/// `--force-width` path; [`apply_forced_width`] routes the environment
/// override through here). Junk tokens and unavailable widths both come
/// back as a typed [`Violation::SimdWidthUnavailable`].
pub fn request_width(token: &str) -> Result<SimdWidth, Violation> {
    let Some(w) = SimdWidth::parse(token) else {
        return Err(Violation::SimdWidthUnavailable {
            requested: token.to_string(),
            detected: micro::detected_width().name(),
        });
    };
    match micro::force_width(Some(w)) {
        Ok(()) => Ok(w),
        Err(e) => Err(Violation::SimdWidthUnavailable {
            requested: token.to_string(),
            detected: e.detected.name(),
        }),
    }
}

/// One launch pass's scheduler tasks in their deterministic order —
/// bucket-major, then oc-tile: one [`BlockGroup`] per oc-tile of every
/// segment of `pass` whose bucket `enabled` keeps. A group runs every
/// filter row, so each ĝ tile is transformed once per (segment, oc-tile).
///
/// A segment writes every element of its bucket exactly once, so the
/// partition fixes each bucket's first writer: every bulk-pass owner, and
/// a residual-pass owner whose bucket has no bulk owner. Those groups
/// store their sums; a residual group adds onto what the bulk pass stored.
/// A bucket filter keeps or drops both passes of a bucket together, so
/// the rule holds for a partial re-run too.
fn block_groups(
    conv: &ConvShape,
    partition: &Partition,
    mode: TileMode,
    pass: u8,
    enabled: impl Fn(usize) -> bool,
) -> Vec<BlockGroup> {
    let mut groups = Vec::new();
    // Bucket -> owning segment for this pass, precomputed at partition
    // build.
    for (z, owner) in partition.bucket_owners(pass).iter().copied().enumerate() {
        let Some(seg_idx) = owner else { continue };
        let segment: &Segment = &partition.segments[seg_idx];
        if !enabled(segment.bucket) {
            continue;
        }
        let store = pass == 0 || partition.bucket_owners(0)[z].is_none();
        let bn = cache_block(mode, segment.kernel.alpha()).0;
        for oc0 in (0..conv.oc).step_by(bn) {
            groups.push(BlockGroup::new(
                conv,
                segment,
                seg_idx,
                mode,
                (z, store),
                oc0,
            ));
        }
    }
    groups
}

/// The two sequential launch passes over argument-validated buckets,
/// drawing all block scratch from `scratch`.
///
/// Each pass builds its deterministic list of [`BlockGroup`]s and hands it
/// to the work-stealing scheduler ([`sched::run_tasks`]). Workers keep
/// their groups' panels in a pinned [`ScratchPool`] slot
/// (`with_slot_at(worker, ..)`), and every group writes its own disjoint
/// bucket region, so `∇W` is bitwise identical for every worker count and
/// steal order.
fn run_passes<T: Scalar>(
    plan: &WinRsPlan,
    x: &Tensor4<T>,
    dy: &Tensor4<T>,
    mode: TileMode,
    buckets: &BucketWriter<T>,
    opts: ExecOptions<'_, '_>,
    scratch: &ScratchPool<'_>,
) {
    let (conv, partition) = (plan.shape(), plan.partition());
    let enabled = |bucket: usize| opts.bucket_filter.is_none_or(|f| f[bucket]);
    let workers = opts.workers.unwrap_or_else(sched::workers).max(1);
    for pass in 0..=1u8 {
        let groups = block_groups(conv, partition, mode, pass, enabled);
        sched::run_tasks(groups, workers, |worker, grp: BlockGroup| {
            let segment = &partition.segments[grp.seg_idx];
            run_group(
                conv,
                segment,
                plan.transform(segment.kernel),
                x,
                dy,
                mode,
                &grp,
                worker,
                buckets,
                opts.health,
                opts.timing,
                scratch,
            );
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Precision;
    use winrs_conv::direct::bfc_direct;
    use winrs_gpu_sim::RTX_4090;
    use winrs_tensor::mare;

    /// The FP32 plan for `conv` at a forced baseline segment count `Ẑ`.
    fn plan(conv: &ConvShape, z_hat: usize) -> WinRsPlan {
        WinRsPlan::with_z_hat(conv, &RTX_4090, Precision::Fp32, z_hat).expect("in-envelope shape")
    }

    fn run_f32(conv: &ConvShape, z_hat: usize) -> f64 {
        let plan = plan(conv, z_hat);

        let x64 = Tensor4::<f64>::random_uniform([conv.n, conv.ih, conv.iw, conv.ic], 71, 1.0);
        let dy64 = Tensor4::<f64>::random_uniform([conv.n, conv.oh(), conv.ow(), conv.oc], 72, 1.0);
        let exact = bfc_direct(conv, &x64, &dy64);
        let x = x64.cast::<f32>();
        let dy = dy64.cast::<f32>();

        let dw = plan.execute_f32(&x, &dy).expect("valid arguments");
        mare(&dw, &exact)
    }

    #[test]
    fn fused_engine_matches_direct_fw3() {
        let conv = ConvShape::new(2, 16, 16, 4, 6, 3, 3, 1, 1);
        let m = run_f32(&conv, 4);
        assert!(m < 1e-5, "MARE {m}");
    }

    #[test]
    fn fused_engine_matches_direct_single_segment() {
        let conv = ConvShape::new(1, 12, 12, 3, 3, 3, 3, 1, 1);
        let m = run_f32(&conv, 1);
        assert!(m < 1e-5, "MARE {m}");
    }

    #[test]
    fn fused_engine_matches_direct_many_segments() {
        let conv = ConvShape::new(2, 24, 24, 2, 2, 3, 3, 1, 1);
        let m = run_f32(&conv, 16);
        assert!(m < 1e-5, "MARE {m}");
    }

    #[test]
    fn fused_engine_handles_even_filters() {
        let conv = ConvShape::new(1, 14, 14, 2, 2, 4, 4, 2, 2);
        let m = run_f32(&conv, 4);
        assert!(m < 1e-5, "MARE {m}");
    }

    #[test]
    fn fused_engine_handles_large_filters() {
        let conv = ConvShape::new(1, 18, 18, 2, 2, 9, 9, 4, 4);
        let m = run_f32(&conv, 2);
        assert!(m < 1e-4, "MARE {m}");
    }

    #[test]
    fn fused_engine_handles_phantom_padding() {
        // F_W = 5, odd O_W: pair selection pads the row with a phantom
        // column; results must still be exact.
        let conv = ConvShape::new(1, 11, 11, 2, 2, 5, 5, 2, 2);
        assert_eq!(conv.ow() % 2, 1);
        let m = run_f32(&conv, 2);
        assert!(m < 1e-5, "MARE {m}");
    }

    #[test]
    fn fused_engine_no_padding_case() {
        let conv = ConvShape::new(2, 13, 17, 3, 2, 2, 2, 0, 0);
        let m = run_f32(&conv, 3);
        assert!(m < 1e-5, "MARE {m}");
    }

    #[test]
    fn bad_arguments_are_rejected_with_all_violations() {
        let conv = ConvShape::new(1, 12, 12, 3, 3, 3, 3, 1, 1);
        let plan = plan(&conv, 2);
        // Wrong bucket length AND wrong x dims AND wrong dy dims, at once.
        let x = Tensor4::<f32>::zeros([1, 12, 12, 2]); // ic 2, plan wants 3
        let dy = Tensor4::<f32>::zeros([1, 11, 12, 3]); // oh 11, plan wants 12
        let mut buckets = vec![0.0f32; crate::NUMERIC_HEALTH_BUCKETS];
        let err = plan
            .execute_into_buckets(
                &x,
                &dy,
                TileMode::Fp32,
                &mut buckets,
                ExecOptions::default(),
            )
            .unwrap_err();
        assert!(matches!(err, WinrsError::ExecutionRejected(_)));
        assert_eq!(err.violations().len(), 3, "{err}");
        assert!(!err.recoverable_by_fallback());
    }

    /// A bucket filter or health sink sized for another plan is refused
    /// typed, one violation per option, listed with the bucket and operand
    /// violations: a short filter, a long filter and a short sink on an
    /// FP16 run whose ∇Y overflows all used to index out of bounds or pass.
    #[test]
    fn mis_sized_options_are_refused_with_every_violation() {
        let conv = ConvShape::new(1, 12, 12, 2, 2, 3, 3, 1, 1);
        let plan = plan(&conv, 4);
        let (z, segments) = (plan.z(), plan.partition().segments.len());
        assert!(z >= 2 && segments >= 2, "test needs several buckets");
        let x = Tensor4::<f32>::from_fn([1, 12, 12, 2], |_, _, _, _| 1.0);
        let dy = Tensor4::<f32>::from_fn([1, 12, 12, 2], |_, _, _, _| 6.0e4);
        let mismatch = |option, expected, got| Violation::OptionSizeMismatch {
            option,
            expected,
            got,
        };
        let short_sink = HealthSink::new(1);
        let (short, long) = (vec![true; 1], vec![true; z + 1]);
        let refuse = |filter: Option<&[bool]>, health: Option<&HealthSink>, buckets: usize| {
            let mut buckets = vec![0.0f32; buckets];
            let opts = ExecOptions {
                bucket_filter: filter,
                health,
                ..Default::default()
            };
            plan.execute_into_buckets(&x, &dy, TileMode::Fp16, &mut buckets, opts)
                .expect_err("mis-sized option accepted")
                .violations()
                .to_vec()
        };
        let full = plan.bucket_elems();
        assert_eq!(
            refuse(Some(&short), None, full),
            [mismatch("bucket_filter", z, 1)]
        );
        assert_eq!(
            refuse(Some(&long), None, full),
            [mismatch("bucket_filter", z, z + 1)]
        );
        assert_eq!(
            refuse(None, Some(&short_sink), full),
            [mismatch("health", segments, 1)]
        );
        // Both options and the bucket length at once, in argument order.
        assert_eq!(
            refuse(Some(&short), Some(&short_sink), 7),
            [
                Violation::BucketSizeMismatch {
                    expected: full,
                    got: 7
                },
                mismatch("bucket_filter", z, 1),
                mismatch("health", segments, 1),
            ]
        );
        // A sink longer than the segment count (a workspace's grow-only
        // sink) is accepted.
        let long_sink = HealthSink::new(segments + 3);
        let mut buckets = vec![0.0f32; full];
        plan.execute_into_buckets(
            &x,
            &dy,
            TileMode::Fp16,
            &mut buckets,
            ExecOptions {
                health: Some(&long_sink),
                ..Default::default()
            },
        )
        .expect("a longer sink fits");
        assert!(long_sink.totals().0 > 0, "overflow counted");
    }

    /// `neon` names no member of the family: like any unknown token it is
    /// refused typed, naming the width this host detected, and pins
    /// nothing.
    #[test]
    fn neon_is_an_unknown_width_token() {
        for token in ["neon", "avx1024"] {
            assert_eq!(
                request_width(token),
                Err(Violation::SimdWidthUnavailable {
                    requested: token.to_string(),
                    detected: micro::detected_width().name(),
                }),
                "{token}"
            );
        }
    }

    #[test]
    fn health_sink_is_clean_on_benign_data() {
        let conv = ConvShape::new(1, 12, 12, 2, 2, 3, 3, 1, 1);
        let plan = plan(&conv, 2);
        let x = Tensor4::<f32>::random_uniform([1, 12, 12, 2], 5, 1.0);
        let dy = Tensor4::<f32>::random_uniform([1, 12, 12, 2], 6, 1.0);
        let mut buckets = vec![0.0f32; plan.bucket_elems()];
        let sink = HealthSink::new(plan.partition().segments.len());
        plan.execute_into_buckets(
            &x,
            &dy,
            TileMode::Fp16,
            &mut buckets,
            ExecOptions {
                health: Some(&sink),
                ..Default::default()
            },
        )
        .expect("valid arguments");
        assert!(sink.is_clean(), "{:?}", sink.totals());
        assert!(sink.poisoned_segments().is_empty());
    }

    #[test]
    fn health_sink_counts_fp16_overflow() {
        // ∇Y values of 6e4 exceed binary16's 65504 as soon as any G row
        // sums two of them, so the re-rounding step must saturate and the
        // resulting Inf must reach the output transform as non-finite.
        let conv = ConvShape::new(1, 12, 12, 2, 2, 3, 3, 1, 1);
        let plan = plan(&conv, 2);
        let x = Tensor4::<f32>::from_fn([1, 12, 12, 2], |_, _, _, _| 1.0);
        let dy = Tensor4::<f32>::from_fn([1, 12, 12, 2], |_, _, _, _| 6.0e4);
        let mut buckets = vec![0.0f32; plan.bucket_elems()];
        let sink = HealthSink::new(plan.partition().segments.len());
        plan.execute_into_buckets(
            &x,
            &dy,
            TileMode::Fp16,
            &mut buckets,
            ExecOptions {
                health: Some(&sink),
                ..Default::default()
            },
        )
        .expect("valid arguments");
        let (sat, nonfin) = sink.totals();
        assert!(sat > 0, "expected saturations, got {sat}");
        assert!(nonfin > 0, "expected non-finite outputs, got {nonfin}");
        assert!(!sink.poisoned_segments().is_empty());
    }

    #[test]
    fn timing_sink_counts_every_block_task() {
        let conv = ConvShape::new(2, 16, 16, 4, 6, 3, 3, 1, 1);
        let plan = plan(&conv, 4);
        let x = Tensor4::<f32>::random_uniform([2, 16, 16, 4], 11, 1.0);
        let dy = Tensor4::<f32>::random_uniform([2, 16, 16, 6], 12, 1.0);
        let mut buckets = vec![0.0f32; plan.bucket_elems()];
        let sink = crate::metrics::TimingSink::new();
        plan.execute_into_buckets(
            &x,
            &dy,
            TileMode::Fp32,
            &mut buckets,
            ExecOptions {
                timing: Some(&sink),
                ..Default::default()
            },
        )
        .expect("valid arguments");
        // One timed block per scheduler task: a group covers every filter
        // row of one oc-tile of one segment.
        let expected: usize = plan
            .partition()
            .segments
            .iter()
            .map(|s| {
                conv.oc
                    .div_ceil(cache_block(TileMode::Fp32, s.kernel.alpha()).0)
            })
            .sum();
        assert_eq!(sink.blocks() as usize, expected);
        assert!(sink.ft_ns() > 0, "FT untimed");
        assert!(sink.it_ns() > 0, "IT untimed");
        assert!(sink.ewmm_ns() > 0, "EWMM untimed");
        assert!(sink.ot_ns() > 0, "OT untimed");
        assert!(sink.max_ns() >= sink.min_ns());
        // Each task's wall time covers its four phases, so the busy total
        // must dominate the phase sum.
        let phases = sink.ft_ns() + sink.it_ns() + sink.ewmm_ns() + sink.ot_ns();
        assert!(sink.busy_ns() >= phases, "{} < {phases}", sink.busy_ns());
    }

    /// The block loop's scratch request and the plan's slot size come from
    /// one formula; were they to diverge, `ScratchPool::with_slot_at` would
    /// silently heap-allocate every block. Every kernel α at both
    /// precisions, with channel counts below, at and past each cache block.
    #[test]
    fn plan_runs_never_overflow_their_scratch_slot() {
        use crate::fallback::{run_planned_into, NumericGuard};
        use crate::Workspace;
        use std::collections::BTreeSet;

        // (filter size, map size) picks the kernel pair; see the α sets
        // asserted below.
        let cases = [
            (2usize, 6usize, Precision::Fp32), // Ω2(1,2) + Ω4(2,3)
            (3, 12, Precision::Fp32),          // Ω8(3,6)
            (5, 12, Precision::Fp32),          // Ω16(5,12)
            (3, 8, Precision::Fp16),           // Ω8(3,6) + Ω4(3,2)
            (9, 13, Precision::Fp16),          // Ω16(9,8)
        ];
        let chans = [1usize, 5, 37, 70, 130];
        let (mut fp32_alphas, mut fp16_alphas) = (BTreeSet::new(), BTreeSet::new());
        for (f, res, precision) in cases {
            for (ci, &ic) in chans.iter().enumerate() {
                let oc = chans[(ci + 2) % chans.len()];
                let conv = ConvShape::new(1, res, res, ic, oc, f, f, f / 2, f / 2);
                let plan = WinRsPlan::new(&conv, &RTX_4090, precision).expect("in-envelope shape");
                let seen = match precision {
                    Precision::Fp32 => &mut fp32_alphas,
                    _ => &mut fp16_alphas,
                };
                seen.extend(plan.partition().segments.iter().map(|s| s.kernel.alpha()));
                let x = Tensor4::<f32>::random_uniform([1, res, res, ic], 31, 1.0);
                let dy = Tensor4::<f32>::random_uniform([1, conv.oh(), conv.ow(), oc], 32, 1.0);
                let mut dw = Tensor4::<f32>::zeros([oc, f, f, ic]);
                let mut ws = Workspace::new();
                let report =
                    run_planned_into(&plan, &x, &dy, NumericGuard::Ignore, &mut ws, &mut dw)
                        .expect("valid arguments");
                assert_eq!(
                    report.mem.hot_loop_allocs, 0,
                    "{precision:?} f={f} ic={ic} oc={oc}: scratch slot overflowed"
                );
            }
        }
        assert_eq!(fp32_alphas, BTreeSet::from([2, 4, 8, 16]));
        // No FP16 port of the α = 2 kernel exists.
        assert_eq!(fp16_alphas, BTreeSet::from([4, 8, 16]));
    }

    /// With panels, a task transforms each ĝ tile it needs exactly once
    /// and each d̂ tile once per (ic-tile, fw-tile): the counts equal the
    /// distinct ∇Y rows and X rows the segment's filter rows read (from
    /// `clip_rows` directly), times the steps per row. Two ic tiles, two
    /// oc tiles and three filter-width tiles at f = 9.
    #[test]
    fn panels_transform_each_tile_once_per_task() {
        use std::collections::BTreeSet;
        let conv = ConvShape::new(2, 14, 14, 37, 70, 9, 9, 4, 4);
        let plan = plan(&conv, 2);
        let partition = plan.partition();
        let x = Tensor4::<f32>::random_uniform([2, 14, 14, 37], 3, 1.0);
        let dy = Tensor4::<f32>::random_uniform([2, conv.oh(), conv.ow(), 70], 4, 1.0);
        let mut buckets = vec![0.0f32; plan.bucket_elems()];
        hot::TRANSFORMED.with(|c| c.set((0, 0)));
        plan.execute_into_buckets(
            &x,
            &dy,
            TileMode::Fp32,
            &mut buckets,
            ExecOptions {
                workers: Some(1),
                ..Default::default()
            },
        )
        .expect("valid arguments");
        let (mut want_g, mut want_d) = (0u64, 0u64);
        for seg in &partition.segments {
            let (bn, bm) = cache_block(TileMode::Fp32, seg.kernel.alpha());
            let (mut g_rows, mut x_rows) = (BTreeSet::new(), BTreeSet::new());
            for fh in 0..conv.fh {
                let (lo, hi) = clip_rows(seg.h0, seg.h1, fh, conv.ph, conv.ih);
                g_rows.extend(lo..hi);
                x_rows.extend((lo..hi).map(|i| fh + i - conv.ph));
            }
            let per_row = (seg.units * conv.n) as u64;
            let oc_tiles = conv.oc.div_ceil(bn) as u64;
            let inner = (conv.ic.div_ceil(bm) * (conv.fw / seg.kernel.n)) as u64;
            want_g += oc_tiles * g_rows.len() as u64 * per_row;
            want_d += oc_tiles * inner * x_rows.len() as u64 * per_row;
        }
        assert!(partition.segments.len() >= 2 && want_g > 0);
        assert_eq!(hot::TRANSFORMED.with(|c| c.get()), (want_g, want_d));
    }

    /// Small shapes keep full panels; a segment whose panels pass the cap
    /// windows, and its slot stays at the windowed size.
    #[test]
    fn groups_window_only_past_the_panel_cap() {
        let small = ConvShape::new(2, 16, 16, 4, 6, 3, 3, 1, 1);
        let small_plan = plan(&small, 4);
        let partition = small_plan.partition();
        for pass in 0..=1u8 {
            assert!(
                block_groups(&small, partition, TileMode::Fp32, pass, |_| true)
                    .iter()
                    .all(|g| g.panels)
            );
        }
        // One 64-row segment of 10 images: 3 MiB of panels at α = 8.
        let big = ConvShape::new(10, 64, 64, 8, 8, 3, 3, 1, 1);
        let big_plan = plan(&big, 1);
        let partition = big_plan.partition();
        let bulk = block_groups(&big, partition, TileMode::Fp32, 0, |_| true);
        assert!(!bulk.is_empty() && bulk.iter().all(|g| !g.panels));
        for g in &bulk {
            let slot = g.scratch_elems(&big, &partition.segments[g.seg_idx]);
            assert!(slot * 4 < hot::PANEL_CAP_BYTES / 8, "windowed slot {slot}");
        }
    }

    /// Scratch per worker is independent of N·H·W: on N = 32 paper-sweep
    /// shapes (FP32 and FP16, Z from Algorithm 1) the slot never exceeds
    /// the largest accumulator and output rows plus the panel cap.
    #[test]
    fn paper_sweep_slot_stays_within_the_panel_cap() {
        let fixed_max = [TileMode::Fp32, TileMode::Fp16]
            .iter()
            .flat_map(|&m| [2usize, 4, 8, 16].map(|a| (m, a)))
            .map(|(m, a)| {
                let (bn, bm) = cache_block(m, a);
                a * bn * bm + a * bm
            })
            .max()
            .unwrap_or(0);
        let cap_elems = hot::PANEL_CAP_BYTES / std::mem::size_of::<f32>();
        for (res, c, f, precision) in [
            (224usize, 64usize, 3usize, Precision::Fp32),
            (56, 256, 5, Precision::Fp32),
            (112, 128, 9, Precision::Fp16),
            (28, 512, 7, Precision::Fp16),
        ] {
            let conv = ConvShape::square(32, res, c, c, f);
            let plan = WinRsPlan::new(&conv, &RTX_4090, precision).expect("in-envelope shape");
            let slot = scratch_slot_elems_for(&conv, plan.partition(), plan.tile_mode());
            assert!(
                slot <= fixed_max + cap_elems,
                "32×{res}²×{c} f={f} {precision:?}: slot {slot} > {fixed_max} + {cap_elems}"
            );
        }
    }

    #[test]
    fn bucket_filter_executes_only_selected_buckets() {
        let conv = ConvShape::new(1, 16, 16, 2, 2, 3, 3, 1, 1);
        let plan = plan(&conv, 4);
        assert!(plan.z() >= 2, "test needs multiple buckets");
        let x = Tensor4::<f32>::random_uniform([1, 16, 16, 2], 9, 1.0);
        let dy = Tensor4::<f32>::random_uniform([1, 16, 16, 2], 10, 1.0);
        let dw = conv.dw_elems();

        // Full run for reference.
        let mut full = vec![0.0f32; plan.bucket_elems()];
        plan.execute_into_buckets(&x, &dy, TileMode::Fp32, &mut full, ExecOptions::default())
            .expect("valid arguments");

        // Filtered run: poison all buckets with sentinels, enable only
        // bucket 0; it must be recomputed, the rest must keep sentinels.
        let mut filtered = vec![7.25f32; plan.bucket_elems()];
        let mut filter = vec![false; plan.z()];
        filter[0] = true;
        plan.execute_into_buckets(
            &x,
            &dy,
            TileMode::Fp32,
            &mut filtered,
            ExecOptions {
                bucket_filter: Some(&filter),
                ..Default::default()
            },
        )
        .expect("valid arguments");
        assert_eq!(filtered[..dw], full[..dw], "enabled bucket recomputed");
        assert!(
            filtered[dw..].iter().all(|&v| v == 7.25),
            "disabled buckets untouched"
        );
    }
}
