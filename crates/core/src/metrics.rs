//! Phase-level timing observability: the dispatch's wall clock, and the
//! FT/IT/EWMM/OT busy split measured on request.
//!
//! Algorithm 3 fuses the filter transform (FT), input transform (IT),
//! α-batched element-wise multiply–accumulate (EWMM) and output transform
//! (OT) into one kernel with no timers in it, and the bucket reduction
//! follows. Two clocks account for that on the CPU substrate:
//!
//! * [`PhaseTimings`] — the wall phases attached to every
//!   [`crate::ExecutionReport`]: plan, block loop, promote-retry and
//!   reduce, a handful of clock reads per dispatch and none per block.
//! * [`TimingSink`] — an atomic accumulator the engine flushes once per
//!   block task — one scheduler task, every filter row of one oc-tile of
//!   one segment — (mirroring [`crate::engine::HealthSink`]'s flush
//!   discipline), collecting per-phase *busy* nanoseconds summed across
//!   worker threads plus per-task min/max/total wall time. It performs no
//!   heap allocation, so the zero-`hot_loop_allocs` contract holds while
//!   profiling.
//!
//! The engine reads per-block clocks only when its caller passes a sink
//! (`ExecOptions::timing`), and no dispatch does: [`time_block_loop`] runs
//! one timed pass of a plan on request (`winrs profile`); perfbench's
//! traced replay attaches a [`TimingSink`] of its own.
//!
//! Wall time and busy time answer different questions: the wall phases sum
//! to the report's total (that invariant is what `winrs profile` checks),
//! while the FT/IT/EWMM/OT busy times sum across threads and therefore can
//! exceed the pass's wall time on a multi-core run — their *ratio* is the
//! busy split.

use crate::engine::{execute_segments_with, sched, ExecOptions};
use crate::fallback::{first_pass_options, NumericGuard};
use crate::plan::WinRsPlan;
use crate::sync::atomic::{AtomicU64, Ordering};
use crate::workspace::Workspace;
use crate::WinrsError;
use std::time::Instant;
use winrs_tensor::Tensor4;

/// Atomic per-phase accumulator filled in by the engine while it runs.
///
/// One sink covers one execution (all segments, both launch passes). The
/// engine times the four kernel phases inside each block task with local
/// counters and flushes them here once per task, so the atomic traffic is
/// negligible next to the task's arithmetic.
#[derive(Debug)]
pub struct TimingSink {
    ft_ns: AtomicU64,
    it_ns: AtomicU64,
    ewmm_ns: AtomicU64,
    ot_ns: AtomicU64,
    busy_ns: AtomicU64,
    blocks: AtomicU64,
    min_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for TimingSink {
    fn default() -> TimingSink {
        TimingSink::new()
    }
}

impl TimingSink {
    /// A zeroed sink. The fastest-block counter starts at `u64::MAX`, so
    /// the first recorded block sets it.
    pub fn new() -> TimingSink {
        TimingSink {
            ft_ns: AtomicU64::new(0),
            it_ns: AtomicU64::new(0),
            ewmm_ns: AtomicU64::new(0),
            ot_ns: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
            blocks: AtomicU64::new(0),
            min_ns: AtomicU64::new(u64::MAX),
            max_ns: AtomicU64::new(0),
        }
    }

    /// Flush one block task's local phase counters. `total_ns` is the
    /// task's wall time (covers the four phases plus loop overhead).
    pub fn record_block(&self, ft_ns: u64, it_ns: u64, ewmm_ns: u64, ot_ns: u64, total_ns: u64) {
        // ORDERING: per-task flush of independent counters; readers only
        // consume the sink after the scheduler scope joins (a happens-before
        // edge the join provides), so Relaxed RMWs are sufficient and the
        // checked-model in tests/loom_models.rs verifies totals anyway.
        self.ft_ns.fetch_add(ft_ns, Ordering::Relaxed);
        self.it_ns.fetch_add(it_ns, Ordering::Relaxed);
        self.ewmm_ns.fetch_add(ewmm_ns, Ordering::Relaxed);
        self.ot_ns.fetch_add(ot_ns, Ordering::Relaxed);
        self.busy_ns.fetch_add(total_ns, Ordering::Relaxed);
        self.blocks.fetch_add(1, Ordering::Relaxed);
        self.min_ns.fetch_min(total_ns, Ordering::Relaxed);
        self.max_ns.fetch_max(total_ns, Ordering::Relaxed);
    }

    /// Zero every counter so one sink can be reused across runs.
    pub fn reset(&self) {
        // ORDERING: reset runs between executions, never concurrently with
        // recording writers; Relaxed stores are sufficient.
        self.ft_ns.store(0, Ordering::Relaxed);
        self.it_ns.store(0, Ordering::Relaxed);
        self.ewmm_ns.store(0, Ordering::Relaxed);
        self.ot_ns.store(0, Ordering::Relaxed);
        self.busy_ns.store(0, Ordering::Relaxed);
        self.blocks.store(0, Ordering::Relaxed);
        self.min_ns.store(u64::MAX, Ordering::Relaxed);
        self.max_ns.store(0, Ordering::Relaxed);
    }

    /// Filter-transform busy nanoseconds (summed across threads).
    pub fn ft_ns(&self) -> u64 {
        self.ft_ns.load(Ordering::Relaxed) // ORDERING: post-join read
    }

    /// Input-transform busy nanoseconds.
    pub fn it_ns(&self) -> u64 {
        self.it_ns.load(Ordering::Relaxed) // ORDERING: post-join read
    }

    /// α-batched EWMM busy nanoseconds.
    pub fn ewmm_ns(&self) -> u64 {
        self.ewmm_ns.load(Ordering::Relaxed) // ORDERING: post-join read
    }

    /// Output-transform busy nanoseconds.
    pub fn ot_ns(&self) -> u64 {
        self.ot_ns.load(Ordering::Relaxed) // ORDERING: post-join read
    }

    /// Total block-task busy nanoseconds (wall time per task, summed
    /// across tasks and threads).
    pub fn busy_ns(&self) -> u64 {
        self.busy_ns.load(Ordering::Relaxed) // ORDERING: post-join read
    }

    /// Block tasks recorded.
    pub fn blocks(&self) -> u64 {
        self.blocks.load(Ordering::Relaxed) // ORDERING: post-join read
    }

    /// Fastest block task in nanoseconds (0 when no task ran).
    pub fn min_ns(&self) -> u64 {
        let v = self.min_ns.load(Ordering::Relaxed); // ORDERING: post-join read
        if v == u64::MAX {
            0
        } else {
            v
        }
    }

    /// Slowest block task in nanoseconds.
    pub fn max_ns(&self) -> u64 {
        self.max_ns.load(Ordering::Relaxed) // ORDERING: post-join read
    }

    /// Mean block task in nanoseconds (0 when no task ran).
    pub fn mean_ns(&self) -> u64 {
        self.busy_ns().checked_div(self.blocks()).unwrap_or(0)
    }

    /// Fraction of `workers × wall_s` the block tasks spent busy, in
    /// `[0, 1]` (0 on zero wall time). Low utilisation means the launch
    /// passes had too few block tasks to fill the machine — the CPU
    /// analogue of the paper's SM-occupancy argument for segmentation.
    pub fn utilisation(&self, wall_s: f64, workers: usize) -> f64 {
        let capacity = wall_s * workers.max(1) as f64;
        if capacity > 0.0 {
            (self.busy_ns() as f64 * 1e-9 / capacity).min(1.0)
        } else {
            0.0
        }
    }
}

/// The wall-clock timing attached to every [`crate::ExecutionReport`].
///
/// The fields partition the dispatcher's total:
/// `total_s = plan_s + block_loop_s + promote_s + reduce_s + other_s()`,
/// where [`PhaseTimings::other_s`] is the (small) dispatcher overhead not
/// attributed to a named phase. The FT/IT/EWMM/OT busy split is not part
/// of a dispatch: [`time_block_loop`] measures it on request.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PhaseTimings {
    /// Wall time of the whole dispatch (plan lookup/build through reduce).
    pub total_s: f64,
    /// Wall time spent constructing (or fetching) the plan.
    pub plan_s: f64,
    /// Wall time of the fused block loop (both launch passes).
    pub block_loop_s: f64,
    /// Wall time of the numeric guard's FP32 promote-retry pass (0 when no
    /// bucket was promoted).
    pub promote_s: f64,
    /// Wall time of the Kahan bucket reduction.
    pub reduce_s: f64,
}

impl PhaseTimings {
    /// Wall time not attributed to a named phase (dispatcher overhead,
    /// workspace checks). Clamped at zero against clock jitter.
    pub fn other_s(&self) -> f64 {
        (self.total_s - self.plan_s - self.block_loop_s - self.promote_s - self.reduce_s).max(0.0)
    }

    /// True when the dispatcher filled this report's timing in.
    pub fn is_populated(&self) -> bool {
        self.total_s > 0.0
    }
}

/// Run one timed pass of `plan`'s block loop (both launch passes) into
/// `ws`, grown to the plan's layout if needed, and return the filled
/// [`TimingSink`] with the pass's wall seconds. The pass runs with the
/// scratch, health and worker options of
/// [`crate::fallback::run_planned_into`]'s first pass plus the sink. Its
/// bucket 0 is a `∇W` allocated before the clock starts, and the buckets
/// stay unreduced: the caller's gradient is never written.
pub fn time_block_loop(
    plan: &WinRsPlan,
    x: &Tensor4<f32>,
    dy: &Tensor4<f32>,
    guard: NumericGuard,
    ws: &mut Workspace,
) -> Result<(TimingSink, f64), WinrsError> {
    let layout = plan.workspace_layout();
    ws.ensure(layout);
    let mut dw = vec![0.0f32; plan.shape().dw_elems()];
    let workers = sched::workers();
    let ctx = ws.overflow_ctx(layout)?;
    let mode = plan.tile_mode();
    let sink = TimingSink::new();
    let opts = ExecOptions {
        timing: Some(&sink),
        ..first_pass_options(&ctx.scratch, ctx.health, guard, mode, workers)
    };
    let t0 = Instant::now();
    execute_segments_with(plan, x, dy, mode, &mut dw, ctx.buckets, opts)?;
    Ok((sink, t0.elapsed().as_secs_f64()))
}

/// Snapshot of [`crate::pool::WorkspacePool`] counters, stamped into every
/// [`crate::ExecutionReport`] produced through a pool lease — the pool's
/// health and its per-shape plan cache flow through the same observability
/// path as [`PhaseTimings`], so the CLI and serving layers read one report,
/// not two telemetry APIs.
///
/// Counter invariants the chaos suite asserts after every campaign:
/// `in_use == 0` (no leaked lease) and `poisonings == rebuilds` (every
/// poisoned workspace was rebuilt before becoming leasable again).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Total workspace slots the pool owns.
    pub slots: usize,
    /// Slots currently leased out.
    pub in_use: usize,
    /// Leases granted since the pool was built.
    pub leases: u64,
    /// Leases that had to wait for a slot before being granted.
    pub waits: u64,
    /// Leases returned poisoned (holder panicked or called `poison`).
    pub poisonings: u64,
    /// Workspaces discarded and rebuilt fresh after poisoning.
    pub rebuilds: u64,
    /// Lease requests rejected with `PoolExhausted` after the wait budget.
    pub exhausted: u64,
    /// Executions that dropped down the degradation ladder
    /// (WinRS → GEMM-BFC → direct); each rung taken counts once.
    pub degradations: u64,
    /// Per-shape stores (the tuner's plan cache) discarded after a holder
    /// panicked mid-update.
    pub cache_poisonings: u64,
    /// Plan fetches the per-shape store served from a resident entry.
    pub plan_hits: u64,
    /// Plan fetches that found no fetched entry: a key's first fetch, and
    /// its first fetch again after eviction.
    pub plan_misses: u64,
}

impl std::fmt::Display for PoolStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "slots={}/{} leases={} waits={} poisonings={} rebuilds={} \
             exhausted={} degradations={} plan_cache={}h/{}m",
            self.in_use,
            self.slots,
            self.leases,
            self.waits,
            self.poisonings,
            self.rebuilds,
            self.exhausted,
            self.degradations,
            self.plan_hits,
            self.plan_misses
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_stats_display_is_one_line_and_complete() {
        let s = PoolStats {
            slots: 4,
            in_use: 1,
            leases: 10,
            waits: 2,
            poisonings: 1,
            rebuilds: 1,
            exhausted: 3,
            degradations: 4,
            cache_poisonings: 0,
            plan_hits: 5,
            plan_misses: 2,
        };
        let line = s.to_string();
        assert!(!line.contains('\n'));
        assert!(line.contains("slots=1/4"), "{line}");
        assert!(line.contains("poisonings=1"), "{line}");
        assert!(line.contains("degradations=4"), "{line}");
        assert!(line.contains("plan_cache=5h/2m"), "{line}");
    }

    #[test]
    fn sink_accumulates_and_tracks_extremes() {
        let sink = TimingSink::new();
        assert_eq!(sink.min_ns(), 0, "empty sink reports 0, not u64::MAX");
        sink.record_block(10, 20, 30, 40, 120);
        sink.record_block(1, 2, 3, 4, 15);
        assert_eq!(sink.ft_ns(), 11);
        assert_eq!(sink.it_ns(), 22);
        assert_eq!(sink.ewmm_ns(), 33);
        assert_eq!(sink.ot_ns(), 44);
        assert_eq!(sink.busy_ns(), 135);
        assert_eq!(sink.blocks(), 2);
        assert_eq!(sink.min_ns(), 15);
        assert_eq!(sink.max_ns(), 120);
        sink.reset();
        assert_eq!(sink.blocks(), 0);
        assert_eq!(sink.min_ns(), 0);
        assert_eq!(sink.max_ns(), 0);
    }

    #[test]
    fn default_sink_tracks_the_fastest_block_like_new() {
        let sink = TimingSink::default();
        sink.record_block(1, 1, 1, 1, 500);
        assert_eq!(sink.min_ns(), 500);
    }

    #[test]
    fn wall_phases_partition_the_total() {
        let t = PhaseTimings {
            total_s: 1.0,
            plan_s: 0.1,
            block_loop_s: 0.6,
            promote_s: 0.05,
            reduce_s: 0.15,
        };
        let sum = t.plan_s + t.block_loop_s + t.promote_s + t.reduce_s + t.other_s();
        assert!((sum - t.total_s).abs() < 1e-12);
        assert!((t.other_s() - 0.1).abs() < 1e-12);
        assert!(t.is_populated());
        assert!(!PhaseTimings::default().is_populated());
    }

    #[test]
    fn sink_derives_mean_and_utilisation() {
        let sink = TimingSink::new();
        // 4 blocks × 250 µs busy = 1 ms busy.
        for _ in 0..4 {
            sink.record_block(50_000, 50_000, 100_000, 50_000, 250_000);
        }
        assert_eq!(sink.blocks(), 4);
        assert_eq!(sink.busy_ns(), 1_000_000);
        assert_eq!(sink.mean_ns(), 250_000);
        // busy 1 ms over 4 workers × 0.5 ms wall = 50% utilisation.
        assert!((sink.utilisation(5e-4, 4) - 0.5).abs() < 1e-9);
        assert_eq!(TimingSink::new().mean_ns(), 0, "no task, no mean");
    }

    #[test]
    fn utilisation_is_clamped_and_safe_on_zero_wall() {
        let sink = TimingSink::new();
        sink.record_block(0, 0, 0, 0, 1_000_000);
        assert_eq!(
            sink.utilisation(0.0, 1),
            0.0,
            "zero wall time must not divide"
        );
        // busy far exceeds capacity -> clamp to 1
        assert_eq!(sink.utilisation(1e-9, 1), 1.0);
    }

    /// One timed pass on a multi-segment WinRS plan: one flush per block
    /// task (a segment's oc-tile), every phase timed, and the derived
    /// figures in range.
    #[test]
    fn time_block_loop_times_every_block_task() {
        use crate::engine::cache_block;
        use crate::Precision;
        use winrs_conv::ConvShape;
        use winrs_gpu_sim::RTX_4090;

        let conv = ConvShape::new(2, 16, 16, 4, 6, 3, 3, 1, 1);
        let plan =
            WinRsPlan::with_z_hat(&conv, &RTX_4090, Precision::Fp32, 4).expect("in-envelope shape");
        let x = Tensor4::<f32>::random_uniform([2, 16, 16, 4], 11, 1.0);
        let dy = Tensor4::<f32>::random_uniform([2, 16, 16, 6], 12, 1.0);
        let mut ws = Workspace::new();
        let (sink, wall_s) =
            time_block_loop(&plan, &x, &dy, NumericGuard::Warn, &mut ws).expect("valid arguments");
        let segments = &plan.partition().segments;
        assert!(segments.len() >= 2, "test needs several segments");
        let tasks: usize = segments
            .iter()
            .map(|s| {
                conv.oc
                    .div_ceil(cache_block(plan.tile_mode(), s.kernel.alpha()).0)
            })
            .sum();
        assert_eq!(sink.blocks() as usize, tasks);
        assert!(sink.ft_ns() > 0 && sink.it_ns() > 0, "transforms untimed");
        assert!(sink.ewmm_ns() > 0 && sink.ot_ns() > 0, "EWMM or OT untimed");
        assert!(sink.min_ns() <= sink.mean_ns() && sink.mean_ns() <= sink.max_ns());
        let u = sink.utilisation(wall_s, crate::engine::sched::workers());
        assert!(u > 0.0 && u <= 1.0, "utilisation {u}");
    }
}
