//! Phase-level timing observability (the paper's Fig. 6 decomposition).
//!
//! The paper's evaluation attributes every speedup through per-kernel
//! timing breakdowns: the fused `Ω_α(n, r)` kernel's cost splits into the
//! filter transform (FT), input transform (IT), α-batched element-wise
//! multiply–accumulate (EWMM) and output transform (OT), plus the bucket
//! reduction that follows. This module provides the two pieces the
//! dispatcher uses to reproduce that accounting on the CPU substrate:
//!
//! * [`TimingSink`] — an atomic accumulator the engine flushes once per
//!   block task — one scheduler task, every filter row of one oc-tile of
//!   one segment — (mirroring [`crate::engine::HealthSink`]'s flush
//!   discipline), collecting per-phase *busy* nanoseconds summed across
//!   worker threads plus per-task min/max/total wall time. It performs no
//!   heap allocation, so the zero-`hot_loop_allocs` contract holds while
//!   profiling.
//! * [`PhaseTimings`] — the plain-data summary attached to every
//!   [`crate::ExecutionReport`]: wall-clock phase times measured by the
//!   dispatcher (plan, block loop, promote-retry, reduce), the sink's busy
//!   decomposition, and derived figures (per-block mean, worker
//!   utilisation).
//!
//! The fine-grained per-block instrumentation runs only when the caller
//! passes a sink (`ExecOptions::timing`); with `None` the engine reads no
//! per-block clocks and only the dispatcher's handful of per-call clock
//! reads remain.
//!
//! Wall time and busy time answer different questions: the wall phases sum
//! to the report's total (that invariant is what `winrs profile` checks),
//! while the FT/IT/EWMM/OT busy times sum across threads and therefore can
//! exceed the block-loop wall time on a multi-core run — their *ratio* is
//! the Fig. 6 shape.

use crate::sync::atomic::{AtomicU64, Ordering};

/// Atomic per-phase accumulator filled in by the engine while it runs.
///
/// One sink covers one execution (all segments, both launch passes). The
/// engine times the four kernel phases inside each block task with local
/// counters and flushes them here once per task, so the atomic traffic is
/// negligible next to the task's arithmetic.
#[derive(Debug, Default)]
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

impl TimingSink {
    /// A zeroed sink.
    pub fn new() -> TimingSink {
        TimingSink {
            min_ns: AtomicU64::new(u64::MAX),
            ..TimingSink::default()
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
}

const NS: f64 = 1e-9;

/// The timing summary attached to every [`crate::ExecutionReport`].
///
/// The wall-phase fields partition the dispatcher's total:
/// `total_s = plan_s + block_loop_s + promote_s + reduce_s + other_s()`,
/// where [`PhaseTimings::other_s`] is the (small) dispatcher overhead not
/// attributed to a named phase. The busy fields come from the engine's
/// [`TimingSink`] and decompose the block loop the way the paper's Fig. 6
/// decomposes the fused kernel.
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
    /// Filter-transform busy time summed across worker threads.
    pub ft_s: f64,
    /// Input-transform busy time summed across worker threads.
    pub it_s: f64,
    /// α-batched EWMM busy time summed across worker threads.
    pub ewmm_s: f64,
    /// Output-transform busy time summed across worker threads.
    pub ot_s: f64,
    /// Total block-task busy time summed across worker threads.
    pub busy_s: f64,
    /// Block tasks executed (one per segment and oc-tile).
    pub blocks: u64,
    /// Fastest block task (wall seconds).
    pub block_min_s: f64,
    /// Mean block task (wall seconds).
    pub block_mean_s: f64,
    /// Slowest block task (wall seconds).
    pub block_max_s: f64,
    /// Worker threads available to the block loop.
    pub workers: usize,
    /// Fraction of `workers × block_loop_s` actually spent busy, in
    /// `[0, 1]`. Low utilisation means the launch passes had too few block
    /// tasks to fill the machine — the CPU analogue of the paper's
    /// SM-occupancy argument for segmentation.
    pub utilisation: f64,
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

    /// Copy the busy-time decomposition out of an engine sink and derive
    /// the per-block statistics. Call after the wall phases are set — the
    /// utilisation figure divides busy time by `workers × block_loop_s`.
    pub fn absorb_sink(&mut self, sink: &TimingSink, workers: usize) {
        self.ft_s = sink.ft_ns() as f64 * NS;
        self.it_s = sink.it_ns() as f64 * NS;
        self.ewmm_s = sink.ewmm_ns() as f64 * NS;
        self.ot_s = sink.ot_ns() as f64 * NS;
        self.busy_s = sink.busy_ns() as f64 * NS;
        self.blocks = sink.blocks();
        self.block_min_s = sink.min_ns() as f64 * NS;
        self.block_max_s = sink.max_ns() as f64 * NS;
        self.block_mean_s = if self.blocks > 0 {
            self.busy_s / self.blocks as f64
        } else {
            0.0
        };
        self.workers = workers.max(1);
        let capacity = self.block_loop_s * self.workers as f64;
        self.utilisation = if capacity > 0.0 {
            (self.busy_s / capacity).min(1.0)
        } else {
            0.0
        };
    }
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
    fn wall_phases_partition_the_total() {
        let t = PhaseTimings {
            total_s: 1.0,
            plan_s: 0.1,
            block_loop_s: 0.6,
            promote_s: 0.05,
            reduce_s: 0.15,
            ..PhaseTimings::default()
        };
        let sum = t.plan_s + t.block_loop_s + t.promote_s + t.reduce_s + t.other_s();
        assert!((sum - t.total_s).abs() < 1e-12);
        assert!((t.other_s() - 0.1).abs() < 1e-12);
        assert!(t.is_populated());
        assert!(!PhaseTimings::default().is_populated());
    }

    #[test]
    fn absorb_sink_derives_mean_and_utilisation() {
        let sink = TimingSink::new();
        // 4 blocks × 250 µs busy = 1 ms busy.
        for _ in 0..4 {
            sink.record_block(50_000, 50_000, 100_000, 50_000, 250_000);
        }
        let mut t = PhaseTimings {
            total_s: 6e-4,
            block_loop_s: 5e-4,
            ..PhaseTimings::default()
        };
        t.absorb_sink(&sink, 4);
        assert_eq!(t.blocks, 4);
        assert!((t.busy_s - 1e-3).abs() < 1e-12);
        assert!((t.block_mean_s - 2.5e-4).abs() < 1e-12);
        // busy 1 ms over 4 workers × 0.5 ms wall = 50% utilisation.
        assert!((t.utilisation - 0.5).abs() < 1e-9);
        // Busy decomposition keeps the Fig. 6 proportions.
        assert!((t.ewmm_s - 2.0 * t.ft_s).abs() < 1e-12);
    }

    #[test]
    fn utilisation_is_clamped_and_safe_on_zero_wall() {
        let sink = TimingSink::new();
        sink.record_block(0, 0, 0, 0, 1_000_000);
        let mut t = PhaseTimings::default();
        t.absorb_sink(&sink, 1);
        assert_eq!(t.utilisation, 0.0, "zero wall time must not divide");
        t.block_loop_s = 1e-9; // busy far exceeds capacity -> clamp to 1
        t.absorb_sink(&sink, 1);
        assert_eq!(t.utilisation, 1.0);
    }
}
