//! Fail-safe BFC execution vocabulary: algorithm fallback and numeric-health
//! guards.
//!
//! A training loop should never die because one layer's shape sits outside
//! the WinRS envelope, and should never silently return NaN gradients
//! because an FP16 tile overflowed. Dispatch itself happens in
//! [`crate::pool::ExecHandle`]; this module holds the two degradation axes
//! it applies and the guarded plan executor it runs:
//!
//! * **Algorithm fallback** ([`FallbackPolicy`]): when WinRS rejects a
//!   plan with a recoverable [`WinrsError::PlanRejected`] (a partition
//!   invariant failure), the dispatcher transparently reruns the problem
//!   through the best-ranked substitute — and records which algorithm
//!   actually produced `∇W`. A filter width with no kernel at the
//!   requested FP16/BF16 precision is not a rejection: that key's WinRS
//!   plan runs FP32 tiles, and the report names them.
//!
//!   The policy is a thin *filter*: which substitute is "best" (and the
//!   whole candidate ordering) is decided by the cost-model autotuner in
//!   [`crate::tuner`]. `Strict` filters the ranked list down to WinRS
//!   alone, `Auto` accepts it in full, `Force` replaces it with one pinned
//!   entry — none of them reorder it.
//! * **Numeric guard** ([`NumericGuard`]): reduced-precision execution
//!   runs with the engine's per-segment health counters; on overflow the
//!   guard can warn, or re-execute *only the poisoned buckets* at FP32
//!   (`PromoteAndRetry`) — the residual segments of a band share their
//!   first bulk segment's bucket, so promotion is bucket-granular and the
//!   healthy buckets keep their cheap reduced-precision results.
//!
//! [`run_planned_into`] is the one guarded plan executor: the dispatcher
//! runs every WinRS rung through it, and callers holding a hand-built plan
//! (tests, benches) call it directly. Every dispatch returns an
//! [`ExecutionReport`] describing what happened;
//! [`ExecutionReport::summary_line`] is the one-line structured form the
//! CLI prints.

use crate::config::Precision;
use crate::engine::{ExecOptions, HealthSink, TileMode};
use crate::error::{Violation, WinrsError};
use crate::metrics::PhaseTimings;
use crate::plan::WinRsPlan;
use crate::workspace::{ScratchPool, Workspace};
use std::fmt;
use std::str::FromStr;
use std::time::Instant;
use winrs_conv::gemm_bfc::{bfc_gemm_f32, GemmAlgo};
use winrs_conv::{direct, ConvShape};
use winrs_tensor::{MemoryFootprint, Tensor4};

/// A backward-filter algorithm: what the tuner ranks and chooses, what a
/// `Force` policy pins, and what produced a report's `∇W`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Algorithm {
    /// The WinRS segmented Winograd engine.
    WinRs,
    /// GEMM-based BFC (cuDNN `Algo1` analogue) — the standard fallback.
    GemmBfc,
    /// FFT-domain BFC (cuDNN FFT analogue; FP32 only, workspace-heavy).
    FftBfc,
    /// Direct convolution — the last-resort reference.
    Direct,
}

impl Algorithm {
    /// Every algorithm, in display order.
    pub const ALL: [Algorithm; 4] = [
        Algorithm::WinRs,
        Algorithm::GemmBfc,
        Algorithm::FftBfc,
        Algorithm::Direct,
    ];

    /// Stable lowercase name (reports, the tuning database, CLI tables).
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::WinRs => "winrs",
            Algorithm::GemmBfc => "gemm-bfc",
            Algorithm::FftBfc => "fft-bfc",
            Algorithm::Direct => "direct",
        }
    }

    /// Inverse of [`Algorithm::name`].
    pub fn parse(s: &str) -> Option<Algorithm> {
        Algorithm::ALL.into_iter().find(|a| a.name() == s)
    }

    /// Identity. Held only for `perfbench`, whose call sites still convert
    /// from the former planning vocabulary; no workspace crate uses it.
    pub fn algorithm(&self) -> Algorithm {
        *self
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What to do when WinRS rejects a plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum FallbackPolicy {
    /// Run WinRS or return the typed error; never substitute another
    /// algorithm. A key the tuner runs on FP32 tiles (an FP16/BF16 request
    /// whose filter width has no reduced-precision kernel) runs them here
    /// too: they are WinRS, and at least as precise as the tiles asked for.
    Strict,
    /// Run the tuner's choice, and walk its degradation ladder on any
    /// recoverable failure (default).
    #[default]
    Auto,
    /// Run the named algorithm without consulting the tuner (debugging /
    /// baseline measurement). `Force(WinRs)` takes the WinRS rung exactly
    /// like `Strict`.
    Force(Algorithm),
}

impl FallbackPolicy {
    /// Every policy, in display order.
    pub const ALL: [FallbackPolicy; 6] = [
        FallbackPolicy::Strict,
        FallbackPolicy::Auto,
        FallbackPolicy::Force(Algorithm::WinRs),
        FallbackPolicy::Force(Algorithm::GemmBfc),
        FallbackPolicy::Force(Algorithm::FftBfc),
        FallbackPolicy::Force(Algorithm::Direct),
    ];

    /// Stable name, as the CLI flag and the serve protocol spell it.
    pub fn name(&self) -> &'static str {
        match self {
            FallbackPolicy::Strict => "strict",
            FallbackPolicy::Auto => "auto",
            FallbackPolicy::Force(Algorithm::WinRs) => "force-winrs",
            FallbackPolicy::Force(Algorithm::GemmBfc) => "force-gemm",
            FallbackPolicy::Force(Algorithm::FftBfc) => "force-fft",
            FallbackPolicy::Force(Algorithm::Direct) => "force-direct",
        }
    }
}

/// The member of `all` whose `name` is `s`; the error lists every name.
fn parse_by_name<T: Copy>(
    s: &str,
    all: &[T],
    name: fn(&T) -> &'static str,
    what: &str,
) -> Result<T, String> {
    all.iter().copied().find(|v| name(v) == s).ok_or_else(|| {
        let names: Vec<&str> = all.iter().map(name).collect();
        format!("unknown {what} `{s}` (expected {})", names.join(" | "))
    })
}

impl FromStr for FallbackPolicy {
    type Err = String;
    fn from_str(s: &str) -> Result<FallbackPolicy, String> {
        parse_by_name(
            s,
            &FallbackPolicy::ALL,
            FallbackPolicy::name,
            "fallback policy",
        )
    }
}

/// What to do about reduced-precision overflow.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum NumericGuard {
    /// No health accounting at all (fastest; counters report zero).
    Ignore,
    /// Count saturations / non-finite outputs and report them (default).
    #[default]
    Warn,
    /// Count, then re-execute the poisoned buckets at FP32 so the returned
    /// `∇W` is finite everywhere.
    PromoteAndRetry,
}

impl NumericGuard {
    /// Every guard, in display order.
    pub const ALL: [NumericGuard; 3] = [
        NumericGuard::Ignore,
        NumericGuard::Warn,
        NumericGuard::PromoteAndRetry,
    ];

    /// Stable name, as the CLI flag and the serve protocol spell it.
    pub fn name(&self) -> &'static str {
        match self {
            NumericGuard::Ignore => "ignore",
            NumericGuard::Warn => "warn",
            NumericGuard::PromoteAndRetry => "promote-retry",
        }
    }
}

impl FromStr for NumericGuard {
    type Err = String;
    fn from_str(s: &str) -> Result<NumericGuard, String> {
        parse_by_name(s, &NumericGuard::ALL, NumericGuard::name, "numeric guard")
    }
}

/// What actually happened during one dispatched BFC execution.
#[derive(Clone, Debug)]
pub struct ExecutionReport {
    /// The algorithm that produced the returned `∇W`.
    pub algorithm: Algorithm,
    /// The precision the caller asked for, on every rung.
    pub requested_precision: Precision,
    /// The engine tile mode WinRS ran (absent when a substitute ran): the
    /// requested precision's own, or FP32 tiles for an FP16/BF16 request
    /// whose filter width has no reduced-precision kernel.
    pub tiles: Option<TileMode>,
    /// The numeric guard that was in force.
    pub guard: NumericGuard,
    /// Why WinRS did not run (populated when `algorithm` ≠ `WinRs`).
    pub fallback_reason: Option<WinrsError>,
    /// WinRS segment count `Z` (when WinRS ran).
    pub z: Option<usize>,
    /// Memory accounting: planned workspace (WinRS: the layout's
    /// `(Z−1)·|∇W|` f32-staging figure; fallbacks: their own internal
    /// buffers), the measured peak, and hot-loop allocation escapes.
    pub mem: MemoryFootprint,
    /// Reduced-precision saturation events counted by the engine: one per
    /// transformed element that overflowed when re-rounded, counted once
    /// per panel fill (a tile each block task transforms once and reads
    /// for many filter rows counts once), not once per use.
    pub saturated: u64,
    /// Non-finite values counted at the output transform.
    pub non_finite: u64,
    /// Segment indices re-executed at FP32 by `PromoteAndRetry` (the
    /// poisoned segments plus their bucket-mates).
    pub promoted_segments: Vec<usize>,
    /// Buckets re-executed at FP32.
    pub promoted_buckets: usize,
    /// The dispatch's wall-clock phases.
    pub timing: PhaseTimings,
    /// Snapshot of the [`crate::pool::WorkspacePool`] counters, plan-cache
    /// hits and misses included, at the end of the dispatch (populated by
    /// [`crate::pool::ExecHandle`]; absent from a bare [`run_planned_into`]
    /// report).
    pub pool: Option<crate::metrics::PoolStats>,
    /// What the dispatch authority *chose* to run (before any degradation):
    /// differs from `algorithm` exactly when the ladder was walked.
    pub chosen: Algorithm,
    /// Tuner observability (populated when the `Auto` policy consulted
    /// the cost-model autotuner).
    pub tuner: Option<crate::tuner::TunerStats>,
}

impl ExecutionReport {
    pub(crate) fn new(
        algorithm: Algorithm,
        precision: Precision,
        guard: NumericGuard,
    ) -> ExecutionReport {
        ExecutionReport {
            algorithm,
            requested_precision: precision,
            tiles: None,
            guard,
            fallback_reason: None,
            z: None,
            mem: MemoryFootprint::default(),
            saturated: 0,
            non_finite: 0,
            promoted_segments: Vec::new(),
            promoted_buckets: 0,
            timing: PhaseTimings::default(),
            pool: None,
            chosen: algorithm,
            tuner: None,
        }
    }

    /// True when the numeric guard saw trouble that was *not* repaired.
    pub fn tainted(&self) -> bool {
        (self.saturated > 0 || self.non_finite > 0) && self.promoted_buckets == 0
    }

    /// The structured one-line form the CLI prints after each run:
    /// `algorithm=… precision=… [tiles=…] guard=… [z=…] workspace=…B
    /// peak=…B hot_loop_allocs=… saturated=… non-finite=…
    /// [promoted=…/… buckets] [fallback="…"]`.
    pub fn summary_line(&self) -> String {
        let mut s = format!(
            "algorithm={} precision={:?}",
            self.algorithm.name(),
            self.requested_precision,
        );
        if let Some(tiles) = self.tiles {
            s.push_str(&format!(" tiles={}", tiles.name()));
        }
        s.push_str(&format!(" guard={}", self.guard.name()));
        if let Some(z) = self.z {
            s.push_str(&format!(" z={z}"));
        }
        s.push_str(&format!(" {}", self.mem));
        s.push_str(&format!(
            " saturated={} non-finite={}",
            self.saturated, self.non_finite
        ));
        if self.promoted_buckets > 0 {
            s.push_str(&format!(
                " promoted={}/{} buckets",
                self.promoted_buckets,
                self.z.unwrap_or(0)
            ));
        }
        if self.timing.is_populated() {
            s.push_str(&format!(" total={:.3}ms", self.timing.total_s * 1e3));
        }
        if let Some(pool) = &self.pool {
            s.push_str(&format!(" pool[{pool}]"));
        }
        if let Some(t) = &self.tuner {
            s.push_str(&format!(
                " tuner[chosen={} src={} pred={:.3}ms",
                self.chosen,
                t.source,
                t.predicted_s * 1e3
            ));
            if let Some(m) = t.measured_s {
                s.push_str(&format!(" meas={:.3}ms", m * 1e3));
            }
            s.push(']');
        }
        if let Some(reason) = &self.fallback_reason {
            s.push_str(&format!(" fallback=\"{reason}\""));
        }
        s
    }
}

/// Run a substitute algorithm and report it. A substitute is one opaque
/// kernel, so its whole runtime is charged to the block-loop phase, and
/// its internal buffers — allocated once per call, outside any block loop
/// — are its planned and peak workspace, with no hot-loop allocations.
pub(crate) fn run_substitute(
    alg: Algorithm,
    conv: &ConvShape,
    x: &Tensor4<f32>,
    dy: &Tensor4<f32>,
    precision: Precision,
    guard: NumericGuard,
) -> (Tensor4<f32>, ExecutionReport) {
    let mut report = ExecutionReport::new(alg, precision, guard);
    let bytes = substitute_workspace_bytes(alg, conv);
    report.mem = MemoryFootprint {
        workspace_bytes_planned: bytes,
        workspace_bytes_peak: bytes,
        hot_loop_allocs: 0,
    };
    let t0 = Instant::now();
    let dw = match alg {
        Algorithm::GemmBfc => bfc_gemm_f32(GemmAlgo::Algo1, conv, x, dy),
        Algorithm::FftBfc => winrs_conv::fft_bfc::bfc_fft(conv, x, dy),
        // WinRS is never a substitute: the dispatcher runs it on its own
        // rung, so only direct convolution reaches this arm.
        Algorithm::WinRs | Algorithm::Direct => direct::bfc_direct(conv, x, dy),
    };
    let elapsed = t0.elapsed().as_secs_f64();
    report.timing.block_loop_s = elapsed;
    report.timing.total_s = elapsed;
    (dw, report)
}

/// Workspace bytes a substitute algorithm allocates internally: the
/// GEMM lowering's panel or the FFT stages. Zero for direct convolution,
/// whose kernels stream straight from X/∇Y into ∇W, and for WinRS, which
/// is never a substitute (its plan's layout holds its workspace).
pub fn substitute_workspace_bytes(alg: Algorithm, conv: &ConvShape) -> usize {
    match alg {
        Algorithm::GemmBfc => winrs_conv::gemm_bfc::workspace_bytes(GemmAlgo::Algo1, conv),
        Algorithm::FftBfc => winrs_conv::fft_bfc::workspace_bytes(conv),
        Algorithm::WinRs | Algorithm::Direct => 0,
    }
}

/// The options of a run's first block-loop pass: the workspace's scratch,
/// and its health counters unless FP32 tiles (which cannot saturate) or
/// `Ignore` (which asked for no accounting) make the counter traffic moot.
pub(crate) fn first_pass_options<'a, 'p>(
    scratch: &'a ScratchPool<'p>,
    health: &'a HealthSink,
    guard: NumericGuard,
    mode: TileMode,
) -> ExecOptions<'a, 'p> {
    ExecOptions {
        scratch: Some(scratch),
        health: (guard != NumericGuard::Ignore && mode != TileMode::Fp32).then_some(health),
        ..Default::default()
    }
}

/// Execute an already-built plan with health accounting and (optionally)
/// bucket-granular FP32 promotion. The report's requested precision is
/// the plan's; the dispatcher restamps the caller's when it runs a key on
/// FP32 tiles. `∇W` is written into `dw` and every
/// scratch byte comes from `ws` (grown to the plan's layout on first use).
/// After the first call with a given `(plan, ws)` pair no heap allocation
/// happens inside the block loop, and the report's
/// [`MemoryFootprint::hot_loop_allocs`] proves it.
pub fn run_planned_into(
    plan: &WinRsPlan,
    x: &Tensor4<f32>,
    dy: &Tensor4<f32>,
    guard: NumericGuard,
    ws: &mut Workspace,
    dw: &mut Tensor4<f32>,
) -> Result<ExecutionReport, WinrsError> {
    let t_total = Instant::now();
    let conv = plan.shape();
    let want_dw = [conv.oc, conv.fh, conv.fw, conv.ic];
    if dw.dims() != want_dw {
        return Err(WinrsError::ExecutionRejected(vec![
            Violation::TensorDimsMismatch {
                tensor: "dw",
                expected: want_dw,
                got: dw.dims(),
            },
        ]));
    }
    let mut report = ExecutionReport::new(Algorithm::WinRs, plan.precision(), guard);
    report.z = Some(plan.z());
    report.tiles = Some(plan.tile_mode());

    let layout = plan.workspace_layout();
    ws.ensure(layout);
    let planned = layout.workspace_bytes();
    let hot_loop_allocs;
    {
        let ctx = ws.ctx(layout)?;
        let mode = plan.tile_mode();
        let opts = first_pass_options(&ctx.scratch, ctx.health, guard, mode);
        let t_block = Instant::now();
        plan.execute_into_buckets(x, dy, mode, ctx.buckets, opts)?;
        report.timing.block_loop_s = t_block.elapsed().as_secs_f64();
        // A sink the pass did not count into reads zero: `ctx` reset it.
        (report.saturated, report.non_finite) = ctx.health.totals();
        let poisoned = ctx.health.poisoned_segments();
        if guard == NumericGuard::PromoteAndRetry && !poisoned.is_empty() {
            // Promotion is bucket-granular: a band's residual segment
            // shares its first bulk segment's bucket, so both must re-run
            // together for the bucket's FP32 contents to be complete. (The
            // filter Vecs are per-promotion, outside the block loop.)
            let segments = &plan.partition().segments;
            let mut filter = vec![false; plan.z()];
            for &s in &poisoned {
                filter[segments[s].bucket] = true;
            }
            let t_promote = Instant::now();
            plan.execute_into_buckets(
                x,
                dy,
                TileMode::Fp32,
                ctx.buckets,
                ExecOptions {
                    bucket_filter: Some(&filter),
                    scratch: Some(&ctx.scratch),
                    ..Default::default()
                },
            )?;
            report.timing.promote_s = t_promote.elapsed().as_secs_f64();
            report.promoted_buckets = filter.iter().filter(|&&f| f).count();
            report.promoted_segments = segments
                .iter()
                .enumerate()
                .filter(|(_, seg)| filter[seg.bucket])
                .map(|(i, _)| i)
                .collect();
        }
        let t_reduce = Instant::now();
        plan.reduce_into(ctx.buckets, dw);
        report.timing.reduce_s = t_reduce.elapsed().as_secs_f64();
        hot_loop_allocs = ctx.scratch.hot_loop_allocs();
    }
    // Measured high-water mark: every overflow bucket with an owner is
    // zeroed and written by the first full pass (the promote subset never
    // touches more), so the peak is the owned overflow region — which the
    // partition builder makes exactly the planned `(Z−1)·|∇W|`.
    let dw_bytes = conv.dw_elems() * 4;
    let peak = (1..plan.z())
        .filter(|&b| {
            plan.partition().bucket_owners(0)[b].is_some()
                || plan.partition().bucket_owners(1)[b].is_some()
        })
        .count()
        * dw_bytes;
    report.mem = MemoryFootprint {
        workspace_bytes_planned: planned,
        workspace_bytes_peak: peak,
        hot_loop_allocs,
    };
    report.timing.total_s = t_total.elapsed().as_secs_f64();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each dispatch enum has one spelling: `parse(name(v)) == v` for every
    /// value (so no two values share a name).
    #[test]
    fn every_name_parses_back_to_its_value() {
        for a in Algorithm::ALL {
            assert_eq!(Algorithm::parse(a.name()), Some(a));
            assert_eq!(a.to_string(), a.name());
        }
        for p in Precision::ALL {
            assert_eq!(Precision::parse(p.name()), Some(p));
        }
        for p in FallbackPolicy::ALL {
            assert_eq!(p.name().parse::<FallbackPolicy>(), Ok(p));
        }
        for g in NumericGuard::ALL {
            assert_eq!(g.name().parse::<NumericGuard>(), Ok(g));
        }
        assert_eq!(Algorithm::parse("gemm"), None);
        assert_eq!(Precision::parse("fp64"), None);
        let err = "force-gemm-bfc".parse::<FallbackPolicy>().unwrap_err();
        assert!(err.contains("force-winrs"), "{err}");
    }
}
