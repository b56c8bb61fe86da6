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
//!   plan with a recoverable [`WinrsError::PlanRejected`] (no ported
//!   kernel for the filter width at the requested precision, partition
//!   invariant failure), the dispatcher transparently reruns the problem
//!   through the best-ranked substitute — and records which algorithm
//!   actually produced `∇W`.
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
use crate::engine::{ExecOptions, TileMode};
use crate::error::{Violation, WinrsError};
use crate::metrics::{PhaseTimings, TimingSink};
use crate::plan::WinRsPlan;
use crate::workspace::{ExecCtx, Workspace, WorkspaceLayout};
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
    /// Propagate the rejection as an error; never substitute algorithms.
    Strict,
    /// Fall back to GEMM-BFC on any recoverable rejection (default).
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

impl FromStr for FallbackPolicy {
    type Err = String;
    fn from_str(s: &str) -> Result<FallbackPolicy, String> {
        FallbackPolicy::ALL
            .into_iter()
            .find(|p| p.name() == s)
            .ok_or_else(|| {
                let names: Vec<&str> = FallbackPolicy::ALL.iter().map(|p| p.name()).collect();
                format!(
                    "unknown fallback policy `{s}` (expected {})",
                    names.join(" | ")
                )
            })
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
    /// Short stable name for reports.
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
        match s {
            "ignore" => Ok(NumericGuard::Ignore),
            "warn" => Ok(NumericGuard::Warn),
            "promote-retry" | "promote" => Ok(NumericGuard::PromoteAndRetry),
            other => Err(format!(
                "unknown numeric guard `{other}` (expected ignore | warn | \
                 promote-retry)"
            )),
        }
    }
}

/// What actually happened during one dispatched BFC execution.
#[derive(Clone, Debug)]
pub struct ExecutionReport {
    /// The algorithm that produced the returned `∇W`.
    pub algorithm: Algorithm,
    /// The precision the caller asked for.
    pub requested_precision: Precision,
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
    /// Phase-level timing breakdown: the wall phases, plus the FT/IT/EWMM/OT
    /// busy decomposition when the WinRS engine ran.
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
    /// `algorithm=… precision=… guard=… [z=…] workspace=…B peak=…B
    /// hot_loop_allocs=… saturated=… non-finite=… [promoted=…/… buckets]
    /// [fallback="…"]`.
    pub fn summary_line(&self) -> String {
        let mut s = format!(
            "algorithm={} precision={:?} guard={}",
            self.algorithm.name(),
            self.requested_precision,
            self.guard.name(),
        );
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
    let bytes = substitute_layout(alg, conv).workspace_bytes();
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

/// Workspace layout a substitute algorithm would declare — fallbacks own
/// their buffers internally, but their footprint is accounted through the
/// same machinery as WinRS workspace.
pub fn substitute_layout(alg: Algorithm, conv: &ConvShape) -> WorkspaceLayout {
    match alg {
        Algorithm::WinRs => WorkspaceLayout::accounting("winrs", 0),
        Algorithm::GemmBfc => WorkspaceLayout::accounting(
            "gemm-lowering",
            winrs_conv::gemm_bfc::workspace_bytes(GemmAlgo::Algo1, conv),
        ),
        Algorithm::FftBfc => WorkspaceLayout::accounting(
            "fft-stages",
            winrs_conv::fft_bfc::workspace_bytes(conv),
        ),
        // The direct kernels stream straight from X/∇Y into ∇W.
        Algorithm::Direct => WorkspaceLayout::accounting("direct", 0),
    }
}

/// Execute an already-built plan with health accounting and (optionally)
/// bucket-granular FP32 promotion. `∇W` is written into `dw` and every
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
    let mode = plan.tile_mode();
    let mut report = ExecutionReport::new(Algorithm::WinRs, plan.precision(), guard);
    report.z = Some(plan.z());

    let layout = plan.workspace_layout();
    ws.ensure(layout);
    let planned = layout.workspace_bytes();
    let hot_loop_allocs;
    {
        let ExecCtx {
            buckets,
            scratch,
            health,
        } = ws.ctx(layout)?;
        let sink = TimingSink::new();
        let opts = ExecOptions {
            scratch: Some(&scratch),
            // FP32 can't saturate and `Ignore` asked for no accounting, so
            // skip the counter traffic on those paths.
            health: (guard != NumericGuard::Ignore && mode != TileMode::Fp32).then_some(health),
            timing: Some(&sink),
            ..Default::default()
        };
        let t_block = Instant::now();
        plan.execute_into_buckets(x, dy, mode, buckets, opts)?;
        report.timing.block_loop_s = t_block.elapsed().as_secs_f64();
        if opts.health.is_some() {
            let (saturated, non_finite) = health.totals();
            report.saturated = saturated;
            report.non_finite = non_finite;
            let poisoned = health.poisoned_segments();
            if guard == NumericGuard::PromoteAndRetry && !poisoned.is_empty() {
                // Promotion is bucket-granular: a band's residual segment
                // shares its first bulk segment's bucket, so both must
                // re-run together for the bucket's FP32 contents to be
                // complete. (The filter Vecs are per-promotion, outside
                // the block loop.)
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
                    buckets,
                    ExecOptions {
                        bucket_filter: Some(&filter),
                        scratch: Some(&scratch),
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
        }
        let t_reduce = Instant::now();
        plan.reduce_into(buckets, dw);
        report.timing.reduce_s = t_reduce.elapsed().as_secs_f64();
        report
            .timing
            .absorb_sink(&sink, crate::engine::sched::workers());
        hot_loop_allocs = scratch.hot_loop_allocs();
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
        for g in [
            NumericGuard::Ignore,
            NumericGuard::Warn,
            NumericGuard::PromoteAndRetry,
        ] {
            assert_eq!(g.name().parse::<NumericGuard>(), Ok(g));
        }
        assert_eq!(Algorithm::parse("gemm"), None);
        assert_eq!(Precision::parse("fp64"), None);
        let err = "force-gemm-bfc".parse::<FallbackPolicy>().unwrap_err();
        assert!(err.contains("force-winrs"), "{err}");
    }
}
