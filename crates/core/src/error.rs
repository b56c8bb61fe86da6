//! Workspace-wide typed errors for fail-safe BFC execution.
//!
//! WinRS used to enforce its invariants with `assert!`/`panic!`, which is
//! fine for a research prototype but wrong for a library: a training loop
//! that feeds one odd layer shape should get a recoverable, descriptive
//! error (and ideally a fallback algorithm — see [`crate::fallback`]), not
//! a process abort. This module defines the error type every fallible
//! WinRS entry point returns.
//!
//! Two design rules:
//!
//! * **Exhaustive reporting** — validation passes collect *every* violated
//!   invariant before returning, so a caller fixing their input fixes it
//!   once, not once per run.
//! * **Typed violations** — each violation is a structured enum variant,
//!   not a string, so dispatchers (e.g. the fallback policy) can branch on
//!   the *reason* a plan was rejected.

use crate::config::Precision;
use std::fmt;
use winrs_conv::{ConvShape, ShapeError, ShapeViolation};

/// One violated invariant, anywhere in the plan-build-execute pipeline.
#[derive(Clone, Debug, PartialEq)]
pub enum Violation {
    /// The convolution shape itself is ill-formed (empty output, zero
    /// dims). No algorithm can run such a problem.
    Shape(ShapeViolation),
    /// No kernel in the inventory supports this filter width at the
    /// requested reduced precision (the paper ports six of the thirteen
    /// kernels to Tensor-Core FP16; widths whose divisors all lack ports —
    /// e.g. 1, 2, 4 — cannot run the reduced-precision WinRS path).
    NoReducedPrecisionKernel {
        /// Filter-gradient width `F_W`.
        fw: usize,
        /// The requested precision.
        precision: Precision,
    },
    /// The built partition does not tile `O_H × (O_W + pad)` exactly
    /// (internal invariant — indicates a configuration bug, never user
    /// input).
    PartitionCoverage {
        /// Output-gradient height.
        oh: usize,
        /// Output-gradient width including phantom pad columns.
        padded_ow: usize,
    },
    /// Two segments of the same launch pass share a bucket (internal
    /// invariant).
    BucketCollision {
        /// The contested bucket index.
        bucket: usize,
        /// The launch pass in which the collision occurs.
        pass: u8,
    },
    /// The caller-provided bucket buffer has the wrong length.
    BucketSizeMismatch {
        /// Required length `Z · |∇W|`.
        expected: usize,
        /// Provided length.
        got: usize,
    },
    /// An operand's dimensions disagree with the plan's shape.
    TensorDimsMismatch {
        /// `"x"`, `"dy"`, `"w"` or `"dw"`.
        tensor: &'static str,
        /// Dimensions the plan requires.
        expected: [usize; 4],
        /// Dimensions actually provided.
        got: [usize; 4],
    },
    /// A caller-managed [`crate::Workspace`] is smaller than the plan's
    /// [`crate::WorkspaceLayout`] requires (the caller skipped
    /// `Workspace::ensure`).
    WorkspaceTooSmall {
        /// Arena elements the layout requires.
        needed_elems: usize,
        /// Arena elements the workspace holds.
        got_elems: usize,
    },
    /// An `execute_*` entry point was called on a plan built for a
    /// different precision.
    PrecisionMismatch {
        /// Precision the plan was built for.
        plan: Precision,
        /// The entry point that was called (`"execute_f32"`, …).
        entry: &'static str,
        /// Precision that entry point requires.
        required: Precision,
    },
    /// A pinned SIMD width (`WINRS_FORCE_WIDTH` / `--force-width`) names a
    /// kernel-family member this build + CPU cannot run. Rejected typed
    /// rather than silently falling back: a user pinning `avx512` for a
    /// bit-reproduction run must not silently get `avx2` numbers-equal-
    /// but-timing-different behaviour.
    SimdWidthUnavailable {
        /// The width token as given (possibly not even a valid name).
        requested: String,
        /// The best width the host actually supports.
        detected: &'static str,
    },
}

impl Violation {
    /// One [`Violation::TensorDimsMismatch`] per `(tensor, expected, got)`
    /// operand whose dims disagree, in the order given; empty when every
    /// operand fits.
    pub(crate) fn dims_mismatches<const K: usize>(
        operands: [(&'static str, [usize; 4], [usize; 4]); K],
    ) -> Vec<Violation> {
        operands
            .into_iter()
            .filter(|(_, expected, got)| expected != got)
            .map(|(tensor, expected, got)| Violation::TensorDimsMismatch {
                tensor,
                expected,
                got,
            })
            .collect()
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Shape(v) => write!(f, "{v}"),
            Violation::NoReducedPrecisionKernel { fw, precision } => write!(
                f,
                "no {precision:?}-ported kernel supports filter width {fw} \
                 (ported output lengths are 3, 5, 7, 9)"
            ),
            Violation::PartitionCoverage { oh, padded_ow } => write!(
                f,
                "partition does not tile the {oh}x{padded_ow} output-gradient exactly"
            ),
            Violation::BucketCollision { bucket, pass } => {
                write!(f, "bucket {bucket} claimed twice in pass {pass}")
            }
            Violation::BucketSizeMismatch { expected, got } => {
                write!(f, "bucket buffer holds {got} elements, plan needs {expected}")
            }
            Violation::TensorDimsMismatch {
                tensor,
                expected,
                got,
            } => write!(
                f,
                "tensor `{tensor}` has dims {got:?}, plan requires {expected:?}"
            ),
            Violation::WorkspaceTooSmall {
                needed_elems,
                got_elems,
            } => write!(
                f,
                "workspace arena holds {got_elems} elements, layout needs \
                 {needed_elems} (call Workspace::ensure with the plan's layout)"
            ),
            Violation::PrecisionMismatch {
                plan,
                entry,
                required,
            } => write!(
                f,
                "`{entry}` requires a {required:?} plan, but this plan was \
                 built for {plan:?}"
            ),
            Violation::SimdWidthUnavailable {
                requested,
                detected,
            } => write!(
                f,
                "forced SIMD width `{requested}` is unavailable on this host \
                 (best compiled+detected width: `{detected}`; unset \
                 WINRS_FORCE_WIDTH or pick an available width)"
            ),
        }
    }
}

/// The workspace-wide WinRS error: which stage rejected the request, and
/// the complete list of violations it found.
#[derive(Clone, Debug, PartialEq)]
pub enum WinrsError {
    /// The problem description itself is invalid — no algorithm (WinRS or
    /// fallback) can execute it.
    InvalidShape(Vec<Violation>),
    /// The shape is valid but outside the WinRS engine's envelope; a
    /// fallback algorithm can still run it (see [`crate::fallback`]).
    PlanRejected(Vec<Violation>),
    /// Plan execution was called with arguments inconsistent with the
    /// plan (wrong tensor dims, wrong precision, wrong buffer size).
    ExecutionRejected(Vec<Violation>),
    /// Plan execution panicked mid-flight. The panic was contained by the
    /// [`crate::pool::ExecHandle`] `catch_unwind` boundary, the leased
    /// workspace was poisoned (discarded and rebuilt, never re-issued
    /// dirty), and the half-written ∇W buffer was dropped during unwind —
    /// the caller observes only this typed error.
    ExecutionPanicked {
        /// Human-readable panic site or payload (best effort).
        site: String,
    },
    /// Admission control: every pool slot stayed leased for the whole
    /// configured wait, so the request was rejected rather than queued
    /// unboundedly (backpressure).
    PoolExhausted {
        /// Total slots in the pool.
        slots: usize,
        /// How long the caller waited before giving up, in milliseconds.
        waited_ms: u64,
    },
    /// The per-call deadline expired before (or during) execution. Under
    /// an `Auto` fallback policy the dispatcher degrades down the ladder
    /// WinRS → GEMM-BFC → direct while the budget lasts: every rung is
    /// charged against the *one* window opened at call entry, and when it
    /// expires before a rung starts this error surfaces with [`rung`]
    /// naming how far the ladder got.
    ///
    /// [`rung`]: WinrsError::DeadlineExceeded::rung
    DeadlineExceeded {
        /// The configured deadline, in milliseconds.
        deadline_ms: u64,
        /// Time actually elapsed when the deadline check fired.
        elapsed_ms: u64,
        /// The degradation rung that could not start because the shared
        /// budget had expired (`None` when the deadline fired on the
        /// primary path, before any degradation).
        rung: Option<&'static str>,
    },
}

impl WinrsError {
    /// The complete violation list, regardless of stage. Runtime failures
    /// ([`ExecutionPanicked`](WinrsError::ExecutionPanicked),
    /// [`PoolExhausted`](WinrsError::PoolExhausted),
    /// [`DeadlineExceeded`](WinrsError::DeadlineExceeded)) carry no
    /// violated invariant and report an empty list.
    pub fn violations(&self) -> &[Violation] {
        match self {
            WinrsError::InvalidShape(v)
            | WinrsError::PlanRejected(v)
            | WinrsError::ExecutionRejected(v) => v,
            WinrsError::ExecutionPanicked { .. }
            | WinrsError::PoolExhausted { .. }
            | WinrsError::DeadlineExceeded { .. } => &[],
        }
    }

    /// Short stage label for reports and logs.
    pub fn stage(&self) -> &'static str {
        match self {
            WinrsError::InvalidShape(_) => "invalid-shape",
            WinrsError::PlanRejected(_) => "plan-rejected",
            WinrsError::ExecutionRejected(_) => "execution-rejected",
            WinrsError::ExecutionPanicked { .. } => "execution-panicked",
            WinrsError::PoolExhausted { .. } => "pool-exhausted",
            WinrsError::DeadlineExceeded { .. } => "deadline-exceeded",
        }
    }

    /// True when a fallback algorithm could still run the problem: the
    /// shape itself is fine, only the WinRS envelope was exceeded.
    pub fn recoverable_by_fallback(&self) -> bool {
        matches!(self, WinrsError::PlanRejected(_))
    }

    /// True when the problem is fine but *this attempt* failed for a
    /// runtime reason (panic, pool pressure, deadline): a slower algorithm
    /// on the degradation ladder can still deliver a correct ∇W. Distinct
    /// from [`recoverable_by_fallback`](Self::recoverable_by_fallback),
    /// which classifies plan-time envelope rejections.
    pub fn recoverable_by_degradation(&self) -> bool {
        matches!(
            self,
            WinrsError::ExecutionPanicked { .. }
                | WinrsError::PoolExhausted { .. }
                | WinrsError::DeadlineExceeded { .. }
        )
    }
}

impl fmt::Display for WinrsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let what = match self {
            WinrsError::InvalidShape(_) => "invalid problem shape",
            WinrsError::PlanRejected(_) => "problem outside the WinRS envelope",
            WinrsError::ExecutionRejected(_) => "execution arguments rejected",
            WinrsError::ExecutionPanicked { site } => {
                return write!(
                    f,
                    "execution panicked at {site}; workspace lease poisoned and \
                     rebuilt, partial ∇W discarded"
                );
            }
            WinrsError::PoolExhausted { slots, waited_ms } => {
                return write!(
                    f,
                    "workspace pool exhausted: all {slots} slot{} stayed leased \
                     for {waited_ms} ms",
                    if *slots == 1 { "" } else { "s" }
                );
            }
            WinrsError::DeadlineExceeded {
                deadline_ms,
                elapsed_ms,
                rung,
            } => {
                write!(
                    f,
                    "deadline of {deadline_ms} ms exceeded ({elapsed_ms} ms elapsed)"
                )?;
                if let Some(rung) = rung {
                    write!(f, " before the `{rung}` rung could start")?;
                }
                return Ok(());
            }
        };
        let v = self.violations();
        write!(f, "{what} ({} violation{}): ", v.len(), if v.len() == 1 { "" } else { "s" })?;
        for (i, violation) in v.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{violation}")?;
        }
        Ok(())
    }
}

impl std::error::Error for WinrsError {}

impl From<ShapeError> for WinrsError {
    fn from(e: ShapeError) -> Self {
        WinrsError::InvalidShape(e.violations.into_iter().map(Violation::Shape).collect())
    }
}

impl WinrsError {
    /// Refuse an ill-formed `conv` as [`WinrsError::InvalidShape`], listing
    /// every violated invariant: its output dims, and so every operand's
    /// expected dims, are undefined.
    pub(crate) fn check_shape(conv: &ConvShape) -> Result<(), WinrsError> {
        match conv.violations() {
            v if v.is_empty() => Ok(()),
            violations => Err(ShapeError { violations }.into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_lists_every_violation() {
        let err = WinrsError::ExecutionRejected(vec![
            Violation::BucketSizeMismatch {
                expected: 128,
                got: 64,
            },
            Violation::TensorDimsMismatch {
                tensor: "x",
                expected: [1, 8, 8, 2],
                got: [1, 8, 8, 3],
            },
        ]);
        let msg = err.to_string();
        assert!(msg.contains("2 violations"), "{msg}");
        assert!(msg.contains("bucket buffer holds 64"), "{msg}");
        assert!(msg.contains("`x`"), "{msg}");
    }

    #[test]
    fn shape_error_converts_to_invalid_shape() {
        let e = winrs_conv::ConvShape::try_new(0, 8, 8, 1, 1, 3, 3, 1, 1).unwrap_err();
        let w: WinrsError = e.into();
        assert!(matches!(&w, WinrsError::InvalidShape(v) if v.len() == 1));
        assert!(!w.recoverable_by_fallback());
        assert_eq!(w.stage(), "invalid-shape");
    }

    #[test]
    fn plan_rejection_is_recoverable() {
        let err = WinrsError::PlanRejected(vec![Violation::NoReducedPrecisionKernel {
            fw: 4,
            precision: Precision::Fp16,
        }]);
        assert!(err.recoverable_by_fallback());
        assert!(err.to_string().contains("filter width 4"));
    }

    #[test]
    fn runtime_failures_are_degradable_not_fallback_recoverable() {
        let cases = [
            WinrsError::ExecutionPanicked {
                site: "fused block loop".into(),
            },
            WinrsError::PoolExhausted {
                slots: 2,
                waited_ms: 5,
            },
            WinrsError::DeadlineExceeded {
                deadline_ms: 10,
                elapsed_ms: 17,
                rung: None,
            },
        ];
        for err in cases {
            assert!(err.recoverable_by_degradation(), "{err}");
            assert!(!err.recoverable_by_fallback(), "{err}");
            assert!(err.violations().is_empty(), "{err}");
        }
    }

    #[test]
    fn runtime_failure_display_names_the_cause() {
        let e = WinrsError::ExecutionPanicked {
            site: "fused block loop".into(),
        };
        assert_eq!(e.stage(), "execution-panicked");
        let msg = e.to_string();
        assert!(msg.contains("fused block loop"), "{msg}");
        assert!(msg.contains("poisoned"), "{msg}");

        let e = WinrsError::PoolExhausted {
            slots: 1,
            waited_ms: 3,
        };
        assert_eq!(e.stage(), "pool-exhausted");
        let msg = e.to_string();
        assert!(msg.contains("all 1 slot stayed leased"), "{msg}");

        let e = WinrsError::DeadlineExceeded {
            deadline_ms: 10,
            elapsed_ms: 17,
            rung: None,
        };
        assert_eq!(e.stage(), "deadline-exceeded");
        assert!(e.to_string().contains("10 ms exceeded (17 ms"), "{}", e);

        let e = WinrsError::DeadlineExceeded {
            deadline_ms: 10,
            elapsed_ms: 17,
            rung: Some("gemm-bfc"),
        };
        let msg = e.to_string();
        assert!(msg.contains("before the `gemm-bfc` rung"), "{msg}");
    }
}
