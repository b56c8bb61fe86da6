//! Wire protocol of the BFC service: JSON job descriptions in, JSON
//! execution reports out.
//!
//! Operands travel *by seed*, not by value: a job names `(x_seed, dy_seed,
//! scale)` and both ends materialise the tensors with
//! [`Tensor4::random_uniform`], which is deterministic. That keeps request
//! bodies tiny (a fig.10 operand pair is ~50 MB as JSON) while still
//! letting a client reproduce the exact inputs and verify the returned
//! gradient bit-for-bit — the e2e test does exactly that.
//!
//! Gradients return either as an FNV-1a digest over the f32 bit patterns
//! (`"gradient": "digest"`, the default) or as a full JSON array
//! (`"full"`). Full mode round-trips every f32 exactly: f32 → f64 is
//! value-preserving, Rust's `{}` float formatting is shortest-roundtrip,
//! and the parse back narrows to the identical f32.

use std::str::FromStr;
use std::time::Duration;

use crate::http::MAX_BODY_BYTES;
use winrs_conv::ConvShape;
use winrs_core::{ExecutionReport, FallbackPolicy, NumericGuard, PoolStats, Precision, WinrsError};
use winrs_json::Json;
use winrs_tensor::Tensor4;

/// A parsed `POST /v1/bfc` body.
#[derive(Clone, Debug)]
pub struct JobRequest {
    /// The convolution problem.
    pub shape: ConvShape,
    /// Requested arithmetic precision.
    pub precision: Precision,
    /// Fallback policy for the dispatch.
    pub policy: FallbackPolicy,
    /// Numeric guard for reduced precision.
    pub guard: NumericGuard,
    /// Per-job deadline, measured from admission into the queue.
    pub deadline: Option<Duration>,
    /// Seed for the input feature map `X`.
    pub x_seed: u64,
    /// Seed for the output gradient `∇Y`.
    pub dy_seed: u64,
    /// Uniform fill scale for both operands.
    pub scale: f64,
    /// How to return `∇W`.
    pub gradient: GradientMode,
}

/// How the computed `∇W` travels back to the client.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GradientMode {
    /// FNV-1a 64-bit digest over the f32 bit patterns (default).
    Digest,
    /// Full tensor as a JSON number array (bit-exact, large).
    Full,
    /// Report only; gradient discarded server-side.
    None,
}

fn get_usize(obj: &Json, key: &str) -> Result<usize, String> {
    obj.get(key)
        .and_then(Json::as_f64)
        .filter(|v| *v >= 0.0 && v.fract() == 0.0)
        .map(|v| v as usize)
        .ok_or_else(|| format!("missing or non-integer field `{key}`"))
}

fn get_usize_or(obj: &Json, key: &str, default: usize) -> Result<usize, String> {
    match obj.get(key) {
        None => Ok(default),
        Some(_) => get_usize(obj, key),
    }
}

impl JobRequest {
    /// Parse a request body. Every validation failure is reported with the
    /// offending field name so the client can repair the request.
    pub fn from_json(doc: &Json) -> Result<JobRequest, String> {
        let shape_obj = doc.get("shape").ok_or("missing object field `shape`")?;
        let fh = get_usize(shape_obj, "fh")?;
        let fw = get_usize(shape_obj, "fw")?;
        let shape = ConvShape::try_new(
            get_usize(shape_obj, "n")?,
            get_usize(shape_obj, "ih")?,
            get_usize(shape_obj, "iw")?,
            get_usize(shape_obj, "ic")?,
            get_usize(shape_obj, "oc")?,
            fh,
            fw,
            get_usize_or(shape_obj, "ph", fh / 2)?,
            get_usize_or(shape_obj, "pw", fw / 2)?,
        )
        .map_err(|e| format!("invalid shape: {e}"))?;
        // A job's memory is bounded like its body: X + ∇Y + ∇W at f32 must
        // fit the body cap, checked before `operands` allocates anything.
        // Each count fits a `usize` (`try_new` checked), so their sum in
        // u128 cannot wrap.
        let job_bytes = [shape.x_elems(), shape.dy_elems(), shape.dw_elems()]
            .iter()
            .map(|&elems| elems as u128 * 4)
            .sum::<u128>();
        if job_bytes > MAX_BODY_BYTES as u128 {
            return Err(format!(
                "job too large: X + ∇Y + ∇W at f32 take {job_bytes} bytes, \
                 over the {MAX_BODY_BYTES}-byte job cap"
            ));
        }

        let precision = match doc.get("precision").and_then(Json::as_str) {
            None => Precision::Fp32,
            Some(s) => Precision::parse(s).ok_or_else(|| {
                let names: Vec<&str> = Precision::ALL.iter().map(|p| p.name()).collect();
                format!("unknown precision `{s}` (expected {})", names.join(" | "))
            })?,
        };
        let policy = match doc.get("policy").and_then(Json::as_str) {
            None => FallbackPolicy::default(),
            Some(s) => FallbackPolicy::from_str(s)?,
        };
        let guard = match doc.get("guard").and_then(Json::as_str) {
            None => NumericGuard::default(),
            Some(s) => NumericGuard::from_str(s)?,
        };
        let deadline = match doc.get("deadline_ms") {
            None => None,
            Some(v) => {
                let ms = v
                    .as_f64()
                    .filter(|m| *m >= 0.0 && m.is_finite())
                    .ok_or("field `deadline_ms` must be a non-negative number")?;
                Some(Duration::from_secs_f64(ms / 1000.0))
            }
        };
        let x_seed = doc
            .get("x_seed")
            .map(|v| v.as_f64().map(|f| f as u64).ok_or("`x_seed` must be a number"))
            .transpose()?
            .unwrap_or(1);
        let dy_seed = doc
            .get("dy_seed")
            .map(|v| v.as_f64().map(|f| f as u64).ok_or("`dy_seed` must be a number"))
            .transpose()?
            .unwrap_or(2);
        let scale = match doc.get("scale") {
            None => 1.0,
            Some(v) => v
                .as_f64()
                .filter(|s| s.is_finite() && *s > 0.0)
                .ok_or("field `scale` must be a positive finite number")?,
        };
        let gradient = match doc.get("gradient").and_then(Json::as_str) {
            None | Some("digest") => GradientMode::Digest,
            Some("full") => GradientMode::Full,
            Some("none") => GradientMode::None,
            Some(other) => {
                return Err(format!(
                    "unknown gradient mode `{other}` (expected digest | full | none)"
                ))
            }
        };

        Ok(JobRequest {
            shape,
            precision,
            policy,
            guard,
            deadline,
            x_seed,
            dy_seed,
            scale,
            gradient,
        })
    }

    /// Serialise this request as a `POST /v1/bfc` body (used by the client
    /// and the load generator).
    pub fn to_json(&self) -> Json {
        let s = &self.shape;
        let mut fields = vec![
            (
                "shape",
                Json::obj(vec![
                    ("n", Json::Int(s.n as i64)),
                    ("ih", Json::Int(s.ih as i64)),
                    ("iw", Json::Int(s.iw as i64)),
                    ("ic", Json::Int(s.ic as i64)),
                    ("oc", Json::Int(s.oc as i64)),
                    ("fh", Json::Int(s.fh as i64)),
                    ("fw", Json::Int(s.fw as i64)),
                    ("ph", Json::Int(s.ph as i64)),
                    ("pw", Json::Int(s.pw as i64)),
                ]),
            ),
            ("precision", Json::str(self.precision.name())),
            ("policy", Json::str(self.policy.name())),
            ("guard", Json::str(self.guard.name())),
            ("x_seed", Json::Int(self.x_seed as i64)),
            ("dy_seed", Json::Int(self.dy_seed as i64)),
            ("scale", Json::Num(self.scale)),
            (
                "gradient",
                Json::str(match self.gradient {
                    GradientMode::Digest => "digest",
                    GradientMode::Full => "full",
                    GradientMode::None => "none",
                }),
            ),
        ];
        if let Some(d) = self.deadline {
            fields.push(("deadline_ms", Json::Num(d.as_secs_f64() * 1000.0)));
        }
        Json::obj(fields)
    }

    /// Materialise the deterministic operand pair `(X, ∇Y)` this request
    /// names. Both server and verifying client call this.
    pub fn operands(&self) -> (Tensor4<f32>, Tensor4<f32>) {
        let s = &self.shape;
        let x = Tensor4::<f32>::random_uniform([s.n, s.ih, s.iw, s.ic], self.x_seed, self.scale);
        let dy =
            Tensor4::<f32>::random_uniform([s.n, s.oh(), s.ow(), s.oc], self.dy_seed, self.scale);
        (x, dy)
    }
}

/// FNV-1a 64-bit over the little-endian f32 bit patterns of a gradient.
/// Deterministic and cheap; collisions are irrelevant here because the
/// e2e tests compare digests of *equal-by-construction* tensors.
pub fn gradient_digest(dw: &Tensor4<f32>) -> String {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for v in dw.as_slice() {
        for b in v.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
    }
    format!("{h:016x}")
}

/// Render an [`ExecutionReport`] (plus the gradient, per `mode`) as the
/// success body of `POST /v1/bfc`.
pub fn job_response_json(report: &ExecutionReport, dw: &Tensor4<f32>, mode: GradientMode) -> Json {
    let gradient = match mode {
        GradientMode::Digest => Json::obj(vec![
            ("mode", Json::str("digest")),
            ("dims", dims_json(dw.dims())),
            ("fnv1a64", Json::str(&gradient_digest(dw))),
        ]),
        GradientMode::Full => Json::obj(vec![
            ("mode", Json::str("full")),
            ("dims", dims_json(dw.dims())),
            (
                "values",
                Json::Arr(dw.as_slice().iter().map(|v| Json::Num(*v as f64)).collect()),
            ),
        ]),
        GradientMode::None => Json::obj(vec![("mode", Json::str("none"))]),
    };
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("report", report_json(report)),
        ("gradient", gradient),
    ])
}

fn dims_json(dims: [usize; 4]) -> Json {
    Json::Arr(dims.iter().map(|d| Json::Int(*d as i64)).collect())
}

/// The report sub-object of a job response.
pub fn report_json(report: &ExecutionReport) -> Json {
    let mut fields = vec![
        ("algorithm", Json::str(report.algorithm.name())),
        ("chosen", Json::str(report.chosen.name())),
        ("precision", Json::str(report.requested_precision.name())),
        (
            "tiles",
            match report.tiles {
                Some(t) => Json::str(t.name()),
                None => Json::Null,
            },
        ),
        ("guard", Json::str(report.guard.name())),
        (
            "fallback_reason",
            match &report.fallback_reason {
                Some(e) => Json::str(&e.to_string()),
                None => Json::Null,
            },
        ),
        (
            "z",
            match report.z {
                Some(z) => Json::Int(z as i64),
                None => Json::Null,
            },
        ),
        ("saturated", Json::Int(report.saturated as i64)),
        ("non_finite", Json::Int(report.non_finite as i64)),
        (
            "promoted_buckets",
            Json::Int(report.promoted_buckets as i64),
        ),
        (
            "timing",
            Json::obj(vec![
                ("total_s", Json::Num(report.timing.total_s)),
                ("plan_s", Json::Num(report.timing.plan_s)),
                ("block_loop_s", Json::Num(report.timing.block_loop_s)),
                ("reduce_s", Json::Num(report.timing.reduce_s)),
            ]),
        ),
        ("summary", Json::str(&report.summary_line())),
    ];
    if let Some(pool) = &report.pool {
        fields.push(("pool", pool_json(pool)));
    }
    if let Some(t) = &report.tuner {
        fields.push((
            "tuner",
            Json::obj(vec![
                ("source", Json::str(t.source.name())),
                ("predicted_s", Json::Num(t.predicted_s)),
                (
                    "measured_s",
                    match t.measured_s {
                        Some(m) => Json::Num(m),
                        None => Json::Null,
                    },
                ),
            ]),
        ));
    }
    Json::obj(fields)
}

/// Every [`PoolStats`] counter as one object: the `pool` of a job report
/// and of `GET /v1/stats`.
pub fn pool_json(pool: &PoolStats) -> Json {
    let n = |v: u64| Json::Int(v as i64);
    Json::obj(vec![
        ("slots", n(pool.slots as u64)),
        ("in_use", n(pool.in_use as u64)),
        ("leases", n(pool.leases)),
        ("waits", n(pool.waits)),
        ("poisonings", n(pool.poisonings)),
        ("rebuilds", n(pool.rebuilds)),
        ("exhausted", n(pool.exhausted)),
        ("degradations", n(pool.degradations)),
        ("cache_poisonings", n(pool.cache_poisonings)),
        ("plan_hits", n(pool.plan_hits)),
        ("plan_misses", n(pool.plan_misses)),
    ])
}

/// An error body: `{"ok": false, "error": "...", "kind": "..."}`.
pub fn error_json(kind: &str, message: &str) -> Json {
    Json::obj(vec![
        ("ok", Json::Bool(false)),
        ("kind", Json::str(kind)),
        ("error", Json::str(message)),
    ])
}

/// Map a dispatch error onto `(HTTP status, machine kind, Retry-After
/// seconds)`. Backpressure signals (`PoolExhausted`) are retryable and say
/// so; client-side contract violations are 4xx and are not.
pub fn error_status(err: &WinrsError) -> (u16, &'static str, Option<u64>) {
    match err {
        WinrsError::PoolExhausted { .. } => (429, "pool-exhausted", Some(1)),
        WinrsError::DeadlineExceeded { .. } => (504, "deadline-exceeded", None),
        WinrsError::InvalidShape(_) => (400, "invalid-shape", None),
        WinrsError::PlanRejected(_) => (422, "plan-rejected", None),
        WinrsError::ExecutionRejected(_) => (422, "execution-rejected", None),
        WinrsError::ExecutionPanicked { .. } => (500, "execution-panicked", None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig10_body() -> Json {
        Json::obj(vec![
            (
                "shape",
                Json::obj(vec![
                    ("n", Json::Int(2)),
                    ("ih", Json::Int(16)),
                    ("iw", Json::Int(16)),
                    ("ic", Json::Int(8)),
                    ("oc", Json::Int(8)),
                    ("fh", Json::Int(3)),
                    ("fw", Json::Int(3)),
                ]),
            ),
            ("deadline_ms", Json::Num(250.0)),
        ])
    }

    #[test]
    fn parses_minimal_request_with_defaults() {
        let req = JobRequest::from_json(&fig10_body()).unwrap();
        assert_eq!(req.shape, ConvShape::square(2, 16, 8, 8, 3));
        assert_eq!(req.precision, Precision::Fp32);
        assert_eq!(req.policy, FallbackPolicy::Auto);
        assert_eq!(req.guard, NumericGuard::Warn);
        assert_eq!(req.deadline, Some(Duration::from_millis(250)));
        assert_eq!((req.x_seed, req.dy_seed), (1, 2));
        assert_eq!(req.gradient, GradientMode::Digest);
    }

    #[test]
    fn request_round_trips_through_its_own_json() {
        // Every policy × precision, `force-winrs` included: a client's
        // body must parse back on the server.
        for policy in FallbackPolicy::ALL {
            for precision in Precision::ALL {
                let mut req = JobRequest::from_json(&fig10_body()).unwrap();
                req.precision = precision;
                req.guard = NumericGuard::PromoteAndRetry;
                req.policy = policy;
                req.gradient = GradientMode::Full;
                req.x_seed = 77;
                let doc = Json::parse(&req.to_json().to_document()).unwrap();
                let back = JobRequest::from_json(&doc).unwrap();
                assert_eq!(back.shape, req.shape);
                assert_eq!(back.precision, precision);
                assert_eq!(back.guard, req.guard);
                assert_eq!(back.policy, policy);
                assert_eq!(back.gradient, req.gradient);
                assert_eq!(back.x_seed, 77);
                assert_eq!(back.deadline, req.deadline);
            }
        }
    }

    #[test]
    fn bad_fields_name_the_culprit() {
        let mut doc = fig10_body();
        if let Json::Obj(pairs) = &mut doc {
            pairs.push(("precision".into(), Json::str("fp64")));
        }
        let err = JobRequest::from_json(&doc).unwrap_err();
        assert!(err.contains("fp64"), "{err}");

        let err = JobRequest::from_json(&Json::obj(vec![])).unwrap_err();
        assert!(err.contains("shape"), "{err}");
    }

    #[test]
    fn jobs_over_the_body_cap_are_refused_before_allocating() {
        let batch = |n: usize| {
            JobRequest::from_json(
                &Json::parse(&format!(
                    r#"{{"shape": {{"n":{n}, "ih":128, "iw":128, "ic":64, "oc":64, "fh":3, "fw":3}}}}"#
                ))
                .unwrap(),
            )
        };
        // 2·(2·128²·64)·4 + 64²·9·4 bytes = 16,924,672, just over 16 MiB.
        let err = batch(2).unwrap_err();
        assert!(err.contains("16924672 bytes"), "{err}");
        assert!(
            err.contains(&format!("{MAX_BODY_BYTES}-byte job cap")),
            "{err}"
        );
        // Half the batch fits: 8,536,064 bytes.
        assert!(batch(1).is_ok());
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let a = Tensor4::<f32>::random_uniform([2, 3, 3, 2], 9, 1.0);
        let b = Tensor4::<f32>::random_uniform([2, 3, 3, 2], 9, 1.0);
        let c = Tensor4::<f32>::random_uniform([2, 3, 3, 2], 10, 1.0);
        assert_eq!(gradient_digest(&a), gradient_digest(&b));
        assert_ne!(gradient_digest(&a), gradient_digest(&c));
    }

    #[test]
    fn full_gradient_json_round_trips_f32_bit_exactly() {
        let dw = Tensor4::<f32>::random_uniform([1, 2, 2, 3], 4, 1.0);
        let rendered = Json::Arr(dw.as_slice().iter().map(|v| Json::Num(*v as f64)).collect())
            .to_document();
        let parsed = Json::parse(&rendered).unwrap();
        let values: Vec<f32> = parsed
            .items()
            .unwrap()
            .iter()
            .map(|v| v.as_f64().unwrap() as f32)
            .collect();
        for (orig, round) in dw.as_slice().iter().zip(&values) {
            assert_eq!(orig.to_bits(), round.to_bits());
        }
    }
}
