#![warn(missing_docs)]
// Unit tests assert on known-good values; unwrap is fine there.
#![cfg_attr(test, allow(clippy::unwrap_used))]
//! winrs-serve: batched backward-filter convolution as a service.
//!
//! A dependency-free HTTP/JSON front end over the WinRS execution stack:
//! jobs arrive as `POST /v1/bfc` bodies naming a shape, precision,
//! fallback policy and deadline; a coalescing dispatcher groups same-key
//! arrivals into one [`winrs_core::ExecHandle::run_batch`] call so the
//! shape validation, tuner decision, plan fetch and workspace lease are
//! paid once per burst instead of once per request; a bounded admission
//! queue converts overload into fast HTTP 429 + `Retry-After` instead of
//! unbounded memory growth.
//!
//! The build environment has no async runtime and no registry access, so
//! both the HTTP layer ([`http`]) and the JSON wire format ([`protocol`],
//! on top of `winrs-json`) are hand-rolled minimal implementations —
//! small enough to audit, complete enough for the e2e suite, the CI
//! smoke test and the committed latency benchmarks.
//!
//! # Endpoints
//!
//! | Route | Purpose |
//! |---|---|
//! | `POST /v1/bfc` | Submit a job; blocks until the gradient (or typed error) is ready. |
//! | `GET /healthz` | Liveness probe. |
//! | `GET /v1/stats` | Service, pool (plan cache included) and tuner counters. |
//!
//! # Quick start
//!
//! ```
//! use winrs_serve::{Client, JobRequest, Server, ServeConfig};
//! use winrs_conv::ConvShape;
//!
//! let server = Server::spawn(ServeConfig::default()).unwrap();
//! let client = Client::new(&server.addr().to_string());
//! let body = format!(
//!     r#"{{"shape": {{"n":1, "ih":8, "iw":8, "ic":4, "oc":4, "fh":3, "fw":3}}}}"#
//! );
//! let doc = winrs_json::Json::parse(&body).unwrap();
//! let reply = client.post_job(&JobRequest::from_json(&doc).unwrap()).unwrap();
//! assert_eq!(reply.status, 200);
//! ```

pub mod client;
pub mod http;
pub mod loadgen;
pub mod protocol;
pub mod queue;
pub mod server;
pub(crate) mod sync;

pub use client::{Client, Reply};
pub use loadgen::{run as run_loadgen, LoadgenConfig, LoadgenReport};
pub use protocol::{
    error_json, error_status, gradient_digest, job_response_json, pool_json, report_json,
    GradientMode, JobRequest,
};
pub use queue::{AdmitError, DispatchQueue};
pub use server::{ServeConfig, Server, ServerStats};
