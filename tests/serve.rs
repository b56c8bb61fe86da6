//! End-to-end tests of the batched BFC service: real sockets, real
//! concurrent clients, and gradients checked bit-for-bit against direct
//! library dispatch.
//!
//! Every server binds port 0 (ephemeral) and uses a *private* workspace
//! pool (`slots > 0`) so tests neither collide on a port nor share tuner
//! and plan-cache counters through the process-global pool.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use winrs::conv::ConvShape;
use winrs::core::{ExecHandle, PoolConfig, Precision, WorkspacePool};
use winrs::gpu::RTX_4090;
use winrs::serve::{
    gradient_digest, Client, GradientMode, JobRequest, Reply, ServeConfig, Server,
};

fn fig10_shape() -> ConvShape {
    ConvShape::square(2, 16, 8, 8, 3)
}

fn job(shape: ConvShape, i: u64) -> JobRequest {
    JobRequest {
        shape,
        precision: Precision::Fp32,
        policy: winrs::core::FallbackPolicy::Auto,
        guard: winrs::core::NumericGuard::Warn,
        deadline: None,
        x_seed: 100 + 2 * i,
        dy_seed: 101 + 2 * i,
        scale: 1.0,
        gradient: GradientMode::Digest,
    }
}

/// Reference gradient for `req` via direct library dispatch on an
/// unrelated private pool. Without a tuning database the tuner decides
/// from the cost model alone, so a fresh pool reaches the same decision
/// as the server's and the numerics are bitwise reproducible.
fn reference_gradient(req: &JobRequest) -> winrs::tensor::Tensor4<f32> {
    let pool = WorkspacePool::new(PoolConfig {
        slots: 1,
        ..PoolConfig::default()
    });
    let handle = ExecHandle::new(Arc::clone(&pool), RTX_4090, req.precision);
    let (x, dy) = req.operands();
    let (dw, _report) = handle.run(&req.shape, &x, &dy).expect("reference run");
    dw
}

fn spawn_server(window_ms: u64, queue_cap: usize, slots: usize) -> Server {
    Server::spawn(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        window: Duration::from_millis(window_ms),
        queue_cap,
        max_jobs: None,
        slots,
        device: RTX_4090,
    })
    .expect("bind ephemeral port")
}

fn post_all(addr: &str, jobs: Vec<JobRequest>) -> Vec<Result<Reply, String>> {
    let mut handles = Vec::new();
    for req in jobs {
        let addr = addr.to_string();
        handles.push(thread::spawn(move || Client::new(&addr).post_job(&req)));
    }
    handles
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect()
}

#[test]
fn concurrent_same_shape_jobs_coalesce_and_match_library_bitwise() {
    let server = spawn_server(120, 64, 2);
    let addr = server.addr().to_string();

    const JOBS: u64 = 6;
    let requests: Vec<JobRequest> = (0..JOBS)
        .map(|i| {
            let mut r = job(fig10_shape(), i);
            r.gradient = GradientMode::Full;
            r
        })
        .collect();
    let replies = post_all(&addr, requests.clone());

    for (req, reply) in requests.iter().zip(&replies) {
        let reply = reply.as_ref().expect("transport");
        assert_eq!(reply.status, 200, "body: {}", reply.body.to_document());
        let expected = reference_gradient(req);

        let gradient = reply.body.get("gradient").expect("gradient object");
        let dims: Vec<usize> = gradient
            .get("dims")
            .and_then(|d| d.items())
            .expect("dims array")
            .iter()
            .map(|v| v.as_f64().expect("dim") as usize)
            .collect();
        assert_eq!(dims, expected.dims().to_vec());
        let values = gradient
            .get("values")
            .and_then(|v| v.items())
            .expect("full gradient values");
        assert_eq!(values.len(), expected.len());
        for (served, local) in values.iter().zip(expected.as_slice()) {
            let served = served.as_f64().expect("gradient value") as f32;
            assert_eq!(
                served.to_bits(),
                local.to_bits(),
                "served gradient diverged from direct library dispatch"
            );
        }
    }

    // All six arrived inside the 120 ms window, so the dispatcher must
    // have coalesced at least once (the counter the issue demands).
    let st = server.stats();
    use std::sync::atomic::Ordering::Relaxed;
    assert_eq!(st.jobs_ok.load(Relaxed), JOBS);
    assert_eq!(st.jobs_failed.load(Relaxed), 0);
    assert!(
        st.coalesced_batches.load(Relaxed) >= 1,
        "expected >= 1 coalesced batch, got stats {}",
        server.stats_json().to_document()
    );
    assert!(st.max_batch.load(Relaxed) >= 2);
}

#[test]
fn mixed_shape_jobs_split_into_per_key_batches_and_all_succeed() {
    let server = spawn_server(80, 64, 2);
    let addr = server.addr().to_string();

    let small = ConvShape::square(1, 12, 4, 4, 3);
    let mut requests = Vec::new();
    for i in 0..3 {
        requests.push(job(fig10_shape(), 10 + i));
        requests.push(job(small, 20 + i));
    }
    let replies = post_all(&addr, requests.clone());

    for (req, reply) in requests.iter().zip(&replies) {
        let reply = reply.as_ref().expect("transport");
        assert_eq!(reply.status, 200, "body: {}", reply.body.to_document());
        let expected = reference_gradient(req);
        let digest = reply
            .body
            .get("gradient")
            .and_then(|g| g.get("fnv1a64"))
            .and_then(|d| d.as_str())
            .expect("digest");
        assert_eq!(
            digest,
            gradient_digest(&expected),
            "digest mismatch for shape {:?}",
            req.shape
        );
    }

    use std::sync::atomic::Ordering::Relaxed;
    let st = server.stats();
    assert_eq!(st.jobs_ok.load(Relaxed), 6);
    // Two distinct keys can never travel in one batch.
    assert!(st.batches.load(Relaxed) >= 2);
}

#[test]
fn queue_overflow_answers_429_with_retry_after() {
    // One-slot queue and a long window: the first admitted job parks in
    // the queue for the whole window while the rest bounce off the cap.
    let server = spawn_server(400, 1, 1);
    let addr = server.addr().to_string();

    let replies = post_all(&addr, (0..6).map(|i| job(fig10_shape(), 40 + i)).collect());

    let mut ok = 0;
    let mut rejected = 0;
    for reply in &replies {
        let reply = reply.as_ref().expect("transport");
        match reply.status {
            200 => ok += 1,
            429 => {
                rejected += 1;
                assert_eq!(
                    reply.retry_after,
                    Some(1),
                    "429 must carry Retry-After, body: {}",
                    reply.body.to_document()
                );
                let kind = reply.body.get("kind").and_then(|k| k.as_str());
                assert_eq!(kind, Some("queue-full"));
            }
            other => panic!("unexpected status {other}: {}", reply.body.to_document()),
        }
    }
    assert!(ok >= 1, "the admitted job must still complete");
    assert!(rejected >= 1, "the cap must refuse at least one job");

    use std::sync::atomic::Ordering::Relaxed;
    assert_eq!(
        server.stats().rejected_queue_full.load(Relaxed),
        rejected as u64
    );
}

#[test]
fn expired_deadline_maps_to_http_504_with_the_typed_kind() {
    let server = spawn_server(5, 16, 1);
    let addr = server.addr().to_string();

    let mut req = job(fig10_shape(), 60);
    req.deadline = Some(Duration::ZERO);
    let reply = Client::new(&addr).post_job(&req).expect("transport");
    assert_eq!(reply.status, 504, "body: {}", reply.body.to_document());
    assert_eq!(
        reply.body.get("kind").and_then(|k| k.as_str()),
        Some("deadline-exceeded")
    );
}

/// One request cannot take the server down: each hostile body, posted
/// raw, is a 400 naming its problem, and a normal job posted afterwards
/// is served.
#[test]
fn invalid_shape_maps_to_http_400_naming_the_field() {
    let server = spawn_server(5, 16, 1);
    let post = |body: &str| {
        let mut s = TcpStream::connect(server.addr()).expect("connect");
        write!(
            s,
            "POST /v1/bfc HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
        .expect("send request");
        let mut resp = String::new();
        s.read_to_string(&mut resp).expect("read response");
        resp
    };
    let shape = |dims: &str| format!(r#"{{"shape": {{{dims}, "oc":4, "fh":3, "fw":3}}}}"#);
    for (body, problem) in [
        (shape(r#""n":1, "ih":8, "iw":8, "ic":0"#), "dimension `ic`"),
        // 4e14 bytes of operands.
        (
            shape(r#""n":1000, "ih":10000, "iw":10000, "ic":1000"#),
            "job too large",
        ),
        // Saturates to usize::MAX; `ih + 2·ph` wraps.
        (
            shape(r#""n":1, "ih":8, "iw":8, "ic":4, "ph":1e30"#),
            "element count of `dy`",
        ),
        ("[".repeat(200_000), "nesting deeper than 64 levels"),
    ] {
        let resp = post(&body);
        assert!(resp.starts_with("HTTP/1.1 400"), "{problem}: {resp:?}");
        assert!(resp.contains(problem), "{problem}: {resp:?}");
    }
    let resp = post(&job(fig10_shape(), 90).to_json().to_document());
    assert!(resp.starts_with("HTTP/1.1 200"), "{resp:?}");

    let reply = Client::new(&server.addr().to_string())
        .get("/nope")
        .expect("transport");
    assert_eq!(reply.status, 404);
}

#[test]
fn health_and_stats_endpoints_expose_pool_and_tuner_counters() {
    let server = spawn_server(5, 16, 1);
    let addr = server.addr().to_string();
    let client = Client::new(&addr);

    let health = client.get("/healthz").expect("transport");
    assert_eq!(health.status, 200);

    let reply = client.post_job(&job(fig10_shape(), 70)).expect("transport");
    assert_eq!(reply.status, 200);
    // The success body carries the execution report with pool counters.
    let report = reply.body.get("report").expect("report object");
    assert_eq!(
        report.get("algorithm").and_then(|a| a.as_str()),
        Some("winrs")
    );
    assert!(report.get("pool").is_some(), "report must embed pool stats");
    let keys = |obj: Option<&winrs::json::Json>| -> Vec<String> {
        match obj {
            Some(winrs::json::Json::Obj(pairs)) => pairs.iter().map(|(k, _)| k.clone()).collect(),
            _ => panic!("expected a `tuner` object"),
        }
    };
    // The tuner block: where the choice came from, its predicted seconds
    // and a database entry's measured seconds.
    let tuner = report.get("tuner");
    assert_eq!(keys(tuner), ["source", "predicted_s", "measured_s"]);
    let source = tuner.and_then(|t| t.get("source"));
    assert_eq!(source.and_then(|s| s.as_str()), Some("model"));

    let stats = client.get("/v1/stats").expect("transport");
    assert_eq!(stats.status, 200);
    for key in ["server", "pool", "tuner"] {
        assert!(
            stats.body.get(key).is_some(),
            "missing `{key}` in {}",
            stats.body.to_document()
        );
    }
    let pool_counter = |key: &str| {
        stats
            .body
            .get("pool")
            .and_then(|p| p.get(key))
            .and_then(|v| v.as_f64())
            .unwrap_or_else(|| panic!("pool counter `{key}`"))
    };
    assert!(
        pool_counter("leases") >= 1.0,
        "the job above must have leased a workspace"
    );
    // The plan cache's counters live inside the pool object.
    assert_eq!(pool_counter("plan_misses"), 1.0, "one key, planned once");
    let counters = keys(stats.body.get("tuner"));
    assert_eq!(counters, ["decisions", "db_hits", "db_misses", "evictions"]);

    let method = client.get("/v1/bfc").expect("transport");
    assert_eq!(method.status, 405);
}

#[test]
fn max_jobs_budget_drains_then_the_server_stops_cleanly() {
    let mut server = Server::spawn(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        window: Duration::from_millis(5),
        queue_cap: 16,
        max_jobs: Some(2),
        slots: 1,
        device: RTX_4090,
    })
    .expect("bind ephemeral port");
    let addr = server.addr().to_string();

    let replies = post_all(&addr, (0..2).map(|i| job(fig10_shape(), 80 + i)).collect());
    for reply in &replies {
        assert_eq!(reply.as_ref().expect("transport").status, 200);
    }

    // The budget is drained: join() must return promptly instead of
    // serving forever.
    let joined = thread::spawn(move || {
        server.join();
        server
    });
    let server = joined.join().expect("join thread");
    use std::sync::atomic::Ordering::Relaxed;
    assert_eq!(server.stats().completed.load(Relaxed), 2);

    // The listener is gone; a new job cannot be submitted.
    assert!(Client::new(&addr).post_job(&job(fig10_shape(), 99)).is_err());
}

/// Teardown race: connection handlers are detached threads, so `join`
/// must not return until every admitted job's response is written —
/// otherwise a process that exits after `join` (as `winrs serve
/// --max-jobs` does) drops responses. Each round posts a budget's worth
/// of jobs on raw streams and joins before reading anything; every stream
/// must then yield its complete 200 within a short read timeout.
#[test]
fn join_returns_only_after_every_admitted_response_is_written() {
    const JOBS: u64 = 3;
    for round in 0..20 {
        let mut server = Server::spawn(ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            window: Duration::from_millis(1),
            queue_cap: 16,
            max_jobs: Some(JOBS),
            slots: 1,
            device: RTX_4090,
        })
        .expect("bind ephemeral port");
        let streams: Vec<TcpStream> = (0..JOBS)
            .map(|i| {
                let body = job(fig10_shape(), round * JOBS + i).to_json().to_document();
                let mut s = TcpStream::connect(server.addr()).expect("connect");
                write!(
                    s,
                    "POST /v1/bfc HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\n\
                     Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
                    body.len()
                )
                .expect("send request");
                s
            })
            .collect();
        server.join();
        for (i, mut s) in streams.into_iter().enumerate() {
            s.set_read_timeout(Some(Duration::from_secs(2)))
                .expect("set read timeout");
            let mut resp = String::new();
            s.read_to_string(&mut resp)
                .unwrap_or_else(|e| panic!("round {round} job {i}: {e}"));
            assert!(
                resp.starts_with("HTTP/1.1 200"),
                "round {round} job {i}: {resp:?}"
            );
            // `Connection: close` ends the body at EOF; a complete one parses.
            let body = resp.split_once("\r\n\r\n").map_or("", |(_, b)| b);
            assert!(
                winrs::json::Json::parse(body).is_ok(),
                "round {round} job {i}: truncated body {body:?}"
            );
        }
    }
}
