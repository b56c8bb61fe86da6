//! The BFC service: accept loop, coalescing dispatcher, backpressure.
//!
//! # Job lifecycle
//!
//! 1. A connection handler parses `POST /v1/bfc`, materialises the
//!    operands, and *admits* the job: under the queue lock it checks the
//!    job budget (`max_jobs`) and the queue cap, then enqueues a
//!    [`BfcJob`] whose admission instant starts the deadline clock.
//!    A full queue is refused immediately with HTTP 429 + `Retry-After`
//!    — the socket never absorbs unbounded work.
//! 2. The single dispatcher thread holds a *coalescing window* open from
//!    the moment it sees a non-empty queue: same-key jobs (identical
//!    shape, precision, policy and guard) arriving within the window are
//!    drained into one [`ExecHandle::run_batch`] call, which validates
//!    the shape, consults the tuner and leases a workspace **once** for
//!    the whole batch. Different-key jobs stay queued in order.
//! 3. Each job's result (gradient + [`winrs_core::ExecutionReport`], or a
//!    typed error) is sent back to its parked connection handler, which
//!    renders the HTTP response. Deadline overruns surface as 504 with
//!    the rung that was refused; pool exhaustion as a retryable 429.
//!    Once the response is written (or its write failed) the handler
//!    counts the job out of the queue ([`DispatchQueue::settle`]).
//!
//! Batches execute sequentially on the dispatcher — parallelism lives
//! *inside* the engine's block loop, and serial dispatch is exactly what
//! makes arrival bursts coalesce. With `max_jobs` set the server drains
//! that many jobs and then shuts itself down cleanly (the CI smoke test
//! and the e2e suite rely on this for leak-free teardown). Connection
//! handlers are detached threads, so [`Server::join`] and
//! [`Server::shutdown`] also wait, for at most `REPLY_DRAIN`, until
//! every admitted job is counted out: a process that exits after `join`
//! has sent every response. Idle keep-alive connections are not waited
//! for.

use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

use winrs_conv::ConvShape;
use winrs_core::{
    BfcJob, ExecHandle, ExecutionReport, FallbackPolicy, NumericGuard, PoolConfig, Precision,
    WinrsError, WorkspacePool,
};
use winrs_gpu_sim::{DeviceSpec, RTX_4090};
use winrs_json::Json;
use winrs_tensor::Tensor4;

use crate::http::{read_request, ReadOutcome, Request, Response, READ_TIMEOUT};
use crate::protocol::{error_json, error_status, job_response_json, pool_json, JobRequest};
use crate::queue::{AdmitError, DispatchQueue};

/// How long [`Server::join`] and [`Server::shutdown`] wait for handlers to
/// write the responses of admitted jobs, so a client that stops reading
/// cannot hold shutdown.
const REPLY_DRAIN: Duration = Duration::from_secs(5);

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port (see [`Server::addr`]).
    pub addr: String,
    /// Coalescing window: how long the dispatcher holds a freshly
    /// non-empty queue open for same-key arrivals before dispatching.
    pub window: Duration,
    /// Maximum queued (admitted but not yet dispatched) jobs; arrivals
    /// beyond this are refused with HTTP 429 + `Retry-After`.
    pub queue_cap: usize,
    /// Serve exactly this many jobs, then shut down cleanly. `None`
    /// serves until [`Server::shutdown`].
    pub max_jobs: Option<u64>,
    /// Workspace-pool slots for a *private* pool; `0` shares the
    /// process-global pool (and its plan/tuner caches).
    pub slots: usize,
    /// Device model handed to the tuner's cost model.
    pub device: DeviceSpec,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            // Two milliseconds is invisible next to a real BFC dispatch
            // but long enough for a concurrent client burst to pile up.
            window: Duration::from_millis(2),
            queue_cap: 256,
            max_jobs: None,
            slots: 0,
            device: RTX_4090,
        }
    }
}

/// Monotone service counters, readable live from tests and `/v1/stats`.
#[derive(Default)]
pub struct ServerStats {
    /// HTTP requests routed (all verbs and paths).
    pub requests: AtomicU64,
    /// Bodies that failed JSON or job-schema parsing.
    pub parse_errors: AtomicU64,
    /// Jobs that completed with a gradient.
    pub jobs_ok: AtomicU64,
    /// Jobs that completed with a typed error.
    pub jobs_failed: AtomicU64,
    /// Batches dispatched (each is one `run_batch` call).
    pub batches: AtomicU64,
    /// Batches that coalesced ≥ 2 same-key jobs.
    pub coalesced_batches: AtomicU64,
    /// Jobs that travelled inside coalesced batches.
    pub coalesced_jobs: AtomicU64,
    /// Largest batch dispatched so far.
    pub max_batch: AtomicU64,
    /// Admissions refused with 429 because the queue was at capacity.
    pub rejected_queue_full: AtomicU64,
    /// Admissions refused with 503 because the `max_jobs` budget was
    /// already fully admitted.
    pub rejected_budget: AtomicU64,
    /// Jobs fully processed (ok + failed) by the dispatcher.
    pub completed: AtomicU64,
}

impl ServerStats {
    fn to_json(&self) -> Json {
        // ORDERING: monotone counter snapshot for display; tearing across
        // counters is acceptable and no other state is published through
        // them.
        let c = |a: &AtomicU64| Json::Int(a.load(Ordering::Relaxed) as i64);
        Json::obj(vec![
            ("requests", c(&self.requests)),
            ("parse_errors", c(&self.parse_errors)),
            ("jobs_ok", c(&self.jobs_ok)),
            ("jobs_failed", c(&self.jobs_failed)),
            ("batches", c(&self.batches)),
            ("coalesced_batches", c(&self.coalesced_batches)),
            ("coalesced_jobs", c(&self.coalesced_jobs)),
            ("max_batch", c(&self.max_batch)),
            ("rejected_queue_full", c(&self.rejected_queue_full)),
            ("rejected_budget", c(&self.rejected_budget)),
            ("completed", c(&self.completed)),
        ])
    }
}

/// Coalescing identity: shape dims plus the dispatch configuration.
/// Operand seeds and deadlines are deliberately *not* part of the key —
/// they are per-job payload inside a batch.
type JobKey = ([usize; 9], Precision, FallbackPolicy, NumericGuard);

fn job_key(req: &JobRequest) -> JobKey {
    let s = &req.shape;
    (
        [s.n, s.ih, s.iw, s.ic, s.oc, s.fh, s.fw, s.ph, s.pw],
        req.precision,
        req.policy,
        req.guard,
    )
}

type JobOutcome = Result<(Tensor4<f32>, ExecutionReport), WinrsError>;

struct Pending {
    shape: ConvShape,
    precision: Precision,
    policy: FallbackPolicy,
    guard: NumericGuard,
    job: BfcJob,
    tx: mpsc::Sender<JobOutcome>,
}

struct Shared {
    cfg: ServeConfig,
    addr: SocketAddr,
    pool: Arc<WorkspacePool>,
    stats: ServerStats,
    /// The dispatcher's synchronisation core — bounded, budgeted,
    /// key-coalescing (see [`crate::queue::DispatchQueue`]; the loom leg
    /// models it in `tests/loom_dispatch.rs`).
    queue: DispatchQueue<JobKey, Pending>,
    shutdown: AtomicBool,
}

/// A running BFC service. Dropping it shuts the service down and joins
/// its threads.
pub struct Server {
    shared: Arc<Shared>,
    acceptor: Option<thread::JoinHandle<()>>,
    dispatcher: Option<thread::JoinHandle<()>>,
}

impl Server {
    /// Bind, spawn the accept loop and the dispatcher, and return.
    pub fn spawn(cfg: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let pool = if cfg.slots == 0 {
            Arc::clone(WorkspacePool::global())
        } else {
            WorkspacePool::new(PoolConfig {
                slots: cfg.slots,
                ..PoolConfig::default()
            })
        };
        // Surface a standing tune-db warning exactly once at startup
        // instead of once per decision site.
        if let Some(w) = pool.tuner_warning_once() {
            eprintln!("winrs-serve: tuner: {w}");
        }
        let queue = DispatchQueue::new(cfg.queue_cap, cfg.max_jobs);
        let shared = Arc::new(Shared {
            cfg,
            addr,
            pool,
            stats: ServerStats::default(),
            queue,
            shutdown: AtomicBool::new(false),
        });
        let dispatcher = {
            let sh = Arc::clone(&shared);
            thread::spawn(move || dispatch_loop(&sh))
        };
        let acceptor = {
            let sh = Arc::clone(&shared);
            thread::spawn(move || accept_loop(&listener, &sh))
        };
        Ok(Server {
            shared,
            acceptor: Some(acceptor),
            dispatcher: Some(dispatcher),
        })
    }

    /// The bound address (resolves port 0 to the ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Live service counters.
    pub fn stats(&self) -> &ServerStats {
        &self.shared.stats
    }

    /// The workspace pool this server dispatches through.
    pub fn pool(&self) -> &Arc<WorkspacePool> {
        &self.shared.pool
    }

    /// The `/v1/stats` document (server, pool with its plan cache, tuner).
    pub fn stats_json(&self) -> Json {
        stats_json(&self.shared)
    }

    /// Stop accepting, drain queued jobs, join both service threads and
    /// wait for every admitted job's response (bounded by `REPLY_DRAIN`).
    pub fn shutdown(&mut self) {
        trigger_shutdown(&self.shared);
        self.join_threads();
    }

    /// Block until the server stops on its own — i.e. until the
    /// `max_jobs` budget drains and every admitted job's response is
    /// written (bounded by `REPLY_DRAIN`). Without a budget this blocks
    /// indefinitely: prefer [`Server::shutdown`] then.
    pub fn join(&mut self) {
        self.join_threads();
    }

    fn join_threads(&mut self) {
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        if let Some(h) = self.dispatcher.take() {
            let _ = h.join();
        }
        // The dispatcher exits only after the queue is shut and drained,
        // so no job can be admitted any more: the count is final.
        if !self.shared.queue.wait_settled(REPLY_DRAIN) {
            eprintln!("winrs-serve: stopped with responses unwritten after {REPLY_DRAIN:?}");
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        trigger_shutdown(&self.shared);
        self.join_threads();
    }
}

fn trigger_shutdown(sh: &Shared) {
    // ORDERING: monotone one-way flag read by the acceptor and connection
    // handlers; the dispatcher's shutdown signal travels through the
    // queue's own lock (`DispatchQueue::shutdown`), so it cannot miss a
    // wakeup. The swap only de-duplicates callers.
    if sh.shutdown.swap(true, Ordering::Relaxed) {
        return;
    }
    sh.queue.shutdown();
    // Unblock the accept loop with a throwaway connection.
    let _ = TcpStream::connect(sh.addr);
}

fn accept_loop(listener: &TcpListener, sh: &Arc<Shared>) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                // ORDERING: monotone flag polled after every accept; the
                // shutdown wake-up connection guarantees one more accept
                // returns after the flag flips.
                if sh.shutdown.load(Ordering::Relaxed) {
                    break;
                }
                let sh2 = Arc::clone(sh);
                thread::spawn(move || handle_connection(stream, &sh2));
            }
            Err(_) => {
                // ORDERING: same monotone-flag poll as above.
                if sh.shutdown.load(Ordering::Relaxed) {
                    break;
                }
            }
        }
    }
}

fn handle_connection(stream: TcpStream, sh: &Shared) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut stream = stream;
    loop {
        // ORDERING: monotone flag; a keep-alive connection racing the
        // flag at worst serves one more request before closing.
        if sh.shutdown.load(Ordering::Relaxed) {
            break;
        }
        let req = match read_request(&mut reader) {
            ReadOutcome::Request(r) => r,
            ReadOutcome::Closed => break,
            ReadOutcome::Malformed(m) => {
                let body = error_json("malformed-http", &m).to_document();
                let _ = Response::json(400, body).write_to(&mut stream, true);
                break;
            }
        };
        let close = req.wants_close();
        let (resp, admitted) = route(&req, sh);
        let written = resp.write_to(&mut stream, close);
        if admitted {
            // Counted out only now, so `join` cannot return before this
            // response is written or its write has failed.
            sh.queue.settle();
        }
        if written.is_err() || close {
            break;
        }
    }
}

/// The response, and whether it answers an admitted job (which the
/// caller must count out with [`DispatchQueue::settle`] once written).
fn route(req: &Request, sh: &Shared) -> (Response, bool) {
    // ORDERING: standalone monotone counter.
    sh.stats.requests.fetch_add(1, Ordering::Relaxed);
    let resp = match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            Response::json(200, Json::obj(vec![("ok", Json::Bool(true))]).to_document())
        }
        ("GET", "/v1/stats") => Response::json(200, stats_json(sh).to_document()),
        ("POST", "/v1/bfc") => return submit_job(req, sh),
        (_, "/healthz") | (_, "/v1/stats") | (_, "/v1/bfc") => Response::json(
            405,
            error_json(
                "method-not-allowed",
                &format!("{} is not valid on {}", req.method, req.path),
            )
            .to_document(),
        ),
        _ => Response::json(
            404,
            error_json("not-found", &format!("no route for {}", req.path)).to_document(),
        ),
    };
    (resp, false)
}

/// Admit and await one job; the flag is whether it was admitted.
fn submit_job(req: &Request, sh: &Shared) -> (Response, bool) {
    let parse_reject = |kind: &str, msg: &str| {
        // ORDERING: standalone monotone counter.
        sh.stats.parse_errors.fetch_add(1, Ordering::Relaxed);
        let body = error_json(kind, msg);
        (Response::json(400, body.to_document()), false)
    };
    let body = match std::str::from_utf8(&req.body) {
        Ok(b) => b,
        Err(_) => return parse_reject("bad-encoding", "body is not UTF-8"),
    };
    let doc = match Json::parse(body) {
        Ok(d) => d,
        Err(e) => return parse_reject("bad-json", &e),
    };
    let job = match JobRequest::from_json(&doc) {
        Ok(j) => j,
        Err(e) => return parse_reject("bad-request", &e),
    };

    // Materialise operands *before* taking the queue lock — tensor fills
    // are the expensive part of admission and need no shared state.
    let (x, dy) = job.operands();
    let bfc = BfcJob::new(x, dy).with_deadline(job.deadline);
    let (tx, rx) = mpsc::channel();
    let pending = Pending {
        shape: job.shape,
        precision: job.precision,
        policy: job.policy,
        guard: job.guard,
        job: bfc,
        tx,
    };
    match sh.queue.admit(job_key(&job), pending) {
        Ok(()) => {}
        Err(AdmitError::ShuttingDown) => {
            let body = error_json("shutting-down", "server stopped before the job ran");
            return (Response::json(503, body.to_document()), false);
        }
        Err(AdmitError::BudgetExhausted) => {
            // ORDERING: standalone monotone counter.
            sh.stats.rejected_budget.fetch_add(1, Ordering::Relaxed);
            let max = sh.cfg.max_jobs.unwrap_or(0);
            let body = error_json(
                "budget-exhausted",
                &format!("server is closing after its {max}-job budget"),
            );
            return (Response::json(503, body.to_document()), false);
        }
        Err(AdmitError::QueueFull) => {
            // ORDERING: standalone monotone counter.
            sh.stats.rejected_queue_full.fetch_add(1, Ordering::Relaxed);
            let body = error_json(
                "queue-full",
                &format!("job queue at capacity ({})", sh.cfg.queue_cap),
            );
            let resp = Response::json(429, body.to_document()).with_header("Retry-After", "1");
            return (resp, false);
        }
    }

    let resp = match rx.recv() {
        Ok(Ok((dw, report))) => Response::json(
            200,
            job_response_json(&report, &dw, job.gradient).to_document(),
        ),
        Ok(Err(e)) => {
            let (status, kind, retry_after) = error_status(&e);
            let resp = Response::json(status, error_json(kind, &e.to_string()).to_document());
            match retry_after {
                Some(secs) => resp.with_header("Retry-After", &secs.to_string()),
                None => resp,
            }
        }
        Err(_) => Response::json(
            503,
            error_json("shutting-down", "server stopped before the job ran").to_document(),
        ),
    };
    (resp, true)
}

fn dispatch_loop(sh: &Shared) {
    while let Some(batch) = collect_batch(sh) {
        execute_batch(sh, batch);
        if let Some(max) = sh.cfg.max_jobs {
            // ORDERING: `completed` is only written by this same thread
            // (in `execute_batch`), so the budget check needs no fence.
            if sh.stats.completed.load(Ordering::Relaxed) >= max {
                trigger_shutdown(sh);
            }
        }
    }
}

/// Block until work arrives, hold the coalescing window open, then drain
/// every job sharing the head job's key — all inside
/// [`DispatchQueue::collect`]. Returns `None` only when the queue is
/// empty *and* shutdown was requested — queued jobs always drain before
/// the dispatcher exits.
fn collect_batch(sh: &Shared) -> Option<Vec<Pending>> {
    sh.queue.collect(sh.cfg.window)
}

fn execute_batch(sh: &Shared, batch: Vec<Pending>) {
    let n = batch.len() as u64;
    // ORDERING: monotone batching counters, written only by the
    // dispatcher thread; readers tolerate snapshot tearing.
    sh.stats.batches.fetch_add(1, Ordering::Relaxed);
    if n >= 2 {
        // ORDERING: same dispatcher-only monotone counters as above.
        sh.stats.coalesced_batches.fetch_add(1, Ordering::Relaxed);
        sh.stats.coalesced_jobs.fetch_add(n, Ordering::Relaxed);
    }
    sh.stats.max_batch.fetch_max(n, Ordering::Relaxed); // ORDERING: ditto

    let shape = batch[0].shape;
    let handle = ExecHandle::new(Arc::clone(&sh.pool), sh.cfg.device, batch[0].precision)
        .with_policy(batch[0].policy)
        .with_guard(batch[0].guard);
    let mut jobs = Vec::with_capacity(batch.len());
    let mut txs = Vec::with_capacity(batch.len());
    for p in batch {
        jobs.push(p.job);
        txs.push(p.tx);
    }
    let results = handle.run_batch(&shape, jobs);
    for (res, tx) in results.into_iter().zip(txs) {
        match &res {
            // ORDERING: standalone monotone counters.
            Ok(_) => sh.stats.jobs_ok.fetch_add(1, Ordering::Relaxed),
            Err(_) => sh.stats.jobs_failed.fetch_add(1, Ordering::Relaxed),
        };
        // A gone client (timed out, disconnected) is not a server error.
        let _ = tx.send(res);
    }
    // ORDERING: read back only by this same thread for the budget check
    // (and by the CLI after join(), which synchronises via the join).
    sh.stats.completed.fetch_add(n, Ordering::Relaxed);
}

fn stats_json(sh: &Shared) -> Json {
    let tc = sh.pool.tuner_counters();
    Json::obj(vec![
        ("server", sh.stats.to_json()),
        ("pool", pool_json(&sh.pool.stats())),
        (
            "tuner",
            Json::obj(vec![
                ("decisions", Json::Int(tc.decisions as i64)),
                ("db_hits", Json::Int(tc.db_hits as i64)),
                ("db_misses", Json::Int(tc.db_misses as i64)),
                ("evictions", Json::Int(tc.evictions as i64)),
            ]),
        ),
    ])
}
