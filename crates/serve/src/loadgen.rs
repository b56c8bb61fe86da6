//! Closed-loop load generator for the BFC service.
//!
//! `concurrency` worker threads share a global job counter; each worker
//! repeatedly claims the next job index, submits it, and records the
//! end-to-end latency (including any 429 backoff-and-retry rounds). The
//! report carries the latency percentiles, an ASCII histogram and the
//! server's own coalescing counters. It is a smoke and demo driver; the
//! serve numbers the repo records come from perfbench's `serve_open`
//! workload, in `BENCH_*.json`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use winrs_conv::ConvShape;
use winrs_json::Json;

use crate::client::Client;
use crate::protocol::{GradientMode, JobRequest};

/// Load-run parameters.
#[derive(Clone, Debug)]
pub struct LoadgenConfig {
    /// Server address (`host:port`).
    pub addr: String,
    /// Total jobs to complete.
    pub jobs: u64,
    /// Closed-loop worker threads.
    pub concurrency: usize,
    /// The convolution problem every job submits (same-shape traffic is
    /// what exercises coalescing).
    pub shape: ConvShape,
    /// Optional per-job deadline.
    pub deadline: Option<Duration>,
    /// Base operand seed; job `i` uses `base + 2i` / `base + 2i + 1`.
    pub seed_base: u64,
}

impl Default for LoadgenConfig {
    fn default() -> LoadgenConfig {
        LoadgenConfig {
            addr: "127.0.0.1:8077".to_string(),
            jobs: 64,
            concurrency: 8,
            // The paper's fig. 10 small-layer point: enough work per job
            // to be measurable, small enough for a quick run.
            shape: ConvShape::square(2, 16, 8, 8, 3),
            deadline: None,
            seed_base: 1000,
        }
    }
}

/// Outcome of a load run.
pub struct LoadgenReport {
    /// Sorted per-job latencies, milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Jobs answered 200.
    pub ok: u64,
    /// Jobs that exhausted retries or hit a non-retryable error.
    pub failed: u64,
    /// 429 rounds absorbed by retrying.
    pub retried: u64,
    /// Wall time of the whole run, seconds.
    pub wall_s: f64,
    /// The server's `/v1/stats` document after the run.
    pub server_stats: Option<Json>,
}

impl LoadgenReport {
    /// Latency percentile (`p` in `[0, 100]`) over completed jobs.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.latencies_ms.is_empty() {
            return 0.0;
        }
        let n = self.latencies_ms.len();
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        self.latencies_ms[rank.clamp(1, n) - 1]
    }

    /// Coalescing counters as reported by the server (batches, coalesced
    /// batches, coalesced jobs, max batch).
    pub fn coalescing(&self) -> Option<(i64, i64, i64, i64)> {
        let server = self.server_stats.as_ref()?.get("server")?;
        let int = |k: &str| match server.get(k) {
            Some(Json::Int(v)) => Some(*v),
            _ => None,
        };
        Some((
            int("batches")?,
            int("coalesced_batches")?,
            int("coalesced_jobs")?,
            int("max_batch")?,
        ))
    }

    /// Human-readable report: percentiles, histogram, coalescing stats.
    pub fn render(&self, cfg: &LoadgenConfig) -> String {
        let mut out = String::new();
        let s = &cfg.shape;
        out.push_str(&format!(
            "winrs loadgen: {} jobs x {} workers against {} \
             (shape n{} {}x{} ic{} oc{} f{}x{})\n",
            cfg.jobs, cfg.concurrency, cfg.addr, s.n, s.ih, s.iw, s.ic, s.oc, s.fh, s.fw
        ));
        out.push_str(&format!(
            "completed: ok={} failed={} retried-429={} wall={:.3}s \
             throughput={:.1} jobs/s\n",
            self.ok,
            self.failed,
            self.retried,
            self.wall_s,
            if self.wall_s > 0.0 {
                self.ok as f64 / self.wall_s
            } else {
                0.0
            }
        ));
        if !self.latencies_ms.is_empty() {
            let n = self.latencies_ms.len();
            let mean = self.latencies_ms.iter().sum::<f64>() / n as f64;
            out.push_str(&format!(
                "latency ms: min={:.3} p50={:.3} p90={:.3} p99={:.3} max={:.3} mean={:.3}\n",
                self.latencies_ms[0],
                self.percentile(50.0),
                self.percentile(90.0),
                self.percentile(99.0),
                self.latencies_ms[n - 1],
                mean
            ));
            out.push_str(&self.histogram());
        }
        if let Some((batches, cb, cj, max_batch)) = self.coalescing() {
            out.push_str(&format!(
                "coalescing: batches={batches} coalesced_batches={cb} \
                 coalesced_jobs={cj} max_batch={max_batch}\n"
            ));
        }
        out
    }

    /// ASCII latency histogram over linear buckets.
    pub fn histogram(&self) -> String {
        const BUCKETS: usize = 12;
        const WIDTH: usize = 40;
        if self.latencies_ms.is_empty() {
            return String::new();
        }
        let lo = self.latencies_ms[0];
        let hi = self.latencies_ms[self.latencies_ms.len() - 1];
        let span = (hi - lo).max(1e-9);
        let mut counts = [0usize; BUCKETS];
        for l in &self.latencies_ms {
            let idx = (((l - lo) / span) * BUCKETS as f64) as usize;
            counts[idx.min(BUCKETS - 1)] += 1;
        }
        let peak = counts.iter().copied().max().unwrap_or(1).max(1);
        let mut out = String::new();
        for (i, c) in counts.iter().enumerate() {
            let left = lo + span * i as f64 / BUCKETS as f64;
            let right = lo + span * (i + 1) as f64 / BUCKETS as f64;
            let bar = "#".repeat((c * WIDTH).div_ceil(peak).min(WIDTH));
            out.push_str(&format!("  {left:>9.3}-{right:<9.3} ms |{bar:<WIDTH$}| {c}\n"));
        }
        out
    }
}

/// How many 429 rounds a single job will absorb before counting as
/// failed. Generous: the acceptance run must finish with zero failures
/// even if the queue saturates transiently.
const MAX_RETRIES: u32 = 100;

/// Run the closed loop and collect the report.
pub fn run(cfg: &LoadgenConfig) -> Result<LoadgenReport, String> {
    // Fail fast (and clearly) if the server isn't there at all.
    Client::new(&cfg.addr)
        .get("/healthz")
        .map_err(|e| format!("server not reachable: {e}"))?;

    let next = Arc::new(AtomicU64::new(0));
    let latencies = Arc::new(Mutex::new(Vec::with_capacity(cfg.jobs as usize)));
    let ok = Arc::new(AtomicU64::new(0));
    let failed = Arc::new(AtomicU64::new(0));
    let retried = Arc::new(AtomicU64::new(0));

    let started = Instant::now();
    let mut workers = Vec::with_capacity(cfg.concurrency.max(1));
    for _ in 0..cfg.concurrency.max(1) {
        let cfg = cfg.clone();
        let next = Arc::clone(&next);
        let latencies = Arc::clone(&latencies);
        let ok = Arc::clone(&ok);
        let failed = Arc::clone(&failed);
        let retried = Arc::clone(&retried);
        workers.push(thread::spawn(move || {
            let client = Client::new(&cfg.addr);
            loop {
                // ORDERING: the atomic RMW alone guarantees each index is
                // claimed exactly once; no other state rides on it.
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= cfg.jobs {
                    break;
                }
                let job = JobRequest {
                    shape: cfg.shape,
                    precision: winrs_core::Precision::Fp32,
                    policy: winrs_core::FallbackPolicy::Auto,
                    guard: winrs_core::NumericGuard::Warn,
                    deadline: cfg.deadline,
                    x_seed: cfg.seed_base + 2 * i,
                    dy_seed: cfg.seed_base + 2 * i + 1,
                    scale: 1.0,
                    gradient: GradientMode::Digest,
                };
                let t0 = Instant::now();
                let mut attempts = 0u32;
                let outcome = loop {
                    match client.post_job(&job) {
                        Ok(reply) if reply.is_ok() => break Ok(()),
                        Ok(reply) if reply.status == 429 && attempts < MAX_RETRIES => {
                            attempts += 1;
                            // ORDERING: standalone monotone counter.
                            retried.fetch_add(1, Ordering::Relaxed);
                            let secs = reply.retry_after.unwrap_or(1).min(2);
                            // Back off a fraction of Retry-After: the
                            // queue usually has room again much sooner.
                            thread::sleep(Duration::from_millis(secs.max(1) * 50));
                        }
                        Ok(reply) => {
                            break Err(format!(
                                "job {i}: HTTP {} {}",
                                reply.status,
                                reply.body.to_document()
                            ))
                        }
                        Err(e) => break Err(format!("job {i}: {e}")),
                    }
                };
                match outcome {
                    Ok(()) => {
                        // ORDERING: standalone monotone counter.
                        ok.fetch_add(1, Ordering::Relaxed);
                        let ms = t0.elapsed().as_secs_f64() * 1000.0;
                        let mut l = latencies.lock().unwrap_or_else(|p| p.into_inner());
                        l.push(ms);
                    }
                    Err(e) => {
                        // ORDERING: standalone monotone counter.
                        failed.fetch_add(1, Ordering::Relaxed);
                        eprintln!("winrs loadgen: {e}");
                    }
                }
            }
        }));
    }
    for w in workers {
        w.join().map_err(|_| "a loadgen worker panicked")?;
    }
    let wall_s = started.elapsed().as_secs_f64();

    let server_stats = Client::new(&cfg.addr)
        .get("/v1/stats")
        .ok()
        .map(|r| r.body);
    let mut latencies = match Arc::try_unwrap(latencies) {
        Ok(m) => m.into_inner().unwrap_or_else(|p| p.into_inner()),
        Err(shared) => shared.lock().unwrap_or_else(|p| p.into_inner()).clone(),
    };
    latencies.sort_by(|a, b| a.total_cmp(b));

    Ok(LoadgenReport {
        latencies_ms: latencies,
        // ORDERING: all workers are joined above; the joins provide the
        // happens-before edges for these quiescent final reads.
        ok: ok.load(Ordering::Relaxed),
        failed: failed.load(Ordering::Relaxed),
        retried: retried.load(Ordering::Relaxed),
        wall_s,
        server_stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(lat: Vec<f64>) -> LoadgenReport {
        LoadgenReport {
            ok: lat.len() as u64,
            latencies_ms: lat,
            failed: 0,
            retried: 0,
            wall_s: 1.0,
            server_stats: None,
        }
    }

    #[test]
    fn percentiles_pick_the_expected_ranks() {
        let r = report((1..=100).map(|i| i as f64).collect());
        assert_eq!(r.percentile(50.0), 50.0);
        assert_eq!(r.percentile(99.0), 99.0);
        assert_eq!(r.percentile(100.0), 100.0);
        assert_eq!(r.percentile(0.0), 1.0);
    }

    #[test]
    fn histogram_covers_every_sample() {
        let r = report(vec![1.0, 1.5, 2.0, 8.0, 9.0, 9.5, 10.0]);
        let h = r.histogram();
        let total: usize = h
            .lines()
            .filter_map(|l| l.rsplit_once("| ").and_then(|(_, c)| c.trim().parse::<usize>().ok()))
            .sum();
        assert_eq!(total, 7, "histogram:\n{h}");
    }

    #[test]
    fn empty_report_renders_without_panicking() {
        let r = report(Vec::new());
        assert_eq!(r.percentile(50.0), 0.0);
        assert!(r.histogram().is_empty());
    }
}
