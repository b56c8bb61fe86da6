//! serve_open: an in-process `winrs-serve` server driven by an open-loop
//! generator — seeded Poisson arrivals in two fixed-rate phases, sent over
//! at most `nproc` keep-alive connections, every full gradient checked by
//! the oracle once the phases are over.

use crate::bfc::{self, Case, Parts, Phases, PoolMark, Shares, DEVICE};
use crate::host::{Clocks, Speed};
use crate::http::KeepAlive;
use crate::layers;
use crate::oracle;
use crate::report::{Outcome, RunSpec};
use crate::rng::{self, Rng};
use crate::stats;
use crate::trace::Tracer;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use winrs_conv::ConvShape;
use winrs_core::{FallbackPolicy, NumericGuard, PoolConfig, Precision};
use winrs_json::Json;
use winrs_serve::{GradientMode, JobRequest, ServeConfig, Server};

/// Offered rates, requests per second: `light` below the rate where
/// back-to-back responses start to stall, `heavy` above it and still
/// under saturation.
pub const LIGHT_RATE: f64 = 8.0;
pub const HEAVY_RATE: f64 = 24.0;

/// Latency above which a response counts as stalled in the phase notes.
const STALL_S: f64 = 0.030;

/// Host-speed bursts taken before and again after the phases: a burst
/// during them would hold up the requests due meanwhile.
const BURSTS: usize = 8;

/// The key about half of all jobs carry.
pub fn hot_key() -> ConvShape {
    ConvShape::square(2, 16, 16, 16, 3)
}

/// 47 further keys — more than the 32-entry plan and decision caches hold.
pub fn tail_keys() -> Vec<ConvShape> {
    let mut keys = Vec::new();
    for n in [1, 2] {
        for res in [12, 16, 20] {
            for c in [8, 16] {
                for f in [2, 3, 4, 5] {
                    let s = ConvShape::square(n, res, c, c, f);
                    if s != hot_key() {
                        keys.push(s);
                    }
                }
            }
        }
    }
    keys
}

pub fn job(shape: ConvShape, rng: &mut Rng) -> JobRequest {
    JobRequest {
        shape,
        precision: Precision::Fp32,
        policy: FallbackPolicy::Auto,
        guard: NumericGuard::default(),
        deadline: None,
        x_seed: rng.next_u64() >> 12,
        dy_seed: rng.next_u64() >> 12,
        scale: 1.0,
        gradient: GradientMode::Full,
    }
}

/// One scheduled request.
pub struct Planned {
    pub phase: usize,
    pub due_s: f64,
    pub job: JobRequest,
}

/// The seeded schedule: for each `(rate, span)` phase, Poisson arrivals
/// with exactly half the jobs on the hot key and the rest walking a
/// shuffled tail.
pub fn schedule(seed: u64, phases: &[(f64, f64)]) -> Vec<Planned> {
    let root = Rng::new(seed).fork(10);
    let tail = tail_keys();
    let mut out = Vec::new();
    let mut start = 0.0;
    for (p, &(rate, span)) in phases.iter().enumerate() {
        let mut r = root.fork(p as u64);
        let due = rng::arrivals(&mut r, rate, start, span);
        let mut order: Vec<usize> = (0..tail.len()).collect();
        r.shuffle(&mut order);
        let mut kinds: Vec<Option<usize>> = (0..due.len())
            .map(|i| {
                if i % 2 == 0 {
                    None
                } else {
                    Some(order[(i / 2) % order.len()])
                }
            })
            .collect();
        r.shuffle(&mut kinds);
        for (t, kind) in due.into_iter().zip(kinds) {
            let shape = kind.map_or_else(hot_key, |k| tail[k]);
            out.push(Planned {
                phase: p,
                due_s: t,
                job: job(shape, &mut r),
            });
        }
        start += span;
    }
    out
}

/// What one request came back with.
pub struct Sent {
    pub due_s: f64,
    pub late_s: f64,
    pub latency_s: f64,
    pub status: u16,
    pub body: Vec<u8>,
}

/// Drive `plan` against `addr` over `conns` keep-alive connections: each
/// connection takes the next request when it is free, waits for its due
/// time, and sends it. A request due while every connection is busy
/// waits, and that wait counts in its latency.
pub fn drive(
    addr: &str,
    plan: &[Planned],
    traced: &[bool],
    conns: usize,
    t0: Instant,
    tracers: &mut [Tracer],
) -> Vec<Option<Sent>> {
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<Sent>>> = Mutex::new((0..plan.len()).map(|_| None).collect());
    let bodies: Vec<Vec<u8>> = plan
        .iter()
        .map(|p| p.job.to_json().to_document().into_bytes())
        .collect();
    std::thread::scope(|s| {
        for tr in tracers.iter_mut().take(conns) {
            let (next, results, bodies) = (&next, &results, &bodies);
            s.spawn(move || {
                let mut client = KeepAlive::new(addr);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(p) = plan.get(i) else { break };
                    let due = t0 + Duration::from_secs_f64(p.due_s);
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let sent = Instant::now();
                    let span = traced[i].then(|| tr.open("serve.request", i as u64, None));
                    let reply = client.post("/v1/bfc", &bodies[i]);
                    if let Some(span) = span {
                        tr.close(span);
                    }
                    let done = Instant::now();
                    let (status, body) = match reply {
                        Ok(r) => (r.status, r.body),
                        Err(_) => (0, Vec::new()),
                    };
                    let rec = Sent {
                        due_s: p.due_s,
                        late_s: sent.saturating_duration_since(due).as_secs_f64(),
                        latency_s: done.saturating_duration_since(due).as_secs_f64(),
                        status,
                        body,
                    };
                    results.lock().expect("result slots are never poisoned")[i] = Some(rec);
                }
            });
        }
    });
    results
        .into_inner()
        .expect("result slots are never poisoned")
}

/// Values of `gradient.values` in a full-gradient response body.
fn gradient_of(body: &[u8]) -> Result<(Vec<f32>, Json), String> {
    let text = std::str::from_utf8(body).map_err(|e| format!("body not UTF-8: {e}"))?;
    let doc = Json::parse(text).map_err(|e| format!("body not JSON: {e}"))?;
    let values = doc
        .get("gradient")
        .and_then(|g| g.get("values"))
        .and_then(Json::items)
        .ok_or("no gradient.values in the response")?
        .iter()
        .map(|v| {
            v.as_f64()
                .map(|x| x as f32)
                .ok_or("non-numeric gradient value")
        })
        .collect::<Result<Vec<f32>, _>>()?;
    Ok((values, doc))
}

/// The phases of a response that ran WinRS.
fn winrs_phases(doc: &Json) -> Option<Phases> {
    let report = doc.get("report")?;
    if report.get("algorithm").and_then(Json::as_str) != Some("winrs") {
        return None;
    }
    let t = report.get("timing")?;
    Some(Phases {
        z: report.get("z")?.as_f64()? as usize,
        block_s: t.get("block_loop_s")?.as_f64()?,
        reduce_s: t.get("reduce_s")?.as_f64()?,
    })
}

pub struct PhaseResult {
    pub phase_lat: Vec<Vec<f64>>,
    pub late: Vec<f64>,
    pub rejected: u64,
}

/// Check every reply after the phases: non-200 and oracle misses are
/// failed ops. Returns per-phase latencies of the good ones.
fn settle(
    plan: &[Planned],
    sent: Vec<Option<Sent>>,
    seed: u64,
    phases: usize,
    out: &mut Outcome,
    shares: &mut Shares,
) -> PhaseResult {
    let mut check_rng = Rng::new(seed).fork(11);
    let mut res = PhaseResult {
        phase_lat: vec![Vec::new(); phases],
        late: Vec::new(),
        rejected: 0,
    };
    for (p, s) in plan.iter().zip(sent) {
        out.attempted += 1;
        let Some(s) = s else {
            out.failed += 1;
            continue;
        };
        res.late.push(s.late_s);
        if s.status != 200 {
            out.failed += 1;
            if s.status == 429 || s.status == 503 {
                res.rejected += 1;
            }
            out.note(format!(
                "request due at {:.3}s got HTTP {}",
                s.due_s, s.status
            ));
            continue;
        }
        let verdict = gradient_of(&s.body).and_then(|(dw, doc)| {
            let (x, dy) = p.job.operands();
            let worst = oracle::check(
                &p.job.shape,
                x.as_slice(),
                dy.as_slice(),
                &dw,
                Precision::Fp32,
                &mut check_rng,
            )?;
            Ok((doc, worst))
        });
        match verdict {
            Ok((doc, worst)) => {
                out.oracle_worst = out.oracle_worst.max(worst);
                out.op_s.push(s.latency_s);
                out.flops += p.job.shape.bfc_flops() as f64;
                res.phase_lat[p.phase].push(s.latency_s);
                shares.add(&p.job.shape, s.latency_s, winrs_phases(&doc));
            }
            Err(e) => {
                out.failed += 1;
                out.note(format!("request due at {:.3}s: {e}", s.due_s));
            }
        }
    }
    res
}

fn spawn_server() -> std::io::Result<Server> {
    Server::spawn(ServeConfig {
        // A private pool of the default size, so each set-up starts cold.
        slots: PoolConfig::default().slots,
        ..ServeConfig::default()
    })
}

fn fmt_pct(xs: &[f64], p: f64) -> String {
    stats::percentile(xs, p).map_or("n/a".to_string(), |v| format!("{:.2}", v * 1e3))
}

/// Set up `SETUP_REPS` times (server, schedule, one warm request per key),
/// keep the last server, and return it with the median set-up CPU time.
fn set_up(
    seed: u64,
    phases: &[(f64, f64)],
    process_start: Clocks,
) -> std::io::Result<(Server, Vec<Planned>, f64)> {
    let mut times = Vec::new();
    let mut last = None;
    for rep in 0..bfc::SETUP_REPS {
        drop(last.take());
        let t0 = if rep == 0 {
            process_start
        } else {
            Clocks::start()
        };
        let server = spawn_server()?;
        let plan = schedule(seed, phases);
        let mut client = KeepAlive::new(&server.addr().to_string());
        let mut warm = Rng::new(seed).fork(12);
        for shape in std::iter::once(hot_key()).chain(tail_keys()) {
            let body = job(shape, &mut warm).to_json().to_document();
            client.post("/v1/bfc", body.as_bytes())?;
        }
        drop(client);
        times.push(t0.elapsed().1);
        last = Some((server, plan));
    }
    let (server, plan) = last.expect("at least one set-up ran");
    Ok((server, plan, stats::median(&times)))
}

/// The server's job counters and its pool's counters at one instant.
struct ServeMark {
    pool: PoolMark,
    jobs: u64,
    coalesced: u64,
}

/// What the serve layer did since a [`ServeMark`].
struct ServeCounts {
    jobs: u64,
    coalesced: u64,
    plan_hits: u64,
    plan_misses: u64,
}

impl ServeMark {
    fn read(server: &Server) -> ServeMark {
        let stats = server.stats();
        ServeMark {
            pool: PoolMark::read(server.pool()),
            jobs: stats.jobs_ok.load(Ordering::Relaxed) + stats.jobs_failed.load(Ordering::Relaxed),
            coalesced: stats.coalesced_jobs.load(Ordering::Relaxed),
        }
    }

    fn since(&self, server: &Server) -> ServeCounts {
        let now = ServeMark::read(server);
        let (plan_hits, plan_misses, _) = self.pool.since(server.pool());
        ServeCounts {
            jobs: now.jobs - self.jobs,
            coalesced: now.coalesced - self.coalesced,
            plan_hits,
            plan_misses,
        }
    }
}

impl ServeCounts {
    /// The `serve.*` metrics, given the good responses' median latency.
    fn emit(&self, rtt_p50_s: f64, res: &PhaseResult, out: &mut Outcome) {
        out.layer("serve.rtt_ms_p50", rtt_p50_s * 1e3, "ms");
        out.layer(
            "serve.late_ms_max",
            res.late.iter().copied().fold(0.0, f64::max) * 1e3,
            "ms",
        );
        out.layer(
            "serve.coalesced_pct",
            stats::ratio(100.0 * self.coalesced as f64, self.jobs as f64, 0.0),
            "%",
        );
        out.layer("serve.rejected", res.rejected as f64, "count");
        out.layer(
            "serve.plan_miss_pct",
            stats::ratio(
                100.0 * self.plan_misses as f64,
                (self.plan_hits + self.plan_misses) as f64,
                0.0,
            ),
            "%",
        );
    }
}

pub fn run(
    spec: &RunSpec,
    conns: usize,
    out: &mut Outcome,
    tr: &mut Tracer,
    speed: &mut Speed,
) -> Result<(), String> {
    let (seed, seconds, traced) = (spec.seed, spec.seconds, spec.traced);
    let phases = [(LIGHT_RATE, seconds / 2.0), (HEAVY_RATE, seconds / 2.0)];
    let (mut server, plan, setup_s) =
        set_up(seed, &phases, spec.process_start).map_err(|e| format!("serve set-up: {e}"))?;
    out.setup_s = setup_s;
    let addr = server.addr().to_string();
    let pool = Arc::clone(server.pool());
    (0..BURSTS).for_each(|_| speed.burst());
    let mark = ServeMark::read(&server);
    let mut tracers: Vec<Tracer> = (0..conns).map(|_| Tracer::new()).collect();
    // Traced runs record spans on every other request; the two sets'
    // latency medians give the tracing overhead.
    let flags: Vec<bool> = (0..plan.len()).map(|i| traced && i % 2 == 1).collect();
    let clocks = Clocks::start();
    let sent = drive(&addr, &plan, &flags, conns, Instant::now(), &mut tracers);
    let (wall, cpu) = clocks.elapsed();
    (0..BURSTS).for_each(|_| speed.burst());
    out.timed_s = wall;
    out.timed_wall_s = wall;
    out.timed_cpu_s = cpu;
    out.op_cpu_s = Some(cpu / plan.len().max(1) as f64);
    for t in tracers {
        tr.append(t);
    }

    let mut shares = Shares::default();
    let (mut lat_traced, mut lat_plain) = (Vec::new(), Vec::new());
    for (s, f) in sent.iter().zip(&flags) {
        if let Some(s) = s.as_ref().filter(|s| s.status == 200) {
            if *f {
                lat_traced.push(s.latency_s)
            } else {
                lat_plain.push(s.latency_s)
            }
        }
    }
    let res = settle(&plan, sent, seed, phases.len(), out, &mut shares);
    let counts = mark.since(&server);
    // The light phase's median is the per-request cost with nothing
    // queued; over both phases the median would sit wherever the share of
    // stalled heavy-phase responses put it.
    out.p50_s = Some(res.phase_lat[0].clone());
    for (i, name) in ["light", "heavy"].iter().enumerate() {
        let lat = &res.phase_lat[i];
        // A response held back by a delayed ACK takes 40 ms or more.
        let stalled = lat.iter().filter(|&&l| l > STALL_S).count();
        out.note(format!(
            "serve_open {name}: {:.0} req/s offered, {} ok, latency p50 {} ms p90 {} ms, {:.1}% over {} ms",
            phases[i].0,
            lat.len(),
            fmt_pct(lat, 0.5),
            fmt_pct(lat, 0.9),
            stats::ratio(100.0 * stalled as f64, lat.len() as f64, 0.0),
            STALL_S * 1e3
        ));
    }
    out.note(format!(
        "serve_open: late p90 {} ms, {} jobs, {} coalesced, {} rejected, plan cache {} hits {} misses",
        fmt_pct(&res.late, 0.9),
        counts.jobs,
        counts.coalesced,
        res.rejected,
        counts.plan_hits,
        counts.plan_misses
    ));
    if !traced {
        server.shutdown();
        return Ok(());
    }

    counts.emit(stats::median(&out.op_s), &res, out);
    mark.pool.emit(&pool, out);
    out.layer(
        "trace.overhead_pct",
        bfc::overhead_pct(&lat_plain, &lat_traced),
        "%",
    );

    // Replay every key through the calls the dispatcher makes, on the
    // server's own pool, and time each through the public call.
    let keys: Vec<ConvShape> = std::iter::once(hot_key()).chain(tail_keys()).collect();
    let mut r = Rng::new(seed).fork(13);
    let cases: Vec<Case> = keys
        .iter()
        .map(|&s| {
            let (x, dy) = job(s, &mut r).operands();
            Case {
                shape: s,
                precision: Precision::Fp32,
                x,
                dy,
            }
        })
        .collect();
    let mut parts = Parts::default();
    let h = bfc::handle(&pool, Precision::Fp32);
    for (i, c) in cases.iter().enumerate() {
        for _ in 0..3 {
            bfc::replay(c, &pool, i as u64, tr, &mut parts, out);
            let t = Instant::now();
            if let Ok((_, report)) = h.run(&c.shape, &c.x, &c.dy) {
                let run_s = t.elapsed().as_secs_f64();
                // Shares come from the served requests; the workspace
                // ratio from these reports, which carry the measured
                // footprint.
                shares.add_ws_ratio(bfc::ws_ratio(&c.shape, &report));
                parts
                    .overhead_s
                    .extend(bfc::dispatch_overhead(run_s, &report));
            }
        }
    }
    shares.emit(out);
    parts.emit(out);
    let regret = layers::regret_probe(&cases, &pool, DEVICE);
    regret.emit(out);
    out.note(format!("regret: {}", regret.summary()));
    let key_prec: Vec<(ConvShape, Precision)> =
        keys.iter().map(|&s| (s, Precision::Fp32)).collect();
    layers::plan_and_tuner_probe(&key_prec, DEVICE, out);
    server.shutdown();
    Ok(())
}

/// The serve layer as seen from a workload that does not serve: a short
/// light-rate phase of hot-key jobs against a fresh server.
pub fn probe(seed: u64, out: &mut Outcome) -> Result<(), String> {
    let mut server = spawn_server().map_err(|e| format!("serve probe: {e}"))?;
    let addr = server.addr().to_string();
    let mark = ServeMark::read(&server);
    let mut r = Rng::new(seed).fork(14);
    let plan: Vec<Planned> = rng::arrivals(&mut r, LIGHT_RATE, 0.2, 3.0)
        .into_iter()
        .map(|t| Planned {
            phase: 0,
            due_s: t,
            job: job(hot_key(), &mut r),
        })
        .collect();
    let mut tracers = vec![Tracer::new()];
    let sent = drive(
        &addr,
        &plan,
        &vec![false; plan.len()],
        1,
        Instant::now(),
        &mut tracers,
    );
    let mut probe_out = Outcome::default();
    let res = settle(&plan, sent, seed, 1, &mut probe_out, &mut Shares::default());
    let counts = mark.since(&server);
    server.shutdown();
    out.attempted += probe_out.attempted;
    out.failed += probe_out.failed;
    out.notes.append(&mut probe_out.notes);
    counts.emit(stats::median(&probe_out.op_s), &res, out);
    Ok(())
}

/// `JobRequest::from_json` + `operands` + `job_response_json`, per job.
pub fn protocol_probe(out: &mut Outcome) {
    let mut r = Rng::new(3);
    let req = job(hot_key(), &mut r);
    let body = req.to_json().to_document();
    let (x, dy) = req.operands();
    let h = bfc::handle(
        &winrs_core::WorkspacePool::new(PoolConfig::default()),
        Precision::Fp32,
    );
    let Ok((dw, report)) = h.run(&req.shape, &x, &dy) else {
        out.layer("serve.protocol_us", 0.0, "us");
        return;
    };
    let times: Vec<f64> = (0..50)
        .map(|_| {
            let t = Instant::now();
            let doc = Json::parse(&body).expect("the probe's own body parses");
            let parsed = JobRequest::from_json(&doc).expect("the probe's own job is valid");
            std::hint::black_box(parsed.operands());
            std::hint::black_box(
                winrs_serve::job_response_json(&report, &dw, GradientMode::Full).to_document(),
            );
            t.elapsed().as_secs_f64()
        })
        .collect();
    out.layer("serve.protocol_us", stats::median(&times) * 1e6, "us");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_reproduces_from_the_seed_and_splits_the_keys() {
        let phases = [(10.0, 2.0), (30.0, 2.0)];
        let a = schedule(42, &phases);
        let b = schedule(42, &phases);
        assert_eq!(a.len(), 80);
        for (p, q) in a.iter().zip(&b) {
            assert_eq!(p.due_s, q.due_s);
            assert_eq!(p.job.shape, q.job.shape);
            assert_eq!((p.job.x_seed, p.job.dy_seed), (q.job.x_seed, q.job.dy_seed));
        }
        let hot = a.iter().filter(|p| p.job.shape == hot_key()).count();
        assert_eq!(hot, 10 + 30);
        assert!(a.windows(2).all(|w| w[0].due_s <= w[1].due_s));
        let c = schedule(43, &phases);
        assert!(a.iter().zip(&c).any(|(p, q)| p.due_s != q.due_s));
    }

    #[test]
    fn tail_outnumbers_the_caches() {
        let tail = tail_keys();
        assert!(tail.len() > winrs_core::cache::DEFAULT_PLAN_CACHE_CAPACITY);
        assert!(!tail.contains(&hot_key()));
    }
}
