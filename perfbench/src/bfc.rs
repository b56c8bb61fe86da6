//! The two closed-loop BFC workloads: one caller dispatching
//! `ExecHandle::run` (Auto policy) in a fixed rotation over a fixed key
//! set, every result checked by the oracle after its clock stops.

use crate::host::{Clocks, Speed};
use crate::layers;
use crate::oracle;
use crate::report::{Outcome, RunSpec};
use crate::rng::Rng;
use crate::stats;
use crate::trace::Tracer;
use std::sync::Arc;
use std::time::Instant;
use winrs_bench::workloads::throughput_dims;
use winrs_conv::ConvShape;
use winrs_core::engine::ExecOptions;
use winrs_core::{
    AlgoChoice, Algorithm, ExecCtx, ExecHandle, ExecutionReport, FallbackPolicy, PoolConfig,
    Precision, TimingSink, WorkspacePool,
};
use winrs_gpu_sim::{DeviceSpec, RTX_4090};
use winrs_tensor::Tensor4;

/// The device model the tuner ranks against (the library default).
pub const DEVICE: DeviceSpec = RTX_4090;

/// Set-ups per run; `setup_s` is the median of their CPU times.
pub const SETUP_REPS: usize = 7;

/// fig10 ops above this many FLOPs are left out so one rotation stays
/// near a second on one vCPU.
const FIG10_MAX_FLOPS: u64 = 2_600_000_000;

/// One key of a closed BFC loop and how many of its ops one rotation runs.
pub struct Key {
    pub shape: ConvShape,
    pub precision: Precision,
    pub per_rotation: usize,
}

/// fig10: the constant-complexity FP32 series at f ∈ {3,5,7,9}, batch
/// scaled by 1/32 (the paper's N = 32 becomes 1).
pub fn fig10_keys() -> Vec<Key> {
    let mut keys = Vec::new();
    for f in [3, 5, 7, 9] {
        for w in throughput_dims(f) {
            let s = w.shape;
            let shape = ConvShape::new(
                (s.n / 32).max(1),
                s.ih,
                s.iw,
                s.ic,
                s.oc,
                s.fh,
                s.fw,
                s.ph,
                s.pw,
            );
            if shape.bfc_flops() <= FIG10_MAX_FLOPS {
                keys.push(Key {
                    shape,
                    precision: Precision::Fp32,
                    per_rotation: 1,
                });
            }
        }
    }
    keys
}

/// fsweep: the paper's full ∇W range f = 2…9 at FP16 (fig11) on one
/// scaled map, plus FP32 f = 2 on a large map, which the tuner sends to
/// direct convolution. That one op runs at half the FP16 keys' rate: its
/// time swings by up to 2× within a run, and at equal weight the
/// workload's p90 would be the low tail of that one key.
pub fn fsweep_keys() -> Vec<Key> {
    let mut keys: Vec<Key> = (2..=9)
        .map(|f| Key {
            shape: ConvShape::square(2, 28, 64, 64, f),
            precision: Precision::Fp16,
            per_rotation: 2,
        })
        .collect();
    keys.push(Key {
        shape: ConvShape::square(1, 56, 64, 64, 2),
        precision: Precision::Fp32,
        per_rotation: 1,
    });
    keys
}

/// One key with its seeded operands.
pub struct Case {
    pub shape: ConvShape,
    pub precision: Precision,
    pub x: Tensor4<f32>,
    pub dy: Tensor4<f32>,
}

pub fn make_cases(keys: &[Key], rng: &Rng) -> Vec<Case> {
    keys.iter()
        .enumerate()
        .map(|(i, k)| {
            let (s, mut r) = (k.shape, rng.fork(i as u64));
            Case {
                shape: s,
                precision: k.precision,
                x: Tensor4::from_vec([s.n, s.ih, s.iw, s.ic], r.unit_vec(s.x_elems())),
                dy: Tensor4::from_vec([s.n, s.oh(), s.ow(), s.oc], r.unit_vec(s.dy_elems())),
            }
        })
        .collect()
}

pub fn handle(pool: &Arc<WorkspacePool>, precision: Precision) -> ExecHandle {
    ExecHandle::new(Arc::clone(pool), DEVICE, precision)
}

/// The phases a WinRS dispatch reports: `Z`, block-loop and reduce time.
pub struct Phases {
    pub z: usize,
    pub block_s: f64,
    pub reduce_s: f64,
}

impl Phases {
    /// The report's phases, if it ran WinRS.
    pub fn of(report: &ExecutionReport) -> Option<Phases> {
        (report.algorithm == Algorithm::WinRs).then(|| Phases {
            z: report.z.unwrap_or(1),
            block_s: report.timing.block_loop_s,
            reduce_s: report.timing.reduce_s,
        })
    }
}

/// Planned and measured workspace of a WinRS report against the paper's
/// `(Z−1)·|∇W|·4` bytes: the ratio farthest from 1, or `None` for another
/// algorithm. At Z = 1 the claim is 0 bytes, so there any workspace is
/// counted in ∇Ws above a ratio of 1.
pub fn ws_ratio(shape: &ConvShape, report: &ExecutionReport) -> Option<f64> {
    let z = Phases::of(report)?.z;
    let dw_bytes = (shape.dw_elems() * 4) as f64;
    let expected = (z - 1) as f64 * dw_bytes;
    let ratio = |bytes: usize| {
        if expected > 0.0 {
            bytes as f64 / expected
        } else {
            1.0 + bytes as f64 / dw_bytes
        }
    };
    let (planned, peak) = (
        ratio(report.mem.workspace_bytes_planned),
        ratio(report.mem.workspace_bytes_peak),
    );
    Some(if (planned - 1.0).abs() >= (peak - 1.0).abs() {
        planned
    } else {
        peak
    })
}

/// Engine and reduce time against op time, as the run reports give them.
#[derive(Default)]
pub struct Shares {
    pub op_s: f64,
    pub engine_s: f64,
    pub reduce_s: f64,
    pub winrs_bfc_flops: f64,
    /// `(Z+1)·|∇W|·4` bytes per WinRS reduce, summed.
    pub reduce_bytes: f64,
    /// Workspace ratio minus 1, the one farthest from 0.
    pub ws_ratio_dev: f64,
}

impl Shares {
    /// Count one op of `op_s` seconds and, if it ran WinRS, its phases.
    pub fn add(&mut self, shape: &ConvShape, op_s: f64, phases: Option<Phases>) {
        self.op_s += op_s;
        if let Some(p) = phases {
            self.engine_s += p.block_s;
            self.reduce_s += p.reduce_s;
            self.winrs_bfc_flops += shape.bfc_flops() as f64;
            self.reduce_bytes += ((p.z + 1) * shape.dw_elems() * 4) as f64;
        }
    }

    pub fn add_ws_ratio(&mut self, ratio: Option<f64>) {
        if let Some(r) = ratio.filter(|r| (r - 1.0).abs() > self.ws_ratio_dev.abs()) {
            self.ws_ratio_dev = r - 1.0;
        }
    }

    pub fn emit(&self, out: &mut Outcome) {
        let pct = |a: f64| stats::ratio(100.0 * a, self.op_s, 0.0);
        out.layer("engine.share_pct", pct(self.engine_s), "%");
        out.layer("reduce.share_pct", pct(self.reduce_s), "%");
        out.layer(
            "engine.eff_gflops",
            stats::ratio(self.winrs_bfc_flops, self.engine_s, 0.0) / 1e9,
            "GFLOP/s",
        );
        out.layer(
            "reduce.gbps_computed",
            stats::ratio(self.reduce_bytes, self.reduce_s, 0.0) / 1e9,
            "GB/s",
        );
        out.layer("plan.ws_ratio", 1.0 + self.ws_ratio_dev, "ratio");
    }
}

/// A pool's plan-cache and lease-wait counters at one instant.
pub struct PoolMark {
    hits: u64,
    misses: u64,
    waits: u64,
}

impl PoolMark {
    pub fn read(pool: &WorkspacePool) -> PoolMark {
        let (hits, misses) = pool.plan_stats();
        PoolMark {
            hits,
            misses,
            waits: pool.stats().waits,
        }
    }

    /// Counts since `self`: `(plan hits, plan misses, waits)`.
    pub fn since(&self, pool: &WorkspacePool) -> (u64, u64, u64) {
        let now = PoolMark::read(pool);
        (
            now.hits - self.hits,
            now.misses - self.misses,
            now.waits - self.waits,
        )
    }

    /// `pool.plan_hit_pct` and `pool.waits` since `self`.
    pub fn emit(&self, pool: &WorkspacePool, out: &mut Outcome) {
        let (hits, misses, waits) = self.since(pool);
        out.layer(
            "pool.plan_hit_pct",
            stats::ratio(100.0 * hits as f64, (hits + misses) as f64, 100.0),
            "%",
        );
        out.layer("pool.waits", waits as f64, "count");
    }
}

/// Repeated set-up: operands plus a fresh pool warmed with one dispatch of
/// every key. Returns the last set-up's state and the median CPU time.
fn set_up(keys: &[Key], seed: u64, process_start: Clocks) -> (Vec<Case>, Arc<WorkspacePool>, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut state = None;
    for rep in 0..SETUP_REPS {
        drop(state.take());
        let t0 = if rep == 0 {
            process_start
        } else {
            Clocks::start()
        };
        let cases = make_cases(keys, &Rng::new(seed).fork(1));
        let pool = WorkspacePool::new(PoolConfig::default());
        for c in &cases {
            let _ = handle(&pool, c.precision).run(&c.shape, &c.x, &c.dy);
        }
        times.push(t0.elapsed().1);
        state = Some((cases, pool));
    }
    let (cases, pool) = state.expect("at least one set-up ran");
    (cases, pool, stats::median(&times))
}

/// Check one returned ∇W; a miss is a failed op.
fn checked(c: &Case, dw: &Tensor4<f32>, rng: &mut Rng, out: &mut Outcome) -> bool {
    match oracle::check(
        &c.shape,
        c.x.as_slice(),
        c.dy.as_slice(),
        dw.as_slice(),
        c.precision,
        rng,
    ) {
        Ok(worst) => {
            out.oracle_worst = out.oracle_worst.max(worst);
            true
        }
        Err(e) => {
            out.failed += 1;
            out.note(format!(
                "check failed on {:?} {:?}: {e}",
                c.shape, c.precision
            ));
            false
        }
    }
}

/// Run whole rotations of `order`, each followed by a host-speed burst,
/// until the wall budget is (to within half a rotation) spent.
fn rotations(budget_s: f64, order: &[usize], speed: &mut Speed, mut op: impl FnMut(usize)) {
    let start = Instant::now();
    let mut n = 0.0;
    loop {
        for &i in order {
            op(i);
        }
        speed.burst();
        n += 1.0;
        let el = start.elapsed().as_secs_f64();
        if el + 0.5 * el / n >= budget_s {
            break;
        }
    }
}

/// A WinRS op whose workspace is not exactly `(Z−1)·|∇W|·4` bytes, or
/// whose block loop allocated, fails the paper's tiny-workspace claim.
fn workspace_miss(shape: &ConvShape, report: &ExecutionReport) -> Option<String> {
    let ratio = ws_ratio(shape, report)?;
    let m = &report.mem;
    (ratio != 1.0 || m.hot_loop_allocs > 0).then(|| {
        format!(
            "workspace claim failed on {shape:?} (Z = {:?}): planned {} B, peak {} B, \
             expected (Z−1)·|∇W|·4 = {} B, {} hot-loop allocations",
            report.z,
            m.workspace_bytes_planned,
            m.workspace_bytes_peak,
            (report.z.unwrap_or(1) - 1) * shape.dw_elems() * 4,
            m.hot_loop_allocs
        )
    })
}

/// One op through the public call, checked after its clocks stop. The
/// op's time is process CPU time; its wall time goes to `shares`.
fn public_op(
    c: &Case,
    h: &ExecHandle,
    rng: &mut Rng,
    out: &mut Outcome,
    shares: &mut Shares,
) -> Option<(f64, f64, ExecutionReport)> {
    out.attempted += 1;
    let t = Clocks::start();
    let res = h.run(&c.shape, &c.x, &c.dy);
    let (wall, cpu) = t.elapsed();
    out.timed_s += cpu;
    out.timed_cpu_s += cpu;
    out.timed_wall_s += wall;
    let (dw, report) = match res {
        Ok(r) => r,
        Err(e) => {
            out.failed += 1;
            out.note(format!("op failed on {:?}: {e}", c.shape));
            return None;
        }
    };
    if !checked(c, &dw, rng, out) {
        return None;
    }
    if let Some(miss) = workspace_miss(&c.shape, &report) {
        out.failed += 1;
        out.note(miss);
        return None;
    }
    out.op_s.push(cpu);
    out.flops += c.shape.bfc_flops() as f64;
    shares.add(&c.shape, wall, Phases::of(&report));
    shares.add_ws_ratio(ws_ratio(&c.shape, &report));
    Some((wall, cpu, report))
}

/// `ExecHandle::run`'s own cost on a WinRS op: its wall time minus the
/// phases its report times (plan fetch, engine, reduce).
pub fn dispatch_overhead(run_s: f64, report: &ExecutionReport) -> Option<f64> {
    (report.algorithm == Algorithm::WinRs).then_some(run_s - report.timing.total_s)
}

pub fn run(
    name: &str,
    keys: &[Key],
    spec: &RunSpec,
    out: &mut Outcome,
    tr: &mut Tracer,
    speed: &mut Speed,
) {
    let (seed, seconds) = (spec.seed, spec.seconds);
    let (cases, pool, setup_s) = set_up(keys, seed, spec.process_start);
    out.setup_s = setup_s;
    let mut order: Vec<usize> = keys
        .iter()
        .enumerate()
        .flat_map(|(i, k)| std::iter::repeat_n(i, k.per_rotation))
        .collect();
    // One fixed interleaving for every seed: the order of the per-op ∇W
    // allocations shapes the allocator's heap, and a seeded order moved
    // fig10's peak RSS between 105 and 125 MiB.
    Rng::new(0).fork(2).shuffle(&mut order);
    let mut check_rng = Rng::new(seed).fork(3);
    let (h32, h16) = (
        handle(&pool, Precision::Fp32),
        handle(&pool, Precision::Fp16),
    );
    let pick = |p: Precision| if p == Precision::Fp16 { &h16 } else { &h32 };
    let mut shares = Shares::default();

    if !spec.traced {
        let mut per_key = vec![Vec::new(); cases.len()];
        rotations(seconds, &order, speed, |i| {
            let c = &cases[i];
            if let Some((_, cpu, _)) =
                public_op(c, pick(c.precision), &mut check_rng, out, &mut shares)
            {
                per_key[i].push(cpu);
            }
        });
        describe_keys(name, &cases, &per_key, &pool, out);
        return;
    }

    // Traced run: rotations alternate. Odd ones replay every op through
    // the calls ExecHandle makes internally, each part in a span, and
    // then time it through the public call inside a span; even ones make
    // the public call alone. The two sets' op medians give the tracing
    // overhead.
    let mut untraced = Outcome::default();
    let mut untraced_shares = Shares::default();
    let mark = PoolMark::read(&pool);
    let mut parts = Parts::default();
    let mut k = 0usize;
    rotations(seconds, &order, speed, |i| {
        let c = &cases[i];
        let h = pick(c.precision);
        let traced_rotation = (k / order.len()) % 2 == 1;
        k += 1;
        if !traced_rotation {
            public_op(c, h, &mut check_rng, &mut untraced, &mut untraced_shares);
            return;
        }
        let op = k as u64;
        replay(c, &pool, op, tr, &mut parts, out);
        let top = tr.open("ExecHandle::run", op, None);
        let ran = public_op(c, h, &mut check_rng, out, &mut shares);
        tr.close(top);
        if let Some(o) = ran.and_then(|(run_s, _, report)| dispatch_overhead(run_s, &report)) {
            parts.overhead_s.push(o);
        }
    });
    mark.emit(&pool, out);
    out.attempted += untraced.attempted;
    out.failed += untraced.failed;
    out.oracle_worst = out.oracle_worst.max(untraced.oracle_worst);
    out.notes.append(&mut untraced.notes);

    shares.emit(out);
    parts.emit(out);
    out.layer(
        "trace.overhead_pct",
        overhead_pct(&untraced.op_s, &out.op_s),
        "%",
    );

    let regret = layers::regret_probe(&cases, &pool, DEVICE);
    regret.emit(out);
    let key_prec: Vec<(ConvShape, Precision)> =
        keys.iter().map(|k| (k.shape, k.precision)).collect();
    layers::plan_and_tuner_probe(&key_prec, DEVICE, out);
    describe_keys(name, &cases, &[], &pool, out);
    out.note(format!("regret: {}", regret.summary()));
}

/// 100·(traced op median ÷ untraced op median − 1).
pub fn overhead_pct(untraced: &[f64], traced: &[f64]) -> f64 {
    let (u, t) = (stats::median(untraced), stats::median(traced));
    if u > 0.0 && t.is_finite() {
        100.0 * (t / u - 1.0)
    } else {
        0.0
    }
}

/// Per-part timings of the replayed ops.
#[derive(Default)]
pub struct Parts {
    pub cached_plan_s: Vec<f64>,
    pub lease_s: Vec<f64>,
    pub exec_s: f64,
    pub exec_plan_flops: f64,
    pub ewmm_s: f64,
    pub busy_s: f64,
    pub hot_loop_allocs: u64,
    pub overhead_s: Vec<f64>,
}

impl Parts {
    pub fn emit(&self, out: &mut Outcome) {
        let p50_us = |xs: &[f64]| stats::median(xs) * 1e6;
        out.layer("pool.cached_plan_us", p50_us(&self.cached_plan_s), "us");
        out.layer("pool.lease_us", p50_us(&self.lease_s), "us");
        out.layer("dispatch.overhead_us", p50_us(&self.overhead_s), "us");
        out.layer(
            "engine.exec_gflops",
            stats::ratio(self.exec_plan_flops, self.exec_s, 0.0) / 1e9,
            "GFLOP/s",
        );
        out.layer(
            "engine.ewmm_pct",
            stats::ratio(100.0 * self.ewmm_s, self.busy_s, 0.0),
            "%",
        );
        out.layer("plan.hot_loop_allocs", self.hot_loop_allocs as f64, "count");
    }
}

/// Replay one op through the calls `ExecHandle::run` makes internally:
/// the tuner decision, the cached plan, the lease, the engine and the
/// reduce — each in its own span. The replay is an op of its own: an
/// error, a hot-loop allocation or a failed check is a failed op.
pub fn replay(
    c: &Case,
    pool: &Arc<WorkspacePool>,
    op: u64,
    tr: &mut Tracer,
    parts: &mut Parts,
    out: &mut Outcome,
) {
    out.attempted += 1;
    let top = tr.open("replay", op, None);
    let res = replay_parts(c, pool, op, top, tr, parts);
    tr.close(top);
    if let Err(e) = res {
        out.failed += 1;
        out.note(format!("replay on {:?} {:?}: {e}", c.shape, c.precision));
    }
}

fn replay_parts(
    c: &Case,
    pool: &Arc<WorkspacePool>,
    op: u64,
    top: usize,
    tr: &mut Tracer,
    parts: &mut Parts,
) -> Result<(), String> {
    let (x, dy) = (c.x.as_slice(), c.dy.as_slice());
    let check = |dw: &Tensor4<f32>| {
        oracle::check(
            &c.shape,
            x,
            dy,
            dw.as_slice(),
            c.precision,
            &mut Rng::new(op),
        )
        .map(|_| ())
    };
    let (decision, _) = tr.time("tuner.decide", op, Some(top), || {
        pool.with_tuner(|t| t.decide(&c.shape, &DEVICE, c.precision))
    });
    if decision.chosen != AlgoChoice::WinRs {
        let h = handle(pool, c.precision)
            .with_policy(FallbackPolicy::Force(decision.chosen.algorithm()));
        let (res, _) = tr.time("conv.substitute", op, Some(top), || {
            h.run(&c.shape, &c.x, &c.dy)
        });
        let (dw, _) = res.map_err(|e| format!("substitute: {e}"))?;
        return check(&dw);
    }
    let (plan, t_plan) = tr.time("pool.cached_plan", op, Some(top), || {
        pool.cached_plan(&c.shape, &DEVICE, c.precision)
    });
    let plan = plan.map_err(|e| format!("cached_plan: {e}"))?;
    parts.cached_plan_s.push(t_plan);
    let layout = plan.workspace_layout();
    let (lease, t_lease) = tr.time("pool.lease", op, Some(top), || pool.lease(layout));
    let mut lease = lease.map_err(|e| format!("lease: {e}"))?;
    parts.lease_s.push(t_lease);
    let mut dw = Tensor4::<f32>::zeros([c.shape.oc, c.shape.fh, c.shape.fw, c.shape.ic]);
    let ws = lease.workspace();
    let ExecCtx {
        buckets,
        scratch,
        health,
    } = ws.ctx(layout).map_err(|e| format!("workspace: {e}"))?;
    let sink = TimingSink::new();
    let mode = plan.tile_mode();
    let opts = ExecOptions {
        scratch: Some(&scratch),
        health: (c.precision != Precision::Fp32).then_some(health),
        timing: Some(&sink),
        ..Default::default()
    };
    let (res, t_exec) = tr.time("engine.execute_into_buckets", op, Some(top), || {
        plan.execute_into_buckets(&c.x, &c.dy, mode, buckets, opts)
    });
    res.map_err(|e| format!("execute_into_buckets: {e}"))?;
    tr.time("reduce.reduce_into", op, Some(top), || {
        plan.reduce_into(buckets, &mut dw)
    });
    let allocs = scratch.hot_loop_allocs();
    parts.hot_loop_allocs += allocs;
    parts.exec_s += t_exec;
    parts.exec_plan_flops += plan.flops() as f64;
    parts.ewmm_s += sink.ewmm_ns() as f64 * 1e-9;
    parts.busy_s += sink.busy_ns() as f64 * 1e-9;
    if allocs > 0 {
        return Err(format!("{allocs} hot-loop allocations"));
    }
    check(&dw)
}

/// One line per key: what the tuner chose, Z, the GFLOP of one op and,
/// given the key's op times, their median.
fn describe_keys(
    name: &str,
    cases: &[Case],
    op_s: &[Vec<f64>],
    pool: &Arc<WorkspacePool>,
    out: &mut Outcome,
) {
    for (i, c) in cases.iter().enumerate() {
        let p50 = op_s.get(i).map_or(String::new(), |t| {
            format!(" op_ms_p50={:.2}", stats::median(t) * 1e3)
        });
        let d = pool.with_tuner(|t| t.decide(&c.shape, &DEVICE, c.precision));
        let z = winrs_core::WinRsPlan::new(&c.shape, &DEVICE, c.precision)
            .map(|p| p.z())
            .ok();
        out.note(format!(
            "{name} key n={} {}x{} ic={} oc={} f={} {:?}: chosen={} z={} gflop={:.3}{p50}",
            c.shape.n,
            c.shape.ih,
            c.shape.iw,
            c.shape.ic,
            c.shape.oc,
            c.shape.fh,
            c.precision,
            d.chosen,
            z.map_or("-".to_string(), |z| z.to_string()),
            c.shape.bfc_flops() as f64 / 1e9
        ));
    }
}
