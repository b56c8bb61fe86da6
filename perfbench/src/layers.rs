//! Per-layer probes of the traced run: the micro-kernels against the
//! same-run FMA peak, the block scheduler on both vCPUs, FP16 conversion,
//! plan construction, tuner decisions and the tuner-regret baseline.

use crate::bfc::{handle, Case};
use crate::host::Confinement;
use crate::report::Outcome;
use crate::rng::Rng;
use crate::stats;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;
use winrs_conv::ConvShape;
use winrs_core::engine::{cache_block, sched, ExecOptions, TileMode};
use winrs_core::{
    AlgoChoice, ExecCtx, FallbackPolicy, Precision, Tuner, TunerConfig, WinRsPlan, Workspace,
    WorkspacePool,
};
use winrs_fp16::f16;
use winrs_gemm::micro;
use winrs_gpu_sim::DeviceSpec;
use winrs_tensor::Tensor4;

/// Calls of `f` repeated for at least `min_s`; returns seconds per call
/// (best of three such batches).
fn per_call(min_s: f64, mut f: impl FnMut()) -> f64 {
    (0..3)
        .map(|_| {
            let t = Instant::now();
            let mut calls = 0u64;
            while t.elapsed().as_secs_f64() < min_s / 3.0 {
                for _ in 0..64 {
                    f();
                }
                calls += 64;
            }
            t.elapsed().as_secs_f64() / calls as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// The micro-kernels at the engine's FP32 cache-block size, as GFLOP/s
/// and (rank1_batch) as a share of the same-run FMA peak.
pub fn micro_probe(fma_peak_gflops: f64, out: &mut Outcome) {
    let mut r = Rng::new(99);
    // One β-batch of the EWMM: α = 8 planes of one FP32 cache block.
    let alpha = 8usize;
    let (bn, bm) = cache_block(TileMode::Fp32, alpha);
    let g = r.signed_vec(alpha * bn);
    let d = r.signed_vec(alpha * bm);
    let mut acc = vec![0.0f32; alpha * bn * bm];
    let s = per_call(0.15, || {
        micro::rank1_batch(std::hint::black_box(&mut acc), &g, &d, alpha)
    });
    let rank1 = (2 * alpha * bn * bm) as f64 / s / 1e9;
    out.layer("micro.fma_peak_gflops", fma_peak_gflops, "GFLOP/s");
    out.layer("micro.rank1_batch_gflops", rank1, "GFLOP/s");
    out.layer(
        "micro.rank1_batch_pct_peak",
        100.0 * rank1 / fma_peak_gflops,
        "%",
    );

    let (k, w) = (alpha, bm);
    let coeffs = r.signed_vec(k * 4);
    let src = r.signed_vec(w);
    let mut dst = vec![0.0f32; k * w];
    let s = per_call(0.1, || {
        micro::expand_axpy(std::hint::black_box(&mut dst), &coeffs, 4, &src)
    });
    out.layer(
        "micro.expand_axpy_gflops",
        (2 * k * w) as f64 / s / 1e9,
        "GFLOP/s",
    );

    let planes = r.signed_vec(k * w);
    let mut row = vec![0.0f32; w];
    let gc = r.signed_vec(k);
    let s = per_call(0.1, || {
        micro::gather_axpy(std::hint::black_box(&mut row), &gc, &planes, w)
    });
    out.layer(
        "micro.gather_axpy_gflops",
        (2 * k * w) as f64 / s / 1e9,
        "GFLOP/s",
    );

    let kc = 256usize;
    let a = r.signed_vec(4 * kc);
    let b = r.signed_vec(kc * 8);
    let mut c = vec![0.0f32; 4 * 8];
    let s = per_call(0.1, || {
        micro::micro_kernel_4x8(kc, 1.0, &a, kc, &b, 8, std::hint::black_box(&mut c), 8)
    });
    out.layer(
        "micro.kernel_4x8_gflops",
        (2 * 4 * 8 * kc) as f64 / s / 1e9,
        "GFLOP/s",
    );
}

/// The block scheduler with both vCPUs: engine speed-up from one to two
/// workers on one fig10 shape, and the cost of one two-worker
/// `run_tasks` call with empty tasks.
pub fn sched_probe(conf: &Confinement, device: DeviceSpec, out: &mut Outcome) {
    let probe = || -> Option<(f64, f64)> {
        let shape = ConvShape::square(1, 56, 128, 128, 3);
        let plan = WinRsPlan::new(&shape, &device, Precision::Fp32).ok()?;
        let mut r = Rng::new(5);
        let x = Tensor4::from_vec([1, 56, 56, 128], r.signed_vec(shape.x_elems()));
        let dy = Tensor4::from_vec(
            [1, shape.oh(), shape.ow(), 128],
            r.signed_vec(shape.dy_elems()),
        );
        let layout = plan.workspace_layout();
        let mut ws = Workspace::for_layout(layout);
        let mut time_with = |workers: usize| -> Option<f64> {
            let mut best = f64::INFINITY;
            for _ in 0..3 {
                let ExecCtx {
                    buckets, scratch, ..
                } = ws.ctx(layout).ok()?;
                let opts = ExecOptions {
                    scratch: Some(&scratch),
                    workers: Some(workers),
                    ..Default::default()
                };
                let t = Instant::now();
                plan.execute_into_buckets(&x, &dy, plan.tile_mode(), buckets, opts)
                    .ok()?;
                best = best.min(t.elapsed().as_secs_f64());
            }
            Some(best)
        };
        let one = time_with(1)?;
        let two = time_with(2)?;
        let spawn: Vec<f64> = (0..200)
            .map(|_| {
                let t = Instant::now();
                sched::run_tasks(vec![(), ()], 2, |_, ()| {});
                t.elapsed().as_secs_f64()
            })
            .collect();
        Some((one / two, stats::median(&spawn)))
    };
    let (speedup, spawn_s) = conf.widened(probe).ok().flatten().unwrap_or((0.0, 0.0));
    out.layer("sched.speedup_2w", speedup, "x");
    out.layer("sched.spawn_us", spawn_s * 1e6, "us");
}

/// f32 → binary16 → f32 round trips, G elements per second.
pub fn fp16_probe(out: &mut Outcome) {
    let src = Rng::new(7).signed_vec(1 << 16);
    let mut dst = vec![0.0f32; src.len()];
    let s = per_call(0.1, || {
        for (d, &v) in dst.iter_mut().zip(&src) {
            *d = f16::from_f32(v).to_f32();
        }
        std::hint::black_box(&mut dst);
    });
    out.layer("fp16.cvt_gelem_s", src.len() as f64 / s / 1e9, "Gelem/s");
}

/// Cold plan construction and tuner decisions on the workload's keys,
/// repeated to at least 20 samples each so their medians are reportable.
pub fn plan_and_tuner_probe(
    keys: &[(ConvShape, Precision)],
    device: DeviceSpec,
    out: &mut Outcome,
) {
    let reps = 20usize.div_ceil(keys.len().max(1)).max(1);
    let (mut plan_s, mut cold, mut warm) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..reps {
        for (s, p) in keys {
            let t = Instant::now();
            let plan = WinRsPlan::new(s, &device, *p);
            let dt = t.elapsed().as_secs_f64();
            if plan.is_ok() {
                plan_s.push(dt);
            }
            let mut tuner = Tuner::new(TunerConfig::default());
            let t = Instant::now();
            std::hint::black_box(tuner.decide(s, &device, *p));
            cold.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            std::hint::black_box(tuner.decide(s, &device, *p));
            warm.push(t.elapsed().as_secs_f64());
        }
    }
    out.layer("plan.new_ms_p50", stats::median(&plan_s) * 1e3, "ms");
    out.layer("tuner.decide_cold_us", stats::median(&cold) * 1e6, "us");
    out.layer("tuner.decide_warm_us", stats::median(&warm) * 1e6, "us");
}

/// Candidates predicted to run longer than this are not timed unless
/// the tuner chose them (they cannot be the fastest).
const CANDIDATE_CAP_S: f64 = 0.3;

/// The tuner-regret baseline: every candidate the tuner ranks, timed with
/// `FallbackPolicy::Force` (WinRS itself under `Strict`).
#[derive(Default)]
pub struct Regret {
    chosen_s: f64,
    fastest_s: f64,
    hits: usize,
    keys: usize,
    skipped: usize,
    log_err: Vec<f64>,
    per_algo: BTreeMap<&'static str, (f64, f64)>,
}

impl Regret {
    pub fn summary(&self) -> String {
        let algos: Vec<String> = self
            .per_algo
            .iter()
            .map(|(a, (fl, s))| format!("{a}={:.2}GFLOP/s", fl / s / 1e9))
            .collect();
        format!(
            "{} keys, chosen = fastest on {}, Σchosen {:.1} ms vs Σfastest {:.1} ms, {} slow candidates not timed; {}",
            self.keys,
            self.hits,
            self.chosen_s * 1e3,
            self.fastest_s * 1e3,
            self.skipped,
            algos.join(" ")
        )
    }

    pub fn emit(&self, out: &mut Outcome) {
        out.layer(
            "tuner.regret",
            stats::ratio(self.chosen_s, self.fastest_s, 1.0),
            "ratio",
        );
        out.layer(
            "tuner.choice_hit_pct",
            stats::ratio(100.0 * self.hits as f64, self.keys as f64, 100.0),
            "%",
        );
        out.layer("tuner.pred_log_err", stats::median(&self.log_err), "ln");
        for (algo, metric) in [
            ("gemm-bfc", "conv.gemm_bfc_gflops"),
            ("direct", "conv.direct_gflops"),
            ("fft-bfc", "conv.fft_gflops"),
        ] {
            let v = self.per_algo.get(algo).map_or(0.0, |(fl, s)| fl / s / 1e9);
            out.layer(metric, v, "GFLOP/s");
        }
    }
}

pub fn regret_probe(cases: &[Case], pool: &Arc<WorkspacePool>, device: DeviceSpec) -> Regret {
    let mut reg = Regret::default();
    let mut idx: Vec<usize> = (0..cases.len()).collect();
    idx.sort_by_key(|&i| cases[i].shape.bfc_flops());
    for i in idx {
        let c = &cases[i];
        let flops = c.shape.bfc_flops() as f64;
        let decision = pool.with_tuner(|t| t.decide(&c.shape, &device, c.precision));
        let mut measured: Vec<(AlgoChoice, f64, f64)> = Vec::new();
        for cand in &decision.ranked {
            let rate = reg.per_algo.get(cand.algo.name()).map(|(fl, s)| fl / s);
            if cand.algo != decision.chosen && rate.is_some_and(|r| flops / r > CANDIDATE_CAP_S) {
                reg.skipped += 1;
                continue;
            }
            let policy = match cand.algo {
                AlgoChoice::WinRs => FallbackPolicy::Strict,
                other => FallbackPolicy::Force(other.algorithm()),
            };
            let h = handle(pool, c.precision).with_policy(policy);
            let t = Instant::now();
            let ok = h.run(&c.shape, &c.x, &c.dy).is_ok();
            let dt = t.elapsed().as_secs_f64();
            if ok {
                measured.push((cand.algo, dt, cand.predicted_s));
                let e = reg.per_algo.entry(cand.algo.name()).or_insert((0.0, 0.0));
                e.0 += flops;
                e.1 += dt;
            }
        }
        let Some(&(best_algo, best_s, _)) = measured.iter().min_by(|a, b| a.1.total_cmp(&b.1))
        else {
            continue;
        };
        let Some(&(_, chosen_s, _)) = measured.iter().find(|m| m.0 == decision.chosen) else {
            continue;
        };
        reg.keys += 1;
        reg.chosen_s += chosen_s;
        reg.fastest_s += best_s;
        if best_algo == decision.chosen {
            reg.hits += 1;
        }
        // Ranking error relative to WinRS: the model's time ratio against
        // the measured one, on a log scale.
        if let Some(&(_, w_s, w_pred)) = measured.iter().find(|m| m.0 == AlgoChoice::WinRs) {
            for &(a, s, pred) in &measured {
                if a != AlgoChoice::WinRs && pred > 0.0 && w_pred > 0.0 {
                    reg.log_err
                        .push(((pred / w_pred).ln() - (s / w_s).ln()).abs());
                }
            }
        }
    }
    reg
}
