//! perfbench: the WinRS workspace's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <fig10_fp32|fsweep_mixed|serve_open>
//!           --seed <n> --seconds <s> --trace <0|1> [--vcpus 1]
//! ```
//!
//! The process confines itself to one vCPU before anything else runs,
//! sets up the workload (median of seven set-ups), measures for
//! `--seconds`, checks every result, and prints its notes, a host record
//! and, last, one JSON line with `correct`, `attempted`, `failed` and the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
//! See README.md beside this file.

mod bfc;
mod host;
mod http;
mod layers;
mod oracle;
mod report;
mod rng;
mod serve;
mod stats;
mod trace;
mod train;

use report::{Metric, Outcome};

const WORKLOADS: [&str; 3] = ["fig10_fp32", "fsweep_mixed", "serve_open"];

/// End-to-end metrics, printed on every workload with `--trace 0`.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("gflops", "GFLOP/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("steps_per_s", "1/s"),
];

/// Per-layer metrics, printed on every workload with `--trace 1`.
const PER_LAYER: [&str; 46] = [
    "micro.fma_peak_gflops",
    "micro.rank1_batch_gflops",
    "micro.rank1_batch_pct_peak",
    "micro.expand_axpy_gflops",
    "micro.gather_axpy_gflops",
    "micro.kernel_4x8_gflops",
    "host.stream_gbps",
    "host.speed_index",
    "host.steal_pct",
    "engine.exec_gflops",
    "engine.eff_gflops",
    "engine.share_pct",
    "engine.ewmm_pct",
    "sched.speedup_2w",
    "sched.spawn_us",
    "reduce.share_pct",
    "reduce.gbps_computed",
    "plan.new_ms_p50",
    "plan.ws_ratio",
    "plan.hot_loop_allocs",
    "tuner.decide_cold_us",
    "tuner.decide_warm_us",
    "tuner.regret",
    "tuner.choice_hit_pct",
    "tuner.pred_log_err",
    "pool.lease_us",
    "pool.cached_plan_us",
    "pool.plan_hit_pct",
    "pool.waits",
    "dispatch.overhead_us",
    "conv.gemm_bfc_gflops",
    "conv.direct_gflops",
    "conv.fft_gflops",
    "fp16.cvt_gelem_s",
    "serve.protocol_us",
    "serve.rtt_ms_p50",
    "serve.late_ms_max",
    "serve.coalesced_pct",
    "serve.rejected",
    "serve.plan_miss_pct",
    "nn.forward_pct",
    "nn.bfc_pct",
    "nn.bdc_pct",
    "nn.other_pct",
    "trace.overhead_pct",
    "trace.spans",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--vcpus" => {
                if value()? != "1" {
                    return Err("only --vcpus 1 is supported".into());
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (expected one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

fn main() {
    let process_start = host::Clocks::process_start();
    // Confine before any thread exists: every thread the library spawns
    // later inherits the one-vCPU mask.
    let conf = match host::Confinement::confine() {
        Ok(c) => c,
        Err(e) => fail(&format!("cannot confine to one vCPU: {e}")),
    };
    let args = parse_args().unwrap_or_else(|e| fail(&e));
    let jiffies0 = host::cpu_jiffies(conf.cpu);
    let mut out = Outcome::default();
    let mut tr = trace::Tracer::new();
    let nproc = conf.allowed.len();

    let spec = report::RunSpec {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.trace,
        process_start,
    };
    let mut speed = host::Speed::new();
    let ran = match args.workload.as_str() {
        "serve_open" => serve::run(&spec, nproc, &mut out, &mut tr, &mut speed),
        bfc_loop => {
            let keys = if bfc_loop == "fig10_fp32" {
                bfc::fig10_keys()
            } else {
                bfc::fsweep_keys()
            };
            bfc::run(bfc_loop, &keys, &spec, &mut out, &mut tr, &mut speed);
            Ok(())
        }
    };
    if let Err(e) = ran {
        fail(&e);
    }
    let peak_rss = speed
        .peak_rss_mib()
        .unwrap_or_else(|| fail("cannot read VmHWM and VmRSS"));

    if args.trace {
        if args.workload != "serve_open" {
            serve::probe(args.seed, &mut out).unwrap_or_else(|e| fail(&e));
        }
        train::probe(args.seed, &mut out);
        serve::protocol_probe(&mut out);
        layers::fp16_probe(&mut out);
        layers::sched_probe(&conf, bfc::DEVICE, &mut out);
    }
    let record = host::HostRecord {
        cpu: conf.cpu,
        nproc,
        simd: winrs_gemm::micro::detected_width().name(),
        features: host::build_features(),
        fma_gflops: speed.fma_gflops(),
        triad_gbps: speed.triad_gbps(),
        bursts: speed.bursts(),
        index: speed.index(),
        steal_pct: host::steal_pct(jiffies0, host::cpu_jiffies(conf.cpu)),
    };

    let metrics = if args.trace {
        layers::micro_probe(speed.fma_peak_gflops(), &mut out);
        out.layer("host.stream_gbps", record.triad_gbps, "GB/s");
        out.layer("host.speed_index", record.index, "ratio");
        out.layer("host.steal_pct", record.steal_pct, "%");
        out.layer("trace.spans", tr.len() as f64, "count");
        let path = std::path::Path::new(".bench_trace")
            .join(format!("{}-seed{}.tsv", args.workload, args.seed));
        match tr.write(&path) {
            Ok(()) => out.note(format!("spans written to {}", path.display())),
            Err(e) => out.note(format!("spans not written: {e}")),
        }
        per_layer(&out)
    } else {
        end_to_end(&out, peak_rss, record.index)
    };

    for line in &out.notes {
        println!("{line}");
    }
    println!("{}", record.line());
    let failed_pct = 100.0 * out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "ops: attempted={} failed={} failed_pct={failed_pct:.3}% samples={} timed={:.3}s wall={:.3}s oracle_worst={:.1}u",
        out.attempted,
        out.failed,
        out.op_s.len(),
        out.timed_s,
        out.timed_wall_s,
        out.oracle_worst
    );
    let metrics = metrics.unwrap_or_else(|e| fail(&e));
    for m in &metrics {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    if out.attempted == 0 {
        fail("no op was attempted");
    }
    match report::result_line(out.failed == 0, out.attempted, out.failed, &metrics) {
        Ok(line) => println!("{line}"),
        Err(e) => fail(&e),
    }
}

/// The end-to-end metrics at the reference host: in every measured time
/// the CPU part is rescaled by the speed index `h` and any wait is kept,
/// so `t` holding CPU time `c` counts as `t − (1 − h)·c`. Closed-loop ops
/// and set-ups are all CPU time (`h·t`); a `serve_open` request keeps its
/// waits and loses the mean CPU time per request scaled.
fn end_to_end(out: &Outcome, peak_rss: f64, h: f64) -> Result<Vec<Metric>, String> {
    let at_ref = |t: f64, cpu: f64| t - (1.0 - h) * cpu.min(t);
    let ops = |xs: &[f64]| -> Vec<f64> {
        xs.iter()
            .map(|&t| at_ref(t, out.op_cpu_s.unwrap_or(t)))
            .collect()
    };
    let pct = |xs: &[f64], p: f64| {
        stats::percentile(&ops(xs), p)
            .map(|v| v * 1e3)
            .ok_or_else(|| {
                format!(
                    "{} ok ops: too few for p{:.0} (needs {})",
                    xs.len(),
                    p * 100.0,
                    stats::samples_needed(p)
                )
            })
    };
    if out.timed_s <= 0.0 || !h.is_finite() || h <= 0.0 {
        return Err(format!(
            "nothing was timed ({} s) or no host speed index ({h})",
            out.timed_s
        ));
    }
    let timed = at_ref(out.timed_s, out.timed_cpu_s);
    let values = [
        h * out.setup_s,
        peak_rss,
        out.flops / timed / 1e9,
        pct(out.p50_s.as_deref().unwrap_or(&out.op_s), 0.5)?,
        pct(&out.op_s, 0.9)?,
        out.ok() as f64 / timed,
    ];
    Ok(END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric {
            name: name.to_string(),
            value,
            unit,
        })
        .collect())
}

/// The traced run's metrics in the declared order; a missing or extra
/// name is a bug in the benchmark.
fn per_layer(out: &Outcome) -> Result<Vec<Metric>, String> {
    let mut metrics = Vec::with_capacity(PER_LAYER.len());
    for name in PER_LAYER {
        let found: Vec<usize> = (0..out.layer.len())
            .filter(|&i| out.layer[i].name == name)
            .collect();
        if found.len() != 1 {
            return Err(format!(
                "per-layer metric {name} was recorded {} times",
                found.len()
            ));
        }
        let m = &out.layer[found[0]];
        metrics.push(Metric {
            name: m.name.clone(),
            value: m.value,
            unit: m.unit,
        });
    }
    if let Some(extra) = out
        .layer
        .iter()
        .find(|m| !PER_LAYER.contains(&m.name.as_str()))
    {
        return Err(format!("undeclared per-layer metric {}", extra.name));
    }
    Ok(metrics)
}

fn fail(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn value(metrics: &[Metric], name: &str) -> f64 {
        metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
            .expect("metric present")
    }

    #[test]
    fn the_speed_index_rescales_cpu_time_and_keeps_waits() {
        let close = |m: &[Metric], name, want: f64| {
            let got = value(m, name);
            assert!(
                (got - want).abs() < 1e-9 * want,
                "{name} = {got}, want {want}"
            );
        };
        // A closed loop: 100 ops of 10 ms CPU each, 10 GFLOP, 1 s set-up.
        let mut out = Outcome {
            attempted: 100,
            setup_s: 1.0,
            op_s: vec![0.010; 100],
            timed_s: 1.0,
            timed_cpu_s: 1.0,
            flops: 1e10,
            ..Outcome::default()
        };
        let m = end_to_end(&out, 50.0, 0.5).expect("enough samples for p90");
        close(&m, "setup_s", 0.5);
        close(&m, "op_ms_p50", 5.0);
        close(&m, "op_ms_p90", 5.0);
        close(&m, "gflops", 20.0);
        close(&m, "steps_per_s", 200.0);
        close(&m, "peak_rss_mib", 50.0);
        // Requests of 10 ms wall holding 2 ms CPU each: only the CPU part
        // is rescaled.
        out.op_cpu_s = Some(0.002);
        let m = end_to_end(&out, 50.0, 0.5).expect("enough samples for p90");
        close(&m, "op_ms_p50", 9.0);
        // At index 1 nothing changes.
        let m = end_to_end(&out, 50.0, 1.0).expect("enough samples for p90");
        close(&m, "op_ms_p50", 10.0);
        assert!(end_to_end(&out, 50.0, 0.0).is_err());
    }
}
