//! Phase-timing baseline: execute BFC on a fixed shape set and record the
//! measured per-phase cost breakdown (the data behind `winrs profile`).
//!
//! ```sh
//! cargo run --release -p winrs-bench --bin phase_baseline          # table
//! cargo run --release -p winrs-bench --bin phase_baseline -- --json
//! ```
//!
//! With `--json` the run is also written to `bench_results/phase_baseline.json`
//! (schema `winrs-bench-v1`), giving CI and future sessions a committed
//! baseline to diff phase regressions against. Absolute times depend on the
//! host; the *shape* of the breakdown (EWMM-dominated, small plan cost,
//! near-zero promote) is the stable signal.

use winrs_bench::json::{Json, SCHEMA};
use winrs_conv::ConvShape;
use winrs_core::{ExecHandle, Precision, WorkspacePool};
use winrs_gpu_sim::RTX_4090;
use winrs_tensor::Tensor4;

struct Case {
    name: &'static str,
    shape: ConvShape,
    precision: Precision,
}

const TRIPS: usize = 3;

fn cases() -> Vec<Case> {
    vec![
        Case {
            name: "small-f3-fp32",
            shape: ConvShape::square(1, 16, 4, 8, 3),
            precision: Precision::Fp32,
        },
        Case {
            name: "medium-f3-fp32",
            shape: ConvShape::square(2, 24, 8, 8, 3),
            precision: Precision::Fp32,
        },
        Case {
            name: "f5-fp32",
            shape: ConvShape::square(1, 20, 4, 4, 5),
            precision: Precision::Fp32,
        },
        Case {
            // F_W = 4 has no FP16 kernel: exercises the GEMM fallback path,
            // whose whole runtime is charged to the block-loop phase.
            name: "f4-fp16-gemm-fallback",
            shape: ConvShape::square(1, 12, 2, 2, 4),
            precision: Precision::Fp16,
        },
    ]
}

fn main() {
    let emit_json = std::env::args().any(|a| a == "--json");
    let device = RTX_4090;
    let mut rows = Vec::new();

    println!("Per-phase cost baseline ({TRIPS} trips each, last trip shown)\n");
    println!(
        "{:<22} {:<9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>7}",
        "case", "algo", "total ms", "plan ms", "loop ms", "EWMM ms", "reduce", "hits"
    );

    for case in cases() {
        let s = case.shape;
        let x = Tensor4::<f32>::random_uniform([s.n, s.ih, s.iw, s.ic], 42, 1.0);
        let dy_scale = if case.precision == Precision::Fp32 { 1.0 } else { 0.01 };
        let dy =
            Tensor4::<f32>::random_uniform([s.n, s.oh(), s.ow(), s.oc], 43, dy_scale);

        // A private pool per case, so every case starts with a cold cache.
        let handle = ExecHandle::new(WorkspacePool::with_slots(1), device, case.precision);
        let mut last = None;
        for _ in 0..TRIPS {
            match handle.run(&s, &x, &dy) {
                Ok((_dw, report)) => last = Some(report),
                Err(err) => {
                    eprintln!("{}: dispatch failed: {err}", case.name);
                    break;
                }
            }
        }
        let Some(report) = last else { continue };
        let t = &report.timing;
        let pool = report.pool.unwrap_or_default();
        println!(
            "{:<22} {:<9} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>4}h/{}m",
            case.name,
            report.algorithm.name(),
            t.total_s * 1e3,
            t.plan_s * 1e3,
            t.block_loop_s * 1e3,
            t.ewmm_s * 1e3,
            t.reduce_s * 1e3,
            pool.plan_hits,
            pool.plan_misses
        );

        rows.push(Json::obj(vec![
            ("case", Json::str(case.name)),
            (
                "shape",
                Json::obj(vec![
                    ("n", Json::Int(s.n as i64)),
                    ("res", Json::Int(s.ih as i64)),
                    ("ic", Json::Int(s.ic as i64)),
                    ("oc", Json::Int(s.oc as i64)),
                    ("f", Json::Int(s.fh as i64)),
                ]),
            ),
            ("precision", Json::str(&format!("{:?}", case.precision))),
            ("algorithm", Json::str(report.algorithm.name())),
            ("trips", Json::Int(TRIPS as i64)),
            ("total_ms", Json::Num(t.total_s * 1e3)),
            ("plan_ms", Json::Num(t.plan_s * 1e3)),
            ("block_loop_ms", Json::Num(t.block_loop_s * 1e3)),
            ("promote_ms", Json::Num(t.promote_s * 1e3)),
            ("reduce_ms", Json::Num(t.reduce_s * 1e3)),
            ("ft_ms", Json::Num(t.ft_s * 1e3)),
            ("it_ms", Json::Num(t.it_s * 1e3)),
            ("ewmm_ms", Json::Num(t.ewmm_s * 1e3)),
            ("ot_ms", Json::Num(t.ot_s * 1e3)),
            ("busy_ms", Json::Num(t.busy_s * 1e3)),
            ("blocks", Json::Int(t.blocks as i64)),
            ("workers", Json::Int(t.workers as i64)),
            ("utilisation", Json::Num(t.utilisation)),
            ("cache_hits", Json::Int(pool.plan_hits as i64)),
            ("cache_misses", Json::Int(pool.plan_misses as i64)),
        ]));
    }

    if emit_json {
        let doc = Json::obj(vec![
            ("schema", Json::str(SCHEMA)),
            ("benchmark", Json::str("phase_baseline")),
            ("device", Json::str(device.name)),
            ("results", Json::Arr(rows)),
        ]);
        let dir = std::path::Path::new("bench_results");
        if let Err(err) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {err}", dir.display());
            std::process::exit(1);
        }
        let path = dir.join("phase_baseline.json");
        match std::fs::write(&path, doc.to_document()) {
            Ok(()) => println!("\nwrote {}", path.display()),
            Err(err) => {
                eprintln!("cannot write {}: {err}", path.display());
                std::process::exit(1);
            }
        }
    }
}
