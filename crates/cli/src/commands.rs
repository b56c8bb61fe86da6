//! Subcommand implementations. Every command returns its output as a
//! `String` so the logic is unit-testable without capturing stdout.

use crate::args::Flags;
use std::fmt::{self, Write as _};
use std::sync::Arc;
use std::time::{Duration, Instant};
use winrs_bench::json::{Json, SCHEMA};
use winrs_bench::{accuracy_sweep, throughput_dims};
use winrs_conv::{direct, ConvShape};
use winrs_core::engine::sched;
use winrs_core::fallback::{Algorithm, FallbackPolicy, NumericGuard};
use winrs_core::metrics::time_block_loop;
use winrs_core::pool::{ExecHandle, PoolConfig, WorkspacePool};
use winrs_core::tuner::{ChoiceSource, TuneDb, TunedEntry, TunerConfig, TunerDecision};
use winrs_core::{Precision, TimingSink, WinRsPlan, WinrsError, TUNE_DB_SCHEMA};
use winrs_gemm::micro::FORCE_WIDTH_ENV;
use winrs_gpu_sim::{DeviceSpec, A5000, L40S, RTX_3090, RTX_4090};
use winrs_tensor::{mare, Tensor4};
use winrs_winograd::kernels::WINRS_KERNELS;

/// Top-level usage text.
pub const USAGE: &str = "\
usage: winrs <command> [flags]

commands:
  plan     print the adaptive configuration for a layer
           --n N --res R --ic C --oc C --f F [--pad P] [--device NAME] [--fp16|--bf16]
  verify   execute BFC on random tensors, report MARE vs f64 direct conv
           (dispatched through a leasing workspace pool with panic
           isolation; pool counters are printed with the report)
           --n N --res R --ic C --oc C --f F [--pad P] [--fp16|--bf16] [--seed S]
           [--fallback-policy strict|auto|force-winrs|force-gemm|force-fft|force-direct]
           [--numeric-guard ignore|warn|promote-retry]
           [--pool-slots K] [--deadline-ms MS]  (0 = no deadline)
           [--fault-seed N]  (arm the seeded chaos campaign N, print the
                              fired injection sites and the contained outcome)
  cost     modelled time / throughput / workspace on a device
           --n N --res R --ic C --oc C --f F [--pad P] [--device NAME] [--fp16]
  profile  execute BFC and print the measured per-phase cost breakdown
           (wall phases plus the FT/IT/EWMM/OT busy split)
           --n N --res R --ic C --oc C --f F [--pad P] [--device NAME]
           [--fp16|--bf16] [--trips T] [--seed S]
           [--compare BASELINE.json]  (diff vs a winrs-bench-v1 phase file)
           [--fallback-policy strict|auto|force-winrs|force-gemm|force-fft|force-direct]
           [--numeric-guard ignore|warn|promote-retry]
  workspace  print the execution arena layout next to the paper's
             (Z-1)*|gradW| workspace formula
             --n N --res R --ic C --oc C --f F [--pad P] [--device NAME] [--fp16|--bf16]
  kernels  list the 13-kernel inventory
  devices  list the modelled GPUs
  simd     report the micro-kernel width family: per-width availability on
           this host (avx2 needs the avx2, fma and f16c CPU features;
           avx512 needs avx512f on top), the detected (widest) width, and
           any active pin
  tune     rank WinRS against GEMM-BFC / FFT-BFC / direct with the host
           cost model (Eq. 8 with this host's constants at the detected
           SIMD width), print the decision table, and persist winners to
           a winrs-tune-v1 tuning database (--device builds the plan and
           keys the database; it prices nothing)
           --shapes fig10|fig11|small  (or one explicit --n/--res/--ic/--oc/--f shape)
           [--device NAME] [--fp16|--bf16]  (fig11 defaults to fp16)
           [--db PATH]      read + write the tuning database at PATH
           [--dry-run]      rank only, never write the database
           [--measure K]    time every ranked candidate K times after one
                            warm-up and store the fastest (CPU execution;
                            oversized shapes are skipped and reported); a
                            closing line gives choice = fastest (h of n),
                            the regret and the median |ln(pred/meas)|
           [--inspect]      print the entries of --db and exit
  serve    run the batched BFC HTTP/JSON service (POST /v1/bfc,
           GET /healthz, GET /v1/stats); same-shape jobs arriving within
           the coalescing window share one plan fetch + workspace lease,
           and a full admission queue answers 429 + Retry-After
           [--port P]       bind port (default 8077; 0 = ephemeral)
           [--bind ADDR]    bind address (default 127.0.0.1)
           [--addr-file F]  write the bound host:port to F once listening
           [--max-jobs N]   serve N jobs, then shut down cleanly (0 = run
                            until killed; the CI smoke test relies on this)
           [--window-ms MS] coalescing window (default 2)
           [--queue-cap K]  max queued jobs before 429 (default 256)
           [--pool-slots K] private workspace pool with K slots
                            (default 0 = share the process-global pool)
           [--device NAME]
  loadgen  drive a running `winrs serve` with a closed loop of same-shape
           jobs and print the latency percentiles + histogram and the
           server's coalescing counters
           [--addr HOST:PORT]  (default 127.0.0.1:8077)
           [--jobs N] [--concurrency C]  (defaults 64 / 8)
           [--n N --res R --ic C --oc C --f F [--pad P]]  (default fig10
                            small layer: n2 16x16 ic8 oc8 f3)
           [--deadline-ms MS] [--out PATH]  (also write the report to PATH)

devices: 4090 (default), 3090, l40s, a5000
global : --force-width scalar|avx2|avx512  pin the micro-kernel SIMD
         width for this invocation (same contract as WINRS_FORCE_WIDTH,
         which must be unset or equal; unavailable widths are a hard
         error, never a silent fallback)";

/// Dispatch `argv` (without the program name) to a subcommand.
pub fn dispatch(argv: &[String]) -> Result<String, String> {
    let Some((cmd, rest)) = argv.split_first() else {
        return Err("no command given".into());
    };
    let flags = Flags::parse(rest)?;
    // Global width pin, so `winrs profile`/`verify` can measure a specific
    // kernel family member. Unavailable widths are a hard error here
    // (never a silent fallback).
    let env = std::env::var(FORCE_WIDTH_ENV).ok();
    if let Some(token) = width_pin(flags.opt_str("force-width"), env.as_deref())
        .map_err(|e| e.to_string())?
    {
        let w = winrs_core::engine::request_width(token).map_err(|v| v.to_string())?;
        eprintln!("winrs: pinned SIMD width to {w}");
    }
    match cmd.as_str() {
        "plan" => cmd_plan(&flags),
        "verify" => cmd_verify(&flags),
        "cost" => cmd_cost(&flags),
        "profile" => cmd_profile(&flags),
        "workspace" => cmd_workspace(&flags),
        "kernels" => Ok(cmd_kernels()),
        "devices" => Ok(cmd_devices()),
        "simd" => Ok(cmd_simd()),
        "tune" => cmd_tune(&flags),
        "serve" => cmd_serve(&flags),
        "loadgen" => cmd_loadgen(&flags),
        "help" | "--help" | "-h" => Ok(format!("{USAGE}\n")),
        other => Err(format!("unknown command '{other}'")),
    }
}

/// `--force-width` and `WINRS_FORCE_WIDTH` name different widths.
#[derive(Debug, PartialEq)]
struct WidthPinConflict<'a> {
    flag: &'a str,
    env: &'a str,
}

impl fmt::Display for WidthPinConflict<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "--force-width {} conflicts with {FORCE_WIDTH_ENV}={} (the engine \
             re-applies the environment pin on every dispatch); unset one or \
             make them equal",
            self.flag, self.env
        )
    }
}

/// The one width token this invocation pins, from the `--force-width`
/// flag and the `WINRS_FORCE_WIDTH` value (empty means unset, as in the
/// engine): either alone pins, equal tokens pin, and different tokens are
/// refused, since the engine would re-apply the environment's on every
/// dispatch and silently override the flag.
fn width_pin<'a>(
    flag: Option<&'a str>,
    env: Option<&'a str>,
) -> Result<Option<&'a str>, WidthPinConflict<'a>> {
    match (flag, env.filter(|e| !e.is_empty())) {
        (Some(flag), Some(env)) if flag != env => Err(WidthPinConflict { flag, env }),
        (flag, env) => Ok(flag.or(env)),
    }
}

fn device_by_name(name: Option<&str>) -> Result<DeviceSpec, String> {
    match name.unwrap_or("4090").to_ascii_lowercase().as_str() {
        "4090" | "rtx4090" => Ok(RTX_4090),
        "3090" | "rtx3090" => Ok(RTX_3090),
        "l40s" => Ok(L40S),
        "a5000" => Ok(A5000),
        other => Err(format!("unknown device '{other}' (4090/3090/l40s/a5000)")),
    }
}

fn shape_from(flags: &Flags) -> Result<ConvShape, String> {
    let n = flags.req_usize("n")?;
    let res = flags.req_usize("res")?;
    let ic = flags.req_usize("ic")?;
    let oc = flags.req_usize("oc")?;
    let f = flags.req_usize("f")?;
    let pad = flags.opt_usize("pad", f / 2)?;
    if res <= f {
        return Err(format!("--res {res} must exceed --f {f}"));
    }
    // `try_new` reports *every* violated invariant at once (zero dims,
    // filter outside the padded input, …) instead of panicking on the first.
    ConvShape::try_new(n, res, res, ic, oc, f, f, pad, pad).map_err(|e| e.to_string())
}

fn fallback_policy_from(flags: &Flags) -> Result<FallbackPolicy, String> {
    match flags.opt_str("fallback-policy") {
        None => Ok(FallbackPolicy::default()),
        Some(raw) => raw.parse(),
    }
}

fn numeric_guard_from(flags: &Flags) -> Result<NumericGuard, String> {
    match flags.opt_str("numeric-guard") {
        None => Ok(NumericGuard::default()),
        Some(raw) => raw.parse(),
    }
}

fn precision_from(flags: &Flags) -> Precision {
    if flags.has("fp16") {
        Precision::Fp16
    } else if flags.has("bf16") {
        Precision::Bf16
    } else {
        Precision::Fp32
    }
}

fn cmd_plan(flags: &Flags) -> Result<String, String> {
    let shape = shape_from(flags)?;
    let device = device_by_name(flags.opt_str("device"))?;
    let precision = precision_from(flags);
    let plan = WinRsPlan::new(&shape, &device, precision).map_err(|e| e.to_string())?;
    let c = plan.segment_count_plan();

    let mut out = String::new();
    let _ = writeln!(out, "shape        : {shape:?}");
    let _ = writeln!(out, "device       : {} ({} SMs)", device.name, device.n_sm);
    let _ = writeln!(out, "precision    : {precision:?}");
    let _ = writeln!(out, "kernel pair  : {:?}", plan.pair());
    let _ = writeln!(
        out,
        "block counts : FC {} / BDC {} / BFC(unsegmented) {}",
        c.b0, c.b1, c.b2
    );
    let _ = writeln!(
        out,
        "segments     : Z = {} ({} segments incl. residuals)",
        plan.z(),
        plan.partition().segments.len()
    );
    let _ = writeln!(
        out,
        "workspace    : {} bytes ({:.3}x data size)",
        plan.workspace_bytes(),
        plan.workspace_bytes() as f64 / shape.data_bytes(precision.elem_bytes()) as f64
    );
    let _ = writeln!(
        out,
        "FLOP cut     : {:.2}x over direct",
        plan.flop_reduction()
    );
    Ok(out)
}

/// `--deadline-ms MS` (0 or absent = no deadline).
fn deadline_from(flags: &Flags) -> Result<Option<Duration>, String> {
    let ms = flags.opt_usize("deadline-ms", 0)?;
    Ok((ms > 0).then(|| Duration::from_millis(ms as u64)))
}

/// `--fault-seed N` parsed as the campaign seed.
fn fault_seed_from(flags: &Flags) -> Result<Option<u64>, String> {
    match flags.opt_str("fault-seed") {
        None => Ok(None),
        Some(raw) => raw
            .parse()
            .map(Some)
            .map_err(|_| format!("--fault-seed expects a u64 seed, got '{raw}'")),
    }
}

fn cmd_verify(flags: &Flags) -> Result<String, String> {
    let shape = shape_from(flags)?;
    let seed = flags.opt_usize("seed", 42)? as u64;
    let precision = precision_from(flags);
    let device = device_by_name(flags.opt_str("device"))?;
    let policy = fallback_policy_from(flags)?;
    let guard = numeric_guard_from(flags)?;
    let slots = flags.opt_usize("pool-slots", PoolConfig::default().slots)?;
    let deadline = deadline_from(flags)?;
    let fault_seed = fault_seed_from(flags)?;
    #[cfg(not(feature = "faults"))]
    if fault_seed.is_some() {
        return Err("--fault-seed requires a build with the 'faults' feature".into());
    }
    if shape.x_elems() > 4_000_000 {
        return Err("verify executes on the CPU: keep N*res^2*C under 4e6 elements".into());
    }

    let x = Tensor4::<f64>::random_uniform([shape.n, shape.ih, shape.iw, shape.ic], seed, 1.0);
    let dy_scale = if precision == Precision::Fp32 {
        1.0
    } else {
        0.01
    };
    let dy = Tensor4::<f64>::random_uniform(
        [shape.n, shape.oh(), shape.ow(), shape.oc],
        seed + 1,
        dy_scale,
    );
    let exact = direct::bfc_direct(&shape, &x, &dy);

    // Dispatch through the resilient pooled path: the workspace is leased
    // from a (private) pool, the fused loop runs under panic isolation,
    // out-of-envelope problems and runtime failures degrade to GEMM-BFC
    // or direct (per --fallback-policy) instead of failing, and the
    // numeric guard accounts for reduced-precision overflow.
    let pool = WorkspacePool::new(PoolConfig {
        slots,
        ..PoolConfig::default()
    });
    let handle = ExecHandle::new(Arc::clone(&pool), device, precision)
        .with_policy(policy)
        .with_guard(guard)
        .with_deadline(deadline);

    let mut out = String::new();
    let _ = writeln!(out, "shape     : {shape:?}");

    #[cfg(feature = "faults")]
    let campaign = fault_seed.map(winrs_core::faults::campaign);
    #[cfg(feature = "faults")]
    if let Some(c) = &campaign {
        let _ = writeln!(out, "campaign  : {c}");
        c.arm();
    }

    let result = handle.run(&shape, &x.cast(), &dy.cast());

    #[cfg(feature = "faults")]
    if campaign.is_some() {
        let fired = winrs_core::faults::fired_sites();
        let names: Vec<String> = fired.iter().map(|s| s.to_string()).collect();
        let _ = writeln!(out, "fired     : [{}]", names.join(", "));
        winrs_core::faults::disarm_sites();
        winrs_core::faults::disarm();
    }

    let stats = pool.stats();
    match result {
        Ok((dw, report)) => {
            let m = mare(&dw, &exact);
            let verdict = match precision {
                Precision::Fp32 => m < 1e-4,
                Precision::Fp16 => m < 1e-1,
                Precision::Bf16 => m < 2e-1,
            } && !report.tainted();
            let _ = writeln!(out, "report    : {}", report.summary_line());
            let _ = writeln!(out, "pool      : {stats}");
            let _ = writeln!(out, "MARE      : {m:.3e} vs f64 direct convolution");
            let _ = writeln!(
                out,
                "verdict   : {}",
                if verdict { "OK" } else { "SUSPECT" }
            );
            if verdict {
                Ok(out)
            } else {
                Err(format!("verification failed:\n{out}"))
            }
        }
        // Under an armed campaign a typed error is a *contained* outcome —
        // the injected failure surfaced as a WinrsError instead of a
        // crash, and the pool is verifiably clean afterwards.
        Err(err) if fault_seed.is_some() => {
            let _ = writeln!(out, "outcome   : typed error (contained): {err}");
            let _ = writeln!(out, "pool      : {stats}");
            let clean = stats.in_use == 0 && stats.poisonings == stats.rebuilds;
            let _ = writeln!(
                out,
                "verdict   : {}",
                if clean { "OK" } else { "SUSPECT" }
            );
            if clean {
                Ok(out)
            } else {
                Err(format!("pool left dirty after contained failure:\n{out}"))
            }
        }
        Err(err) => Err(err.to_string()),
    }
}

fn cmd_cost(flags: &Flags) -> Result<String, String> {
    let shape = shape_from(flags)?;
    let device = device_by_name(flags.opt_str("device"))?;
    let precision = precision_from(flags);
    let plan = WinRsPlan::new(&shape, &device, precision).map_err(|e| e.to_string())?;
    let t = plan.estimated_time();
    let mut out = String::new();
    let _ = writeln!(out, "shape      : {shape:?}");
    let _ = writeln!(out, "device     : {}", device.name);
    let _ = writeln!(out, "time       : {:.4} ms (modelled)", t * 1e3);
    let _ = writeln!(
        out,
        "throughput : {:.1} TFLOPS effective",
        plan.estimated_tflops()
    );
    let _ = writeln!(
        out,
        "workspace  : {:.2} MB",
        plan.workspace_bytes() as f64 / 1e6
    );
    Ok(out)
}

fn cmd_profile(flags: &Flags) -> Result<String, String> {
    let shape = shape_from(flags)?;
    let device = device_by_name(flags.opt_str("device"))?;
    let precision = precision_from(flags);
    let policy = fallback_policy_from(flags)?;
    let guard = numeric_guard_from(flags)?;
    let trips = flags.opt_usize("trips", 3)?;
    let seed = flags.opt_usize("seed", 42)? as u64;
    if trips == 0 {
        return Err("--trips must be at least 1".into());
    }
    if shape.x_elems() > 4_000_000 {
        return Err("profile executes on the CPU: keep N*res^2*C under 4e6 elements".into());
    }

    let x = Tensor4::<f32>::random_uniform([shape.n, shape.ih, shape.iw, shape.ic], seed, 1.0);
    let dy_scale = if precision == Precision::Fp32 { 1.0 } else { 0.01 };
    let dy = Tensor4::<f32>::random_uniform(
        [shape.n, shape.oh(), shape.ow(), shape.oc],
        seed + 1,
        dy_scale,
    );

    // Dispatch through a private pool, the same path `verify` and
    // `winrs-nn` training take: trip 1 plans (cache miss), later trips are
    // cache hits, so the last trip shows the warm steady-state cost.
    let handle = ExecHandle::new(WorkspacePool::with_slots(1), device, precision)
        .with_policy(policy)
        .with_guard(guard);
    let mut totals_ms = Vec::with_capacity(trips);
    let mut last = None;
    for _ in 0..trips {
        let (_dw, report) = handle.run(&shape, &x, &dy).map_err(|e| e.to_string())?;
        totals_ms.push(report.timing.total_s * 1e3);
        last = Some(report);
    }
    let Some(report) = last else {
        return Err("no trips executed".into());
    };
    let t = &report.timing;
    // The busy split is one more pass, timed on request: the last trip's
    // cached plan over a lease from the same pool.
    let timed_pass = || -> Result<(TimingSink, f64), WinrsError> {
        let pool = handle.pool();
        let plan = pool.cached_plan(&shape, &device, precision)?;
        let mut lease = pool.lease(plan.workspace_layout())?;
        time_block_loop(&plan, &x, &dy, guard, lease.workspace())
    };
    // A substitute leaves the sink empty: no block task ran.
    let (sink, wall_s) = match report.algorithm {
        Algorithm::WinRs => timed_pass().map_err(|e| e.to_string())?,
        _ => Default::default(),
    };

    let mut out = String::new();
    let _ = writeln!(out, "shape        : {shape:?}");
    let _ = writeln!(out, "device       : {}", device.name);
    let _ = writeln!(out, "precision    : {precision:?}");
    let _ = writeln!(out, "algorithm    : {}", report.algorithm.name());
    if let Some(reason) = &report.fallback_reason {
        let _ = writeln!(out, "fallback     : {reason}");
    }
    let _ = writeln!(
        out,
        "trips        : {trips} ({}) — last trip broken down below",
        totals_ms
            .iter()
            .map(|ms| format!("{ms:.3} ms"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let pool = report.pool.unwrap_or_default();
    let _ = writeln!(
        out,
        "plan-cache   : {} hits / {} misses",
        pool.plan_hits, pool.plan_misses
    );

    let _ = writeln!(out, "\nwall-clock phases (last trip)");
    let _ = writeln!(out, "  phase         time ms   % of total");
    let total = t.total_s.max(1e-12);
    let mut wall_row = |name: &str, secs: f64| {
        let _ = writeln!(
            out,
            "  {:<12} {:>9.3} {:>11.1}%",
            name,
            secs * 1e3,
            100.0 * secs / total
        );
    };
    wall_row("plan", t.plan_s);
    wall_row("block-loop", t.block_loop_s);
    wall_row("promote", t.promote_s);
    wall_row("reduce", t.reduce_s);
    wall_row("other", t.other_s());
    wall_row("total", t.total_s);

    if sink.blocks() > 0 {
        let _ = writeln!(out, "\nFT/IT/EWMM/OT busy split (one timed pass after the last trip)");
        let _ = writeln!(out, "  phase         time ms   % of busy");
        let busy = sink.busy_ns();
        let named = sink.ft_ns() + sink.it_ns() + sink.ewmm_ns() + sink.ot_ns();
        for (name, ns) in [
            ("FT", sink.ft_ns()),
            ("IT", sink.it_ns()),
            ("EWMM", sink.ewmm_ns()),
            ("OT", sink.ot_ns()),
            ("overhead", busy.saturating_sub(named)),
            ("busy", busy),
        ] {
            let _ = writeln!(
                out,
                "  {:<12} {:>9.3} {:>11.1}%",
                name,
                ns as f64 * 1e-6,
                100.0 * ns as f64 / busy.max(1) as f64
            );
        }
        let workers = sched::workers();
        let _ = writeln!(
            out,
            "  {} block tasks (one per segment and oc-tile) on {} workers, utilisation {:.0}%",
            sink.blocks(),
            workers,
            100.0 * sink.utilisation(wall_s, workers)
        );
        let _ = writeln!(
            out,
            "  per-task wall min/mean/max: {:.1} / {:.1} / {:.1} us",
            sink.min_ns() as f64 * 1e-3,
            sink.mean_ns() as f64 * 1e-3,
            sink.max_ns() as f64 * 1e-3
        );
    } else {
        let _ = writeln!(
            out,
            "\nno per-block phase data (substitute algorithm); whole runtime \
             charged to block-loop"
        );
    }

    // Effective throughput against *direct-convolution* work — the paper's
    // convention, so speedups are comparable across algorithms.
    let _ = writeln!(
        out,
        "\nthroughput   : {:.2} GFLOP/s effective (direct-conv FLOPs / total)",
        shape.bfc_flops() as f64 / total / 1e9
    );

    if let Some(path) = flags.opt_str("compare") {
        out.push('\n');
        write_comparison(&mut out, path, &shape, precision, t, &sink)?;
    }
    Ok(out)
}

/// Append the `--compare` section: per-phase wall and busy deltas of the
/// just-measured run (its last trip's wall phases and the timed pass's
/// busy split, empty when a substitute ran) against the matching case of
/// a committed `winrs-bench-v1` phase-baseline file.
fn write_comparison(
    out: &mut String,
    path: &str,
    shape: &ConvShape,
    precision: Precision,
    t: &winrs_core::PhaseTimings,
    sink: &TimingSink,
) -> Result<(), String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read baseline {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("bad JSON in baseline {path}: {e}"))?;
    match doc.get("schema").and_then(Json::as_str) {
        Some(SCHEMA) => {}
        other => {
            return Err(format!(
                "baseline {path} has schema {other:?}, expected \"{SCHEMA}\""
            ))
        }
    }
    let precision_key = format!("{precision:?}");
    let field = |r: &Json, key: &str| r.get(key).and_then(Json::as_f64);
    let dim = |r: &Json, key: &str| {
        r.get("shape")
            .and_then(|s| s.get(key))
            .and_then(Json::as_f64)
    };
    let results = doc.get("results").and_then(Json::items).unwrap_or(&[]);
    let base = results.iter().find(|r| {
        dim(r, "n") == Some(shape.n as f64)
            && dim(r, "res") == Some(shape.ih as f64)
            && dim(r, "ic") == Some(shape.ic as f64)
            && dim(r, "oc") == Some(shape.oc as f64)
            && dim(r, "f") == Some(shape.fh as f64)
            && r.get("precision").and_then(Json::as_str) == Some(&precision_key)
    });
    let Some(base) = base else {
        let _ = writeln!(
            out,
            "baseline     : {path} has no case matching this shape/precision"
        );
        return Ok(());
    };
    let case = base.get("case").and_then(Json::as_str).unwrap_or("?");
    let _ = writeln!(out, "baseline     : {path} (case {case})");
    let _ = writeln!(out, "  phase         base ms    now ms     delta   speedup");
    let mut row = |name: &str, key: &str, now_s: f64| {
        let Some(base_ms) = field(base, key) else {
            return;
        };
        let now_ms = now_s * 1e3;
        let speedup = if now_ms > 0.0 { base_ms / now_ms } else { f64::INFINITY };
        let _ = writeln!(
            out,
            "  {:<12} {:>9.3} {:>9.3} {:>+9.3} {:>8.2}x",
            name,
            base_ms,
            now_ms,
            now_ms - base_ms,
            speedup
        );
    };
    row("total", "total_ms", t.total_s);
    row("plan", "plan_ms", t.plan_s);
    row("block-loop", "block_loop_ms", t.block_loop_s);
    row("promote", "promote_ms", t.promote_s);
    row("reduce", "reduce_ms", t.reduce_s);
    let secs = |ns: u64| ns as f64 * 1e-9;
    row("FT", "ft_ms", secs(sink.ft_ns()));
    row("IT", "it_ms", secs(sink.it_ns()));
    row("EWMM", "ewmm_ms", secs(sink.ewmm_ns()));
    row("OT", "ot_ms", secs(sink.ot_ns()));
    row("busy", "busy_ms", secs(sink.busy_ns()));
    let base_hot = ["ft_ms", "it_ms", "ewmm_ms"]
        .iter()
        .filter_map(|k| field(base, k))
        .sum::<f64>();
    let now_hot = secs(sink.ft_ns() + sink.it_ns() + sink.ewmm_ns()) * 1e3;
    if now_hot > 0.0 && base_hot > 0.0 {
        let _ = writeln!(
            out,
            "  FT+IT+EWMM busy: {base_hot:.3} -> {now_hot:.3} ms ({:.2}x speedup)",
            base_hot / now_hot
        );
    }
    Ok(())
}

fn cmd_workspace(flags: &Flags) -> Result<String, String> {
    let shape = shape_from(flags)?;
    let device = device_by_name(flags.opt_str("device"))?;
    let precision = precision_from(flags);
    let plan = WinRsPlan::new(&shape, &device, precision).map_err(|e| e.to_string())?;
    let layout = plan.workspace_layout();
    let z = plan.z();
    let dw_elems = shape.dw_elems();
    let dw_bytes = dw_elems * 4;
    let overflow_elems = layout.bucket_elems() - dw_elems;
    let scratch_elems = layout.scratch_elems();

    let mut out = String::new();
    let _ = writeln!(out, "shape          : {shape:?}");
    let _ = writeln!(
        out,
        "precision      : {precision:?} (buckets staged in f32)"
    );
    let _ = writeln!(out, "segments       : Z = {z}");
    let _ = writeln!(out, "region              kind        elems       bytes");
    // The guard counters are atomics beside the arena: no f32 elems.
    for (name, kind, elems, bytes) in [
        ("dw-bucket", "output", dw_elems, dw_bytes),
        (
            "overflow-buckets",
            "workspace",
            overflow_elems,
            layout.workspace_bytes(),
        ),
        (
            "thread-scratch",
            "scratch",
            scratch_elems,
            scratch_elems * 4,
        ),
        ("guard-counters", "guard", 0, layout.guard_bytes()),
    ] {
        let _ = writeln!(out, "{name:<19} {kind:<10} {elems:>9} {bytes:>11}");
    }
    let _ = writeln!(
        out,
        "total arena    : {} bytes ({} f32 elems + guard counters)",
        layout.arena_elems() * 4 + layout.guard_bytes(),
        layout.arena_elems()
    );
    let _ = writeln!(
        out,
        "paper formula  : (Z-1)*|gradW| = {} * {} B = {} B",
        z - 1,
        dw_bytes,
        (z - 1) * dw_bytes
    );
    let _ = writeln!(
        out,
        "overflow check : {} ({} B accounted as 'workspace')",
        if layout.workspace_bytes() == (z - 1) * dw_bytes {
            "matches"
        } else {
            "MISMATCH"
        },
        layout.workspace_bytes()
    );
    Ok(out)
}

fn cmd_kernels() -> String {
    let mut out = String::from("kernel      alpha  accel  fp16  coeff\n");
    for k in WINRS_KERNELS {
        let _ = writeln!(
            out,
            "{:<11} {:>5}  {:>5.2}  {:>4}  {:>5.2}",
            k.to_string(),
            k.alpha(),
            k.acceleration(),
            if k.fp16_supported() { "yes" } else { "-" },
            k.throughput_coefficient()
        );
    }
    out
}

fn cmd_devices() -> String {
    let mut out = String::from("device      SMs  FP32 TFLOPS  FP16 TFLOPS  bandwidth GB/s\n");
    for d in [RTX_4090, RTX_3090, L40S, A5000] {
        let _ = writeln!(
            out,
            "{:<10} {:>4}  {:>11.1}  {:>11.1}  {:>14.0}",
            d.name, d.n_sm, d.fp32_tflops, d.fp16_tflops, d.bandwidth_gbs
        );
    }
    out
}

fn cmd_simd() -> String {
    use winrs_gemm::micro::{self, SimdWidth};
    let mut out = String::from("width    lanes  available\n");
    for w in SimdWidth::ALL {
        let _ = writeln!(
            out,
            "{:<8} {:>5}  {}",
            w.name(),
            w.lanes(),
            if w.is_available() { "yes" } else { "-" }
        );
    }
    let _ = writeln!(out, "\ndetected : {}", micro::detected_width().name());
    let _ = writeln!(
        out,
        "active   : {}{}",
        micro::active_width().name(),
        match micro::forced_width() {
            Some(_) => " (pinned)",
            None => "",
        }
    );
    out
}

/// Labelled shape list for `winrs tune`.
fn tune_shapes(flags: &Flags) -> Result<Vec<(String, ConvShape)>, String> {
    match flags.opt_str("shapes") {
        None => {
            let s = shape_from(flags)?;
            Ok(vec![(
                format!("{}:{}:{}:{} f={}", s.n, s.oh(), s.ow(), s.oc, s.fh),
                s,
            )])
        }
        // Figures 10 and 11 sweep the same constant-complexity dimension
        // series over filter sizes 3/5/7/9; fp32 vs fp16 is the flag.
        Some("fig10") | Some("fig11") => {
            let mut out = Vec::new();
            for f in [3usize, 5, 7, 9] {
                for w in throughput_dims(f) {
                    out.push((format!("{} f={f}", w.label), w.shape));
                }
            }
            Ok(out)
        }
        Some("small") => Ok(accuracy_sweep()
            .into_iter()
            .map(|w| (format!("{} f={}", w.label, w.shape.fh), w.shape))
            .collect()),
        Some(other) => Err(format!("unknown --shapes '{other}' (fig10/fig11/small)")),
    }
}

/// One decision-table row: seconds per candidate (modelled, or measured
/// means), winner, source.
fn tune_row(
    out: &mut String,
    label: &str,
    seconds: impl Fn(Algorithm) -> Option<f64>,
    chosen: Algorithm,
    source: &str,
) {
    let cell = |algo| match seconds(algo) {
        Some(s) => format!("{:.4}", s * 1e3),
        None => "-".into(),
    };
    let _ = writeln!(
        out,
        "{:<22} {:>10} {:>10} {:>10} {:>10}  {:<8} {}",
        label,
        cell(Algorithm::WinRs),
        cell(Algorithm::GemmBfc),
        cell(Algorithm::FftBfc),
        cell(Algorithm::Direct),
        chosen.name(),
        source,
    );
}

/// Time every candidate of `d`'s ranking on `conv`: one untimed warm-up,
/// then `k` runs through a handle pinned to the candidate with
/// `FallbackPolicy::Force` (perfbench's regret probe times the same way).
/// Returns each candidate's mean wall time, seconds, in ranking order.
fn measure_candidates(
    pool: &Arc<WorkspacePool>,
    device: DeviceSpec,
    precision: Precision,
    conv: &ConvShape,
    d: &TunerDecision,
    k: u32,
) -> Result<Vec<(Algorithm, f64)>, String> {
    let x = Tensor4::<f32>::random_uniform([conv.n, conv.ih, conv.iw, conv.ic], 7, 1.0);
    let scale = if precision == Precision::Fp32 {
        1.0
    } else {
        0.01
    };
    let dy = Tensor4::<f32>::random_uniform([conv.n, conv.oh(), conv.ow(), conv.oc], 8, scale);
    d.ranked
        .iter()
        .map(|c| {
            let handle = ExecHandle::new(Arc::clone(pool), device, precision)
                .with_policy(FallbackPolicy::Force(c.algo));
            handle.run(conv, &x, &dy).map_err(|e| e.to_string())?;
            let t = Instant::now();
            for _ in 0..k {
                handle.run(conv, &x, &dy).map_err(|e| e.to_string())?;
            }
            Ok((c.algo, t.elapsed().as_secs_f64() / f64::from(k)))
        })
        .collect()
}

/// How well the tuner's choices and predictions matched `--measure`: the
/// three numbers perfbench's regret probe reports.
#[derive(Default)]
struct Accuracy {
    keys: usize,
    hits: usize,
    chosen_s: f64,
    fastest_s: f64,
    log_err: Vec<f64>,
}

impl Accuracy {
    /// Count one measured key: was the choice the fastest, what it cost
    /// against the fastest, and each candidate's |ln(predicted/measured)|.
    fn add(&mut self, d: &TunerDecision, means: &[(Algorithm, f64)]) {
        let fastest = means.iter().map(|m| m.1).fold(f64::INFINITY, f64::min);
        let Some(chosen) = means.iter().find(|m| m.0 == d.chosen).map(|m| m.1) else {
            return;
        };
        self.keys += 1;
        self.hits += usize::from(chosen == fastest);
        self.chosen_s += chosen;
        self.fastest_s += fastest;
        self.log_err.extend(
            means
                .iter()
                .filter_map(|&(a, s)| Some((d.predicted_for(a)? / s).ln().abs())),
        );
    }

    fn summary(&self) -> String {
        let mut err = self.log_err.clone();
        err.sort_by(f64::total_cmp);
        format!(
            "accuracy    : choice = fastest on {} of {} keys, regret {:.3} \
             (Σchosen {:.4} ms / Σfastest {:.4} ms), median |ln(pred/meas)| {:.3}",
            self.hits,
            self.keys,
            self.chosen_s / self.fastest_s,
            self.chosen_s * 1e3,
            self.fastest_s * 1e3,
            err.get(err.len() / 2).copied().unwrap_or(f64::NAN)
        )
    }
}

fn inspect_tune_db(path: &std::path::Path) -> Result<String, String> {
    let db = TuneDb::load(path).map_err(|w| w.to_string())?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "database : {} ({} entries, schema {})",
        path.display(),
        db.len(),
        TUNE_DB_SCHEMA
    );
    let _ = writeln!(
        out,
        "{:<30} {:<5} {:<9} {:>12} {:>11} {:>6}  device",
        "[n ih iw ic oc fh fw ph pw]", "prec", "algo", "predicted ms", "measured ms", "trials"
    );
    for (fp, shape, precision, e) in db.iter() {
        let _ = writeln!(
            out,
            "{:<30} {:<5} {:<9} {:>12.4} {:>11} {:>6}  {}",
            format!("{shape:?}"),
            precision.name(),
            e.algo.name(),
            e.predicted_s * 1e3,
            e.measured_s
                .map(|m| format!("{:.4}", m * 1e3))
                .unwrap_or_else(|| "-".into()),
            e.trials,
            fp
        );
    }
    Ok(out)
}

fn cmd_tune(flags: &Flags) -> Result<String, String> {
    let device = device_by_name(flags.opt_str("device"))?;
    // Figure 11 is the paper's FP16 experiment: default its sweep to fp16
    // unless the caller pinned a precision explicitly.
    let precision = if flags.opt_str("shapes") == Some("fig11")
        && !flags.has("fp16")
        && !flags.has("bf16")
    {
        Precision::Fp16
    } else {
        precision_from(flags)
    };
    let dry_run = flags.has("dry-run");
    let measure = u32::try_from(flags.opt_usize("measure", 0)?)
        .map_err(|_| "--measure must fit in 32 bits".to_string())?;
    let db_path = flags.opt_str("db").map(std::path::PathBuf::from);

    if flags.has("inspect") {
        let Some(path) = &db_path else {
            return Err("--inspect requires --db PATH".into());
        };
        return inspect_tune_db(path);
    }
    if db_path.is_none() && !dry_run {
        return Err("tune writes a database: pass --db PATH (or --dry-run to rank only)".into());
    }

    let shapes = tune_shapes(flags)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "device      : {} (fingerprint {})",
        device.name,
        device.fingerprint()
    );
    let _ = writeln!(
        out,
        "device key  : {}",
        winrs_core::device_key(&device)
    );
    let _ = writeln!(out, "precision   : {}", precision.name());
    let _ = writeln!(out, "cost model  : {}", winrs_core::tuner::model_name());
    let _ = writeln!(out, "schema      : {TUNE_DB_SCHEMA}");
    let header = format!(
        "{:<22} {:>10} {:>10} {:>10} {:>10}  {:<8} {}",
        "shape (N:OH:OW:OC)", "winrs ms", "gemm ms", "fft ms", "direct ms", "chosen", "source"
    );

    // Measured shapes execute on the CPU; larger ones keep no entry.
    const EXEC_CAP: usize = 4_000_000;
    let pool = WorkspacePool::new(PoolConfig {
        slots: 1,
        tuner: TunerConfig {
            capacity: shapes.len().max(1),
        },
        ..PoolConfig::default()
    });
    if let Some(path) = &db_path {
        if let Some(w) = pool.attach_tune_db(path) {
            let _ = writeln!(out, "warning     : {w}");
        }
    }
    let _ = writeln!(out, "\n{header}");
    // Key on the SIMD-qualified device key, not the raw fingerprint:
    // `Tuner::decide` looks entries up under `device_key`, so rows
    // written with the bare fingerprint would never be found again.
    let key = winrs_core::device_key(&device);
    let mut skipped: Vec<String> = Vec::new();
    let mut accuracy = Accuracy::default();
    for (label, conv) in &shapes {
        let d = pool.with_tuner(|t| t.decide(conv, &device, precision));
        let source = d.stats.source.name();
        tune_row(&mut out, label, |a| d.predicted_for(a), d.chosen, source);
        let entry = if measure == 0 {
            // A key the database already holds keeps its entry; a model
            // decision is stored so the database captures the whole table.
            if d.stats.source == ChoiceSource::Database {
                continue;
            }
            TunedEntry {
                algo: d.chosen,
                predicted_s: d.stats.predicted_s,
                measured_s: None,
                trials: 0,
            }
        } else if conv.x_elems() > EXEC_CAP {
            skipped.push(label.clone());
            continue;
        } else {
            let means = measure_candidates(&pool, device, precision, conv, &d, measure)?;
            let (algo, mean) = means
                .iter()
                .copied()
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .ok_or("the ranking is never empty")?;
            let mean_of = |a| means.iter().find(|m| m.0 == a).map(|m| m.1);
            tune_row(&mut out, "  measured", mean_of, algo, "measured");
            accuracy.add(&d, &means);
            TunedEntry {
                algo,
                predicted_s: d.predicted_for(algo).unwrap_or(0.0),
                measured_s: Some(mean),
                trials: measure,
            }
        };
        pool.with_tuner(|t| t.db_mut().insert(&key, conv, precision, entry));
    }
    if measure > 0 {
        let _ = writeln!(
            out,
            "\nmeasured    : mean of {measure} runs per candidate after one warm-up"
        );
        let _ = writeln!(out, "{}", accuracy.summary());
    }
    if !skipped.is_empty() {
        // No silent caps: say exactly which shapes were not measured.
        let _ = writeln!(
            out,
            "\nskipped     : {} shapes too large to execute on the CPU (> 4e6 X elems): {}",
            skipped.len(),
            skipped.join(", ")
        );
    }
    if let (false, Some(path)) = (dry_run, &db_path) {
        pool.save_tune_db().map_err(|w| w.to_string())?;
        let _ = writeln!(
            out,
            "\ndatabase    : wrote {} entries to {}",
            pool.with_tuner(|t| t.db().len()),
            path.display()
        );
    }
    Ok(out)
}

fn cmd_serve(flags: &Flags) -> Result<String, String> {
    let port = flags.opt_usize("port", 8077)?;
    let bind = flags.opt_str("bind").unwrap_or("127.0.0.1");
    let max_jobs = flags.opt_usize("max-jobs", 0)?;
    let window_ms = flags.opt_usize("window-ms", 2)?;
    let queue_cap = flags.opt_usize("queue-cap", 256)?;
    let slots = flags.opt_usize("pool-slots", 0)?;
    let device = device_by_name(flags.opt_str("device"))?;

    let cfg = winrs_serve::ServeConfig {
        addr: format!("{bind}:{port}"),
        window: Duration::from_millis(window_ms as u64),
        queue_cap: queue_cap.max(1),
        max_jobs: (max_jobs > 0).then_some(max_jobs as u64),
        slots,
        device,
    };
    let mut server =
        winrs_serve::Server::spawn(cfg).map_err(|e| format!("bind {bind}:{port}: {e}"))?;
    let bound = server.addr();

    // The listening line must reach pipes *before* the blocking join —
    // the CI smoke test and the e2e harness wait for the bound address.
    println!("winrs serve: listening on {bound}");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    if let Some(path) = flags.opt_str("addr-file") {
        std::fs::write(path, format!("{bound}\n"))
            .map_err(|e| format!("write --addr-file {path}: {e}"))?;
    }

    // Blocks until the --max-jobs budget drains (or forever without one;
    // the process is then stopped by signal).
    server.join();

    let st = server.stats();
    // ORDERING: the join() above synchronised with both service threads;
    // these are quiescent final reads.
    use std::sync::atomic::Ordering::Relaxed;
    Ok(format!(
        "winrs serve: done — jobs ok={} failed={} batches={} coalesced_batches={} \
         max_batch={} rejected_queue_full={}\n",
        st.jobs_ok.load(Relaxed),
        st.jobs_failed.load(Relaxed),
        st.batches.load(Relaxed),
        st.coalesced_batches.load(Relaxed),
        st.max_batch.load(Relaxed),
        st.rejected_queue_full.load(Relaxed),
    ))
}

fn cmd_loadgen(flags: &Flags) -> Result<String, String> {
    let defaults = winrs_serve::LoadgenConfig::default();
    let shape = if flags.opt_str("n").is_some() {
        shape_from(flags)?
    } else {
        defaults.shape
    };
    let deadline_ms = flags.opt_usize("deadline-ms", 0)?;
    let cfg = winrs_serve::LoadgenConfig {
        addr: flags
            .opt_str("addr")
            .unwrap_or(defaults.addr.as_str())
            .to_string(),
        jobs: flags.opt_usize("jobs", 64)? as u64,
        concurrency: flags.opt_usize("concurrency", 8)?.max(1),
        shape,
        deadline: (deadline_ms > 0).then(|| Duration::from_millis(deadline_ms as u64)),
        seed_base: 1000,
    };
    let report = winrs_serve::run_loadgen(&cfg)?;
    let text = report.render(&cfg);
    if let Some(path) = flags.opt_str("out") {
        std::fs::write(path, &text).map_err(|e| format!("write --out {path}: {e}"))?;
    }
    if report.failed > 0 {
        return Err(format!("{} of {} jobs failed\n{text}", report.failed, cfg.jobs));
    }
    Ok(text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(args: &[&str]) -> Result<String, String> {
        let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        dispatch(&argv)
    }

    #[test]
    fn width_pin_takes_either_source_or_equal_ones_and_refuses_a_conflict() {
        for (flag, env, want) in [
            (None, None, None),
            (Some("avx2"), None, Some("avx2")),
            (None, Some("scalar"), Some("scalar")),
            (None, Some(""), None),
            (Some("avx2"), Some(""), Some("avx2")),
            (Some("avx512"), Some("avx512"), Some("avx512")),
            (Some("avx1024"), None, Some("avx1024")),
        ] {
            assert_eq!(width_pin(flag, env), Ok(want), "{flag:?} / {env:?}");
        }
        let err = width_pin(Some("avx512"), Some("scalar")).unwrap_err();
        assert_eq!(
            err,
            WidthPinConflict {
                flag: "avx512",
                env: "scalar"
            }
        );
        let msg = err.to_string();
        assert!(msg.contains("--force-width avx512") && msg.contains("WINRS_FORCE_WIDTH=scalar"));
    }

    #[test]
    fn plan_command_prints_configuration() {
        let out = run(&[
            "plan", "--n", "8", "--res", "32", "--ic", "16", "--oc", "16", "--f", "3",
        ])
        .unwrap();
        assert!(out.contains("kernel pair"));
        assert!(out.contains("Ω8(3,6)"));
        assert!(out.contains("FLOP cut"));
    }

    #[test]
    fn verify_command_passes_on_small_problem() {
        let out = run(&[
            "verify", "--n", "1", "--res", "12", "--ic", "2", "--oc", "2", "--f", "3",
        ])
        .unwrap();
        assert!(out.contains("verdict   : OK"), "{out}");
    }

    #[test]
    fn verify_fp16_flag() {
        let out = run(&[
            "verify", "--n", "1", "--res", "12", "--ic", "2", "--oc", "2", "--f", "3", "--fp16",
        ])
        .unwrap();
        assert!(out.contains("Fp16"));
        assert!(out.contains("OK"));
    }

    #[test]
    fn verify_bf16_flag() {
        let out = run(&[
            "verify", "--n", "1", "--res", "12", "--ic", "2", "--oc", "2", "--f", "3", "--bf16",
        ])
        .unwrap();
        assert!(out.contains("Bf16"));
        assert!(out.contains("OK"));
    }

    #[test]
    fn cost_command_reports_model() {
        let out = run(&[
            "cost", "--n", "32", "--res", "56", "--ic", "64", "--oc", "64", "--f", "3", "--device",
            "3090",
        ])
        .unwrap();
        assert!(out.contains("RTX 3090"));
        assert!(out.contains("TFLOPS"));
    }

    #[test]
    fn workspace_command_matches_paper_formula() {
        let out = run(&[
            "workspace",
            "--n",
            "1",
            "--res",
            "32",
            "--ic",
            "4",
            "--oc",
            "4",
            "--f",
            "3",
        ])
        .unwrap();
        // Z = 1 and one scratch slot (a single task per pass), so every
        // row is fixed by the shape: |∇W| = 4·3·3·4 = 144 elems.
        for row in [
            "dw-bucket           output           144         576",
            "overflow-buckets    workspace          0           0",
            "thread-scratch      scratch        10400       41600",
            "guard-counters      guard              0          32",
            "total arena    : 42208 bytes (10544 f32 elems + guard counters)",
            "paper formula  : (Z-1)*|gradW| = 0 * 576 B = 0 B",
            "overflow check : matches (0 B accounted as 'workspace')",
        ] {
            assert!(out.lines().any(|l| l == row), "missing `{row}` in\n{out}");
        }
    }

    #[test]
    fn verify_reports_workspace_accounting() {
        let out = run(&[
            "verify", "--n", "1", "--res", "12", "--ic", "2", "--oc", "2", "--f", "3",
        ])
        .unwrap();
        assert!(out.contains("hot_loop_allocs=0"), "{out}");
        assert!(out.contains("workspace="), "{out}");
    }

    #[test]
    fn kernels_lists_13() {
        let out = run(&["kernels"]).unwrap();
        assert_eq!(out.lines().count(), 14); // header + 13
    }

    #[test]
    fn devices_lists_4() {
        let out = run(&["devices"]).unwrap();
        assert_eq!(out.lines().count(), 5);
    }

    #[test]
    fn unknown_command_errors() {
        assert!(run(&["frobnicate"]).is_err());
    }

    #[test]
    fn unknown_device_errors() {
        let e = run(&[
            "plan", "--n", "1", "--res", "8", "--ic", "1", "--oc", "1", "--f", "2", "--device",
            "h100",
        ])
        .unwrap_err();
        assert!(e.contains("unknown device"));
    }

    #[test]
    fn oversized_verify_rejected() {
        let e = run(&[
            "verify", "--n", "64", "--res", "224", "--ic", "64", "--oc", "64", "--f", "3",
        ])
        .unwrap_err();
        assert!(e.contains("under 4e6"));
    }

    #[test]
    fn bad_shape_rejected() {
        let e = run(&[
            "plan", "--n", "1", "--res", "3", "--ic", "1", "--oc", "1", "--f", "5",
        ])
        .unwrap_err();
        assert!(e.contains("must exceed"));
    }

    #[test]
    fn zero_dims_rejected_with_every_violation() {
        // n = 0 and ic = 0 are both ill-formed; the error must name both
        // rather than stopping at the first.
        let e = run(&[
            "verify", "--n", "0", "--res", "12", "--ic", "0", "--oc", "2", "--f", "3",
        ])
        .unwrap_err();
        assert!(e.contains("(2)"), "{e}");
        assert!(e.contains('n') && e.contains("ic"), "{e}");
    }

    #[test]
    fn verify_runs_unported_fp16_width_on_fp32_tiles() {
        // F_W = 4 has no FP16-ported kernel; the default auto policy runs
        // WinRS on FP32 tiles and says so in the report line, with no
        // fallback.
        let out = run(&[
            "verify", "--n", "1", "--res", "16", "--ic", "3", "--oc", "3", "--f", "4", "--fp16",
        ])
        .unwrap();
        assert!(
            out.contains("algorithm=winrs precision=Fp16 tiles=fp32 "),
            "{out}"
        );
        assert!(!out.contains("fallback="), "{out}");
        assert!(out.contains("verdict   : OK"), "{out}");
    }

    #[test]
    fn verify_strict_policy_admits_fp32_tiles() {
        // Strict is "WinRS or a typed error": FP32 tiles are WinRS, so the
        // unported FP16 width runs them rather than failing.
        let out = run(&[
            "verify",
            "--n",
            "1",
            "--res",
            "12",
            "--ic",
            "2",
            "--oc",
            "2",
            "--f",
            "4",
            "--fp16",
            "--fallback-policy",
            "strict",
        ])
        .unwrap();
        assert!(
            out.contains("algorithm=winrs precision=Fp16 tiles=fp32 "),
            "{out}"
        );
        assert!(out.contains("verdict   : OK"), "{out}");
    }

    #[test]
    fn verify_force_gemm_skips_winrs() {
        let out = run(&[
            "verify",
            "--n",
            "1",
            "--res",
            "12",
            "--ic",
            "2",
            "--oc",
            "2",
            "--f",
            "3",
            "--fallback-policy",
            "force-gemm",
        ])
        .unwrap();
        assert!(out.contains("algorithm=gemm-bfc"), "{out}");
    }

    #[test]
    fn verify_accepts_numeric_guard_flag() {
        let out = run(&[
            "verify",
            "--n",
            "1",
            "--res",
            "12",
            "--ic",
            "2",
            "--oc",
            "2",
            "--f",
            "3",
            "--fp16",
            "--numeric-guard",
            "promote-retry",
        ])
        .unwrap();
        assert!(out.contains("guard=promote-retry"), "{out}");
    }

    #[test]
    fn bad_policy_and_guard_values_error() {
        let e = run(&[
            "verify",
            "--n",
            "1",
            "--res",
            "12",
            "--ic",
            "2",
            "--oc",
            "2",
            "--f",
            "3",
            "--fallback-policy",
            "yolo",
        ])
        .unwrap_err();
        assert!(e.contains("unknown fallback policy"), "{e}");
        let e = run(&[
            "verify",
            "--n",
            "1",
            "--res",
            "12",
            "--ic",
            "2",
            "--oc",
            "2",
            "--f",
            "3",
            "--numeric-guard",
            "yolo",
        ])
        .unwrap_err();
        assert!(e.contains("unknown numeric guard"), "{e}");
    }

    /// Parse `  <name> <ms> <pct>%` rows from the profile tables. Skips
    /// lines where the token after `name` is not a number (e.g. the
    /// `plan-cache   :` header vs the `plan` row).
    fn phase_ms(out: &str, name: &str) -> f64 {
        for line in out.lines() {
            let mut toks = line.split_whitespace();
            if toks.next() == Some(name) {
                if let Some(Ok(ms)) = toks.next().map(|v| v.parse::<f64>()) {
                    return ms;
                }
            }
        }
        panic!("phase row '{name}' not found in:\n{out}");
    }

    #[test]
    fn profile_phase_times_sum_to_total() {
        let out = run(&[
            "profile", "--n", "1", "--res", "16", "--ic", "4", "--oc", "8", "--f", "3",
        ])
        .unwrap();
        assert!(out.contains("wall-clock phases"), "{out}");
        assert!(out.contains("plan-cache   : 2 hits / 1 misses"), "{out}");
        let total = phase_ms(&out, "total");
        assert!(total > 0.0, "{out}");
        let sum = phase_ms(&out, "plan")
            + phase_ms(&out, "block-loop")
            + phase_ms(&out, "promote")
            + phase_ms(&out, "reduce")
            + phase_ms(&out, "other");
        // Acceptance criterion: named phases account for the total within
        // 10% (by construction `other` closes the gap exactly; the slack
        // only absorbs the 3-decimal rounding of the printed values).
        assert!(
            (sum - total).abs() <= 0.1 * total + 0.01,
            "phases {sum} ms vs total {total} ms\n{out}"
        );
        assert!(out.contains("FT/IT/EWMM/OT busy split"), "{out}");
        assert!(phase_ms(&out, "EWMM") >= 0.0);
        assert!(out.contains("block tasks"), "{out}");
    }

    #[test]
    fn profile_and_verify_dispatch_the_same_algorithm() {
        // One dispatch path: on this micro shape the tuner prefers direct
        // convolution, and `profile` must run what `verify` runs.
        let shape = [
            "--n", "1", "--res", "8", "--ic", "2", "--oc", "2", "--f", "3",
        ];
        let profile = run(&[&["profile"][..], &shape].concat()).unwrap();
        assert!(profile.contains("algorithm    : direct"), "{profile}");
        let verify = run(&[&["verify"][..], &shape].concat()).unwrap();
        assert!(verify.contains("algorithm=direct"), "{verify}");
    }

    #[test]
    fn profile_covers_substitute_path_too() {
        // On this FP16 f=2 micro shape the tuner runs GEMM-BFC: timing must
        // still be populated (whole runtime charged to block-loop) and the
        // table printed, with no per-block split and no fallback reason.
        let out = run(&[
            "profile", "--n", "1", "--res", "8", "--ic", "4", "--oc", "4", "--f", "2", "--fp16",
            "--trips", "1",
        ])
        .unwrap();
        assert!(out.contains("algorithm    : gemm-bfc"), "{out}");
        assert!(out.contains("no per-block phase data"), "{out}");
        assert!(!out.contains("fallback     :"), "{out}");
        let total = phase_ms(&out, "total");
        assert!(total > 0.0, "{out}");
        assert!(phase_ms(&out, "block-loop") > 0.0, "{out}");
    }

    #[test]
    fn profile_compare_prints_deltas_against_baseline() {
        // Fabricate a baseline file whose case matches the profiled shape,
        // with inflated phase times so every speedup is well-defined.
        let baseline = "{\"schema\":\"winrs-bench-v1\",\"benchmark\":\"phase_baseline\",\
            \"results\":[{\"case\":\"unit-case\",\
            \"shape\":{\"n\":1,\"res\":16,\"ic\":4,\"oc\":8,\"f\":3},\
            \"precision\":\"Fp32\",\"total_ms\":100.0,\"plan_ms\":1.0,\
            \"block_loop_ms\":90.0,\"promote_ms\":0,\"reduce_ms\":2.0,\
            \"ft_ms\":20.0,\"it_ms\":20.0,\"ewmm_ms\":30.0,\"ot_ms\":5.0,\
            \"busy_ms\":80.0}]}";
        let path = std::env::temp_dir().join("winrs_cli_compare_test.json");
        std::fs::write(&path, baseline).unwrap();
        let path_s = path.to_str().unwrap();
        let out = run(&[
            "profile", "--n", "1", "--res", "16", "--ic", "4", "--oc", "8", "--f", "3",
            "--compare", path_s,
        ])
        .unwrap();
        let _ = std::fs::remove_file(&path);
        assert!(out.contains("(case unit-case)"), "{out}");
        assert!(out.contains("speedup"), "{out}");
        assert!(out.contains("block-loop"), "{out}");
        assert!(out.contains("FT+IT+EWMM busy:"), "{out}");
    }

    #[test]
    fn profile_compare_reports_missing_case_and_bad_files() {
        // Valid schema but no matching shape: noted, not an error.
        let baseline = "{\"schema\":\"winrs-bench-v1\",\"results\":[]}";
        let path = std::env::temp_dir().join("winrs_cli_compare_empty.json");
        std::fs::write(&path, baseline).unwrap();
        let path_s = path.to_str().unwrap().to_string();
        let out = run(&[
            "profile", "--n", "1", "--res", "16", "--ic", "2", "--oc", "4", "--f", "3",
            "--compare", &path_s,
        ])
        .unwrap();
        assert!(out.contains("no case matching"), "{out}");

        // Wrong schema: hard error naming the expectation.
        std::fs::write(&path, "{\"schema\":\"other-v9\",\"results\":[]}").unwrap();
        let e = run(&[
            "profile", "--n", "1", "--res", "16", "--ic", "2", "--oc", "4", "--f", "3",
            "--compare", &path_s,
        ])
        .unwrap_err();
        assert!(e.contains("winrs-bench-v1"), "{e}");
        let _ = std::fs::remove_file(&path);

        // Unreadable path: hard error.
        let e = run(&[
            "profile", "--n", "1", "--res", "16", "--ic", "2", "--oc", "4", "--f", "3",
            "--compare", "/nonexistent/really-not-here.json",
        ])
        .unwrap_err();
        assert!(e.contains("cannot read baseline"), "{e}");
    }

    #[test]
    fn profile_rejects_zero_trips() {
        let e = run(&[
            "profile", "--n", "1", "--res", "16", "--ic", "2", "--oc", "2", "--f", "3", "--trips",
            "0",
        ])
        .unwrap_err();
        assert!(e.contains("--trips"), "{e}");
    }

    #[test]
    fn tune_dry_run_prints_decision_table() {
        let out = run(&["tune", "--shapes", "fig10", "--dry-run"]).unwrap();
        assert!(out.contains("winrs-tune-v1"), "{out}");
        let width = winrs_gemm::micro::detected_width().name();
        assert!(out.contains(&format!("cost model  : host ({width})\n")), "{out}");
        assert!(out.contains("chosen"), "{out}");
        assert!(out.contains("32:112:112:64 f=3"), "{out}");
        // Every fig10 fp32 shape resolves in WinRS's favour under the
        // cost model; all 32 rows are present.
        let rows = out
            .lines()
            .filter(|l| l.contains(" winrs ") && l.contains("model"))
            .count();
        assert_eq!(rows, 32, "{out}");
    }

    #[test]
    fn tune_writes_and_inspects_database() {
        let path = std::env::temp_dir().join(format!(
            "winrs_cli_tune_db_{}.json",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let path_s = path.to_str().unwrap().to_string();
        let out = run(&["tune", "--shapes", "small", "--db", &path_s]).unwrap();
        assert!(out.contains("wrote 24 entries"), "{out}");
        // The persisted document round-trips through the schema-checked
        // loader.
        let db = TuneDb::load(&path).unwrap();
        assert_eq!(db.len(), 24);
        let insp = run(&["tune", "--db", &path_s, "--inspect"]).unwrap();
        assert!(insp.contains("24 entries"), "{insp}");
        // A micro shape is a pure performance choice for a substitute, and
        // the database records it next to the sweep's WinRS rows.
        let out = run(&[
            "tune", "--n", "1", "--res", "8", "--ic", "2", "--oc", "2", "--f", "3", "--db",
            &path_s,
        ])
        .unwrap();
        assert!(out.contains("wrote 25 entries"), "{out}");
        let insp = run(&["tune", "--db", &path_s, "--inspect"]).unwrap();
        assert!(insp.contains("direct") && insp.contains("winrs"), "{insp}");
        let _ = std::fs::remove_file(&path);
    }

    /// `--measure K` prints a measured mean for every candidate the
    /// model ranked, and the entry it writes is the argmin of those means,
    /// with that mean and `trials = K`.
    #[test]
    fn tune_measure_times_every_candidate_and_stores_the_fastest() {
        let path = std::env::temp_dir().join(format!(
            "winrs_cli_tune_measure_{}.json",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let args = format!(
            "tune --n 2 --res 16 --ic 8 --oc 8 --f 3 --measure 2 --db {}",
            path.display()
        );
        let out = run(&args.split(' ').collect::<Vec<_>>()).unwrap();
        // Cells after the 22-column label: winrs, gemm, fft and direct
        // ms, then the winner and the source.
        let cells = |prefix: &str| -> Vec<String> {
            let line = out.lines().find(|l| l.starts_with(prefix));
            let line = line.unwrap_or_else(|| panic!("no `{prefix}` row: {out}"));
            line[22..].split_whitespace().map(str::to_string).collect()
        };
        let (model, measured) = (cells("2:16:16:8 f=3"), cells("  measured"));
        assert_eq!(measured[5], "measured", "{out}");
        let names = ["winrs", "gemm-bfc", "fft-bfc", "direct"];
        let mut means = Vec::new();
        for (algo, (m, t)) in names.iter().zip(model.iter().zip(&measured)) {
            assert_eq!(m == "-", t == "-", "{algo}: ranked iff measured: {out}");
            if t != "-" {
                means.push((*algo, t.parse::<f64>().unwrap()));
            }
        }
        assert_eq!(means.len(), 4, "an FP32 f=3 key ranks all four: {out}");
        let fastest = means.iter().map(|m| m.1).fold(f64::INFINITY, f64::min);
        let db = TuneDb::load(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(db.len(), 1);
        let (_, _, _, e) = db.iter().next().unwrap();
        let stored_ms = format!("{:.4}", e.measured_s.expect("measured") * 1e3);
        assert_eq!(stored_ms.parse::<f64>().unwrap(), fastest, "{out}");
        assert!(means.contains(&(e.algo.name(), fastest)), "{out}");
        assert_eq!(measured[4], e.algo.name());
        assert_eq!(e.trials, 2);
        // The closing line scores the model against the measurement: one
        // key, a hit iff the model's pick is the measured fastest, and the
        // regret Σchosen/Σfastest.
        let hit = usize::from(model[4] == measured[4]);
        let line = out
            .lines()
            .find(|l| l.starts_with("accuracy    : "))
            .unwrap_or_else(|| panic!("no accuracy line: {out}"));
        assert!(
            line.contains(&format!("choice = fastest on {hit} of 1 keys, regret ")),
            "{line}"
        );
        assert!(line.contains("median |ln(pred/meas)| "), "{line}");
        if hit == 1 {
            assert!(line.contains("regret 1.000 "), "{line}");
        }
    }

    #[test]
    fn tune_requires_db_or_dry_run() {
        let e = run(&["tune", "--shapes", "fig10"]).unwrap_err();
        assert!(e.contains("--db"), "{e}");
        let e = run(&["tune", "--inspect"]).unwrap_err();
        assert!(e.contains("--db"), "{e}");
        let e = run(&["tune", "--shapes", "fig99", "--dry-run"]).unwrap_err();
        assert!(e.contains("unknown --shapes"), "{e}");
    }

    #[test]
    fn plan_reports_rejection_for_unported_fp16_width() {
        let e = run(&[
            "plan", "--n", "1", "--res", "16", "--ic", "2", "--oc", "2", "--f", "4", "--fp16",
        ])
        .unwrap_err();
        assert!(e.contains("filter width 4"), "{e}");
    }
}
