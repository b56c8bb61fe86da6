//! Seeded chaos campaigns against the resilient execution layer.
//!
//! Every test arms deterministic fault injections ([`winrs_core::faults`])
//! at named sites — a panic inside the fused block loop, feigned workspace
//! pool exhaustion, an allocation-budget refusal, artificial slowness —
//! and asserts the contract from DESIGN §11: **every campaign ends in
//! either a bitwise-correct `∇W` or a typed [`WinrsError`]**, never an
//! escaped panic, with the pool back to a clean, fully-leasable state
//! (no leaked leases, every poisoning matched by a rebuild).
//!
//! "Bitwise-correct" is literal: a degraded outcome must equal a clean
//! (chaos-free) run of the same substitute algorithm bit for bit, and a
//! WinRS outcome must equal the clean WinRS dispatch bit for bit — chaos
//! may change *which* algorithm delivers, never *what* it computes.
//!
//! The injection registry is process-global, so everything here (and any
//! test that merely runs concurrently with it) holds
//! [`winrs_core::faults::serial_guard`]. This binary runs as its own
//! process, which is why every test that arms the injector lives here —
//! the injector's own included — rather than among the library's unit
//! tests, where engine tests would poll the armed hooks unguarded.

#![cfg(feature = "faults")]

use std::sync::Arc;
use std::time::Duration;
use winrs_conv::{direct, ConvShape};
use winrs_core::engine::TileMode;
use winrs_core::fallback::{self, Algorithm, FallbackPolicy, NumericGuard};
use winrs_core::faults::{self, Site};
use winrs_core::pool::{BfcJob, ExecHandle, PoolConfig, WorkspacePool};
use winrs_core::{Precision, WinrsError, Workspace};
use winrs_gpu_sim::RTX_4090;
use winrs_tensor::{mare, Tensor4};

/// In-envelope FP32 problem small enough for many reruns.
fn problem() -> (ConvShape, Tensor4<f32>, Tensor4<f32>, Tensor4<f64>) {
    let conv = ConvShape::square(2, 16, 4, 4, 3);
    let x64 = Tensor4::<f64>::random_uniform([conv.n, conv.ih, conv.iw, conv.ic], 1001, 1.0);
    let dy64 = Tensor4::<f64>::random_uniform([conv.n, conv.oh(), conv.ow(), conv.oc], 1002, 1.0);
    let exact = direct::bfc_direct(&conv, &x64, &dy64);
    (conv, x64.cast(), dy64.cast(), exact)
}

fn handle(pool: &Arc<WorkspacePool>) -> ExecHandle {
    ExecHandle::new(Arc::clone(pool), RTX_4090, Precision::Fp32)
}

/// The post-campaign pool contract: nothing leaked, every poisoning
/// rebuilt, and every slot actually leasable right now.
fn assert_pool_clean(pool: &Arc<WorkspacePool>) {
    let st = pool.stats();
    assert_eq!(st.in_use, 0, "leaked lease: {st}");
    assert_eq!(
        st.poisonings, st.rebuilds,
        "poisoned slot without a rebuild: {st}"
    );
    let layout = winrs_core::WorkspaceLayout::winrs(0, 1, 0, 0, 0);
    let leases: Vec<_> = (0..pool.config().slots)
        .map(|i| {
            pool.lease_for(&layout, Duration::ZERO)
                .unwrap_or_else(|e| panic!("slot {i} not leasable after campaign: {e}"))
        })
        .collect();
    drop(leases);
}

/// Disarm everything and return the sites that fired, failing loudly if
/// the campaign never reached its injection point.
fn end_campaign() -> Vec<Site> {
    let fired = faults::fired_sites();
    faults::disarm_sites();
    faults::disarm();
    faults::set_slow_ms(0);
    fired
}

/// Campaign 1 — panic in the hot loop. The fused-kernel panic is caught
/// at the lease boundary: under `Auto` the ladder delivers GEMM-BFC
/// bit-for-bit, the dirty workspace is poisoned and rebuilt, and the
/// half-written dw-bucket never escapes; under `Strict` the same failure
/// surfaces as typed [`WinrsError::ExecutionPanicked`].
#[test]
fn panic_in_hot_loop_is_contained_and_degrades() {
    let _g = faults::serial_guard();
    let (conv, x, dy, exact) = problem();

    faults::arm_sites([Site::HotLoopPanic]);
    let pool = WorkspacePool::with_slots(1);
    let (dw, report) = handle(&pool).run(&conv, &x, &dy).expect("Auto contains the panic");
    assert_eq!(end_campaign(), vec![Site::HotLoopPanic]);

    assert_eq!(report.algorithm, Algorithm::GemmBfc);
    assert!(
        matches!(report.fallback_reason, Some(WinrsError::ExecutionPanicked { .. })),
        "{:?}",
        report.fallback_reason
    );
    let st = report.pool.expect("pool snapshot");
    assert_eq!((st.poisonings, st.rebuilds, st.degradations), (1, 1, 1), "{st}");
    // Bitwise-correct: identical to a clean forced GEMM-BFC run.
    let (dw_ref, _) = handle(&pool)
        .with_policy(FallbackPolicy::Force(Algorithm::GemmBfc))
        .run(&conv, &x, &dy)
        .expect("clean reference");
    assert_eq!(dw, dw_ref, "degraded ∇W differs from clean GEMM-BFC");
    assert!(mare(&dw, &exact) < 1e-5);
    assert_pool_clean(&pool);

    // Strict: the typed error, not a crash — and still a clean pool.
    faults::arm_sites([Site::HotLoopPanic]);
    let strict = WorkspacePool::with_slots(1);
    let err = handle(&strict)
        .with_policy(FallbackPolicy::Strict)
        .run(&conv, &x, &dy)
        .expect_err("Strict surfaces the panic as a typed error");
    assert_eq!(end_campaign(), vec![Site::HotLoopPanic]);
    assert!(matches!(err, WinrsError::ExecutionPanicked { .. }), "{err}");
    assert!(err.to_string().contains("poisoned and rebuilt"), "{err}");
    assert_pool_clean(&strict);
}

/// Campaign 2 — slot exhaustion. The chaos site feigns "every slot
/// leased"; admission control turns the bounded wait into typed
/// [`WinrsError::PoolExhausted`] backpressure, which `Auto` degrades.
#[test]
fn slot_exhaustion_backpressure_degrades_or_surfaces() {
    let _g = faults::serial_guard();
    let (conv, x, dy, exact) = problem();
    let pool = WorkspacePool::new(PoolConfig {
        slots: 2,
        max_wait: Duration::from_millis(5),
        ..PoolConfig::default()
    });

    // Raw lease: the typed error names the pressure.
    faults::arm_sites([Site::PoolSlotExhausted]);
    let layout = winrs_core::WorkspaceLayout::winrs(0, 1, 0, 0, 0);
    let err = pool
        .lease_for(&layout, Duration::from_millis(5))
        .map(|_| ())
        .expect_err("feigned-full pool must refuse");
    assert!(matches!(err, WinrsError::PoolExhausted { slots: 2, .. }), "{err}");
    assert!(err.recoverable_by_degradation());

    // Dispatched: Auto rides the ladder to a bitwise-clean substitute.
    let (dw, report) = handle(&pool).run(&conv, &x, &dy).expect("Auto degrades");
    assert_eq!(end_campaign(), vec![Site::PoolSlotExhausted]);
    assert_eq!(report.algorithm, Algorithm::GemmBfc);
    assert!(
        matches!(report.fallback_reason, Some(WinrsError::PoolExhausted { .. })),
        "{:?}",
        report.fallback_reason
    );
    let st = report.pool.expect("pool snapshot");
    assert!(st.exhausted >= 2, "{st}");
    assert_eq!(st.poisonings, 0, "exhaustion dirties nothing: {st}");
    let (dw_ref, _) = handle(&pool)
        .with_policy(FallbackPolicy::Force(Algorithm::GemmBfc))
        .run(&conv, &x, &dy)
        .expect("clean reference");
    assert_eq!(dw, dw_ref);
    assert!(mare(&dw, &exact) < 1e-5);
    assert_pool_clean(&pool);
}

/// Campaign 3 — deadline expiry under injected slowness. This seed used
/// to *pass* with the compounding behaviour (each ladder rung opened a
/// fresh deadline window, so a 5 ms deadline burned ~2× the injected
/// slowness before direct delivered); replayed against the shared-budget
/// semantics it must instead refuse fast with a typed error naming the
/// rung that could not start — the old outcome (an `Ok` direct result
/// after rungs× the window) is the failing case.
#[test]
fn deadline_expiry_refuses_fast_with_shared_budget() {
    let _g = faults::serial_guard();
    let (conv, x, dy, _) = problem();
    let pool = WorkspacePool::with_slots(1);

    let slow = Duration::from_millis(25);
    faults::arm_sites([Site::SlowBlockLoop]);
    faults::set_slow_ms(slow.as_millis() as u64);
    let t0 = std::time::Instant::now();
    let err = handle(&pool)
        .with_deadline(Some(Duration::from_millis(5)))
        .run(&conv, &x, &dy)
        .map(|(_, r)| r.algorithm)
        .expect_err("an expired shared budget refuses every rung");
    let elapsed = t0.elapsed();
    assert_eq!(end_campaign(), vec![Site::SlowBlockLoop]);

    match err {
        WinrsError::DeadlineExceeded { rung, .. } => {
            assert_eq!(rung, Some("gemm-bfc"), "names the rung reached");
        }
        other => panic!("expected DeadlineExceeded, got {other}"),
    }
    // One injected slowness, not one per rung: the pre-fix ladder paid
    // the slow site again on the degradation path before delivering.
    assert!(
        elapsed < slow * 2,
        "budget compounded across rungs again: {elapsed:?}"
    );
    // The ladder was entered once and refused — no second rung ran.
    assert_eq!(pool.stats().degradations, 1);
    assert_pool_clean(&pool);

    // A comfortable deadline with the same slowness still runs WinRS.
    faults::arm_sites([Site::SlowBlockLoop]);
    faults::set_slow_ms(2);
    let (dw_ok, report_ok) = handle(&pool)
        .with_deadline(Some(Duration::from_secs(30)))
        .run(&conv, &x, &dy)
        .expect("slowness within budget is not a failure");
    assert_eq!(end_campaign(), vec![Site::SlowBlockLoop]);
    assert_eq!(report_ok.algorithm, Algorithm::WinRs);
    let (dw_clean, _) = handle(&pool).run(&conv, &x, &dy).expect("clean run");
    assert_eq!(dw_ok, dw_clean, "slowness changed the numerics");
    assert_pool_clean(&pool);
}

/// Campaign 4 — allocation-budget refusal. The lease's arena growth is
/// denied; the untouched slot returns to the pool and the caller gets the
/// typed workspace violation (a caller-side contract error, deliberately
/// not degradable — degradation is for runtime misfortune, not for
/// budgets the caller set).
#[test]
fn allocation_budget_refusal_is_typed_and_leaves_pool_clean() {
    let _g = faults::serial_guard();
    let (conv, x, dy, _) = problem();
    let pool = WorkspacePool::with_slots(1);

    faults::arm_sites([Site::AllocBudget]);
    let err = handle(&pool)
        .run(&conv, &x, &dy)
        .map(|_| ())
        .expect_err("refused allocation is a typed error");
    assert_eq!(end_campaign(), vec![Site::AllocBudget]);
    assert!(matches!(err, WinrsError::ExecutionRejected(_)), "{err}");
    assert!(!err.violations().is_empty());
    let st = pool.stats();
    assert_eq!(st.poisonings, 0, "refusal dirties nothing: {st}");
    assert_pool_clean(&pool);

    // Disarmed, the same handle and pool immediately work again.
    let (dw, report) = handle(&pool).run(&conv, &x, &dy).expect("recovered");
    assert_eq!(report.algorithm, Algorithm::WinRs);
    assert!(dw.as_slice().iter().all(|v| v.is_finite()));
    assert_pool_clean(&pool);
}

/// Seed-replay determinism: the same campaign seed arms the same sites,
/// fires the same injections, and produces a bit-identical outcome —
/// twice over. This is what makes a chaos failure reportable as one u64.
#[test]
fn campaigns_replay_bit_identically() {
    let _g = faults::serial_guard();
    let (conv, x, dy, _) = problem();
    let seed = 0xC0FFEE;

    let mut runs = Vec::new();
    for _ in 0..2 {
        let c = faults::campaign(seed);
        let description = c.to_string();
        c.arm();
        let pool = WorkspacePool::with_slots(2);
        let outcome = handle(&pool)
            .with_guard(NumericGuard::PromoteAndRetry)
            .run(&conv, &x, &dy);
        let fired = end_campaign();
        assert_pool_clean(&pool);
        runs.push((description, fired, outcome.map(|(dw, r)| (dw, r.algorithm))));
    }
    let (d1, f1, o1) = &runs[0];
    let (d2, f2, o2) = &runs[1];
    assert_eq!(d1, d2, "campaign description must replay");
    assert_eq!(f1, f2, "fired sites must replay");
    match (o1, o2) {
        (Ok((dw1, alg1)), Ok((dw2, alg2))) => {
            assert_eq!(alg1, alg2, "replay picked a different ladder rung");
            assert_eq!(dw1, dw2, "replay is not bit-identical");
        }
        (Err(e1), Err(e2)) => assert_eq!(e1.stage(), e2.stage(), "{e1} vs {e2}"),
        (a, b) => panic!("outcomes diverged across replay: {a:?} vs {b:?}"),
    }
}

/// The sweep: a dozen seeded campaigns, every primary injection site
/// covered (the campaign space guarantees it within 12 consecutive
/// seeds). Each run ends in a bitwise-correct `∇W` — equal to a clean
/// chaos-free dispatch of whatever algorithm delivered — or a typed
/// error, with the pool fully leasable and counter-coherent after every
/// seed.
#[test]
fn seeded_campaign_sweep_always_contains_the_failure() {
    let _g = faults::serial_guard();
    let (conv, x, dy, exact) = problem();
    let mut outcomes = (0usize, 0usize); // (ok, typed-error)

    for seed in 0..12u64 {
        let c = faults::campaign(seed);
        c.arm();
        let pool = WorkspacePool::new(PoolConfig {
            slots: 2,
            // Small wait so feigned-exhaustion seeds fail fast.
            max_wait: Duration::from_millis(5),
            ..PoolConfig::default()
        });
        let result = handle(&pool)
            .with_guard(NumericGuard::PromoteAndRetry)
            .run(&conv, &x, &dy);
        let fired = end_campaign();
        assert!(
            !fired.is_empty(),
            "seed {seed}: campaign {c} never reached its injection site"
        );

        match result {
            Ok((dw, report)) => {
                // Bitwise-correct: clean rerun of the delivering rung.
                let clean = handle(&pool).with_guard(NumericGuard::PromoteAndRetry);
                let (dw_ref, _) = match report.algorithm {
                    Algorithm::WinRs => clean.run(&conv, &x, &dy),
                    alg => clean.with_policy(FallbackPolicy::Force(alg)).run(&conv, &x, &dy),
                }
                .expect("clean reference run");
                assert_eq!(
                    dw, dw_ref,
                    "seed {seed}: chaos changed the bits of a {:?} result",
                    report.algorithm
                );
                assert!(mare(&dw, &exact) < 1e-4, "seed {seed}");
                outcomes.0 += 1;
            }
            Err(err) => {
                // Typed, never an escaped panic (a panic would have
                // already failed the test harness).
                assert!(!err.stage().is_empty(), "seed {seed}: {err}");
                outcomes.1 += 1;
            }
        }
        assert_pool_clean(&pool);
    }
    // The campaign space covers both terminal outcomes.
    assert!(outcomes.0 > 0, "no campaign delivered a ∇W: {outcomes:?}");
    assert!(outcomes.1 > 0, "no campaign surfaced a typed error: {outcomes:?}");
}

/// Satellite 4 — `PromoteAndRetry` under concurrent execution over one
/// shared pool: FP16 runs that overflow (and repair via per-segment
/// promotion) on multiple threads at once must keep guard counters and
/// `MemoryFootprint.peak` coherent per report, repair every thread's
/// result, and leave the shared pool clean.
#[test]
fn concurrent_promote_and_retry_shares_the_pool_coherently() {
    // Holds the guard even though nothing is armed: a concurrent chaos
    // test would otherwise inject into these runs.
    let _g = faults::serial_guard();
    const THREADS: usize = 3;

    // The overflow-prone FP16 problem from the fallback suite: big ∇Y
    // saturates binary16 tiles, PromoteAndRetry reruns them in FP32.
    let conv = ConvShape::square(1, 12, 2, 2, 3);
    let x64 = Tensor4::<f64>::random_uniform([1, 12, 12, 2], 51, 1.0);
    let dy64 = Tensor4::<f64>::random_uniform([1, 12, 12, 2], 52, 6.0e4);
    let exact = direct::bfc_direct(&conv, &x64, &dy64);
    let x: Tensor4<f32> = x64.cast();
    let dy: Tensor4<f32> = dy64.cast();

    let pool = WorkspacePool::with_slots(2);
    let shared = ExecHandle::new(Arc::clone(&pool), RTX_4090, Precision::Fp16)
        .with_guard(NumericGuard::PromoteAndRetry);

    let results: Vec<_> = std::thread::scope(|s| {
        (0..THREADS)
            .map(|_| {
                let h = shared.clone();
                let (conv, x, dy) = (&conv, &x, &dy);
                s.spawn(move || h.run(conv, x, dy).expect("guarded run"))
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|j| j.join().expect("no escaped panic"))
            .collect()
    });

    // Single-threaded reference: the guarded executor on the same plan.
    let plan = pool
        .cached_plan(&conv, &RTX_4090, Precision::Fp16)
        .expect("in-envelope");
    let mut dw_ref = Tensor4::<f32>::zeros([conv.oc, conv.fh, conv.fw, conv.ic]);
    let report_ref = fallback::run_planned_into(
        &plan,
        &x,
        &dy,
        NumericGuard::PromoteAndRetry,
        &mut Workspace::new(),
        &mut dw_ref,
    )
    .expect("reference");
    assert!(report_ref.promoted_buckets > 0, "problem must actually overflow");

    for (dw, report) in &results {
        assert_eq!(report.algorithm, Algorithm::WinRs);
        // Guard counters are per-report, not smeared across threads.
        assert_eq!(report.promoted_buckets, report_ref.promoted_buckets);
        assert_eq!(report.promoted_segments, report_ref.promoted_segments);
        assert_eq!(dw, &dw_ref, "concurrent promoted run diverged bitwise");
        assert!(mare(dw, &exact) < 1e-1);
        // Footprint stays coherent under sharing: peak covers the plan.
        assert!(report.mem.workspace_bytes_peak >= report.mem.workspace_bytes_planned);
        assert_eq!(report.mem.hot_loop_allocs, 0);
    }
    let st = pool.stats();
    assert_eq!(st.leases, THREADS as u64, "{st}");
    assert_eq!(st.poisonings, 0, "{st}");
    assert_pool_clean(&pool);
}

/// A hot-loop panic inside a coalesced batch: the first job's panic
/// poisons the shared lease once and that job degrades to GEMM-BFC; the
/// remaining jobs re-lease and deliver WinRS bit-identical to clean
/// single runs, and the pool ends clean.
#[test]
fn panic_in_a_batch_poisons_the_shared_lease_once() {
    let _g = faults::serial_guard();
    let (conv, _, _, _) = problem();
    let operands: Vec<(Tensor4<f32>, Tensor4<f32>)> = (0..3u64)
        .map(|i| {
            (
                Tensor4::random_uniform([conv.n, conv.ih, conv.iw, conv.ic], 1100 + i, 1.0),
                Tensor4::random_uniform([conv.n, conv.oh(), conv.ow(), conv.oc], 1200 + i, 1.0),
            )
        })
        .collect();
    let clean = WorkspacePool::with_slots(1);
    let singles: Vec<Tensor4<f32>> = operands
        .iter()
        .map(|(x, dy)| handle(&clean).run(&conv, x, dy).expect("clean run").0)
        .collect();
    let (x0, dy0) = &operands[0];
    let (gemm0, _) = handle(&clean)
        .with_policy(FallbackPolicy::Force(Algorithm::GemmBfc))
        .run(&conv, x0, dy0)
        .expect("clean reference");

    // The site is a standing condition; disarm it from the panic hook so
    // exactly the job in flight panics. Every worker that already polled
    // the armed site panics inside that same job, so one lease is poisoned.
    std::panic::set_hook(Box::new(|_| {
        faults::disarm_sites();
    }));
    faults::arm_sites([Site::HotLoopPanic]);
    let pool = WorkspacePool::with_slots(1);
    let jobs = operands
        .iter()
        .map(|(x, dy)| BfcJob::new(x.clone(), dy.clone()))
        .collect();
    let results = handle(&pool).run_batch(&conv, jobs);
    let _ = std::panic::take_hook();
    assert_eq!(end_campaign(), vec![Site::HotLoopPanic]);

    let mut results = results.into_iter();
    let (dw, report) = results
        .next()
        .expect("three results")
        .expect("Auto contains the panic");
    assert_eq!(report.algorithm, Algorithm::GemmBfc);
    assert!(
        matches!(
            report.fallback_reason,
            Some(WinrsError::ExecutionPanicked { .. })
        ),
        "{:?}",
        report.fallback_reason
    );
    assert_eq!(dw, gemm0, "degraded ∇W differs from clean GEMM-BFC");
    for (result, reference) in results.zip(&singles[1..]) {
        let (dw, report) = result.expect("later jobs run clean");
        assert_eq!(report.algorithm, Algorithm::WinRs);
        assert_eq!(
            &dw, reference,
            "re-leased job diverged from its clean single run"
        );
    }
    let st = pool.stats();
    assert_eq!(
        (st.poisonings, st.rebuilds, st.degradations),
        (1, 1, 1),
        "{st}"
    );
    assert_eq!(
        st.leases, 2,
        "one lease poisoned, one re-lease for the rest: {st}"
    );
    assert_pool_clean(&pool);
}

#[test]
fn injector_fires_once_per_armed_segment() {
    let _g = faults::serial_guard();
    faults::arm([0, 2]);
    let mut tile = vec![1.0f32; 4];
    faults::maybe_inject(0, TileMode::Fp16, &mut tile);
    assert_eq!(tile[0], 1.0e30);
    tile[0] = 1.0;
    // Second poll of the same segment: no further fault.
    faults::maybe_inject(0, TileMode::Fp16, &mut tile);
    assert_eq!(tile[0], 1.0);
    // Unarmed segment: untouched.
    faults::maybe_inject(1, TileMode::Fp16, &mut tile);
    assert_eq!(tile[0], 1.0);
    assert_eq!(faults::fired(), vec![0]);
    assert_eq!(faults::disarm(), vec![0]);
}

#[test]
fn injector_skips_fp32() {
    let _g = faults::serial_guard();
    faults::arm([0]);
    let mut tile = vec![1.0f32; 4];
    faults::maybe_inject(0, TileMode::Fp32, &mut tile);
    assert_eq!(tile[0], 1.0, "FP32 has no rounding step to corrupt");
    assert!(faults::fired().is_empty());
    faults::disarm();
}

#[test]
fn sites_stay_armed_and_record_first_firing() {
    let _g = faults::serial_guard();
    faults::arm_sites([Site::PoolSlotExhausted]);
    assert!(faults::fire_if_armed(Site::PoolSlotExhausted));
    assert!(
        faults::fire_if_armed(Site::PoolSlotExhausted),
        "sites are persistent"
    );
    assert!(!faults::fire_if_armed(Site::AllocBudget));
    assert_eq!(faults::fired_sites(), vec![Site::PoolSlotExhausted]);
    assert_eq!(faults::disarm_sites(), vec![Site::PoolSlotExhausted]);
    assert!(!faults::fire_if_armed(Site::PoolSlotExhausted), "disarmed");
}

#[test]
fn maybe_panic_raises_only_when_armed() {
    let _g = faults::serial_guard();
    faults::disarm_sites();
    faults::maybe_panic(Site::HotLoopPanic); // disarmed: no panic
    faults::arm_sites([Site::HotLoopPanic]);
    let r = std::panic::catch_unwind(|| faults::maybe_panic(Site::HotLoopPanic));
    assert!(r.is_err(), "armed site must panic");
    assert_eq!(faults::disarm_sites(), vec![Site::HotLoopPanic]);
}

#[test]
fn campaign_arm_disarm_round_trips() {
    let _g = faults::serial_guard();
    // Seed 3 maps to a campaign; whatever it is, arming then disarming
    // must leave the injector inert.
    let c = faults::campaign(3);
    c.arm();
    let (_sites, _segs) = c.disarm();
    assert!(!faults::fire_if_armed(Site::HotLoopPanic));
    assert!(!faults::fire_if_armed(Site::PoolSlotExhausted));
    assert!(faults::fired().is_empty());
}
