//! Acceptance tests for the cost-model autotuner that owns algorithm
//! dispatch:
//!
//! 1. The cost model is strictly positive on the paper's fig10/fig11
//!    sweep shapes and monotone under dimension doubling — the sanity
//!    floor for trusting it with dispatch decisions.
//! 2. On fig10 FP32 the tuner-dispatched algorithm is never modelled
//!    more than 2% slower than always-WinRS, and is strictly faster on
//!    at least one shape where the model prefers an alternative.
//! 3. A torn (half-written) tuning database — injected by the chaos
//!    harness's `tune-db-torn` site — surfaces as a typed warning and
//!    dispatch continues from the cost model alone; it never panics.
//! 4. There is one dispatch path: `ExecHandle::run` and
//!    `ExecHandle::run_batch` run the algorithm the tuner chose — on a
//!    shape where the model prefers a substitute, and when WinRS is
//!    rejected (then the tuner's best-ranked non-WinRS candidate).
//!
//! The fault injector's state is process-global, so the test that arms it
//! holds `faults::serial_guard()`.

use winrs::conv::ConvShape;
use winrs::core::faults;
use winrs::core::tuner::{self, device_key, AlgoChoice, TuneDbWarning, TunedEntry, Tuner, TunerConfig};
use winrs::core::{BfcJob, ExecHandle, Precision, WorkspacePool};
use winrs::gpu::{RTX_3090, RTX_4090};
use winrs::tensor::Tensor4;
use winrs_bench::throughput_dims;

/// The fig10/fig11 shape sweep: constant-complexity dimension series over
/// filter sizes 3/5/7/9 (fp32 and fp16 are the two figures' precisions).
fn paper_shapes() -> Vec<ConvShape> {
    [3usize, 5, 7, 9]
        .iter()
        .flat_map(|&f| throughput_dims(f))
        .map(|w| w.shape)
        .collect()
}

#[test]
fn cost_model_is_strictly_positive_on_paper_sweeps() {
    for shape in paper_shapes() {
        for device in [&RTX_4090, &RTX_3090] {
            for precision in [Precision::Fp32, Precision::Fp16] {
                let ranked = tuner::rank(&shape, device, precision);
                assert!(!ranked.is_empty(), "{shape:?}: no candidates");
                for c in &ranked {
                    assert!(
                        c.predicted_s > 0.0 && c.predicted_s.is_finite(),
                        "{shape:?} {} {precision:?}: {} predicted {}",
                        device.name,
                        c.algo,
                        c.predicted_s
                    );
                }
            }
        }
    }
}

#[test]
fn cost_model_is_monotone_under_dimension_doubling() {
    // Doubling any one extent of the problem can never make a candidate's
    // modelled time smaller (the work strictly grows).
    let base = ConvShape::square(8, 28, 32, 32, 3);
    let doubled = [
        ("N", ConvShape::square(16, 28, 32, 32, 3)),
        ("H/W", ConvShape::square(8, 56, 32, 32, 3)),
        ("C", ConvShape::square(8, 28, 64, 32, 3)),
        ("K", ConvShape::square(8, 28, 32, 64, 3)),
    ];
    for precision in [Precision::Fp32, Precision::Fp16] {
        let before = tuner::rank(&base, &RTX_4090, precision);
        for (dim, big) in &doubled {
            let after = tuner::rank(big, &RTX_4090, precision);
            for b in &before {
                let Some(a) = after.iter().find(|c| c.algo == b.algo) else {
                    continue;
                };
                assert!(
                    a.predicted_s >= b.predicted_s,
                    "{precision:?} {}: doubling {dim} went {} -> {} s",
                    b.algo,
                    b.predicted_s,
                    a.predicted_s
                );
            }
        }
    }
}

#[test]
fn tuner_dispatch_never_loses_to_always_winrs_on_fig10() {
    let mut t = Tuner::new(TunerConfig {
        capacity: 64,
        ..TunerConfig::default()
    });
    for shape in paper_shapes() {
        let d = t.decide(&shape, &RTX_4090, Precision::Fp32);
        let chosen_s = d.predicted_for(d.chosen).expect("chosen is ranked");
        let winrs_s = d
            .predicted_for(AlgoChoice::WinRs)
            .expect("WinRS viable on every fig10 fp32 shape");
        assert!(
            chosen_s <= 1.02 * winrs_s,
            "{shape:?}: tuner pick {} ({chosen_s} s) loses to WinRS ({winrs_s} s)",
            d.chosen
        );
    }
    // And strictly faster somewhere the model prefers an alternative: the
    // wide-but-shallow f=2 shape from the accuracy sweep.
    let anchor = ConvShape::square(2, 32, 4, 4, 2);
    let d = t.decide(&anchor, &RTX_4090, Precision::Fp32);
    assert_ne!(d.chosen, AlgoChoice::WinRs, "model must prefer a substitute");
    assert!(d.winrs_rejection.is_none(), "WinRS stays viable — pure choice");
    let chosen_s = d.predicted_for(d.chosen).expect("ranked");
    let winrs_s = d.predicted_for(AlgoChoice::WinRs).expect("ranked");
    assert!(
        chosen_s < winrs_s,
        "substitute {} ({chosen_s} s) must beat WinRS ({winrs_s} s)",
        d.chosen
    );
}

#[test]
fn torn_tune_db_warns_and_dispatch_continues() {
    let _g = faults::serial_guard();
    let path = std::env::temp_dir().join(format!(
        "winrs-torn-tune-db-{}.json",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);

    let conv = ConvShape::square(2, 16, 4, 4, 3);
    let mut t = Tuner::new(TunerConfig::default());
    assert!(t.attach_db(&path).is_none(), "missing file is not an error");
    let d = t.decide(&conv, &RTX_4090, Precision::Fp32);
    t.db_mut().insert(
        &device_key(&RTX_4090),
        &conv,
        Precision::Fp32,
        TunedEntry {
            algo: d.chosen,
            predicted_s: d.stats.predicted_s,
            measured_s: None,
            trials: 0,
        },
    );

    // Arm the torn-write chaos site: save() emits half a document, as a
    // crash mid-write would.
    faults::arm_sites([faults::Site::TuneDbTorn]);
    t.save().expect("the torn write itself succeeds");
    assert_eq!(faults::disarm_sites(), vec![faults::Site::TuneDbTorn]);
    assert!(
        faults::fired_sites().contains(&faults::Site::TuneDbTorn),
        "the site must actually fire"
    );

    // Reload: the torn file warns (typed, never a panic) and leaves an
    // empty database — dispatch continues from the cost model alone.
    let mut t2 = Tuner::new(TunerConfig::default());
    let warning = t2.attach_db(&path).expect("torn db must warn");
    assert!(matches!(warning, TuneDbWarning::Parse { .. }), "{warning}");
    assert!(t2.db().is_empty());
    let d2 = t2.decide(&conv, &RTX_4090, Precision::Fp32);
    assert_eq!(d2.chosen, d.chosen, "model dispatch unaffected by the tear");
    assert_eq!(t2.counters().db_misses, 1);

    // A clean save repairs the file for the next process.
    t2.db_mut().insert(
        &device_key(&RTX_4090),
        &conv,
        Precision::Fp32,
        TunedEntry {
            algo: d2.chosen,
            predicted_s: d2.stats.predicted_s,
            measured_s: None,
            trials: 0,
        },
    );
    t2.save().expect("clean save");
    let mut t3 = Tuner::new(TunerConfig::default());
    assert!(t3.attach_db(&path).is_none());
    assert_eq!(t3.db().len(), 1);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn empty_tune_db_warns_once_and_is_repaired_by_next_save() {
    // Regression (PR 8): a zero-byte database file — a crash between
    // `create` and the first write — used to be indistinguishable from a
    // torn document (`TuneDbWarning::Parse`), and the standing warning
    // re-surfaced on every lookup. It is now its own variant, delivered
    // once, and the next successful save repairs the file.
    let _g = faults::serial_guard();
    let path = std::env::temp_dir().join(format!(
        "winrs-empty-tune-db-{}.json",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let conv = ConvShape::square(2, 16, 4, 4, 3);

    // Arm the empty-write chaos site: save() leaves zero bytes behind.
    let mut t = Tuner::new(TunerConfig::default());
    assert!(t.attach_db(&path).is_none());
    let d = t.decide(&conv, &RTX_4090, Precision::Fp32);
    t.db_mut().insert(
        &device_key(&RTX_4090),
        &conv,
        Precision::Fp32,
        TunedEntry {
            algo: d.chosen,
            predicted_s: d.stats.predicted_s,
            measured_s: None,
            trials: 0,
        },
    );
    faults::arm_sites([faults::Site::TuneDbEmpty]);
    t.save().expect("the empty write itself succeeds");
    assert_eq!(faults::disarm_sites(), vec![faults::Site::TuneDbEmpty]);
    assert_eq!(
        std::fs::metadata(&path).expect("file exists").len(),
        0,
        "the chaos site must leave a zero-byte file"
    );

    // Reload: the dedicated variant, not Parse — and the database loads
    // empty so dispatch continues from the cost model alone.
    let mut t2 = Tuner::new(TunerConfig::default());
    let warning = t2.attach_db(&path).expect("empty db must warn");
    assert!(matches!(warning, TuneDbWarning::Empty { .. }), "{warning}");
    assert!(warning.to_string().contains("empty file"), "{warning}");
    assert!(t2.db().is_empty());

    // Emit-once dedupe: the first poll sees the warning, later per-lookup
    // polls stay silent while the standing warning remains peekable.
    assert!(t2.warning_once().is_some(), "first poll delivers");
    let _ = t2.decide(&conv, &RTX_4090, Precision::Fp32);
    assert!(t2.warning_once().is_none(), "second poll is deduped");
    let _ = t2.decide(&conv, &RTX_4090, Precision::Fp32);
    assert!(t2.warning_once().is_none(), "lookups do not re-arm it");
    assert!(t2.warning().is_some(), "peek still sees the standing warning");

    // The next clean save repairs the file in place and clears the
    // warning; a fresh process loads it without complaint.
    t2.db_mut().insert(
        &device_key(&RTX_4090),
        &conv,
        Precision::Fp32,
        TunedEntry {
            algo: d.chosen,
            predicted_s: d.stats.predicted_s,
            measured_s: None,
            trials: 0,
        },
    );
    t2.save().expect("repairing save");
    assert!(t2.warning().is_none(), "repair clears the standing warning");
    let mut t3 = Tuner::new(TunerConfig::default());
    assert!(t3.attach_db(&path).is_none(), "repaired file loads clean");
    assert_eq!(t3.db().len(), 1);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn run_and_run_batch_choose_the_same_algorithm() {
    for (conv, precision) in [
        // The tuner prefers direct convolution on this wide, shallow f=2
        // shape although WinRS is viable.
        (ConvShape::square(2, 32, 4, 4, 2), Precision::Fp32),
        // F_W = 4 has no FP16 kernel: WinRS is rejected.
        (ConvShape::square(1, 16, 3, 3, 4), Precision::Fp16),
    ] {
        let chosen = Tuner::new(TunerConfig::default())
            .decide(&conv, &RTX_4090, precision)
            .chosen;
        assert_ne!(chosen, AlgoChoice::WinRs, "{conv:?} {precision:?}");
        let best_sub = tuner::rank(&conv, &RTX_4090, precision)
            .into_iter()
            .map(|c| c.algo)
            .find(|a| *a != AlgoChoice::WinRs)
            .expect("a substitute always ranks");
        assert_eq!(
            chosen, best_sub,
            "the substitute is the tuner's best-ranked one"
        );

        let x = Tensor4::<f32>::random_uniform([conv.n, conv.ih, conv.iw, conv.ic], 31, 1.0);
        let dy = Tensor4::<f32>::random_uniform([conv.n, conv.oh(), conv.ow(), conv.oc], 32, 0.01);
        let handle = |pool| ExecHandle::new(pool, RTX_4090, precision);
        let (dw, single) = handle(WorkspacePool::with_slots(1))
            .run(&conv, &x, &dy)
            .expect("run delivers");
        let (dw_batch, batched) = handle(WorkspacePool::with_slots(1))
            .run_batch(&conv, vec![BfcJob::new(x.clone(), dy.clone())])
            .pop()
            .expect("one result per job")
            .expect("run_batch delivers");
        assert_eq!(
            single.algorithm,
            chosen.algorithm(),
            "{conv:?} {precision:?}"
        );
        assert_eq!(
            batched.algorithm, single.algorithm,
            "{conv:?} {precision:?}"
        );
        assert_eq!(batched.chosen, single.chosen);
        assert_eq!(dw_batch, dw, "same algorithm, same bits");
    }
}
