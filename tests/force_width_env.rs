//! `WINRS_FORCE_WIDTH` is read at the top of every `ExecHandle` job, so
//! it holds on every dispatch rung: a valid pin reaches the substitutes'
//! GEMM tiles in a fresh process, and a junk token or a width no member
//! of the family answers to (`neon`) is refused with the same typed
//! `ExecutionRejected` under every policy, before any lease or
//! degradation.
//!
//! The test sets the process environment, which every dispatch reads, so
//! it is the only test of its binary.

use std::sync::Arc;
use winrs::conv::ConvShape;
use winrs::core::{
    Algorithm, BfcJob, ExecHandle, FallbackPolicy, Precision, Violation, WinrsError, WorkspacePool,
};
use winrs::gemm::micro::{self, SimdWidth, FORCE_WIDTH_ENV};
use winrs::gpu::RTX_4090;
use winrs::tensor::Tensor4;

fn operands(conv: &ConvShape) -> (Tensor4<f32>, Tensor4<f32>) {
    let x = Tensor4::<f32>::random_uniform([conv.n, conv.ih, conv.iw, conv.ic], 5, 1.0);
    let dy = Tensor4::<f32>::random_uniform([conv.n, conv.oh(), conv.ow(), conv.oc], 6, 1.0);
    (x, dy)
}

#[test]
fn width_pin_holds_on_every_rung() {
    use Algorithm::{Direct, FftBfc, GemmBfc, WinRs};
    use FallbackPolicy::{Auto, Force, Strict};
    let to_direct = ConvShape::square(2, 32, 4, 4, 2);
    let to_gemm = ConvShape::square(1, 16, 3, 3, 4);
    let (fp32, fp16) = (Precision::Fp32, Precision::Fp16);
    let handle = |pool: &Arc<WorkspacePool>, precision, policy| {
        ExecHandle::new(Arc::clone(pool), RTX_4090, precision).with_policy(policy)
    };

    // Without a pin, Auto routes these keys to the substitutes, so the
    // cases below keep covering those rungs.
    for (conv, precision, want) in [(to_direct, fp32, Direct), (to_gemm, fp16, GemmBfc)] {
        let (x, dy) = operands(&conv);
        let (_, report) = handle(&WorkspacePool::with_slots(1), precision, Auto)
            .run(&conv, &x, &dy)
            .expect("unpinned dispatch runs");
        assert_eq!(report.algorithm, want, "Auto routes elsewhere now");
    }
    assert_eq!(micro::forced_width(), None);

    // A valid pin applies before the first substitute runs.
    std::env::set_var(FORCE_WIDTH_ENV, "scalar");
    let (x, dy) = operands(&to_gemm);
    handle(&WorkspacePool::with_slots(1), fp32, Force(GemmBfc))
        .run(&to_gemm, &x, &dy)
        .expect("scalar is always available");
    assert_eq!(micro::forced_width(), Some(SimdWidth::Scalar));

    let cases = [
        ("auto->direct", to_direct, fp32, Auto),
        ("auto->gemm", to_gemm, fp16, Auto),
        ("strict", to_direct, fp32, Strict),
        ("force-winrs", to_direct, fp32, Force(WinRs)),
        ("force-gemm", to_direct, fp32, Force(GemmBfc)),
        ("force-fft", to_direct, fp32, Force(FftBfc)),
        ("force-direct", to_direct, fp32, Force(Direct)),
    ];
    for token in ["avx1024", "neon"] {
        std::env::set_var(FORCE_WIDTH_ENV, token);
        let want = WinrsError::ExecutionRejected(vec![Violation::SimdWidthUnavailable {
            requested: token.to_string(),
            detected: micro::detected_width().name(),
        }]);
        for (label, conv, precision, policy) in cases {
            let pool = WorkspacePool::with_slots(1);
            let h = handle(&pool, precision, policy);
            let (x, dy) = operands(&conv);
            let single = h.run(&conv, &x, &dy).map(|_| ());
            let batched = h
                .run_batch(&conv, vec![BfcJob::new(x, dy)])
                .remove(0)
                .map(|_| ());
            for (path, result) in [("run", single), ("run_batch", batched)] {
                assert_eq!(result, Err(want.clone()), "{token} {label}/{path}");
            }
            let st = pool.stats();
            assert_eq!((st.leases, st.degradations), (0, 0), "{token} {label}");
        }
    }
    std::env::remove_var(FORCE_WIDTH_ENV);
    micro::force_width(None).expect("auto always pins");
}
