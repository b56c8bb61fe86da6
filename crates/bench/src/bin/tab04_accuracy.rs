//! E12 — Table 4: MAREs of all algorithms against FP64 ground truth.
//!
//! Fully real computation (no modelling): uniform-[0,1] tensors, ∇Y scaled
//! by 10⁻² for the FP16 tests, MARE against the f64 direct convolution.
//! Shapes come from the reduced-scale accuracy sweep (`accuracy_sweep`),
//! grouped by the α of the WinRS kernel actually selected, like the
//! paper's Ω₄/Ω₈/Ω₁₆ rows.

use winrs_bench::{accuracy_sweep, Algo, Table};
use winrs_conv::direct;
use winrs_core::{Precision, WinRsPlan};
use winrs_gpu_sim::RTX_4090;
use winrs_tensor::{mare, Tensor4};

fn main() {
    println!("Table 4 — MAREs against FP64 ground truth (real execution)\n");
    let sweep = accuracy_sweep();

    // Collect (algo-row, fp32 mares, fp16 mares) keyed by display name.
    let mut rows: std::collections::BTreeMap<String, (Vec<f64>, Vec<f64>)> = Default::default();
    let mut fp16_skipped = 0usize;

    for w in &sweep {
        let s = &w.shape;
        let x64 = Tensor4::<f64>::random_uniform([s.n, s.ih, s.iw, s.ic], 100, 1.0);
        let dy64 = Tensor4::<f64>::random_uniform([s.n, s.oh(), s.ow(), s.oc], 101, 1.0);
        let exact = direct::bfc_direct(s, &x64, &dy64);
        // FP16 inputs: ∇Y scaled by 1e-2 to avoid overflow (paper §6.3).
        let dy64_16 = dy64.scale(0.01);
        let exact16 = direct::bfc_direct(s, &x64, &dy64_16);

        // WinRS rows are keyed by the selected kernel's α, which can differ
        // between the FP32 and the FP16 plan of one shape.
        let winrs_key = |plan: &WinRsPlan| format!("WinRS Omega_{}(n,r)", plan.pair().bulk.alpha());
        let plan32 = WinRsPlan::new(s, &RTX_4090, Precision::Fp32).expect("benchmark shape is inside the WinRS envelope");
        let m32 = mare(
            &plan32
                .execute_f32(&x64.cast(), &dy64.cast())
                .expect("FP32 plan accepts FP32 tensors"),
            &exact,
        );
        rows.entry(winrs_key(&plan32)).or_default().0.push(m32);

        // Only keys with an FP16 WinRS kernel have an FP16 plan.
        if Algo::WinRs.supports(s, Precision::Fp16) {
            let plan16 = WinRsPlan::new(s, &RTX_4090, Precision::Fp16)
                .expect("supports admitted the FP16 key");
            let m16 = mare(
                &plan16
                    .execute_f16(&x64.cast(), &dy64_16.cast())
                    .expect("FP16 plan accepts FP16 tensors"),
                &exact16,
            );
            rows.entry(winrs_key(&plan16)).or_default().1.push(m16);
        } else {
            fp16_skipped += 1;
        }

        // Baselines.
        for algo in [Algo::CuFft, Algo::CuAlgo0, Algo::CuAlgo1, Algo::CuWinNF] {
            if !algo.supports(s, Precision::Fp32) && algo != Algo::CuAlgo1 {
                continue;
            }
            if algo == Algo::CuWinNF && !algo.supports(s, Precision::Fp32) {
                continue;
            }
            let key = algo.name().to_string();
            let dw = algo.execute_f32(s, &RTX_4090, &x64.cast(), &dy64.cast());
            rows.entry(key.clone()).or_default().0.push(mare(&dw, &exact));
            if algo.supports(s, Precision::Fp16) {
                let dw16 = algo.execute_f16(s, &RTX_4090, &x64.cast(), &dy64_16.cast());
                rows.entry(key).or_default().1.push(mare(&dw16, &exact16));
            }
        }
    }

    let fmt = |v: &[f64], pick_min: bool| -> String {
        if v.is_empty() {
            return "-".into();
        }
        let m = if pick_min {
            v.iter().copied().fold(f64::INFINITY, f64::min)
        } else {
            v.iter().copied().fold(0.0, f64::max)
        };
        format!("{m:.2e}")
    };

    let mut t = Table::new(&["Algorithm", "FP32: min", "FP32: max", "FP16: min", "FP16: max"]);
    for (name, (fp32, fp16)) in &rows {
        t.row(vec![
            name.clone(),
            fmt(fp32, true),
            fmt(fp32, false),
            fmt(fp16, true),
            fmt(fp16, false),
        ]);
    }
    t.print();
    println!(
        "\nWinRS FP16 columns: {} of {} keys skipped (no FP16 WinRS kernel for their filter width)",
        fp16_skipped,
        sweep.len()
    );

    println!(
        "\nExpected shape (paper Table 4): FP32 WinRS Omega_4/Omega_8 ~1e-7,\n\
         Omega_16 ~1e-5; FP16 WinRS ~1e-4..1e-2; Cu-Algo0/FFT best FP32;\n\
         Cu-Algo1 and Cu-WinNF degrade sharply in FP16."
    );
}
