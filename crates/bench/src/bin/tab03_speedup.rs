//! E9 — Table 3: WinRS speedup over the cuDNN baselines, per filter size,
//! in the paper's "average: min–max" cell format.
//!
//! Times come from the analytic GPU model (see DESIGN.md substitution
//! table) fed with each algorithm's real FLOP/traffic/launch geometry.

use winrs_bench::{cu_gemm_best, paper_sweep, Algo, Table};
use winrs_core::Precision;
use winrs_gpu_sim::{DeviceSpec, A5000, L40S, RTX_3090, RTX_4090};

fn cell(speedups: &[f64]) -> String {
    if speedups.is_empty() {
        return "N/A".into();
    }
    let avg = speedups.iter().sum::<f64>() / speedups.len() as f64;
    let min = speedups.iter().copied().fold(f64::INFINITY, f64::min);
    let max = speedups.iter().copied().fold(0.0f64, f64::max);
    format!("{avg:.2}: {min:.2}-{max:.2}")
}

fn speedup_table(device: &DeviceSpec, precision: Precision, filters: &[usize]) {
    let sweep = paper_sweep();
    let mut t = Table::new(&["F_HxF_W", "vs Cu-GEMM", "vs Cu-FFT", "vs Cu-WinNF"]);
    for &f in filters {
        let mut vs_gemm = Vec::new();
        let mut vs_fft = Vec::new();
        let mut vs_winnf = Vec::new();
        for w in sweep.iter().filter(|w| w.shape.fh == f) {
            let winrs = Algo::WinRs.costs(&w.shape, device, precision).time;
            if Algo::CuAlgo1.supports(&w.shape, precision) {
                vs_gemm.push(cu_gemm_best(&w.shape, device, precision).time / winrs);
            }
            if Algo::CuFft.supports(&w.shape, precision) {
                vs_fft.push(Algo::CuFft.costs(&w.shape, device, precision).time / winrs);
            }
            if Algo::CuWinNF.supports(&w.shape, precision) {
                vs_winnf.push(Algo::CuWinNF.costs(&w.shape, device, precision).time / winrs);
            }
        }
        t.row(vec![
            format!("{f}x{f}"),
            cell(&vs_gemm),
            cell(&vs_fft),
            cell(&vs_winnf),
        ]);
    }
    t.print();
}

fn main() {
    println!("Table 3 — WinRS speedup over cuDNN (modelled; 'average: min-max')\n");
    let all: Vec<usize> = (2..=9).collect();
    let fp16_filters = [3usize, 5, 7, 9];

    for device in [&RTX_4090, &RTX_3090] {
        println!("== FP32: {} ==", device.name);
        speedup_table(device, Precision::Fp32, &all);
        println!();
    }
    for device in [&RTX_4090, &L40S, &A5000] {
        println!("== FP16: {} ==", device.name);
        speedup_table(device, Precision::Fp16, &fp16_filters);
        println!();
    }

    // The paper's FP16-vs-FP32 headline: 3.27x average, over the keys
    // that have an FP16 WinRS kernel (the planner refuses the others).
    let sweep = paper_sweep();
    let mut ratios = Vec::new();
    for w in sweep
        .iter()
        .filter(|w| Algo::WinRs.supports(&w.shape, Precision::Fp16))
    {
        let t32 = Algo::WinRs.costs(&w.shape, &RTX_4090, Precision::Fp32).time;
        let t16 = Algo::WinRs.costs(&w.shape, &RTX_4090, Precision::Fp16).time;
        ratios.push(t32 / t16);
    }
    println!(
        "WinRS FP16 Tensor-Core vs FP32 CUDA-Core speedup on RTX 4090: {:.2}x average over {} keys (paper: 3.27x); {} keys skipped: no FP16 WinRS kernel",
        ratios.iter().sum::<f64>() / ratios.len() as f64,
        ratios.len(),
        sweep.len() - ratios.len()
    );
}
