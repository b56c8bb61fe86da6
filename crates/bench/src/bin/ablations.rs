//! E16 — ablations of the design choices DESIGN.md §5 calls out:
//!
//! 1. hybrid-pair split vs single zero-padded kernel (FLOP overhead);
//! 2. segment-count sweep around Algorithm 1's choice (modelled time +
//!    workspace, and host time on a CPU-sized shape);
//! 3. even/odd transform symmetry (multiplication counts, all kernels);
//! 4. Kahan vs naive binary16 reduction (real accuracy);
//! 5. height-axis padding clip (predicted vs measured savings).

use std::time::Instant;

use winrs_bench::Table;
use winrs_conv::{direct, ConvShape};
use winrs_core::engine::{clip_savings_fraction, clipped_rows_total};
use winrs_core::fallback::run_planned_into;
use winrs_core::{NumericGuard, Precision, WinRsPlan, Workspace};
use winrs_gpu_sim::RTX_4090;
use winrs_tensor::{mare, Tensor4};
use winrs_winograd::kernels::WINRS_KERNELS;
use winrs_winograd::symmetry::SymmetryPlan;

fn ablation_pair_split() {
    println!("== Ablation 1: hybrid pair vs single zero-padded kernel ==\n");
    let mut t = Table::new(&[
        "F_W",
        "O_W",
        "pair (bulk+res)",
        "pair FLOP overhead",
        "single padded kernel",
        "padded FLOP overhead",
    ]);
    for &(fw, ow) in &[(3usize, 16usize), (3, 56), (3, 224), (5, 100), (7, 52)] {
        let pair = winrs_core::config::pair::select_pair(fw, ow, Precision::Fp32);
        // A single-kernel alternative: pad O_W up to a multiple of the bulk
        // r and process phantom columns.
        let r0 = pair.bulk.r;
        let padded_ow = ow.div_ceil(r0) * r0;
        let pair_cols = pair.bulk_width() + pair.residual_width();
        // Relative executed width (phantom columns cost full EWM work).
        let pair_overhead = pair_cols as f64 / ow as f64 - 1.0;
        let single_overhead = padded_ow as f64 / ow as f64 - 1.0;
        t.row(vec![
            fw.to_string(),
            ow.to_string(),
            format!(
                "{} + {}",
                pair.bulk,
                pair.residual.map_or("-".to_string(), |k| k.to_string())
            ),
            format!("{:.1}%", 100.0 * pair_overhead),
            format!("{} cols via {}", padded_ow, pair.bulk),
            format!("{:.1}%", 100.0 * single_overhead),
        ]);
    }
    t.print();
    println!("\nThe hybrid split avoids the zero-padding overhead entirely (§3 Level 3).\n");
}

fn ablation_z_sweep() {
    println!("== Ablation 2: segment-count sweep ==\n");
    println!("VGG16 conv2 on the RTX 4090 model:\n");
    z_sweep(
        &ConvShape::vgg16_conv2(32),
        &[1, 2, 4, 8, 16, 32, 48, 64, 128, 256],
        None,
    );
    // The modelled shape is far too large to execute here; a CPU-sized
    // shape adds the time each Z actually takes on this host.
    let shape = ConvShape::square(2, 48, 8, 8, 3);
    let x = Tensor4::<f32>::random_uniform([2, 48, 48, 8], 3, 1.0);
    let dy = Tensor4::<f32>::random_uniform([2, 48, 48, 8], 4, 1.0);
    println!("2x48x48, 8 -> 8 channels, f = 3, host time measured on this CPU:\n");
    z_sweep(&shape, &[1, 2, 4, 8, 16], Some((&x, &dy)));
}

/// Warm runs timed per host-measured row; the row reports their median.
const HOST_RUNS: usize = 31;

/// One row per requested Z: the plan's actual Z, modelled time and
/// workspace. With operands, a last column holds the median wall time of
/// warm `run_planned_into` calls over one reused workspace.
fn z_sweep(shape: &ConvShape, zs: &[usize], host: Option<(&Tensor4<f32>, &Tensor4<f32>)>) {
    let auto = WinRsPlan::new(shape, &RTX_4090, Precision::Fp32)
        .expect("benchmark shape is inside the WinRS envelope");
    let mut header = vec![
        "requested Z",
        "actual Z",
        "modelled time (us)",
        "workspace (KB)",
    ];
    if host.is_some() {
        header.push("host time (us)");
    }
    let mut t = Table::new(&header);
    let mut ws = Workspace::new();
    let mut dw = Tensor4::<f32>::zeros([shape.oc, shape.fh, shape.fw, shape.ic]);
    let mut best = (0usize, f64::INFINITY);
    for &z in zs {
        let plan = WinRsPlan::with_z_hat(shape, &RTX_4090, Precision::Fp32, z)
            .expect("benchmark shape is inside the WinRS envelope");
        let time = plan.estimated_time();
        if time < best.1 {
            best = (plan.z(), time);
        }
        let mut row = vec![
            z.to_string(),
            plan.z().to_string(),
            format!("{:.1}", time * 1e6),
            format!("{:.1}", plan.workspace_bytes() as f64 / 1e3),
        ];
        if let Some((x, dy)) = host {
            let mut run = || {
                let start = Instant::now();
                run_planned_into(&plan, x, dy, NumericGuard::Ignore, &mut ws, &mut dw)
                    .expect("FP32 plan accepts FP32 tensors");
                start.elapsed().as_secs_f64()
            };
            run(); // grows the workspace to this plan's layout
            let mut secs: Vec<f64> = (0..HOST_RUNS).map(|_| run()).collect();
            secs.sort_by(f64::total_cmp);
            row.push(format!("{:.1}", secs[HOST_RUNS / 2] * 1e6));
        }
        t.row(row);
    }
    t.print();
    println!(
        "\nAlgorithm 1 chose Z = {} ({:.1} us modelled); modelled minimum at Z = {} ({:.1} us).\n",
        auto.z(),
        auto.estimated_time() * 1e6,
        best.0,
        best.1 * 1e6
    );
}

fn ablation_symmetry() {
    println!("== Ablation 3: even/odd transform symmetry, all 13 kernels ==\n");
    let mut t = Table::new(&["kernel", "FT muls naive", "FT muls paired", "saved"]);
    for k in WINRS_KERNELS {
        let tr = k.transform();
        let plan = SymmetryPlan::analyze(&tr);
        let naive = plan.ft_muls_naive(&tr);
        let paired = plan.ft_muls_paired(&tr);
        t.row(vec![
            k.to_string(),
            naive.to_string(),
            paired.to_string(),
            format!("{:.0}%", 100.0 * (1.0 - paired as f64 / naive as f64)),
        ]);
    }
    t.print();
    println!();
}

fn ablation_kahan() {
    println!("== Ablation 4: Kahan vs naive binary16 reduction (real) ==\n");
    // Execute an FP16 plan with many segments, then reduce its buckets two
    // ways.
    let shape = ConvShape::square(8, 32, 4, 4, 3);
    let x64 = Tensor4::<f64>::random_uniform([8, 32, 32, 4], 5, 1.0);
    let dy64 = Tensor4::<f64>::random_uniform([8, 32, 32, 4], 6, 0.01);
    let exact = direct::bfc_direct(&shape, &x64, &dy64);
    // Force a well-segmented plan (the tiny test workload would otherwise
    // auto-configure to Z = 1).
    let plan = WinRsPlan::with_z_hat(&shape, &RTX_4090, Precision::Fp16, 16).expect("benchmark shape is inside the WinRS envelope");
    let dw_kahan = plan
        .execute_f16(&x64.cast(), &dy64.cast())
        .expect("FP16 plan accepts FP16 tensors");

    let single = WinRsPlan::with_z_hat(&shape, &RTX_4090, Precision::Fp16, 1).expect("benchmark shape is inside the WinRS envelope");
    let dw_single = single
        .execute_f16(&x64.cast(), &dy64.cast())
        .expect("FP16 plan accepts FP16 tensors");

    let m_kahan = mare(&dw_kahan, &exact);
    let m_single = mare(&dw_single, &exact);
    println!(
        "Z = {} segmented + FP32 Kahan reduction: MARE {:.3e}",
        plan.z(),
        m_kahan
    );
    println!(
        "Z = 1 unsegmented (no reduction):         MARE {:.3e}",
        m_single
    );
    println!(
        "\nSegmentation + Kahan keeps FP16 accuracy flat as accumulation grows\n\
         (Figure 12C); see also fig12_mare for the Cu-Algo1 degradation.\n"
    );
}

fn ablation_clip() {
    println!("== Ablation 5: height-axis padding clip (Figure 7) ==\n");
    let mut t = Table::new(&["F_H", "O_H", "p_H", "predicted saving", "measured saving"]);
    for &(f, ih, p) in &[(3usize, 224usize, 1usize), (5, 56, 2), (7, 32, 3), (9, 24, 4)] {
        let oh = ih + 2 * p + 1 - f;
        let kept = clipped_rows_total(f, oh, p, ih);
        let measured = 1.0 - kept as f64 / (f * oh) as f64;
        let predicted = clip_savings_fraction(f, oh, p);
        t.row(vec![
            f.to_string(),
            oh.to_string(),
            p.to_string(),
            format!("{:.2}%", 100.0 * predicted),
            format!("{:.2}%", 100.0 * measured),
        ]);
    }
    t.print();
    println!("\nThe closed form p_H(p_H+1)/(F_H*O_H) matches the per-row count exactly.");
}

fn main() {
    println!("WinRS design-choice ablations (DESIGN.md section 5)\n");
    ablation_pair_split();
    ablation_z_sweep();
    ablation_symmetry();
    ablation_kahan();
    ablation_clip();
}
