//! E8 — Figure 9: WinRS workspace and segment count vs ∇Y dimensions for
//! 3×3 ∇W on the RTX 4090.
//!
//! Reproduces the figure's two trends: the segment count falls as channel
//! sizes grow, and the workspace stays small throughout — reaching 0 when
//! a single segment already fills the GPU.

use winrs_bench::{workspace_dims, Table};
use winrs_core::{Precision, WinRsPlan};
use winrs_gpu_sim::RTX_4090;

fn main() {
    println!("Figure 9 — WinRS workspace for 3x3 dW on RTX 4090\n");
    let mut t = Table::new(&[
        "N:O_H:O_W:O_C",
        "segments Z",
        "workspace",
        "dW size",
        "x data size",
    ]);
    for w in workspace_dims() {
        let plan = WinRsPlan::new(&w.shape, &RTX_4090, Precision::Fp32)
            .expect("benchmark shape is inside the WinRS envelope");
        t.row(vec![
            w.label,
            plan.z().to_string(),
            format!("{:.1} MB", plan.workspace_bytes() as f64 / 1e6),
            format!("{:.2} MB", w.shape.dw_elems() as f64 * 4.0 / 1e6),
            format!(
                "{:.3}x",
                plan.workspace_bytes() as f64 / w.shape.data_bytes(4) as f64
            ),
        ]);
    }
    t.print();

    println!(
        "\nTrend check (paper Figure 9): small channels -> many segments but a\n\
         tiny dW, so the workspace stays small; at 1024 channels a single\n\
         segment suffices and the workspace is exactly 0."
    );
}
