//! The paper's §6 workload sweep.
//!
//! "BFC parameters are based on common CNN architectures: (1) ∇W shape from
//! 2×2 to 9×9; (2) channel sizes 64…1024 with I_C = O_C; (3) feature-map
//! shapes are factors of standard resolutions {400, 384, 224, 128} or
//! multiples of r; (4) batch size N ∈ {32, 64, 128, 256}; (5) channel sizes
//! are doubled when feature-map shapes are halved, to ensure consistent
//! time complexity."

use winrs_conv::ConvShape;

/// One sweep point, tagged with a human-readable dims string in the
/// paper's `N:O_H:O_W:O_C` x-axis format.
#[derive(Clone, Debug)]
pub struct Workload {
    /// The layer shape.
    pub shape: ConvShape,
    /// `N:O_H:O_W:O_C` label.
    pub label: String,
}

impl Workload {
    fn new(shape: ConvShape) -> Workload {
        let label = format!(
            "{}:{}:{}:{}",
            shape.n,
            shape.oh(),
            shape.ow(),
            shape.oc
        );
        Workload { shape, label }
    }
}

/// The constant-complexity dimension series used on the throughput
/// figures' x-axes: starting from `(n, res, c)`, halving the resolution
/// doubles the channels (paper §6 rule 5).
pub fn throughput_dims(f: usize) -> Vec<Workload> {
    // Base: N=32, 112×112×64 — the VGG-ish early-layer regime, then walk
    // toward late-layer shapes.
    let series = [
        (32usize, 112usize, 64usize),
        (32, 56, 128),
        (32, 28, 256),
        (32, 14, 512),
        (64, 56, 64),
        (64, 28, 128),
        (128, 28, 64),
        (128, 14, 128),
    ];
    series
        .iter()
        .filter(|(_, res, _)| *res > f)
        .map(|&(n, res, c)| Workload::new(ConvShape::square(n, res, c, c, f)))
        .collect()
}

/// Figure 9's x-axis: 3×3 `∇W` from the early-layer regime (a small `∇W`
/// split into many segments) to 1024 channels (one segment, no
/// workspace).
pub fn workspace_dims() -> Vec<Workload> {
    let series = [
        (32usize, 112usize, 64usize),
        (32, 112, 128),
        (32, 56, 128),
        (32, 56, 256),
        (32, 28, 256),
        (32, 28, 512),
        (32, 14, 512),
        (32, 28, 1024),
        (32, 14, 1024),
    ];
    series
        .iter()
        .map(|&(n, res, c)| Workload::new(ConvShape::square(n, res, c, c, 3)))
        .collect()
}

/// The full model-only sweep (workspace and throughput experiments —
/// nothing here allocates tensors, so paper-scale shapes are fine).
pub fn paper_sweep() -> Vec<Workload> {
    let mut out = Vec::new();
    for f in 2..=9usize {
        for &(n, res, c) in &[
            (32usize, 224usize, 64usize),
            (32, 112, 128),
            (32, 56, 256),
            (32, 28, 512),
            (32, 25, 512),  // 400/16
            (64, 96, 96),   // 384/4
            (64, 48, 192),
            (128, 32, 128), // 128/4
            (128, 16, 256),
            (256, 16, 128),
        ] {
            if res > f {
                out.push(Workload::new(ConvShape::square(n, res, c, c, f)));
            }
        }
    }
    out
}

/// Reduced-scale sweep for experiments that *execute* tensors on the CPU
/// (accuracy tables): same structural variety, laptop-sized.
pub fn accuracy_sweep() -> Vec<Workload> {
    let mut out = Vec::new();
    for &f in &[2usize, 3, 4, 5, 6, 7, 8, 9] {
        for &(n, res, c) in &[(2usize, 24usize, 8usize), (4, 16, 8), (2, 32, 4)] {
            if res > f {
                out.push(Workload::new(ConvShape::square(n, res, c, c, f)));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_sweep_covers_all_filter_sizes() {
        let sweep = paper_sweep();
        for f in 2..=9usize {
            assert!(sweep.iter().any(|w| w.shape.fh == f), "missing F = {f}");
        }
        assert!(sweep.len() >= 60);
    }

    #[test]
    fn throughput_series_has_consistent_complexity() {
        // Rule 5: halve resolution, double channels -> constant FLOPs.
        let dims = throughput_dims(3);
        let base = dims[0].shape.bfc_flops();
        for w in &dims[1..4] {
            let ratio = w.shape.bfc_flops() as f64 / base as f64;
            assert!((0.5..2.0).contains(&ratio), "{}: ratio {ratio}", w.label);
        }
    }

    #[test]
    fn labels_match_paper_format() {
        let w = Workload::new(ConvShape::square(32, 56, 128, 128, 3));
        assert_eq!(w.label, "32:56:56:128");
    }

    #[test]
    fn accuracy_sweep_is_small_enough_to_execute() {
        for w in accuracy_sweep() {
            assert!(w.shape.x_elems() < 200_000, "{} too big", w.label);
        }
    }
}
