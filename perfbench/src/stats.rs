//! Order statistics under the benchmark's reporting rule: a percentile is
//! reported only when at least [`MIN_BEYOND`] samples lie beyond it.

/// Samples that must rank above a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (in `(0, 1)`) of `xs`, or `None` when fewer
/// than [`MIN_BEYOND`] samples rank above it.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() || !(0.0..1.0).contains(&p) {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).max(1);
    let beyond = v.len() - rank;
    (beyond >= MIN_BEYOND).then(|| v[rank - 1])
}

/// Smallest sample count for which [`percentile`] reports `p`.
pub fn samples_needed(p: f64) -> usize {
    (1..)
        .find(|&n| {
            let rank = ((p * n as f64).ceil() as usize).max(1);
            n - rank >= MIN_BEYOND
        })
        .unwrap_or(usize::MAX)
}

/// `num / den`, or `empty` when there is nothing to divide by.
pub fn ratio(num: f64, den: f64, empty: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        empty
    }
}

/// Plain median (no tail rule: used for repeated set-ups and per-layer
/// probe timings); 0 for no samples.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        0.5 * (v[m - 1] + v[m])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_a_thin_tail() {
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        // 99 samples: p90 is rank 90, only 9 beyond it.
        assert_eq!(percentile(&xs, 0.9), None);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.9), Some(90.0));
        // p50 needs 20 samples.
        assert_eq!(percentile(&xs[..19], 0.5), None);
        assert_eq!(percentile(&xs[..20], 0.5), Some(10.0));
        // p99 needs 1000.
        assert_eq!(percentile(&xs, 0.99), None);
        assert_eq!(samples_needed(0.5), 20);
        assert_eq!(samples_needed(0.9), 100);
        assert_eq!(samples_needed(0.99), 1000);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut xs: Vec<f64> = (0..40).map(|i| f64::from((i * 17) % 40)).collect();
        let a = percentile(&xs, 0.5);
        xs.reverse();
        assert_eq!(a, percentile(&xs, 0.5));
        assert_eq!(a, Some(19.0));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
