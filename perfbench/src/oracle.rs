//! Independent ∇W check: a seeded sample of entries recomputed as f64 dot
//! products straight from the definition,
//! `∇W[o][i][j][c] = Σ_{n,y,x} X[n][y+i−p_H][x+j−p_W][c] · ∇Y[n][y][x][o]`,
//! each required to fall within `c·u·Σ|X·∇Y|` of the returned value, where
//! `u` is the unit roundoff of the precision the op ran at. The workloads'
//! operands are non-negative (see [`Rng::unit_vec`]), so `Σ|X·∇Y|` is the
//! entry itself and the bound is a relative error of `c·u`.

use crate::rng::Rng;
use winrs_conv::ConvShape;
use winrs_core::Precision;

/// Entries sampled per checked ∇W.
pub const SAMPLES: usize = 8;

/// Error constant `c` of the bound, per precision, set about four times
/// above the worst error seen on the workloads' keys (6000 sampled
/// entries per key, two seeds):
/// - FP32: WinRS at f = 5 on 1×14×14×512 reached 893·u (5.3·10⁻⁵
///   relative); 4096 allows 2.4·10⁻⁴.
/// - FP16: WinRS at f = 9 reached 78·u (3.8 % relative), because every
///   transformed tile is re-rounded to binary16; 256 allows 12.5 %.
/// - BF16 (no workload runs it) gets the same 12.5 %.
///
/// Every `c·u` is far below 1, so a zeroed entry (off by all of it) or a
/// sign-flipped one (off by twice it) always misses.
pub fn error_constant(p: Precision) -> f64 {
    match p {
        Precision::Fp32 => 4096.0,
        Precision::Fp16 => 256.0,
        Precision::Bf16 => 32.0,
    }
}

/// Unit roundoff of the arithmetic a precision runs at.
pub fn unit_roundoff(p: Precision) -> f64 {
    match p {
        Precision::Fp32 => f64::powi(2.0, -24),
        Precision::Fp16 => f64::powi(2.0, -11),
        Precision::Bf16 => f64::powi(2.0, -8),
    }
}

/// Exact entry `(o, i, j, c)` and `Σ|x·dy|` over its accumulation.
fn exact_entry(
    s: &ConvShape,
    x: &[f32],
    dy: &[f32],
    o: usize,
    i: usize,
    j: usize,
    c: usize,
) -> (f64, f64) {
    let (oh, ow) = (s.oh(), s.ow());
    let (mut sum, mut abs) = (0.0f64, 0.0f64);
    for n in 0..s.n {
        for y in 0..oh {
            let iy = y as isize + i as isize - s.ph as isize;
            if iy < 0 || iy >= s.ih as isize {
                continue;
            }
            for xo in 0..ow {
                let ix = xo as isize + j as isize - s.pw as isize;
                if ix < 0 || ix >= s.iw as isize {
                    continue;
                }
                let xv = x[((n * s.ih + iy as usize) * s.iw + ix as usize) * s.ic + c] as f64;
                let gv = dy[((n * oh + y) * ow + xo) * s.oc + o] as f64;
                sum += xv * gv;
                abs += (xv * gv).abs();
            }
        }
    }
    (sum, abs)
}

/// Check entry `k` of `dw` (`[oc, fh, fw, ic]`). Returns its error as a
/// multiple of `u·Σ|x·dy|`, or a description of the miss (a non-finite
/// entry always misses).
pub fn check_entry(
    s: &ConvShape,
    x: &[f32],
    dy: &[f32],
    dw: &[f32],
    precision: Precision,
    k: usize,
) -> Result<f64, String> {
    let (c, rest) = (k % s.ic, k / s.ic);
    let (j, rest) = (rest % s.fw, rest / s.fw);
    let (i, o) = (rest % s.fh, rest / s.fh);
    let (exact, abs) = exact_entry(s, x, dy, o, i, j, c);
    let got = dw[k] as f64;
    // A zero accumulation (all taps in padding) must come back zero up to
    // denormal noise.
    let u = unit_roundoff(precision);
    let err = (got - exact).abs() / (u * abs.max(f64::MIN_POSITIVE));
    let c_max = error_constant(precision);
    if !got.is_finite() || err > c_max {
        return Err(format!(
            "∇W[{o}][{i}][{j}][{c}] = {got:e}, exact {exact:e}: error {:.1}·u·Σ|x·∇y| exceeds {c_max}",
            if err.is_finite() { err } else { f64::INFINITY }
        ));
    }
    Ok(err)
}

/// Check `SAMPLES` seeded entries of `dw`. Returns the largest error as a
/// multiple of `u·Σ|x·dy|`, or a description of the first entry that
/// misses the bound.
pub fn check(
    s: &ConvShape,
    x: &[f32],
    dy: &[f32],
    dw: &[f32],
    precision: Precision,
    rng: &mut Rng,
) -> Result<f64, String> {
    if dw.len() != s.dw_elems() {
        return Err(format!(
            "∇W has {} entries, expected {}",
            dw.len(),
            s.dw_elems()
        ));
    }
    let mut worst = 0.0f64;
    for _ in 0..SAMPLES {
        let err = check_entry(s, x, dy, dw, precision, rng.below(dw.len()))?;
        worst = worst.max(err);
    }
    Ok(worst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use winrs_conv::direct::bfc_direct;
    use winrs_core::{Algorithm, ExecHandle, FallbackPolicy, PoolConfig, WorkspacePool};
    use winrs_tensor::Tensor4;

    fn operands(s: &ConvShape, seed: u64) -> (Tensor4<f32>, Tensor4<f32>) {
        let mut r = Rng::new(seed);
        let x = Tensor4::from_vec([s.n, s.ih, s.iw, s.ic], r.unit_vec(s.x_elems()));
        let dy = Tensor4::from_vec([s.n, s.oh(), s.ow(), s.oc], r.unit_vec(s.dy_elems()));
        (x, dy)
    }

    /// Twenty seeded checks of `dw` all pass.
    fn passes(s: &ConvShape, x: &Tensor4<f32>, dy: &Tensor4<f32>, dw: &[f32], p: Precision) {
        for seed in 0..20 {
            check(s, x.as_slice(), dy.as_slice(), dw, p, &mut Rng::new(seed))
                .unwrap_or_else(|e| panic!("{p:?} ∇W of {s:?} should pass: {e}"));
        }
    }

    /// Entries `ks` of `dw`, each replaced by `wrong(exact)`, all miss.
    fn plants_miss(
        s: &ConvShape,
        x: &Tensor4<f32>,
        dy: &Tensor4<f32>,
        dw: &[f32],
        p: Precision,
        wrong: impl Fn(f32) -> f32,
    ) {
        let mut r = Rng::new(77);
        for _ in 0..16 {
            let k = r.below(dw.len());
            let mut bad = dw.to_vec();
            bad[k] = wrong(bad[k]);
            assert!(
                check_entry(s, x.as_slice(), dy.as_slice(), &bad, p, k).is_err(),
                "{p:?}: planted entry {k} ({} for {}) went unnoticed",
                bad[k],
                dw[k]
            );
        }
    }

    #[test]
    fn accepts_a_correct_gradient_and_catches_a_planted_wrong_entry() {
        let s = ConvShape::square(2, 9, 3, 4, 3);
        let (x, dy) = operands(&s, 1);
        let dw = bfc_direct(&s, &x, &dy);
        passes(&s, &x, &dy, dw.as_slice(), Precision::Fp32);
        // Off by 10⁻³ of the entry: four times the FP32 tolerance.
        plants_miss(&s, &x, &dy, dw.as_slice(), Precision::Fp32, |v| v * 1.001);
        plants_miss(&s, &x, &dy, dw.as_slice(), Precision::Fp32, |_| f32::NAN);
        // A wrong entry is found by sampling alone.
        let mut bad = dw.as_slice().to_vec();
        bad[17] = 0.0;
        let caught = (0..200).any(|seed| {
            check(
                &s,
                x.as_slice(),
                dy.as_slice(),
                &bad,
                Precision::Fp32,
                &mut Rng::new(seed),
            )
            .is_err()
        });
        assert!(caught, "a zeroed entry was never drawn and caught");
    }

    #[test]
    fn fp16_gradients_pass_and_zeroed_flipped_or_skewed_entries_miss() {
        let pool = WorkspacePool::new(PoolConfig::default());
        // f = 3 as the fsweep workload runs it, and f = 9 through WinRS,
        // the FP16 key with the largest rounding error.
        for (f, policy) in [(3, FallbackPolicy::Auto), (9, FallbackPolicy::Strict)] {
            let s = ConvShape::square(2, 28, 64, 64, f);
            let (x, dy) = operands(&s, f as u64);
            let h = ExecHandle::new(Arc::clone(&pool), crate::bfc::DEVICE, Precision::Fp16)
                .with_policy(policy);
            let (dw, report) = h.run(&s, &x, &dy).expect("FP16 BFC runs");
            assert_eq!(report.algorithm, Algorithm::WinRs);
            let p = Precision::Fp16;
            passes(&s, &x, &dy, dw.as_slice(), p);
            plants_miss(&s, &x, &dy, dw.as_slice(), p, |_| 0.0);
            plants_miss(&s, &x, &dy, dw.as_slice(), p, |v| -v);
            plants_miss(&s, &x, &dy, dw.as_slice(), p, |v| v * 1.25);
        }
    }

    #[test]
    fn the_sample_reproduces_from_the_seed() {
        let s = ConvShape::square(1, 8, 2, 2, 3);
        let (x, dy) = operands(&s, 2);
        let dw = bfc_direct(&s, &x, &dy);
        let run = |seed| {
            check(
                &s,
                x.as_slice(),
                dy.as_slice(),
                dw.as_slice(),
                Precision::Fp32,
                &mut Rng::new(seed),
            )
        };
        assert_eq!(run(4), run(4));
    }

    #[test]
    fn wrong_length_is_refused() {
        let s = ConvShape::square(1, 8, 2, 2, 3);
        let (x, dy) = operands(&s, 3);
        assert!(check(
            &s,
            x.as_slice(),
            dy.as_slice(),
            &[0.0; 5],
            Precision::Fp32,
            &mut Rng::new(0)
        )
        .is_err());
    }
}
