//! Bucket reduction (paper §3 phase 3, §5.2 "Accuracy Optimization").
//!
//! After every segment has written its partial result to its `∇Ŵ` bucket, a
//! reduction pass sums the `Z` buckets into `∇W`. Bucket 0 *is* `∇W`, so
//! the pass sums the `Z−1` overflow buckets into it in place, and at
//! `Z = 1` there is nothing to do. Summation runs in FP32 with Kahan
//! compensation regardless of the storage precision, which is what keeps
//! WinRS accurate at large accumulation lengths where Cu-Algo1 and
//! Cu-WinNF degrade (Figure 12).

use winrs_gemm::sched;
use winrs_tensor::{Scalar, Tensor4};

/// Elements one reduce task sums (a scheduler task of the reduce pass).
const CHUNK: usize = 4096;

/// Elements summed side by side: the Kahan state of one run of `LANES`
/// outputs lives in two arrays, and each bucket's run is folded in with
/// element-wise operations the compiler vectorises for f32 buckets.
const LANES: usize = 64;

/// Sum the `z − 1` overflow buckets (each `dw.len()` elements,
/// concatenated) into `dw`, which holds bucket 0, in place, on `workers`
/// scheduler workers.
///
/// Each element is the FP32 Kahan sum of its `z` bucket values in bucket
/// order, from a zero accumulator, with bucket 0 — the element of `dw` —
/// as its first term: exactly [`winrs_tensor::Kahan::add`] over buckets
/// `0..z`, so `0 + b₀` and its compensation come out as they would from
/// a separate bucket 0, also for ±∞, NaN and `−0.0` there. `Z = 1` does
/// nothing: the engine's bucket 0 is already `+0.0 + b₀`, the one-term
/// Kahan sum (it stores each first sum, which is never `−0.0`). The sum
/// runs across elements, reading each bucket's contiguous run of outputs.
pub(crate) fn reduce_in_place<T: Scalar>(dw: &mut [T], overflow: &[T], z: usize, workers: usize) {
    let n = dw.len();
    assert_eq!(overflow.len(), (z - 1) * n, "bucket count mismatch");
    if z == 1 {
        return;
    }
    let chunks = dw.chunks_mut(CHUNK).enumerate().collect();
    sched::run_tasks(chunks, workers, |_, (chunk_idx, chunk)| {
        kahan_runs(overflow, n, chunk_idx * CHUNK, chunk);
    });
}

/// `out[j]` = the FP32 Kahan sum of `out[j]` (bucket 0) and then, for
/// each overflow bucket in order, its element `base + j`, run by run: the
/// same operations as [`winrs_tensor::Kahan::add`] from a zero
/// accumulator, element-wise over `LANES` outputs at a time.
fn kahan_runs<T: Scalar>(overflow: &[T], dw: usize, base: usize, out: &mut [T]) {
    for (k, dst) in out.chunks_mut(LANES).enumerate() {
        let off = base + k * LANES;
        let (mut sum, mut c) = ([0.0f32; LANES], [0.0f32; LANES]);
        let mut fold = |xs: &[T]| {
            for ((s, cj), x) in sum.iter_mut().zip(c.iter_mut()).zip(xs) {
                let y = x.to_f32() - *cj;
                let t = *s + y;
                *cj = (t - *s) - y;
                *s = t;
            }
        };
        fold(dst);
        for bucket in overflow.chunks_exact(dw) {
            fold(&bucket[off..off + dst.len()]);
        }
        for (d, &s) in dst.iter_mut().zip(&sum) {
            *d = T::from_f32(s);
        }
    }
}

/// Sum `z` staged buckets (bucket 0 first, each `out.len()` elements) into
/// `out`: bucket 0 copied in, then [`reduce_in_place`] — the half of the
/// staged view that callers who run the engine into all `Z` buckets reduce
/// with (`WinRsPlan::reduce_into`).
pub(crate) fn reduce_staged<T: Scalar>(buckets: &[T], z: usize, out: &mut Tensor4<T>) {
    let dw = out.len();
    assert_eq!(buckets.len(), z * dw, "bucket count mismatch");
    let (first, overflow) = buckets.split_at(dw);
    out.as_mut_slice().copy_from_slice(first);
    if z > 1 {
        reduce_in_place(out.as_mut_slice(), overflow, z, sched::workers());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use winrs_fp16::f16;
    use winrs_tensor::Kahan;

    #[test]
    fn single_bucket_is_copied() {
        let buckets: Vec<f32> = (0..8).map(|i| i as f32).collect();
        let mut out = Tensor4::<f32>::zeros([1, 1, 2, 4]);
        reduce_staged(&buckets, 1, &mut out);
        assert_eq!(out.as_slice(), &buckets[..]);
    }

    #[test]
    fn buckets_sum_elementwise() {
        let dw = 6;
        let z = 4;
        let buckets: Vec<f32> = (0..z * dw).map(|i| (i / dw) as f32 + 1.0).collect();
        let mut out = Tensor4::<f32>::zeros([1, 1, 1, dw]);
        reduce_staged(&buckets, z, &mut out);
        for &v in out.as_slice() {
            assert_eq!(v, 10.0); // 1+2+3+4
        }
    }

    #[test]
    fn f16_buckets_reduced_in_f32() {
        // 64 buckets of 1/512 each: the f32 Kahan total is exact (0.125),
        // while a binary16 running sum would round at every step.
        let z = 64;
        let buckets: Vec<f16> = (0..z).map(|_| f16::from_f32(1.0 / 512.0)).collect();
        let mut out = Tensor4::<f16>::zeros([1, 1, 1, 1]);
        reduce_staged(&buckets, z, &mut out);
        assert_eq!(out[(0, 0, 0, 0)].to_f32(), 0.125);
    }

    #[test]
    fn large_output_uses_multiple_chunks() {
        let dw = 10_000; // > one 4096 chunk
        let z = 3;
        let buckets = vec![1.0f32; z * dw];
        let mut out = Tensor4::<f32>::zeros([1, 1, 100, 100]);
        reduce_staged(&buckets, z, &mut out);
        assert!(out.as_slice().iter().all(|&v| v == 3.0));
    }

    /// The per-element [`Kahan`] sum over buckets `0..z` of a staged
    /// buffer (bucket 0 first).
    fn kahan_of(buckets: &[f32], z: usize, dw: usize, j: usize) -> f32 {
        let mut acc = Kahan::new();
        for zi in 0..z {
            acc.add(buckets[zi * dw + j]);
        }
        acc.value()
    }

    /// The in-place sum matches a per-element [`Kahan`] loop over buckets
    /// `0..z` bit for bit, on values whose plain sum would round
    /// differently, with a run tail (`dw` not a multiple of the run
    /// width), at one and two workers.
    #[test]
    fn in_place_runs_match_scalar_kahan_bitwise() {
        let (z, dw) = (5, 4096 + 70);
        let buckets: Vec<f32> = (0..z * dw)
            .map(|i| ((i * 7919) % 1000) as f32 * 1.0e-3 + if i % 3 == 0 { 1.0e7 } else { 0.0 })
            .collect();
        for workers in [1, 2] {
            let mut out = buckets[..dw].to_vec();
            reduce_in_place(&mut out, &buckets[dw..], z, workers);
            for (j, v) in out.iter().enumerate() {
                let want = kahan_of(&buckets, z, dw, j);
                assert_eq!(v.to_bits(), want.to_bits(), "element {j} x{workers}");
            }
        }
    }

    /// `∇W` is the Kahan sum's first term, not its starting value: with
    /// +∞, −∞, NaN and −0.0 in bucket 0, `0 + b₀` and its compensation
    /// come out as [`Kahan::add`] over buckets `0..z` gives them. A sum
    /// started at `b₀` with zero compensation differs: it keeps ±∞ where
    /// the compensation `(∞ − 0) − ∞` turns the Kahan sum into NaN, and
    /// keeps −0.0 where `+0.0 + (−0.0)` gives +0.0.
    #[test]
    fn in_place_sum_takes_bucket_0_as_its_first_term() {
        let specials = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN, -0.0, 0.0, 1.5];
        let others = [0.0f32, -0.0, 2.0, -1.0e-3, f32::INFINITY];
        let dw = specials.len() * others.len();
        for z in [2usize, 3, 4] {
            let mut buckets = vec![0.0f32; z * dw];
            for (i, &b0) in specials.iter().enumerate() {
                for (k, &o) in others.iter().enumerate() {
                    let j = i * others.len() + k;
                    buckets[j] = b0;
                    for zi in 1..z {
                        buckets[zi * dw + j] = o;
                    }
                }
            }
            let mut out = buckets[..dw].to_vec();
            reduce_in_place(&mut out, &buckets[dw..], z, 1);
            for (j, v) in out.iter().enumerate() {
                let want = kahan_of(&buckets, z, dw, j);
                let same = v.to_bits() == want.to_bits() || (v.is_nan() && want.is_nan());
                assert!(same, "z={z} element {j}: {v:?} vs Kahan {want:?}");
            }
        }
    }

    /// The engine stores each first sum, which is never `−0.0`, so its
    /// bucket 0 is `+0.0 + b` — the one-term Kahan sum — even when every
    /// product is a signed zero and the buckets start NaN-filled.
    #[test]
    fn engine_bucket_0_is_the_one_term_kahan_sum() {
        use crate::engine::{ExecOptions, TileMode};
        use crate::WinRsPlan;
        use winrs_conv::ConvShape;
        use winrs_gpu_sim::RTX_4090;
        let conv = ConvShape::square(2, 12, 5, 7, 3);
        let plan = WinRsPlan::with_z_hat(&conv, &RTX_4090, crate::Precision::Fp32, 1)
            .expect("in-envelope shape");
        assert_eq!(plan.z(), 1);
        // Negative zeros in x and negative values in ∇Y: every product is
        // a signed zero.
        let x = Tensor4::<f32>::from_fn([2, 12, 12, 5], |_, _, _, _| -0.0);
        let dy = Tensor4::<f32>::random_uniform([2, conv.oh(), conv.ow(), 7], 3, 1.0);
        let mut buckets = vec![f32::NAN; plan.bucket_elems()];
        plan.execute_into_buckets(
            &x,
            &dy,
            TileMode::Fp32,
            &mut buckets,
            ExecOptions::default(),
        )
        .expect("valid arguments");
        assert!(buckets.iter().all(|v| v.to_bits() == 0.0f32.to_bits()));
        let mut out = Tensor4::<f32>::from_fn([7, 3, 3, 5], |_, _, _, _| f32::NAN);
        reduce_staged(&buckets, 1, &mut out);
        for (v, b) in out.as_slice().iter().zip(&buckets) {
            assert_eq!(v.to_bits(), (0.0f32 + b).to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "bucket count mismatch")]
    fn size_mismatch_panics() {
        let buckets = vec![0.0f32; crate::NUMERIC_HEALTH_BUCKETS];
        let mut out = Tensor4::<f32>::zeros([1, 1, 1, 4]);
        reduce_staged(&buckets, 2, &mut out);
    }
}
