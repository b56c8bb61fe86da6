//! Bucket reduction (paper §3 phase 3, §5.2 "Accuracy Optimization").
//!
//! After every segment has written its partial result to its `∇Ŵ` bucket, a
//! reduction pass sums the `Z` buckets into `∇W`. Summation runs in FP32
//! with Kahan compensation regardless of the storage precision, which is
//! what keeps WinRS accurate at large accumulation lengths where Cu-Algo1
//! and Cu-WinNF degrade (Figure 12).

use winrs_gemm::sched;
use winrs_tensor::{Scalar, Tensor4};

/// Elements one reduce task sums (a scheduler task of the reduce pass).
const CHUNK: usize = 4096;

/// Elements summed side by side: the Kahan state of one run of `LANES`
/// outputs lives in two arrays, and each bucket's run is folded in with
/// element-wise operations the compiler vectorises for f32 buckets.
const LANES: usize = 64;

/// Sum `z` buckets (each `out.len()` elements, concatenated) into `out`.
///
/// Each element is the FP32 Kahan sum of its `z` bucket values in bucket
/// order. `Z = 1` is a straight copy: an engine bucket starts at `+0.0`
/// and is only ever added to, so it never holds `−0.0`, and `+0.0 + x`
/// is `x` for every other value. Otherwise the sum runs across elements,
/// reading each bucket's contiguous run of outputs; every element keeps
/// its own bucket-order Kahan sequence.
pub(crate) fn reduce_buckets<T: Scalar>(buckets: &[T], z: usize, out: &mut Tensor4<T>) {
    let dw = out.len();
    assert_eq!(buckets.len(), z * dw, "bucket count mismatch");
    if z == 1 {
        out.as_mut_slice().copy_from_slice(buckets);
        return;
    }
    let chunks = out.as_mut_slice().chunks_mut(CHUNK).enumerate().collect();
    sched::run_tasks(chunks, sched::workers(), |_, (chunk_idx, chunk)| {
        kahan_runs(buckets, z, dw, chunk_idx * CHUNK, chunk);
    });
}

/// `out[j]` = the FP32 Kahan sum over `zi < z` of `buckets[zi·dw + base +
/// j]`, run by run: the same operations as [`winrs_tensor::Kahan::add`]
/// from a zero accumulator, element-wise over `LANES` outputs at a time.
fn kahan_runs<T: Scalar>(buckets: &[T], z: usize, dw: usize, base: usize, out: &mut [T]) {
    for (k, dst) in out.chunks_mut(LANES).enumerate() {
        let off = base + k * LANES;
        let (mut sum, mut c) = ([0.0f32; LANES], [0.0f32; LANES]);
        for zi in 0..z {
            let xs = &buckets[zi * dw + off..zi * dw + off + dst.len()];
            for ((s, cj), x) in sum.iter_mut().zip(c.iter_mut()).zip(xs) {
                let y = x.to_f32() - *cj;
                let t = *s + y;
                *cj = (t - *s) - y;
                *s = t;
            }
        }
        for (d, &s) in dst.iter_mut().zip(&sum) {
            *d = T::from_f32(s);
        }
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
        reduce_buckets(&buckets, 1, &mut out);
        assert_eq!(out.as_slice(), &buckets[..]);
    }

    #[test]
    fn buckets_sum_elementwise() {
        let dw = 6;
        let z = 4;
        let buckets: Vec<f32> = (0..z * dw).map(|i| (i / dw) as f32 + 1.0).collect();
        let mut out = Tensor4::<f32>::zeros([1, 1, 1, dw]);
        reduce_buckets(&buckets, z, &mut out);
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
        reduce_buckets(&buckets, z, &mut out);
        assert_eq!(out[(0, 0, 0, 0)].to_f32(), 0.125);
    }

    #[test]
    fn large_output_uses_multiple_chunks() {
        let dw = 10_000; // > one 4096 chunk
        let z = 3;
        let buckets = vec![1.0f32; z * dw];
        let mut out = Tensor4::<f32>::zeros([1, 1, 100, 100]);
        reduce_buckets(&buckets, z, &mut out);
        assert!(out.as_slice().iter().all(|&v| v == 3.0));
    }

    /// The run-wise sum matches a per-element [`Kahan`] loop bit for
    /// bit, on values whose plain sum would round differently, with a run
    /// tail (`dw` not a multiple of the run width).
    #[test]
    fn f32_runs_match_scalar_kahan_bitwise() {
        let (z, dw) = (5, 4096 + 70);
        let buckets: Vec<f32> = (0..z * dw)
            .map(|i| ((i * 7919) % 1000) as f32 * 1.0e-3 + if i % 3 == 0 { 1.0e7 } else { 0.0 })
            .collect();
        let mut out = Tensor4::<f32>::zeros([1, 1, 1, dw]);
        reduce_buckets(&buckets, z, &mut out);
        for (j, v) in out.as_slice().iter().enumerate() {
            let mut acc = Kahan::new();
            for zi in 0..z {
                acc.add(buckets[zi * dw + j]);
            }
            assert_eq!(v.to_bits(), acc.value().to_bits(), "element {j}");
        }
    }

    /// `Z = 1` copies the bucket. That equals the Kahan sum `+0.0 + x`
    /// because the engine never leaves `−0.0` in a bucket: buckets start
    /// at `+0.0` and only ever have sums added, even when every product
    /// is a signed zero.
    #[test]
    fn single_bucket_copy_matches_kahan_on_engine_buckets() {
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
        let mut buckets = vec![0.0f32; plan.bucket_elems()];
        plan.execute_into_buckets(
            &x,
            &dy,
            TileMode::Fp32,
            &mut buckets,
            ExecOptions::default(),
        )
        .expect("valid arguments");
        assert!(buckets.iter().all(|v| v.to_bits() != (-0.0f32).to_bits()));
        let mut out = Tensor4::<f32>::zeros([7, 3, 3, 5]);
        reduce_buckets(&buckets, 1, &mut out);
        for (v, b) in out.as_slice().iter().zip(&buckets) {
            assert_eq!(v.to_bits(), (0.0f32 + b).to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "bucket count mismatch")]
    fn size_mismatch_panics() {
        let buckets = vec![0.0f32; crate::NUMERIC_HEALTH_BUCKETS];
        let mut out = Tensor4::<f32>::zeros([1, 1, 1, 4]);
        reduce_buckets(&buckets, 2, &mut out);
    }
}
