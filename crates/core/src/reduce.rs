//! Bucket reduction (paper §3 phase 3, §5.2 "Accuracy Optimization").
//!
//! After every segment has written its partial result to its `∇Ŵ` bucket, a
//! reduction pass sums the `Z` buckets into `∇W`. Summation runs in FP32
//! with Kahan compensation regardless of the storage precision, which is
//! what keeps WinRS accurate at large accumulation lengths where Cu-Algo1
//! and Cu-WinNF degrade (Figure 12).

use winrs_gemm::sched;
use winrs_tensor::{Kahan, Scalar, Tensor4};

/// Sum `z` buckets (each `out.len()` elements, concatenated) into `out`.
pub fn reduce_buckets<T: Scalar>(buckets: &[T], z: usize, out: &mut Tensor4<T>) {
    let dw = out.len();
    assert_eq!(buckets.len(), z * dw, "bucket count mismatch");
    let chunks = out.as_mut_slice().chunks_mut(4096).enumerate().collect();
    sched::run_tasks(chunks, sched::workers(), |_, (chunk_idx, chunk)| {
        let base = chunk_idx * 4096;
        for (off, dst) in chunk.iter_mut().enumerate() {
            let idx = base + off;
            let mut acc = Kahan::new();
            for zi in 0..z {
                acc.add(buckets[zi * dw + idx].to_f32());
            }
            *dst = T::from_f32(acc.value());
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use winrs_fp16::f16;

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

    #[test]
    #[should_panic(expected = "bucket count mismatch")]
    fn size_mismatch_panics() {
        let buckets = vec![0.0f32; crate::NUMERIC_HEALTH_BUCKETS];
        let mut out = Tensor4::<f32>::zeros([1, 1, 1, 4]);
        reduce_buckets(&buckets, 2, &mut out);
    }
}
