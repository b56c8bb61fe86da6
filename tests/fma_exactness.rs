//! The EWMM (`micro::rank_k_batch`) takes each step as one fused
//! multiply-add, `v ← fma(ĝ, d̂, v)`. On FP16 and FP8 tiles both operands
//! are binary16 (or E4M3) values, and the product of two such values is
//! exact in f32: two 11-bit significands give at most 22 bits, and the
//! product's magnitude lies in [2⁻⁴⁸, 65504²], inside f32's normal range.
//! So `fma(a, b, c)` rounds `a·b + c` once, as `a * b + c` does after its
//! exact multiply, and the fused EWMM gives those tiles the bits of the
//! unfused one for every `c`. These tests prove it:
//!
//! * `e4m3_products_are_exact_in_f32` (tier-1): all 256² E4M3 pairs.
//! * `f16_products_sampled_are_exact_in_f32` (tier-1): every finite half
//!   against a seeded set of partners that includes the extremes.
//! * `f16_products_exhaustive_are_exact_in_f32` (ignored; about 2 s in
//!   release on a 2-vCPU AVX-512 VM): all 63,488² pairs of finite halves.
//!
//!   ```text
//!   cargo test --release --test fma_exactness -- --ignored
//!   ```
//!
//! BF16 has no such guarantee: its exponent range is f32's, so a product
//! can underflow or overflow f32 (`bf16_products_can_round_in_f32`).

use winrs::fp16::{bf16, e4m3, f16};

/// `a·b` computed in f32 equals the exact product (the f64 product of
/// two values with at most 24-bit significands is exact).
fn product_is_exact(a: f32, b: f32) -> bool {
    f64::from(a * b) == f64::from(a) * f64::from(b)
}

/// Every finite binary16 value's f32 image, in bit order.
fn finite_halves() -> Vec<f32> {
    (0..=u16::MAX)
        .map(f16::from_bits)
        .filter(|h| h.is_finite())
        .map(f16::to_f32)
        .collect()
}

/// What exactness buys: the fused and unfused steps agree on every `c`.
fn fused_equals_unfused(a: f32, b: f32) {
    for c in [
        0.0f32,
        -0.0,
        1.0,
        -3.5e-7,
        6.1e4,
        f32::MIN_POSITIVE,
        -(a * b),
    ] {
        assert_eq!(
            a.mul_add(b, c).to_bits(),
            (a * b + c).to_bits(),
            "fma({a:e}, {b:e}, {c:e})"
        );
    }
}

#[test]
fn e4m3_products_are_exact_in_f32() {
    let mut pairs = 0u32;
    for x in 0..=u8::MAX {
        for y in 0..=u8::MAX {
            let (a, b) = (e4m3::from_bits(x), e4m3::from_bits(y));
            pairs += 1;
            if a.is_nan() || b.is_nan() {
                continue; // E4M3 has no infinities; NaN is its only non-finite
            }
            let (a, b) = (a.to_f32(), b.to_f32());
            assert!(product_is_exact(a, b), "{a:e} · {b:e}");
            fused_equals_unfused(a, b);
        }
    }
    assert_eq!(pairs, 65_536);
}

#[test]
fn f16_products_sampled_are_exact_in_f32() {
    let halves = finite_halves();
    assert_eq!(halves.len(), 63_488);
    // The extremes (smallest subnormal, largest finite, both signs) and a
    // seeded spread of the rest.
    let mut partners: Vec<f32> = [0x0001u16, 0x8001, 0x03ff, 0x0400, 0x7bff, 0xfbff, 0x3c01]
        .into_iter()
        .map(|b| f16::from_bits(b).to_f32())
        .collect();
    let mut s = 0x9e37_79b9u32;
    for _ in 0..64 {
        s = s.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        partners.push(halves[(s >> 8) as usize % halves.len()]);
    }
    for &a in &halves {
        for &b in &partners {
            assert!(product_is_exact(a, b), "{a:e} · {b:e}");
        }
    }
    for &b in &partners {
        fused_equals_unfused(b, 65504.0);
        fused_equals_unfused(b, f16::from_bits(0x0001).to_f32());
    }
}

#[test]
#[ignore = "exhaustive over 4·10⁹ pairs; run in release (scripts/ci.sh step 04c)"]
fn f16_products_exhaustive_are_exact_in_f32() {
    let halves = finite_halves();
    let inexact: usize = halves
        .iter()
        .map(|&a| halves.iter().filter(|&&b| !product_is_exact(a, b)).count())
        .sum();
    assert_eq!(inexact, 0, "binary16 pairs whose f32 product rounds");
}

#[test]
fn bf16_products_can_round_in_f32() {
    // The smallest normal bfloat16 is f32's, 2⁻¹²⁶: its square underflows.
    let tiny = bf16::from_bits(0x0080).to_f32();
    assert_eq!(tiny, f32::MIN_POSITIVE);
    assert!(!product_is_exact(tiny, tiny));
    // And the largest overflows.
    let huge = bf16::from_bits(0x7f7f).to_f32();
    assert!(!product_is_exact(huge, huge));
}
