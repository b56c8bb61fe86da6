//! The FP16 engine re-rounds every transformed tile through binary16 with
//! `micro::round_f16`. Its AVX2 and AVX-512 bodies use the hardware
//! conversion pair (`vcvtps2ph` + `vcvtph2ps`); the scalar body is the
//! reference loop `f16::from_f32(v).to_f32()`. These tests hold every
//! width to the scalar body on value bits and on the saturation count
//! (finite before, not finite after):
//!
//! * `round_f16_boundary_inputs_match_scalar_at_every_width` (tier-1, any
//!   profile): every half's f32 image, the f32 midpoint from each finite
//!   half to its upper neighbour and ±1 ulp around it, both signs; ±0,
//!   ±∞, quiet and signalling NaN payloads; a seeded sample of bit
//!   patterns; buffer lengths that cover every lane tail.
//! * `round_f16_exhaustive_matches_scalar` (ignored; run it in release):
//!   all 2³² f32 bit patterns. With `WINRS_FORCE_WIDTH` set it checks that
//!   one width, otherwise every width the host has:
//!
//!   ```text
//!   WINRS_FORCE_WIDTH=avx512 cargo test --release --test f16_rounding -- --ignored
//!   ```

use std::sync::{Mutex, MutexGuard, OnceLock};
use winrs::core::engine::request_width;
use winrs::fp16::f16;
use winrs::gemm::micro::{self, SimdWidth};

/// Serialises tests that pin the process-global dispatch width.
fn dispatch_guard() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Every width available on this host (always at least `Scalar`).
fn available() -> Vec<SimdWidth> {
    SimdWidth::ALL
        .iter()
        .copied()
        .filter(|w| w.is_available())
        .collect()
}

/// Round `input` through `micro::round_f16` at `width` into `out`,
/// returning the saturation count.
fn round_at(width: SimdWidth, input: &[f32], out: &mut Vec<f32>) -> u64 {
    micro::force_width(Some(width)).expect("available width");
    out.clear();
    out.extend_from_slice(input);
    micro::round_f16(out)
}

/// Check every width in `widths` against the scalar body on `input`,
/// naming the first differing input on failure.
fn check_chunk(widths: &[SimdWidth], input: &[f32], want: &mut Vec<f32>, got: &mut Vec<f32>) {
    let want_sat = round_at(SimdWidth::Scalar, input, want);
    for &w in widths {
        let sat = round_at(w, input, got);
        if let Some(k) = (0..input.len()).find(|&k| got[k].to_bits() != want[k].to_bits()) {
            panic!(
                "width {w}: input {:#010x} rounds to {:#010x}, scalar body gives {:#010x}",
                input[k].to_bits(),
                got[k].to_bits(),
                want[k].to_bits()
            );
        }
        assert_eq!(
            sat,
            want_sat,
            "width {w}: saturation count over {} inputs",
            input.len()
        );
    }
}

/// The tier-1 input set (see the module docs).
fn boundary_inputs() -> Vec<f32> {
    let mut v = Vec::new();
    for h in 0..=u16::MAX {
        let x = f16::from_bits(h).to_f32();
        v.push(x);
        let mag = h & 0x7FFF;
        if mag < 0x7C00 {
            // The upper neighbour of the largest finite half is 2^16, the
            // first value binary16 cannot hold.
            let lo = f64::from(x.abs());
            let hi = if mag == 0x7BFF {
                65536.0
            } else {
                f64::from(f16::from_bits(mag + 1).to_f32())
            };
            // Exact: the midpoint needs 12 significant bits.
            let mid = ((lo + hi) / 2.0) as f32;
            for bits in [mid.to_bits() - 1, mid.to_bits(), mid.to_bits() + 1] {
                let m = f32::from_bits(bits);
                v.push(if h & 0x8000 == 0 { m } else { -m });
            }
        }
    }
    for sign in [0u32, 0x8000_0000] {
        v.push(f32::from_bits(sign));
        v.push(f32::from_bits(sign | 0x7F80_0000));
        for payload in [
            1u32, 0x1FFF, 0x2000, 0x15_5555, 0x3F_E000, 0x40_0000, 0x40_0001, 0x7F_FFFF,
        ] {
            v.push(f32::from_bits(sign | 0x7F80_0000 | payload));
        }
        v.push(f32::from_bits(sign | 0x7F7F_FFFF)); // ±f32::MAX
        v.push(f32::from_bits(sign | 1)); // the smallest f32 subnormal
    }
    // splitmix64 over a fixed seed.
    let mut state = 0x5EED_F16Cu64;
    for _ in 0..1 << 17 {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        v.push(f32::from_bits(((z ^ (z >> 31)) >> 32) as u32));
    }
    v
}

#[test]
fn round_f16_boundary_inputs_match_scalar_at_every_width() {
    let _g = dispatch_guard();
    let inputs = boundary_inputs();
    // The scalar body is the crate's conversion, element by element.
    let (mut want, mut got) = (Vec::new(), Vec::new());
    let sat = round_at(SimdWidth::Scalar, &inputs, &mut want);
    let mut want_sat = 0u64;
    for (x, y) in inputs.iter().zip(&want) {
        let r = f16::from_f32(*x).to_f32();
        assert_eq!(
            y.to_bits(),
            r.to_bits(),
            "scalar body on {:#010x}",
            x.to_bits()
        );
        want_sat += u64::from(x.is_finite() && !r.is_finite());
    }
    assert_eq!(sat, want_sat);
    // The set reaches the overflow boundary: 65520, the midpoint above
    // 65504, ties to even, which is 2^16 = ∞.
    assert!(inputs.contains(&65520.0) && f16::from_f32(65520.0).to_f32().is_infinite());
    // Chunk lengths 1..=40 in turn, so every lane tail of the 8- and
    // 16-lane bodies meets every kind of input.
    let widths = available();
    let (mut at, mut len) = (0, 1);
    while at < inputs.len() {
        let end = (at + len).min(inputs.len());
        check_chunk(&widths, &inputs[at..end], &mut want, &mut got);
        at = end;
        len = len % 40 + 1;
    }
    micro::force_width(None).expect("auto always pins");
}

/// All 2³² inputs, 2¹⁶ at a time: 35–60 s per width in release on a
/// 2-vCPU AVX-512 VM (the scalar width is the slowest); far longer in a
/// debug build.
#[test]
#[ignore = "exhaustive over all 2^32 f32 inputs; run in release (scripts/ci.sh)"]
fn round_f16_exhaustive_matches_scalar() {
    let _g = dispatch_guard();
    let widths = match std::env::var(micro::FORCE_WIDTH_ENV) {
        Ok(token) if !token.is_empty() => vec![request_width(&token).expect("pinnable width")],
        _ => available(),
    };
    const CHUNK: u32 = 1 << 16;
    let (mut want, mut got) = (Vec::new(), Vec::new());
    let mut input = vec![0.0f32; CHUNK as usize];
    for hi in 0..=u32::MAX / CHUNK {
        for (lo, x) in input.iter_mut().enumerate() {
            *x = f32::from_bits(hi * CHUNK + lo as u32);
        }
        check_chunk(&widths, &input, &mut want, &mut got);
    }
    micro::force_width(None).expect("auto always pins");
}
