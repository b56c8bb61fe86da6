//! Golden `∇W` fixture: FNV-1a hashes of the filter gradient for a fixed
//! set of shapes, committed as constants and asserted at every pinnable
//! SIMD width and at one and two workers.
//!
//! The width and worker suites (`engine_simd`, `engine_sched`) compare
//! the engine against itself, so a change that moves bits the same way at
//! every width and worker count passes them. These hashes pin the bits
//! themselves: a loop restructure of the block loop or the reduce that
//! changes any element's operation sequence fails here.
//!
//! The cases cover every kernel α (2, 4, 8, 16), filter widths split into
//! several `n`-wide tiles (f = 9 on 14² runs Ω8(3,6) three times per row,
//! the Ω2(1,2) residual at f = 5 five times), Z > 1 with residual
//! segments, rows fully clipped by the height padding, border tiles and
//! phantom columns, odd channel tails, all four tile modes (FP32, FP16,
//! BF16, FP8), the storage-precision f16/bf16 paths, and one shape whose
//! transformed panels exceed the engine's scratch cap, so the windowed
//! path runs. The forward-convolution, backward-data and 3-D BFC entries
//! are pinned the same way on the shapes of their unit tests.

use std::sync::{Mutex, MutexGuard, OnceLock};
use winrs::conv::ndim::Conv3dShape;
use winrs::conv::ConvShape;
use winrs::core::engine::{ExecOptions, HealthSink, TileMode};
use winrs::core::forward::{bdc_winograd, fc_winograd};
use winrs::core::ndim::bfc3d_winrs;
use winrs::core::{Precision, WinRsPlan};
use winrs::fp16::{bf16, f16};
use winrs::gemm::micro;
use winrs::gpu::RTX_4090;
use winrs::tensor::{Scalar, Tensor4, TensorN};

/// Serialises the tests of this file: the width pin is process-global.
fn dispatch_guard() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Every width available on this host, plus `None` (auto dispatch).
fn pinnable_widths() -> Vec<Option<micro::SimdWidth>> {
    let mut v: Vec<Option<micro::SimdWidth>> = micro::SimdWidth::ALL
        .iter()
        .copied()
        .filter(|w| w.is_available())
        .map(Some)
        .collect();
    v.push(None);
    v
}

/// FNV-1a (64-bit) over the little-endian f32 bits of every element,
/// widened exactly from the storage type.
fn fnv1a<T: Scalar>(values: &[T]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for byte in v.to_f32().to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// One golden case: a shape, the plan precision, a forced baseline
/// segment count (`None` lets Algorithm 1 choose) and the tile mode the
/// FP32-staged engine runs it at.
struct Case {
    name: &'static str,
    shape: ConvShape,
    precision: Precision,
    z_hat: Option<usize>,
    mode: TileMode,
}

const fn case(
    name: &'static str,
    shape: ConvShape,
    precision: Precision,
    z_hat: Option<usize>,
    mode: TileMode,
) -> Case {
    Case {
        name,
        shape,
        precision,
        z_hat,
        mode,
    }
}

/// `ConvShape::new` with "same"-style padding `f / 2` on both axes.
const fn padded(n: usize, ih: usize, iw: usize, ic: usize, oc: usize, f: usize) -> ConvShape {
    ConvShape {
        n,
        ih,
        iw,
        ic,
        oc,
        fh: f,
        fw: f,
        ph: f / 2,
        pw: f / 2,
    }
}

use Precision::{Bf16 as PB, Fp16 as PH, Fp32 as PF};
use TileMode::{Bf16 as MB, Fp16 as MH, Fp32 as MF, Fp8 as M8};

/// The fixture. Every case runs the FP32-staged engine (`∇W` in f32).
#[rustfmt::skip]
const CASES: &[Case] = &[
    // f = 2..9 on a rectangular map with odd channel tails: every
    // kernel α, bulk + residual pairs, Z > 1.
    case("f2_13x17_5to7", padded(2, 13, 17, 5, 7, 2), PF, Some(3), MF),
    case("f3_13x17_5to7", padded(2, 13, 17, 5, 7, 3), PF, Some(3), MF),
    case("f4_13x17_5to7", padded(2, 13, 17, 5, 7, 4), PF, Some(3), MF),
    case("f5_13x17_5to7", padded(2, 13, 17, 5, 7, 5), PF, Some(3), MF),
    case("f6_13x17_5to7", padded(2, 13, 17, 5, 7, 6), PF, Some(3), MF),
    case("f7_13x17_5to7", padded(2, 13, 17, 5, 7, 7), PF, Some(3), MF),
    case("f8_13x17_5to7", padded(2, 13, 17, 5, 7, 8), PF, Some(3), MF),
    case("f9_13x17_5to7", padded(2, 13, 17, 5, 7, 9), PF, Some(3), MF),
    // No padding.
    case(
        "f2_nopad_13x17_3to2",
        ConvShape {
            n: 2,
            ih: 13,
            iw: 17,
            ic: 3,
            oc: 2,
            fh: 2,
            fw: 2,
            ph: 0,
            pw: 0,
        },
        PF,
        Some(3),
        MF,
    ),
    // f = 9 on 14²: bulk Ω8(3,6), three filter-width tiles per row.
    case("f9_14sq_37to70", padded(1, 14, 14, 37, 70, 9), PF, None, MF),
    // f = 5 on 14²: Ω16(5,12) bulk and the Ω2(1,2) residual (five tiles).
    case("f5_14sq_37to70", padded(1, 14, 14, 37, 70, 5), PF, None, MF),
    // Two ic tiles and two oc tiles with lane and row tails.
    case("f3_14sq_37to70", padded(1, 14, 14, 37, 70, 3), PF, Some(2), MF),
    // Full 64 × 32 FP32 blocks, Z > 1.
    case("f5_12sq_64to64", padded(2, 12, 12, 64, 64, 5), PF, Some(3), MF),
    // Odd O_W: the pair pads the row with a phantom column.
    case("f5_11sq_phantom", padded(1, 11, 11, 2, 3, 5), PF, Some(2), MF),
    // One-row segments in a padded map: some filter rows of the top and
    // bottom segments are fully clipped.
    case("f5_8sq_clipped", padded(1, 8, 8, 3, 5, 5), PF, Some(8), MF),
    case("f9_10sq_clipped", padded(1, 10, 10, 3, 4, 9), PF, Some(10), MF),
    // Z chosen by Algorithm 1 on a paper-like map.
    case("f3_28sq_16to16", padded(1, 28, 28, 16, 16, 3), PF, None, MF),
    // A segment whose transformed panels exceed the scratch cap: the
    // windowed path recomputes per window.
    case("f3_64sq_window", padded(10, 64, 64, 8, 8, 3), PF, Some(1), MF),
    // Reduced-precision tile modes on the ported kernels.
    case("fp16_f3_12sq_19to13", padded(2, 12, 12, 19, 13, 3), PH, Some(2), MH),
    case("fp16_f5_12sq_19to13", padded(2, 12, 12, 19, 13, 5), PH, Some(2), MH),
    case("fp16_f7_12sq_19to13", padded(2, 12, 12, 19, 13, 7), PH, Some(2), MH),
    case("fp16_f9_12sq_19to13", padded(2, 12, 12, 19, 13, 9), PH, Some(2), MH),
    case("fp16_f3_10sq_64to64", padded(1, 10, 10, 64, 64, 3), PH, None, MH),
    case("bf16_f3_12sq_19to13", padded(2, 12, 12, 19, 13, 3), PB, Some(2), MB),
    case("bf16_f7_12sq_19to13", padded(2, 12, 12, 19, 13, 7), PB, Some(2), MB),
    case("fp8_f3_12sq_19to13", padded(2, 12, 12, 19, 13, 3), PH, Some(2), M8),
    case("fp8_f9_12sq_19to13", padded(2, 12, 12, 19, 13, 9), PH, Some(2), M8),
];

/// Committed hashes, one per case in [`CASES`] order.
const GOLDEN: &[(&str, u64)] = &[
    ("f2_13x17_5to7", 0x8b09164da070b4b1),
    ("f3_13x17_5to7", 0x5b985727fa6a8495),
    ("f4_13x17_5to7", 0xde40129184a9809a),
    ("f5_13x17_5to7", 0x6b6883e6de82a31c),
    ("f6_13x17_5to7", 0x009d66579337f135),
    ("f7_13x17_5to7", 0x6796ab1fbf51063c),
    ("f8_13x17_5to7", 0x79a9f3f93f33bf15),
    ("f9_13x17_5to7", 0x6141cc8410b28921),
    ("f2_nopad_13x17_3to2", 0x0c0045b4928d840b),
    ("f9_14sq_37to70", 0x2feb263cd164f715),
    ("f5_14sq_37to70", 0xde3eddb5c362f00c),
    ("f3_14sq_37to70", 0x8ae31d7bc4b1ae7a),
    ("f5_12sq_64to64", 0x35d30a68c3d713bf),
    ("f5_11sq_phantom", 0x992f90b0205094db),
    ("f5_8sq_clipped", 0x433c578709dd97d5),
    ("f9_10sq_clipped", 0x7d96122d910a471f),
    ("f3_28sq_16to16", 0xec6a9c97d47c3a56),
    ("f3_64sq_window", 0x60764acbac98ce95),
    ("fp16_f3_12sq_19to13", 0xfc104484b5797593),
    ("fp16_f5_12sq_19to13", 0xb7ce762e67d2de86),
    ("fp16_f7_12sq_19to13", 0xff49ed592b67e9ea),
    ("fp16_f9_12sq_19to13", 0xf1a82798b430cb40),
    ("fp16_f3_10sq_64to64", 0x2d6121258d2f6fbe),
    ("bf16_f3_12sq_19to13", 0x011a587c92ec51fa),
    ("bf16_f7_12sq_19to13", 0x20840f02fe5c6120),
    ("fp8_f3_12sq_19to13", 0x1523e9f8407fa3cb),
    ("fp8_f9_12sq_19to13", 0xfd55eee34488b475),
];

fn plan_for(shape: &ConvShape, precision: Precision, z_hat: Option<usize>) -> WinRsPlan {
    match z_hat {
        Some(z) => WinRsPlan::with_z_hat(shape, &RTX_4090, precision, z),
        None => WinRsPlan::new(shape, &RTX_4090, precision),
    }
    .expect("in-envelope shape")
}

fn operands(shape: &ConvShape, seed: u64) -> (Tensor4<f32>, Tensor4<f32>) {
    let x = Tensor4::<f32>::random_uniform([shape.n, shape.ih, shape.iw, shape.ic], seed, 1.0);
    let dy =
        Tensor4::<f32>::random_uniform([shape.n, shape.oh(), shape.ow(), shape.oc], seed + 1, 1.0);
    (x, dy)
}

/// `∇W` of one case at an explicit worker count, optionally with a
/// health sink attached (reduced-precision modes only). The buckets and
/// `∇W` start filled with `fill`: the engine must never read what they
/// held, so a NaN fill hashes as a zero fill does.
fn run_case(c: &Case, seed: u64, workers: usize, health: bool, fill: f32) -> u64 {
    let plan = plan_for(&c.shape, c.precision, c.z_hat);
    let (x, dy) = operands(&c.shape, seed);
    let mut buckets = vec![fill; plan.bucket_elems()];
    let sink = HealthSink::new(plan.partition().segments.len());
    plan.execute_into_buckets(
        &x,
        &dy,
        c.mode,
        &mut buckets,
        ExecOptions {
            workers: Some(workers),
            health: health.then_some(&sink),
            ..Default::default()
        },
    )
    .expect("valid arguments");
    assert!(
        sink.is_clean(),
        "{}: unit-scale data must not saturate",
        c.name
    );
    let s = &c.shape;
    let mut dw = Tensor4::<f32>::from_fn([s.oc, s.fh, s.fw, s.ic], |_, _, _, _| fill);
    plan.reduce_into(&buckets, &mut dw);
    fnv1a(dw.as_slice())
}

/// Every case's hash at every pinnable width and at one and two workers
/// equals the committed one, from zeroed and from NaN-filled buffers: a
/// bucket element no writer stored would keep its NaN. All mismatches are
/// listed at once, in the table's own syntax.
#[test]
fn golden_dw_hashes_hold_at_every_width_and_worker_count() {
    let _g = dispatch_guard();
    let mut want = std::collections::BTreeMap::new();
    for &(name, h) in GOLDEN {
        want.insert(name, h);
    }
    let mut bad = Vec::new();
    for (ci, c) in CASES.iter().enumerate() {
        let seed = 1000 + 10 * ci as u64;
        for width in pinnable_widths() {
            micro::force_width(width).expect("available width");
            for workers in [1, 2] {
                for fill in [0.0, f32::NAN] {
                    let got = run_case(c, seed, workers, false, fill);
                    if want.get(c.name) != Some(&got) {
                        let w = width.map_or("auto", |w| w.name());
                        bad.push(format!(
                            "    (\"{}\", {got:#018x}), // {w} x{workers} fill {fill}",
                            c.name
                        ));
                    }
                }
            }
        }
        if c.mode != TileMode::Fp32 {
            // The health-sink OT branch must produce the same bits.
            micro::force_width(None).expect("auto always pins");
            let got = run_case(c, seed, 1, true, f32::NAN);
            if want.get(c.name) != Some(&got) {
                bad.push(format!("    (\"{}\", {got:#018x}), // health sink", c.name));
            }
        }
    }
    micro::force_width(None).expect("auto always pins");
    assert!(bad.is_empty(), "golden ∇W mismatches:\n{}", bad.join("\n"));
}

/// Storage-precision paths: f16 and bf16 buckets (the engine's non-f32
/// output branch and the scalar reduce).
const STORAGE_GOLDEN: &[(&str, u64)] = &[
    ("store_f16_f3_12sq_19to13", 0xb61f27e0e8dad6dd),
    ("store_f16_f9_12sq_19to13", 0x7279b965ede73c31),
    ("store_bf16_f3_12sq_19to13", 0x5119a6afa34bf71c),
];

#[test]
fn golden_storage_precision_hashes_hold_at_every_width() {
    let _g = dispatch_guard();
    let mut bad = Vec::new();
    let want = |name: &str| STORAGE_GOLDEN.iter().find(|(n, _)| *n == name).map(|p| p.1);
    for width in pinnable_widths() {
        micro::force_width(width).expect("available width");
        let w = width.map_or("auto", |w| w.name());
        for (name, shape, z) in [
            ("store_f16_f3_12sq_19to13", padded(2, 12, 12, 19, 13, 3), 2),
            ("store_f16_f9_12sq_19to13", padded(2, 12, 12, 19, 13, 9), 2),
        ] {
            let plan = plan_for(&shape, PH, Some(z));
            let (x, dy) = operands(&shape, 77);
            let dw = plan
                .execute_f16(&x.cast::<f16>(), &dy.cast::<f16>())
                .expect("valid arguments");
            let got = fnv1a(dw.as_slice());
            if want(name) != Some(got) {
                bad.push(format!("    (\"{name}\", {got:#018x}), // {w}"));
            }
        }
        let (name, shape) = ("store_bf16_f3_12sq_19to13", padded(2, 12, 12, 19, 13, 3));
        let plan = plan_for(&shape, PB, Some(2));
        let (x, dy) = operands(&shape, 78);
        let dw = plan
            .execute_bf16(&x.cast::<bf16>(), &dy.cast::<bf16>())
            .expect("valid arguments");
        let got = fnv1a(dw.as_slice());
        if want(name) != Some(got) {
            bad.push(format!("    (\"{name}\", {got:#018x}), // {w}"));
        }
    }
    micro::force_width(None).expect("auto always pins");
    assert!(
        bad.is_empty(),
        "golden storage-precision mismatches:\n{}",
        bad.join("\n")
    );
}

/// Forward convolution, backward data and 3-D BFC (`core::forward`,
/// `core::ndim`) on the shapes of their unit tests: the hashes of `Y`,
/// `∇X` and the 3-D `∇W`, one per entry in [`forward_and_3d_hashes`]'s
/// order.
const FORWARD_GOLDEN: &[(&str, u64)] = &[
    ("fc_f3_12sq_3to4", 0xa5f373dc0ce0e206),
    ("fc_f2_14sq_2to3", 0x65de31c654cb7c67),
    ("fc_f3_14sq_2to3", 0x71da698b69461284),
    ("fc_f4_14sq_2to3", 0xba418e28b07b0070),
    ("fc_f5_14sq_2to3", 0x28829324a5a64869),
    ("fc_f6_14sq_2to3", 0x58c03a58053fe1cd),
    ("fc_f3_9x13_residual", 0xd47e6cad935a90dc),
    ("bdc_f3_10sq_3to4", 0x9c56082390488c44),
    ("bdc_f4_10sq_even", 0x402bfa5cc34b6b53),
    ("bfc3d_f3_8cube", 0xcde529aa493d8ff8),
    ("bfc3d_f2_6cube", 0xd233999da22b86ef),
    ("bfc3d_anisotropic", 0xe06314e515713d16),
    ("bfc3d_nopad", 0x073bbe2ed3a02467),
];

/// `(name, hash)` of every forward, backward-data and 3-D BFC case.
fn forward_and_3d_hashes() -> Vec<(&'static str, u64)> {
    let sq = ConvShape::square;
    let mut out = Vec::new();
    let fc = [
        ("fc_f3_12sq_3to4", sq(2, 12, 3, 4, 3)),
        ("fc_f2_14sq_2to3", sq(1, 14, 2, 3, 2)),
        ("fc_f3_14sq_2to3", sq(1, 14, 2, 3, 3)),
        ("fc_f4_14sq_2to3", sq(1, 14, 2, 3, 4)),
        ("fc_f5_14sq_2to3", sq(1, 14, 2, 3, 5)),
        ("fc_f6_14sq_2to3", sq(1, 14, 2, 3, 6)),
        (
            "fc_f3_9x13_residual",
            ConvShape::new(1, 9, 13, 2, 2, 3, 3, 1, 1),
        ),
    ];
    for (name, s) in fc {
        let x = Tensor4::<f32>::random_uniform([s.n, s.ih, s.iw, s.ic], 91, 1.0);
        let w = Tensor4::<f32>::random_uniform([s.oc, s.fh, s.fw, s.ic], 92, 1.0);
        let y = fc_winograd(&s, &x, &w).expect("valid operands");
        out.push((name, fnv1a(y.as_slice())));
    }
    let bdc = [
        ("bdc_f3_10sq_3to4", sq(2, 10, 3, 4, 3)),
        (
            "bdc_f4_10sq_even",
            ConvShape::new(1, 10, 10, 2, 2, 4, 4, 2, 2),
        ),
    ];
    for (name, s) in bdc {
        let dy = Tensor4::<f32>::random_uniform([s.n, s.oh(), s.ow(), s.oc], 93, 1.0);
        let w = Tensor4::<f32>::random_uniform([s.oc, s.fh, s.fw, s.ic], 92, 1.0);
        let dx = bdc_winograd(&s, &dy, &w).expect("valid operands");
        out.push((name, fnv1a(dx.as_slice())));
    }
    let cube = |n, id, ih, iw, ic, oc, [fd, fh, fw]: [usize; 3], p| Conv3dShape {
        n,
        id,
        ih,
        iw,
        ic,
        oc,
        fd,
        fh,
        fw,
        pd: p,
        ph: p,
        pw: p,
    };
    let conv3d = [
        ("bfc3d_f3_8cube", Conv3dShape::cube(1, 8, 2, 2, 3)),
        ("bfc3d_f2_6cube", Conv3dShape::cube(2, 6, 1, 2, 2)),
        ("bfc3d_anisotropic", cube(1, 4, 9, 11, 2, 1, [2, 3, 3], 1)),
        ("bfc3d_nopad", cube(2, 5, 7, 9, 1, 2, [2, 2, 3], 0)),
    ];
    for (name, s) in conv3d {
        let x = TensorN::<f32>::random_uniform(&s.x_dims(), 31, 1.0);
        let dy = TensorN::<f32>::random_uniform(&s.dy_dims(), 32, 1.0);
        out.push((name, fnv1a(bfc3d_winrs(&s, &x, &dy).as_slice())));
    }
    out
}

/// Every forward, backward-data and 3-D BFC hash equals the committed
/// one at every pinnable width.
#[test]
fn golden_forward_and_3d_hashes_hold_at_every_width() {
    let _g = dispatch_guard();
    let mut bad = Vec::new();
    for width in pinnable_widths() {
        micro::force_width(width).expect("available width");
        let w = width.map_or("auto", |w| w.name());
        for ((name, got), &(want_name, want)) in
            forward_and_3d_hashes().into_iter().zip(FORWARD_GOLDEN)
        {
            if name != want_name || got != want {
                bad.push(format!("    (\"{name}\", {got:#018x}), // {w}"));
            }
        }
    }
    micro::force_width(None).expect("auto always pins");
    assert!(
        bad.is_empty(),
        "golden forward/3-D mismatches:\n{}",
        bad.join("\n")
    );
}
