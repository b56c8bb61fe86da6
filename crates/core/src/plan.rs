//! The public WinRS API: plan construction, execution, and cost reporting.

use crate::config::pair::{candidates, try_select_pair, KernelPair};
use crate::config::segment_count::{estimate, SegmentCountPlan};
use crate::config::segment_shape::calculate;
use crate::config::Precision;
use crate::engine::{cache_block, clip_rows, execute_segments_with, ExecOptions, TileMode};
use crate::error::{Violation, WinrsError};
use crate::partition::{Partition, Segment};
use crate::reduce::reduce_buckets;
use crate::workspace::WorkspaceLayout;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use winrs_conv::ConvShape;
use winrs_fp16::{bf16, f16};
use winrs_gpu_sim::{estimate_pipeline_time, DeviceSpec, KernelProfile};
use winrs_tensor::{Scalar, Tensor4};
use winrs_winograd::cook_toom::TransformReal;
use winrs_winograd::kernels::KernelId;

/// A fully configured WinRS execution plan for one BFC problem.
///
/// Construction runs the paper's three configuration steps (§4): fastest
/// kernel pair, Algorithm 1 (segment count), Algorithm 2 (segment shape),
/// then materialises the partition and transform matrices. The plan is
/// immutable and reusable across executions of the same shape — exactly how
/// a cuDNN-style `plan / execute` API would be used inside a training loop.
///
/// The plan is the only way into the fused engine: the typed `execute_*`
/// entries and [`WinRsPlan::execute_into_buckets`] run it with the
/// partition and transforms built here.
pub struct WinRsPlan {
    conv: ConvShape,
    precision: Precision,
    device: DeviceSpec,
    pair: KernelPair,
    count: SegmentCountPlan,
    partition: Partition,
    /// The materialised transform of each kernel of the pair, keyed by
    /// `(n, r)` and shared through the process-wide registry, so repeated
    /// plan construction re-derives nothing.
    transforms: HashMap<(usize, usize), Arc<TransformReal>>,
    layout: OnceLock<WorkspaceLayout>,
}

impl WinRsPlan {
    /// Collect *every* violation that would make plan construction fail
    /// for this `(conv, precision)` request, without building anything:
    /// shape invariants first, then the WinRS envelope (reduced-precision
    /// kernel availability). An empty list means [`WinRsPlan::new`] will
    /// succeed.
    pub fn validate(conv: &ConvShape, precision: Precision) -> Vec<Violation> {
        let mut violations: Vec<Violation> = conv
            .violations()
            .into_iter()
            .map(Violation::Shape)
            .collect();
        if conv.fw > 0 && candidates(conv.fw, precision).is_empty() {
            violations.push(Violation::NoReducedPrecisionKernel {
                fw: conv.fw,
                precision,
            });
        }
        violations
    }

    /// Configure WinRS for `conv` on `device` at `precision`.
    ///
    /// Fails with [`WinrsError::InvalidShape`] when the shape itself is
    /// ill-formed (every violation listed), or
    /// [`WinrsError::PlanRejected`] when the shape is fine but outside the
    /// WinRS envelope — the latter is recoverable via
    /// [`crate::fallback`].
    pub fn new(
        conv: &ConvShape,
        device: &DeviceSpec,
        precision: Precision,
    ) -> Result<WinRsPlan, WinrsError> {
        Self::build(conv, device, precision, None)
    }

    /// Configure with a caller-forced baseline segment count `Ẑ`,
    /// bypassing Algorithm 1 (used by the Z-sweep ablation).
    pub fn with_z_hat(
        conv: &ConvShape,
        device: &DeviceSpec,
        precision: Precision,
        z_hat: usize,
    ) -> Result<WinRsPlan, WinrsError> {
        Self::build(conv, device, precision, Some(z_hat))
    }

    /// Configure under a hard workspace budget (the cuDNN
    /// `get_workspace_size` contract inverted): runs the normal adaptive
    /// configuration, then shrinks the segment count until
    /// `(Z − 1) · |∇W|` fits `max_workspace_bytes`. `Z = 1` always fits
    /// (zero workspace), so a valid in-envelope shape never fails on the
    /// budget itself.
    pub fn with_workspace_limit(
        conv: &ConvShape,
        device: &DeviceSpec,
        precision: Precision,
        max_workspace_bytes: usize,
    ) -> Result<WinRsPlan, WinrsError> {
        let plan = Self::build(conv, device, precision, None)?;
        // Constrain the f32 staging workspace the dispatcher actually
        // writes (the layout's figure), which dominates the
        // storage-precision figure `workspace_bytes()` reports — so both
        // the paper formula and the measured peak respect the budget.
        if plan.workspace_layout().workspace_bytes() <= max_workspace_bytes {
            return Ok(plan);
        }
        // Derive the largest candidate Z from the layout's per-bucket cost
        // instead of hardcoding the element size.
        let per_bucket = plan.workspace_layout().workspace_bytes() / (plan.z() - 1);
        let max_z = 1 + max_workspace_bytes / per_bucket;
        let mut z = max_z;
        loop {
            let cand = Self::build(conv, device, precision, Some(z))?;
            if cand.workspace_layout().workspace_bytes() <= max_workspace_bytes {
                return Ok(cand);
            }
            // The partition may round Ẑ up (bands × strips); back off.
            z = z.saturating_sub(1).max(1);
            if z == 1 {
                return Self::build(conv, device, precision, Some(1));
            }
        }
    }

    fn build(
        conv: &ConvShape,
        device: &DeviceSpec,
        precision: Precision,
        force_z: Option<usize>,
    ) -> Result<WinRsPlan, WinrsError> {
        WinrsError::check_shape(conv)?;
        let pair = try_select_pair(conv.fw, conv.ow(), precision)?;
        let mut count = estimate(conv, &pair, device, precision);
        if let Some(z) = force_z {
            count.z_hat = z.max(1);
        }
        let seg_shape = calculate(count.z_hat, conv.oh(), conv.ow(), pair.bulk.r, conv.ph);
        let partition = Partition::build(conv, &pair, seg_shape)?;

        let mut transforms = HashMap::new();
        for k in [Some(pair.bulk), pair.residual].into_iter().flatten() {
            transforms.entry((k.n, k.r)).or_insert_with(|| {
                // FP16 α = 16 kernels need the scaling matrices (§5.2
                // Eq. 7) to fit binary16's dynamic range; everywhere else
                // the plain transform is used.
                if precision == Precision::Fp16 && k.alpha() == 16 {
                    winrs_winograd::registry::scaled_transform(k.n, k.r)
                } else {
                    winrs_winograd::registry::transform(k.n, k.r)
                }
            });
        }

        Ok(WinRsPlan {
            conv: *conv,
            precision,
            device: *device,
            pair,
            count,
            partition,
            transforms,
            layout: OnceLock::new(),
        })
    }

    /// The materialised (for FP16 α = 16, row-scaled) transform the engine
    /// runs `kernel`'s segments with.
    pub(crate) fn transform(&self, kernel: KernelId) -> &TransformReal {
        &self.transforms[&(kernel.n, kernel.r)]
    }

    /// The problem shape this plan was built for.
    pub fn shape(&self) -> &ConvShape {
        &self.conv
    }

    /// The selected kernel pair.
    pub fn pair(&self) -> &KernelPair {
        &self.pair
    }

    /// Final segment count `Z`.
    pub fn z(&self) -> usize {
        self.partition.z()
    }

    /// The Algorithm 1 intermediate quantities (for reporting).
    pub fn segment_count_plan(&self) -> &SegmentCountPlan {
        &self.count
    }

    /// The concrete ∇Y partition.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// Workspace in bytes: `(Z − 1) × |∇W|` (paper §3 phase 1). Zero when a
    /// single segment suffices.
    pub fn workspace_bytes(&self) -> usize {
        (self.z() - 1) * self.conv.dw_elems() * self.precision.elem_bytes()
    }

    /// The precision this plan was built for.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// The engine tile mode matching the plan's precision.
    pub fn tile_mode(&self) -> TileMode {
        self.precision.tile_mode()
    }

    /// Bucket-buffer length (`Z · |∇W|` elements) for caller-allocated
    /// buffers used with [`WinRsPlan::execute_into_buckets`].
    pub fn bucket_elems(&self) -> usize {
        self.z() * self.conv.dw_elems()
    }

    /// The complete scratch-region description for executing this plan
    /// through the FP32-staged dispatcher path ([`crate::fallback`]): the
    /// `∇W`-aliasing bucket 0, the `(Z−1)·|∇W|` overflow buckets (the
    /// paper's workspace), per-thread FT/IT/accumulator tiles sized for
    /// the largest block task, and the per-segment numeric-guard
    /// counters. Computed once and cached; a caller-owned
    /// [`crate::Workspace`] `ensure`d against this layout makes every
    /// subsequent `run_planned_into` call allocation-free in the block loop.
    ///
    /// Staging is always f32 (the guard's promote path needs full
    /// precision), so the layout's byte counts use 4-byte elements even
    /// for reduced-precision plans; [`WinRsPlan::workspace_bytes`] keeps
    /// reporting the storage-precision figure the paper quotes.
    pub fn workspace_layout(&self) -> &WorkspaceLayout {
        self.layout.get_or_init(|| {
            use crate::engine::{scratch_slot_elems_for, scratch_slots_for};
            // The numeric guard's promote path re-runs poisoned buckets at
            // FP32, whose cache blocks differ from the reduced-precision
            // ones — provision slots large enough for either mode so the
            // retry never overflows its slot. An FP32 plan sizes once:
            // each sizing reads the worker count, which costs a dozen µs.
            let sized = |mode| {
                (
                    scratch_slot_elems_for(&self.conv, &self.partition, mode),
                    scratch_slots_for(&self.conv, &self.partition, mode),
                )
            };
            let (mut slot_elems, mut slots) = sized(self.tile_mode());
            if self.tile_mode() != TileMode::Fp32 {
                let (elems, n) = sized(TileMode::Fp32);
                slot_elems = slot_elems.max(elems);
                slots = slots.max(n);
            }
            WorkspaceLayout::winrs(
                self.conv.dw_elems(),
                self.z(),
                slot_elems,
                slots,
                self.partition.segments.len(),
            )
        })
    }

    /// The four typed `execute_*` entries: refuse a plan built for another
    /// precision than `required`, run the engine at `mode` into fresh
    /// buckets of the I/O type and Kahan-reduce them into `∇W`.
    fn run_buckets<T: Scalar>(
        &self,
        entry: &'static str,
        required: Precision,
        mode: TileMode,
        x: &Tensor4<T>,
        dy: &Tensor4<T>,
    ) -> Result<Tensor4<T>, WinrsError> {
        if self.precision != required {
            return Err(WinrsError::ExecutionRejected(vec![
                Violation::PrecisionMismatch {
                    plan: self.precision,
                    entry,
                    required,
                },
            ]));
        }
        let mut buckets = vec![T::ZERO; self.bucket_elems()];
        execute_segments_with(self, x, dy, mode, &mut buckets, ExecOptions::default())?;
        let mut dw = Tensor4::<T>::zeros([self.conv.oc, self.conv.fh, self.conv.fw, self.conv.ic]);
        reduce_buckets(&buckets, self.z(), &mut dw);
        Ok(dw)
    }

    /// Execute in FP32.
    pub fn execute_f32(
        &self,
        x: &Tensor4<f32>,
        dy: &Tensor4<f32>,
    ) -> Result<Tensor4<f32>, WinrsError> {
        self.run_buckets("execute_f32", Precision::Fp32, TileMode::Fp32, x, dy)
    }

    /// Execute in FP16 (mixed-precision transforms, FP32 accumulation,
    /// FP32 Kahan reduction).
    pub fn execute_f16(
        &self,
        x: &Tensor4<f16>,
        dy: &Tensor4<f16>,
    ) -> Result<Tensor4<f16>, WinrsError> {
        self.run_buckets("execute_f16", Precision::Fp16, TileMode::Fp16, x, dy)
    }

    /// Execute in BF16 (the conclusion's porting target): bfloat16 tiles,
    /// FP32 accumulation, FP32 Kahan reduction. No scaling matrices — the
    /// bfloat16 exponent range matches f32.
    pub fn execute_bf16(
        &self,
        x: &Tensor4<bf16>,
        dy: &Tensor4<bf16>,
    ) -> Result<Tensor4<bf16>, WinrsError> {
        self.run_buckets("execute_bf16", Precision::Bf16, TileMode::Bf16, x, dy)
    }

    /// Execute with FP8 (E4M3) tile quantisation — the conclusion's final
    /// porting target, in the usual FP8-training recipe: higher-precision
    /// I/O (f32 here, standing in for the BF16 master copies), transformed
    /// tiles rounded to E4M3 for the Tensor-Core EWM, FP32 accumulation.
    /// The plan must be FP16-class (it reuses the ported kernel set and,
    /// for α = 16, the scaling matrices that keep tiles inside E4M3's
    /// ±448 range).
    pub fn execute_fp8(
        &self,
        x: &Tensor4<f32>,
        dy: &Tensor4<f32>,
    ) -> Result<Tensor4<f32>, WinrsError> {
        self.run_buckets("execute_fp8", Precision::Fp16, TileMode::Fp8, x, dy)
    }

    /// Low-level execution into caller-provided buckets: FP32 I/O at an
    /// explicit engine tile mode, honouring [`ExecOptions`] (health
    /// accounting, partial bucket re-execution, caller scratch, worker
    /// count). `buckets` holds [`WinRsPlan::bucket_elems`] elements, and
    /// [`WinRsPlan::reduce_into`] sums them into `∇W`. This is the
    /// building block the fallback dispatcher's numeric guard uses to
    /// re-run only the poisoned buckets at FP32; most callers want
    /// `execute_f32` / `execute_f16` instead.
    pub fn execute_into_buckets(
        &self,
        x: &Tensor4<f32>,
        dy: &Tensor4<f32>,
        mode: TileMode,
        buckets: &mut [f32],
        opts: ExecOptions<'_, '_>,
    ) -> Result<(), WinrsError> {
        execute_segments_with(self, x, dy, mode, buckets, opts)
    }

    /// Kahan-reduce FP32 buckets (from
    /// [`WinRsPlan::execute_into_buckets`]) into a caller-owned `∇W`
    /// tensor of the plan's filter dims.
    pub fn reduce_into(&self, buckets: &[f32], dw: &mut Tensor4<f32>) {
        reduce_buckets(buckets, self.z(), dw);
    }

    /// One segment's executed work: its tile positions (clipped filter
    /// rows × units × images × filter-width tiles) and its EWM
    /// multiply–accumulates (positions × α × O_C × I_C).
    fn segment_counts(&self, seg: &Segment) -> (u64, u64) {
        let row_iters: u64 = (0..self.conv.fh)
            .map(|fh| {
                let (lo, hi) = clip_rows(seg.h0, seg.h1, fh, self.conv.ph, self.conv.ih);
                (hi - lo) as u64
            })
            .sum();
        let fw_tiles = (self.conv.fw / seg.kernel.n) as u64;
        let positions = row_iters * seg.units as u64 * self.conv.n as u64 * fw_tiles;
        let macs =
            positions * seg.kernel.alpha() as u64 * self.conv.oc as u64 * self.conv.ic as u64;
        (positions, macs)
    }

    /// EWM multiply–accumulate count actually executed (after Winograd
    /// reduction, height clipping, and boundary/phantom redundancy).
    pub fn ewm_macs(&self) -> u64 {
        self.partition
            .segments
            .iter()
            .map(|seg| self.segment_counts(seg).1)
            .sum()
    }

    /// Total executed FLOPs: EWM plus on-the-fly transforms plus the
    /// bucket reduction.
    pub fn flops(&self) -> u64 {
        let mut transform = 0u64;
        for seg in &self.partition.segments {
            let k = seg.kernel;
            let (alpha, r) = (k.alpha() as u64, k.r as u64);
            let positions = self.segment_counts(seg).0;
            // FT: α·r per output channel; IT: α·α per input channel; both
            // per position and per channel tile revisit — the fused kernel
            // re-transforms per (oc-tile × ic-tile) pass like the GPU
            // kernel does per block.
            transform += positions * (alpha * r * self.conv.oc as u64)
                + positions * (alpha * alpha * self.conv.ic as u64);
        }
        let ot = (self.conv.dw_elems() * self.z()) as u64 * (self.pair.bulk.alpha() as u64);
        let reduction = (self.conv.dw_elems() * self.z()) as u64;
        2 * self.ewm_macs() + 2 * transform + 2 * ot + reduction
    }

    /// Time-complexity reduction over direct convolution (the paper claims
    /// 1.5×–4.5× from the kernel inventory, diluted by transforms and
    /// boundary work).
    pub fn flop_reduction(&self) -> f64 {
        self.conv.bfc_flops() as f64 / (2 * self.ewm_macs()) as f64
    }

    /// Per-launch cost profiles for the GPU model: one fused launch per
    /// kernel type plus the reduction kernel.
    pub fn kernel_profiles(&self) -> Vec<KernelProfile> {
        let sim_prec = self.precision.sim_precision();
        let eb = self.precision.elem_bytes() as u64;
        let dw_bytes = self.conv.dw_elems() as u64 * eb;

        // Group segments by kernel.
        let mut groups: HashMap<(usize, usize), (u64, usize)> = HashMap::new();
        for seg in &self.partition.segments {
            let k = seg.kernel;
            let (bn, bm) = cache_block(self.tile_mode(), k.alpha());
            let blocks = self.conv.oc.div_ceil(bn)
                * self.conv.ic.div_ceil(bm)
                * self.conv.fh
                * (self.conv.fw / k.n);
            let macs = self.segment_counts(seg).1;
            let e = groups.entry((k.n, k.r)).or_insert((0, 0));
            e.0 += 2 * macs;
            e.1 += blocks;
        }

        let x_bytes = self.conv.x_elems() as u64 * eb;
        let dy_bytes = self.conv.dy_elems() as u64 * eb;
        // The bulk and residual launches are independent until the
        // reduction, so they execute concurrently (separate streams /
        // back-to-back waves); model them as one launch whose efficiency is
        // the FLOP-weighted harmonic mean of the kernels involved.
        let total_flops: u64 = groups.values().map(|(f, _)| f).sum();
        let total_blocks: usize = groups.values().map(|(_, b)| b).sum();
        let weighted_time: f64 = groups
            .iter()
            .map(|(&(n, r), &(flops, _))| {
                flops as f64 / KernelId::pipe_efficiency(KernelId::new(n, r).alpha())
            })
            .sum();
        let eff = if weighted_time > 0.0 {
            total_flops as f64 / weighted_time
        } else {
            1.0
        };
        let mut profiles = vec![KernelProfile {
            flops: total_flops,
            io_bytes: x_bytes + dy_bytes + dw_bytes,
            intermediate_bytes: 0,
            blocks: total_blocks,
            pipe_efficiency: eff,
            precision: sim_prec,
        }];
        // Reduction kernel: bandwidth-bound pass over Z buckets.
        if self.z() > 1 {
            profiles.push(KernelProfile {
                flops: (self.conv.dw_elems() * self.z()) as u64,
                io_bytes: dw_bytes,
                intermediate_bytes: self.z() as u64 * dw_bytes,
                blocks: self.conv.dw_elems().div_ceil(4096).max(1),
                pipe_efficiency: 0.9,
                precision: sim_prec,
            });
        }
        profiles
    }

    /// Modelled execution time on the plan's device (seconds).
    pub fn estimated_time(&self) -> f64 {
        estimate_pipeline_time(&self.kernel_profiles(), &self.device)
    }

    /// Modelled effective throughput in TFLOPS, using the paper's
    /// direct-complexity numerator `2·O_C·F_H·F_W·I_C·O_H·O_W·N / t̂`.
    pub fn estimated_tflops(&self) -> f64 {
        self.conv.bfc_flops() as f64 / self.estimated_time() / 1e12
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use winrs_conv::direct::bfc_direct;
    use winrs_gpu_sim::RTX_4090;
    use winrs_tensor::mare;

    fn tensors(conv: &ConvShape, dy_scale: f64) -> (Tensor4<f64>, Tensor4<f64>, Tensor4<f64>) {
        let x = Tensor4::<f64>::random_uniform([conv.n, conv.ih, conv.iw, conv.ic], 81, 1.0);
        let dy =
            Tensor4::<f64>::random_uniform([conv.n, conv.oh(), conv.ow(), conv.oc], 82, dy_scale);
        let exact = bfc_direct(conv, &x, &dy);
        (x, dy, exact)
    }

    #[test]
    fn fp32_plan_matches_direct() {
        for &(res, f) in &[(16usize, 3usize), (14, 2), (20, 4), (18, 5), (24, 6)] {
            let conv = ConvShape::square(2, res, 4, 4, f);
            let (x, dy, exact) = tensors(&conv, 1.0);
            let plan = WinRsPlan::new(&conv, &RTX_4090, Precision::Fp32).unwrap();
            let dw = plan.execute_f32(&x.cast(), &dy.cast()).unwrap();
            let m = mare(&dw, &exact);
            assert!(m < 1e-5, "res={res} f={f}: MARE {m}");
        }
    }

    #[test]
    fn fp16_plan_matches_direct_loosely() {
        let conv = ConvShape::square(2, 16, 4, 4, 3);
        let (x, dy, exact) = tensors(&conv, 0.01);
        let plan = WinRsPlan::new(&conv, &RTX_4090, Precision::Fp16).unwrap();
        let dw = plan.execute_f16(&x.cast(), &dy.cast()).unwrap();
        let m = mare(&dw, &exact);
        // Table 4: FP16 Ω₈ MARE 3.35e-4 … 2.69e-3.
        assert!(m < 5e-3, "MARE {m}");
    }

    #[test]
    fn workspace_limit_is_respected() {
        let conv = ConvShape::vgg16_conv2(32);
        let unlimited = WinRsPlan::new(&conv, &RTX_4090, Precision::Fp32).unwrap();
        assert!(unlimited.workspace_bytes() > 1 << 20);
        for &budget in &[0usize, 147_456, 1 << 20, 8 << 20] {
            let plan =
                WinRsPlan::with_workspace_limit(&conv, &RTX_4090, Precision::Fp32, budget).unwrap();
            assert!(
                plan.workspace_bytes() <= budget,
                "budget {budget}: got {}",
                plan.workspace_bytes()
            );
        }
        // Zero budget still executes correctly (Z = 1).
        let zero = WinRsPlan::with_workspace_limit(&conv, &RTX_4090, Precision::Fp32, 0).unwrap();
        assert_eq!(zero.z(), 1);
    }

    #[test]
    fn workspace_limited_execution_is_exact() {
        let conv = ConvShape::square(2, 16, 4, 4, 3);
        let (x, dy, exact) = tensors(&conv, 1.0);
        let plan = WinRsPlan::with_workspace_limit(&conv, &RTX_4090, Precision::Fp32, 600).unwrap();
        let dw = plan.execute_f32(&x.cast(), &dy.cast()).unwrap();
        assert!(mare(&dw, &exact) < 1e-5);
    }

    #[test]
    fn fp8_path_is_rough_but_usable() {
        // E4M3 keeps only 3 mantissa bits: MARE lands around 2^-4..2^-3 —
        // usable for the FP8-training recipe (master weights stay wide),
        // and far coarser than FP16's.
        let conv = ConvShape::square(2, 16, 4, 4, 3);
        let (x, dy, exact) = tensors(&conv, 0.01);
        let plan = WinRsPlan::new(&conv, &RTX_4090, Precision::Fp16).unwrap();
        let dw8 = plan.execute_fp8(&x.cast(), &dy.cast()).unwrap();
        let m8 = mare(&dw8, &exact);
        let dw16 = plan.execute_f16(&x.cast(), &dy.cast()).unwrap();
        let m16 = mare(&dw16, &exact);
        assert!(m8 < 0.2, "fp8 MARE {m8}");
        assert!(m8 > 5.0 * m16, "fp8 {m8} should be coarser than fp16 {m16}");
        assert!(dw8.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn bf16_plan_matches_direct_loosely() {
        // BF16 has only 8 mantissa bits (ε = 2⁻⁷), so the MARE band is
        // roughly 2³–2⁴ wider than FP16's — but no scaling matrices are
        // needed and nothing overflows.
        let conv = ConvShape::square(2, 16, 4, 4, 3);
        let (x, dy, exact) = tensors(&conv, 0.01);
        let plan = WinRsPlan::new(&conv, &RTX_4090, Precision::Bf16).unwrap();
        let dw = plan.execute_bf16(&x.cast(), &dy.cast()).unwrap();
        let m = mare(&dw, &exact);
        assert!(m > 1e-5 && m < 5e-2, "MARE {m}");
    }

    #[test]
    fn bf16_large_alpha_needs_no_scaling() {
        // Ω₁₆ kernels overflow binary16 without Eq. 7 scaling; bfloat16's
        // f32 exponent range handles them unscaled.
        let conv = ConvShape::square(1, 20, 2, 2, 9); // selects α = 16
        let (x, dy, exact) = tensors(&conv, 1.0);
        let plan = WinRsPlan::new(&conv, &RTX_4090, Precision::Bf16).unwrap();
        assert_eq!(plan.pair().bulk.alpha(), 16);
        let dw = plan.execute_bf16(&x.cast(), &dy.cast()).unwrap();
        let m = mare(&dw, &exact);
        assert!(m < 0.1, "MARE {m}");
        assert!(dw.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn workspace_is_z_minus_1_buckets() {
        let conv = ConvShape::vgg16_conv2(8);
        let plan = WinRsPlan::new(&conv, &RTX_4090, Precision::Fp32).unwrap();
        assert!(plan.z() > 1);
        assert_eq!(plan.workspace_bytes(), (plan.z() - 1) * conv.dw_elems() * 4);
    }

    #[test]
    fn single_segment_means_zero_workspace() {
        let conv = ConvShape::square(32, 28, 1024, 1024, 3);
        let plan = WinRsPlan::new(&conv, &RTX_4090, Precision::Fp32).unwrap();
        assert_eq!(plan.z(), 1);
        assert_eq!(plan.workspace_bytes(), 0);
    }

    #[test]
    fn flop_reduction_within_paper_band() {
        // §1: WinRS reduces time complexity by 1.5×–4.5×.
        for &f in &[3usize, 4, 5, 6, 7, 8, 9] {
            let conv = ConvShape::square(4, 56, 32, 32, f);
            let plan = WinRsPlan::new(&conv, &RTX_4090, Precision::Fp32).unwrap();
            let red = plan.flop_reduction();
            // Kernel inventory gives 1.5–4.5×; height clipping (Figure 7)
            // can push the effective reduction slightly above 4.5.
            assert!(
                red > 1.2 && red <= 5.0,
                "f={f}: reduction {red} via {:?}",
                plan.pair()
            );
        }
    }

    #[test]
    fn profiles_provide_enough_blocks() {
        // The whole point of segmentation: the fused launches must fill the
        // SMs where the unsegmented launch could not.
        let conv = ConvShape::vgg16_conv2(32);
        let plan = WinRsPlan::new(&conv, &RTX_4090, Precision::Fp32).unwrap();
        let blocks: usize = plan
            .kernel_profiles()
            .iter()
            .filter(|p| p.intermediate_bytes == 0)
            .map(|p| p.blocks)
            .sum();
        assert!(
            blocks >= RTX_4090.n_sm,
            "only {blocks} blocks from Z = {}",
            plan.z()
        );
    }

    #[test]
    fn estimated_time_beats_unsegmented_equivalent() {
        // Compare the plan's modelled time against a hypothetical Z = 1
        // launch with identical FLOPs: segmentation must win on this
        // small-channel shape.
        let conv = ConvShape::vgg16_conv2(32);
        let plan = WinRsPlan::new(&conv, &RTX_4090, Precision::Fp32).unwrap();
        let profiles = plan.kernel_profiles();
        let fused_flops: u64 = profiles
            .iter()
            .filter(|p| p.intermediate_bytes == 0)
            .map(|p| p.flops)
            .sum();
        let unsegmented = KernelProfile {
            flops: fused_flops,
            io_bytes: profiles[0].io_bytes,
            intermediate_bytes: 0,
            blocks: plan.segment_count_plan().b2,
            pipe_efficiency: profiles[0].pipe_efficiency,
            precision: winrs_gpu_sim::Precision::Fp32,
        };
        let t_seg = plan.estimated_time();
        let t_unseg = winrs_gpu_sim::estimate_time(&unsegmented, &RTX_4090);
        assert!(
            t_seg < t_unseg / 2.0,
            "segmented {t_seg} vs unsegmented {t_unseg}"
        );
    }

    #[test]
    fn fp16_plan_faster_than_fp32_in_model() {
        let conv = ConvShape::square(32, 56, 128, 128, 3);
        let p32 = WinRsPlan::new(&conv, &RTX_4090, Precision::Fp32).unwrap();
        let p16 = WinRsPlan::new(&conv, &RTX_4090, Precision::Fp16).unwrap();
        let speedup = p32.estimated_time() / p16.estimated_time();
        // Paper: FP16 Tensor-Core WinRS averages 3.27× its FP32 version.
        assert!(speedup > 2.0 && speedup < 5.0, "speedup {speedup}");
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(16))]

        /// Satellite property: a plan built under `with_workspace_limit`
        /// never *measures* a peak above the budget either — the layout it
        /// derives `max_z` from is the same one the dispatcher carves, so
        /// the budget binds the arena, not just the formula.
        #[test]
        fn workspace_limit_bounds_measured_peak(
            res in 10usize..=16,
            ch in 1usize..=4,
            f in 2usize..=4,
            budget_kb in 0usize..=8,
        ) {
            let conv = ConvShape::square(1, res, ch, ch, f);
            let budget = budget_kb * 1024;
            let plan = match WinRsPlan::with_workspace_limit(
                &conv, &RTX_4090, Precision::Fp32, budget,
            ) {
                Ok(p) => p,
                // Out-of-envelope shapes are a planning concern, not a
                // budget one.
                Err(_) => return Ok(()),
            };
            proptest::prop_assert!(
                plan.workspace_layout().workspace_bytes() <= budget,
                "layout {} over budget {budget}",
                plan.workspace_layout().workspace_bytes()
            );
            let x = Tensor4::<f32>::random_uniform(
                [conv.n, conv.ih, conv.iw, conv.ic], 17, 1.0);
            let dy = Tensor4::<f32>::random_uniform(
                [conv.n, conv.oh(), conv.ow(), conv.oc], 18, 1.0);
            let mut ws = crate::workspace::Workspace::new();
            let mut dw = Tensor4::<f32>::zeros([conv.oc, conv.fh, conv.fw, conv.ic]);
            let report = crate::fallback::run_planned_into(
                &plan, &x, &dy, crate::fallback::NumericGuard::Ignore, &mut ws, &mut dw,
            ).map_err(|e| proptest::test_runner::TestCaseError::Fail(e.to_string()))?;
            proptest::prop_assert!(
                report.mem.workspace_bytes_peak <= budget,
                "measured peak {} over budget {budget}",
                report.mem.workspace_bytes_peak
            );
            proptest::prop_assert_eq!(
                report.mem.workspace_bytes_peak,
                report.mem.workspace_bytes_planned
            );
        }
    }
}
