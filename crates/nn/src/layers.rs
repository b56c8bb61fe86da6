//! Layers: convolution (with pluggable backward-filter engine), ReLU,
//! max-pool, and a fully connected head.

use crate::error::NnError;
use std::sync::Arc;
use winrs_conv::{direct, ConvShape};
use winrs_core::fallback::{ExecutionReport, FallbackPolicy, NumericGuard};
use winrs_core::pool::{ExecHandle, WorkspacePool};
use winrs_core::Precision;
use winrs_gpu_sim::DeviceSpec;
use winrs_tensor::Tensor4;

/// How a [`Conv2d`] computes its filter gradients.
pub enum GradEngine {
    /// Direct (exact) convolution — the baseline curve of Figure 13.
    Direct,
    /// WinRS in FP32.
    WinRsFp32 {
        /// Device the plan is configured for (affects Z, not numerics
        /// semantics beyond segmentation).
        device: DeviceSpec,
    },
    /// WinRS in FP16 with loss scaling: `∇Y` is scaled by `scale`, cast to
    /// binary16, convolved, and the result unscaled in FP32 — the paper's
    /// §6.3 training setup.
    WinRsFp16 {
        /// Device for plan configuration.
        device: DeviceSpec,
        /// Loss scale `S` (e.g. 1024.0).
        scale: f32,
    },
}

/// A stride-1 "same" convolution layer, NHWC, with bias-free filters.
///
/// The WinRS engines dispatch through a [`winrs_core::pool::ExecHandle`]
/// over a shared [`WorkspacePool`] (the process-wide
/// [`WorkspacePool::global`] unless a private pool is injected with
/// [`Conv2d::with_pool`]): arenas are leased per backward pass and
/// returned — or poisoned and rebuilt if the pass panicked — so every
/// layer of a model shares the same few workspaces and the same plan
/// cache. Which backward-filter algorithm actually runs is decided by the
/// pool's cost-model autotuner ([`winrs_core::Tuner`]): WinRS on most
/// shapes, a ranked substitute when the model (or the persistent tuning
/// database) says WinRS is slower or its envelope is exceeded —
/// reduced-precision overflow is counted (and optionally repaired) per
/// [`Conv2d::numeric_guard`]. [`Conv2d::last_report`] records what
/// actually happened, including the pool snapshot and the tuner's
/// dispatch stats.
pub struct Conv2d {
    shape_template: ConvShape,
    /// Filters `(O_C, F, F, I_C)`.
    pub weights: Tensor4<f32>,
    /// Gradients of the last backward pass.
    pub grad_weights: Tensor4<f32>,
    engine: GradEngine,
    cached_input: Option<Tensor4<f32>>,
    /// The dispatch policy (default `Auto`: the tuner's choice, degrading
    /// to a substitute when WinRS cannot deliver).
    pub fallback_policy: FallbackPolicy,
    /// What to do about reduced-precision overflow (default: count it).
    pub numeric_guard: NumericGuard,
    /// Execution report from the most recent WinRS-engined backward pass
    /// (`None` before the first backward, or for [`GradEngine::Direct`]).
    pub last_report: Option<ExecutionReport>,
    /// The workspace pool backward passes lease from. Defaults to
    /// [`WorkspacePool::global`]; its plan cache memoises plans keyed by
    /// `(shape, device, precision)`, so the first backward pass plans and
    /// every later step with the same batch size is a cache hit (visible
    /// as `pool.plan_hits` in [`Conv2d::last_report`]).
    pub pool: Arc<WorkspacePool>,
    /// Optional per-backward-pass deadline (see
    /// [`winrs_core::pool::ExecHandle::with_deadline`]). The budget is
    /// *shared* across the whole degradation ladder — waiting for a
    /// pool slot and every attempted substitute draw from the same
    /// clock — so a miss surfaces as one
    /// [`WinrsError::DeadlineExceeded`](winrs_core::WinrsError) naming
    /// the ladder rung that ran out, never as an over-budget success.
    pub deadline: Option<std::time::Duration>,
}

impl Conv2d {
    /// Create with He-style random initialisation.
    pub fn new(res: usize, ic: usize, oc: usize, f: usize, engine: GradEngine, seed: u64) -> Self {
        let shape = ConvShape::square(1, res, ic, oc, f);
        let fan_in = (f * f * ic) as f64;
        let std = (2.0 / fan_in).sqrt();
        let weights = Tensor4::<f32>::random_uniform([oc, f, f, ic], seed, 2.0 * std)
            .map(|w| w - (std as f32));
        Conv2d {
            shape_template: shape,
            grad_weights: Tensor4::zeros([oc, f, f, ic]),
            weights,
            engine,
            cached_input: None,
            fallback_policy: FallbackPolicy::default(),
            numeric_guard: NumericGuard::default(),
            last_report: None,
            pool: Arc::clone(WorkspacePool::global()),
            deadline: None,
        }
    }

    /// Lease from `pool` instead of the process-wide default — for tests
    /// and for callers that want isolated pool counters or capacity.
    pub fn with_pool(mut self, pool: Arc<WorkspacePool>) -> Self {
        self.pool = pool;
        self
    }

    fn shape_for_batch(&self, n: usize) -> ConvShape {
        let s = self.shape_template;
        ConvShape::new(n, s.ih, s.iw, s.ic, s.oc, s.fh, s.fw, s.ph, s.pw)
    }

    /// Forward: `Y = X ⊛ W`.
    pub fn forward(&mut self, x: &Tensor4<f32>) -> Tensor4<f32> {
        let n = x.dims()[0];
        let shape = self.shape_for_batch(n);
        self.cached_input = Some(x.clone());
        direct::fc_direct(&shape, x, &self.weights)
    }

    /// Backward: computes `∇W` via the configured engine and returns `∇X`.
    ///
    /// # Errors
    ///
    /// [`NnError::BackwardBeforeForward`] when no `forward` has cached an
    /// input yet; [`NnError::Dispatch`] when the backward-filter dispatcher
    /// fails even after the configured fallback policy.
    pub fn backward(&mut self, dy: &Tensor4<f32>) -> Result<Tensor4<f32>, NnError> {
        let n = self
            .cached_input
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward { layer: "Conv2d" })?
            .dims()[0];
        let shape = self.shape_for_batch(n);

        // DeviceSpec is Copy, so decide precision/scale up front and keep
        // the borrows on disjoint fields.
        let (precision, scale, device) = match &self.engine {
            GradEngine::Direct => (None, 1.0, None),
            GradEngine::WinRsFp32 { device } => (Some(Precision::Fp32), 1.0, Some(*device)),
            GradEngine::WinRsFp16 { device, scale } => {
                (Some(Precision::Fp16), *scale, Some(*device))
            }
        };

        let x = match self.cached_input.as_ref() {
            Some(x) => x,
            None => return Err(NnError::BackwardBeforeForward { layer: "Conv2d" }),
        };
        self.grad_weights = match (precision, device) {
            (Some(p), Some(d)) => {
                // Loss scaling (§6.3): FP16 convolves S·∇Y and unscales in
                // FP32. I/O stays FP32 (master-copy convention); `p` picks
                // the engine's tile mode.
                let dy_scaled;
                let dy_eff = if p == Precision::Fp16 {
                    dy_scaled = dy.scale(scale as f64);
                    &dy_scaled
                } else {
                    dy
                };
                let handle = ExecHandle::new(Arc::clone(&self.pool), d, p)
                    .with_policy(self.fallback_policy)
                    .with_guard(self.numeric_guard)
                    .with_deadline(self.deadline);
                let (dw, report) = handle.run(&shape, x, dy_eff)?;
                self.last_report = Some(report);
                if p == Precision::Fp16 {
                    dw.scale(1.0 / scale as f64)
                } else {
                    dw
                }
            }
            _ => direct::bfc_direct(&shape, x, dy),
        };
        Ok(direct::bdc_direct(&shape, dy, &self.weights))
    }

    /// SGD step.
    pub fn sgd_step(&mut self, lr: f32) {
        for (w, g) in self
            .weights
            .as_mut_slice()
            .iter_mut()
            .zip(self.grad_weights.as_slice())
        {
            *w -= lr * g;
        }
    }
}

/// Element-wise ReLU.
#[derive(Default)]
pub struct Relu {
    mask: Vec<bool>,
}

impl Relu {
    /// Forward pass; caches the activation mask.
    pub fn forward(&mut self, x: &Tensor4<f32>) -> Tensor4<f32> {
        self.mask = x.as_slice().iter().map(|&v| v > 0.0).collect();
        x.map(|v| if v > 0.0 { v } else { 0.0 })
    }

    /// Backward pass.
    pub fn backward(&self, dy: &Tensor4<f32>) -> Tensor4<f32> {
        let data = dy
            .as_slice()
            .iter()
            .zip(&self.mask)
            .map(|(&g, &m)| if m { g } else { 0.0 })
            .collect();
        Tensor4::from_vec(dy.dims(), data)
    }
}

/// 2×2 max pooling, stride 2.
#[derive(Default)]
pub struct MaxPool2 {
    argmax: Vec<usize>,
    in_dims: [usize; 4],
}

impl MaxPool2 {
    /// Forward pass; caches argmax indices.
    pub fn forward(&mut self, x: &Tensor4<f32>) -> Tensor4<f32> {
        let [n, h, w, c] = x.dims();
        assert!(h % 2 == 0 && w % 2 == 0, "MaxPool2 needs even dims");
        self.in_dims = x.dims();
        let (oh, ow) = (h / 2, w / 2);
        let mut out = Tensor4::zeros([n, oh, ow, c]);
        self.argmax = vec![0; n * oh * ow * c];
        for b in 0..n {
            for i in 0..oh {
                for j in 0..ow {
                    for ch in 0..c {
                        let mut best = f32::NEG_INFINITY;
                        let mut best_idx = 0;
                        for di in 0..2 {
                            for dj in 0..2 {
                                let idx = x.offset(b, 2 * i + di, 2 * j + dj, ch);
                                let v = x.as_slice()[idx];
                                if v > best {
                                    best = v;
                                    best_idx = idx;
                                }
                            }
                        }
                        out[(b, i, j, ch)] = best;
                        self.argmax[out.offset(b, i, j, ch)] = best_idx;
                    }
                }
            }
        }
        out
    }

    /// Backward pass: route gradients to the argmax positions.
    pub fn backward(&self, dy: &Tensor4<f32>) -> Tensor4<f32> {
        let mut dx = Tensor4::zeros(self.in_dims);
        for (flat, &g) in dy.as_slice().iter().enumerate() {
            dx.as_mut_slice()[self.argmax[flat]] += g;
        }
        dx
    }
}

/// Fully connected layer over the flattened feature map.
pub struct Linear {
    /// Weights `(out, in)` row-major.
    pub weights: Vec<f32>,
    /// Bias.
    pub bias: Vec<f32>,
    /// Last input (flattened), for the backward pass.
    cached: Vec<f32>,
    in_features: usize,
    out_features: usize,
    /// Weight gradients.
    pub grad_w: Vec<f32>,
    /// Bias gradients.
    pub grad_b: Vec<f32>,
    in_dims: [usize; 4],
}

impl Linear {
    /// Xavier-ish init.
    pub fn new(in_features: usize, out_features: usize, seed: u64) -> Self {
        let t = Tensor4::<f32>::random_uniform([1, 1, out_features, in_features], seed, 1.0);
        let scale = (1.0 / in_features as f32).sqrt();
        Linear {
            weights: t
                .as_slice()
                .iter()
                .map(|v| (v - 0.5) * 2.0 * scale)
                .collect(),
            bias: vec![0.0; out_features],
            cached: Vec::new(),
            in_features,
            out_features,
            grad_w: vec![0.0; in_features * out_features],
            grad_b: vec![0.0; out_features],
            in_dims: [0; 4],
        }
    }

    /// Forward: logits `(N, classes)` as a flat vector.
    pub fn forward(&mut self, x: &Tensor4<f32>) -> Vec<f32> {
        let n = x.dims()[0];
        let per = x.len() / n;
        assert_eq!(per, self.in_features, "Linear input size");
        self.in_dims = x.dims();
        self.cached = x.as_slice().to_vec();
        let mut out = vec![0.0f32; n * self.out_features];
        for b in 0..n {
            let xi = &self.cached[b * per..(b + 1) * per];
            for o in 0..self.out_features {
                let row = &self.weights[o * per..(o + 1) * per];
                out[b * self.out_features + o] =
                    self.bias[o] + row.iter().zip(xi).map(|(w, v)| w * v).sum::<f32>();
            }
        }
        out
    }

    /// Backward from logit gradients; accumulates parameter gradients and
    /// returns input gradients.
    pub fn backward(&mut self, dlogits: &[f32]) -> Tensor4<f32> {
        let n = self.in_dims[0];
        let per = self.in_features;
        self.grad_w.fill(0.0);
        self.grad_b.fill(0.0);
        let mut dx = vec![0.0f32; n * per];
        for b in 0..n {
            let xi = &self.cached[b * per..(b + 1) * per];
            for o in 0..self.out_features {
                let g = dlogits[b * self.out_features + o];
                self.grad_b[o] += g;
                let row = &self.weights[o * per..(o + 1) * per];
                let grow = &mut self.grad_w[o * per..(o + 1) * per];
                for i in 0..per {
                    grow[i] += g * xi[i];
                    dx[b * per + i] += g * row[i];
                }
            }
        }
        Tensor4::from_vec(self.in_dims, dx)
    }

    /// SGD step.
    pub fn sgd_step(&mut self, lr: f32) {
        for (w, g) in self.weights.iter_mut().zip(&self.grad_w) {
            *w -= lr * g;
        }
        for (b, g) in self.bias.iter_mut().zip(&self.grad_b) {
            *b -= lr * g;
        }
    }
}

/// Softmax cross-entropy: returns `(mean loss, dlogits)`.
pub fn softmax_cross_entropy(logits: &[f32], labels: &[usize], classes: usize) -> (f32, Vec<f32>) {
    let n = labels.len();
    assert_eq!(logits.len(), n * classes);
    let mut dlogits = vec![0.0f32; logits.len()];
    let mut loss = 0.0f32;
    for b in 0..n {
        let row = &logits[b * classes..(b + 1) * classes];
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let exps: Vec<f32> = row.iter().map(|&v| (v - max).exp()).collect();
        let sum: f32 = exps.iter().sum();
        let probs: Vec<f32> = exps.iter().map(|e| e / sum).collect();
        loss -= probs[labels[b]].max(1e-12).ln();
        for c in 0..classes {
            dlogits[b * classes + c] =
                (probs[c] - if c == labels[b] { 1.0 } else { 0.0 }) / n as f32;
        }
    }
    (loss / n as f32, dlogits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use winrs_gpu_sim::RTX_4090;

    #[test]
    fn conv_backward_winrs_matches_direct() {
        let mut a = Conv2d::new(8, 2, 3, 3, GradEngine::Direct, 1);
        let mut b = Conv2d::new(8, 2, 3, 3, GradEngine::WinRsFp32 { device: RTX_4090 }, 1);
        // Strict pins WinRS: on this micro shape the host model would run
        // direct convolution.
        b.fallback_policy = FallbackPolicy::Strict;
        assert_eq!(a.weights, b.weights); // same seed
        let x = Tensor4::<f32>::random_uniform([2, 8, 8, 2], 5, 1.0);
        let ya = a.forward(&x);
        let yb = b.forward(&x);
        assert_eq!(ya, yb);
        let dy = Tensor4::<f32>::random_uniform(ya.dims(), 6, 1.0);
        let dxa = a.backward(&dy).unwrap();
        let dxb = b.backward(&dy).unwrap();
        assert_eq!(dxa, dxb); // BDC identical (direct both)
        let m = winrs_tensor::mare(&b.grad_weights, &a.grad_weights);
        assert!(m < 1e-5, "MARE {m}");
        let report = b
            .last_report
            .as_ref()
            .expect("WinRS engine records a report");
        assert_eq!(report.algorithm.name(), "winrs");
        assert!(report.fallback_reason.is_none());
        assert!(a.last_report.is_none(), "Direct engine records no report");
    }

    /// Probe the (sole) pooled arena without disturbing it: an empty
    /// layout has no arena elems, so the lease's `ensure` grows nothing.
    fn probe_arena(pool: &Arc<WorkspacePool>) -> (usize, usize) {
        let mut lease = pool
            .lease(&winrs_core::WorkspaceLayout::winrs(0, 1, 0, 0, 0))
            .unwrap();
        let ws = lease.workspace();
        (ws.arena_bytes(), ws.grows())
    }

    #[test]
    fn conv_backward_reuses_workspace_across_steps() {
        // A private one-slot pool: every backward pass leases the same
        // arena, so growth is observable step to step.
        let pool = WorkspacePool::with_slots(1);
        let mut c = Conv2d::new(16, 2, 3, 3, GradEngine::WinRsFp32 { device: RTX_4090 }, 2)
            .with_pool(Arc::clone(&pool));
        c.fallback_policy = FallbackPolicy::Strict; // WinRS's arena, not a substitute's
        let x = Tensor4::<f32>::random_uniform([1, 16, 16, 2], 7, 1.0);
        let y = c.forward(&x);
        let dy = Tensor4::<f32>::random_uniform(y.dims(), 8, 1.0);
        c.backward(&dy).unwrap();
        let (sized, grows) = probe_arena(&pool);
        assert!(sized > 0, "first backward sizes the pooled arena");
        for _ in 0..2 {
            c.forward(&x);
            c.backward(&dy).unwrap();
            assert_eq!(
                probe_arena(&pool),
                (sized, grows),
                "pooled arena is reused, not regrown"
            );
        }
        let report = c.last_report.as_ref().expect("report");
        assert_eq!(report.mem.hot_loop_allocs, 0);
        assert_eq!(
            report.mem.workspace_bytes_peak,
            report.mem.workspace_bytes_planned
        );
        let stats = pool.stats();
        assert_eq!(stats.in_use, 0, "every lease returned: {stats}");
        assert_eq!(stats.poisonings, 0, "clean runs poison nothing");
    }

    #[test]
    fn conv_backward_before_forward_is_a_typed_error() {
        let mut c = Conv2d::new(8, 2, 3, 3, GradEngine::WinRsFp32 { device: RTX_4090 }, 3);
        let dy = Tensor4::<f32>::random_uniform([1, 8, 8, 3], 9, 1.0);
        match c.backward(&dy) {
            Err(NnError::BackwardBeforeForward { layer }) => assert_eq!(layer, "Conv2d"),
            other => panic!("expected BackwardBeforeForward, got {other:?}"),
        }
        // Direct engine misuse errors the same way (no silent panic path).
        let mut d = Conv2d::new(8, 2, 3, 3, GradEngine::Direct, 3);
        assert!(matches!(
            d.backward(&dy),
            Err(NnError::BackwardBeforeForward { .. })
        ));
    }

    #[test]
    fn conv_backward_hits_plan_cache_after_first_step() {
        // A private pool isolates the shared plan cache's counters so the
        // exact hit/miss sequence is assertable.
        let pool = WorkspacePool::with_slots(2);
        let mut c = Conv2d::new(12, 2, 3, 3, GradEngine::WinRsFp32 { device: RTX_4090 }, 4)
            .with_pool(Arc::clone(&pool));
        c.fallback_policy = FallbackPolicy::Strict; // WinRS's plan cache
        let x = Tensor4::<f32>::random_uniform([2, 12, 12, 2], 10, 1.0);
        let y = c.forward(&x);
        let dy = Tensor4::<f32>::random_uniform(y.dims(), 11, 1.0);

        c.backward(&dy).unwrap();
        let plan_counts = |c: &Conv2d| {
            let pool = c
                .last_report
                .as_ref()
                .and_then(|r| r.pool)
                .expect("pool snapshot");
            (pool.plan_hits, pool.plan_misses)
        };
        assert_eq!(plan_counts(&c), (0, 1));

        // Warm steps replan nothing: every later dispatch is a cache hit.
        for step in 1..=3u64 {
            c.forward(&x);
            c.backward(&dy).unwrap();
            assert_eq!(
                plan_counts(&c),
                (step, 1),
                "step {step} should hit the plan cache"
            );
        }
        assert_eq!(pool.plan_stats(), (3, 1));
        let stats = c.last_report.as_ref().unwrap().pool.expect("pool snapshot");
        assert_eq!(stats.leases, 4, "one lease per backward pass: {stats}");
    }

    #[test]
    fn relu_masks_gradients() {
        let mut r = Relu::default();
        let x = Tensor4::from_vec([1, 1, 1, 4], vec![-1.0, 2.0, -3.0, 4.0]);
        let y = r.forward(&x);
        assert_eq!(y.as_slice(), &[0.0, 2.0, 0.0, 4.0]);
        let dy = Tensor4::from_vec([1, 1, 1, 4], vec![1.0; 4]);
        let dx = r.backward(&dy);
        assert_eq!(dx.as_slice(), &[0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn maxpool_routes_gradient_to_argmax() {
        let mut p = MaxPool2::default();
        let x = Tensor4::from_vec([1, 2, 2, 1], vec![1.0, 5.0, 3.0, 2.0]);
        let y = p.forward(&x);
        assert_eq!(y.as_slice(), &[5.0]);
        let dy = Tensor4::from_vec([1, 1, 1, 1], vec![7.0]);
        let dx = p.backward(&dy);
        assert_eq!(dx.as_slice(), &[0.0, 7.0, 0.0, 0.0]);
    }

    #[test]
    fn linear_gradcheck() {
        let mut l = Linear::new(3, 2, 11);
        let x = Tensor4::from_vec([1, 1, 1, 3], vec![0.5, -1.0, 2.0]);
        let logits = l.forward(&x);
        let labels = vec![1usize];
        let (loss0, dlogits) = softmax_cross_entropy(&logits, &labels, 2);
        l.backward(&dlogits);
        // Finite-difference check one weight.
        let eps = 1e-3;
        let idx = 4;
        let mut l2 = Linear::new(3, 2, 11);
        l2.weights[idx] += eps;
        let logits2 = l2.forward(&x);
        let (loss1, _) = softmax_cross_entropy(&logits2, &labels, 2);
        let fd = (loss1 - loss0) / eps;
        assert!(
            (fd - l.grad_w[idx]).abs() < 1e-2,
            "fd {fd} vs {}",
            l.grad_w[idx]
        );
    }

    #[test]
    fn softmax_ce_prefers_correct_label() {
        let logits = vec![10.0, -10.0];
        let (loss_right, _) = softmax_cross_entropy(&logits, &[0], 2);
        let (loss_wrong, _) = softmax_cross_entropy(&logits, &[1], 2);
        assert!(loss_right < 1e-3);
        assert!(loss_wrong > 5.0);
    }
}
