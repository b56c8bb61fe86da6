//! A small VGG-style CNN: conv–relu–pool, conv–relu–pool, linear.

use crate::error::NnError;
use crate::layers::{softmax_cross_entropy, Conv2d, GradEngine, Linear, MaxPool2, Relu};
use winrs_core::fallback::FallbackPolicy;
use winrs_gpu_sim::DeviceSpec;
use winrs_tensor::Tensor4;

/// Which engine each convolution layer uses for its filter gradients.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Exact direct convolution (the reference curve).
    Direct,
    /// WinRS FP32.
    WinRsFp32,
    /// WinRS FP16 with loss scaling.
    WinRsFp16,
}

/// conv3×3(c→f) – ReLU – pool2 – conv3×3(f→2f) – ReLU – pool2 – linear.
pub struct SmallCnn {
    conv1: Conv2d,
    relu1: Relu,
    pool1: MaxPool2,
    conv2: Conv2d,
    relu2: Relu,
    pool2: MaxPool2,
    fc: Linear,
    classes: usize,
}

impl SmallCnn {
    /// Build for `res×res×channels` inputs and `classes` outputs.
    pub fn new(
        res: usize,
        channels: usize,
        filters: usize,
        classes: usize,
        backend: Backend,
        device: DeviceSpec,
        seed: u64,
    ) -> SmallCnn {
        let engine = || match backend {
            Backend::Direct => GradEngine::Direct,
            Backend::WinRsFp32 => GradEngine::WinRsFp32 { device },
            Backend::WinRsFp16 => GradEngine::WinRsFp16 {
                device,
                scale: 1024.0,
            },
        };
        let mut conv1 = Conv2d::new(res, channels, filters, 3, engine(), seed + 1);
        let mut conv2 = Conv2d::new(res / 2, filters, 2 * filters, 3, engine(), seed + 2);
        // A WinRS backend computes its filter gradients with WinRS: on this
        // model's small maps the host cost model would pick a substitute,
        // and the backends exist to compare WinRS gradients with direct ones.
        if backend != Backend::Direct {
            conv1.fallback_policy = FallbackPolicy::Strict;
            conv2.fallback_policy = FallbackPolicy::Strict;
        }
        let feat = (res / 4) * (res / 4) * 2 * filters;
        SmallCnn {
            conv1,
            relu1: Relu::default(),
            pool1: MaxPool2::default(),
            conv2,
            relu2: Relu::default(),
            pool2: MaxPool2::default(),
            fc: Linear::new(feat, classes, seed + 3),
            classes,
        }
    }

    /// One training step: returns the mean batch loss.
    ///
    /// # Errors
    ///
    /// Propagates [`NnError`] from the convolution backward passes (e.g. a
    /// dispatch failure under `FallbackPolicy::Strict`).
    pub fn train_step(
        &mut self,
        x: &Tensor4<f32>,
        labels: &[usize],
        lr: f32,
    ) -> Result<f32, NnError> {
        // Forward.
        let a1 = self.conv1.forward(x);
        let a2 = self.relu1.forward(&a1);
        let a3 = self.pool1.forward(&a2);
        let a4 = self.conv2.forward(&a3);
        let a5 = self.relu2.forward(&a4);
        let a6 = self.pool2.forward(&a5);
        let logits = self.fc.forward(&a6);
        let (loss, dlogits) = softmax_cross_entropy(&logits, labels, self.classes);

        // Backward.
        let g6 = self.fc.backward(&dlogits);
        let g5 = self.pool2.backward(&g6);
        let g4 = self.relu2.backward(&g5);
        let g3 = self.conv2.backward(&g4)?;
        let g2 = self.pool1.backward(&g3);
        let g1 = self.relu1.backward(&g2);
        let _ = self.conv1.backward(&g1)?;

        // Update.
        self.fc.sgd_step(lr);
        self.conv2.sgd_step(lr);
        self.conv1.sgd_step(lr);
        Ok(loss)
    }

    /// Classification accuracy on a batch (no parameter updates).
    pub fn accuracy(&mut self, x: &Tensor4<f32>, labels: &[usize]) -> f64 {
        let a1 = self.conv1.forward(x);
        let a2 = self.relu1.forward(&a1);
        let a3 = self.pool1.forward(&a2);
        let a4 = self.conv2.forward(&a3);
        let a5 = self.relu2.forward(&a4);
        let a6 = self.pool2.forward(&a5);
        let logits = self.fc.forward(&a6);
        let mut correct = 0usize;
        for (b, &label) in labels.iter().enumerate() {
            let row = &logits[b * self.classes..(b + 1) * self.classes];
            let pred = row
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
                .unwrap_or(0);
            if pred == label {
                correct += 1;
            }
        }
        correct as f64 / labels.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::SyntheticDataset;
    use winrs_gpu_sim::RTX_4090;

    #[test]
    fn loss_decreases_with_direct_backend() {
        let mut data = SyntheticDataset::new(8, 1, 2, 0.05, 42);
        let mut model = SmallCnn::new(8, 1, 4, 2, Backend::Direct, RTX_4090, 1);
        let (x0, l0) = data.batch(8);
        let first = model.train_step(&x0, &l0, 0.05).unwrap();
        let mut last = first;
        for _ in 0..30 {
            let (x, l) = data.batch(8);
            last = model.train_step(&x, &l, 0.05).unwrap();
        }
        assert!(last < first * 0.8, "first {first} last {last}");
    }
}
