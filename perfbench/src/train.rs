//! The nn layers, measured off the training loop: a copy of `SmallCnn`
//! assembled from the public layers (`Conv2d` with the WinRS FP32
//! backend, `Relu`, `MaxPool2`, `Linear`, `softmax_cross_entropy`), so
//! forward, backward-filter, backward-data and the rest of a step can be
//! timed apart.

use crate::bfc::{self, DEVICE};
use crate::report::Outcome;
use crate::trace::Tracer;
use std::time::Instant;
use winrs_conv::ConvShape;
use winrs_core::{Precision, WorkspacePool};
use winrs_nn::layers::softmax_cross_entropy;
use winrs_nn::{Conv2d, GradEngine, Linear, MaxPool2, NnError, Relu, SyntheticDataset};
use winrs_tensor::Tensor4;

/// The scaled training configuration.
pub const RES: usize = 32;
pub const CHANNELS: usize = 3;
pub const FILTERS: usize = 16;
pub const CLASSES: usize = 4;
pub const BATCH: usize = 8;
pub const LR: f32 = 0.05;
const NOISE: f32 = 0.1;
/// Steps the probe takes; the first warms the layers and is not counted.
const PROBE_STEPS: usize = 6;

/// The two convolution layers' BFC problems at the training batch.
pub fn conv_shapes() -> [ConvShape; 2] {
    [
        ConvShape::square(BATCH, RES, CHANNELS, FILTERS, 3),
        ConvShape::square(BATCH, RES / 2, FILTERS, 2 * FILTERS, 3),
    ]
}

/// SmallCnn assembled from the public layers, step for step the same.
pub struct Cnn {
    conv1: Conv2d,
    relu1: Relu,
    pool1: MaxPool2,
    conv2: Conv2d,
    relu2: Relu,
    pool2: MaxPool2,
    fc: Linear,
}

/// Summed step times of the copy, seconds.
#[derive(Default)]
pub struct StepSplit {
    pub forward: f64,
    pub bfc: f64,
    pub bdc: f64,
    pub other: f64,
}

impl Cnn {
    pub fn new(seed: u64) -> Cnn {
        let engine = || GradEngine::WinRsFp32 { device: DEVICE };
        Cnn {
            conv1: Conv2d::new(RES, CHANNELS, FILTERS, 3, engine(), seed + 1),
            relu1: Relu::default(),
            pool1: MaxPool2::default(),
            conv2: Conv2d::new(RES / 2, FILTERS, 2 * FILTERS, 3, engine(), seed + 2),
            relu2: Relu::default(),
            pool2: MaxPool2::default(),
            fc: Linear::new((RES / 4) * (RES / 4) * 2 * FILTERS, CLASSES, seed + 3),
        }
    }

    /// One step with every layer call in a span. The two backward-filter
    /// problems are then timed again through `ExecHandle::run` on the same
    /// operands (outside the step's time), which splits them from the rest
    /// of `Conv2d::backward`.
    pub fn step(
        &mut self,
        x: &Tensor4<f32>,
        labels: &[usize],
        tr: &mut Tracer,
        op: u64,
        split: &mut StepSplit,
    ) -> Result<f32, NnError> {
        let t = Instant::now();
        let s = tr.open("nn.forward", op, None);
        let a1 = self.conv1.forward(x);
        let a2 = self.relu1.forward(&a1);
        let a3 = self.pool1.forward(&a2);
        let a4 = self.conv2.forward(&a3);
        let a5 = self.relu2.forward(&a4);
        let a6 = self.pool2.forward(&a5);
        let logits = self.fc.forward(&a6);
        let (loss, dlogits) = softmax_cross_entropy(&logits, labels, CLASSES);
        tr.close(s);
        let forward = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let s = tr.open("nn.head_backward", op, None);
        let g6 = self.fc.backward(&dlogits);
        let g5 = self.pool2.backward(&g6);
        let g4 = self.relu2.backward(&g5);
        tr.close(s);
        let mut other = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let s = tr.open("nn.conv2_backward", op, None);
        let g3 = self.conv2.backward(&g4)?;
        tr.close(s);
        let conv2_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let s = tr.open("nn.mid_backward", op, None);
        let g2 = self.pool1.backward(&g3);
        let g1 = self.relu1.backward(&g2);
        tr.close(s);
        other += t.elapsed().as_secs_f64();

        let t = Instant::now();
        let s = tr.open("nn.conv1_backward", op, None);
        let _ = self.conv1.backward(&g1)?;
        tr.close(s);
        let conv1_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let s = tr.open("nn.sgd", op, None);
        self.fc.sgd_step(LR);
        self.conv2.sgd_step(LR);
        self.conv1.sgd_step(LR);
        tr.close(s);
        other += t.elapsed().as_secs_f64();

        // The BFC share, through the public call on the same operands.
        let h = bfc::handle(WorkspacePool::global(), Precision::Fp32);
        let [s1, s2] = conv_shapes();
        let mut bfc_s = 0.0;
        for (shape, x, dy) in [(s1, x, &g1), (s2, &a3, &g4)] {
            let (_, dt) = tr.time("ExecHandle::run", op, None, || h.run(&shape, x, dy));
            bfc_s += dt;
        }
        split.forward += forward;
        split.bfc += bfc_s;
        split.bdc += (conv1_s + conv2_s - bfc_s).max(0.0);
        split.other += other;
        Ok(loss)
    }
}

impl StepSplit {
    pub fn emit(&self, out: &mut Outcome) {
        let total = (self.forward + self.bfc + self.bdc + self.other).max(f64::MIN_POSITIVE);
        out.layer("nn.forward_pct", 100.0 * self.forward / total, "%");
        out.layer("nn.bfc_pct", 100.0 * self.bfc / total, "%");
        out.layer("nn.bdc_pct", 100.0 * self.bdc / total, "%");
        out.layer("nn.other_pct", 100.0 * self.other / total, "%");
    }
}

/// The nn layers' shares of step time: a few traced steps of the copy at
/// the scaled configuration (res 32, 3 channels, 16 filters, batch 8). A
/// step that errs or returns a non-finite loss is a failed op.
pub fn probe(seed: u64, out: &mut Outcome) {
    let mut data = SyntheticDataset::new(RES, CHANNELS, CLASSES, NOISE, seed);
    let mut m = Cnn::new(seed);
    let mut split = StepSplit::default();
    let mut tr = Tracer::new();
    for i in 0..PROBE_STEPS {
        let (x, labels) = data.batch(BATCH);
        let mut discard = StepSplit::default();
        let target = if i == 0 { &mut discard } else { &mut split };
        out.attempted += 1;
        match m.step(&x, &labels, &mut tr, i as u64, target) {
            Ok(loss) if loss.is_finite() => {}
            Ok(loss) => {
                out.failed += 1;
                out.note(format!("nn probe step {i}: loss {loss} is not finite"));
            }
            Err(e) => {
                out.failed += 1;
                out.note(format!("nn probe step {i} failed: {e}"));
            }
        }
    }
    split.emit(out);
}
