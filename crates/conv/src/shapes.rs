//! Convolutional-layer shape arithmetic (paper Table 1).

use crate::error::{ShapeError, ShapeViolation};

/// Shape of one convolutional layer, stride 1.
///
/// All three gradient computations (FC, BDC, BFC) of the layer share these
/// parameters. The spatial relationship is `O = I + 2p − F + 1`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConvShape {
    /// Batch size `N`.
    pub n: usize,
    /// Input height `I_H`.
    pub ih: usize,
    /// Input width `I_W`.
    pub iw: usize,
    /// Input channels `I_C`.
    pub ic: usize,
    /// Output channels `O_C`.
    pub oc: usize,
    /// Filter height `F_H`.
    pub fh: usize,
    /// Filter width `F_W`.
    pub fw: usize,
    /// Zero padding along height, `p_H`.
    pub ph: usize,
    /// Zero padding along width, `p_W`.
    pub pw: usize,
}

impl ConvShape {
    /// Construct and validate. Panics if the output would be empty.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        n: usize,
        ih: usize,
        iw: usize,
        ic: usize,
        oc: usize,
        fh: usize,
        fw: usize,
        ph: usize,
        pw: usize,
    ) -> ConvShape {
        let s = ConvShape {
            n,
            ih,
            iw,
            ic,
            oc,
            fh,
            fw,
            ph,
            pw,
        };
        assert!(
            ih + 2 * ph + 1 > fh && iw + 2 * pw + 1 > fw,
            "filter larger than padded input: {s:?}"
        );
        assert!(n > 0 && ic > 0 && oc > 0 && fh > 0 && fw > 0);
        s
    }

    /// Construct with full validation, reporting *every* violated
    /// invariant. This is the entry point for externally supplied problem
    /// descriptions (CLI flags, config files); [`ConvShape::new`] keeps
    /// the panicking contract for shapes known-good by construction.
    #[allow(clippy::too_many_arguments)]
    pub fn try_new(
        n: usize,
        ih: usize,
        iw: usize,
        ic: usize,
        oc: usize,
        fh: usize,
        fw: usize,
        ph: usize,
        pw: usize,
    ) -> Result<ConvShape, ShapeError> {
        let s = ConvShape {
            n,
            ih,
            iw,
            ic,
            oc,
            fh,
            fw,
            ph,
            pw,
        };
        match s.violations() {
            v if v.is_empty() => Ok(s),
            violations => Err(ShapeError { violations }),
        }
    }

    /// Collect every violated shape invariant (empty when valid).
    pub fn violations(&self) -> Vec<ShapeViolation> {
        let mut v = Vec::new();
        for (name, value) in [
            ("n", self.n),
            ("ih", self.ih),
            ("iw", self.iw),
            ("ic", self.ic),
            ("oc", self.oc),
            ("fh", self.fh),
            ("fw", self.fw),
        ] {
            if value == 0 {
                v.push(ShapeViolation::ZeroDim { name });
            }
        }
        // Output extent `I + 2p + 1 − F` along one axis, `None` when it
        // does not fit a `usize` (then neither does ∇Y's element count).
        // The filter check is only meaningful for a non-zero filter; with
        // F = 0 the extent is ill-defined anyway.
        let mut out_extent = |axis, input: usize, pad: usize, filter: usize| {
            let plus_one = pad
                .checked_mul(2)
                .and_then(|p| p.checked_add(input))
                .and_then(|p| p.checked_add(1));
            match plus_one {
                Some(p) if filter > 0 && p <= filter => {
                    v.push(ShapeViolation::FilterExceedsPaddedInput {
                        axis,
                        filter,
                        input,
                        pad,
                    });
                    Some(0)
                }
                p => p.map(|p| p.saturating_sub(filter)),
            }
        };
        let oh = out_extent("height", self.ih, self.ph, self.fh);
        let ow = out_extent("width", self.iw, self.pw, self.fw);
        let product = |dims: [Option<usize>; 4]| {
            if dims.contains(&Some(0)) {
                return Some(0);
            }
            dims.into_iter()
                .try_fold(1usize, |acc, d| acc.checked_mul(d?))
        };
        for (tensor, dims) in [
            (
                "x",
                [Some(self.n), Some(self.ih), Some(self.iw), Some(self.ic)],
            ),
            ("dy", [Some(self.n), oh, ow, Some(self.oc)]),
            (
                "dw",
                [Some(self.oc), Some(self.fh), Some(self.fw), Some(self.ic)],
            ),
        ] {
            if product(dims).is_none() {
                v.push(ShapeViolation::ElementCountOverflow { tensor });
            }
        }
        v
    }

    /// "Same"-style shape: square feature map `res×res`, square filter
    /// `f×f`, padding `⌊f/2⌋` — the common CNN layer configuration used
    /// throughout the paper's sweep.
    pub fn square(n: usize, res: usize, ic: usize, oc: usize, f: usize) -> ConvShape {
        ConvShape::new(n, res, res, ic, oc, f, f, f / 2, f / 2)
    }

    /// Output-gradient height `O_H = I_H + 2p_H − F_H + 1`.
    pub fn oh(&self) -> usize {
        self.ih + 2 * self.ph + 1 - self.fh
    }

    /// Output-gradient width `O_W = I_W + 2p_W − F_W + 1`.
    pub fn ow(&self) -> usize {
        self.iw + 2 * self.pw + 1 - self.fw
    }

    /// Elements of `X`.
    pub fn x_elems(&self) -> usize {
        self.n * self.ih * self.iw * self.ic
    }

    /// Elements of `∇Y`.
    pub fn dy_elems(&self) -> usize {
        self.n * self.oh() * self.ow() * self.oc
    }

    /// Elements of `∇W`.
    pub fn dw_elems(&self) -> usize {
        self.oc * self.fh * self.fw * self.ic
    }

    /// Total data size (X + ∇Y + ∇W) in bytes at `elem_bytes` per element —
    /// the denominator of the paper's "workspace / data size" ratios.
    pub fn data_bytes(&self, elem_bytes: usize) -> usize {
        (self.x_elems() + self.dy_elems() + self.dw_elems()) * elem_bytes
    }

    /// Direct-convolution FLOPs of the BFC (`2·O_C·F_H·F_W·I_C·O_H·O_W·N`,
    /// the paper's §6.2 throughput numerator). FC and BDC have the same
    /// count at stride 1.
    pub fn bfc_flops(&self) -> u64 {
        2 * self.oc as u64
            * self.fh as u64
            * self.fw as u64
            * self.ic as u64
            * self.oh() as u64
            * self.ow() as u64
            * self.n as u64
    }

    /// Accumulation length `N·O_H·O_W` per `∇W` element (x-axis of paper
    /// Figure 12C).
    pub fn accumulation_length(&self) -> usize {
        self.n * self.oh() * self.ow()
    }

    /// The 2nd convolutional layer of VGG16 at batch 32 — the paper's
    /// running example (Figures 1 and 2): 3×3 filters, 224×224 maps, 64
    /// channels.
    pub fn vgg16_conv2(batch: usize) -> ConvShape {
        ConvShape::square(batch, 224, 64, 64, 3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_padding_preserves_resolution() {
        let s = ConvShape::square(32, 224, 64, 64, 3);
        assert_eq!(s.oh(), 224);
        assert_eq!(s.ow(), 224);
    }

    #[test]
    fn even_filter_shrinks_map() {
        let s = ConvShape::square(1, 32, 8, 8, 4); // pad 2
        assert_eq!(s.oh(), 32 + 4 + 1 - 4);
    }

    #[test]
    fn vgg16_conv2_matches_figure1() {
        // Figure 1: FC/BDC have 3×3 filters and 224×224 outputs; BFC has
        // 224×224 "filters" (∇Y) and 3×3 outputs (∇W).
        let s = ConvShape::vgg16_conv2(32);
        assert_eq!((s.fh, s.fw), (3, 3));
        assert_eq!((s.oh(), s.ow()), (224, 224));
        assert_eq!(s.dw_elems(), 64 * 3 * 3 * 64);
    }

    #[test]
    fn flops_formula() {
        let s = ConvShape::new(2, 5, 5, 3, 4, 2, 2, 0, 0);
        // oh = ow = 4.
        assert_eq!(s.bfc_flops(), 2 * 4 * 2 * 2 * 3 * 4 * 4 * 2);
    }

    #[test]
    fn data_bytes_sums_three_tensors() {
        let s = ConvShape::new(1, 4, 4, 2, 3, 3, 3, 1, 1);
        let want = (s.x_elems() + s.dy_elems() + s.dw_elems()) * 4;
        assert_eq!(s.data_bytes(4), want);
    }

    #[test]
    #[should_panic(expected = "filter larger")]
    fn oversized_filter_rejected() {
        let _ = ConvShape::new(1, 2, 2, 1, 1, 5, 5, 0, 0);
    }

    #[test]
    fn try_new_accepts_valid_shape() {
        let s = ConvShape::try_new(2, 16, 16, 4, 4, 3, 3, 1, 1).unwrap();
        assert_eq!(s, ConvShape::square(2, 16, 4, 4, 3));
    }

    #[test]
    fn try_new_reports_every_violation_at_once() {
        // Zero batch, zero channels, AND an oversized filter: all four
        // problems must be reported together, not just the first.
        let err = ConvShape::try_new(0, 2, 2, 0, 1, 5, 5, 0, 0).unwrap_err();
        assert_eq!(err.violations.len(), 4, "{err}");
        assert!(err
            .violations
            .contains(&ShapeViolation::ZeroDim { name: "n" }));
        assert!(err
            .violations
            .contains(&ShapeViolation::ZeroDim { name: "ic" }));
        assert!(err.violations.iter().any(|v| matches!(
            v,
            ShapeViolation::FilterExceedsPaddedInput { axis: "height", .. }
        )));
        assert!(err.violations.iter().any(|v| matches!(
            v,
            ShapeViolation::FilterExceedsPaddedInput { axis: "width", .. }
        )));
        let msg = err.to_string();
        assert!(msg.contains("`n`") && msg.contains("height"), "{msg}");
    }

    #[test]
    fn try_new_rejects_filter_taller_than_padded_input() {
        let err = ConvShape::try_new(1, 4, 16, 1, 1, 7, 3, 1, 1).unwrap_err();
        assert_eq!(err.violations.len(), 1);
        assert!(matches!(
            err.violations[0],
            ShapeViolation::FilterExceedsPaddedInput {
                axis: "height",
                filter: 7,
                input: 4,
                pad: 1,
            }
        ));
    }

    #[test]
    fn try_new_refuses_shapes_whose_arithmetic_overflows() {
        // `ih + 2·ph` wraps: ∇Y's extent, so its element count, has no value.
        let err = ConvShape::try_new(1, 8, 8, 4, 4, 3, 3, usize::MAX, 1).unwrap_err();
        assert_eq!(
            err.violations,
            vec![ShapeViolation::ElementCountOverflow { tensor: "dy" }]
        );
        // X alone would hold 2^64 elements.
        let err =
            ConvShape::try_new(1 << 20, 1 << 16, 1 << 16, 1 << 12, 4, 3, 3, 1, 1).unwrap_err();
        assert_eq!(
            err.violations,
            vec![ShapeViolation::ElementCountOverflow { tensor: "x" }]
        );
    }

    #[test]
    fn accumulation_length_formula() {
        let s = ConvShape::square(32, 224, 64, 64, 3);
        assert_eq!(s.accumulation_length(), 32 * 224 * 224);
        assert!(s.accumulation_length() >= 1 << 18); // "early layer" regime
    }
}
