//! Typed shape-validation errors.
//!
//! [`crate::ConvShape::new`] keeps its historical panicking contract for
//! internal construction of shapes that are known-good by context (tests,
//! sweeps over curated layer tables). Everything reachable from user input
//! — the CLI, config files, library callers validating external problem
//! descriptions — goes through [`crate::ConvShape::try_new`], which
//! reports *every* violated invariant at once instead of stopping at the
//! first.

use std::fmt;

/// One violated invariant of a convolution problem description.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShapeViolation {
    /// A dimension that must be ≥ 1 was zero.
    ZeroDim {
        /// Parameter name as the user knows it (`n`, `ic`, `oc`, …).
        name: &'static str,
    },
    /// The filter does not fit inside the padded input along one axis, so
    /// the output would be empty.
    FilterExceedsPaddedInput {
        /// `"height"` or `"width"`.
        axis: &'static str,
        /// Filter extent along the axis.
        filter: usize,
        /// Input extent along the axis.
        input: usize,
        /// Zero padding along the axis.
        pad: usize,
    },
    /// The element count of one operand (or of its padded extent) does
    /// not fit a `usize`, so no buffer can hold it and the shape
    /// arithmetic would wrap.
    ElementCountOverflow {
        /// `"x"`, `"dy"` or `"dw"`.
        tensor: &'static str,
    },
    /// A stride or dilation that must be ≥ 1 was zero.
    ZeroStrideOrDilation {
        /// Parameter name (`stride_h`, `dilation_w`, …).
        name: &'static str,
    },
}

impl fmt::Display for ShapeViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShapeViolation::ZeroDim { name } => {
                write!(f, "dimension `{name}` must be at least 1")
            }
            ShapeViolation::FilterExceedsPaddedInput {
                axis,
                filter,
                input,
                pad,
            } => write!(
                f,
                "filter {axis} {filter} exceeds padded input {axis} \
                 {input} + 2×{pad} (output would be empty)"
            ),
            ShapeViolation::ElementCountOverflow { tensor } => {
                write!(f, "element count of `{tensor}` does not fit a usize")
            }
            ShapeViolation::ZeroStrideOrDilation { name } => {
                write!(f, "`{name}` must be at least 1")
            }
        }
    }
}

/// A rejected shape: the complete list of violated invariants.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShapeError {
    /// Every violation found, in field order. Never empty.
    pub violations: Vec<ShapeViolation>,
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid convolution shape ({}): ", self.violations.len())?;
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{v}")?;
        }
        Ok(())
    }
}

impl std::error::Error for ShapeError {}
