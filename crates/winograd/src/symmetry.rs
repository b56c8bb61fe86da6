//! Even/odd transform symmetry (paper §5.2 "Transform Simplification",
//! Figure 8).
//!
//! When the interpolation points come in ± pairs, the rows of `A`, `G` and
//! `Dᵀ` for points `+p` and `−p` have *equal* elements at even column
//! positions and *opposite* elements at odd positions (because row entries
//! are powers `p^j`, and `(−p)^j = (−1)^j p^j`; the property propagates to
//! `Dᵀ = V^{−T}` rows through the inverse's structure). A kernel can then
//! compute the even and odd partial dot products once and produce both rows
//! with one addition and one subtraction — nearly halving transform
//! multiplications (paper: ≈6% end-to-end throughput).
//!
//! This module detects the pairing on generated transforms, provides a
//! paired evaluation path, and counts multiplications saved (used by the
//! ablation experiment E16).

use crate::cook_toom::Transform;
use winrs_rational::Rational;

/// The symmetry structure of one transform's evaluation rows.
#[derive(Clone, Debug)]
pub struct SymmetryPlan {
    /// Index pairs `(i⁺, i⁻)` of rows at points `+p` and `−p`.
    pub pairs: Vec<(usize, usize)>,
    /// Rows not in any pair (the 0 row and the ∞ row).
    pub singles: Vec<usize>,
}

impl SymmetryPlan {
    /// Detect ± point pairs in a generated transform.
    pub fn analyze(t: &Transform) -> SymmetryPlan {
        let mut pairs = Vec::new();
        let mut used = vec![false; t.points.len()];
        let mut singles = Vec::new();
        for (i, p) in t.points.iter().enumerate() {
            if used[i] {
                continue;
            }
            if p.is_zero() {
                used[i] = true;
                singles.push(i);
                continue;
            }
            if let Some(j) = t
                .points
                .iter()
                .enumerate()
                .position(|(j, q)| j > i && !used[j] && *q == -*p)
            {
                used[i] = true;
                used[j] = true;
                // Keep the positive point first for determinism.
                if *p > Rational::ZERO {
                    pairs.push((i, j));
                } else {
                    pairs.push((j, i));
                }
            } else {
                used[i] = true;
                singles.push(i);
            }
        }
        // The ∞ row (index α−1) is always unpaired.
        singles.push(t.alpha - 1);
        SymmetryPlan { pairs, singles }
    }

    /// Verify the even/odd element relationship on the *evaluation* matrices
    /// `A` and `G` (powers of the points). Returns false if any pair
    /// violates it.
    pub fn verify_eval_symmetry(&self, t: &Transform) -> bool {
        for &(ip, im) in &self.pairs {
            for j in 0..t.g.ncols() {
                let plus = t.g[(ip, j)];
                let minus = t.g[(im, j)];
                let want = if j % 2 == 0 { plus } else { -plus };
                if minus != want {
                    return false;
                }
            }
            for j in 0..t.a.ncols() {
                let plus = t.a[(ip, j)];
                let minus = t.a[(im, j)];
                let want = if j % 2 == 0 { plus } else { -plus };
                if minus != want {
                    return false;
                }
            }
        }
        true
    }

    /// Multiplications for one filter transform (`G·w`) without symmetry
    /// reuse: one per nonzero matrix element.
    pub fn ft_muls_naive(&self, t: &Transform) -> usize {
        let mut count = 0;
        for i in 0..t.alpha {
            for j in 0..t.r {
                if !t.g[(i, j)].is_zero() {
                    count += 1;
                }
            }
        }
        count
    }

    /// Multiplications for one filter transform with even/odd reuse: each ±
    /// pair computes its even and odd partial products once and shares them
    /// between the two rows.
    pub fn ft_muls_paired(&self, t: &Transform) -> usize {
        let mut count = 0;
        for &(ip, _) in &self.pairs {
            // One multiplication per nonzero element of the + row only.
            for j in 0..t.r {
                if !t.g[(ip, j)].is_zero() {
                    count += 1;
                }
            }
        }
        for &i in &self.singles {
            for j in 0..t.r {
                if !t.g[(i, j)].is_zero() {
                    count += 1;
                }
            }
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cook_toom::Transform;

    #[test]
    fn f36_pairs_match_figure8() {
        // F(3,6): α = 8, points {0, ±1, ±2, ±1/2} + ∞: three ± pairs, two
        // singles (0 and ∞).
        let t = Transform::generate(3, 6);
        let plan = SymmetryPlan::analyze(&t);
        assert_eq!(plan.pairs.len(), 3);
        assert_eq!(plan.singles.len(), 2);
        assert!(plan.verify_eval_symmetry(&t));
    }

    #[test]
    fn alpha16_has_seven_pairs() {
        let t = Transform::generate(8, 9);
        let plan = SymmetryPlan::analyze(&t);
        assert_eq!(plan.pairs.len(), 7);
        assert_eq!(plan.singles.len(), 2);
        assert!(plan.verify_eval_symmetry(&t));
    }

    #[test]
    fn paired_ft_nearly_halves_multiplications() {
        let t = Transform::generate(3, 6);
        let plan = SymmetryPlan::analyze(&t);
        let naive = plan.ft_muls_naive(&t);
        let paired = plan.ft_muls_paired(&t);
        // Paper: "nearly halves the required multiplications".
        assert!(
            (paired as f64) < 0.66 * naive as f64,
            "paired {paired} vs naive {naive}"
        );
    }

    #[test]
    fn trivial_transform_has_no_pairs() {
        let t = Transform::generate(1, 2); // α = 2: points {0} + ∞
        let plan = SymmetryPlan::analyze(&t);
        assert!(plan.pairs.is_empty());
        assert_eq!(plan.singles.len(), 2);
    }
}
