//! Partial-pivoting LU decomposition.
//!
//! The thermal model's conductance matrix `B` must be inverted once per
//! configuration (`T_steady = B⁻¹(P + T_amb·G)`, paper Eq. 3) and its
//! factorization is reused for every steady-state solve. A dense
//! Doolittle-style LU with partial pivoting is exact enough: `B` is
//! symmetric positive definite and well conditioned for physical RC values.

use crate::simd::{multiversion, Backend};
use crate::{LinalgError, Matrix, Result, Vector};

/// A partial-pivoting LU decomposition `P·A = L·U` of a square matrix.
///
/// Factor once, then [`solve`](LuDecomposition::solve) many right-hand sides
/// — exactly the access pattern of repeated steady-state temperature solves.
///
/// # Example
///
/// ```
/// use hp_linalg::{Matrix, Vector};
///
/// # fn main() -> Result<(), hp_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[3.0, 1.0], &[1.0, 2.0]])?;
/// let lu = a.lu()?;
/// let x = lu.solve(&Vector::from(vec![9.0, 8.0]))?;
/// assert!((x[0] - 2.0).abs() < 1e-12);
/// assert!((x[1] - 3.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LuDecomposition {
    /// Combined L (unit lower, below diagonal) and U (upper) factors.
    factors: Matrix,
    /// Row permutation: `perm[i]` is the original row now in position `i`.
    perm: Vec<usize>,
    /// Sign of the permutation (for the determinant).
    perm_sign: f64,
    /// `‖A‖₁` of the factorized matrix, captured at factorization time for
    /// [`condition_estimate`](LuDecomposition::condition_estimate).
    norm_one: f64,
}

impl LuDecomposition {
    /// Factorizes `a` with partial pivoting.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::NotSquare`] if `a` is rectangular.
    /// * [`LinalgError::Singular`] if a pivot collapses to (near) zero.
    pub fn new(a: &Matrix) -> Result<Self> {
        Self::with_backend(Backend::detect(), a)
    }

    /// [`new`](Self::new) on `backend`'s build of the elimination.
    fn with_backend(backend: Backend, a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let n = a.rows();
        let mut f = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();

        // A pivot is declared singular relative to the largest entry of the
        // matrix, not in absolute terms, so well-scaled tiny systems factor.
        let scale = a.norm_inf().max(f64::MIN_POSITIVE);
        let tiny = scale * 1e-14 * crate::convert::usize_to_f64(n);
        let perm_sign = eliminate(backend, f.as_mut_slice(), &mut perm, n, tiny)?;

        Ok(LuDecomposition {
            factors: f,
            perm,
            perm_sign,
            norm_one: a.norm_one(),
        })
    }

    /// Dimension of the factorized matrix.
    pub fn dim(&self) -> usize {
        self.factors.rows()
    }

    /// Solves `A·x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.len() != self.dim()`.
    pub fn solve(&self, b: &Vector) -> Result<Vector> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "lu solve",
                left: (n, n),
                right: (b.len(), 1),
            });
        }
        // Apply permutation, then forward/backward substitution.
        let mut x = Vector::from_fn(n, |i| b[self.perm[i]]);
        for i in 1..n {
            let mut s = x[i];
            for j in 0..i {
                s -= self.factors[(i, j)] * x[j];
            }
            x[i] = s;
        }
        for i in (0..n).rev() {
            let mut s = x[i];
            for j in (i + 1)..n {
                s -= self.factors[(i, j)] * x[j];
            }
            x[i] = s / self.factors[(i, i)];
        }
        Ok(x)
    }

    /// Solves `A·X = B` column-by-column.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.rows() != self.dim()`.
    pub fn solve_matrix(&self, b: &Matrix) -> Result<Matrix> {
        let n = self.dim();
        if b.rows() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "lu solve_matrix",
                left: (n, n),
                right: (b.rows(), b.cols()),
            });
        }
        let mut out = Matrix::zeros(n, b.cols());
        for j in 0..b.cols() {
            let col = self.solve(&b.column(j))?;
            for i in 0..n {
                out[(i, j)] = col[i];
            }
        }
        Ok(out)
    }

    /// Solves `Aᵀ·x = b` using the same factors (`Aᵀ = Uᵀ·Lᵀ·P`).
    ///
    /// The transposed solve is what the Hager condition estimator needs:
    /// estimating `‖A⁻¹‖₁` requires products with both `A⁻¹` and `A⁻ᵀ`,
    /// and reusing the factorization keeps the estimate `O(n²)`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.len() != self.dim()`.
    pub fn solve_transposed(&self, b: &Vector) -> Result<Vector> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "lu solve_transposed",
                left: (n, n),
                right: (b.len(), 1),
            });
        }
        // Aᵀ = Uᵀ·Lᵀ·P: forward-substitute Uᵀ (lower triangular with U's
        // diagonal), back-substitute Lᵀ (unit upper triangular), then undo
        // the row permutation.
        let mut w = b.clone();
        for i in 0..n {
            let mut s = w[i];
            for j in 0..i {
                s -= self.factors[(j, i)] * w[j];
            }
            w[i] = s / self.factors[(i, i)];
        }
        for i in (0..n).rev() {
            let mut s = w[i];
            for j in (i + 1)..n {
                s -= self.factors[(j, i)] * w[j];
            }
            w[i] = s;
        }
        let mut x = Vector::zeros(n);
        for i in 0..n {
            x[self.perm[i]] = w[i];
        }
        Ok(x)
    }

    /// 1-norm condition-number estimate `‖A‖₁·‖A⁻¹‖₁` via Hager's power
    /// method on `A⁻¹`, reusing the existing factors (a handful of `O(n²)`
    /// substitutions — no inverse is formed).
    ///
    /// The estimate is a lower bound on the true condition number that is
    /// almost always within a small factor of it; callers compare it
    /// against a trust threshold, not against an exact value.
    ///
    /// # Errors
    ///
    /// Propagates solve errors (cannot occur for a successfully factorized
    /// matrix).
    pub fn condition_estimate(&self) -> Result<f64> {
        let n = self.dim();
        if n == 0 {
            return Ok(0.0);
        }
        // Hager's estimator for ‖A⁻¹‖₁: walk towards the maximizing unit
        // 1-norm vector, following the gradient sign through A⁻ᵀ.
        let inv_n = 1.0 / crate::convert::usize_to_f64(n);
        let mut x = Vector::constant(n, inv_n);
        let mut estimate = 0.0f64;
        for _ in 0..5 {
            let y = self.solve(&x)?;
            let y_norm: f64 = y.iter().map(|v| v.abs()).sum();
            if y_norm <= estimate {
                break;
            }
            estimate = y_norm;
            let xi = Vector::from_fn(n, |i| if y[i] >= 0.0 { 1.0 } else { -1.0 });
            let z = self.solve_transposed(&xi)?;
            let (mut best_j, mut best_v) = (0, 0.0f64);
            for j in 0..n {
                if z[j].abs() > best_v {
                    best_v = z[j].abs();
                    best_j = j;
                }
            }
            let dot: f64 = (0..n).map(|i| z[i] * x[i]).sum();
            if best_v <= dot {
                break;
            }
            x = Vector::from_fn(n, |i| if i == best_j { 1.0 } else { 0.0 });
        }
        Ok(self.norm_one * estimate)
    }

    /// Solves `A·x = b` with one round of iterative refinement: the raw
    /// substitution solution is corrected by solving for the residual
    /// `r = b − A·x` and adding the correction, which recovers most of the
    /// accuracy lost to a mildly ill-conditioned factorization.
    ///
    /// `a` must be the matrix this decomposition was built from; the
    /// residual is computed against it. The plain
    /// [`solve`](LuDecomposition::solve) is unchanged, so callers that
    /// depend on its exact bit patterns are unaffected.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::DimensionMismatch`] for wrong-size `a` or `b`.
    /// * [`NumericalError::NonFinite`] (wrapped) if the refined solution
    ///   contains NaN or infinity.
    ///
    /// [`NumericalError::NonFinite`]: crate::NumericalError::NonFinite
    pub fn solve_refined(&self, a: &Matrix, b: &Vector) -> Result<Vector> {
        let n = self.dim();
        if a.rows() != n || a.cols() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "lu solve_refined",
                left: (n, n),
                right: (a.rows(), a.cols()),
            });
        }
        let mut x = self.solve(b)?;
        for _ in 0..2 {
            let ax = a.mul_vector(&x);
            let r = Vector::from_fn(n, |i| b[i] - ax[i]);
            let r_norm = r.norm_inf();
            if r_norm == 0.0 || !r_norm.is_finite() {
                break;
            }
            let dx = self.solve(&r)?;
            x = Vector::from_fn(n, |i| x[i] + dx[i]);
        }
        if x.iter().any(|v| !v.is_finite()) {
            return Err(crate::NumericalError::NonFinite {
                what: "lu refined solution",
            }
            .into());
        }
        Ok(x)
    }

    /// Computes the inverse `A⁻¹`.
    ///
    /// # Errors
    ///
    /// Propagates solve errors (cannot occur for a successfully factorized
    /// matrix of matching dimension).
    pub fn inverse(&self) -> Result<Matrix> {
        self.solve_matrix(&Matrix::identity(self.dim()))
    }

    /// Determinant of the factorized matrix.
    pub fn determinant(&self) -> f64 {
        let mut det = self.perm_sign;
        for i in 0..self.dim() {
            det *= self.factors[(i, i)];
        }
        det
    }
}

multiversion! {
    /// [`eliminate_body`] on `backend`'s build.
    fn eliminate(f: &mut [f64], perm: &mut [usize], n: usize, tiny: f64) -> Result<f64> =
        eliminate_body;
}

/// Gaussian elimination with partial pivoting of the row-major `n × n`
/// matrix `f`, in place: on return `f` holds `L` (unit lower, below the
/// diagonal) and `U`, and `perm` the row permutation applied to the
/// identity it held. Returns the permutation's sign.
///
/// Every row update is one axpy over a contiguous row tail, in the
/// textbook's order.
///
/// # Errors
///
/// [`LinalgError::Singular`] at the first pivot whose magnitude is at
/// most `tiny`.
#[inline(always)]
fn eliminate_body(f: &mut [f64], perm: &mut [usize], n: usize, tiny: f64) -> Result<f64> {
    let mut perm_sign = 1.0;
    for k in 0..n {
        // Find the pivot row.
        let mut pivot_row = k;
        let mut pivot_val = f[k * n + k].abs();
        for i in (k + 1)..n {
            let v = f[i * n + k].abs();
            if v > pivot_val {
                pivot_val = v;
                pivot_row = i;
            }
        }
        if pivot_val <= tiny {
            return Err(LinalgError::Singular { pivot: k });
        }
        let (top, below) = f.split_at_mut((k + 1) * n);
        let row_k = &mut top[k * n..];
        if pivot_row != k {
            row_k.swap_with_slice(&mut below[(pivot_row - k - 1) * n..(pivot_row - k) * n]);
            perm.swap(k, pivot_row);
            perm_sign = -perm_sign;
        }
        let pivot = row_k[k];
        let tail = &row_k[k + 1..];
        for row in below.chunks_exact_mut(n) {
            let m = row[k] / pivot;
            row[k] = m;
            if m != 0.0 {
                for (x, &y) in row[k + 1..].iter_mut().zip(tail) {
                    *x -= m * y;
                }
            }
        }
    }
    Ok(perm_sign)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{chips, lu_cases};
    use crate::scalar_reference;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} != {b} (tol {tol})");
    }

    #[test]
    fn solve_known_3x3() {
        let a =
            Matrix::from_rows(&[&[2.0, 1.0, -1.0], &[-3.0, -1.0, 2.0], &[-2.0, 1.0, 2.0]]).unwrap();
        let b = Vector::from(vec![8.0, -11.0, -3.0]);
        let x = a.lu().unwrap().solve(&b).unwrap();
        assert_close(x[0], 2.0, 1e-12);
        assert_close(x[1], 3.0, 1e-12);
        assert_close(x[2], -1.0, 1e-12);
    }

    #[test]
    fn determinant_known() {
        let a = Matrix::from_rows(&[&[4.0, 3.0], &[6.0, 3.0]]).unwrap();
        assert_close(a.lu().unwrap().determinant(), -6.0, 1e-12);
    }

    #[test]
    fn determinant_identity_is_one() {
        assert_close(Matrix::identity(5).lu().unwrap().determinant(), 1.0, 1e-12);
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let a = Matrix::from_rows(&[&[5.0, 2.0, 1.0], &[2.0, 6.0, 3.0], &[1.0, 3.0, 7.0]]).unwrap();
        let inv = a.lu().unwrap().inverse().unwrap();
        let prod = a.mul_matrix(&inv).unwrap();
        let err = (&prod - &Matrix::identity(3)).norm_inf();
        assert!(err < 1e-12, "residual {err}");
    }

    #[test]
    fn singular_matrix_rejected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert!(matches!(a.lu(), Err(LinalgError::Singular { .. })));
    }

    #[test]
    fn rectangular_rejected() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(a.lu(), Err(LinalgError::NotSquare { .. })));
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let x = a
            .lu()
            .unwrap()
            .solve(&Vector::from(vec![2.0, 3.0]))
            .unwrap();
        assert_close(x[0], 3.0, 1e-12);
        assert_close(x[1], 2.0, 1e-12);
    }

    #[test]
    fn solve_transposed_matches_explicit_transpose() {
        let a =
            Matrix::from_rows(&[&[2.0, 1.0, -1.0], &[-3.0, -1.0, 2.0], &[-2.0, 1.0, 2.0]]).unwrap();
        let b = Vector::from(vec![1.0, -2.0, 0.5]);
        let x = a.lu().unwrap().solve_transposed(&b).unwrap();
        let x_ref = a.transpose().lu().unwrap().solve(&b).unwrap();
        assert!((&x - &x_ref).norm_inf() < 1e-12);
    }

    #[test]
    fn condition_estimate_identity_is_one() {
        let est = Matrix::identity(4)
            .lu()
            .unwrap()
            .condition_estimate()
            .unwrap();
        assert_close(est, 1.0, 1e-12);
    }

    #[test]
    fn condition_estimate_tracks_diagonal_spread() {
        // cond₁ of diag(1, 1e-6) is exactly 1e6; Hager finds it exactly
        // for diagonal matrices.
        let a = Matrix::from_diagonal(&Vector::from(vec![1.0, 1e-6]));
        let est = a.lu().unwrap().condition_estimate().unwrap();
        assert!((est / 1e6 - 1.0).abs() < 1e-9, "estimate {est:e}");
    }

    #[test]
    fn condition_estimate_flags_near_singular() {
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0 + 1e-10]]).unwrap();
        let est = a.lu().unwrap().condition_estimate().unwrap();
        assert!(est > 1e9, "estimate {est:e}");
    }

    #[test]
    fn solve_refined_improves_ill_conditioned_solution() {
        // A mildly ill-conditioned Hilbert-like system: refinement must not
        // make the residual worse, and the result must stay finite.
        let n = 6;
        let a = Matrix::from_fn(n, n, |i, j| 1.0 / (1.0 + (i + j) as f64));
        let x_true = Vector::from_fn(n, |i| (i + 1) as f64);
        let b = a.mul_vector(&x_true);
        let lu = a.lu().unwrap();
        let refined = lu.solve_refined(&a, &b).unwrap();
        let r = {
            let ax = a.mul_vector(&refined);
            Vector::from_fn(n, |i| b[i] - ax[i]).norm_inf()
        };
        let plain = lu.solve(&b).unwrap();
        let r_plain = {
            let ax = a.mul_vector(&plain);
            Vector::from_fn(n, |i| b[i] - ax[i]).norm_inf()
        };
        assert!(
            r <= r_plain * (1.0 + 1e-9),
            "refined {r:e} vs plain {r_plain:e}"
        );
        assert!((&refined - &x_true).norm_inf() < 1e-6);
    }

    #[test]
    fn solve_refined_rejects_wrong_shape() {
        let a = Matrix::identity(3);
        let lu = a.lu().unwrap();
        assert!(matches!(
            lu.solve_refined(&Matrix::identity(2), &Vector::zeros(3)),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn solve_dimension_mismatch() {
        let lu = Matrix::identity(3).lu().unwrap();
        assert!(matches!(
            lu.solve(&Vector::zeros(2)),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    /// Asserts that `a`'s factors on every backend, and a solve with
    /// them, have the scalar loops' bits.
    fn assert_lu_bits(name: &str, a: &Matrix) {
        let (factors, perm) = scalar_reference::lu_factors(a).unwrap();
        let rhs = Vector::from_fn(a.rows(), |i| 1.0 + (i % 5) as f64 * 0.25);
        let x = scalar_reference::lu_solve(&factors, &perm, &rhs);
        for backend in Backend::available() {
            let lu = LuDecomposition::with_backend(backend, a).unwrap();
            let at = format!("{name} on {}", backend.name());
            assert_eq!(
                bits(lu.factors.as_slice()),
                bits(factors.as_slice()),
                "{at}"
            );
            assert_eq!(lu.perm, perm, "{at}");
            assert_eq!(
                bits(lu.solve(&rhs).unwrap().as_slice()),
                bits(x.as_slice()),
                "{at}"
            );
        }
    }

    #[test]
    fn every_backend_factors_the_corner_cases_to_the_scalar_bits() {
        for (name, a) in lu_cases() {
            assert_lu_bits(name, &a);
        }
        let singular =
            Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[2.0, 4.0, 6.0], &[1.0, 0.0, 1.0]]).unwrap();
        let want = scalar_reference::lu_factors(&singular).unwrap_err();
        for backend in Backend::available() {
            assert_eq!(
                LuDecomposition::with_backend(backend, &singular).unwrap_err(),
                want
            );
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "N up to 300: too slow under the interpreter")]
    fn every_backend_factors_every_chip_to_the_scalar_bits() {
        for chip in chips() {
            assert_lu_bits(chip.name, &chip.b);
        }
    }
}
