//! Cholesky decomposition for symmetric positive definite matrices.
//!
//! The thermal conductance matrix `B` is SPD by construction, so the
//! Cholesky factorization `B = L·Lᵀ` applies: it is roughly twice as fast
//! as partial-pivoting LU, needs no pivoting, and — usefully for
//! validation — *fails exactly when the input is not positive definite*,
//! which turns "is this assembled RC network physical?" into a cheap
//! decidable check. hp-thermal's `RcThermalModel::validate` runs it on
//! every assembled model and reports the failing pivot.

use crate::{LinalgError, Matrix, Result};

/// A Cholesky factorization `A = L·Lᵀ` of a symmetric positive definite
/// matrix (`L` lower triangular with positive diagonal). It exists
/// exactly when the matrix is symmetric positive definite, so
/// constructing one is the check.
///
/// # Example
///
/// ```
/// use hp_linalg::{cholesky::CholeskyDecomposition, LinalgError, Matrix};
///
/// # fn main() -> Result<(), hp_linalg::LinalgError> {
/// // A conductance-shaped matrix (diagonally dominant) is SPD...
/// let b = Matrix::from_rows(&[&[4.0, -1.0], &[-1.0, 3.0]])?;
/// assert!(CholeskyDecomposition::new(&b).is_ok());
/// // ...a symmetric matrix with a negative eigenvalue is not.
/// let indefinite = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]])?;
/// assert!(matches!(
///     CholeskyDecomposition::new(&indefinite),
///     Err(LinalgError::Singular { pivot: 1 })
/// ));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CholeskyDecomposition {
    /// Lower-triangular factor, stored densely (upper part zero). The
    /// library asks only whether it exists; the tests check its values.
    #[cfg_attr(not(test), allow(dead_code))]
    l: Matrix,
}

impl CholeskyDecomposition {
    /// Factorizes a symmetric positive definite matrix.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::NotSquare`] for rectangular input.
    /// * [`LinalgError::NotSymmetric`] if the asymmetry exceeds
    ///   `1e-8 · ‖A‖∞`.
    /// * [`LinalgError::Singular`] (with the offending pivot) if the
    ///   matrix is not positive definite.
    pub fn new(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let n = a.rows();
        let scale = a.norm_inf().max(f64::MIN_POSITIVE);
        for i in 0..n {
            for j in (i + 1)..n {
                let asym = (a[(i, j)] - a[(j, i)]).abs();
                if asym > 1e-8 * scale {
                    return Err(LinalgError::NotSymmetric {
                        at: (i, j),
                        asymmetry: asym,
                    });
                }
            }
        }

        let mut l = Matrix::zeros(n, n);
        for j in 0..n {
            // Diagonal entry.
            let mut d = a[(j, j)];
            for k in 0..j {
                d -= l[(j, k)] * l[(j, k)];
            }
            if d <= scale * 1e-14 {
                return Err(LinalgError::Singular { pivot: j });
            }
            let diag = d.sqrt();
            l[(j, j)] = diag;
            // Column below the diagonal.
            for i in (j + 1)..n {
                let mut s = a[(i, j)];
                for k in 0..j {
                    s -= l[(i, k)] * l[(j, k)];
                }
                l[(i, j)] = s / diag;
            }
        }
        Ok(CholeskyDecomposition { l })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Matrix {
        Matrix::from_rows(&[&[5.0, 2.0, 1.0], &[2.0, 6.0, 3.0], &[1.0, 3.0, 7.0]]).unwrap()
    }

    #[test]
    fn factor_reconstructs() {
        let a = spd3();
        let l = CholeskyDecomposition::new(&a).unwrap().l;
        let llt = l.mul_matrix(&l.transpose()).unwrap();
        assert!((&llt - &a).norm_inf() < 1e-12);
    }

    #[test]
    fn rejects_indefinite() {
        // Symmetric but with a negative eigenvalue.
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        assert!(matches!(
            CholeskyDecomposition::new(&a),
            Err(LinalgError::Singular { .. })
        ));
    }

    #[test]
    fn rejects_asymmetric_and_rectangular() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[0.0, 1.0]]).unwrap();
        assert!(matches!(
            CholeskyDecomposition::new(&a),
            Err(LinalgError::NotSymmetric { .. })
        ));
        assert!(matches!(
            CholeskyDecomposition::new(&Matrix::zeros(2, 3)),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn identity_factors_to_identity() {
        let l = CholeskyDecomposition::new(&Matrix::identity(4)).unwrap().l;
        assert!((&l - &Matrix::identity(4)).norm_inf() < 1e-15);
    }

    #[test]
    fn positive_definite_check_on_conductance_shape() {
        // A Laplacian + leak matrix (the thermal-model shape) is SPD...
        let mut b = Matrix::zeros(4, 4);
        for i in 0..3 {
            b[(i, i + 1)] = -1.0;
            b[(i + 1, i)] = -1.0;
            b[(i, i)] += 1.0;
            b[(i + 1, i + 1)] += 1.0;
        }
        for i in 0..4 {
            b[(i, i)] += 0.1;
        }
        assert!(CholeskyDecomposition::new(&b).is_ok());
        // ...but the pure Laplacian (singular) is not.
        for i in 0..4 {
            b[(i, i)] -= 0.1;
        }
        assert!(matches!(
            CholeskyDecomposition::new(&b),
            Err(LinalgError::Singular { .. })
        ));
    }
}
