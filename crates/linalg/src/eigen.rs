//! Symmetric eigendecomposition via Householder tridiagonalization and
//! the implicit-shift QL iteration, plus the diagonal-congruence
//! transform that factorizes the thermal system matrix `C = -A⁻¹B`.
//!
//! `A` (thermal capacitances) is diagonal with strictly positive entries and
//! `B` (thermal conductances) is symmetric positive definite, so `C` is
//! similar to the symmetric negative definite matrix `-S` with
//! `S = A^{-1/2} B A^{-1/2}`:
//!
//! ```text
//! C = -A⁻¹B = A^{-1/2} · (-S) · A^{1/2}
//! ```
//!
//! Decomposing `S = Q Λ Qᵀ` with an orthogonal `Q` yields
//! `C = V (-Λ) V⁻¹` with `V = A^{-1/2} Q` and `V⁻¹ = Qᵀ A^{1/2}` — no
//! general (nonsymmetric) eigensolver is ever needed, and all eigenvalues
//! of `C` are provably negative, which is what makes the geometric-series
//! closed forms of the paper's Eq. (9) legitimate.
//!
//! The symmetric solver is the textbook pair `tred2` + `tql2` (Golub &
//! Van Loan §8.3; Bowdler, Martin, Reinsch & Wilkinson): Householder
//! reflections reduce `S` to tridiagonal form while accumulating their
//! product, then implicitly shifted QL sweeps chase the off-diagonal to
//! zero, applying every Givens rotation to the accumulated vectors. Both
//! stages run on the *transposed* working matrix — row `j` holds the
//! textbook's column `j` — so every `O(n)` inner loop, the rotations of
//! the eigenvector accumulation included, walks one contiguous row.

use crate::{LinalgError, Matrix, NumericalError, Result, Vector};

/// Implicit-QL iterations allowed per eigenvalue before declaring
/// non-convergence (the EISPACK `tql2` budget; two or three suffice in
/// practice).
const MAX_QL_ITERATIONS: u32 = 30;

/// Eigendecomposition `M = Q Λ Qᵀ` of a symmetric matrix, with `Q` orthogonal.
///
/// Produced by [`Matrix::symmetric_eigen`] or [`SymmetricEigen::new`].
/// Eigenpairs are sorted by ascending eigenvalue.
///
/// # Example
///
/// ```
/// use hp_linalg::Matrix;
///
/// # fn main() -> Result<(), hp_linalg::LinalgError> {
/// let m = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]])?;
/// let eig = m.symmetric_eigen()?;
/// assert!((eig.eigenvalues()[0] - 1.0).abs() < 1e-10);
/// assert!((eig.eigenvalues()[1] - 3.0).abs() < 1e-10);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SymmetricEigen {
    eigenvalues: Vector,
    /// Columns are the eigenvectors, in the same order as `eigenvalues`.
    eigenvectors: Matrix,
}

impl SymmetricEigen {
    /// Decomposes a symmetric matrix: Householder tridiagonalization,
    /// then implicit-shift QL (see the [module docs](self)). Only the
    /// lower triangle is read once the symmetry check has passed.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::NotSquare`] for rectangular input.
    /// * [`NumericalError::NonFinite`] (wrapped in
    ///   [`LinalgError::Numerical`]) if any entry is NaN or infinite.
    /// * [`LinalgError::NotSymmetric`] if the asymmetry exceeds
    ///   `1e-8 · ‖M‖∞`.
    /// * [`NumericalError::NonConvergence`] (wrapped in
    ///   [`LinalgError::Numerical`]) if an eigenvalue is still coupled to
    ///   its neighbour after 30 QL iterations (practically unreachable for
    ///   finite symmetric input). The error carries the iteration count,
    ///   the residual subdiagonal entry, and the diagonal at abort as the
    ///   partial eigenvalue estimates.
    pub fn new(m: &Matrix) -> Result<Self> {
        if !m.is_square() {
            return Err(LinalgError::NotSquare {
                rows: m.rows(),
                cols: m.cols(),
            });
        }
        if m.as_slice().iter().any(|x| !x.is_finite()) {
            return Err(LinalgError::Numerical(NumericalError::NonFinite {
                what: "symmetric eigen input",
            }));
        }
        let n = m.rows();
        let scale = m.norm_inf().max(f64::MIN_POSITIVE);
        // Locate the worst asymmetric pair for a useful error message.
        for i in 0..n {
            for j in (i + 1)..n {
                let asym = (m[(i, j)] - m[(j, i)]).abs();
                if asym > 1e-8 * scale {
                    return Err(LinalgError::NotSymmetric {
                        at: (i, j),
                        asymmetry: asym,
                    });
                }
            }
        }
        if n == 0 {
            return Ok(SymmetricEigen {
                eigenvalues: Vector::zeros(0),
                eigenvectors: Matrix::zeros(0, 0),
            });
        }
        // Row j of `w` is column j of the textbook's working matrix; on
        // return row j is the eigenvector of `d[j]`.
        let mut w = m.transpose().as_slice().to_vec();
        let mut d = vec![0.0; n];
        let mut e = vec![0.0; n];
        tridiagonalize(&mut w, &mut d, &mut e, n);
        ql_implicit(&mut w, &mut d, &mut e, n)?;
        Ok(Self::sorted(&d, &w))
    }

    /// Sorts the eigenpairs ascending; `vectors_t` holds one eigenvector
    /// per row, in the order of `values`.
    fn sorted(values: &[f64], vectors_t: &[f64]) -> Self {
        let n = values.len();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
        let eigenvalues = Vector::from_fn(n, |i| values[order[i]]);
        let eigenvectors = Matrix::from_fn(n, n, |i, j| vectors_t[order[j] * n + i]);
        SymmetricEigen {
            eigenvalues,
            eigenvectors,
        }
    }

    /// Eigenvalues, ascending.
    pub fn eigenvalues(&self) -> &Vector {
        &self.eigenvalues
    }

    /// Orthogonal eigenvector matrix `Q` (columns match `eigenvalues`).
    pub fn eigenvectors(&self) -> &Matrix {
        &self.eigenvectors
    }

    /// Reconstructs `Q Λ Qᵀ` (for validation).
    pub fn reconstruct(&self) -> Matrix {
        let n = self.eigenvalues.len();
        let q = &self.eigenvectors;
        // Element-wise Q·Λ·Qᵀ — no intermediate products, no shape checks
        // to fail.
        Matrix::from_fn(n, n, |i, j| {
            (0..n)
                .map(|k| q[(i, k)] * self.eigenvalues[k] * q[(j, k)])
                .sum()
        })
    }
}

/// Householder reduction of the symmetric `n × n` matrix held
/// (transposed) in `w` to tridiagonal form — EISPACK `tred2`.
///
/// On return `d` is the diagonal, `e[1..]` the subdiagonal (`e[0] = 0`),
/// and row `j` of `w` is column `j` of the orthogonal `Q` with
/// `M = Q·T·Qᵀ`. `w[j·n + k]` stands for the textbook's `V[k][j]`, so the
/// symmetric mat-vec, the rank-2 update and the accumulation all stream
/// rows.
fn tridiagonalize(w: &mut [f64], d: &mut [f64], e: &mut [f64], n: usize) {
    for j in 0..n {
        d[j] = w[j * n + n - 1];
    }
    for i in (1..n).rev() {
        let scale: f64 = d[..i].iter().map(|x| x.abs()).sum();
        let mut h = 0.0;
        if scale == 0.0 {
            // Row already reduced: skip the reflection.
            e[i] = d[i - 1];
            for j in 0..i {
                d[j] = w[j * n + i - 1];
                w[j * n + i] = 0.0;
                w[i * n + j] = 0.0;
            }
        } else {
            // Householder vector, scaled against under/overflow.
            for x in &mut d[..i] {
                *x /= scale;
                h += *x * *x;
            }
            let mut f = d[i - 1];
            let mut g = if f > 0.0 { -h.sqrt() } else { h.sqrt() };
            e[i] = scale * g;
            h -= f * g;
            d[i - 1] = f - g;
            e[..i].fill(0.0);
            // e = M·u over the leading i×i block, from its lower triangle.
            w[i * n..i * n + i].copy_from_slice(&d[..i]);
            for j in 0..i {
                f = d[j];
                let row = &w[j * n..j * n + i];
                g = e[j] + row[j] * f;
                for k in (j + 1)..i {
                    g += row[k] * d[k];
                    e[k] += row[k] * f;
                }
                e[j] = g;
            }
            f = 0.0;
            for j in 0..i {
                e[j] /= h;
                f += e[j] * d[j];
            }
            let hh = f / (h + h);
            for j in 0..i {
                e[j] -= hh * d[j];
            }
            // Rank-2 update of the leading block.
            for j in 0..i {
                f = d[j];
                g = e[j];
                let row = &mut w[j * n..j * n + i];
                for ((x, &ek), &dk) in row[j..].iter_mut().zip(&e[j..i]).zip(&d[j..i]) {
                    *x -= f * ek + g * dk;
                }
                d[j] = row[i - 1];
                w[j * n + i] = 0.0;
            }
        }
        d[i] = h;
    }
    // Accumulate the reflections into Q.
    for i in 0..n - 1 {
        w[i * n + n - 1] = w[i * n + i];
        w[i * n + i] = 1.0;
        let h = d[i + 1];
        let (lead, rest) = w.split_at_mut((i + 1) * n);
        let u = &mut rest[..=i];
        if h != 0.0 {
            for (dk, &uk) in d[..=i].iter_mut().zip(u.iter()) {
                *dk = uk / h;
            }
            for row in lead.chunks_exact_mut(n) {
                let row = &mut row[..=i];
                let g: f64 = u.iter().zip(row.iter()).map(|(a, b)| a * b).sum();
                for (x, &dk) in row.iter_mut().zip(&d[..=i]) {
                    *x -= g * dk;
                }
            }
        }
        u.fill(0.0);
    }
    for j in 0..n {
        d[j] = w[j * n + n - 1];
        w[j * n + n - 1] = 0.0;
    }
    w[n * n - 1] = 1.0;
    e[0] = 0.0;
}

/// Diagonalizes the symmetric tridiagonal matrix `(d, e)` from
/// [`tridiagonalize`] by implicitly shifted QL iterations — EISPACK
/// `tql2` — rotating the rows of `w` along.
///
/// On return `d` holds the eigenvalues (unsorted) and row `j` of `w` the
/// eigenvector of `d[j]`.
///
/// # Errors
///
/// [`NumericalError::NonConvergence`] once one eigenvalue has used
/// [`MAX_QL_ITERATIONS`] iterations without decoupling.
fn ql_implicit(w: &mut [f64], d: &mut [f64], e: &mut [f64], n: usize) -> Result<()> {
    e.copy_within(1.., 0);
    e[n - 1] = 0.0;
    let mut f = 0.0;
    let mut tst1 = 0.0f64;
    for l in 0..n {
        // Find the first negligible subdiagonal entry at or after l.
        tst1 = tst1.max(d[l].abs() + e[l].abs());
        let mut m = l;
        while m + 1 < n && e[m].abs() > f64::EPSILON * tst1 {
            m += 1;
        }
        // m == l: d[l] has decoupled; otherwise iterate on the block l..=m.
        let mut iterations = 0;
        while m > l && e[l].abs() > f64::EPSILON * tst1 {
            if iterations == MAX_QL_ITERATIONS {
                return Err(LinalgError::Numerical(NumericalError::NonConvergence {
                    sweeps: iterations,
                    off_norm: e[l].abs(),
                    partial: Vector::from_fn(n, |k| if k < l { d[k] } else { d[k] + f }),
                }));
            }
            iterations += 1;
            // Implicit (Wilkinson) shift from the leading 2×2 block.
            let mut g = d[l];
            let mut p = (d[l + 1] - g) / (2.0 * e[l]);
            let mut r = p.hypot(1.0);
            if p < 0.0 {
                r = -r;
            }
            d[l] = e[l] / (p + r);
            d[l + 1] = e[l] * (p + r);
            let dl1 = d[l + 1];
            let mut h = g - d[l];
            for x in &mut d[l + 2..n] {
                *x -= h;
            }
            f += h;
            // One QL sweep: Givens rotations from the bottom of the block.
            p = d[m];
            let (mut c, mut c2, mut c3) = (1.0, 1.0, 1.0);
            let el1 = e[l + 1];
            let (mut s, mut s2) = (0.0, 0.0);
            for i in (l..m).rev() {
                c3 = c2;
                c2 = c;
                s2 = s;
                g = c * e[i];
                h = c * p;
                r = p.hypot(e[i]);
                e[i + 1] = s * r;
                s = e[i] / r;
                c = p / r;
                p = c * d[i] - s * g;
                d[i + 1] = h + s * (c * g + s * d[i]);
                // Rotate eigenvector rows i and i+1.
                let (lo, hi) = w.split_at_mut((i + 1) * n);
                for (a, b) in lo[i * n..].iter_mut().zip(&mut hi[..n]) {
                    let t = *b;
                    *b = s * *a + c * t;
                    *a = c * *a - s * t;
                }
            }
            p = -s * s2 * c3 * el1 * e[l] / dl1;
            e[l] = s * p;
            d[l] = c * p;
        }
        d[l] += f;
        e[l] = 0.0;
    }
    Ok(())
}

/// Eigendecomposition of the thermal system matrix `C = -A⁻¹B`.
///
/// Holds `C = V · diag(λ) · V⁻¹` with all `λ < 0`. Built once per chip
/// configuration and reused by every transient and peak-temperature solve.
///
/// # Example
///
/// ```
/// use hp_linalg::{eigen::SystemEigen, Matrix, Vector};
///
/// # fn main() -> Result<(), hp_linalg::LinalgError> {
/// let a_diag = Vector::from(vec![1.0, 2.0]);
/// let b = Matrix::from_rows(&[&[3.0, -1.0], &[-1.0, 2.0]])?;
/// let sys = SystemEigen::new(&a_diag, &b)?;
/// assert!(sys.eigenvalues().iter().all(|&l| l < 0.0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SystemEigen {
    eigenvalues: Vector,
    v: Matrix,
    v_inv: Matrix,
}

impl SystemEigen {
    /// Builds the decomposition from the diagonal of `A` and the symmetric
    /// conductance matrix `B`.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::DimensionMismatch`] if `B` is not `N × N`.
    /// * [`LinalgError::InvalidInput`] if any capacitance is non-positive
    ///   or non-finite.
    /// * [`NumericalError::NonFinite`] (wrapped in
    ///   [`LinalgError::Numerical`]) if `B` holds a NaN or infinity.
    /// * Errors from the underlying [`SymmetricEigen::new`].
    pub fn new(a_diag: &Vector, b: &Matrix) -> Result<Self> {
        let n = a_diag.len();
        if b.rows() != n || b.cols() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "system eigendecomposition",
                left: (n, 1),
                right: (b.rows(), b.cols()),
            });
        }
        if a_diag.iter().any(|&c| c <= 0.0 || !c.is_finite()) {
            return Err(LinalgError::InvalidInput(
                "thermal capacitances must be positive and finite",
            ));
        }
        if b.as_slice().iter().any(|x| !x.is_finite()) {
            return Err(LinalgError::Numerical(NumericalError::NonFinite {
                what: "conductance matrix B",
            }));
        }
        let inv_sqrt = Vector::from_fn(n, |i| 1.0 / a_diag[i].sqrt());
        let sqrt_a = Vector::from_fn(n, |i| a_diag[i].sqrt());
        // S = A^{-1/2} B A^{-1/2}, symmetric by construction.
        let s = Matrix::from_fn(n, n, |i, j| inv_sqrt[i] * b[(i, j)] * inv_sqrt[j]);
        // Numerical symmetrization guards against round-off in B's assembly.
        let s = Matrix::from_fn(n, n, |i, j| 0.5 * (s[(i, j)] + s[(j, i)]));
        let eig = SymmetricEigen::new(&s)?;
        let q = eig.eigenvectors();
        let v = Matrix::from_fn(n, n, |i, j| inv_sqrt[i] * q[(i, j)]);
        let v_inv = Matrix::from_fn(n, n, |i, j| q[(j, i)] * sqrt_a[j]);
        let eigenvalues = Vector::from_fn(n, |i| -eig.eigenvalues()[i]);
        Ok(SystemEigen {
            eigenvalues,
            v,
            v_inv,
        })
    }

    /// Dimension `N` of the system.
    pub fn dim(&self) -> usize {
        self.eigenvalues.len()
    }

    /// Eigenvalues of `C` (all negative for a physical RC model).
    pub fn eigenvalues(&self) -> &Vector {
        &self.eigenvalues
    }

    /// Eigenvector matrix `V`.
    pub fn v(&self) -> &Matrix {
        &self.v
    }

    /// Inverse eigenvector matrix `V⁻¹`.
    pub fn v_inv(&self) -> &Matrix {
        &self.v_inv
    }

    /// Eigenvalue spread `max|λ| / min|λ|` — the condition number of the
    /// diagonalized system. A huge spread means the fast and slow thermal
    /// modes differ by many orders of magnitude and the eigen route's
    /// round-off is no longer negligible; solvers use this to decide
    /// whether to arm their dense fallback.
    ///
    /// Returns infinity if any eigenvalue is (numerically) zero.
    pub fn eigenvalue_spread(&self) -> f64 {
        let mut min_abs = f64::INFINITY;
        let mut max_abs = 0.0f64;
        for &l in &self.eigenvalues {
            min_abs = min_abs.min(l.abs());
            max_abs = max_abs.max(l.abs());
        }
        if min_abs == 0.0 {
            return f64::INFINITY;
        }
        max_abs / min_abs
    }

    /// Residual `‖V·V⁻¹ − I‖∞` of the eigenbasis — a cheap spot check that
    /// the decomposition still inverts cleanly. For a healthy model this
    /// is at round-off level (≲ 1e-12); values far above that mean the
    /// congruence transform lost accuracy.
    ///
    /// One [`Matrix::mul_matrix`]: its ascending-`k` accumulation from
    /// `0.0` is the textbook triple loop's, so the residual is the same
    /// to the last bit.
    pub fn basis_residual(&self) -> f64 {
        let n = self.dim();
        // V and V⁻¹ are both N × N by construction; a mismatch would mean
        // a corrupt basis, which no residual can vouch for.
        let Ok(product) = self.v.mul_matrix(&self.v_inv) else {
            return f64::INFINITY;
        };
        let mut worst = 0.0f64;
        for i in 0..n {
            for (j, &x) in product.row(i).iter().enumerate() {
                let expect = if i == j { 1.0 } else { 0.0 };
                worst = worst.max((x - expect).abs());
            }
        }
        worst
    }

    /// Forms `V · diag(d) · V⁻¹` for an arbitrary spectral filter `d`.
    ///
    /// This is the workhorse of the rotation peak-temperature closed form
    /// (paper Eq. 10), where `d` is e.g. `1 / (1 - e^{δλτ})`.
    ///
    /// # Panics
    ///
    /// Panics if `d.len() != self.dim()`.
    pub fn spectral_filter(&self, d: &Vector) -> Matrix {
        let n = self.dim();
        assert_eq!(d.len(), n, "spectral filter length mismatch");
        Matrix::from_fn(n, n, |i, j| {
            (0..n)
                .map(|k| self.v[(i, k)] * d[k] * self.v_inv[(k, j)])
                .sum()
        })
    }

    /// Applies `V · diag(d) · V⁻¹ · x` without forming the matrix.
    ///
    /// # Panics
    ///
    /// Panics if `d.len()` or `x.len()` differ from `self.dim()`.
    pub fn spectral_apply(&self, d: &Vector, x: &Vector) -> Vector {
        let y = self.v_inv.mul_vector(x);
        let filtered = Vector::from_fn(self.dim(), |i| d[i] * y[i]);
        self.v.mul_vector(&filtered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expm::{exp_apply, exp_matrix};

    // The `jacobi_*` tests keep the names they had under the cyclic-Jacobi
    // solver; they cover `symmetric_eigen`, whatever its algorithm.

    #[test]
    fn jacobi_2x2_known() {
        let m = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]).unwrap();
        let eig = m.symmetric_eigen().unwrap();
        assert!((eig.eigenvalues()[0] - 1.0).abs() < 1e-12);
        assert!((eig.eigenvalues()[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn jacobi_reconstruction() {
        let m = Matrix::from_rows(&[&[4.0, 1.0, 0.5], &[1.0, 3.0, 0.2], &[0.5, 0.2, 5.0]]).unwrap();
        let eig = m.symmetric_eigen().unwrap();
        let err = (&eig.reconstruct() - &m).norm_inf();
        assert!(err < 1e-10, "reconstruction error {err}");
    }

    #[test]
    fn jacobi_orthogonality() {
        let m = Matrix::from_fn(6, 6, |i, j| 1.0 / (1.0 + (i + j) as f64));
        let eig = m.symmetric_eigen().unwrap();
        let q = eig.eigenvectors();
        let qtq = q.transpose().mul_matrix(q).unwrap();
        let err = (&qtq - &Matrix::identity(6)).norm_inf();
        assert!(err < 1e-10, "orthogonality error {err}");
    }

    #[test]
    fn jacobi_rejects_asymmetric() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[0.0, 1.0]]).unwrap();
        assert!(matches!(
            m.symmetric_eigen(),
            Err(LinalgError::NotSymmetric { .. })
        ));
    }

    #[test]
    fn jacobi_diagonal_is_trivial() {
        let m = Matrix::from_diagonal(&Vector::from(vec![3.0, 1.0, 2.0]));
        let eig = m.symmetric_eigen().unwrap();
        assert_eq!(eig.eigenvalues().as_slice(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn non_finite_input_is_a_typed_error() {
        let m = Matrix::from_rows(&[
            &[1.0, f64::NAN, 0.0],
            &[f64::NAN, 2.0, 0.0],
            &[0.0, 0.0, 3.0],
        ])
        .unwrap();
        assert_eq!(
            m.symmetric_eigen().unwrap_err(),
            LinalgError::Numerical(NumericalError::NonFinite {
                what: "symmetric eigen input"
            })
        );
        let inf = Matrix::from_diagonal(&Vector::from(vec![1.0, f64::INFINITY]));
        assert!(matches!(
            inf.symmetric_eigen(),
            Err(LinalgError::Numerical(NumericalError::NonFinite { .. }))
        ));
        let a_diag = Vector::from(vec![1.0, 2.0]);
        let b = Matrix::from_rows(&[&[2.0, f64::NAN], &[f64::NAN, 2.0]]).unwrap();
        assert_eq!(
            SystemEigen::new(&a_diag, &b).unwrap_err(),
            LinalgError::Numerical(NumericalError::NonFinite {
                what: "conductance matrix B"
            })
        );
    }

    #[test]
    fn empty_and_scalar_matrices_decompose() {
        let empty = Matrix::zeros(0, 0).symmetric_eigen().unwrap();
        assert!(empty.eigenvalues().is_empty());
        assert_eq!(empty.eigenvectors().rows(), 0);
        let one = Matrix::from_rows(&[&[-2.5]])
            .unwrap()
            .symmetric_eigen()
            .unwrap();
        assert_eq!(one.eigenvalues().as_slice(), &[-2.5]);
        assert_eq!(one.eigenvectors().as_slice(), &[1.0]);
    }

    #[test]
    fn basis_residual_is_the_triple_loop_to_the_bit() {
        // A 40-node chain with spread capacitances: a residual well above
        // zero, summed over enough terms for the order to matter.
        let n = 40;
        let a_diag = Vector::from_fn(n, |i| 0.05 + (i % 7) as f64 * 0.3);
        let b = Matrix::from_fn(n, n, |i, j| match i.abs_diff(j) {
            0 => 2.5 + (i % 3) as f64,
            1 => -0.9,
            5 => -0.2,
            _ => 0.0,
        });
        let sys = SystemEigen::new(&a_diag, &b).unwrap();
        let (v, v_inv) = (sys.v(), sys.v_inv());
        let mut looped = 0.0f64;
        for i in 0..n {
            for j in 0..n {
                let mut acc = 0.0;
                for k in 0..n {
                    acc += v[(i, k)] * v_inv[(k, j)];
                }
                let expect = if i == j { 1.0 } else { 0.0 };
                looped = looped.max((acc - expect).abs());
            }
        }
        assert!(looped > 0.0, "a zero residual would pin nothing");
        assert_eq!(sys.basis_residual().to_bits(), looped.to_bits());
    }

    #[test]
    fn system_eigen_matches_direct_c() {
        let a_diag = Vector::from(vec![1.0, 2.0, 0.5]);
        let b =
            Matrix::from_rows(&[&[3.0, -1.0, 0.0], &[-1.0, 2.5, -0.5], &[0.0, -0.5, 1.5]]).unwrap();
        let sys = SystemEigen::new(&a_diag, &b).unwrap();
        // Reconstruct C = V diag(lambda) V^{-1} and compare with -A^{-1}B.
        let c_rebuilt = sys.spectral_filter(sys.eigenvalues());
        let c_direct = Matrix::from_fn(3, 3, |i, j| -b[(i, j)] / a_diag[i]);
        let err = (&c_rebuilt - &c_direct).norm_inf();
        assert!(err < 1e-10, "C reconstruction error {err}");
    }

    #[test]
    fn system_eigenvalues_negative() {
        let a_diag = Vector::from(vec![0.1, 0.2, 0.3, 0.4]);
        let b = Matrix::from_fn(4, 4, |i, j| {
            if i == j {
                2.0 + i as f64
            } else if i.abs_diff(j) == 1 {
                -0.7
            } else {
                0.0
            }
        });
        let sys = SystemEigen::new(&a_diag, &b).unwrap();
        assert!(sys.eigenvalues().iter().all(|&l| l < 0.0));
    }

    #[test]
    fn exp_apply_at_zero_is_identity() {
        let a_diag = Vector::from(vec![1.0, 1.0]);
        let b = Matrix::from_rows(&[&[2.0, -1.0], &[-1.0, 2.0]]).unwrap();
        let sys = SystemEigen::new(&a_diag, &b).unwrap();
        let x = Vector::from(vec![1.0, -2.0]);
        let y = exp_apply(&sys, 0.0, &x);
        assert!((&y - &x).norm_inf() < 1e-12);
    }

    #[test]
    fn exp_apply_decays_to_zero() {
        let a_diag = Vector::from(vec![1.0, 1.0]);
        let b = Matrix::from_rows(&[&[2.0, -1.0], &[-1.0, 2.0]]).unwrap();
        let sys = SystemEigen::new(&a_diag, &b).unwrap();
        let x = Vector::from(vec![5.0, 7.0]);
        let y = exp_apply(&sys, 100.0, &x);
        assert!(y.norm_inf() < 1e-10);
    }

    #[test]
    fn system_rejects_nonpositive_capacitance() {
        let a_diag = Vector::from(vec![1.0, 0.0]);
        let b = Matrix::identity(2);
        assert!(SystemEigen::new(&a_diag, &b).is_err());
    }

    #[test]
    fn eigenvalue_spread_and_basis_residual_healthy() {
        let a_diag = Vector::from(vec![0.5, 1.5, 1.0]);
        let b =
            Matrix::from_rows(&[&[2.0, -0.5, 0.0], &[-0.5, 3.0, -1.0], &[0.0, -1.0, 2.5]]).unwrap();
        let sys = SystemEigen::new(&a_diag, &b).unwrap();
        let spread = sys.eigenvalue_spread();
        assert!((1.0..1e3).contains(&spread), "spread {spread:e}");
        assert!(sys.basis_residual() < 1e-12);
    }

    #[test]
    fn eigenvalue_spread_grows_with_capacitance_ratio() {
        // Widely split capacitances stretch the mode spectrum.
        let a_diag = Vector::from(vec![1e-9, 1.0]);
        let b = Matrix::from_rows(&[&[2.0, -1.0], &[-1.0, 2.0]]).unwrap();
        let sys = SystemEigen::new(&a_diag, &b).unwrap();
        assert!(sys.eigenvalue_spread() > 1e8);
    }

    #[test]
    fn exp_matrix_matches_exp_apply() {
        let a_diag = Vector::from(vec![0.5, 1.5, 1.0]);
        let b =
            Matrix::from_rows(&[&[2.0, -0.5, 0.0], &[-0.5, 3.0, -1.0], &[0.0, -1.0, 2.5]]).unwrap();
        let sys = SystemEigen::new(&a_diag, &b).unwrap();
        let x = Vector::from(vec![1.0, 2.0, 3.0]);
        let via_matrix = exp_matrix(&sys, 0.3).mul_vector(&x);
        let via_apply = exp_apply(&sys, 0.3, &x);
        assert!((&via_matrix - &via_apply).norm_inf() < 1e-12);
    }
}
