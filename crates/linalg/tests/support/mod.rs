//! Cyclic Jacobi: the reference eigensolver the differential tests hold
//! [`SymmetricEigen`](hp_linalg::SymmetricEigen) to.
//!
//! It shares no code with the library's Householder + QL solver and
//! converges by a different route — rotations annihilating one
//! off-diagonal pair at a time, until every pair is below `1e-14·‖M‖∞` —
//! so agreement between the two is evidence about both. It is `O(n³)`
//! per sweep over ~10 sweeps on strided columns: fine for tests up to a
//! few hundred nodes, far too slow for chip setup.

use hp_linalg::{Matrix, Vector};

/// Full sweeps before the reference gives up.
const MAX_SWEEPS: u32 = 64;

/// `M = Q·diag(λ)·Qᵀ` by cyclic Jacobi, eigenpairs sorted ascending, or
/// `None` if off-diagonal mass survives the sweep budget. `m` must be
/// square and symmetric.
pub fn jacobi_eigen(m: &Matrix) -> Option<(Vector, Matrix)> {
    let n = m.rows();
    let tol = 1e-14 * m.norm_inf().max(f64::MIN_POSITIVE);
    let mut a = m.clone();
    let mut q = Matrix::identity(n);
    for _sweep in 0..MAX_SWEEPS {
        let mut off = 0.0f64;
        for i in 0..n {
            for j in (i + 1)..n {
                off = off.max(a[(i, j)].abs());
            }
        }
        if off <= tol {
            return Some(sorted(&a.diagonal(), &q));
        }
        for p in 0..n {
            for r in (p + 1)..n {
                let apr = a[(p, r)];
                if apr.abs() <= tol {
                    continue;
                }
                // Classic Jacobi rotation annihilating a[p][r].
                let app = a[(p, p)];
                let arr = a[(r, r)];
                let theta = (arr - app) / (2.0 * apr);
                let t = if theta >= 0.0 {
                    1.0 / (theta + (1.0 + theta * theta).sqrt())
                } else {
                    -1.0 / (-theta + (1.0 + theta * theta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;
                for k in 0..n {
                    let akp = a[(k, p)];
                    let akr = a[(k, r)];
                    a[(k, p)] = c * akp - s * akr;
                    a[(k, r)] = s * akp + c * akr;
                }
                for k in 0..n {
                    let apk = a[(p, k)];
                    let ark = a[(r, k)];
                    a[(p, k)] = c * apk - s * ark;
                    a[(r, k)] = s * apk + c * ark;
                }
                for k in 0..n {
                    let qkp = q[(k, p)];
                    let qkr = q[(k, r)];
                    q[(k, p)] = c * qkp - s * qkr;
                    q[(k, r)] = s * qkp + c * qkr;
                }
            }
        }
    }
    None
}

fn sorted(values: &Vector, vectors: &Matrix) -> (Vector, Matrix) {
    let n = values.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
    (
        Vector::from_fn(n, |i| values[order[i]]),
        Matrix::from_fn(n, n, |i, j| vectors[(i, order[j])]),
    )
}

/// `Q·diag(λ)·Qᵀ` for eigenvalues `λ` and eigenvectors (columns) `Q`.
pub fn reconstruct(values: &Vector, vectors: &Matrix) -> Matrix {
    let n = values.len();
    let scaled = Matrix::from_fn(n, n, |i, k| vectors[(i, k)] * values[k]);
    scaled.mul_matrix(&vectors.transpose()).expect("square")
}

/// `‖M − Q·diag(λ)·Qᵀ‖∞ / ‖M‖∞`: the decomposition's backward error.
pub fn reconstruction_error(m: &Matrix, values: &Vector, vectors: &Matrix) -> f64 {
    (&reconstruct(values, vectors) - m).norm_inf() / m.norm_inf().max(f64::MIN_POSITIVE)
}

/// `‖QᵀQ − I‖∞`: how far the eigenvectors are from orthonormal.
pub fn orthogonality_error(vectors: &Matrix) -> f64 {
    let n = vectors.cols();
    let qtq = vectors.transpose().mul_matrix(vectors).expect("square");
    (&qtq - &Matrix::identity(n)).norm_inf()
}
