//! The design-time kernels as scalar loops: Householder tridiagonalization
//! (EISPACK `tred2`), implicit-shift QL (`tql2`) and partial-pivoting LU,
//! kept verbatim as they ran before the library laid them out for SIMD
//! width. The library's dispatched kernels must reproduce them bit for
//! bit, on every instruction set (`simd_differential.rs` and the unit
//! tests of `hp_linalg`'s `eigen` and `lu` modules).
//!
//! The reduction and the QL sweeps work on the transposed matrix: row `j`
//! of `w` holds the textbook's column `j`.

use hp_linalg::{LinalgError, Matrix, NumericalError, Result, Vector};

/// Implicit-QL iterations allowed per eigenvalue (the EISPACK budget).
const MAX_QL_ITERATIONS: u32 = 30;

/// Eigenvalues, ascending, and eigenvectors as the columns of a matrix:
/// the scalar loops on the lower triangle of the square `m`, whose entries
/// must be finite.
pub fn symmetric_eigen(m: &Matrix) -> Result<(Vector, Matrix)> {
    let n = m.rows();
    if n == 0 {
        return Ok((Vector::zeros(0), Matrix::zeros(0, 0)));
    }
    let mut w = m.transpose().as_slice().to_vec();
    let mut d = vec![0.0; n];
    let mut e = vec![0.0; n];
    tridiagonalize(&mut w, &mut d, &mut e, n);
    ql_implicit(&mut w, &mut d, &mut e, n)?;
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| d[a].total_cmp(&d[b]));
    let values = Vector::from_fn(n, |i| d[order[i]]);
    let vectors = Matrix::from_fn(n, n, |i, j| w[order[j] * n + i]);
    Ok((values, vectors))
}

/// The eigenvalues `λ` of `C = −A⁻¹B`, ascending in `−λ`, with `V` and
/// `V⁻¹`: the congruence through `S = A^{-1/2}·B·A^{-1/2}` on
/// [`symmetric_eigen`].
pub fn system_eigen(a_diag: &Vector, b: &Matrix) -> Result<(Vector, Matrix, Matrix)> {
    let n = a_diag.len();
    let inv_sqrt = Vector::from_fn(n, |i| 1.0 / a_diag[i].sqrt());
    let sqrt_a = Vector::from_fn(n, |i| a_diag[i].sqrt());
    let s = Matrix::from_fn(n, n, |i, j| inv_sqrt[i] * b[(i, j)] * inv_sqrt[j]);
    let s = Matrix::from_fn(n, n, |i, j| 0.5 * (s[(i, j)] + s[(j, i)]));
    let (values, q) = symmetric_eigen(&s)?;
    let v = Matrix::from_fn(n, n, |i, j| inv_sqrt[i] * q[(i, j)]);
    let v_inv = Matrix::from_fn(n, n, |i, j| q[(j, i)] * sqrt_a[j]);
    let eigenvalues = Vector::from_fn(n, |i| -values[i]);
    Ok((eigenvalues, v, v_inv))
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
/// `P·A = L·U` by the scalar elimination loop: the combined factors
/// (`L` unit lower, below the diagonal) and the row permutation.
pub fn lu_factors(a: &Matrix) -> Result<(Matrix, Vec<usize>)> {
    let n = a.rows();
    let mut f = a.clone();
    let mut perm: Vec<usize> = (0..n).collect();

    // A pivot is declared singular relative to the largest entry of the
    // matrix, not in absolute terms, so well-scaled tiny systems factor.
    let scale = a.norm_inf().max(f64::MIN_POSITIVE);
    let tiny = scale * 1e-14 * hp_linalg::convert::usize_to_f64(n);

    for k in 0..n {
        // Find the pivot row.
        let mut pivot_row = k;
        let mut pivot_val = f[(k, k)].abs();
        for i in (k + 1)..n {
            let v = f[(i, k)].abs();
            if v > pivot_val {
                pivot_val = v;
                pivot_row = i;
            }
        }
        if pivot_val <= tiny {
            return Err(LinalgError::Singular { pivot: k });
        }
        if pivot_row != k {
            for j in 0..n {
                let tmp = f[(k, j)];
                f[(k, j)] = f[(pivot_row, j)];
                f[(pivot_row, j)] = tmp;
            }
            perm.swap(k, pivot_row);
        }
        let pivot = f[(k, k)];
        for i in (k + 1)..n {
            let m = f[(i, k)] / pivot;
            f[(i, k)] = m;
            if m != 0.0 {
                for j in (k + 1)..n {
                    let fkj = f[(k, j)];
                    f[(i, j)] -= m * fkj;
                }
            }
        }
    }
    Ok((f, perm))
}

/// Solves `A·x = b` from [`lu_factors`]' output by forward and back
/// substitution, as `LuDecomposition::solve` does.
pub fn lu_solve(factors: &Matrix, perm: &[usize], b: &Vector) -> Vector {
    let n = b.len();
    let mut x = Vector::from_fn(n, |i| b[perm[i]]);
    for i in 1..n {
        let mut s = x[i];
        for j in 0..i {
            s -= factors[(i, j)] * x[j];
        }
        x[i] = s;
    }
    for i in (0..n).rev() {
        let mut s = x[i];
        for j in (i + 1)..n {
            s -= factors[(i, j)] * x[j];
        }
        x[i] = s / factors[(i, i)];
    }
    x
}
