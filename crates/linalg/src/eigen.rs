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
//! zero, applying every Givens rotation to the accumulated vectors.
//!
//! Every phase is laid out so that its `O(n²)`-per-step work is an
//! element-wise update of contiguous rows, and the whole solver is one
//! body compiled for AVX-512F, AVX2 and the portable instruction set,
//! dispatched at run time (see `simd`):
//!
//! * the reduction keeps the full symmetric working block, so `M·u` is a
//!   sum of row axpys and the rank-2 update runs over whole rows, and the
//!   next `M·u` rides on each update pass;
//! * the accumulation of the reflections runs on the textbook
//!   orientation (row `k` holds `V[k][·]`), so every `gᵢ = Σₖ uₖ·Vₖᵢ`
//!   accumulates across a row, and the next step's sums ride on each
//!   update pass;
//! * the QL sweeps run on the transpose (row `j` holds the textbook's
//!   column `j`), so every Givens rotation rotates two rows.
//!
//! Each element sees the operations of the scalar textbook loops in the
//! same order — lane-wise IEEE multiplies and adds, no fused
//! multiply-add, no reassociated sum — so every build returns the same
//! bits as those loops (the tests hold it to them, kept verbatim).

use crate::simd::{multiversion, Backend};
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
        Self::with_backend(Backend::detect(), m)
    }

    /// Name of the instruction set [`new`](Self::new) and
    /// [`SystemEigen::new`] run the solver with on this CPU: `"avx512f"`,
    /// `"avx2"`, or `"scalar"` (always, under Miri). Every build returns
    /// the same bits; the sanitizer CI job logs this to prove the SIMD
    /// builds ran.
    #[must_use]
    pub fn backend() -> &'static str {
        Backend::detect().name()
    }

    /// [`new`](Self::new) on `backend`'s build of the solver.
    fn with_backend(backend: Backend, m: &Matrix) -> Result<Self> {
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
        // The solver reads the lower triangle; mirror it onto the upper.
        let mut w = m.clone();
        let rows = w.as_mut_slice();
        for i in 0..n {
            for j in 0..i {
                rows[j * n + i] = rows[i * n + j];
            }
        }
        let (values, order) = decompose(backend, rows, n)?;
        let eigenvalues = Vector::from_fn(n, |i| values[order[i]]);
        let mut eigenvectors = Matrix::zeros(n, n);
        transpose_rows(rows, &order, eigenvectors.as_mut_slice(), |_, x| x);
        Ok(SymmetricEigen {
            eigenvalues,
            eigenvectors,
        })
    }

    /// Eigenvalues, ascending.
    pub fn eigenvalues(&self) -> &Vector {
        &self.eigenvalues
    }

    /// Orthogonal eigenvector matrix `Q` (columns match `eigenvalues`).
    pub fn eigenvectors(&self) -> &Matrix {
        &self.eigenvectors
    }
}

/// Decomposes the symmetric `n × n` matrix held row-major in `w` (both
/// triangles, equal bit for bit), `n ≥ 1`, on `backend`'s build. Returns
/// the eigenvalues, unsorted, and the order that sorts them ascending;
/// row `j` of `w` is then the eigenvector of eigenvalue `j`.
///
/// # Errors
///
/// [`NumericalError::NonConvergence`] from [`ql_implicit`].
fn decompose(backend: Backend, w: &mut [f64], n: usize) -> Result<(Vec<f64>, Vec<usize>)> {
    let mut d = vec![0.0; n];
    let mut e = vec![0.0; n];
    let mut scratch = vec![0.0; 3 * n];
    solve(backend, w, &mut d, &mut e, &mut scratch, n)?;
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| d[a].total_cmp(&d[b]));
    Ok((d, order))
}

multiversion! {
    /// [`solve_body`] on `backend`'s build.
    fn solve(
        w: &mut [f64],
        d: &mut [f64],
        e: &mut [f64],
        scratch: &mut [f64],
        n: usize,
    ) -> Result<()> = solve_body;
}

/// The whole solver on `w` (see [`decompose`]): reduction, accumulation
/// on the transpose, QL. `d`, `e` hold `n` entries and `scratch` `3n`.
#[inline(always)]
fn solve_body(
    w: &mut [f64],
    d: &mut [f64],
    e: &mut [f64],
    scratch: &mut [f64],
    n: usize,
) -> Result<()> {
    tridiagonalize(w, d, e, &mut scratch[..n], n);
    transpose_in_place(w, n);
    accumulate(w, d, e, scratch, n);
    transpose_in_place(w, n);
    ql_implicit(w, d, e, n)
}

/// Householder reduction of the symmetric `n × n` matrix in `w` to
/// tridiagonal form — the reduction half of EISPACK `tred2`.
///
/// On return `d` holds the reflections' scales `h` (`d[0]` unused), `e[1..]`
/// the subdiagonal, and `w` the reflections for [`accumulate`], stored as
/// the textbook's `tred2` leaves them, transposed: `w[j·n + k]` stands for
/// the textbook's `V[k][j]`. The working block stays symmetric in full:
/// the rank-2 update of a mirrored element forms the textbook's two
/// products with their factors commuted and adds them in the other
/// order, which IEEE arithmetic makes the same bits. So `e = M·u` sums
/// whole rows, each element in the textbook's ascending order from
/// `+0.0`, and from the second reflection on it rides on the previous
/// step's update pass, which takes the next row to reduce first.
/// `next_e` holds `n` entries.
#[inline(always)]
fn tridiagonalize(w: &mut [f64], d: &mut [f64], e: &mut [f64], next_e: &mut [f64], n: usize) {
    d.copy_from_slice(&w[(n - 1) * n..]);
    // Step i's `h` when step i + 1's update pass has already formed its
    // Householder vector and `e[..i] = M·u`.
    let mut primed = None;
    for i in (1..n).rev() {
        let h = match primed.take() {
            Some(h) => h,
            None => {
                let scale: f64 = d[..i].iter().map(|x| x.abs()).sum();
                if scale == 0.0 {
                    // Row already reduced: skip the reflection.
                    e[i] = d[i - 1];
                    for j in 0..i {
                        d[j] = w[j * n + i - 1];
                        w[j * n + i] = 0.0;
                        w[i * n + j] = 0.0;
                    }
                    d[i] = 0.0;
                    continue;
                }
                let (block, rest) = w.split_at_mut(i * n);
                let u = &mut rest[..i];
                let (h, ei) = householder(d, u, i, scale);
                e[i] = ei;
                let e = &mut e[..i];
                e.fill(0.0);
                for (row, &uj) in block.chunks_exact(n).zip(&*u) {
                    for (ek, &x) in e.iter_mut().zip(&row[..i]) {
                        *ek += x * uj;
                    }
                }
                h
            }
        };
        let (block, rest) = w.split_at_mut(i * n);
        // u, kept in row i: the update overwrites d.
        let u = &rest[..i];
        let e = &mut e[..i];
        let mut f = 0.0;
        for (ej, &uj) in e.iter_mut().zip(u) {
            *ej /= h;
            f += *ej * uj;
        }
        let hh = f / (h + h);
        for (ej, &uj) in e.iter_mut().zip(u) {
            *ej -= hh * uj;
        }
        // Rank-2 update of the whole block, row i − 1 first: it is the
        // next row to reduce (its copy in d is the textbook's column
        // i − 1, the same bits), so the next reflection's `M·u` can sum
        // the other rows as they are updated.
        let (above, last) = block.split_at_mut((i - 1) * n);
        rank2_row(&mut last[..n], e, u, i - 1, i);
        d[..i].copy_from_slice(&last[..i]);
        let scale: f64 = d[..i - 1].iter().map(|x| x.abs()).sum();
        let next = (i > 1 && scale != 0.0).then(|| {
            next_e[..i - 1].fill(0.0);
            householder(d, &mut last[..i - 1], i - 1, scale)
        });
        for (j, row) in above.chunks_exact_mut(n).enumerate() {
            rank2_row(row, e, u, j, i);
            if next.is_some() {
                let uj = d[j];
                for (ek, &x) in next_e[..i - 1].iter_mut().zip(&row[..i - 1]) {
                    *ek += x * uj;
                }
            }
        }
        d[i] = h;
        if let Some((next_h, next_ei)) = next {
            e[..i - 1].copy_from_slice(&next_e[..i - 1]);
            e[i - 1] = next_ei;
            primed = Some(next_h);
        }
    }
}

/// Forms step `i`'s Householder vector `u` from `d[..i]`, row `i` of the
/// reduced matrix, whose absolute sum is `scale` (non-zero): `d[..i]`
/// and `u_row` become `u`. Returns `h = ‖u‖²/2` and the subdiagonal
/// entry `e[i]`.
#[inline(always)]
fn householder(d: &mut [f64], u_row: &mut [f64], i: usize, scale: f64) -> (f64, f64) {
    // Scaled against under/overflow.
    let mut h = 0.0;
    for x in &mut d[..i] {
        *x /= scale;
        h += *x * *x;
    }
    let f = d[i - 1];
    let g = if f > 0.0 { -h.sqrt() } else { h.sqrt() };
    h -= f * g;
    d[i - 1] = f - g;
    u_row.copy_from_slice(&d[..i]);
    (h, scale * g)
}

/// The rank-2 update `M ← M − u·eᵀ − e·uᵀ` of row `j` of the leading
/// `i × i` block, and the zero the reduction leaves in column `i`.
#[inline(always)]
fn rank2_row(row: &mut [f64], e: &[f64], u: &[f64], j: usize, i: usize) {
    let (f, g) = (u[j], e[j]);
    for ((x, &ek), &uk) in row[..i].iter_mut().zip(e).zip(u) {
        *x -= f * ek + g * uk;
    }
    row[i] = 0.0;
}

/// Transposes the row-major `n × n` matrix `w` in place.
#[inline(always)]
fn transpose_in_place(w: &mut [f64], n: usize) {
    for i in 1..n {
        let (upper, lower) = w.split_at_mut(i * n);
        for (j, x) in lower[..i].iter_mut().enumerate() {
            std::mem::swap(x, &mut upper[j * n + i]);
        }
    }
}

/// Accumulates the reflections [`tridiagonalize`] left into the
/// orthogonal `Q` with `M = Q·T·Qᵀ` — the accumulation half of EISPACK
/// `tred2`, on the textbook orientation: `w[k·n + j]` is `V[k][j]`.
///
/// Step `i` forms `gⱼ = Σₖ uₖ·V[k][j]` for every `j ≤ i` at once, row
/// `k` by row `k` from `-0.0` (where `f64`'s `Sum` starts, so an exactly
/// zero `gⱼ` keeps the textbook's sign), then applies the rank-1 update
/// row by row; when step `i + 1` has a reflection to apply, that pass
/// also sums its `g` over the rows it has just updated. On return `d` is
/// the diagonal of `T`, `e[1..]` its subdiagonal (`e[0] = 0`), and column
/// `j` of `w` the column `j` of `Q`. `scratch` holds `3n` entries.
#[inline(always)]
fn accumulate(w: &mut [f64], d: &mut [f64], e: &mut [f64], scratch: &mut [f64], n: usize) {
    let (u, sums) = scratch.split_at_mut(n);
    let (mut g, mut next_g) = sums.split_at_mut(n);
    // Whether `u`, `d` and `g` already hold step i's vectors, summed over
    // the rows above row i by step i − 1's update pass.
    let mut primed = false;
    for i in 0..n - 1 {
        w[(n - 1) * n + i] = w[i * n + i];
        w[i * n + i] = 1.0;
        let h = d[i + 1];
        let block = &mut w[..(i + 1) * n];
        if h != 0.0 {
            let (first, last) = if primed { (i, i) } else { (0, i) };
            if !primed {
                g[..=i].fill(-0.0);
            }
            for k in first..=last {
                let row = &block[k * n..(k + 1) * n];
                let uk = row[i + 1];
                u[k] = uk;
                d[k] = uk / h;
                for (gj, &x) in g[..=i].iter_mut().zip(&row[..=i]) {
                    *gj += uk * x;
                }
            }
            // Step i + 1's sums ride on this update pass when it has a
            // reflection to apply.
            let next_h = if i + 2 < n { d[i + 2] } else { 0.0 };
            primed = next_h != 0.0;
            if primed {
                next_g[..=i + 1].fill(-0.0);
            }
            for (k, row) in block.chunks_exact_mut(n).enumerate() {
                let dk = d[k];
                for (x, &gj) in row[..=i].iter_mut().zip(&*g) {
                    *x -= gj * dk;
                }
                row[i + 1] = 0.0;
                if primed {
                    let uk = row[i + 2];
                    u[k] = uk;
                    d[k] = uk / next_h;
                    for (gj, &x) in next_g[..=i + 1].iter_mut().zip(&row[..=i + 1]) {
                        *gj += uk * x;
                    }
                }
            }
            std::mem::swap(&mut g, &mut next_g);
        } else {
            primed = false;
            for row in block.chunks_exact_mut(n) {
                row[i + 1] = 0.0;
            }
        }
    }
    let last = &mut w[(n - 1) * n..];
    d.copy_from_slice(last);
    last.fill(0.0);
    last[n - 1] = 1.0;
    e[0] = 0.0;
}

/// Diagonalizes the symmetric tridiagonal matrix `(d, e)` from
/// [`accumulate`] by implicitly shifted QL iterations — EISPACK `tql2` —
/// rotating the rows of `w` along; row `j` of `w` is column `j` of `Q`.
///
/// On return `d` holds the eigenvalues (unsorted) and row `j` of `w` the
/// eigenvector of `d[j]`.
///
/// # Errors
///
/// [`NumericalError::NonConvergence`] once one eigenvalue has used
/// [`MAX_QL_ITERATIONS`] iterations without decoupling.
#[inline(always)]
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

/// Writes `out[i·n + j] = scale(i, w[order[j]·n + i])`: the rows of `w`
/// taken in `order`, transposed into the row-major `n × n` `out`. Blocks
/// of eight source rows keep the strided reads in cache.
fn transpose_rows(w: &[f64], order: &[usize], out: &mut [f64], scale: impl Fn(usize, f64) -> f64) {
    const BLOCK: usize = 8;
    let n = order.len();
    for (jb, block) in order.chunks(BLOCK).enumerate() {
        let j0 = jb * BLOCK;
        for (i, out_row) in out.chunks_exact_mut(n).enumerate() {
            for (o, &src) in out_row[j0..j0 + block.len()].iter_mut().zip(block) {
                *o = scale(i, w[src * n + i]);
            }
        }
    }
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
        Self::with_backend(Backend::detect(), a_diag, b)
    }

    /// [`new`](Self::new) on `backend`'s build of the solver.
    fn with_backend(backend: Backend, a_diag: &Vector, b: &Matrix) -> Result<Self> {
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
        if n == 0 {
            return Ok(SystemEigen {
                eigenvalues: Vector::zeros(0),
                v: Matrix::zeros(0, 0),
                v_inv: Matrix::zeros(0, 0),
            });
        }
        let inv_sqrt = Vector::from_fn(n, |i| 1.0 / a_diag[i].sqrt());
        let sqrt_a = Vector::from_fn(n, |i| a_diag[i].sqrt());
        // S = A^{-1/2} B A^{-1/2}, symmetrized against round-off in B's
        // assembly: s_ij = ½·(s'_ij + s'_ji), which is s_ji bit for bit.
        let mut s = Matrix::zeros(n, n);
        let w = s.as_mut_slice();
        let rows = w.chunks_exact_mut(n).zip(b.as_slice().chunks_exact(n));
        for ((row, b_row), &ri) in rows.zip(inv_sqrt.iter()) {
            for ((x, &bij), &rj) in row.iter_mut().zip(b_row).zip(inv_sqrt.iter()) {
                *x = ri * bij * rj;
            }
        }
        for i in 0..n {
            for j in 0..=i {
                let sym = 0.5 * (w[i * n + j] + w[j * n + i]);
                w[i * n + j] = sym;
                w[j * n + i] = sym;
            }
        }
        if w.iter().any(|x| !x.is_finite()) {
            return Err(LinalgError::Numerical(NumericalError::NonFinite {
                what: "symmetric eigen input",
            }));
        }
        let (values, order) = decompose(backend, w, n)?;
        // With Q's columns the rows of `w` in `order`: V = A^{-1/2}·Q is a
        // transposing gather, V⁻¹ = Qᵀ·A^{1/2} a row-by-row copy.
        let mut v = Matrix::zeros(n, n);
        transpose_rows(w, &order, v.as_mut_slice(), |i, x| inv_sqrt[i] * x);
        let mut v_inv = Matrix::zeros(n, n);
        for (out, &src) in v_inv.as_mut_slice().chunks_exact_mut(n).zip(&order) {
            for ((o, &q), &sa) in out
                .iter_mut()
                .zip(&w[src * n..(src + 1) * n])
                .zip(sqrt_a.iter())
            {
                *o = q * sa;
            }
        }
        let eigenvalues = Vector::from_fn(n, |i| -values[order[i]]);
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
    use crate::expm::{exp_apply, exp_matrix, spectral_filter};
    use crate::inputs::{chips, corner_cases};
    use crate::{scalar_reference, support};

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
        let err = (&support::reconstruct(eig.eigenvalues(), eig.eigenvectors()) - &m).norm_inf();
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
        let c_rebuilt = spectral_filter(&sys, sys.eigenvalues());
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

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    /// Asserts that `m`'s decomposition on every backend has the scalar
    /// loops' bits.
    fn assert_symmetric_bits(name: &str, m: &Matrix) {
        let (values, vectors) = scalar_reference::symmetric_eigen(m).unwrap();
        for backend in Backend::available() {
            let eig = SymmetricEigen::with_backend(backend, m).unwrap();
            let at = format!("{name} on {}", backend.name());
            assert_eq!(
                bits(eig.eigenvalues().as_slice()),
                bits(values.as_slice()),
                "{at}"
            );
            assert_eq!(
                bits(eig.eigenvectors().as_slice()),
                bits(vectors.as_slice()),
                "{at}"
            );
        }
    }

    #[test]
    fn every_backend_decomposes_the_corner_cases_to_the_scalar_bits() {
        for (name, m) in corner_cases() {
            assert_symmetric_bits(name, &m);
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "N up to 300: too slow under the interpreter")]
    fn every_backend_decomposes_every_chip_to_the_scalar_bits() {
        for chip in chips() {
            assert_symmetric_bits(chip.name, &chip.s());
            let (values, v, v_inv) = scalar_reference::system_eigen(&chip.a_diag, &chip.b).unwrap();
            for backend in Backend::available() {
                let sys = SystemEigen::with_backend(backend, &chip.a_diag, &chip.b).unwrap();
                let at = format!("{} on {}", chip.name, backend.name());
                assert_eq!(
                    bits(sys.eigenvalues().as_slice()),
                    bits(values.as_slice()),
                    "{at}"
                );
                assert_eq!(bits(sys.v().as_slice()), bits(v.as_slice()), "{at}");
                assert_eq!(bits(sys.v_inv().as_slice()), bits(v_inv.as_slice()), "{at}");
            }
        }
    }
}
