use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Neg, Sub};

use crate::simd::{multiversion, Backend};
use crate::{LinalgError, LuDecomposition, Result, SymmetricEigen, Vector};

/// An owned, dense, row-major matrix of `f64` values.
///
/// All matrices in the thermal tool-chain are small (`N ≲ 800`), so a simple
/// contiguous row-major layout with straightforward triple-loop kernels is
/// both adequate and cache-friendly. The storage starts on a 64-byte
/// (cache-line) boundary, so a row whose byte length is a multiple of 64
/// — every row of a 192-node system — never straddles a line at its
/// start, and [`mul_matrix`](Matrix::mul_matrix)'s tile loads cost the
/// same whatever address the allocator returned.
///
/// # Example
///
/// ```
/// use hp_linalg::Matrix;
///
/// # fn main() -> Result<(), hp_linalg::LinalgError> {
/// let b = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 4.0]])?;
/// let inv = b.lu()?.inverse()?;
/// assert!((inv[(0, 0)] - 0.5).abs() < 1e-12);
/// assert!((inv[(1, 1)] - 0.25).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub struct Matrix {
    rows: usize,
    cols: usize,
    /// Backing buffer, [`ALIGN_PAD`] elements longer than the matrix; the
    /// logical data starts `offset` elements in, on a 64-byte boundary.
    buf: Vec<f64>,
    offset: usize,
}

/// Spare `f64` slots per buffer: a `Vec<f64>` is 8-byte aligned, so at
/// most seven elements lie between its start and the next 64-byte
/// boundary.
const ALIGN_PAD: usize = 7;

impl Matrix {
    /// Builds a `rows x cols` matrix from its row-major entries, which
    /// `values` must yield exactly `rows * cols` of. The buffer is
    /// reserved before the first entry is written, so the 64-byte offset
    /// computed from its address stays valid: nothing below outgrows the
    /// reservation.
    fn collect(rows: usize, cols: usize, values: impl IntoIterator<Item = f64>) -> Self {
        let len = rows * cols;
        let mut buf = Vec::<f64>::with_capacity(len + ALIGN_PAD);
        let offset = match buf.as_ptr().align_offset(64) {
            o if o <= ALIGN_PAD => o,
            // Alignment not computable (never at run time): stay in bounds.
            _ => 0,
        };
        buf.resize(offset, 0.0);
        buf.extend(values.into_iter().take(len));
        debug_assert_eq!(buf.len(), offset + len, "collect: short iterator");
        buf.resize(len + ALIGN_PAD, 0.0);
        Matrix {
            rows,
            cols,
            buf,
            offset,
        }
    }

    /// The logical row-major entries.
    fn data(&self) -> &[f64] {
        &self.buf[self.offset..self.offset + self.rows * self.cols]
    }

    /// The logical row-major entries, mutably.
    fn data_mut(&mut self) -> &mut [f64] {
        let len = self.rows * self.cols;
        &mut self.buf[self.offset..self.offset + len]
    }

    /// Creates a `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix::collect(rows, cols, std::iter::repeat_n(0.0, rows * cols))
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a square matrix with `diag` on the diagonal.
    pub fn from_diagonal(diag: &Vector) -> Self {
        let n = diag.len();
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = diag[i];
        }
        m
    }

    /// Creates a matrix by evaluating `f` at every `(row, col)` position.
    pub fn from_fn<F: FnMut(usize, usize) -> f64>(rows: usize, cols: usize, mut f: F) -> Self {
        let entries = (0..rows).flat_map(|i| (0..cols).map(move |j| (i, j)));
        Matrix::collect(rows, cols, entries.map(|(i, j)| f(i, j)))
    }

    /// Creates a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidInput`] if `rows` is empty or the rows
    /// have differing lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self> {
        let nrows = rows.len();
        if nrows == 0 {
            return Err(LinalgError::InvalidInput("from_rows: no rows"));
        }
        let ncols = rows[0].len();
        if rows.iter().any(|r| r.len() != ncols) {
            return Err(LinalgError::InvalidInput("from_rows: ragged rows"));
        }
        Ok(Matrix::collect(
            nrows,
            ncols,
            rows.iter().flat_map(|r| r.iter().copied()),
        ))
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns `true` if the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Immutable view of the underlying row-major storage; it starts on a
    /// 64-byte boundary.
    pub fn as_slice(&self) -> &[f64] {
        self.data()
    }

    /// Mutable view of the underlying row-major storage.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        self.data_mut()
    }

    /// Immutable view of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index {i} out of bounds");
        let start = self.offset + i * self.cols;
        &self.buf[start..start + self.cols]
    }

    /// Mutable view of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row index {i} out of bounds");
        let start = self.offset + i * self.cols;
        &mut self.buf[start..start + self.cols]
    }

    /// Copies column `j` into a new [`Vector`].
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.cols()`.
    pub fn column(&self, j: usize) -> Vector {
        assert!(j < self.cols, "column index {j} out of bounds");
        Vector::from_fn(self.rows, |i| self[(i, j)])
    }

    /// Copies the main diagonal into a new [`Vector`].
    pub fn diagonal(&self) -> Vector {
        let n = self.rows.min(self.cols);
        Vector::from_fn(n, |i| self[(i, i)])
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Returns a copy scaled by `alpha`.
    pub fn scaled(&self, alpha: f64) -> Matrix {
        Matrix::collect(self.rows, self.cols, self.data().iter().map(|x| x * alpha))
    }

    /// Matrix–vector product `self * v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub fn mul_vector(&self, v: &Vector) -> Vector {
        assert_eq!(v.len(), self.cols, "mul_vector: dimension mismatch");
        Vector::from_fn(self.rows, |i| {
            self.row(i).iter().zip(v.iter()).map(|(a, b)| a * b).sum()
        })
    }

    /// Matrix–matrix product `self * other`: a zero matrix of the
    /// product's shape, filled by [`gemm_into`](Matrix::gemm_into).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if the inner dimensions
    /// differ.
    pub fn mul_matrix(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "matrix multiply",
                left: (self.rows, self.cols),
                right: (other.rows, other.cols),
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        Matrix::gemm_into(self.data(), self.rows, other, out.data_mut())?;
        Ok(out)
    }

    /// The product `A·b` of the row-major `rows × b.rows()` block `a` and
    /// `b`, written into the row-major `rows × b.cols()` slice `out`:
    /// every element of `out` is overwritten, nothing is allocated. This
    /// is the one GEMM entry; [`mul_matrix`](Matrix::mul_matrix) calls it
    /// on a fresh zero matrix.
    ///
    /// Register-tiled over a block of output columns: each output element
    /// accumulates its dot product in a register while the inner loop
    /// streams a row of `a` against a 32-column panel of `b`, so the hot
    /// loop does two loads per multiply-add instead of the load/load/store
    /// of the textbook axpy form. For every output element the
    /// `k`-contributions are accumulated in ascending order from `0.0` —
    /// the exact addition order of [`mul_vector`](Matrix::mul_vector)'s
    /// dot products — so multiplying a column-stacked batch reproduces
    /// the per-vector products bit for bit, and a slice holds the bits
    /// the same operands give as a [`Matrix`]. The batched Algorithm-1
    /// kernel (`hotpotato::RotationPeakSolver::peak_celsius_many`) relies
    /// on this. On x86-64 the same kernel body is re-compiled for
    /// AVX-512F / AVX2 and dispatched at run time; lane-wise IEEE
    /// arithmetic keeps the results identical to the portable build.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `a` does not hold
    /// `rows × b.rows()` entries or `out` does not hold `rows × b.cols()`.
    pub fn gemm_into(a: &[f64], rows: usize, b: &Matrix, out: &mut [f64]) -> Result<()> {
        let (m, n, inner) = (rows, b.cols, b.rows);
        if m.checked_mul(inner) != Some(a.len()) {
            return Err(LinalgError::DimensionMismatch {
                op: "matrix multiply",
                left: (m, a.len().checked_div(m).unwrap_or(a.len())),
                right: (b.rows, b.cols),
            });
        }
        if m.checked_mul(n) != Some(out.len()) {
            return Err(LinalgError::DimensionMismatch {
                op: "matrix multiply output",
                left: (m, out.len().checked_div(m).unwrap_or(out.len())),
                right: (m, n),
            });
        }
        gemm_tiled(Backend::detect(), out, a, b.data(), m, n, inner);
        Ok(())
    }

    /// Name of the GEMM backend [`gemm_into`](Matrix::gemm_into) (and so
    /// [`mul_matrix`](Matrix::mul_matrix)) dispatches to on this CPU:
    /// `"avx512f"`, `"avx2"`, or `"scalar"`.
    ///
    /// The sanitizer CI job logs this from a test to prove the SIMD
    /// kernels actually executed under AddressSanitizer; under Miri it
    /// always reports `"scalar"`.
    #[must_use]
    pub fn gemm_backend() -> &'static str {
        Backend::detect().name()
    }

    /// Largest absolute entry.
    pub fn norm_inf(&self) -> f64 {
        self.data().iter().fold(0.0, |m, &x| m.max(x.abs()))
    }

    /// Induced 1-norm: the largest absolute column sum. This is the norm
    /// the Hager condition estimator works in
    /// ([`LuDecomposition::condition_estimate`]).
    pub fn norm_one(&self) -> f64 {
        // Every column sum accumulates down the rows from 0.0, one row
        // pass at a time.
        let mut sums = vec![0.0; self.cols];
        for row in self.data().chunks_exact(self.cols.max(1)) {
            for (sum, x) in sums.iter_mut().zip(row) {
                *sum += x.abs();
            }
        }
        sums.into_iter().fold(0.0f64, f64::max)
    }

    /// Largest absolute asymmetry `max |m[i][j] - m[j][i]|` (square matrices).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn max_asymmetry(&self) -> f64 {
        assert!(self.is_square(), "max_asymmetry requires a square matrix");
        let mut worst = 0.0f64;
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                worst = worst.max((self[(i, j)] - self[(j, i)]).abs());
            }
        }
        worst
    }

    /// Returns `true` if the matrix is symmetric up to `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        self.is_square() && self.max_asymmetry() <= tol
    }

    /// Computes the partial-pivoting LU decomposition.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for rectangular matrices and
    /// [`LinalgError::Singular`] for singular ones.
    pub fn lu(&self) -> Result<LuDecomposition> {
        LuDecomposition::new(self)
    }

    /// Computes the eigendecomposition of a symmetric matrix:
    /// Householder tridiagonalization, then implicit-shift QL
    /// ([`SymmetricEigen::new`]).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSymmetric`] if the matrix is noticeably
    /// asymmetric, or [`LinalgError::Numerical`] for a non-finite entry or
    /// once QL exhausts its iteration budget.
    pub fn symmetric_eigen(&self) -> Result<SymmetricEigen> {
        SymmetricEigen::new(self)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.buf[self.offset + i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.buf[self.offset + i * self.cols + j]
    }
}

// Clone, equality and Debug act on the logical entries only: the
// alignment padding and its offset depend on the allocator.
impl Clone for Matrix {
    fn clone(&self) -> Self {
        Matrix::collect(self.rows, self.cols, self.data().iter().copied())
    }
}

impl PartialEq for Matrix {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows && self.cols == other.cols && self.data() == other.data()
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Matrix")
            .field("rows", &self.rows)
            .field("cols", &self.cols)
            .field("data", &self.data())
            .finish()
    }
}

impl Add<&Matrix> for &Matrix {
    type Output = Matrix;

    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "add: shape mismatch"
        );
        let sums = self.data().iter().zip(rhs.data()).map(|(a, b)| a + b);
        Matrix::collect(self.rows, self.cols, sums)
    }
}

impl Sub<&Matrix> for &Matrix {
    type Output = Matrix;

    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "sub: shape mismatch"
        );
        let diffs = self.data().iter().zip(rhs.data()).map(|(a, b)| a - b);
        Matrix::collect(self.rows, self.cols, diffs)
    }
}

/// Width of the output-column register tile in [`Matrix::gemm_into`]:
/// 32 f64 accumulators fill four AVX-512 (or eight AVX2) vector
/// registers, giving enough independent add chains to hide FP latency.
const GEMM_J_TILE: usize = 32;

/// Shared GEMM body: `out = a × b` with `a` m×inner, `b` inner×n, all
/// row-major; every element of `out` is written. Each output element is
/// a plain ascending-`k` dot product accumulated from `0.0` in a
/// register — see [`Matrix::gemm_into`] for why that addition order is
/// load-bearing.
#[inline(always)]
fn gemm_tiled_body(out: &mut [f64], a: &[f64], b: &[f64], m: usize, n: usize, inner: usize) {
    let mut jb = 0;
    // 32-column panels of `b` (inner × 32 f64: 48 KiB at inner = 192)
    // stay cache-resident across the whole sweep of `a`'s rows. The fixed-size tile views unroll the lane loop into straight
    // vector code with no per-lane bounds checks.
    while jb + GEMM_J_TILE <= n {
        for i in 0..m {
            let a_row = &a[i * inner..(i + 1) * inner];
            let mut acc = [0.0f64; GEMM_J_TILE];
            for (&a_ik, b_row) in a_row.iter().zip(b.chunks_exact(n)) {
                // xtask: allow(panic) — the slice is exactly GEMM_J_TILE
                // wide by construction, so this try_into cannot fail.
                let b_tile: &[f64; GEMM_J_TILE] =
                    b_row[jb..jb + GEMM_J_TILE].try_into().expect("tile width");
                for jj in 0..GEMM_J_TILE {
                    acc[jj] += a_ik * b_tile[jj];
                }
            }
            out[i * n + jb..i * n + jb + GEMM_J_TILE].copy_from_slice(&acc);
        }
        jb += GEMM_J_TILE;
    }
    // Remainder columns: straight dot products.
    for j in jb..n {
        for i in 0..m {
            let a_row = &a[i * inner..(i + 1) * inner];
            let mut s = 0.0;
            for (&a_ik, b_row) in a_row.iter().zip(b.chunks_exact(n)) {
                s += a_ik * b_row[j];
            }
            out[i * n + j] = s;
        }
    }
}

multiversion! {
    /// [`gemm_tiled_body`] on `backend`'s build.
    fn gemm_tiled(out: &mut [f64], a: &[f64], b: &[f64], m: usize, n: usize, inner: usize) =
        gemm_tiled_body;
}

impl Neg for &Matrix {
    type Output = Matrix;

    fn neg(self) -> Matrix {
        self.scaled(-1.0)
    }
}

impl Mul<&Vector> for &Matrix {
    type Output = Vector;

    fn mul(self, rhs: &Vector) -> Vector {
        self.mul_vector(rhs)
    }
}

impl Mul<Vector> for &Matrix {
    type Output = Vector;

    fn mul(self, rhs: Vector) -> Vector {
        self.mul_vector(&rhs)
    }
}

impl Mul<&Matrix> for &Matrix {
    type Output = Matrix;

    /// # Panics
    ///
    /// Panics if the inner dimensions differ. Use [`Matrix::mul_matrix`] for
    /// a fallible version.
    fn mul(self, rhs: &Matrix) -> Matrix {
        // xtask: allow(panic) — operator sugar cannot return Result; the
        // panic is documented above and mul_matrix is the fallible form.
        self.mul_matrix(rhs)
            .expect("matrix multiply shape mismatch")
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;

    fn mul(self, rhs: f64) -> Matrix {
        self.scaled(rhs)
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{:>12.6}", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_times_vector_is_identity() {
        let id = Matrix::identity(3);
        let v = Vector::from(vec![1.0, -2.0, 3.0]);
        assert_eq!(&id * &v, v);
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let err = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]).unwrap_err();
        assert!(matches!(err, LinalgError::InvalidInput(_)));
        assert!(Matrix::from_rows(&[]).is_err());
    }

    #[test]
    fn multiply_known_case() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = a.mul_matrix(&b).unwrap();
        assert_eq!(c[(0, 0)], 19.0);
        assert_eq!(c[(0, 1)], 22.0);
        assert_eq!(c[(1, 0)], 43.0);
        assert_eq!(c[(1, 1)], 50.0);
    }

    #[test]
    fn multiply_dimension_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(
            a.mul_matrix(&b),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    /// Deterministic entries in [-1, 1).
    fn filled(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        Matrix::from_fn(rows, cols, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        })
    }

    #[test]
    fn gemm_into_equals_mul_matrix_bit_for_bit_on_every_backend() {
        // 18 is all remainder columns, 48 one tile plus 16, 64 and 192
        // whole tiles: the shapes of the 4×4 and 8×8 chips' operators.
        for width in [18usize, 48, 64, 192] {
            for (rows, inner) in [(1usize, width), (3, width), (1, 16), (2, 64)] {
                let a = filled(rows, inner, 7 + width as u64);
                let b = filled(inner, width, 99 + inner as u64);
                let want = a.mul_matrix(&b).unwrap();
                // A dirty buffer: every element must be overwritten.
                let mut out = vec![f64::NAN; rows * width];
                Matrix::gemm_into(a.as_slice(), rows, &b, &mut out).unwrap();
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&out), bits(want.as_slice()), "{rows}x{inner}x{width}");
                for backend in Backend::available() {
                    let mut direct = vec![f64::NAN; rows * width];
                    gemm_tiled(
                        backend,
                        &mut direct,
                        a.as_slice(),
                        b.as_slice(),
                        rows,
                        width,
                        inner,
                    );
                    assert_eq!(
                        bits(&direct),
                        bits(want.as_slice()),
                        "{}: {rows}x{inner}x{width}",
                        backend.name()
                    );
                }
            }
        }
    }

    #[test]
    fn gemm_into_rejects_mismatched_shapes() {
        let b = filled(4, 3, 1);
        let mismatch = |r: Result<()>| matches!(r, Err(LinalgError::DimensionMismatch { .. }));
        // `a` short of, or past, rows × b.rows() entries.
        assert!(mismatch(Matrix::gemm_into(&[0.0; 7], 2, &b, &mut [0.0; 6])));
        assert!(mismatch(Matrix::gemm_into(&[0.0; 9], 2, &b, &mut [0.0; 6])));
        // `out` short of, or past, rows × b.cols() entries.
        assert!(mismatch(Matrix::gemm_into(&[0.0; 8], 2, &b, &mut [0.0; 5])));
        assert!(mismatch(Matrix::gemm_into(&[0.0; 8], 2, &b, &mut [0.0; 7])));
        // A row count whose product overflows is a mismatch, not a wrap.
        assert!(mismatch(Matrix::gemm_into(&[], usize::MAX, &b, &mut [])));
        // A rejected call leaves `out` untouched.
        let mut out = [5.0; 5];
        assert!(mismatch(Matrix::gemm_into(&[1.0; 8], 2, &b, &mut out)));
        assert_eq!(out, [5.0; 5]);
        let mut out = [5.0; 6];
        Matrix::gemm_into(&[1.0; 8], 2, &b, &mut out).unwrap();
        assert_ne!(out, [5.0; 6]);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_fn(3, 4, |i, j| (i * 7 + j) as f64);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn symmetry_check() {
        let s = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]).unwrap();
        assert!(s.is_symmetric(0.0));
        let ns = Matrix::from_rows(&[&[2.0, 1.0], &[0.5, 3.0]]).unwrap();
        assert!(!ns.is_symmetric(1e-12));
        assert!((ns.max_asymmetry() - 0.5).abs() < 1e-15);
    }

    #[test]
    fn diagonal_roundtrip() {
        let d = Vector::from(vec![1.0, 2.0, 3.0]);
        let m = Matrix::from_diagonal(&d);
        assert_eq!(m.diagonal(), d);
        assert_eq!(m[(0, 1)], 0.0);
    }

    #[test]
    fn every_constructor_and_result_starts_on_a_cache_line() {
        let aligned = |m: &Matrix| m.as_slice().as_ptr().align_offset(64) == 0;
        // Several sizes, so the allocator hands out differently placed
        // blocks; 0 and 1 cover the degenerate buffers.
        for n in [0usize, 1, 3, 8, 17, 33] {
            let a = Matrix::from_fn(n, n + 1, |i, j| (i * 3 + j) as f64);
            let b = Matrix::from_fn(n + 1, n, |i, j| (i + 2 * j) as f64);
            let results = [
                ("zeros", Matrix::zeros(n, n)),
                ("identity", Matrix::identity(n)),
                ("from_diagonal", Matrix::from_diagonal(&Vector::zeros(n))),
                ("from_fn", a.clone()),
                ("transpose", a.transpose()),
                ("clone", b.clone()),
                ("scaled", a.scaled(2.0)),
                ("add", &a + &a),
                ("sub", &a - &a),
                ("mul_matrix", a.mul_matrix(&b).unwrap()),
            ];
            for (what, m) in &results {
                assert!(aligned(m), "{what} at n = {n}");
            }
        }
        let r = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        assert!(aligned(&r), "from_rows");
    }

    #[test]
    fn clone_eq_and_debug_see_only_the_logical_entries() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(b.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
        assert_ne!(a, a.transpose());
        assert_ne!(Matrix::zeros(2, 3), Matrix::zeros(3, 2));
        assert_eq!(
            format!("{a:?}"),
            "Matrix { rows: 2, cols: 2, data: [1.0, 2.0, 3.0, 4.0] }"
        );
    }

    #[test]
    fn row_column_access() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(a.row(1), &[3.0, 4.0]);
        assert_eq!(a.column(0).as_slice(), &[1.0, 3.0]);
    }
}
