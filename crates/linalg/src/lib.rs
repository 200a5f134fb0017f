//! Dense linear-algebra kernels used by the HotPotato thermal tool-chain.
//!
//! Compact RC thermal models (HotSpot-style) lead to small dense systems:
//! a 64-core, three-layer model has `N ≈ 200` thermal nodes. At that size
//! dense LU factorization and a dense symmetric eigensolver are both
//! simpler and faster than sparse machinery, and — crucially for the
//! peak-temperature proofs in the paper — the symmetric route gives us an
//! *orthogonal* eigenbasis of the symmetrized system matrix.
//!
//! The crate deliberately implements only what the tool-chain needs:
//!
//! * [`Matrix`] / [`Vector`] — owned, row-major dense containers with the
//!   usual arithmetic; `Matrix` storage starts on a 64-byte boundary.
//! * [`LuDecomposition`] — partial-pivoting LU with solve / inverse /
//!   determinant.
//! * [`CholeskyDecomposition`] — pivot-free `L·Lᵀ` factorization for SPD
//!   matrices, used as the positive-definiteness check for assembled RC
//!   networks.
//! * [`SymmetricEigen`] — Householder tridiagonalization + implicit-shift
//!   QL for symmetric matrices, plus the diagonal-congruence transform used
//!   to factorize `C = -A⁻¹B` when `A` is diagonal positive and `B` is
//!   symmetric positive definite.
//!
//! # Example
//!
//! ```
//! use hp_linalg::{Matrix, Vector};
//!
//! # fn main() -> Result<(), hp_linalg::LinalgError> {
//! let b = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]])?;
//! let p = Vector::from(vec![1.0, 2.0]);
//! let lu = b.lu()?;
//! let t = lu.solve(&p)?;
//! let residual = (&b * &t - p).norm_inf();
//! assert!(residual < 1e-12);
//! # Ok(())
//! # }
//! ```

mod error;
mod matrix;
mod simd;
mod vector;

pub mod cholesky;
pub mod convert;
pub mod eigen;
pub mod lu;

// The test oracles live in `tests/support/`, shared with the integration
// tests, which name this crate `hp_linalg`: the matrix exponentials the
// eigen route is checked against (their unit tests run with the crate's),
// the design-time kernels' scalar references and the inputs they are
// held to them on, and the decomposition checks.
#[cfg(test)]
extern crate self as hp_linalg;
#[cfg(test)]
mod expm;
#[cfg(test)]
#[path = "../tests/support/inputs.rs"]
mod inputs;
#[cfg(test)]
#[path = "../tests/support/scalar_reference.rs"]
mod scalar_reference;
#[cfg(test)]
#[allow(dead_code)] // the unit tests use `reconstruct` only
#[path = "../tests/support/mod.rs"]
mod support;

pub use cholesky::CholeskyDecomposition;
pub use eigen::SymmetricEigen;
pub use error::{LinalgError, NumericalError};
pub use lu::LuDecomposition;
pub use matrix::Matrix;
pub use vector::Vector;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, LinalgError>;
