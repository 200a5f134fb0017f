use std::error::Error;
use std::fmt;

use crate::Vector;

/// Numerical-integrity failures: the input was structurally valid but the
/// arithmetic could not produce a trustworthy answer.
///
/// Unlike the structural variants of [`LinalgError`] (shape mismatches,
/// exact singularity), these carry enough diagnostic state — sweep counts,
/// residual norms, condition estimates, partial results — for a caller to
/// decide between retrying, degrading to a slower-but-stable path, or
/// surfacing the failure.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum NumericalError {
    /// An iterative algorithm exhausted its budget without meeting its
    /// tolerance. Carries the partial state at the point of abort so a
    /// caller can assess how close the iteration got.
    NonConvergence {
        /// Sweeps (or iterations) performed before giving up.
        sweeps: u32,
        /// Residual measure at abort (e.g. the subdiagonal entry a QL
        /// iteration failed to annihilate).
        off_norm: f64,
        /// Partial result at abort (e.g. the diagonal holding the
        /// eigenvalue estimates so far). May be empty when no meaningful
        /// partial state exists.
        partial: Vector,
    },
    /// A condition-number estimate exceeded the caller's threshold: the
    /// factorization succeeded, but its solutions cannot be trusted to the
    /// accuracy the caller requires.
    IllConditioned {
        /// The 1-norm condition estimate `‖A‖₁·‖A⁻¹‖₁`.
        estimate: f64,
        /// The threshold that was exceeded.
        threshold: f64,
    },
    /// A NaN or infinity was observed where only finite values are valid.
    NonFinite {
        /// What held the non-finite value (input name or computed stage).
        what: &'static str,
    },
    /// A matrix that must stay symmetric drifted measurably asymmetric
    /// during computation.
    LossOfSymmetry {
        /// Position of the worst asymmetric pair.
        at: (usize, usize),
        /// Magnitude of the asymmetry `|m[i][j] - m[j][i]|`.
        asymmetry: f64,
    },
}

impl fmt::Display for NumericalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NumericalError::NonConvergence {
                sweeps, off_norm, ..
            } => write!(
                f,
                "no convergence after {sweeps} sweeps (residual {off_norm:e})"
            ),
            NumericalError::IllConditioned {
                estimate,
                threshold,
            } => write!(
                f,
                "ill-conditioned: estimate {estimate:e} exceeds threshold {threshold:e}"
            ),
            NumericalError::NonFinite { what } => {
                write!(f, "non-finite value in {what}")
            }
            NumericalError::LossOfSymmetry { at, asymmetry } => write!(
                f,
                "symmetry lost at ({}, {}), asymmetry {asymmetry:e}",
                at.0, at.1
            ),
        }
    }
}

impl Error for NumericalError {}

/// Errors produced by the dense linear-algebra kernels.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum LinalgError {
    /// An operation that requires a square matrix received a rectangular one.
    NotSquare {
        /// Rows of the offending matrix.
        rows: usize,
        /// Columns of the offending matrix.
        cols: usize,
    },
    /// Two operands have incompatible dimensions.
    DimensionMismatch {
        /// Human-readable description of the operation.
        op: &'static str,
        /// Dimensions of the left operand as `(rows, cols)`.
        left: (usize, usize),
        /// Dimensions of the right operand as `(rows, cols)`.
        right: (usize, usize),
    },
    /// A factorization encountered a (numerically) singular matrix.
    Singular {
        /// Pivot index at which singularity was detected.
        pivot: usize,
    },
    /// An algorithm that requires a symmetric matrix received an asymmetric one.
    NotSymmetric {
        /// Position of the first asymmetric entry.
        at: (usize, usize),
        /// Magnitude of the asymmetry `|m[i][j] - m[j][i]|`.
        asymmetry: f64,
    },
    /// An iterative algorithm failed to converge.
    NoConvergence {
        /// Name of the algorithm.
        algorithm: &'static str,
        /// Iterations performed before giving up.
        iterations: usize,
    },
    /// Input data was empty or otherwise malformed.
    InvalidInput(&'static str),
    /// A numerical-integrity failure (see [`NumericalError`]).
    Numerical(NumericalError),
}

impl From<NumericalError> for LinalgError {
    fn from(e: NumericalError) -> Self {
        LinalgError::Numerical(e)
    }
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::NotSquare { rows, cols } => {
                write!(f, "matrix must be square, got {rows}x{cols}")
            }
            LinalgError::DimensionMismatch { op, left, right } => write!(
                f,
                "dimension mismatch in {op}: {}x{} vs {}x{}",
                left.0, left.1, right.0, right.1
            ),
            LinalgError::Singular { pivot } => {
                write!(f, "matrix is singular (zero pivot at index {pivot})")
            }
            LinalgError::NotSymmetric { at, asymmetry } => write!(
                f,
                "matrix is not symmetric at ({}, {}), asymmetry {asymmetry:e}",
                at.0, at.1
            ),
            LinalgError::NoConvergence {
                algorithm,
                iterations,
            } => write!(
                f,
                "{algorithm} did not converge after {iterations} iterations"
            ),
            LinalgError::InvalidInput(what) => write!(f, "invalid input: {what}"),
            LinalgError::Numerical(e) => write!(f, "{e}"),
        }
    }
}

impl Error for LinalgError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            LinalgError::Numerical(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let variants = [
            LinalgError::NotSquare { rows: 2, cols: 3 },
            LinalgError::DimensionMismatch {
                op: "mul",
                left: (2, 2),
                right: (3, 3),
            },
            LinalgError::Singular { pivot: 1 },
            LinalgError::NotSymmetric {
                at: (0, 1),
                asymmetry: 0.5,
            },
            LinalgError::NoConvergence {
                algorithm: "ql",
                iterations: 100,
            },
            LinalgError::InvalidInput("empty"),
            LinalgError::Numerical(NumericalError::NonConvergence {
                sweeps: 64,
                off_norm: 1e-3,
                partial: Vector::zeros(2),
            }),
            LinalgError::Numerical(NumericalError::IllConditioned {
                estimate: 1e15,
                threshold: 1e12,
            }),
            LinalgError::Numerical(NumericalError::NonFinite { what: "power" }),
            LinalgError::Numerical(NumericalError::LossOfSymmetry {
                at: (0, 1),
                asymmetry: 1e-3,
            }),
        ];
        for v in variants {
            let s = v.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LinalgError>();
        assert_send_sync::<NumericalError>();
    }

    #[test]
    fn numerical_error_wraps_with_source() {
        let e = LinalgError::from(NumericalError::NonFinite { what: "dt" });
        assert!(matches!(e, LinalgError::Numerical(_)));
        assert!(Error::source(&e).is_some());
    }
}
