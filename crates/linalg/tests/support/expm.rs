//! Matrix exponentials the tests hold the eigen route to. No library code
//! calls them: the engine and both solvers step in eigen coordinates.
//!
//! [`expm`] is an independent Padé scaling-and-squaring exponential;
//! [`exp_apply`] and [`exp_matrix`] form `e^{C·t}` through a
//! [`SystemEigen`] basis, the latter by [`spectral_filter`].

use hp_linalg::eigen::SystemEigen;
use hp_linalg::{LinalgError, Matrix, Result, Vector};

/// Computes `e^{M}` with a degree-6 Padé approximant plus scaling and squaring.
///
/// Accuracy is ~1e-12 relative for well-scaled inputs, which is ample for
/// cross-validation of the eigendecomposition route.
///
/// # Errors
///
/// * [`LinalgError::NotSquare`] for rectangular input.
/// * [`LinalgError::Singular`] if the Padé denominator is singular
///   (pathological inputs only).
pub fn expm(m: &Matrix) -> Result<Matrix> {
    if !m.is_square() {
        return Err(LinalgError::NotSquare {
            rows: m.rows(),
            cols: m.cols(),
        });
    }
    let n = m.rows();
    if n == 0 {
        return Ok(Matrix::zeros(0, 0));
    }

    // Scale so the scaled norm is <= 0.5, where the degree-6 Padé
    // approximant is very accurate.
    let norm = m.norm_inf();
    let mut squarings = 0u32;
    let mut scale = 1.0;
    if norm > 0.5 {
        squarings = f64_to_u32_saturating((norm / 0.5).log2().ceil());
        scale = 0.5f64.powi(i32::try_from(squarings).unwrap_or(i32::MAX));
    }
    let a = m.scaled(scale);

    // Degree-7 diagonal Padé (Higham's exact integer coefficients):
    // exp(A) ~ q(A)^{-1} p(A), p(A) = W + U, q(A) = W - U with W even, U odd.
    const B: [f64; 8] = [
        17_297_280.0,
        8_648_640.0,
        1_995_840.0,
        277_200.0,
        25_200.0,
        1_512.0,
        56.0,
        1.0,
    ];
    let a2 = a.mul_matrix(&a)?;
    let a4 = a2.mul_matrix(&a2)?;
    let a6 = a4.mul_matrix(&a2)?;
    let id = Matrix::identity(n);

    let even = &(&(&id * B[0]) + &(&a2 * B[2])) + &(&(&a4 * B[4]) + &(&a6 * B[6]));
    let odd_poly = &(&(&id * B[1]) + &(&a2 * B[3])) + &(&(&a4 * B[5]) + &(&a6 * B[7]));
    let odd = a.mul_matrix(&odd_poly)?;

    let p = &even + &odd;
    let q = &even - &odd;
    let mut result = q.lu()?.solve_matrix(&p)?;

    for _ in 0..squarings {
        result = result.mul_matrix(&result)?;
    }
    Ok(result)
}

/// `e^{λᵢ·t}` for every mode of `sys`.
fn decay(sys: &SystemEigen, t: f64) -> Vector {
    Vector::from_fn(sys.dim(), |i| (sys.eigenvalues()[i] * t).exp())
}

/// Evaluates `e^{C·t} · x` without forming the full exponential.
///
/// # Panics
///
/// Panics if `x.len() != sys.dim()`.
pub fn exp_apply(sys: &SystemEigen, t: f64, x: &Vector) -> Vector {
    sys.spectral_apply(&decay(sys, t), x)
}

/// Forms the dense matrix `e^{C·t}`.
pub fn exp_matrix(sys: &SystemEigen, t: f64) -> Matrix {
    spectral_filter(sys, &decay(sys, t))
}

/// Forms `V · diag(d) · V⁻¹` for an arbitrary spectral filter `d` of
/// `sys`'s modes.
///
/// # Panics
///
/// Panics if `d.len() != sys.dim()`.
pub fn spectral_filter(sys: &SystemEigen, d: &Vector) -> Matrix {
    let n = sys.dim();
    assert_eq!(d.len(), n, "spectral filter length mismatch");
    let (v, v_inv) = (sys.v(), sys.v_inv());
    Matrix::from_fn(n, n, |i, j| {
        (0..n).map(|k| v[(i, k)] * d[k] * v_inv[(k, j)]).sum()
    })
}

/// Converts a non-negative `f64` to `u32`, truncating toward zero and
/// saturating at the type bounds; NaN maps to 0. [`expm`] uses it for
/// its squaring count, which is `⌈log₂‖M‖⌉`-sized.
fn f64_to_u32_saturating(x: f64) -> u32 {
    if x.is_nan() {
        return 0;
    }
    // `as` from f64 to u32 is defined saturating (toward zero) since
    // Rust 1.45; this helper names that behaviour.
    x as u32
}

#[test]
fn f64_to_u32_saturating_behaviour() {
    assert_eq!(f64_to_u32_saturating(0.0), 0);
    assert_eq!(f64_to_u32_saturating(7.9), 7);
    assert_eq!(f64_to_u32_saturating(-3.0), 0);
    assert_eq!(f64_to_u32_saturating(f64::NAN), 0);
    assert_eq!(f64_to_u32_saturating(f64::INFINITY), u32::MAX);
    assert_eq!(f64_to_u32_saturating(1e20), u32::MAX);
}
