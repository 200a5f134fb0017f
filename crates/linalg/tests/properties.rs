//! Property-based tests for the dense linear-algebra kernels.

#[path = "support/expm.rs"]
mod exponentials;
mod support;

use exponentials::{exp_apply, exp_matrix, expm};
use hp_linalg::eigen::SystemEigen;
use hp_linalg::{Matrix, Vector};
use proptest::prelude::*;
use support::{jacobi_eigen, orthogonality_error, reconstruction_error};

/// The eigensolver's contract: backward error `‖S − QΛQᵀ‖∞ ≤ 1e-12·‖S‖∞`,
/// orthogonality `‖QᵀQ − I‖∞ ≤ 1e-12`, and eigenvalues within
/// `1e-12·‖S‖∞` of the Jacobi reference.
const CONTRACT: f64 = 1e-12;

/// Strategy: a well-conditioned symmetric positive definite matrix of size n,
/// built as a diagonally dominant Laplacian-like conductance matrix — the
/// exact structure the thermal model produces.
fn spd_matrix(n: usize) -> impl Strategy<Value = Matrix> {
    // Off-diagonal couplings in [0, 1], ambient leak in [0.1, 2].
    let offs = proptest::collection::vec(0.0..1.0f64, n * n);
    let leaks = proptest::collection::vec(0.1..2.0f64, n);
    (offs, leaks).prop_map(move |(offs, leaks)| {
        let mut b = Matrix::zeros(n, n);
        for i in 0..n {
            for j in (i + 1)..n {
                let g = offs[i * n + j];
                b[(i, j)] = -g;
                b[(j, i)] = -g;
                b[(i, i)] += g;
                b[(j, j)] += g;
            }
            b[(i, i)] += leaks[i];
        }
        b
    })
}

fn capacitances(n: usize) -> impl Strategy<Value = Vector> {
    proptest::collection::vec(0.05..5.0f64, n).prop_map(Vector::from)
}

fn rhs(n: usize) -> impl Strategy<Value = Vector> {
    proptest::collection::vec(-10.0..10.0f64, n).prop_map(Vector::from)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lu_solve_residual_small(b in spd_matrix(6), x in rhs(6)) {
        let rhs = b.mul_vector(&x);
        let solved = b.lu().unwrap().solve(&rhs).unwrap();
        let resid = (&b.mul_vector(&solved) - &rhs).norm_inf();
        prop_assert!(resid < 1e-8 * (1.0 + rhs.norm_inf()));
    }

    #[test]
    fn lu_inverse_roundtrip(b in spd_matrix(5)) {
        let inv = b.lu().unwrap().inverse().unwrap();
        let prod = b.mul_matrix(&inv).unwrap();
        let err = (&prod - &Matrix::identity(5)).norm_inf();
        prop_assert!(err < 1e-8);
    }

    #[test]
    fn lu_determinant_positive_for_spd(b in spd_matrix(5)) {
        prop_assert!(b.lu().unwrap().determinant() > 0.0);
    }

    #[test]
    fn symmetric_eigen_reconstructs(b in spd_matrix(6)) {
        let eig = b.symmetric_eigen().unwrap();
        let err = reconstruction_error(&b, eig.eigenvalues(), eig.eigenvectors());
        prop_assert!(err <= CONTRACT, "‖S − QΛQᵀ‖∞/‖S‖∞ = {err:e}");
    }

    #[test]
    fn symmetric_eigen_eigenvalues_positive_for_spd(b in spd_matrix(6)) {
        let eig = b.symmetric_eigen().unwrap();
        prop_assert!(eig.eigenvalues().iter().all(|&l| l > 0.0));
    }

    #[test]
    fn symmetric_eigen_vectors_orthonormal(b in spd_matrix(6)) {
        let eig = b.symmetric_eigen().unwrap();
        let err = orthogonality_error(eig.eigenvectors());
        prop_assert!(err <= CONTRACT, "‖QᵀQ − I‖∞ = {err:e}");
    }

    #[test]
    fn symmetric_eigen_matches_the_jacobi_reference(b in spd_matrix(10)) {
        let eig = b.symmetric_eigen().unwrap();
        let (values, _) = jacobi_eigen(&b).expect("reference converges");
        let worst = (eig.eigenvalues() - &values).norm_inf();
        prop_assert!(worst <= CONTRACT * b.norm_inf(), "max |Δλ| = {worst:e}");
    }

    #[test]
    fn repeated_eigenvalues_keep_the_contract(
        b in spd_matrix(5),
        level in 0.1..10.0f64,
        copies in 2usize..4,
    ) {
        // Three inputs whose spectra repeat: a scaled identity, a diagonal
        // with each level twice, and `copies` identical blocks of `b` on
        // the diagonal — every eigenvalue of `b` then `copies`-fold.
        let n = 5 * copies;
        let scaled_identity = Matrix::identity(n).scaled(level);
        let paired = Matrix::from_diagonal(&Vector::from_fn(n, |i| level + (i / 2) as f64));
        let blocks = Matrix::from_fn(n, n, |i, j| {
            if i / 5 == j / 5 { b[(i % 5, j % 5)] } else { 0.0 }
        });
        for m in [&scaled_identity, &paired, &blocks] {
            let eig = m.symmetric_eigen().unwrap();
            let rec = reconstruction_error(m, eig.eigenvalues(), eig.eigenvectors());
            let orth = orthogonality_error(eig.eigenvectors());
            prop_assert!(rec <= CONTRACT && orth <= CONTRACT, "rec {rec:e}, orth {orth:e}");
            let values = eig.eigenvalues();
            prop_assert!(values.as_slice().windows(2).all(|w| w[0] <= w[1]), "ascending");
        }
        let values = blocks.symmetric_eigen().unwrap().eigenvalues().clone();
        let single = b.symmetric_eigen().unwrap().eigenvalues().clone();
        for (k, &x) in values.iter().enumerate() {
            let want = single[k / copies];
            prop_assert!((x - want).abs() <= CONTRACT * b.norm_inf(), "λ[{k}] = {x}, want {want}");
        }
    }

    #[test]
    fn system_eigen_all_negative(a in capacitances(6), b in spd_matrix(6)) {
        let sys = SystemEigen::new(&a, &b).unwrap();
        prop_assert!(sys.eigenvalues().iter().all(|&l| l < 0.0));
    }

    #[test]
    fn system_exp_semigroup(a in capacitances(4), b in spd_matrix(4), x in rhs(4)) {
        // e^{C(s+t)} x == e^{Cs} e^{Ct} x
        let sys = SystemEigen::new(&a, &b).unwrap();
        let (s, t) = (0.07, 0.13);
        let once = exp_apply(&sys, s + t, &x);
        let twice = exp_apply(&sys, s, &exp_apply(&sys, t, &x));
        prop_assert!((&once - &twice).norm_inf() < 1e-9 * (1.0 + x.norm_inf()));
    }

    #[test]
    fn system_exp_matches_pade(a in capacitances(4), b in spd_matrix(4)) {
        let sys = SystemEigen::new(&a, &b).unwrap();
        let n = 4;
        let c = Matrix::from_fn(n, n, |i, j| -b[(i, j)] / a[i]);
        let tau = 0.05;
        let via_pade = expm(&c.scaled(tau)).unwrap();
        let via_eigen = exp_matrix(&sys, tau);
        prop_assert!((&via_pade - &via_eigen).norm_inf() < 1e-8);
    }

    #[test]
    fn exp_apply_contracts(a in capacitances(5), b in spd_matrix(5), x in rhs(5)) {
        // The RC system is dissipative: the A-weighted norm never grows.
        let sys = SystemEigen::new(&a, &b).unwrap();
        let y = exp_apply(&sys, 0.5, &x);
        let wnorm = |v: &Vector| -> f64 {
            v.iter().enumerate().map(|(i, &vi)| a[i] * vi * vi).sum::<f64>()
        };
        prop_assert!(wnorm(&y) <= wnorm(&x) * (1.0 + 1e-9));
    }

    #[test]
    fn matmul_associative(x in rhs(4), b in spd_matrix(4), c in spd_matrix(4)) {
        let left = b.mul_matrix(&c).unwrap().mul_vector(&x);
        let right = b.mul_vector(&c.mul_vector(&x));
        prop_assert!((&left - &right).norm_inf() < 1e-8 * (1.0 + x.norm_inf()));
    }

    #[test]
    fn transpose_preserves_norm(b in spd_matrix(5)) {
        prop_assert_eq!(b.transpose().norm_inf(), b.norm_inf());
    }
}
