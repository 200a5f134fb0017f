//! Unit tests of the matrix exponentials in `tests/support/expm.rs`:
//! test oracles, not library code, shared with the integration tests.

#[path = "../tests/support/expm.rs"]
mod oracle;

pub(crate) use oracle::{exp_apply, exp_matrix, expm, spectral_filter};

#[cfg(test)]
mod tests {
    use super::{exp_matrix, expm};
    use crate::{LinalgError, Matrix, Vector};

    #[test]
    fn expm_zero_is_identity() {
        let e = expm(&Matrix::zeros(4, 4)).unwrap();
        assert!((&e - &Matrix::identity(4)).norm_inf() < 1e-14);
    }

    #[test]
    fn expm_diagonal() {
        let m = Matrix::from_diagonal(&Vector::from(vec![1.0, -2.0, 0.5]));
        let e = expm(&m).unwrap();
        assert!((e[(0, 0)] - 1.0f64.exp()).abs() < 1e-10);
        assert!((e[(1, 1)] - (-2.0f64).exp()).abs() < 1e-10);
        assert!((e[(2, 2)] - 0.5f64.exp()).abs() < 1e-10);
        assert!(e[(0, 1)].abs() < 1e-12);
    }

    #[test]
    fn expm_nilpotent() {
        // For N = [[0,1],[0,0]], exp(N) = I + N exactly.
        let m = Matrix::from_rows(&[&[0.0, 1.0], &[0.0, 0.0]]).unwrap();
        let e = expm(&m).unwrap();
        assert!((e[(0, 0)] - 1.0).abs() < 1e-13);
        assert!((e[(0, 1)] - 1.0).abs() < 1e-13);
        assert!(e[(1, 0)].abs() < 1e-13);
        assert!((e[(1, 1)] - 1.0).abs() < 1e-13);
    }

    #[test]
    fn expm_rotation_block() {
        // exp([[0,-t],[t,0]]) = [[cos t, -sin t],[sin t, cos t]].
        let t = 0.7;
        let m = Matrix::from_rows(&[&[0.0, -t], &[t, 0.0]]).unwrap();
        let e = expm(&m).unwrap();
        assert!((e[(0, 0)] - t.cos()).abs() < 1e-12);
        assert!((e[(1, 0)] - t.sin()).abs() < 1e-12);
    }

    #[test]
    fn expm_additivity_on_commuting() {
        // exp(2M) = exp(M)^2 for any M.
        let m = Matrix::from_rows(&[&[0.3, 0.1], &[0.2, -0.4]]).unwrap();
        let e1 = expm(&m).unwrap();
        let e2 = expm(&m.scaled(2.0)).unwrap();
        let e1sq = e1.mul_matrix(&e1).unwrap();
        assert!((&e2 - &e1sq).norm_inf() < 1e-11);
    }

    #[test]
    fn expm_agrees_with_eigen_route() {
        use crate::eigen::SystemEigen;
        let a_diag = Vector::from(vec![0.4, 1.1, 0.8]);
        let b = Matrix::from_rows(&[&[2.0, -0.5, -0.2], &[-0.5, 1.8, -0.6], &[-0.2, -0.6, 2.2]])
            .unwrap();
        let sys = SystemEigen::new(&a_diag, &b).unwrap();
        let c = Matrix::from_fn(3, 3, |i, j| -b[(i, j)] / a_diag[i]);
        let tau = 0.01;
        let via_pade = expm(&c.scaled(tau)).unwrap();
        let via_eigen = exp_matrix(&sys, tau);
        assert!((&via_pade - &via_eigen).norm_inf() < 1e-10);
    }

    #[test]
    fn expm_rejects_rectangular() {
        assert!(matches!(
            expm(&Matrix::zeros(2, 3)),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn expm_large_norm_scaling() {
        // Large-norm input exercises the squaring path.
        let m = Matrix::from_diagonal(&Vector::from(vec![-30.0, -10.0]));
        let e = expm(&m).unwrap();
        assert!((e[(0, 0)] - (-30.0f64).exp()).abs() < 1e-18);
        assert!((e[(1, 1)] - (-10.0f64).exp()).abs() < 1e-9);
    }
}
