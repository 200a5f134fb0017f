//! Differential tests for the dispatched kernels, written to run under
//! AddressSanitizer in CI: the dispatched (AVX-512/AVX2) GEMM must agree
//! with a scalar product on every entry, and the eigensolver and the LU
//! must reproduce their scalar loops bit for bit on every chip the
//! tool-chain builds. Each test prints which backend actually executed,
//! so the CI log can assert the SIMD path was exercised rather than
//! silently falling back to scalar.

#[path = "support/inputs.rs"]
mod inputs;
#[path = "support/scalar_reference.rs"]
mod scalar_reference;

use hp_linalg::eigen::SystemEigen;
use hp_linalg::{Matrix, SymmetricEigen, Vector};
use inputs::{chips, corner_cases, lu_cases};

/// Scalar reference product, independent of the library's kernels.
fn naive_mul(a: &Matrix, b: &Matrix) -> Matrix {
    let (m, inner, n) = (a.rows(), a.cols(), b.cols());
    let mut out = Matrix::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0;
            for k in 0..inner {
                acc += a[(i, k)] * b[(k, j)];
            }
            out[(i, j)] = acc;
        }
    }
    out
}

fn filled(rows: usize, cols: usize, seed: u64) -> Matrix {
    // Small deterministic LCG; values in [-1, 1) exercise sign handling
    // without accumulating past f64 precision in these sizes.
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    Matrix::from_fn(rows, cols, |_, _| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    })
}

#[test]
fn dispatched_gemm_matches_scalar_reference() {
    // CI greps this exact line to assert the SIMD path executed.
    println!("gemm dispatch backend: {}", Matrix::gemm_backend());

    // Sizes straddle the kernels' 8-lane tiles: remainders in every
    // dimension, the empty-ish edge, and a tile-aligned case.
    for &(m, k, n) in &[
        (1usize, 1usize, 1usize),
        (3, 5, 7),
        (8, 8, 8),
        (16, 16, 16),
        (17, 13, 9),
        (32, 7, 25),
        (33, 33, 33),
    ] {
        let a = filled(m, k, 42 + m as u64);
        let b = filled(k, n, 1000 + n as u64);
        let fast = a.mul_matrix(&b).expect("shapes agree");
        let slow = naive_mul(&a, &b);
        for i in 0..m {
            for j in 0..n {
                let d = (fast[(i, j)] - slow[(i, j)]).abs();
                assert!(
                    d < 1e-12,
                    "({m}x{k})·({k}x{n}) entry ({i},{j}): dispatched {} vs reference {} \
                     under backend {}",
                    fast[(i, j)],
                    slow[(i, j)],
                    Matrix::gemm_backend()
                );
            }
        }
    }
}

/// On x86-64 hosts with AVX the dispatch must not silently degrade to
/// scalar — that would turn the sanitizer job into a no-op. (Miri and
/// non-AVX hosts legitimately report "scalar".)
#[test]
#[cfg(all(target_arch = "x86_64", not(miri)))]
fn dispatch_uses_simd_when_available() {
    let backend = Matrix::gemm_backend();
    if std::arch::is_x86_feature_detected!("avx2") {
        assert!(
            backend == "avx2" || backend == "avx512f",
            "AVX detected but backend is {backend}"
        );
    } else {
        assert_eq!(backend, "scalar");
    }
}

fn bits(x: &[f64]) -> Vec<u64> {
    x.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn dispatched_eigensolver_reproduces_the_scalar_loops_bit_for_bit() {
    // CI greps this exact line to assert the SIMD path executed.
    println!("eigen dispatch backend: {}", SymmetricEigen::backend());
    let chips = chips();
    let chip_s = chips.iter().map(|c| (c.name, c.s()));
    for (name, m) in corner_cases().into_iter().chain(chip_s) {
        let eig = SymmetricEigen::new(&m).expect("decomposes");
        let (values, vectors) = scalar_reference::symmetric_eigen(&m).expect("decomposes");
        assert_eq!(
            bits(eig.eigenvalues().as_slice()),
            bits(values.as_slice()),
            "{name}"
        );
        assert_eq!(
            bits(eig.eigenvectors().as_slice()),
            bits(vectors.as_slice()),
            "{name}"
        );
    }
    for chip in &chips {
        let sys = SystemEigen::new(&chip.a_diag, &chip.b).expect("decomposes");
        let (values, v, v_inv) =
            scalar_reference::system_eigen(&chip.a_diag, &chip.b).expect("decomposes");
        let name = chip.name;
        assert_eq!(
            bits(sys.eigenvalues().as_slice()),
            bits(values.as_slice()),
            "{name}"
        );
        assert_eq!(bits(sys.v().as_slice()), bits(v.as_slice()), "{name}");
        assert_eq!(
            bits(sys.v_inv().as_slice()),
            bits(v_inv.as_slice()),
            "{name}"
        );
    }
}

#[test]
fn dispatched_lu_solves_as_the_scalar_loops_bit_for_bit() {
    let chips = chips();
    let chip_b = chips.iter().map(|c| (c.name, c.b.clone()));
    for (name, a) in lu_cases().into_iter().chain(chip_b) {
        let n = a.rows();
        let lu = a.lu().expect("factors");
        let (factors, perm) = scalar_reference::lu_factors(&a).expect("factors");
        for seed in 0..3 {
            let rhs = Vector::from_fn(n, |i| ((i * 7 + seed * 5) % 13) as f64 - 6.0);
            let x = scalar_reference::lu_solve(&factors, &perm, &rhs);
            let got = lu.solve(&rhs).expect("solves");
            assert_eq!(
                bits(got.as_slice()),
                bits(x.as_slice()),
                "{name}, rhs {seed}"
            );
        }
    }
}
