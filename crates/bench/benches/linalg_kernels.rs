//! Substrate micro-benchmarks: the dense kernels underneath everything.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hp_linalg::cholesky::CholeskyDecomposition;
use hp_linalg::eigen::SystemEigen;
use hp_linalg::{Matrix, Vector};

/// A conductance-style SPD matrix of size n.
fn spd(n: usize) -> Matrix {
    let mut b = Matrix::zeros(n, n);
    for i in 0..n {
        for j in (i + 1)..n {
            let g = 1.0 / (1.0 + (i + 2 * j) as f64 % 7.0);
            b[(i, j)] = -g;
            b[(j, i)] = -g;
            b[(i, i)] += g;
            b[(j, j)] += g;
        }
        b[(i, i)] += 0.5 + (i % 3) as f64;
    }
    b
}

fn caps(n: usize) -> Vector {
    Vector::from_fn(n, |i| 0.1 + (i % 5) as f64 * 0.05)
}

fn bench_lu(c: &mut Criterion) {
    let mut g = c.benchmark_group("lu");
    for &n in &[48usize, 96, 192] {
        let m = spd(n);
        let rhs = Vector::from_fn(n, |i| (i as f64).sin());
        g.bench_with_input(BenchmarkId::new("factorize", n), &n, |b, _| {
            b.iter(|| m.lu().expect("factorizes"));
        });
        let lu = m.lu().expect("factorizes");
        g.bench_with_input(BenchmarkId::new("solve", n), &n, |b, _| {
            b.iter(|| lu.solve(&rhs).expect("solves"));
        });
        g.bench_with_input(BenchmarkId::new("cholesky_factorize", n), &n, |b, _| {
            b.iter(|| CholeskyDecomposition::new(&m).expect("SPD input"));
        });
        let chol = CholeskyDecomposition::new(&m).expect("SPD input");
        g.bench_with_input(BenchmarkId::new("cholesky_solve", n), &n, |b, _| {
            b.iter(|| chol.solve(&rhs).expect("solves"));
        });
    }
    g.finish();
}

fn bench_eigen(c: &mut Criterion) {
    let mut g = c.benchmark_group("eigen");
    g.sample_size(10);
    for &n in &[48usize, 96, 192] {
        let b_mat = spd(n);
        let a = caps(n);
        g.bench_with_input(BenchmarkId::new("system_eigen", n), &n, |b, _| {
            b.iter(|| SystemEigen::new(&a, &b_mat).expect("decomposes"));
        });
    }
    g.finish();
}

criterion_group!(benches, bench_lu, bench_eigen);
criterion_main!(benches);
