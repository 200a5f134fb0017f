//! §VI run-time overhead and §V complexity claims.
//!
//! * `alg1_runtime` — one peak evaluation on the 64-core chip (paper:
//!   23.76 µs per schedule computation).
//! * `alg1_delta_scaling` — cost vs. rotation period δ (paper claims
//!   `O(2δ²N²)` for the literal form; the recurrence is `O(δN²)`).
//! * `alg1_node_scaling` — cost vs. chip size N.
//! * `alg1_batch` — 16 candidate rotations evaluated by a loop of the
//!   serial per-boundary reference vs one `peak_celsius_many` call (the
//!   scheduler's probe pattern); also cross-checks that the two agree to
//!   ≤1e-9 °C and, when measuring, that the batch is at least 2× faster.
//! * `design_time` — the one-off eigendecomposition.
//!
//! The serial references are the differential tests' own, from
//! `crates/core/tests/support`.

// The benches time one of the two references the module holds.
#[allow(dead_code)]
#[path = "../../core/tests/support/mod.rs"]
mod support;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hotpotato::RotationPeakSolver;
use hp_bench::{full_load_sequence, model};
use support::peak_celsius_sampled_serial;

fn bench_runtime(c: &mut Criterion) {
    let solver = RotationPeakSolver::new(model(8, 8)).expect("decomposes");
    let seq = full_load_sequence(64, 8, 0.5e-3);
    c.bench_function("alg1_runtime_64core_delta8", |b| {
        b.iter(|| solver.peak_celsius(&seq).expect("computes"));
    });
}

fn bench_delta_scaling(c: &mut Criterion) {
    let solver = RotationPeakSolver::new(model(8, 8)).expect("decomposes");
    let mut g = c.benchmark_group("alg1_delta_scaling");
    for &delta in &[2usize, 4, 8, 16, 32] {
        let seq = full_load_sequence(64, delta, 0.5e-3);
        g.bench_with_input(BenchmarkId::new("recurrence", delta), &delta, |b, _| {
            b.iter(|| solver.peak_celsius(&seq).expect("computes"));
        });
        if delta <= 8 {
            g.bench_with_input(BenchmarkId::new("literal_eq10", delta), &delta, |b, _| {
                b.iter(|| solver.peak_reference(&seq).expect("computes"));
            });
        }
    }
    g.finish();
}

fn bench_node_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("alg1_node_scaling");
    for &(w, h) in &[(4usize, 4usize), (6, 6), (8, 8), (10, 10)] {
        let solver = RotationPeakSolver::new(model(w, h)).expect("decomposes");
        let seq = full_load_sequence(w * h, 8, 0.5e-3);
        g.bench_with_input(BenchmarkId::from_parameter(3 * w * h), &w, |b, _| {
            b.iter(|| solver.peak_celsius(&seq).expect("computes"));
        });
    }
    g.finish();
}

fn bench_batch_vs_scalar(c: &mut Criterion) {
    let solver = RotationPeakSolver::new(model(8, 8)).expect("decomposes");
    let taus = [0.25e-3, 0.5e-3, 1e-3, 2e-3];
    let seqs: Vec<_> = (0..16)
        .map(|i| full_load_sequence(64, 8, taus[i % 4]).shifted(i / 4))
        .collect();

    // Correctness gate before any timing: the batch must agree with the
    // serial loop on every candidate. One sample per epoch is the
    // boundary form, one junction dot product per boundary and core.
    let serial: Vec<f64> = seqs
        .iter()
        .map(|s| peak_celsius_sampled_serial(&solver, s, 1))
        .collect();
    let batch = solver.peak_celsius_many(&seqs).expect("computes");
    for (a, b) in serial.iter().zip(&batch) {
        assert!((a - b).abs() <= 1e-9, "batch/serial disagree: {a} vs {b}");
    }

    let mut g = c.benchmark_group("alg1_batch16_64core_delta8");
    g.bench_function("serial_loop", |b| {
        b.iter(|| {
            seqs.iter()
                .map(|s| peak_celsius_sampled_serial(&solver, s, 1))
                .sum::<f64>()
        });
    });
    g.bench_function("batched_gemm", |b| {
        b.iter(|| solver.peak_celsius_many(&seqs).expect("computes"));
    });
    g.finish();

    // Independent speedup measurement (criterion's reporting aside), so a
    // `cargo bench` run fails loudly if the batch kernel regresses below
    // the 2x bar. Skipped in smoke mode (`cargo test`), where nothing is
    // timed.
    if std::env::args().any(|a| a == "--bench") {
        let reps = 50u32;
        let t0 = std::time::Instant::now();
        for _ in 0..reps {
            criterion::black_box(
                seqs.iter()
                    .map(|s| peak_celsius_sampled_serial(&solver, s, 1))
                    .sum::<f64>(),
            );
        }
        let t_serial = t0.elapsed();
        let t0 = std::time::Instant::now();
        for _ in 0..reps {
            criterion::black_box(solver.peak_celsius_many(&seqs).expect("computes"));
        }
        let t_batch = t0.elapsed();
        let speedup = t_serial.as_secs_f64() / t_batch.as_secs_f64();
        println!("alg1_batch16 speedup: {speedup:.2}x (serial {t_serial:?} / batch {t_batch:?})");
        assert!(
            speedup >= 2.0,
            "batched Algorithm 1 must be at least 2x the serial loop, got {speedup:.2}x"
        );
    }
}

fn bench_design_time(c: &mut Criterion) {
    let mut g = c.benchmark_group("design_time");
    g.sample_size(10);
    for &(w, h) in &[(4usize, 4usize), (8, 8)] {
        let m = model(w, h);
        g.bench_with_input(BenchmarkId::from_parameter(3 * w * h), &w, |b, _| {
            b.iter(|| RotationPeakSolver::new(m.clone()).expect("decomposes"));
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_runtime,
    bench_delta_scaling,
    bench_node_scaling,
    bench_batch_vs_scalar,
    bench_design_time
);
criterion_main!(benches);
