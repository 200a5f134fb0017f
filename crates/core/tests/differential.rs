//! Differential tests: Algorithm 1's batched kernel is pitted against
//! the naive serial references in `support`.
//!
//! Contract (DESIGN.md §6): paths that perform the *same* arithmetic in
//! the same order through the batched GEMM layout must agree **bit for
//! bit** (`to_bits` equality); paths that use a mathematically different
//! textbook formulation (the literal Eq.-10 spectral filters, brute-force
//! transient stepping) must agree within documented tolerances.

mod support;

use hotpotato::{EpochPowerSequence, HotPotatoError, RotationPeakSolver};
use hp_floorplan::GridFloorplan;
use hp_linalg::Vector;
use hp_thermal::{RcThermalModel, ThermalConfig, TransientSolver};
use support::{peak_celsius_sampled_serial, peak_report_serial};

fn solver(w: usize, h: usize, cfg: &ThermalConfig) -> RotationPeakSolver {
    let model = RcThermalModel::new(&GridFloorplan::new(w, h).expect("grid"), cfg).expect("model");
    RotationPeakSolver::new(model).expect("decomposes")
}

/// A mixed-power rotation with non-trivial structure on a `n`-core chip.
fn mixed_sequence(cores: usize, delta: usize, tau: f64) -> EpochPowerSequence {
    let epochs = (0..delta)
        .map(|e| Vector::from_fn(cores, |c| ((c * 7 + e * 3) % 11) as f64 * 0.65 + 0.3))
        .collect();
    EpochPowerSequence::new(tau, epochs).expect("valid sequence")
}

/// Non-uniform τ grid used across the edge-case tests (spans sub-epoch
/// sampling regimes from much faster to much slower than the junction
/// time constant).
const TAUS: [f64; 4] = [0.1e-3, 0.47e-3, 1.3e-3, 4e-3];

/// The paper's 64-core chip. Its `V_Jᵀ` has 64 columns, so the junction
/// readout runs the GEMM's tiled SIMD body; on 4×4 (16 columns, fewer
/// than one column tile) only the GEMM's remainder loop runs.
fn solver_8x8() -> RotationPeakSolver {
    solver(8, 8, &ThermalConfig::default())
}

/// Rotation periods for the 8×8 chip, up to a full 16-core ring.
const DELTAS_8X8: [usize; 4] = [1, 3, 8, 16];

#[test]
fn sampled_batch_matches_serial_bit_for_bit() {
    let cases: [(RotationPeakSolver, &[usize], &[usize]); 2] = [
        (
            solver(4, 4, &ThermalConfig::default()),
            &[1, 3, 5],
            &[1, 2, 7, 16],
        ),
        (solver_8x8(), &DELTAS_8X8, &[1, 2, 7]),
    ];
    for (s, deltas, sample_counts) in &cases {
        let cores = s.model().core_count();
        for &delta in *deltas {
            for &tau in &TAUS {
                let seq = mixed_sequence(cores, delta, tau);
                for &samples in *sample_counts {
                    let batched = s.peak_celsius_sampled(&seq, samples).unwrap();
                    let serial = peak_celsius_sampled_serial(s, &seq, samples);
                    assert_eq!(
                        batched.to_bits(),
                        serial.to_bits(),
                        "{cores} cores delta {delta} tau {tau} samples {samples}: \
                         {batched} vs {serial}"
                    );
                }
            }
        }
    }
}

#[test]
fn report_batch_matches_serial_bit_for_bit() {
    let cases: [(RotationPeakSolver, &[usize]); 2] = [
        (solver(4, 4, &ThermalConfig::default()), &[1, 2, 4, 6]),
        (solver_8x8(), &DELTAS_8X8),
    ];
    for (s, deltas) in &cases {
        let cores = s.model().core_count();
        for &delta in *deltas {
            for &tau in &TAUS {
                let seq = mixed_sequence(cores, delta, tau);
                let batched = s.peak(&seq).unwrap();
                let serial = peak_report_serial(s, &seq);
                assert_eq!(
                    batched.peak_celsius.to_bits(),
                    serial.peak_celsius.to_bits()
                );
                assert_eq!(batched.critical_core, serial.critical_core);
                assert_eq!(batched.critical_epoch, serial.critical_epoch);
                assert_eq!(batched.boundary_temps.len(), serial.boundary_temps.len());
                for (e, (a, b)) in batched
                    .boundary_temps
                    .iter()
                    .zip(&serial.boundary_temps)
                    .enumerate()
                {
                    for c in 0..cores {
                        assert_eq!(
                            a[c].to_bits(),
                            b[c].to_bits(),
                            "{cores} cores delta {delta} tau {tau} boundary {e} core {c}: \
                             {} vs {}",
                            a[c],
                            b[c]
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn report_agrees_with_literal_eq10_reference() {
    // Cross-formulation check: the batched report against the O(δ²N²)
    // spectral-filter form of paper Eq. (10). Different math, documented
    // 1e-7 °C bound (see `slow_sink_fast_matches_reference` for why the
    // bound is not tighter).
    let s = solver(4, 4, &ThermalConfig::default());
    for delta in [1usize, 3, 5] {
        for &tau in &TAUS {
            let seq = mixed_sequence(16, delta, tau);
            let fast = s.peak(&seq).unwrap().peak_celsius;
            let reference = s.peak_reference(&seq).unwrap();
            assert!(
                (fast - reference).abs() < 1e-7,
                "delta {delta} tau {tau}: {fast} vs {reference}"
            );
        }
    }
}

#[test]
fn sampled_one_sample_is_boundary_form_bit_for_bit() {
    // `samples == 1` must reduce to `peak_celsius` exactly: same decay
    // data (τ/1 == τ), same recurrence, same junction products.
    let s = solver(4, 4, &ThermalConfig::default());
    for delta in [1usize, 2, 5] {
        for &tau in &TAUS {
            let seq = mixed_sequence(16, delta, tau);
            let boundary = s.peak_celsius(&seq).unwrap();
            let sampled = s.peak_celsius_sampled(&seq, 1).unwrap();
            assert_eq!(
                boundary.to_bits(),
                sampled.to_bits(),
                "delta {delta} tau {tau}: {boundary} vs {sampled}"
            );
        }
    }
}

#[test]
fn sampled_refinement_is_monotone() {
    // Doubling the sample count keeps every previous sample instant in
    // the set, so the within-epoch max can only grow (up to round-off).
    let s = solver(4, 4, &ThermalConfig::default());
    for delta in [2usize, 4] {
        for &tau in &TAUS {
            let seq = mixed_sequence(16, delta, tau);
            let mut last = f64::NEG_INFINITY;
            for samples in [1usize, 2, 4, 8, 16, 32] {
                let peak = s.peak_celsius_sampled(&seq, samples).unwrap();
                assert!(
                    peak >= last - 1e-9,
                    "delta {delta} tau {tau} samples {samples}: {peak} < {last}"
                );
                last = peak;
            }
        }
    }
}

#[test]
fn sampled_rejects_zero_samples_for_every_sequence() {
    let s = solver(4, 4, &ThermalConfig::default());
    for delta in [1usize, 3, 6] {
        for &tau in &TAUS {
            let seq = mixed_sequence(16, delta, tau);
            assert!(
                matches!(
                    s.peak_celsius_sampled(&seq, 0),
                    Err(HotPotatoError::InvalidParameter {
                        name: "samples",
                        ..
                    })
                ),
                "delta {delta} tau {tau}"
            );
        }
    }
}

#[test]
fn sampled_peak_matches_brute_force_transient() {
    // Textbook reference: iterate the exact transient stepper to the
    // steady cycle (reduced sink capacitance shortens the slowest time
    // constant), then sample densely within one period and compare with
    // the closed-form sampled peak. Different formulation — documented
    // 1e-3 °C agreement.
    let cfg = ThermalConfig {
        c_sink: 0.005,
        ..ThermalConfig::default()
    };
    let s = solver(4, 4, &cfg);
    let seq = mixed_sequence(16, 4, 0.5e-3);
    let samples = 8usize;
    let closed = s.peak_celsius_sampled(&seq, samples).unwrap();

    let transient = TransientSolver::new(s.model()).unwrap();
    let mut t = s.model().ambient_state();
    for k in 0..4000 {
        t = transient
            .step(s.model(), &t, seq.epoch(k % 4), seq.tau())
            .unwrap();
    }
    let sub = seq.tau() / samples as f64;
    let mut brute = f64::NEG_INFINITY;
    for e in 0..4 {
        for _ in 0..samples {
            t = transient.step(s.model(), &t, seq.epoch(e), sub).unwrap();
            brute = brute.max(s.model().core_temperatures(&t).max());
        }
    }
    assert!(
        (closed - brute).abs() < 1e-3,
        "closed {closed:.6} vs brute-force {brute:.6}"
    );
}

#[test]
fn slow_sink_sampled_batch_still_bit_identical() {
    // The near-degenerate eigenmode regime (m within ulps of 1) that
    // historically exposed weight-path drift: the batched and serial
    // sampled paths must stay bit-identical even here.
    let cfg = ThermalConfig {
        c_sink: 40000.0,
        g_sink_ambient: 0.02,
        ..ThermalConfig::default()
    };
    let s = solver(3, 3, &cfg);
    for delta in [1usize, 4] {
        for &tau in &TAUS {
            let seq = mixed_sequence(9, delta, tau);
            for samples in [1usize, 4, 16] {
                let batched = s.peak_celsius_sampled(&seq, samples).unwrap();
                let serial = peak_celsius_sampled_serial(&s, &seq, samples);
                assert_eq!(batched.to_bits(), serial.to_bits());
            }
        }
    }
}
