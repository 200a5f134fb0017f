//! Property-based tests for the rotation analytics (Algorithm 1).

// The sampled properties read the serial oracle and nothing else of the
// module.
#[allow(dead_code)]
mod support;

use hotpotato::{EpochPowerSequence, RotationPeakSolver};
use hp_floorplan::GridFloorplan;
use hp_linalg::Vector;
use hp_thermal::{RcThermalModel, ThermalConfig, TransientSolver};
use proptest::prelude::*;
use support::peak_celsius_sampled_serial;

fn solver(w: usize, h: usize) -> RotationPeakSolver {
    let model = RcThermalModel::new(
        &GridFloorplan::new(w, h).expect("grid"),
        &ThermalConfig::default(),
    )
    .expect("valid config");
    RotationPeakSolver::new(model).expect("decomposes")
}

/// Strategy: a rotation sequence on a 3x3 chip with delta epochs of
/// bounded random power.
fn sequences() -> impl Strategy<Value = EpochPowerSequence> {
    (
        1usize..=6,
        1e-4..4e-3f64,
        proptest::collection::vec(0.0..8.0f64, 9 * 6),
    )
        .prop_map(|(delta, tau, pool)| {
            let epochs: Vec<Vector> = (0..delta)
                .map(|e| Vector::from_fn(9, |c| pool[e * 9 + c]))
                .collect();
            EpochPowerSequence::new(tau, epochs).expect("valid sequence")
        })
}

/// The proptest shrink recorded in `properties.proptest-regressions`,
/// pinned as a deterministic test so the failure reproduces without
/// proptest and can never silently regress.
///
/// δ = 2 on the 3×3 chip with τ ≈ 2.35 ms and sparse power: the fast
/// recurrence (`cycle_start`, which derived λτ by round-tripping through
/// `m.ln()`) and the literal Eq.-(10) reference (which used the
/// catastrophically-cancelling `1 − m` for the forcing term) disagreed
/// beyond 1e-7 °C for the slow sink eigenmodes where `m ≈ 1`. Both paths
/// now share one weight helper computed directly from λτ.
#[test]
fn pinned_shrink_case_fast_matches_reference() {
    let seq = EpochPowerSequence::new(
        0.002348902441869006,
        vec![
            Vector::from(vec![
                0.0,
                0.0,
                0.0,
                0.0,
                2.802692956588382,
                0.0,
                1.5841799063809208,
                7.444248077919921,
                5.686753631658183,
            ]),
            Vector::from(vec![
                0.0,
                0.0,
                0.0,
                0.0,
                6.487672330932686,
                6.529296313785012,
                2.945134129515755,
                6.815960959554493,
                6.742365548649346,
            ]),
        ],
    )
    .expect("valid sequence");
    let s = solver(3, 3);
    let fast = s.peak_celsius(&seq).unwrap();
    let reference = s.peak_reference(&seq).unwrap();
    assert!(
        (fast - reference).abs() < 1e-7,
        "{fast} vs {reference} (diff {})",
        (fast - reference).abs()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn peak_matches_reference(seq in sequences()) {
        let s = solver(3, 3);
        let fast = s.peak_celsius(&seq).unwrap();
        let reference = s.peak_reference(&seq).unwrap();
        prop_assert!((fast - reference).abs() < 1e-7, "{fast} vs {reference}");
    }

    #[test]
    fn batch_matches_scalar(seqs in proptest::collection::vec(sequences(), 1..5)) {
        // The batched GEMM pipeline must agree with per-sequence scalar
        // evaluation for arbitrary mixed-τ/δ batches (the two paths are
        // designed to be bit-identical; 1e-9 is the acceptance bound).
        let s = solver(3, 3);
        let batch = s.peak_celsius_many(&seqs).unwrap();
        prop_assert_eq!(batch.len(), seqs.len());
        for (seq, &b) in seqs.iter().zip(&batch) {
            let scalar = s.peak_celsius(seq).unwrap();
            prop_assert!((scalar - b).abs() < 1e-9, "{scalar} vs {b}");
        }
    }

    #[test]
    fn peak_celsius_equals_full_report(seq in sequences()) {
        let s = solver(3, 3);
        let fast = s.peak_celsius(&seq).unwrap();
        let full = s.peak(&seq).unwrap();
        prop_assert!((fast - full.peak_celsius).abs() < 1e-9);
        // The report's critical epoch/core point at the max boundary temp.
        let at = full.boundary_temps[full.critical_epoch][full.critical_core.index()];
        prop_assert!((at - full.peak_celsius).abs() < 1e-9);
    }

    #[test]
    fn peak_invariant_under_shift(seq in sequences(), k in 0usize..6) {
        let s = solver(3, 3);
        let base = s.peak_celsius(&seq).unwrap();
        let shifted = s.peak_celsius(&seq.shifted(k)).unwrap();
        prop_assert!((base - shifted).abs() < 1e-7);
    }

    #[test]
    fn peak_at_least_average_steady(seq in sequences()) {
        // In continuous time, the period-average of T in the steady cycle
        // equals the steady state of the time-averaged power (integrate
        // A·T' + B·T = P over one period: T' integrates to zero), so the
        // continuous peak dominates it per node. Dense intra-epoch
        // sampling approximates the continuous peak; a small tolerance
        // absorbs the residual discretization.
        let s = solver(3, 3);
        let peak = peak_celsius_sampled_serial(&s, &seq, 16);
        let avg = seq.average_power();
        let t = s.model().steady_state(&avg).unwrap();
        let avg_peak = s.model().core_temperatures(&t).max();
        prop_assert!(peak >= avg_peak - 0.05, "peak {peak} < averaged {avg_peak}");
    }

    #[test]
    fn peak_near_hottest_pinned_epoch(seq in sequences()) {
        // NOT a strict bound: the epoch-transition weights `M^k(I−M)` are
        // not entrywise positive (a cross-epoch thermal legacy can push a
        // node transiently past the hottest epoch's own steady state —
        // proptest found a 0.3 °C violation of the naive bound). The
        // engineering claim that holds: the rotation peak stays within a
        // small overshoot band of the hottest pinned epoch.
        let s = solver(3, 3);
        let peak = peak_celsius_sampled_serial(&s, &seq, 8);
        let mut bound = f64::NEG_INFINITY;
        for e in 0..seq.delta() {
            let t = s.model().steady_state(seq.epoch(e)).unwrap();
            bound = bound.max(s.model().core_temperatures(&t).max());
        }
        prop_assert!(peak <= bound + 2.0, "peak {peak} > bound {bound} + 2");
    }

    #[test]
    fn peak_monotone_in_uniform_scaling(seq in sequences(), scale in 1.05..2.0f64) {
        let s = solver(3, 3);
        let lo = s.peak_celsius(&seq).unwrap();
        let scaled = EpochPowerSequence::new(
            seq.tau(),
            (0..seq.delta()).map(|e| seq.epoch(e).scaled(scale)).collect(),
        ).unwrap();
        let hi = s.peak_celsius(&scaled).unwrap();
        prop_assert!(hi >= lo - 1e-9);
    }

    #[test]
    fn faster_rotation_never_hotter(pool in proptest::collection::vec(0.0..8.0f64, 9 * 4)) {
        // With the SAME cyclic pattern, a 10x smaller tau gives a lower
        // (or marginally equal) peak — the smoothing property HotPotato
        // relies on. Evaluated with intra-epoch sampling so neither peak
        // is an artifact of boundary placement; a small tolerance covers
        // residual discretization.
        let s = solver(3, 3);
        let epochs: Vec<Vector> = (0..4)
            .map(|e| Vector::from_fn(9, |c| pool[e * 9 + c]))
            .collect();
        let slow = EpochPowerSequence::new(2e-3, epochs.clone()).unwrap();
        let fast = EpochPowerSequence::new(0.2e-3, epochs).unwrap();
        let p_slow = peak_celsius_sampled_serial(&s, &slow, 8);
        let p_fast = peak_celsius_sampled_serial(&s, &fast, 8);
        prop_assert!(p_fast <= p_slow + 0.1, "fast {p_fast} > slow {p_slow}");
    }

    #[test]
    fn shared_basis_peaks_match_a_private_basis(seqs in proptest::collection::vec(sequences(), 1..4)) {
        // A sweep cache's model builds one basis for the engine's
        // transient solver, and Algorithm 1 on a clone of that model must
        // equal a solver on a model of its own, bit for bit, on the
        // scalar and the batched entry points.
        let model = RcThermalModel::new(
            &GridFloorplan::new(3, 3).expect("grid"),
            &ThermalConfig::default(),
        )
        .expect("valid config");
        let transient = TransientSolver::new(&model).expect("decomposes");
        let shared = RotationPeakSolver::new(model).expect("the model's basis");
        prop_assert!(std::ptr::eq(transient.eigen(), shared.eigen()));
        let private = solver(3, 3);
        let batch = shared.peak_celsius_many(&seqs).unwrap();
        for (seq, b) in seqs.iter().zip(&batch) {
            let a = private.peak_celsius(seq).unwrap();
            prop_assert_eq!(a.to_bits(), b.to_bits());
            prop_assert_eq!(a.to_bits(), shared.peak_celsius(seq).unwrap().to_bits());
        }
    }
}
