//! Negative tests: malformed inputs must come back as typed errors, not
//! panics. The static-analysis gate (`cargo xtask check`) bans panic
//! sites in this crate's library code; these tests pin the behavioural
//! half of that contract for `RotationPeakSolver` and the sequence
//! constructor it consumes.

use hotpotato::{EpochPowerSequence, HotPotatoError, RotationPeakSolver};
use hp_floorplan::GridFloorplan;
use hp_linalg::Vector;
use hp_thermal::{RcThermalModel, ThermalConfig};

fn solver_4x4() -> RotationPeakSolver {
    let fp = GridFloorplan::new(4, 4).expect("non-empty grid");
    let model = RcThermalModel::new(&fp, &ThermalConfig::default()).expect("valid config");
    RotationPeakSolver::new(model).expect("decomposes")
}

fn seq(cores: usize) -> EpochPowerSequence {
    EpochPowerSequence::new(0.5e-3, vec![Vector::constant(cores, 1.0)]).expect("valid")
}

#[test]
fn empty_epoch_list_is_rejected() {
    let err = EpochPowerSequence::new(0.5e-3, vec![]).expect_err("no epochs");
    assert!(matches!(err, HotPotatoError::InvalidSequence(_)), "{err}");
}

#[test]
fn zero_length_power_vectors_are_rejected() {
    let err = EpochPowerSequence::new(0.5e-3, vec![Vector::zeros(0)]).expect_err("empty vectors");
    assert!(matches!(err, HotPotatoError::InvalidSequence(_)), "{err}");
}

#[test]
fn ragged_epochs_are_rejected() {
    let err = EpochPowerSequence::new(0.5e-3, vec![Vector::zeros(4), Vector::zeros(5)])
        .expect_err("ragged");
    assert!(matches!(err, HotPotatoError::InvalidSequence(_)), "{err}");
}

#[test]
fn non_finite_or_non_positive_tau_is_rejected() {
    for tau in [0.0, -1e-3, f64::NAN, f64::INFINITY] {
        let err = EpochPowerSequence::new(tau, vec![Vector::zeros(4)])
            .expect_err("bad tau must not construct");
        assert!(
            matches!(err, HotPotatoError::InvalidParameter { name: "tau", .. }),
            "tau {tau}: {err}"
        );
    }
}

#[test]
fn solver_rejects_core_count_mismatch() {
    let solver = solver_4x4();
    // 9 cores against a 16-core model: every evaluation entry point must
    // agree on the rejection.
    let wrong = seq(9);
    assert!(solver.peak(&wrong).is_err());
    assert!(solver.peak_celsius(&wrong).is_err());
    assert!(solver.peak_reference(&wrong).is_err());
    let err = solver
        .peak_celsius_many(std::slice::from_ref(&wrong))
        .expect_err("batch path rejects too");
    assert!(matches!(err, HotPotatoError::InvalidSequence(_)), "{err}");
}

#[test]
fn solver_batch_rejects_one_bad_sequence_among_good() {
    let solver = solver_4x4();
    let seqs = vec![seq(16), seq(9), seq(16)];
    assert!(solver.peak_celsius_many(&seqs).is_err());
}
