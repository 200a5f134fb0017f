//! Negative tests: the transient solver and the RC model must reject
//! malformed inputs with typed errors instead of panicking. Pins the
//! behavioural half of the `cargo xtask check` no-panic contract for
//! hp-thermal.

// These tests use the module's `step_reference` only.
#[allow(dead_code)]
mod support;

use hp_floorplan::GridFloorplan;
use hp_linalg::Vector;
use hp_thermal::{RcThermalModel, ThermalConfig, ThermalError, TransientSolver};
use support::step_reference;

fn model_4x4() -> RcThermalModel {
    let fp = GridFloorplan::new(4, 4).expect("non-empty grid");
    RcThermalModel::new(&fp, &ThermalConfig::default()).expect("valid config")
}

#[test]
fn step_rejects_non_finite_or_negative_dt() {
    let model = model_4x4();
    let solver = TransientSolver::new(&model).expect("decomposes");
    let t0 = model.ambient_state();
    let p = Vector::constant(16, 1.0);
    for dt in [-1e-4, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let err = solver
            .step(&model, &t0, &p, dt)
            .expect_err("bad dt must not step");
        assert!(
            matches!(err, ThermalError::InvalidParameter { name: "dt", .. }),
            "dt {dt}: {err}"
        );
    }
}

#[test]
fn step_rejects_power_dimension_mismatch() {
    let model = model_4x4();
    let solver = TransientSolver::new(&model).expect("decomposes");
    let t0 = model.ambient_state();
    // 9 cores of power against the 16-core model.
    let err = solver
        .step(&model, &t0, &Vector::constant(9, 1.0), 1e-4)
        .expect_err("wrong power length");
    assert!(
        matches!(err, ThermalError::PowerLengthMismatch { .. }),
        "{err}"
    );
}

#[test]
fn steady_state_rejects_dimension_mismatch() {
    let model = model_4x4();
    let err = model
        .steady_state(&Vector::constant(5, 1.0))
        .expect_err("wrong core count");
    assert!(
        matches!(err, ThermalError::PowerLengthMismatch { .. }),
        "{err}"
    );
}

#[test]
fn config_rejects_non_finite_ambient() {
    for ambient in [f64::NAN, f64::INFINITY] {
        let cfg = ThermalConfig {
            ambient,
            ..ThermalConfig::default()
        };
        assert!(
            cfg.validate().is_err(),
            "ambient {ambient} must not validate"
        );
    }
}

#[test]
fn advance_rejects_bad_inputs_without_touching_the_state() {
    let model = model_4x4();
    let mut solver = TransientSolver::new(&model).expect("decomposes");
    let mut state = solver
        .initial_state(&model.ambient_state())
        .expect("initial state");
    let before = state.clone();
    let good = Vector::constant(16, 1.0);
    let mut nan_power = good.clone();
    nan_power[3] = f64::NAN;
    let cases = [
        (good.clone(), -1e-4, "dt"),
        (good.clone(), f64::NAN, "dt"),
        (good, f64::INFINITY, "dt"),
        (Vector::constant(9, 1.0), 1e-4, "power length"),
        (nan_power, 1e-4, "non-finite"),
    ];
    for (power, dt, expected) in &cases {
        let err = solver
            .advance(&model, &mut state, power, *dt)
            .expect_err("bad input must not step");
        let kind = match &err {
            ThermalError::InvalidParameter { name: "dt", .. } => "dt",
            ThermalError::PowerLengthMismatch { .. } => "power length",
            ThermalError::Linalg(_) => "non-finite",
            _ => "other",
        };
        assert_eq!(
            kind,
            *expected,
            "power of {} cores, dt {dt}: {err}",
            power.len()
        );
    }
    // A rejected interval neither moves the state nor counts as a step.
    assert_eq!(state, before);
    assert_eq!(solver.runtime().stats().batch_calls, 0);
    assert!(!solver.degraded());
}

#[test]
fn restore_state_rejects_non_finite_nodes() {
    let model = model_4x4();
    let solver = TransientSolver::new(&model).expect("decomposes");
    let mut nodes = model.ambient_state();
    nodes[40] = f64::NEG_INFINITY;
    let err = solver
        .restore_state(nodes, None)
        .expect_err("non-finite node temperature");
    assert!(matches!(err, ThermalError::Linalg(_)), "{err}");
}

#[test]
fn step_reference_rejects_bad_inputs_like_step() {
    let model = model_4x4();
    let solver = TransientSolver::new(&model).expect("decomposes");
    let t0 = model.ambient_state();
    let p = Vector::constant(16, 1.0);
    assert!(matches!(
        step_reference(&solver, &t0, &p, -1.0),
        Err(ThermalError::InvalidParameter { name: "dt", .. })
    ));
    assert!(matches!(
        step_reference(&solver, &t0, &Vector::constant(4, 1.0), 1e-4),
        Err(ThermalError::PowerLengthMismatch { .. })
    ));
    let mut hot = t0.clone();
    hot[0] = f64::NAN;
    assert!(step_reference(&solver, &hot, &p, 1e-4).is_err());
    // Each bad input draws the same kind of error from the library.
    let cases = [
        (&t0, &p, -1.0),
        (&t0, &Vector::constant(4, 1.0), 1e-4),
        (&hot, &p, 1e-4),
    ];
    for (nodes, power, dt) in cases {
        let reference = step_reference(&solver, nodes, power, dt).expect_err("reference");
        let library = solver.step(&model, nodes, power, dt).expect_err("library");
        assert_eq!(
            std::mem::discriminant(&reference),
            std::mem::discriminant(&library),
            "{reference} vs {library}"
        );
    }
}
