//! Negative tests: the transient solver and the RC model must reject
//! malformed inputs with typed errors instead of panicking. Pins the
//! behavioural half of the `cargo xtask check` no-panic contract for
//! hp-thermal.

use hp_floorplan::GridFloorplan;
use hp_linalg::Vector;
use hp_thermal::{RcThermalModel, ThermalConfig, ThermalError, TransientSolver};

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
fn step_many_rejects_one_bad_pair_among_good() {
    let model = model_4x4();
    let solver = TransientSolver::new(&model).expect("decomposes");
    let t0 = model.ambient_state();
    let good = Vector::constant(16, 1.0);
    let bad = Vector::constant(3, 1.0);
    let pairs = [(&t0, &good), (&t0, &bad)];
    assert!(solver.step_many(&model, &pairs, 1e-4).is_err());
    // The empty batch, by contrast, is a valid no-op.
    assert_eq!(solver.step_many(&model, &[], 1e-4).expect("ok").len(), 0);
}

#[test]
fn trajectory_rejects_bad_inputs_like_step() {
    let model = model_4x4();
    let solver = TransientSolver::new(&model).expect("decomposes");
    let t0 = model.ambient_state();
    let p = Vector::constant(16, 1.0);
    assert!(solver.trajectory(&model, &t0, &p, f64::NAN, 4).is_err());
    assert!(solver
        .trajectory(&model, &t0, &Vector::constant(2, 1.0), 1e-4, 4)
        .is_err());
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
        (good.clone(), -1e-4),
        (good.clone(), f64::NAN),
        (good, f64::INFINITY),
        (Vector::constant(9, 1.0), 1e-4),
        (nan_power, 1e-4),
    ];
    for (power, dt) in &cases {
        assert!(
            solver.advance(&model, &mut state, power, *dt).is_err(),
            "power of {} cores, dt {dt}",
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
        solver.step_reference(&model, &t0, &p, -1.0),
        Err(ThermalError::InvalidParameter { name: "dt", .. })
    ));
    assert!(matches!(
        solver.step_reference(&model, &t0, &Vector::constant(4, 1.0), 1e-4),
        Err(ThermalError::PowerLengthMismatch { .. })
    ));
    let mut hot = t0;
    hot[0] = f64::NAN;
    assert!(solver.step_reference(&model, &hot, &p, 1e-4).is_err());
}
