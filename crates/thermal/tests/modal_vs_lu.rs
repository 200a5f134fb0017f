//! Differential test of the engine's modal stepping against the retired
//! LU formulation of the transient step.
//!
//! The interval engine carries its thermal state in eigen coordinates and
//! advances it with [`TransientSolver::advance`]. The reference is the LU
//! formulation of the same step: solve `T_ss = B⁻¹(P + T_amb·G)` through
//! the LU factors of `B`, then apply `T' = T_ss + V·e^{Λdt}·V⁻¹·(T − T_ss)`.
//! It lives here as test code only. The two must agree to 1e-9 °C on
//! every node over 20 000 intervals of a power map that changes every
//! interval on the 8×8 chip.

use hp_floorplan::GridFloorplan;
use hp_linalg::eigen::SystemEigen;
use hp_linalg::Vector;
use hp_thermal::{RcThermalModel, ThermalConfig, TransientSolver};

/// Intervals in the run: 2 s of simulated time at the engine's 100 µs.
const INTERVALS: usize = 20_000;
const DT: f64 = 1e-4;

/// The retired per-interval step: one LU solve for the steady state and
/// two `N × N` products through the eigenbasis.
fn lu_step(model: &RcThermalModel, eigen: &SystemEigen, t: &Vector, p: &Vector, dt: f64) -> Vector {
    let t_ss = model.steady_state(p).expect("steady state");
    let deviation = t - &t_ss;
    let decay = Vector::from_fn(eigen.dim(), |i| (eigen.eigenvalues()[i] * dt).exp());
    &t_ss + &eigen.spectral_apply(&decay, &deviation)
}

/// Interval `k`'s power map: eight 7 W threads that hop one core every
/// 2 ms over the 64 cores, on top of an idle floor that flickers every
/// interval.
fn power_at(k: usize) -> Vector {
    Vector::from_fn(64, |c| {
        let hot = (c + k / 20).is_multiple_of(8);
        let flicker = ((c * 7 + k) % 5) as f64 * 0.05;
        if hot {
            7.0 + flicker
        } else {
            0.3 + flicker
        }
    })
}

#[test]
fn modal_stepping_tracks_the_lu_form_within_1e_9() {
    let fp = GridFloorplan::new(8, 8).expect("8x8 grid");
    let model = RcThermalModel::new(&fp, &ThermalConfig::default()).expect("model");
    let mut solver = TransientSolver::new(&model).expect("decomposes");
    let eigen = solver.eigen().clone();

    let mut state = solver
        .initial_state(&model.ambient_state())
        .expect("initial state");
    let mut lu = model.ambient_state();
    let mut worst = 0.0f64;
    let mut hottest = f64::NEG_INFINITY;
    for k in 0..INTERVALS {
        let p = power_at(k);
        solver
            .advance(&model, &mut state, &p, DT)
            .expect("modal step");
        lu = lu_step(&model, &eigen, &lu, &p, DT);
        worst = worst.max((state.nodes() - &lu).norm_inf());
        hottest = hottest.max(model.core_temperatures(&lu).max());
    }
    println!("max |modal − LU| over {INTERVALS} intervals: {worst:.3e} °C");
    assert!(state.modal().is_some(), "the eigen path stayed live");
    assert!(!solver.degraded());
    assert!(
        hottest > 60.0,
        "the power map heats the chip ({hottest:.2} °C)"
    );
    assert!(
        worst < 1e-9,
        "modal stepping drifted {worst:.3e} °C from the LU form"
    );
}

/// Runs `intervals` modal steps against the LU form on a `w × h` chip,
/// interval `k` lasting `dt_at(k)` under a rotating hot-spot map, and
/// returns the worst node difference seen.
fn worst_drift(w: usize, h: usize, intervals: usize, dt_at: impl Fn(usize) -> f64) -> f64 {
    let fp = GridFloorplan::new(w, h).expect("grid");
    let model = RcThermalModel::new(&fp, &ThermalConfig::default()).expect("model");
    let mut solver = TransientSolver::new(&model).expect("decomposes");
    let eigen = solver.eigen().clone();
    let cores = model.core_count();
    let mut state = solver
        .initial_state(&model.ambient_state())
        .expect("initial state");
    let mut lu = model.ambient_state();
    let mut worst = 0.0f64;
    for k in 0..intervals {
        let p = Vector::from_fn(cores, |c| {
            if (c + k / 10).is_multiple_of(3) {
                6.5
            } else {
                0.4
            }
        });
        let dt = dt_at(k);
        solver
            .advance(&model, &mut state, &p, dt)
            .expect("modal step");
        lu = lu_step(&model, &eigen, &lu, &p, dt);
        worst = worst.max((state.nodes() - &lu).norm_inf());
    }
    assert!(state.modal().is_some(), "the eigen path stayed live");
    worst
}

#[test]
fn modal_stepping_tracks_the_lu_form_across_step_lengths() {
    // One decay vector per distinct dt: switching step lengths every
    // interval must not let the carried coordinates drift.
    let lengths = [1e-4, 5e-4, 2e-3, 1e-5, 1e-3];
    let worst = worst_drift(4, 4, 4_000, |k| lengths[k % lengths.len()]);
    assert!(worst < 1e-9, "drifted {worst:.3e} °C from the LU form");
}

#[test]
fn modal_stepping_tracks_the_lu_form_on_a_rectangular_chip() {
    let worst = worst_drift(6, 3, 4_000, |_| DT);
    assert!(worst < 1e-9, "drifted {worst:.3e} °C from the LU form");
}
