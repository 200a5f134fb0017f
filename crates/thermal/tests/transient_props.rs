//! Property tests for the transient solver over *random* RC
//! models — the composability guarantees the interval simulator relies
//! on, promoted from the fixed-model unit tests in `src/transient.rs`
//! into proptest form.

mod support;

use hp_floorplan::GridFloorplan;
use hp_linalg::{Matrix, Vector};
use hp_thermal::{RcThermalModel, ThermalConfig, TransientSolver};
use proptest::prelude::*;
use support::{step_reference, CarriedReference};

/// A random-but-physical RC model: random grid dimensions and random
/// scale factors on the capacitances/conductances that shape the
/// eigenspectrum (sink mass, vertical path, ambient convection).
fn models() -> impl Strategy<Value = RcThermalModel> {
    (
        2usize..=4,
        2usize..=4,
        0.02..6.0f64,  // sink capacitance scale (slowest eigenmode)
        0.5..2.0f64,   // vertical conductance scale
        0.25..3.0f64,  // sink-to-ambient convection scale
        30.0..60.0f64, // ambient, °C
    )
        .prop_map(|(w, h, sink, vertical, conv, ambient)| {
            let d = ThermalConfig::default();
            let cfg = ThermalConfig {
                ambient,
                c_sink: d.c_sink * sink,
                g_junction_spreader: d.g_junction_spreader * vertical,
                g_spreader_sink: d.g_spreader_sink * vertical,
                g_sink_ambient: d.g_sink_ambient * conv,
                ..d
            };
            RcThermalModel::new(&GridFloorplan::new(w, h).expect("grid"), &cfg).expect("model")
        })
}

/// A power pool large enough for the biggest generated chip; each test
/// slices the first `core_count` entries.
fn power_pool() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.0..8.0f64, 16)
}

fn power_for(model: &RcThermalModel, pool: &[f64]) -> Vector {
    Vector::from_fn(model.core_count(), |c| pool[c])
}

#[test]
fn step_matches_serial_reference_bit_for_bit() {
    // Chained steps at varying dt on the default 4×4 chip.
    let fp = GridFloorplan::new(4, 4).unwrap();
    let model = RcThermalModel::new(&fp, &ThermalConfig::default()).unwrap();
    let solver = TransientSolver::new(&model).unwrap();
    let mut p = Vector::constant(16, 0.3);
    p[5] = 7.0;
    let mut t = model.ambient_state();
    let mut t_ref = model.ambient_state();
    for k in 0..10 {
        let dt = 1e-4 * f64::from(1 + k % 3);
        t = solver.step(&model, &t, &p, dt).unwrap();
        t_ref = step_reference(&solver, &t_ref, &p, dt).unwrap();
        for i in 0..model.node_count() {
            assert_eq!(
                t[i].to_bits(),
                t_ref[i].to_bits(),
                "step {k} node {i}: {} vs {}",
                t[i],
                t_ref[i]
            );
        }
    }
}

/// SplitMix64: a deterministic stream of power maps.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The carried-state contract: 600 intervals of 100 µs from ambient,
/// with a fresh power map every two to seven intervals, through
/// `advance` and through the reference that reads out every node every
/// interval. The junctions agree bit for bit every interval, and every
/// node and eigen coordinate every 50 intervals, whether the interval
/// was certified (junctions only, `T` read out on demand) or not.
fn advance_matches_the_full_readout_reference(model: &RcThermalModel, seed: u64) {
    let mut solver = TransientSolver::new(model).unwrap();
    let t0 = model.ambient_state();
    let mut state = solver.initial_state(&t0).unwrap();
    let mut reference = CarriedReference::new(&solver, &t0);
    let cores = model.core_count();
    let mut stream = Stream(seed);
    let mut power = Vector::zeros(cores);
    let mut next_change = 0;
    for k in 0..600 {
        if k == next_change {
            power = Vector::from_fn(cores, |_| stream.uniform(0.3, 7.5));
            next_change += 2 + (stream.next() % 6) as usize;
        }
        solver.advance(model, &mut state, &power, 1e-4).unwrap();
        reference.advance(&solver, &power, 1e-4);
        for c in 0..cores {
            assert_eq!(
                state.junctions()[c].to_bits(),
                reference.nodes[c].to_bits(),
                "interval {k} junction {c}"
            );
        }
        if k % 50 == 49 {
            let z = state.modal().expect("the eigen path stayed live");
            for i in 0..model.node_count() {
                assert_eq!(
                    z[i].to_bits(),
                    reference.modal[i].to_bits(),
                    "interval {k} mode {i}"
                );
                assert_eq!(
                    state.nodes()[i].to_bits(),
                    reference.nodes[i].to_bits(),
                    "interval {k} node {i}"
                );
            }
        }
    }
    assert!(!solver.degraded());
}

#[test]
fn advance_matches_the_full_readout_reference_on_4x4() {
    let fp = GridFloorplan::new(4, 4).unwrap();
    let model = RcThermalModel::new(&fp, &ThermalConfig::default()).unwrap();
    advance_matches_the_full_readout_reference(&model, 1);
}

#[test]
fn advance_matches_the_full_readout_reference_in_the_slow_sink_regime() {
    // Slow-sink eigenmodes have decay factors within ulps of 1.
    let cfg = ThermalConfig {
        c_sink: 40000.0,
        g_sink_ambient: 0.02,
        ..ThermalConfig::default()
    };
    let model = RcThermalModel::new(&GridFloorplan::new(3, 3).unwrap(), &cfg).unwrap();
    advance_matches_the_full_readout_reference(&model, 2);
}

#[test]
fn advance_matches_the_full_readout_reference_on_8x8() {
    // 64 junction columns reach the tiled SIMD body of the `V_Jᵀ`
    // readout, which 16 columns never do.
    let fp = GridFloorplan::new(8, 8).unwrap();
    let model = RcThermalModel::new(&fp, &ThermalConfig::default()).unwrap();
    advance_matches_the_full_readout_reference(&model, 3);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn zero_dt_is_identity(model in models(), pool in power_pool()) {
        let solver = TransientSolver::new(&model).unwrap();
        let p = power_for(&model, &pool);
        let t0 = model.steady_state(&p).unwrap();
        let t1 = solver.step(&model, &t0, &Vector::zeros(model.core_count()), 0.0).unwrap();
        prop_assert!((&t1 - &t0).norm_inf() < 1e-9);
    }

    #[test]
    fn two_half_steps_equal_one_full_step(
        model in models(),
        pool in power_pool(),
        dt in 1e-5..5e-3f64,
    ) {
        let solver = TransientSolver::new(&model).unwrap();
        let p = power_for(&model, &pool);
        let t0 = model.ambient_state();
        let full = solver.step(&model, &t0, &p, dt).unwrap();
        let half = solver.step(&model, &t0, &p, dt / 2.0).unwrap();
        let two = solver.step(&model, &half, &p, dt / 2.0).unwrap();
        prop_assert!(
            (&full - &two).norm_inf() < 1e-9,
            "composability violated by {}",
            (&full - &two).norm_inf()
        );
    }

    #[test]
    fn step_composes_across_unequal_splits(
        model in models(),
        pool in power_pool(),
        dt in 1e-5..5e-3f64,
        frac in 0.05..0.95f64,
    ) {
        // Not just halves: any split point must compose exactly.
        let solver = TransientSolver::new(&model).unwrap();
        let p = power_for(&model, &pool);
        let t0 = model.ambient_state();
        let full = solver.step(&model, &t0, &p, dt).unwrap();
        let first = solver.step(&model, &t0, &p, dt * frac).unwrap();
        let second = solver.step(&model, &first, &p, dt - dt * frac).unwrap();
        prop_assert!((&full - &second).norm_inf() < 1e-8);
    }

    #[test]
    fn long_step_reaches_steady_state(model in models(), pool in power_pool()) {
        // The steady-state limit: after many slowest-time-constant
        // multiples the state is T_steady regardless of where it started.
        let solver = TransientSolver::new(&model).unwrap();
        let p = power_for(&model, &pool);
        let slowest = solver
            .eigen()
            .eigenvalues()
            .iter()
            .fold(f64::NEG_INFINITY, |m, &l| m.max(l)); // closest to zero
        let horizon = 40.0 / slowest.abs();
        let t_inf = solver.step(&model, &model.ambient_state(), &p, horizon).unwrap();
        let t_ss = model.steady_state(&p).unwrap();
        prop_assert!(
            (&t_inf - &t_ss).norm_inf() < 1e-6,
            "residual {}",
            (&t_inf - &t_ss).norm_inf()
        );
    }

    #[test]
    fn batched_step_bit_identical_to_serial_reference(
        model in models(),
        pool in power_pool(),
        dt in 1e-5..5e-3f64,
    ) {
        // The differential contract on random models: the GEMM-row step
        // must reproduce the serial mat-vec form bit for bit.
        let solver = TransientSolver::new(&model).unwrap();
        let p = power_for(&model, &pool);
        let mut hot = Vector::zeros(model.core_count());
        if model.core_count() > 0 { hot[0] = 7.0; }
        let t0 = solver.step(&model, &model.ambient_state(), &hot, 1.0).unwrap();
        let fast = solver.step(&model, &t0, &p, dt).unwrap();
        let reference = step_reference(&solver, &t0, &p, dt).unwrap();
        for i in 0..model.node_count() {
            prop_assert_eq!(
                fast[i].to_bits(),
                reference[i].to_bits(),
                "node {}: {} vs {}",
                i,
                fast[i],
                reference[i]
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn first_advance_is_bit_identical_to_step(
        model in models(),
        pool in power_pool(),
        dt in 1e-5..5e-3f64,
    ) {
        // `initial_state` projects through the same GEMM as `step`, so
        // the engine's first interval reproduces `step`.
        let mut solver = TransientSolver::new(&model).unwrap();
        let p = power_for(&model, &pool);
        let t0 = solver.step(&model, &model.ambient_state(), &p, 0.05).unwrap();
        let stepped = solver.step(&model, &t0, &p, dt).unwrap();
        let mut state = solver.initial_state(&t0).unwrap();
        solver.advance(&model, &mut state, &p, dt).unwrap();
        for i in 0..model.node_count() {
            prop_assert_eq!(state.nodes()[i].to_bits(), stepped[i].to_bits(), "node {}", i);
        }
    }

    #[test]
    fn advance_chain_tracks_step_chain(
        model in models(),
        pool in power_pool(),
        dt in 1e-5..2e-3f64,
    ) {
        // Carrying z instead of re-projecting every interval changes only
        // round-off, never the trajectory.
        let mut solver = TransientSolver::new(&model).unwrap();
        let mut state = solver.initial_state(&model.ambient_state()).unwrap();
        let mut t = model.ambient_state();
        for k in 0..40 {
            let p = Vector::from_fn(model.core_count(), |c| pool[(c + k) % pool.len()]);
            t = solver.step(&model, &t, &p, dt).unwrap();
            solver.advance(&model, &mut state, &p, dt).unwrap();
        }
        let drift = (state.nodes() - &t).norm_inf();
        prop_assert!(drift < 1e-9, "advance drifted {} from step", drift);
    }

    #[test]
    fn restored_state_resumes_bit_identically(
        model in models(),
        pool in power_pool(),
        split in 1usize..20,
    ) {
        let mut solver = TransientSolver::new(&model).unwrap();
        let p = power_for(&model, &pool);
        let mut live = solver.initial_state(&model.ambient_state()).unwrap();
        for _ in 0..split {
            solver.advance(&model, &mut live, &p, 1e-4).unwrap();
        }
        let mut resumed = solver
            .restore_state(live.nodes().clone(), live.modal().cloned())
            .unwrap();
        for _ in split..20 {
            solver.advance(&model, &mut live, &p, 1e-4).unwrap();
            solver.advance(&model, &mut resumed, &p, 1e-4).unwrap();
        }
        prop_assert_eq!(live, resumed);
    }

    #[test]
    fn modal_steady_state_matches_the_lu_solve(model in models(), pool in power_pool()) {
        // projᵀ folds the linear solve B⁻¹P into the basis; reading its
        // output back through V must land on the LU steady state.
        let solver = TransientSolver::new(&model).unwrap();
        let basis = solver.basis();
        let p = power_for(&model, &pool);
        let row = Matrix::from_fn(1, model.core_count(), |_, j| p[j]);
        let t = basis.steady_modal(&row).unwrap().mul_matrix(basis.v_t()).unwrap();
        let t_ss = model.steady_state(&p).unwrap();
        for i in 0..model.node_count() {
            prop_assert!(
                (t[(0, i)] - t_ss[i]).abs() < 1e-8,
                "node {}: {} vs {}",
                i,
                t[(0, i)],
                t_ss[i]
            );
        }
    }

    #[test]
    fn initial_state_reads_back_through_the_basis(
        model in models(),
        pool in power_pool(),
        warmup in 1e-3..1.0f64,
    ) {
        // z = V⁻¹·T and V·z = T: the carried coordinates describe the
        // node state they were projected from.
        let solver = TransientSolver::new(&model).unwrap();
        let p = power_for(&model, &pool);
        let t0 = solver.step(&model, &model.ambient_state(), &p, warmup).unwrap();
        let state = solver.initial_state(&t0).unwrap();
        let z = state.modal().expect("a healthy solver carries z");
        let back = solver.eigen().v().mul_vector(z);
        prop_assert!((&back - &t0).norm_inf() < 1e-9, "read-back error {}", (&back - &t0).norm_inf());
    }
}
