//! `Simulation::with_thermal`, the cache-handle constructor: it takes a
//! prebuilt RC model and transient solver instead of deriving them, so
//! it must reject handles of another chip or a solver on another model's
//! basis and, given the right ones, run exactly like `Simulation::new`.

use hp_floorplan::GridFloorplan;
use hp_manycore::{ArchConfig, Machine};
use hp_sim::{schedulers::PinnedScheduler, Metrics, SimConfig, SimError, Simulation};
use hp_thermal::{RcThermalModel, ThermalConfig, TransientSolver};
use hp_workload::{closed_batch, Benchmark};

fn machine(side: usize) -> Machine {
    Machine::new(ArchConfig {
        grid_width: side,
        grid_height: side,
        ..ArchConfig::default()
    })
    .expect("valid grid")
}

fn model(side: usize) -> RcThermalModel {
    let fp = GridFloorplan::new(side, side).expect("grid");
    RcThermalModel::new(&fp, &ThermalConfig::default()).expect("valid thermal config")
}

fn config() -> SimConfig {
    SimConfig {
        record_trace: true,
        ..SimConfig::default()
    }
}

/// Metrics with wall-clock observability stripped.
fn normalized(m: &Metrics) -> Metrics {
    let mut m = m.clone();
    m.observability = m.observability.without_timings();
    m
}

#[test]
fn with_thermal_rejects_a_solver_of_another_chip() {
    let small = TransientSolver::new(&model(2)).expect("decomposes");
    match Simulation::with_thermal(machine(4), model(4), small, config()) {
        Err(SimError::InvalidParameter { name, value }) => {
            assert_eq!(name, "transient solver node count");
            assert_eq!(value, 12.0);
        }
        other => panic!("expected InvalidParameter, got {other:?}"),
    }
}

#[test]
fn with_thermal_rejects_a_solver_on_another_models_basis() {
    // Same grid, so the node counts agree; another sink conductance, so
    // the bases do not.
    let fp = GridFloorplan::new(4, 4).expect("grid");
    let leaky = ThermalConfig {
        g_sink_ambient: 2.0 * ThermalConfig::default().g_sink_ambient,
        ..ThermalConfig::default()
    };
    let other = RcThermalModel::new(&fp, &leaky).expect("valid thermal config");
    let solver = TransientSolver::new(&other).expect("decomposes");
    match Simulation::with_thermal(machine(4), model(4), solver, config()) {
        Err(SimError::InvalidParameter { name, value }) => {
            assert_eq!(name, "transient solver basis");
            assert!(value.is_nan());
        }
        other => panic!("expected InvalidParameter, got {other:?}"),
    }
}

#[test]
fn with_thermal_rejects_a_model_of_another_core_count() {
    let big = model(4);
    let solver = TransientSolver::new(&big).expect("decomposes");
    match Simulation::with_thermal(machine(2), big, solver, config()) {
        Err(SimError::InvalidParameter { name, value }) => {
            assert_eq!(name, "thermal model core count");
            assert_eq!(value, 16.0);
        }
        other => panic!("expected InvalidParameter, got {other:?}"),
    }
}

#[test]
fn shared_handles_run_bit_identically_to_new() {
    let work = || closed_batch(Benchmark::Swaptions, 6, 11);
    let mut fresh =
        Simulation::new(machine(4), ThermalConfig::default(), config()).expect("valid sim");
    let direct = fresh
        .run(work(), &mut PinnedScheduler::new())
        .expect("run completes");
    let intervals = direct
        .observability
        .counter("engine.intervals")
        .unwrap_or(0);
    assert!(
        intervals > 100,
        "a run worth comparing ({intervals} intervals)"
    );

    // The handles a sweep cache hands out: one model and solver, cloned
    // for every job that runs on them (the solver clone shares its modal
    // basis). Each job must reproduce the fresh run exactly.
    let shared_model = model(4);
    let shared_solver = TransientSolver::new(&shared_model).expect("decomposes");
    for job in 0..2 {
        let mut cached = Simulation::with_thermal(
            machine(4),
            shared_model.clone(),
            shared_solver.clone(),
            config(),
        )
        .expect("matching handles");
        let via_handles = cached
            .run(work(), &mut PinnedScheduler::new())
            .expect("run completes");
        assert_eq!(normalized(&via_handles), normalized(&direct), "job {job}");
        assert_eq!(cached.trace(), fresh.trace(), "job {job}");
    }
    // Each engine stepped its own clone; the shared handle is untouched.
    assert_eq!(shared_solver.runtime().stats().batch_calls, 0);
}
