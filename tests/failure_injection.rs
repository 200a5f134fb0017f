//! Failure injection: deliberately bad schedules must be caught by the
//! engine's validation or contained by the hardware DTM.
//!
//! Mid-run validation failures surface as [`SimError::Aborted`] wrapping
//! the specific cause and carrying the metrics accumulated up to the
//! abort — a rejected schedule must not discard the measurements that
//! led up to it.

/// Unwraps the [`SimError::Aborted`] layer, asserting partials are
/// retained, and returns the underlying cause.
fn unwrap_abort(err: SimError) -> SimError {
    match err {
        SimError::Aborted { at, cause, partial } => {
            assert!(at >= 0.0, "abort time must be a valid sim time");
            assert!(
                partial.simulated_time >= 0.0,
                "partial metrics must be populated"
            );
            *cause
        }
        other => panic!("expected Aborted wrapper, got {other}"),
    }
}

use hotpotato::{HotPotato, HotPotatoConfig};
use hp_faults::FaultPlan;
use hp_floorplan::{CoreId, GridFloorplan};
use hp_manycore::{ArchConfig, Machine};
use hp_sim::schedulers::PinnedScheduler;
use hp_sim::{
    Action, Scheduler, SimConfig, SimError, SimView, Simulation, ThreadId, TraceEventKind,
};
use hp_thermal::{RcThermalModel, ThermalConfig};
use hp_workload::{Benchmark, Job, JobId};

fn machine() -> Machine {
    Machine::new(ArchConfig {
        grid_width: 4,
        grid_height: 4,
        ..ArchConfig::default()
    })
    .expect("valid 4x4 config")
}

fn swaptions(threads: usize) -> Vec<Job> {
    vec![Job {
        id: JobId(0),
        benchmark: Benchmark::Swaptions,
        spec: Benchmark::Swaptions.spec(threads),
        arrival: 0.0,
    }]
}

/// A scheduler that stacks every thread placement onto the same core.
struct ConflictingPlacer;

impl Scheduler for ConflictingPlacer {
    fn name(&self) -> &str {
        "conflicting-placer"
    }

    fn schedule(&mut self, view: &SimView<'_>) -> Vec<Action> {
        view.pending
            .iter()
            .map(|j| Action::PlaceJob {
                job: j.job,
                cores: vec![CoreId(0); j.threads],
            })
            .collect()
    }
}

/// A scheduler that migrates a thread onto an occupied core.
struct BadMigrator {
    placed: bool,
}

impl Scheduler for BadMigrator {
    fn name(&self) -> &str {
        "bad-migrator"
    }

    fn schedule(&mut self, view: &SimView<'_>) -> Vec<Action> {
        if !self.placed {
            if let Some(j) = view.pending.first() {
                self.placed = true;
                return vec![Action::PlaceJob {
                    job: j.job,
                    cores: (0..j.threads).map(CoreId).collect(),
                }];
            }
        }
        // Migrate thread 0 onto thread 1's core (thread 1 stays put).
        if view.threads.len() >= 2 {
            return vec![Action::Migrate {
                thread: view.threads[0].id,
                to: view.threads[1].core,
            }];
        }
        Vec::new()
    }
}

/// A scheduler that migrates the first thread to two free cores in one
/// batch.
struct DoubleMigrator {
    placed: bool,
}

impl Scheduler for DoubleMigrator {
    fn name(&self) -> &str {
        "double-migrator"
    }

    fn schedule(&mut self, view: &SimView<'_>) -> Vec<Action> {
        if !self.placed {
            if let Some(j) = view.pending.first() {
                self.placed = true;
                return vec![Action::PlaceJob {
                    job: j.job,
                    cores: (0..j.threads).map(CoreId).collect(),
                }];
            }
        }
        match view.threads.first() {
            Some(t) => vec![
                Action::Migrate {
                    thread: t.id,
                    to: CoreId(14),
                },
                Action::Migrate {
                    thread: t.id,
                    to: CoreId(15),
                },
            ],
            None => Vec::new(),
        }
    }
}

/// A scheduler that references a thread that does not exist.
struct GhostMigrator;

impl Scheduler for GhostMigrator {
    fn name(&self) -> &str {
        "ghost-migrator"
    }

    fn schedule(&mut self, _view: &SimView<'_>) -> Vec<Action> {
        vec![Action::Migrate {
            thread: hp_sim::ThreadId {
                job: JobId(999),
                index: 0,
            },
            to: CoreId(0),
        }]
    }
}

#[test]
fn conflicting_placement_is_rejected() {
    let mut sim = Simulation::new(machine(), ThermalConfig::default(), SimConfig::default())
        .expect("valid sim config");
    let err = unwrap_abort(sim.run(swaptions(2), &mut ConflictingPlacer).unwrap_err());
    assert!(matches!(err, SimError::CoreConflict { .. }), "{err}");
}

#[test]
fn conflicting_migration_is_rejected() {
    let mut sim = Simulation::new(machine(), ThermalConfig::default(), SimConfig::default())
        .expect("valid sim config");
    let err = unwrap_abort(
        sim.run(swaptions(2), &mut BadMigrator { placed: false })
            .unwrap_err(),
    );
    assert!(matches!(err, SimError::CoreConflict { .. }), "{err}");
}

#[test]
fn unknown_thread_is_rejected() {
    let mut sim = Simulation::new(machine(), ThermalConfig::default(), SimConfig::default())
        .expect("valid sim config");
    let err = unwrap_abort(sim.run(swaptions(2), &mut GhostMigrator).unwrap_err());
    assert!(matches!(err, SimError::UnknownThread(_)), "{err}");
}

#[test]
fn migration_batch_naming_a_thread_twice_is_rejected() {
    let mut sim = Simulation::new(machine(), ThermalConfig::default(), SimConfig::default())
        .expect("valid sim config");
    let err = unwrap_abort(
        sim.run(swaptions(2), &mut DoubleMigrator { placed: false })
            .unwrap_err(),
    );
    let first = ThreadId {
        job: JobId(0),
        index: 0,
    };
    assert_eq!(err, SimError::DuplicateMigration(first), "{err}");
}

#[test]
fn lenient_engine_drops_a_batch_naming_a_thread_twice() {
    // Under a fault plan the batch is dropped whole, as a batch that is
    // no longer a permutation is, and the run goes on.
    let config = SimConfig {
        horizon: 120.0,
        faults: FaultPlan {
            force_active: true,
            ..FaultPlan::default()
        },
        ..SimConfig::default()
    };
    let mut sim =
        Simulation::new(machine(), ThermalConfig::default(), config).expect("valid sim config");
    let m = sim
        .run(swaptions(2), &mut DoubleMigrator { placed: false })
        .expect("completes with every batch dropped");
    assert_eq!(m.migrations, 0);
    let dropped = m.robustness.dropped_actions;
    let events = sim.trace().events();
    let batches = events
        .iter()
        .filter(|e| e.kind == TraceEventKind::ActionsDropped)
        .inspect(|e| assert!(e.detail.contains("more than once"), "{}", e.detail))
        .count();
    assert!(batches > 0, "no batch was dropped");
    assert_eq!(dropped, 2 * batches as u64, "two migrations per batch");
}

#[test]
fn dtm_contains_a_thermally_unsafe_schedule() {
    // Pin four hot threads on the centre cores with no management at all:
    // the hardware DTM must cap the excursion.
    let mut sim = Simulation::new(
        machine(),
        ThermalConfig::default(),
        SimConfig {
            horizon: 120.0,
            ..SimConfig::default()
        },
    )
    .expect("valid sim config");
    let mut pinned =
        PinnedScheduler::with_preferred_cores(vec![CoreId(5), CoreId(6), CoreId(9), CoreId(10)]);
    let m = sim
        .run(swaptions(4), &mut pinned)
        .expect("completes under DTM");
    assert!(m.dtm_intervals > 0, "DTM engaged");
    // DTM reacts within one interval: the overshoot stays bounded.
    assert!(
        m.peak_temperature < 72.0,
        "DTM bounded the peak at {:.1}",
        m.peak_temperature
    );
}

#[test]
fn hotpotato_survives_a_power_spike() {
    // A cool memory-bound job is joined mid-run by a hot compute job —
    // the scheduler must absorb the spike (rotation restart / eviction)
    // without crashing or losing jobs.
    let jobs = vec![
        Job {
            id: JobId(0),
            benchmark: Benchmark::Canneal,
            spec: Benchmark::Canneal.spec(4),
            arrival: 0.0,
        },
        Job {
            id: JobId(1),
            benchmark: Benchmark::Swaptions,
            spec: Benchmark::Swaptions.spec(4),
            arrival: 20e-3,
        },
    ];
    let model = RcThermalModel::new(
        &GridFloorplan::new(4, 4).expect("grid"),
        &ThermalConfig::default(),
    )
    .expect("valid thermal config");
    let mut sim = Simulation::new(
        machine(),
        ThermalConfig::default(),
        SimConfig {
            horizon: 120.0,
            ..SimConfig::default()
        },
    )
    .expect("valid sim config");
    let mut hp = HotPotato::new(model, HotPotatoConfig::default()).expect("valid config");
    let m = sim.run(jobs, &mut hp).expect("completes");
    assert_eq!(m.completed_jobs(), 2);
    assert!(m.peak_temperature <= 72.0, "peak {:.1}", m.peak_temperature);
}
