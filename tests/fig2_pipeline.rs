//! End-to-end reproduction of the Fig. 2 ordering: the unmanaged run is
//! the fastest but thermally unsafe; TSP/DVFS is safe but slowest;
//! synchronous rotation is safe and sits in between.

use hotpotato::{HotPotato, HotPotatoConfig};
use hp_floorplan::{CoreId, GridFloorplan};
use hp_manycore::{ArchConfig, Machine};
use hp_sched::TspUniform;
use hp_sim::schedulers::PinnedScheduler;
use hp_sim::{Metrics, Scheduler, SimConfig, Simulation};
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

fn model() -> RcThermalModel {
    RcThermalModel::new(
        &GridFloorplan::new(4, 4).expect("grid"),
        &ThermalConfig::default(),
    )
    .expect("valid thermal config")
}

fn jobs() -> Vec<Job> {
    vec![Job {
        id: JobId(0),
        benchmark: Benchmark::Blackscholes,
        spec: Benchmark::Blackscholes.spec(2),
        arrival: 0.0,
    }]
}

fn run(scheduler: &mut dyn Scheduler, dtm: bool) -> Metrics {
    let mut sim = Simulation::new(
        machine(),
        ThermalConfig::default(),
        SimConfig {
            dtm_enabled: dtm,
            ..SimConfig::default()
        },
    )
    .expect("valid sim config");
    sim.run(jobs(), scheduler).expect("run completes")
}

#[test]
fn fig2_ordering_and_safety() {
    let mut pinned = PinnedScheduler::with_preferred_cores(vec![CoreId(5), CoreId(10)]);
    let unmanaged = run(&mut pinned, false);

    let mut tsp = TspUniform::new(model()).with_preferred_cores(vec![CoreId(5), CoreId(10)]);
    let tsp_m = run(&mut tsp, true);

    let mut hp = HotPotato::new(model(), HotPotatoConfig::default()).expect("valid config");
    let rot = run(&mut hp, true);

    // (a) violates the threshold, (b) and (c) respect it.
    assert!(
        unmanaged.peak_temperature > 70.0,
        "unmanaged peak {:.1}",
        unmanaged.peak_temperature
    );
    assert!(
        tsp_m.peak_temperature <= 70.5,
        "tsp peak {:.1}",
        tsp_m.peak_temperature
    );
    assert!(
        rot.peak_temperature <= 70.5,
        "rotation peak {:.1}",
        rot.peak_temperature
    );

    // Response-time ordering: unmanaged < rotation < TSP (paper: 68 < 74 < 84 ms).
    assert!(
        unmanaged.makespan < rot.makespan,
        "rotation pays a penalty over unmanaged ({:.1} vs {:.1} ms)",
        rot.makespan * 1e3,
        unmanaged.makespan * 1e3
    );
    assert!(
        rot.makespan < tsp_m.makespan,
        "rotation beats DVFS ({:.1} vs {:.1} ms)",
        rot.makespan * 1e3,
        tsp_m.makespan * 1e3
    );

    // Rotation actually rotated; the others never migrated.
    assert!(rot.migrations > 20);
    assert_eq!(unmanaged.migrations, 0);
    assert_eq!(tsp_m.migrations, 0);
}

#[test]
fn fig2_magnitudes_are_in_paper_range() {
    let mut pinned = PinnedScheduler::with_preferred_cores(vec![CoreId(5), CoreId(10)]);
    let unmanaged = run(&mut pinned, false);
    let mut tsp = TspUniform::new(model()).with_preferred_cores(vec![CoreId(5), CoreId(10)]);
    let tsp_m = run(&mut tsp, true);
    let mut hp = HotPotato::new(model(), HotPotatoConfig::default()).expect("valid config");
    let rot = run(&mut hp, true);

    // Paper: rotation pays 8.1% over unmanaged and gains 11.9% over DVFS.
    // Accept a generous band around those: the substrate differs.
    let penalty = rot.makespan / unmanaged.makespan - 1.0;
    let gain = tsp_m.makespan / rot.makespan - 1.0;
    assert!(penalty > 0.0 && penalty < 0.20, "penalty {penalty:.3}");
    assert!(gain > 0.03 && gain < 0.40, "gain {gain:.3}");

    // Unmanaged overshoot is around the paper's ~80 C.
    assert!(
        unmanaged.peak_temperature > 74.0 && unmanaged.peak_temperature < 88.0,
        "unmanaged peak {:.1}",
        unmanaged.peak_temperature
    );
}
