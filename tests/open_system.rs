//! Open-system integration: Poisson arrivals on the 16-core chip under
//! both run-time managers, across load levels.

use hotpotato::{HotPotato, HotPotatoConfig};
use hp_floorplan::GridFloorplan;
use hp_manycore::{ArchConfig, Machine};
use hp_sched::PcMig;
use hp_sim::{Metrics, Scheduler, SimConfig, Simulation};
use hp_thermal::{RcThermalModel, ThermalConfig};
use hp_workload::open_poisson;

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

fn run(scheduler: &mut dyn Scheduler, rate: f64, seed: u64) -> Metrics {
    let mut sim = Simulation::new(
        machine(),
        ThermalConfig::default(),
        SimConfig {
            horizon: 600.0,
            ..SimConfig::default()
        },
    )
    .expect("valid sim config");
    sim.run(open_poisson(8, rate, seed), scheduler)
        .expect("run completes")
}

#[test]
fn both_schedulers_complete_across_loads() {
    for rate in [5.0, 50.0, 200.0] {
        let mut hp = HotPotato::new(model(), HotPotatoConfig::default()).expect("valid config");
        let hp_m = run(&mut hp, rate, 3);
        assert_eq!(hp_m.completed_jobs(), 8, "hotpotato at rate {rate}");

        let mut pm = PcMig::new(model());
        let pm_m = run(&mut pm, rate, 3);
        assert_eq!(pm_m.completed_jobs(), 8, "pcmig at rate {rate}");
    }
}

#[test]
fn response_times_grow_with_load() {
    // Queueing sanity: pushing arrivals closer together cannot make the
    // mean response time better (same job set, same scheduler).
    let mut hp_lo = HotPotato::new(model(), HotPotatoConfig::default()).expect("valid config");
    let lo = run(&mut hp_lo, 2.0, 9);
    let mut hp_hi = HotPotato::new(model(), HotPotatoConfig::default()).expect("valid config");
    let hi = run(&mut hp_hi, 500.0, 9);
    let lo_mean = lo.mean_response_time().expect("completed");
    let hi_mean = hi.mean_response_time().expect("completed");
    assert!(
        hi_mean >= lo_mean,
        "mean response at heavy load {:.1} ms < light load {:.1} ms",
        hi_mean * 1e3,
        lo_mean * 1e3
    );
}

#[test]
fn arrivals_are_respected() {
    // No job may start (and hence finish) before it arrived.
    let mut hp = HotPotato::new(model(), HotPotatoConfig::default()).expect("valid config");
    let m = run(&mut hp, 50.0, 21);
    for j in &m.jobs {
        assert!(j.started + 1e-9 >= j.arrival, "{j:?}");
        if let Some(done) = j.completed {
            assert!(done > j.arrival);
        }
    }
}

#[test]
fn deterministic_given_seed() {
    let mut a = HotPotato::new(model(), HotPotatoConfig::default()).expect("valid config");
    let ma = run(&mut a, 50.0, 4);
    let mut b = HotPotato::new(model(), HotPotatoConfig::default()).expect("valid config");
    let mb = run(&mut b, 50.0, 4);
    assert_eq!(ma.makespan, mb.makespan);
    assert_eq!(ma.migrations, mb.migrations);
    assert_eq!(ma.energy, mb.energy);
}
