//! Cross-scheduler contracts on a mixed closed batch: every scheduler must
//! complete the workload, conserve instructions, and respect its own
//! migration discipline.

use hotpotato::{HotPotato, HotPotatoConfig};
use hp_floorplan::GridFloorplan;
use hp_manycore::{ArchConfig, Machine};
use hp_sched::{PcGov, PcMig, TspUniform};
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

/// A mixed batch: hot, cool and phase-heavy jobs, 14 of 16 cores.
fn mixed_jobs() -> Vec<Job> {
    let specs = [
        (Benchmark::Swaptions, 4),
        (Benchmark::Canneal, 4),
        (Benchmark::Blackscholes, 4),
        (Benchmark::Streamcluster, 2),
    ];
    specs
        .iter()
        .enumerate()
        .map(|(i, &(b, threads))| Job {
            id: JobId(i),
            benchmark: b,
            spec: b.spec(threads),
            arrival: 0.0,
        })
        .collect()
}

fn run(scheduler: &mut dyn Scheduler) -> Metrics {
    let mut sim = Simulation::new(
        machine(),
        ThermalConfig::default(),
        SimConfig {
            horizon: 60.0,
            ..SimConfig::default()
        },
    )
    .expect("valid sim config");
    sim.run(mixed_jobs(), scheduler).expect("run completes")
}

fn check_common(m: &Metrics) {
    assert_eq!(m.completed_jobs(), 4, "{}: all jobs complete", m.scheduler);
    let expected: u64 = mixed_jobs()
        .iter()
        .map(|j| j.spec.total_instructions())
        .sum();
    let retired: u64 = m.jobs.iter().map(|j| j.instructions).sum();
    assert_eq!(retired, expected, "{}: instructions conserved", m.scheduler);
    assert!(m.makespan > 0.0 && m.energy > 0.0);
    assert!(m.peak_temperature > 45.0);
}

#[test]
fn hotpotato_contract() {
    let mut s = HotPotato::new(model(), HotPotatoConfig::default()).expect("valid config");
    let m = run(&mut s);
    check_common(&m);
    // HotPotato must stay at peak frequency: it may trip DTM briefly but
    // should keep violations rare.
    assert!(m.peak_temperature <= 72.0, "peak {:.1}", m.peak_temperature);
}

#[test]
fn pcmig_contract() {
    let mut s = PcMig::new(model());
    let m = run(&mut s);
    check_common(&m);
    assert!(m.peak_temperature <= 71.0, "peak {:.1}", m.peak_temperature);
}

#[test]
fn pcgov_contract_no_migrations() {
    let mut s = PcGov::new(model());
    let m = run(&mut s);
    check_common(&m);
    assert_eq!(m.migrations, 0, "PCGov never migrates");
}

#[test]
fn tsp_uniform_contract() {
    let mut s = TspUniform::new(model());
    let m = run(&mut s);
    check_common(&m);
    assert_eq!(m.migrations, 0);
}

#[test]
fn pinned_baseline_contract() {
    let mut s = PinnedScheduler::new();
    let m = run(&mut s);
    check_common(&m);
}

#[test]
fn migrating_schedulers_are_deterministic() {
    // The golden-trace fixture and every cross-scheduler comparison in
    // this file assume identical inputs give identical runs. Guard that
    // for the two schedulers that actually move threads: two fresh
    // back-to-back runs must produce *exactly* equal metrics — same
    // makespan and energy to the bit, same migration decisions. Only the
    // wall-clock histograms in the observability report are exempt from
    // the contract (DESIGN.md §10), so they are stripped before comparing.
    let strip_timings = |mut m: Metrics| -> Metrics {
        m.observability = m.observability.without_timings();
        m
    };
    let run_hp = || {
        let mut s = HotPotato::new(model(), HotPotatoConfig::default()).expect("valid config");
        strip_timings(run(&mut s))
    };
    let a = run_hp();
    let b = run_hp();
    assert_eq!(a, b, "HotPotato run diverged on identical input");

    let run_pm = || {
        let mut s = PcMig::new(model());
        strip_timings(run(&mut s))
    };
    let a = run_pm();
    let b = run_pm();
    assert_eq!(a, b, "PCMig run diverged on identical input");
}

#[test]
fn hotpotato_beats_pcmig_where_it_should() {
    let mut hp = HotPotato::new(model(), HotPotatoConfig::default()).expect("valid config");
    let hp_m = run(&mut hp);
    let mut pm = PcMig::new(model());
    let pm_m = run(&mut pm);

    // The headline claim holds per benchmark class: rotation at peak
    // frequency beats DVFS management on the *compute-bound* jobs (which
    // DVFS must throttle), while memory-bound jobs are a wash (they
    // neither heat the chip nor benefit from frequency).
    let resp = |m: &Metrics, name: &str| -> f64 {
        m.jobs
            .iter()
            .find(|j| j.benchmark == name)
            .and_then(|j| j.response_time())
            .expect("job completed")
    };
    for hot in ["swaptions", "blackscholes"] {
        assert!(
            resp(&hp_m, hot) < resp(&pm_m, hot),
            "{hot}: hotpotato {:.1} ms vs pcmig {:.1} ms",
            resp(&hp_m, hot) * 1e3,
            resp(&pm_m, hot) * 1e3
        );
    }
    // Overall mean response time must not regress.
    let hp_mean = hp_m.mean_response_time().expect("jobs completed");
    let pm_mean = pm_m.mean_response_time().expect("jobs completed");
    assert!(
        hp_mean < pm_mean * 1.02,
        "mean response: hotpotato {:.1} ms vs pcmig {:.1} ms",
        hp_mean * 1e3,
        pm_mean * 1e3
    );
}
