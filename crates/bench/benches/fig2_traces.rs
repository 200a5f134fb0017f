//! Fig. 2 — the three thermal-management runs of the motivational
//! example, benched end to end (simulation throughput of the whole
//! HotSniper-substitute stack).

use criterion::{criterion_group, criterion_main, Criterion};
use hotpotato::{HotPotato, HotPotatoConfig};
use hp_bench::{machine, model};
use hp_floorplan::CoreId;
use hp_sched::TspUniform;
use hp_sim::schedulers::PinnedScheduler;
use hp_sim::{SimConfig, Simulation};
use hp_thermal::ThermalConfig;
use hp_workload::{Benchmark, Job, JobId};

fn jobs() -> Vec<Job> {
    vec![Job {
        id: JobId(0),
        benchmark: Benchmark::Blackscholes,
        spec: Benchmark::Blackscholes.spec(2),
        arrival: 0.0,
    }]
}

fn bench_fig2(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig2");
    g.sample_size(10);

    g.bench_function("a_unmanaged", |b| {
        b.iter(|| {
            let mut sim = Simulation::new(
                machine(4, 4),
                ThermalConfig::default(),
                SimConfig {
                    dtm_enabled: false,
                    ..SimConfig::default()
                },
            )
            .expect("valid config");
            let mut s = PinnedScheduler::with_preferred_cores(vec![CoreId(5), CoreId(10)]);
            sim.run(jobs(), &mut s).expect("completes")
        });
    });

    g.bench_function("b_tsp_dvfs", |b| {
        b.iter(|| {
            let mut sim = Simulation::new(
                machine(4, 4),
                ThermalConfig::default(),
                SimConfig::default(),
            )
            .expect("valid config");
            let mut s =
                TspUniform::new(model(4, 4)).with_preferred_cores(vec![CoreId(5), CoreId(10)]);
            sim.run(jobs(), &mut s).expect("completes")
        });
    });

    g.bench_function("c_rotation", |b| {
        b.iter(|| {
            let mut sim = Simulation::new(
                machine(4, 4),
                ThermalConfig::default(),
                SimConfig::default(),
            )
            .expect("valid config");
            let mut s =
                HotPotato::new(model(4, 4), HotPotatoConfig::default()).expect("valid config");
            sim.run(jobs(), &mut s).expect("completes")
        });
    });

    g.finish();
}

criterion_group!(benches, bench_fig2);
criterion_main!(benches);
