//! Fig. 4(b) — a medium-load open-system run (16-core variant for bench
//! time; the full 64-core sweep lives in the `fig4b` experiment binary).

use criterion::{criterion_group, criterion_main, Criterion};
use hotpotato::{HotPotato, HotPotatoConfig};
use hp_bench::{machine, model};
use hp_sched::PcMig;
use hp_sim::{SimConfig, Simulation};
use hp_thermal::ThermalConfig;
use hp_workload::open_poisson;

fn bench_fig4b(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig4b_16core_medium_load");
    g.sample_size(10);

    g.bench_function("hotpotato", |b| {
        b.iter(|| {
            let mut sim = Simulation::new(
                machine(4, 4),
                ThermalConfig::default(),
                SimConfig {
                    horizon: 600.0,
                    ..SimConfig::default()
                },
            )
            .expect("valid config");
            let mut s =
                HotPotato::new(model(4, 4), HotPotatoConfig::default()).expect("valid config");
            sim.run(open_poisson(10, 20.0, 7), &mut s)
                .expect("completes")
        });
    });

    g.bench_function("pcmig", |b| {
        b.iter(|| {
            let mut sim = Simulation::new(
                machine(4, 4),
                ThermalConfig::default(),
                SimConfig {
                    horizon: 600.0,
                    ..SimConfig::default()
                },
            )
            .expect("valid config");
            let mut s = PcMig::new(model(4, 4));
            sim.run(open_poisson(10, 20.0, 7), &mut s)
                .expect("completes")
        });
    });

    g.finish();
}

criterion_group!(benches, bench_fig4b);
criterion_main!(benches);
