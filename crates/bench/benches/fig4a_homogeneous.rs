//! Fig. 4(a) — homogeneous batch, HotPotato vs PCMig.
//!
//! The bench uses the 16-core chip (a full 64-core sweep lives in the
//! `fig4a` experiment binary; this keeps `cargo bench` runtimes sane while
//! still exercising the exact code paths).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hotpotato::{HotPotato, HotPotatoConfig};
use hp_bench::{machine, model};
use hp_sched::PcMig;
use hp_sim::{SimConfig, Simulation};
use hp_thermal::ThermalConfig;
use hp_workload::{closed_batch, Benchmark};

fn bench_fig4a(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig4a_16core");
    g.sample_size(10);
    for benchmark in [Benchmark::Blackscholes, Benchmark::Canneal] {
        g.bench_with_input(
            BenchmarkId::new("hotpotato", benchmark.name()),
            &benchmark,
            |b, &bm| {
                b.iter(|| {
                    let mut sim = Simulation::new(
                        machine(4, 4),
                        ThermalConfig::default(),
                        SimConfig {
                            horizon: 120.0,
                            ..SimConfig::default()
                        },
                    )
                    .expect("valid config");
                    let mut s = HotPotato::new(model(4, 4), HotPotatoConfig::default())
                        .expect("valid config");
                    sim.run(closed_batch(bm, 16, 42), &mut s)
                        .expect("completes")
                });
            },
        );
        g.bench_with_input(
            BenchmarkId::new("pcmig", benchmark.name()),
            &benchmark,
            |b, &bm| {
                b.iter(|| {
                    let mut sim = Simulation::new(
                        machine(4, 4),
                        ThermalConfig::default(),
                        SimConfig {
                            horizon: 120.0,
                            ..SimConfig::default()
                        },
                    )
                    .expect("valid config");
                    let mut s = PcMig::new(model(4, 4));
                    sim.run(closed_batch(bm, 16, 42), &mut s)
                        .expect("completes")
                });
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_fig4a);
criterion_main!(benches);
