//! A bursty multi-tenant scenario: jobs of mixed benchmarks arrive as a
//! Poisson stream on the 64-core chip, and we compare the two run-time
//! managers head to head — HotPotato (rotation, peak frequency) vs PCMig
//! (DVFS + on-demand migration).
//!
//! ```sh
//! cargo run --release --example datacenter_burst
//! ```

use hotpotato::{HotPotato, HotPotatoConfig};
use hp_manycore::{ArchConfig, Machine};
use hp_sched::PcMig;
use hp_sim::{SimConfig, Simulation};
use hp_thermal::ThermalConfig;
use hp_workload::open_poisson;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let rate = 40.0; // arrivals per second: a moderately loaded system
    let jobs = open_poisson(15, rate, 2024);
    println!(
        "{} jobs arriving at {:.0}/s (first at {:.1} ms, last at {:.1} ms)\n",
        jobs.len(),
        rate,
        jobs.first().expect("non-empty").arrival * 1e3,
        jobs.last().expect("non-empty").arrival * 1e3
    );

    let sim_config = SimConfig {
        horizon: 300.0,
        ..SimConfig::default()
    };

    for which in ["hotpotato", "pcmig"] {
        let machine = Machine::new(ArchConfig::default())?;
        let mut sim = Simulation::new(machine, ThermalConfig::default(), sim_config)?;
        // The scheduler shares the simulation's model and its basis.
        let model = sim.thermal().clone();
        let metrics = match which {
            "hotpotato" => {
                let mut s = HotPotato::new(model, HotPotatoConfig::default())?;
                sim.run(jobs.clone(), &mut s)?
            }
            _ => {
                let mut s = PcMig::new(model);
                sim.run(jobs.clone(), &mut s)?
            }
        };
        let mean = metrics.mean_response_time().expect("all jobs complete");
        println!("== {which} ==");
        println!(
            "  mean response {:.1} ms | makespan {:.1} ms | peak {:.1} C | {} migrations | {:.1} J",
            mean * 1e3,
            metrics.makespan * 1e3,
            metrics.peak_temperature,
            metrics.migrations,
            metrics.energy
        );
        // Worst three jobs by response time.
        let mut by_resp: Vec<_> = metrics
            .jobs
            .iter()
            .filter_map(|j| j.response_time().map(|r| (r, j)))
            .collect();
        by_resp.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite"));
        for (resp, j) in by_resp.iter().take(3) {
            println!(
                "  slowest: {} x{} -> {:.1} ms",
                j.benchmark,
                j.threads,
                resp * 1e3
            );
        }
        println!();
    }
    Ok(())
}
