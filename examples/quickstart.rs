//! Quickstart: build the paper's 64-core S-NUCA chip, ask the analytical
//! solver whether a rotation is thermally safe, and run a small workload
//! under the HotPotato scheduler.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use hotpotato::{EpochPowerSequence, HotPotato, HotPotatoConfig, RotationPeakSolver};
use hp_linalg::Vector;
use hp_manycore::{ArchConfig, Machine};
use hp_sim::{SimConfig, Simulation};
use hp_thermal::ThermalConfig;
use hp_workload::{Benchmark, Job, JobId};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The machine: Table-I defaults (8x8 grid, 4 GHz, S-NUCA LLC).
    let machine = Machine::new(ArchConfig::default())?;
    println!(
        "machine: {} cores, {} AMD rings",
        machine.core_count(),
        machine.rings().len()
    );

    // 2. The simulation builds the chip's thermal model; the rotation
    //    analytics (Algorithm 1) and the scheduler share it, so the chip
    //    is decomposed once.
    let mut sim = Simulation::new(machine, ThermalConfig::default(), SimConfig::default())?;
    let solver = RotationPeakSolver::new(sim.thermal().clone())?;

    // Is it safe to rotate two 7 W threads (sitting opposite each other)
    // around the innermost ring at tau = 0.5 ms? Build the per-epoch power
    // maps of one rotation period and ask.
    let machine = sim.machine();
    let ring = machine.rings().ring(0);
    let delta = ring.capacity();
    let epochs: Vec<Vector> = (0..delta)
        .map(|e| {
            let mut p = Vector::constant(machine.core_count(), 0.3);
            p[ring.cores()[e % delta].index()] = 7.0;
            p[ring.cores()[(e + delta / 2) % delta].index()] = 7.0;
            p
        })
        .collect();
    let seq = EpochPowerSequence::new(0.5e-3, epochs)?;
    let report = solver.peak(&seq)?;
    println!(
        "rotating 2x7 W on ring 0 at 0.5 ms: steady-cycle peak {:.1} C (critical {} @ epoch {})",
        report.peak_celsius, report.critical_core, report.critical_epoch
    );

    // 3. Run a small mixed workload under HotPotato.
    let jobs = vec![
        Job {
            id: JobId(0),
            benchmark: Benchmark::Blackscholes,
            spec: Benchmark::Blackscholes.spec(4),
            arrival: 0.0,
        },
        Job {
            id: JobId(1),
            benchmark: Benchmark::Canneal,
            spec: Benchmark::Canneal.spec(4),
            arrival: 0.0,
        },
    ];
    let mut scheduler = HotPotato::new(sim.thermal().clone(), HotPotatoConfig::default())?;
    let metrics = sim.run(jobs, &mut scheduler)?;
    for job in &metrics.jobs {
        println!(
            "{} ({} threads): response {:.1} ms, {} migrations",
            job.benchmark,
            job.threads,
            job.response_time().map_or(f64::NAN, |t| t * 1e3),
            job.migrations
        );
    }
    println!(
        "peak temperature {:.1} C, DTM intervals {}, total energy {:.2} J",
        metrics.peak_temperature, metrics.dtm_intervals, metrics.energy
    );
    Ok(())
}
