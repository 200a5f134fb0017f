//! The thermal cliff: what happens when a compute-bound workload is pinned
//! at peak frequency, and how each thermal-management knob changes the
//! picture — the paper's Fig. 1/Fig. 2 story on the 16-core chip.
//!
//! Prints an ASCII thermal trace of the hottest junction under three
//! managers: unmanaged, TSP/DVFS, and HotPotato's synchronous rotation.
//!
//! ```sh
//! cargo run --release --example thermal_cliff
//! ```

use hotpotato::{HotPotato, HotPotatoConfig};
use hp_floorplan::CoreId;
use hp_manycore::{ArchConfig, Machine};
use hp_sched::TspUniform;
use hp_sim::schedulers::PinnedScheduler;
use hp_sim::{Metrics, Scheduler, SimConfig, Simulation, TemperatureTrace};
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

fn jobs() -> Vec<Job> {
    vec![Job {
        id: JobId(0),
        benchmark: Benchmark::Blackscholes,
        spec: Benchmark::Blackscholes.spec(2),
        arrival: 0.0,
    }]
}

/// Runs the workload under the scheduler `build` makes from the
/// simulation's thermal model (a clone shares its basis).
fn run_with<S: Scheduler>(
    dtm: bool,
    build: impl FnOnce(RcThermalModel) -> S,
) -> (Metrics, TemperatureTrace) {
    let mut sim = Simulation::new(
        machine(),
        ThermalConfig::default(),
        SimConfig {
            record_trace: true,
            dtm_enabled: dtm,
            ..SimConfig::default()
        },
    )
    .expect("valid sim config");
    let mut scheduler = build(sim.thermal().clone());
    let metrics = sim.run(jobs(), &mut scheduler).expect("run completes");
    (metrics, sim.trace().clone())
}

/// Renders the hottest-junction trace as a row of height-coded glyphs.
fn sparkline(trace: &TemperatureTrace, width: usize) -> String {
    const GLYPHS: [char; 8] = ['1', '2', '3', '4', '5', '6', '7', '8'];
    let peaks = trace.peak_series();
    if peaks.is_empty() {
        return String::new();
    }
    let (lo, hi) = (45.0, 85.0);
    let stride = (peaks.len() / width).max(1);
    peaks
        .chunks(stride)
        .map(|chunk| {
            let m = chunk.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b));
            let idx = ((m - lo) / (hi - lo) * (GLYPHS.len() - 1) as f64)
                .clamp(0.0, (GLYPHS.len() - 1) as f64) as usize;
            GLYPHS[idx]
        })
        .collect()
}

fn main() {
    println!("Two-threaded blackscholes on the centre of a 16-core chip.");
    println!("Thermal threshold: 70 C. Scale: 1 = 45 C ... 8 = 85 C.\n");

    let (m, t) = run_with(false, |_| {
        PinnedScheduler::with_preferred_cores(vec![CoreId(5), CoreId(10)])
    });
    println!("unmanaged  |{}|", sparkline(&t, 60));
    println!(
        "           response {:.1} ms, peak {:.1} C  <-- {} the 70 C threshold\n",
        m.makespan * 1e3,
        m.peak_temperature,
        if m.peak_temperature > 70.0 {
            "VIOLATES"
        } else {
            "respects"
        }
    );

    let (m, t) = run_with(true, |model| {
        TspUniform::new(model).with_preferred_cores(vec![CoreId(5), CoreId(10)])
    });
    println!("TSP / DVFS |{}|", sparkline(&t, 60));
    println!(
        "           response {:.1} ms, peak {:.1} C (slow but safe)\n",
        m.makespan * 1e3,
        m.peak_temperature
    );

    let (m, t) = run_with(true, |model| {
        HotPotato::new(model, HotPotatoConfig::default()).expect("valid config")
    });
    println!("HotPotato  |{}|", sparkline(&t, 60));
    println!(
        "           response {:.1} ms, peak {:.1} C, {} rotations (fast AND safe)",
        m.makespan * 1e3,
        m.peak_temperature,
        m.migrations
    );
}
