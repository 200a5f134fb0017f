//! Shared harness code for the experiment binaries that regenerate the
//! paper's tables and figures.
//!
//! Each binary in `src/bin/` reproduces one evaluation artefact:
//!
//! | Binary     | Paper artefact |
//! |------------|----------------|
//! | `table1`   | Table I — simulated processor configuration |
//! | `fig2`     | Fig. 2 — thermal traces & response times (unmanaged / TSP / rotation) |
//! | `fig3`     | Fig. 3 — concentric AMD rings of the 64-core chip |
//! | `fig4a`    | Fig. 4(a) — homogeneous workloads, HotPotato vs PCMig |
//! | `fig4b`    | Fig. 4(b) — heterogeneous open system, speedup vs arrival rate |
//! | `overhead` | §VI run-time overhead of Algorithm 1 + Algorithm 2 |
//! | `ablations`| design-choice sweeps (τ, Δ, threshold, migration cost, DTM scope, prewarm) |
//! | `oracle_gap` | §V "near-optimal" claim: greedy vs exhaustive ring assignment |
//! | `stacked3d`| §VII future work: rotation on a 3D-stacked chip |
//!
//! Outputs go to stdout as aligned text tables plus machine-readable CSV
//! lines prefixed with `csv,` so EXPERIMENTS.md can quote either.

pub mod context;
pub mod plot;

use context::{Context, ContextError};

use hp_floorplan::GridFloorplan;
use hp_manycore::{ArchConfig, Machine};
use hp_sim::{Metrics, Scheduler, SimConfig, Simulation};
use hp_thermal::{RcThermalModel, ThermalConfig, TransientSolver};
use hp_workload::Job;

/// The paper's evaluation chip: a 64-core (8×8) S-NUCA processor
/// (Table I).
pub fn paper_machine() -> Machine {
    Machine::new(ArchConfig::default()).expect("default config is valid")
}

/// A 16-core (4×4) chip for the Fig. 1 / Fig. 2 motivational setup.
pub fn motivational_machine() -> Machine {
    Machine::new(ArchConfig {
        grid_width: 4,
        grid_height: 4,
        ..ArchConfig::default()
    })
    .expect("4x4 config is valid")
}

/// The thermal model matching `machine`.
pub fn thermal_model(machine: &Machine) -> RcThermalModel {
    RcThermalModel::new(machine.floorplan(), &ThermalConfig::default())
        .expect("default thermal config is valid")
}

/// Builds a fresh thermal model for a given grid. Build one per grid and
/// hand clones to [`try_run`] and to the schedulers: they all share the
/// model's one eigendecomposition.
pub fn thermal_model_for_grid(width: usize, height: usize) -> RcThermalModel {
    let fp = GridFloorplan::new(width, height).expect("non-empty grid");
    RcThermalModel::new(&fp, &ThermalConfig::default()).expect("valid thermal config")
}

/// Runs `jobs` on `machine`, whose thermal model is `model`, under
/// `scheduler` with the given config and returns the metrics, naming the
/// scheduler in any failure. The engine steps on `model`'s basis, so a
/// sweep that passes one model decomposes once.
///
/// # Errors
///
/// Returns a [`ContextError`] wrapping the engine's error if the
/// configuration is rejected or the run fails. Sweep binaries add their
/// own frame naming the scenario (benchmark, arrival rate, …).
pub fn try_run(
    machine: Machine,
    model: &RcThermalModel,
    sim_config: SimConfig,
    jobs: Vec<Job>,
    scheduler: &mut dyn Scheduler,
) -> Result<Metrics, ContextError> {
    let name = scheduler.name().to_owned();
    let context = || format!("building simulation for scheduler `{name}`");
    let solver = TransientSolver::new(model).with_context(context)?;
    let mut sim = Simulation::with_thermal(machine, model.clone(), solver, sim_config)
        .with_context(context)?;
    let result = sim.run(jobs, scheduler);
    if let Err(e) = &result {
        // Mid-run aborts still carry everything accumulated up to the
        // failure; report it so a sweep's partial data is not lost.
        if let Some(partial) = e.partial_metrics() {
            eprintln!(
                "{name}: aborted at t={:.3} s — partial results: {}/{} jobs complete, \
                 peak {:.1} C, {} DTM intervals, {} migrations",
                partial.simulated_time,
                partial.completed_jobs(),
                partial.jobs.len(),
                partial.peak_temperature,
                partial.dtm_intervals,
                partial.migrations,
            );
        }
    }
    result.with_context(|| format!("running scheduler `{name}`"))
}

/// Formats a fraction as a signed percentage with two decimals.
pub fn pct(x: f64) -> String {
    format!("{:+.2}%", x * 100.0)
}

/// Prints the wall-clock scheduler-hook overhead a run recorded in its
/// observability report (`hook.schedule` histogram): count, mean and
/// p50/p95/max percentiles in µs, plus a machine-readable `csv,` line.
///
/// The paper (§VI) reports a 23.76 µs mean per HotPotato scheduling
/// decision; this surfaces the same quantity for any scheduler run
/// through the engine. Silent for runs without hook timings.
pub fn print_hook_overhead(m: &Metrics) {
    print_hook_overhead_report(&m.scheduler, &m.observability);
}

/// [`print_hook_overhead`] for a bare run report, as carried by a
/// campaign [`JobOutcome`](hp_campaign::JobOutcome) (which has no
/// `Metrics` — its scalars live beside the report).
pub fn print_hook_overhead_report(scheduler: &str, report: &hp_obs::RunReport) {
    let Some(h) = report.histogram("hook.schedule") else {
        return;
    };
    println!(
        "  {} scheduling-hook overhead: {} hooks | mean {:.2} us | \
         p50 {:.2} us | p95 {:.2} us | max {:.2} us",
        scheduler, h.count, h.mean_us, h.p50_us, h.p95_us, h.max_us
    );
    println!(
        "csv,hook_overhead,{},{},{:.4},{:.4},{:.4},{:.4}",
        scheduler, h.count, h.mean_us, h.p50_us, h.p95_us, h.max_us
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machines_build() {
        assert_eq!(paper_machine().core_count(), 64);
        assert_eq!(motivational_machine().core_count(), 16);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.1072), "+10.72%");
        assert_eq!(pct(-0.05), "-5.00%");
    }

    #[test]
    fn hook_overhead_handles_present_and_absent_timings() {
        // Silent on a run without hook timings.
        print_hook_overhead(&Metrics::default());
        // And readable when the engine recorded them.
        let reg = hp_obs::Registry::new();
        reg.observe_seconds("hook.schedule", 20e-6);
        let m = Metrics {
            observability: reg.snapshot(),
            ..Metrics::default()
        };
        let h = m.observability.histogram("hook.schedule").unwrap();
        assert_eq!(h.count, 1);
        assert!(h.max_us > 0.0);
        print_hook_overhead(&m);
    }
}
