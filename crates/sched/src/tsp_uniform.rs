use hp_floorplan::CoreId;
use hp_sim::schedulers::PinnedScheduler;
use hp_sim::{Action, Scheduler, SimView};
use hp_thermal::RcThermalModel;

use crate::budget::{Budget, Throttle};

/// Pure TSP power budgeting (paper \[14\]) — the DVFS-only baseline of
/// Fig. 2(b).
///
/// Jobs are placed as [`PinnedScheduler`] places them, on the lowest-AMD
/// free cores; every scheduling period each busy core is throttled to the
/// fastest level that fits the uniform TSP budget of the executing
/// mapping. Threads never migrate.
///
/// # Example
///
/// ```
/// use hp_floorplan::GridFloorplan;
/// use hp_sched::TspUniform;
/// use hp_thermal::{RcThermalModel, ThermalConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let model = RcThermalModel::new(&GridFloorplan::new(4, 4)?, &ThermalConfig::default())?;
/// let _sched = TspUniform::new(model, 70.0, 0.3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct TspUniform {
    placer: PinnedScheduler,
    throttle: Throttle,
}

impl TspUniform {
    /// Creates the scheduler for a chip with thermal model `model`,
    /// DTM threshold `t_dtm` (°C) and per-core idle power (W).
    pub fn new(model: RcThermalModel, t_dtm: f64, idle_power: f64) -> Self {
        TspUniform {
            placer: PinnedScheduler::new(),
            throttle: Throttle::new(model, t_dtm, idle_power, Budget::Uniform),
        }
    }

    /// Pins the first job exactly on `cores` (the Fig. 2 setup).
    pub fn with_preferred_cores(mut self, cores: Vec<CoreId>) -> Self {
        self.placer = PinnedScheduler::with_preferred_cores(cores);
        self
    }
}

impl Scheduler for TspUniform {
    fn name(&self) -> &str {
        "tsp-uniform"
    }

    fn schedule(&mut self, view: &SimView<'_>) -> Vec<Action> {
        let mut actions = self.placer.schedule(view);
        actions.extend(self.throttle.levels(view));
        actions
    }

    // The budget cache only memoises; the only state is the placer's
    // one-shot preferred placement, so the blob is the placer's.
    fn snapshot(&self) -> Option<String> {
        self.placer.snapshot()
    }

    fn restore(&mut self, state: &str) -> std::result::Result<(), String> {
        self.placer
            .restore(state)
            .map_err(|e| format!("tsp-uniform: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hp_floorplan::GridFloorplan;
    use hp_manycore::{ArchConfig, Machine};
    use hp_sim::{SimConfig, Simulation};
    use hp_thermal::ThermalConfig;
    use hp_workload::{Benchmark, Job, JobId};

    fn setup() -> (Simulation, RcThermalModel) {
        let machine = Machine::new(ArchConfig {
            grid_width: 4,
            grid_height: 4,
            ..ArchConfig::default()
        })
        .unwrap();
        let model = RcThermalModel::new(
            &GridFloorplan::new(4, 4).unwrap(),
            &ThermalConfig::default(),
        )
        .unwrap();
        let sim = Simulation::new(machine, ThermalConfig::default(), SimConfig::default()).unwrap();
        (sim, model)
    }

    fn blackscholes2() -> Vec<Job> {
        vec![Job {
            id: JobId(0),
            benchmark: Benchmark::Blackscholes,
            spec: Benchmark::Blackscholes.spec(2),
            arrival: 0.0,
        }]
    }

    #[test]
    fn tsp_keeps_chip_under_threshold() {
        let (mut sim, model) = setup();
        let mut sched =
            TspUniform::new(model, 70.0, 0.3).with_preferred_cores(vec![CoreId(5), CoreId(10)]);
        let m = sim.run(blackscholes2(), &mut sched).unwrap();
        assert_eq!(m.completed_jobs(), 1);
        assert!(
            m.peak_temperature <= 70.2,
            "TSP safe (peak {:.2})",
            m.peak_temperature
        );
        assert_eq!(m.migrations, 0, "TSP never migrates");
    }

    #[test]
    fn tsp_is_slower_than_unmanaged() {
        // DVFS throttling must cost wall-clock time vs. the pinned
        // unmanaged run (Fig. 2(a) vs 2(b)).
        let (mut sim, model) = setup();
        let mut tsp =
            TspUniform::new(model, 70.0, 0.3).with_preferred_cores(vec![CoreId(5), CoreId(10)]);
        let tsp_m = sim.run(blackscholes2(), &mut tsp).unwrap();

        let machine = Machine::new(ArchConfig {
            grid_width: 4,
            grid_height: 4,
            ..ArchConfig::default()
        })
        .unwrap();
        let mut unmanaged_sim = Simulation::new(
            machine,
            ThermalConfig::default(),
            SimConfig {
                dtm_enabled: false,
                ..SimConfig::default()
            },
        )
        .unwrap();
        let mut pinned =
            hp_sim::schedulers::PinnedScheduler::with_preferred_cores(vec![CoreId(5), CoreId(10)]);
        let un_m = unmanaged_sim.run(blackscholes2(), &mut pinned).unwrap();
        assert!(
            tsp_m.makespan > un_m.makespan * 1.05,
            "tsp {:.4} vs unmanaged {:.4}",
            tsp_m.makespan,
            un_m.makespan
        );
    }
}
