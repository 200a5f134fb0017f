use hp_floorplan::CoreId;
use hp_sim::codec::{decode, encode};
use hp_sim::{Action, Scheduler, SimView};
use hp_thermal::RcThermalModel;

use crate::budget::assign_levels_for_budget;

/// Pure TSP power budgeting (paper \[14\]) — the DVFS-only baseline of
/// Fig. 2(b).
///
/// Jobs are placed on the lowest-AMD free cores; every scheduling period
/// the TSP budget for the executing mapping is recomputed and each busy
/// core is throttled to the fastest level that fits. Threads never
/// migrate.
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
    model: RcThermalModel,
    t_dtm: f64,
    idle_power: f64,
    /// Optional fixed placement for the first job (Fig. 2 pinning).
    preferred: Option<Vec<CoreId>>,
}

impl TspUniform {
    /// Creates the scheduler for a chip with thermal model `model`,
    /// DTM threshold `t_dtm` (°C) and per-core idle power (W).
    pub fn new(model: RcThermalModel, t_dtm: f64, idle_power: f64) -> Self {
        TspUniform {
            model,
            t_dtm,
            idle_power,
            preferred: None,
        }
    }

    /// Pins the first job exactly on `cores` (the Fig. 2 setup).
    pub fn with_preferred_cores(mut self, cores: Vec<CoreId>) -> Self {
        self.preferred = Some(cores);
        self
    }

    pub(crate) fn place_pending(
        view: &SimView<'_>,
        preferred: &mut Option<Vec<CoreId>>,
    ) -> Vec<Action> {
        let mut actions = Vec::new();
        let mut free = view.free_cores();
        // Out-of-range cores (impossible for a free-core list) sort last
        // via the +inf sentinel instead of aborting the run.
        free.sort_by(|&a, &b| {
            let fa = view.machine.floorplan().amd(a).unwrap_or(f64::INFINITY);
            let fb = view.machine.floorplan().amd(b).unwrap_or(f64::INFINITY);
            fa.total_cmp(&fb).then(a.cmp(&b))
        });
        for job in view.pending {
            if let Some(cores) = preferred.take() {
                if cores.len() == job.threads && cores.iter().all(|c| free.contains(c)) {
                    free.retain(|c| !cores.contains(c));
                    actions.push(Action::PlaceJob {
                        job: job.job,
                        cores,
                    });
                    continue;
                }
            }
            if free.len() < job.threads {
                break;
            }
            let cores: Vec<CoreId> = free.drain(..job.threads).collect();
            actions.push(Action::PlaceJob {
                job: job.job,
                cores,
            });
        }
        actions
    }
}

hp_sim::codec! {
    /// [`TspUniform`]'s snapshot blob.
    struct Snapshot {
        preferred: Option<Vec<CoreId>>,
    }
}

impl Scheduler for TspUniform {
    fn name(&self) -> &str {
        "tsp-uniform"
    }

    fn schedule(&mut self, view: &SimView<'_>) -> Vec<Action> {
        let mut actions = Self::place_pending(view, &mut self.preferred);
        actions.extend(assign_levels_for_budget(
            view,
            &self.model,
            self.t_dtm,
            self.idle_power,
        ));
        actions
    }

    // The budget recomputation is stateless; the only mutable state is
    // the one-shot preferred placement, which `schedule` consumes.
    fn snapshot(&self) -> Option<String> {
        Some(encode(&Snapshot {
            preferred: self.preferred.clone(),
        }))
    }

    fn restore(&mut self, state: &str) -> std::result::Result<(), String> {
        let snap: Snapshot = decode(state).map_err(|e| format!("tsp-uniform snapshot: {e}"))?;
        self.preferred = snap.preferred;
        Ok(())
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
