use hp_floorplan::CoreId;
use hp_sim::codec::{decode, encode};
use hp_sim::schedulers::PinnedScheduler;
use hp_sim::{Action, Scheduler, SimView, ThreadId};
use hp_thermal::RcThermalModel;

use crate::budget::{Budget, Throttle};

/// Predicted temperatures that round to the same multiple of this many
/// °C tie, and the lower core index wins. Thermally symmetric cores (the
/// four corners of a grid) predict equal temperatures up to round-off,
/// which any change in the thermal arithmetic reorders.
const TIE_CELSIUS: f64 = 1e-9;

/// How far ahead PCMig extrapolates each core's temperature trend, s.
const PREDICT_SECONDS: f64 = 5e-3;

/// PCMig migrates a thread whose core is predicted to cross the DTM
/// threshold less this margin, °C.
const MIGRATION_MARGIN_CELSIUS: f64 = 1.0;

/// Minimum time between two migrations of the same thread, s (on-demand
/// migrations are a measure of last resort, not a rotation).
const COOLDOWN_SECONDS: f64 = 10e-3;

/// The PCGov scheduler \[6\], \[20\]: cache-aware lowest-AMD-first placement
/// (as [`PinnedScheduler`] places) with Pareto-optimal per-core DVFS
/// budgets (water-filling TSP). No migrations.
///
/// # Example
///
/// ```
/// use hp_floorplan::GridFloorplan;
/// use hp_sched::PcGov;
/// use hp_thermal::{RcThermalModel, ThermalConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let model = RcThermalModel::new(&GridFloorplan::new(4, 4)?, &ThermalConfig::default())?;
/// let _sched = PcGov::new(model);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct PcGov {
    throttle: Throttle,
}

impl PcGov {
    /// Creates the scheduler for a chip with thermal model `model`. Each
    /// hook budgets against the view's [`SimView::t_dtm`], with every free
    /// core drawing [`hp_power::IDLE_WATTS`].
    pub fn new(model: RcThermalModel) -> Self {
        PcGov {
            throttle: Throttle::new(model, Budget::WaterFilling),
        }
    }
}

impl Scheduler for PcGov {
    fn name(&self) -> &str {
        "pcgov"
    }

    fn schedule(&mut self, view: &SimView<'_>) -> Vec<Action> {
        let mut actions = PinnedScheduler::new().schedule(view);
        actions.extend(self.throttle.levels(view));
        actions
    }
}

/// The PCMig scheduler \[10\], \[21\] — the paper's state-of-the-art baseline:
/// lowest-AMD-first placement, each busy core throttled to the uniform
/// TSP budget of the current mapping (as [`TspUniform`](crate::TspUniform)
/// does, not PCGov's per-core budgets; DESIGN.md §2), plus
/// **asynchronous on-demand thread migrations**.
///
/// Every period each core's temperature trend is extrapolated 5 ms
/// ahead; a thread whose core is predicted to cross the view's
/// [`SimView::t_dtm`] less 1 °C is migrated to the coolest free core (if
/// any), with a 10 ms per-thread cooldown so migration remains the last
/// resort it is in the original. The original's neural-network
/// temperature predictor is replaced by this linear extrapolation
/// (DESIGN.md §2).
///
/// # Example
///
/// ```
/// use hp_floorplan::GridFloorplan;
/// use hp_sched::PcMig;
/// use hp_thermal::{RcThermalModel, ThermalConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let model = RcThermalModel::new(&GridFloorplan::new(4, 4)?, &ThermalConfig::default())?;
/// let _sched = PcMig::new(model);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct PcMig {
    throttle: Throttle,
    /// Last observed core temperatures and their timestamp.
    last_temps: Option<(f64, Vec<f64>)>,
    /// Per-thread time of last migration.
    last_migration: std::collections::BTreeMap<ThreadId, f64>,
    migrations_issued: u64,
}

hp_sim::codec! {
    /// [`PcMig`]'s snapshot blob: everything it keeps across hooks. The
    /// predictor's previous sample and the cooldown clocks decide which
    /// threads migrate next, so a resumed run needs both.
    struct Snapshot {
        /// `[time, per-core °C]` of the previous hook, `null` before it.
        last_temps: Option<(f64, Vec<f64>)>,
        /// `[[job, thread index], time]` of each thread's last migration.
        last_migration: Vec<(ThreadId, f64)>,
        migrations_issued: u64,
    }
}

impl PcMig {
    /// Creates the scheduler for a chip with thermal model `model`. Each
    /// hook migrates and budgets against the view's [`SimView::t_dtm`].
    pub fn new(model: RcThermalModel) -> Self {
        PcMig {
            throttle: Throttle::new(model, Budget::Uniform),
            last_temps: None,
            last_migration: std::collections::BTreeMap::new(),
            migrations_issued: 0,
        }
    }

    /// Total on-demand migrations issued so far.
    pub fn migrations_issued(&self) -> u64 {
        self.migrations_issued
    }
}

impl Scheduler for PcMig {
    fn name(&self) -> &str {
        "pcmig"
    }

    fn schedule(&mut self, view: &SimView<'_>) -> Vec<Action> {
        let mut actions = PinnedScheduler::new().schedule(view);

        // Linear temperature prediction per core.
        let n = view.machine.core_count();
        let now = view.time;
        let current: Vec<f64> = (0..n).map(|c| view.core_temps[c]).collect();
        let predicted: Vec<f64> = match &self.last_temps {
            Some((t0, prev)) if now > *t0 => {
                let dt = now - t0;
                (0..n)
                    .map(|c| {
                        let slope = (current[c] - prev[c]) / dt;
                        current[c] + slope * PREDICT_SECONDS
                    })
                    .collect()
            }
            _ => current.clone(),
        };
        self.last_temps = Some((now, current));

        // On-demand migrations: hottest predicted core first.
        let trigger = view.t_dtm - MIGRATION_MARGIN_CELSIUS;
        let mut hot_threads: Vec<(f64, ThreadId, CoreId)> = view
            .threads
            .iter()
            .filter(|t| predicted[t.core.index()] > trigger)
            .filter(|t| {
                self.last_migration
                    .get(&t.id)
                    .is_none_or(|&last| now - last >= COOLDOWN_SECONDS)
            })
            .map(|t| (predicted[t.core.index()], t.id, t.core))
            .collect();
        hot_threads.sort_by(|a, b| b.0.total_cmp(&a.0));

        let mut free = view.free_cores();
        // Cores claimed by placements in this very call are not free.
        for a in &actions {
            if let Action::PlaceJob { cores, .. } = a {
                free.retain(|c| !cores.contains(c));
            }
        }
        // Coolest (predicted) free cores first, ties by core index.
        let rounded = |c: &CoreId| (predicted[c.index()] / TIE_CELSIUS).round();
        free.sort_by(|a, b| rounded(a).total_cmp(&rounded(b)).then(a.cmp(b)));
        for (_, tid, from) in hot_threads {
            let Some(pos) = free
                .iter()
                .position(|c| predicted[c.index()] < predicted[from.index()] - 2.0)
            else {
                continue;
            };
            let to = free.remove(pos);
            actions.push(Action::Migrate { thread: tid, to });
            self.last_migration.insert(tid, now);
            self.migrations_issued += 1;
            // The vacated core is now free (and hot).
            free.push(from);
        }

        // TSP budgeting for the (possibly updated) mapping. Note the
        // budget is computed against current cores; next period corrects
        // for the migrations.
        actions.extend(self.throttle.levels(view));
        actions
    }

    fn snapshot(&self) -> Option<String> {
        Some(encode(&Snapshot {
            last_temps: self.last_temps.clone(),
            last_migration: self
                .last_migration
                .iter()
                .map(|(&thread, &at)| (thread, at))
                .collect(),
            migrations_issued: self.migrations_issued,
        }))
    }

    fn restore(&mut self, state: &str) -> std::result::Result<(), String> {
        let snap: Snapshot = decode(state).map_err(|e| format!("pcmig snapshot: {e}"))?;
        self.last_temps = snap.last_temps;
        self.last_migration = snap.last_migration.into_iter().collect();
        self.migrations_issued = snap.migrations_issued;
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
    use hp_workload::{closed_batch, Benchmark, Job, JobId};

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

    #[test]
    fn pcgov_completes_safely() {
        let (mut sim, model) = setup();
        let mut sched = PcGov::new(model);
        let jobs = vec![Job {
            id: JobId(0),
            benchmark: Benchmark::Swaptions,
            spec: Benchmark::Swaptions.spec(4),
            arrival: 0.0,
        }];
        let m = sim.run(jobs, &mut sched).unwrap();
        assert_eq!(m.completed_jobs(), 1);
        assert!(m.peak_temperature <= 70.2, "peak {:.2}", m.peak_temperature);
    }

    #[test]
    fn pcmig_migrates_on_demand() {
        let (mut sim, model) = setup();
        let mut sched = PcMig::new(model);
        // A batch load leaves free cores to migrate to.
        let jobs = closed_batch(Benchmark::Blackscholes, 8, 3);
        let m = sim.run(jobs, &mut sched).unwrap();
        assert_eq!(m.completed_jobs(), m.jobs.len());
        assert!(m.peak_temperature <= 70.5, "peak {:.2}", m.peak_temperature);
    }

    #[test]
    fn pcmig_breaks_round_off_ties_by_core_index() {
        use hp_linalg::Vector;
        use hp_manycore::WorkPoint;
        use hp_power::DvfsLevel;
        use hp_sim::ThreadView;
        let (sim, model) = setup();
        let machine = sim.machine();
        // A hot thread on core 5; corners 0 and 15 are the coolest free
        // cores and differ by round-off alone, core 15 being the cooler.
        let mut temps = Vector::constant(16, 60.0);
        temps[5] = 75.0;
        temps[0] = 50.0;
        temps[15] = 50.0 - 1e-13;
        assert!(temps[15] < temps[0]);
        let thread = ThreadId {
            job: JobId(0),
            index: 0,
        };
        let mut occupancy = vec![None; 16];
        occupancy[5] = Some(thread);
        let threads = [ThreadView {
            id: thread,
            benchmark: Benchmark::Blackscholes,
            core: CoreId(5),
            work: WorkPoint {
                cpi_base: 1.0,
                l1_mpki: 1.0,
                llc_mpki: 0.1,
                activity_exec: 0.9,
                activity_stall: 0.2,
            },
            last_cpi: 1.0,
            avg_power: 7.0,
        }];
        let view = SimView {
            time: 0.0,
            machine,
            core_temps: &temps,
            levels: &[DvfsLevel(0); 16],
            occupancy: &occupancy,
            threads: &threads,
            pending: &[],
            t_dtm: 70.0,
            dtm_active: false,
            sensor_confidence: &[1.0; 16],
        };
        let actions = PcMig::new(model).schedule(&view);
        let migrations: Vec<&Action> = actions
            .iter()
            .filter(|a| matches!(a, Action::Migrate { .. }))
            .collect();
        assert_eq!(
            migrations,
            [&Action::Migrate {
                thread,
                to: CoreId(0)
            }]
        );
    }

    #[test]
    fn pcmig_migration_count_is_bounded() {
        // Asynchronous on-demand migration is a last resort: the cooldown
        // keeps the count far below a synchronous rotation's.
        let (mut sim, model) = setup();
        let mut sched = PcMig::new(model);
        let jobs = vec![Job {
            id: JobId(0),
            benchmark: Benchmark::Blackscholes,
            spec: Benchmark::Blackscholes.spec(2),
            arrival: 0.0,
        }];
        let m = sim.run(jobs, &mut sched).unwrap();
        assert_eq!(m.completed_jobs(), 1);
        // ~55 ms run, 10 ms cooldown, 2 threads => at most ~12 migrations.
        assert!(m.migrations <= 14, "{} migrations", m.migrations);
    }
}
