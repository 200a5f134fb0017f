//! The one path from a TSP budget to DVFS levels, shared by every DVFS
//! baseline: TSP-uniform, PCGov, PCMig and the fallback's safe mode.

use hp_floorplan::CoreId;
use hp_manycore::{Machine, WorkPoint};
use hp_power::{DvfsLevel, IDLE_WATTS};
use hp_sim::{Action, SimView};
use hp_thermal::{tsp, RcThermalModel};

/// Which TSP budget a policy throttles its executing cores to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Budget {
    /// TSP's uniform budget ([`tsp::budget`]): one power cap for every
    /// executing core. When the threshold is unreachable the chip is
    /// crashed to the minimum level.
    Uniform,
    /// PCGov's Pareto-optimal per-core budgets
    /// ([`tsp::per_core_budgets`]): cooler peripheral cores receive a
    /// larger share, so the mapping extracts more total power at the same
    /// threshold. Falls back to the uniform budget when the water-filling
    /// iteration fails, then to idle power.
    WaterFilling,
}

/// A policy's DVFS throttle: its budget and the budgets of the last set
/// of executing cores at the last threshold.
///
/// A budget is a pure function of the model, the DTM threshold the hook's
/// view carries, [`IDLE_WATTS`] and the set of executing cores, so the
/// cache only memoises: a hit emits what a fresh solve would, and nothing
/// of it is snapshotted.
#[derive(Debug)]
pub(crate) struct Throttle {
    model: RcThermalModel,
    budget: Budget,
    /// The bits of the threshold, °C, `watts` was solved at.
    t_dtm_bits: u64,
    /// The sorted executing cores `watts` belongs to.
    active: Vec<CoreId>,
    /// One budget per entry of `active`, or `None` when the threshold is
    /// unreachable under [`Budget::Uniform`].
    watts: Option<Vec<f64>>,
}

impl Throttle {
    /// A throttle to `budget` for a chip with thermal model `model`.
    pub(crate) fn new(model: RcThermalModel, budget: Budget) -> Self {
        Throttle {
            model,
            budget,
            t_dtm_bits: 0,
            active: Vec::new(),
            watts: None,
        }
    }

    /// One hook's DVFS actions: one [`Action::SetLevel`] per thread, the
    /// executing cores at the fastest level whose power fits their budget
    /// under the view's DTM threshold and barrier-idle ones at the top
    /// level (they are clock-gated and draw only leakage). With nothing
    /// executing the chip is released to the top level.
    pub(crate) fn levels(&mut self, view: &SimView<'_>) -> Vec<Action> {
        let ladder = &view.machine.config().dvfs;
        let mut active: Vec<CoreId> = view
            .threads
            .iter()
            .filter(|t| !t.work.is_idle())
            .map(|t| t.core)
            .collect();
        if active.is_empty() {
            return vec![Action::SetAllLevels {
                level: ladder.max_level(),
            }];
        }
        active.sort_unstable();
        if view.t_dtm.to_bits() != self.t_dtm_bits || active != self.active {
            self.watts = self.solve(&active, view.t_dtm);
            self.t_dtm_bits = view.t_dtm.to_bits();
            self.active = active;
        }
        let Some(watts) = &self.watts else {
            return vec![Action::SetAllLevels {
                level: ladder.min_level(),
            }];
        };
        view.threads
            .iter()
            .filter_map(|t| {
                let level = if t.work.is_idle() {
                    ladder.max_level()
                } else {
                    // `active` holds exactly these executing cores.
                    let k = self.active.binary_search(&t.core).ok()?;
                    fastest_level_within(view.machine, &t.work, t.core, watts[k], view.t_dtm)
                };
                Some(Action::SetLevel {
                    core: t.core,
                    level,
                })
            })
            .collect()
    }

    /// The budgets of `active` under threshold `t_dtm` (°C), one per core.
    fn solve(&self, active: &[CoreId], t_dtm: f64) -> Option<Vec<f64>> {
        let uniform = || {
            tsp::budget(&self.model, active, t_dtm, IDLE_WATTS)
                .map(|b| vec![b.per_core_watts; active.len()])
        };
        match self.budget {
            Budget::Uniform => uniform().ok(),
            Budget::WaterFilling => Some(
                tsp::per_core_budgets(&self.model, active, t_dtm, IDLE_WATTS)
                    .or_else(|_| uniform())
                    .unwrap_or_else(|_| vec![IDLE_WATTS; active.len()]),
            ),
        }
    }
}

/// The fastest DVFS level at which `work` on `core` stays within
/// `budget_watts` (assuming worst-case junction temperature `temp_c` for
/// the leakage term). Falls back to the minimum level when even that
/// exceeds the budget.
///
/// Power is monotone in level, so the levels that fit form a prefix of
/// the ladder: bisection finds its end in about five power evaluations
/// where a scan from the bottom took up to one per level.
fn fastest_level_within(
    machine: &Machine,
    work: &WorkPoint,
    core: CoreId,
    budget_watts: f64,
    temp_c: f64,
) -> DvfsLevel {
    let fits = |level: DvfsLevel| {
        machine
            .cpi_stack_at_level(work, core, level)
            .is_ok_and(|stack| machine.core_power(&stack, level, temp_c) <= budget_watts)
    };
    // Every level below `lo` fits; none from `hi` on does.
    let (mut lo, mut hi) = (0, machine.config().dvfs.level_count());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if fits(DvfsLevel(mid)) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    DvfsLevel(lo.saturating_sub(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FallbackChain, FallbackConfig, PcGov, PcMig, TspUniform};
    use hotpotato::HotPotatoConfig;
    use hp_floorplan::GridFloorplan;
    use hp_linalg::Vector;
    use hp_manycore::ArchConfig;
    use hp_sim::schedulers::PinnedScheduler;
    use hp_sim::{PendingJobView, Scheduler, ThreadId, ThreadView};
    use hp_thermal::ThermalConfig;
    use hp_workload::{Benchmark, JobId};

    fn machine() -> Machine {
        Machine::new(ArchConfig {
            grid_width: 4,
            grid_height: 4,
            ..ArchConfig::default()
        })
        .unwrap()
    }

    fn model() -> RcThermalModel {
        RcThermalModel::new(
            &GridFloorplan::new(4, 4).unwrap(),
            &ThermalConfig::default(),
        )
        .unwrap()
    }

    /// Everything a [`SimView`] of the 4×4 chip borrows: one thread per
    /// `(core, executing)` entry, in that order, at 60 °C, and the DTM
    /// threshold the view carries (70 °C).
    struct Chip {
        t_dtm: f64,
        machine: Machine,
        temps: Vector,
        levels: Vec<DvfsLevel>,
        occupancy: Vec<Option<ThreadId>>,
        threads: Vec<ThreadView>,
        pending: Vec<PendingJobView>,
        confidence: Vec<f64>,
    }

    impl Chip {
        fn new(seats: &[(usize, bool)]) -> Self {
            let mut occupancy = vec![None; 16];
            let threads = seats
                .iter()
                .enumerate()
                .map(|(index, &(core, executing))| {
                    let id = ThreadId {
                        job: JobId(0),
                        index,
                    };
                    occupancy[core] = Some(id);
                    ThreadView {
                        id,
                        benchmark: Benchmark::Swaptions,
                        core: CoreId(core),
                        work: if executing {
                            WorkPoint::compute_bound()
                        } else {
                            WorkPoint::idle()
                        },
                        last_cpi: 1.0,
                        avg_power: 7.0,
                    }
                })
                .collect();
            Chip {
                t_dtm: 70.0,
                machine: machine(),
                temps: Vector::constant(16, 60.0),
                levels: vec![DvfsLevel(0); 16],
                occupancy,
                threads,
                pending: Vec::new(),
                confidence: vec![1.0; 16],
            }
        }

        fn view(&self) -> SimView<'_> {
            SimView {
                time: 0.0,
                machine: &self.machine,
                core_temps: &self.temps,
                levels: &self.levels,
                occupancy: &self.occupancy,
                threads: &self.threads,
                pending: &self.pending,
                t_dtm: self.t_dtm,
                dtm_active: false,
                sensor_confidence: &self.confidence,
            }
        }
    }

    fn watts_ptr(throttle: &Throttle) -> *const f64 {
        throttle
            .watts
            .as_ref()
            .map_or(std::ptr::null(), |w| w.as_ptr())
    }

    fn level_actions(actions: Vec<Action>) -> Vec<Action> {
        actions
            .into_iter()
            .filter(|a| matches!(a, Action::SetLevel { .. } | Action::SetAllLevels { .. }))
            .collect()
    }

    fn placements(actions: Vec<Action>) -> Vec<Action> {
        actions
            .into_iter()
            .filter(|a| matches!(a, Action::PlaceJob { .. }))
            .collect()
    }

    #[test]
    fn the_same_set_in_another_thread_order_hits_the_cache() {
        let first = Chip::new(&[(5, true), (9, false), (10, true), (0, true)]);
        let reordered = Chip::new(&[(0, true), (10, true), (5, true), (9, false)]);
        for budget in [Budget::Uniform, Budget::WaterFilling] {
            let mut throttle = Throttle::new(model(), budget);
            throttle.levels(&first.view());
            let cached = watts_ptr(&throttle);
            assert!(!cached.is_null());
            let actions = throttle.levels(&reordered.view());
            assert_eq!(watts_ptr(&throttle), cached, "{budget:?}: a hit");
            assert_eq!(throttle.active, [CoreId(0), CoreId(5), CoreId(10)]);
            let fresh = Throttle::new(model(), budget).levels(&reordered.view());
            assert_eq!(actions, fresh, "{budget:?}");
            assert_eq!(actions.len(), 4, "one level per thread");
        }
    }

    #[test]
    fn a_changed_set_recomputes() {
        let first = Chip::new(&[(5, true), (9, false), (10, true)]);
        // Core 9's thread leaves its barrier: one more executing core.
        let changed = Chip::new(&[(5, true), (9, true), (10, true)]);
        for budget in [Budget::Uniform, Budget::WaterFilling] {
            let mut throttle = Throttle::new(model(), budget);
            throttle.levels(&first.view());
            let before = throttle.watts.clone().unwrap();
            let cached = watts_ptr(&throttle);
            let actions = throttle.levels(&changed.view());
            assert_ne!(watts_ptr(&throttle), cached, "{budget:?}: a miss");
            assert_eq!(throttle.active, [CoreId(5), CoreId(9), CoreId(10)]);
            assert_eq!(throttle.watts.as_ref().map(Vec::len), Some(3));
            assert!(throttle.watts.as_ref().unwrap()[0] < before[0]);
            let fresh = Throttle::new(model(), budget).levels(&changed.view());
            assert_eq!(actions, fresh, "{budget:?}");

            // The same set at a lower threshold: a miss, to smaller budgets.
            let mut cooler = Chip::new(&[(5, true), (9, true), (10, true)]);
            cooler.t_dtm = 60.0;
            let before = throttle.watts.clone().unwrap();
            let cached = watts_ptr(&throttle);
            let actions = throttle.levels(&cooler.view());
            assert_ne!(watts_ptr(&throttle), cached, "{budget:?}: a miss");
            assert!(throttle.watts.as_ref().unwrap()[0] < before[0]);
            let fresh = Throttle::new(model(), budget).levels(&cooler.view());
            assert_eq!(actions, fresh, "{budget:?}");
        }
    }

    #[test]
    fn nothing_executing_releases_the_chip() {
        let chip = Chip::new(&[(5, false)]);
        let max = chip.machine.config().dvfs.max_level();
        for budget in [Budget::Uniform, Budget::WaterFilling] {
            let actions = Throttle::new(model(), budget).levels(&chip.view());
            assert_eq!(actions, [Action::SetAllLevels { level: max }]);
        }
    }

    #[test]
    fn an_unreachable_threshold_keeps_each_policys_actions() {
        // 40 °C is below the 45 °C ambient: no budget exists.
        let mut chip = Chip::new(&[(5, true), (9, false), (10, true)]);
        chip.t_dtm = 40.0;
        let ladder = &chip.machine.config().dvfs;
        let (min, max) = (ladder.min_level(), ladder.max_level());
        let crash = vec![Action::SetAllLevels { level: min }];

        let mut tsp = TspUniform::new(model());
        assert_eq!(level_actions(tsp.schedule(&chip.view())), crash);
        let mut pcmig = PcMig::new(model());
        assert_eq!(level_actions(pcmig.schedule(&chip.view())), crash);

        // PCGov falls back to the uniform budget, then to idle power.
        let work = WorkPoint::compute_bound();
        let at_idle =
            |core| fastest_level_within(&chip.machine, &work, CoreId(core), IDLE_WATTS, chip.t_dtm);
        let expected = vec![
            Action::SetLevel {
                core: CoreId(5),
                level: at_idle(5),
            },
            Action::SetLevel {
                core: CoreId(9),
                level: max,
            },
            Action::SetLevel {
                core: CoreId(10),
                level: at_idle(10),
            },
        ];
        let mut pcgov = PcGov::new(model());
        assert_eq!(level_actions(pcgov.schedule(&chip.view())), expected);
        // The cached answer is the same on the next hook.
        assert_eq!(level_actions(pcgov.schedule(&chip.view())), expected);

        // The fallback's safe mode, entered on untrusted sensors.
        chip.confidence = vec![0.0; 16];
        let mut chain = FallbackChain::new(
            model(),
            HotPotatoConfig::default(),
            FallbackConfig::default(),
        )
        .unwrap();
        assert_eq!(level_actions(chain.schedule(&chip.view())), crash);
        assert!(chain.is_degraded());
    }

    #[test]
    fn every_dvfs_baseline_places_as_the_pinned_scheduler_does() {
        let mut chip = Chip::new(&[(5, true), (6, true), (9, false)]);
        chip.pending = [(1, 2), (2, 3), (3, 20), (4, 1)]
            .map(|(job, threads)| PendingJobView {
                job: JobId(job),
                benchmark: Benchmark::Canneal,
                threads,
                arrival: 0.0,
            })
            .to_vec();
        let view = chip.view();
        let pinned = PinnedScheduler::new().schedule(&view);
        // Two jobs fit; the 20-thread one blocks the queue behind it.
        assert_eq!(pinned.len(), 2);

        let mut tsp = TspUniform::new(model());
        assert_eq!(placements(tsp.schedule(&view)), pinned);
        assert_eq!(placements(PcGov::new(model()).schedule(&view)), pinned);
        let mut pcmig = PcMig::new(model());
        assert_eq!(placements(pcmig.schedule(&view)), pinned);

        // TSP-uniform takes the Fig. 2 preferred cores for its first job.
        let preferred = vec![CoreId(0), CoreId(15)];
        let pinned_there = PinnedScheduler::with_preferred_cores(preferred.clone()).schedule(&view);
        assert!(pinned_there.contains(&Action::PlaceJob {
            job: JobId(1),
            cores: preferred.clone()
        }));
        let mut tsp = TspUniform::new(model()).with_preferred_cores(preferred);
        assert_eq!(placements(tsp.schedule(&view)), pinned_there);

        // The fallback's safe mode, entered on untrusted sensors.
        chip.confidence = vec![0.0; 16];
        let mut chain = FallbackChain::new(
            model(),
            HotPotatoConfig::default(),
            FallbackConfig::default(),
        )
        .unwrap();
        assert_eq!(placements(chain.schedule(&chip.view())), pinned);
        assert!(chain.is_degraded());
    }

    /// The ladder scan bisection replaced: the last level of the prefix
    /// that fits, stopping at the first that does not.
    fn scanned_level_within(
        machine: &Machine,
        work: &WorkPoint,
        core: CoreId,
        budget_watts: f64,
        temp_c: f64,
    ) -> DvfsLevel {
        let ladder = &machine.config().dvfs;
        let mut best = ladder.min_level();
        for level in ladder.levels() {
            let Ok(stack) = machine.cpi_stack_at_level(work, core, level) else {
                break;
            };
            if machine.core_power(&stack, level, temp_c) <= budget_watts {
                best = level;
            } else {
                break;
            }
        }
        best
    }

    #[test]
    fn bisection_picks_the_scanned_level_at_every_boundary() {
        let m = Machine::new(ArchConfig::default()).unwrap();
        let mut points: Vec<WorkPoint> = Vec::new();
        for benchmark in Benchmark::all() {
            let spec = benchmark.spec(4);
            for phase in spec.phases() {
                for t in 0..phase.thread_count() {
                    let work = phase.thread(t).work;
                    if !work.is_idle() && !points.contains(&work) {
                        points.push(work);
                    }
                }
            }
        }
        assert!(points.len() >= Benchmark::all().len());
        let ladder = &m.config().dvfs;
        for work in &points {
            for core in (0..m.core_count()).map(CoreId) {
                let mut budgets = vec![0.0, 100.0];
                for level in ladder.levels() {
                    let stack = m.cpi_stack_at_level(work, core, level).unwrap();
                    let p = m.core_power(&stack, level, 70.0);
                    budgets.extend([p.next_down(), p, p.next_up()]);
                }
                for budget in budgets {
                    assert_eq!(
                        fastest_level_within(&m, work, core, budget, 70.0),
                        scanned_level_within(&m, work, core, budget, 70.0),
                        "{work:?} on {core} within {budget} W"
                    );
                }
            }
        }
    }

    #[test]
    fn generous_budget_allows_peak() {
        let m = machine();
        let level = fastest_level_within(&m, &WorkPoint::compute_bound(), CoreId(5), 100.0, 70.0);
        assert_eq!(level, m.config().dvfs.max_level());
    }

    #[test]
    fn tiny_budget_forces_minimum() {
        let m = machine();
        let level = fastest_level_within(&m, &WorkPoint::compute_bound(), CoreId(5), 0.1, 70.0);
        assert_eq!(level, m.config().dvfs.min_level());
    }

    #[test]
    fn moderate_budget_throttles_partially() {
        let m = machine();
        let level = fastest_level_within(&m, &WorkPoint::compute_bound(), CoreId(5), 3.0, 70.0);
        assert!(level > m.config().dvfs.min_level());
        assert!(level < m.config().dvfs.max_level());
    }

    #[test]
    fn memory_bound_work_tolerates_smaller_budget_at_higher_level() {
        // Memory-bound work draws less power, so the same budget admits a
        // higher frequency.
        let m = machine();
        let b = 3.0;
        let hot = fastest_level_within(&m, &WorkPoint::compute_bound(), CoreId(5), b, 70.0);
        let cool = fastest_level_within(&m, &WorkPoint::memory_bound(), CoreId(5), b, 70.0);
        assert!(cool > hot);
    }
}
