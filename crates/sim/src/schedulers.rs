//! Minimal built-in schedulers: useful baselines and test fixtures.
//!
//! The paper's real contenders live elsewhere — HotPotato in the
//! `hotpotato` crate, PCMig/PCGov/TSP baselines in `hp-sched`. The
//! schedulers here are deliberately simple:
//!
//! * [`PinnedScheduler`] — place arriving jobs on the lowest-AMD free
//!   cores at peak frequency and never touch them again. This is the
//!   "unmanaged" configuration of Fig. 2(a).

use hp_floorplan::CoreId;

use crate::codec::{decode, encode};
use crate::scheduler::{Action, Scheduler, SimView};

/// Places jobs on the free cores with the lowest AMD (best performance)
/// and never migrates or throttles — the thermally unmanaged baseline.
///
/// Placement prefers low-AMD cores because that is what a
/// performance-only OS scheduler for S-NUCA would do (paper \[19\]).
///
/// # Example
///
/// ```
/// use hp_sim::schedulers::PinnedScheduler;
///
/// let sched = PinnedScheduler::new();
/// assert_eq!(sched.preferred_cores(), None);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PinnedScheduler {
    /// Optional fixed placement for the first job (used by the Fig. 2
    /// experiments to pin *blackscholes* on specific cores).
    preferred: Option<Vec<CoreId>>,
}

impl PinnedScheduler {
    /// A scheduler that places jobs on the lowest-AMD free cores.
    pub fn new() -> Self {
        PinnedScheduler { preferred: None }
    }

    /// A scheduler that places the *first* job exactly on `cores`
    /// (subsequent jobs fall back to lowest-AMD-first).
    pub fn with_preferred_cores(cores: Vec<CoreId>) -> Self {
        PinnedScheduler {
            preferred: Some(cores),
        }
    }

    /// The configured fixed placement, if any.
    pub fn preferred_cores(&self) -> Option<&[CoreId]> {
        self.preferred.as_deref()
    }
}

crate::codec! {
    /// [`PinnedScheduler`]'s snapshot blob.
    struct Snapshot {
        preferred: Option<Vec<CoreId>>,
    }
}

impl Scheduler for PinnedScheduler {
    fn name(&self) -> &str {
        "pinned"
    }

    fn schedule(&mut self, view: &SimView<'_>) -> Vec<Action> {
        let mut actions = Vec::new();
        let mut free = view.free_cores();
        // Sort free cores by AMD ascending (best performance first).
        // Out-of-range cores (impossible for a free-core list) sort last
        // via the +inf sentinel instead of aborting the run.
        free.sort_by(|&a, &b| {
            let fa = view.machine.floorplan().amd(a).unwrap_or(f64::INFINITY);
            let fb = view.machine.floorplan().amd(b).unwrap_or(f64::INFINITY);
            fa.total_cmp(&fb).then(a.cmp(&b))
        });
        for job in view.pending {
            if let Some(cores) = self.preferred.take() {
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
                break; // admit in arrival order; wait for space
            }
            let cores: Vec<CoreId> = free.drain(..job.threads).collect();
            actions.push(Action::PlaceJob {
                job: job.job,
                cores,
            });
        }
        actions
    }

    // The only mutable state is the one-shot preferred placement, which
    // `schedule` consumes: the snapshot records whether (and where) it
    // is still armed.
    fn snapshot(&self) -> Option<String> {
        Some(encode(&Snapshot {
            preferred: self.preferred.clone(),
        }))
    }

    fn restore(&mut self, state: &str) -> std::result::Result<(), String> {
        let snap: Snapshot = decode(state).map_err(|e| format!("pinned snapshot: {e}"))?;
        self.preferred = snap.preferred;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SimConfig, Simulation};
    use hp_manycore::{ArchConfig, Machine};
    use hp_thermal::ThermalConfig;
    use hp_workload::{closed_batch, Benchmark, Job, JobId};

    fn small_machine() -> Machine {
        Machine::new(ArchConfig {
            grid_width: 4,
            grid_height: 4,
            ..ArchConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn pinned_runs_single_job_to_completion() {
        let mut sim = Simulation::new(
            small_machine(),
            ThermalConfig::default(),
            SimConfig {
                dtm_enabled: false,
                ..SimConfig::default()
            },
        )
        .unwrap();
        let jobs = vec![Job {
            id: JobId(0),
            benchmark: Benchmark::Canneal,
            spec: Benchmark::Canneal.spec(2),
            arrival: 0.0,
        }];
        let mut sched = PinnedScheduler::new();
        let m = sim.run(jobs, &mut sched).unwrap();
        assert_eq!(m.completed_jobs(), 1);
        assert!(m.makespan > 0.0);
        assert_eq!(m.migrations, 0);
        assert!(m.jobs[0].instructions > 0);
    }

    #[test]
    fn pinned_prefers_low_amd_cores() {
        let mut sim = Simulation::new(
            small_machine(),
            ThermalConfig::default(),
            SimConfig {
                dtm_enabled: false,
                ..SimConfig::default()
            },
        )
        .unwrap();
        // A 4-thread canneal must land on the centre ring {5, 6, 9, 10}.
        let jobs = vec![Job {
            id: JobId(0),
            benchmark: Benchmark::Canneal,
            spec: Benchmark::Canneal.spec(4),
            arrival: 0.0,
        }];
        let mut sched = PinnedScheduler::new();
        // We can't observe placement directly from metrics; rely on the
        // preferred-cores variant below for the explicit check, and here
        // just assert completion.
        let m = sim.run(jobs, &mut sched).unwrap();
        assert_eq!(m.completed_jobs(), 1);
    }

    #[test]
    fn preferred_cores_are_honoured() {
        let mut sim = Simulation::new(
            small_machine(),
            ThermalConfig::default(),
            SimConfig {
                dtm_enabled: false,
                record_trace: true,
                ..SimConfig::default()
            },
        )
        .unwrap();
        let jobs = vec![Job {
            id: JobId(0),
            benchmark: Benchmark::Swaptions,
            spec: Benchmark::Swaptions.spec(1),
            arrival: 0.0,
        }];
        let mut sched = PinnedScheduler::with_preferred_cores(vec![CoreId(0)]);
        let m = sim.run(jobs, &mut sched).unwrap();
        assert_eq!(m.completed_jobs(), 1);
        // The corner core must be the hottest at the end of the run.
        let trace = sim.trace();
        let last = trace.sample(trace.len() - 1);
        let hottest = last
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(hottest, 0);
    }

    #[test]
    fn batch_completes_and_accounts_instructions() {
        let mut sim = Simulation::new(
            small_machine(),
            ThermalConfig::default(),
            SimConfig {
                dtm_enabled: false,
                ..SimConfig::default()
            },
        )
        .unwrap();
        let jobs = closed_batch(Benchmark::Canneal, 8, 1);
        let expected: u64 = jobs.iter().map(|j| j.spec.total_instructions()).sum();
        let mut sched = PinnedScheduler::new();
        let m = sim.run(jobs, &mut sched).unwrap();
        let retired: u64 = m.jobs.iter().map(|j| j.instructions).sum();
        assert_eq!(retired, expected, "all instructions retired exactly");
    }
}
