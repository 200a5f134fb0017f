use hp_floorplan::CoreId;
use hp_linalg::Vector;
use hp_manycore::{Machine, WorkPoint};
use hp_power::DvfsLevel;
use hp_workload::{Benchmark, JobId};

use crate::job::ThreadId;

/// A scheduler decision, applied by the engine at the end of the
/// scheduling hook.
///
/// All actions in one batch are applied atomically: a batch of `Migrate`
/// actions whose sources and targets form a permutation (a synchronous
/// rotation) is valid even though each target is momentarily occupied.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Start a pending job, thread `i` on `cores[i]`.
    PlaceJob {
        /// The pending job to start.
        job: JobId,
        /// One core per thread, in thread order.
        cores: Vec<CoreId>,
    },
    /// Move a running thread to another core (pays the migration cost).
    Migrate {
        /// The thread to move.
        thread: ThreadId,
        /// Destination core.
        to: CoreId,
    },
    /// Set one core's DVFS level.
    SetLevel {
        /// The core to adjust.
        core: CoreId,
        /// The new operating point.
        level: DvfsLevel,
    },
    /// Set every core's DVFS level.
    SetAllLevels {
        /// The new operating point.
        level: DvfsLevel,
    },
}

/// What the scheduler sees about one running thread.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadView {
    /// The thread.
    pub id: ThreadId,
    /// The benchmark it belongs to.
    pub benchmark: Benchmark,
    /// Where it currently runs.
    pub core: CoreId,
    /// Its current-phase work point (idle while barrier-waiting).
    pub work: WorkPoint,
    /// CPI observed in the last interval (∞ before the first interval).
    pub last_cpi: f64,
    /// Average power over the configured history window, W.
    pub avg_power: f64,
}

/// What the scheduler sees about one job waiting in the admission queue.
#[derive(Debug, Clone, PartialEq)]
pub struct PendingJobView {
    /// The job.
    pub job: JobId,
    /// Its benchmark.
    pub benchmark: Benchmark,
    /// Threads it needs (one core each).
    pub threads: usize,
    /// When it arrived, s.
    pub arrival: f64,
}

/// The engine state exposed to a scheduler at each scheduling period.
#[derive(Debug)]
pub struct SimView<'a> {
    /// Current simulated time, s.
    pub time: f64,
    /// The machine (floorplan, rings, CPI model, DVFS ladder).
    pub machine: &'a Machine,
    /// Junction temperature per core, °C.
    pub core_temps: &'a Vector,
    /// Current DVFS level per core.
    pub levels: &'a [DvfsLevel],
    /// Which thread occupies each core (`None` = free).
    pub occupancy: &'a [Option<ThreadId>],
    /// All running threads.
    pub threads: &'a [ThreadView],
    /// Jobs waiting for admission, in arrival order.
    pub pending: &'a [PendingJobView],
    /// DTM threshold, °C.
    pub t_dtm: f64,
    /// Whether the hardware DTM throttled the chip during the last interval.
    pub dtm_active: bool,
    /// Trust in each entry of `core_temps`, in `[0, 1]`. All `1.0`
    /// without fault injection; under faults, `core_temps` is the
    /// conditioned sensor view and this reports how much of it is fresh
    /// measurement versus held or spatially reconstructed values.
    pub sensor_confidence: &'a [f64],
}

impl SimView<'_> {
    /// Convenience: indices of all free cores.
    pub fn free_cores(&self) -> Vec<CoreId> {
        self.occupancy
            .iter()
            .enumerate()
            .filter(|(_, o)| o.is_none())
            .map(|(i, _)| CoreId(i))
            .collect()
    }

    /// The least-trusted core's sensor confidence (`1.0` on an empty
    /// confidence slice, i.e. without fault injection).
    pub fn min_sensor_confidence(&self) -> f64 {
        self.sensor_confidence.iter().copied().fold(1.0, f64::min)
    }
}

/// Self-reported condition of a scheduling policy, polled by the engine
/// after every scheduling hook and folded into
/// [`Metrics`](crate::Metrics) (`robustness.fallback_*`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerHealth {
    /// Running its primary policy.
    #[default]
    Nominal,
    /// Running a fallback policy (e.g. the peak solver failed or sensor
    /// confidence fell below the policy's floor).
    Degraded,
}

/// A scheduling policy plugged into the [`Simulation`](crate::Simulation)
/// engine — the equivalent of a HotSniper scheduler plugin.
///
/// The engine calls [`schedule`](Scheduler::schedule) once per scheduling
/// period; the returned actions are validated and applied atomically.
/// Invalid actions abort the simulation with an error (schedulers are
/// trusted components; failing fast surfaces policy bugs).
pub trait Scheduler {
    /// Human-readable policy name (used in reports).
    fn name(&self) -> &str;

    /// Inspect the state and decide placements, migrations and DVFS
    /// settings for the next period.
    fn schedule(&mut self, view: &SimView<'_>) -> Vec<Action>;

    /// Whether the policy is currently running in a degraded mode.
    ///
    /// Polled by the engine right after [`schedule`](Scheduler::schedule);
    /// the default is permanently [`SchedulerHealth::Nominal`], which
    /// keeps ordinary single-policy schedulers oblivious to the
    /// degradation machinery.
    fn health(&self) -> SchedulerHealth {
        SchedulerHealth::Nominal
    }

    /// The policy's own observability snapshot (solver counters, probe
    /// timings, backend metadata), if it keeps one.
    ///
    /// Polled by the engine once at the end of a run and merged into
    /// [`Metrics::observability`](crate::Metrics) under the `sched.`
    /// namespace. The default `None` keeps plain schedulers oblivious to
    /// the observability machinery. Counters and gauges in the returned
    /// report must be seed-deterministic; wall-clock histograms need not
    /// be (DESIGN.md §10).
    fn observability(&self) -> Option<hp_obs::RunReport> {
        None
    }

    /// A serialised snapshot of the policy's mutable internal state, for
    /// engine checkpoints (DESIGN.md §13).
    ///
    /// Called at every checkpoint boundary. The returned string is
    /// opaque to the engine (stored verbatim inside the checkpoint and
    /// handed back to [`restore`](Scheduler::restore) on resume); the
    /// contract is that `snapshot` → fresh instance → `restore` leaves
    /// the policy bit-identical in its future decisions. A policy that
    /// keeps state across hooks must snapshot it — the built-in ones
    /// write a [`codec!`](crate::codec!) struct with
    /// [`codec::encode`](crate::codec::encode). Only a policy whose
    /// behaviour is a pure function of the [`SimView`] may keep the
    /// default `None`; the engine then never calls `restore`.
    /// `tests/checkpoint_chaos.rs::every_scheduler_resumes_bit_identically`
    /// holds every built-in policy to this contract.
    fn snapshot(&self) -> Option<String> {
        None
    }

    /// Restores the state captured by [`snapshot`](Scheduler::snapshot)
    /// into a freshly constructed instance of the same policy.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message when `state` cannot be applied.
    /// The default rejects every blob: a policy that emits snapshots
    /// must implement the matching restore, and handing a stateful blob
    /// to a stateless policy is a configuration error, not a silent
    /// no-op.
    fn restore(&mut self, _state: &str) -> std::result::Result<(), String> {
        Err(format!(
            "scheduler {} does not support snapshot/restore",
            self.name()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_cores_reports_gaps() {
        use hp_manycore::{ArchConfig, Machine};
        let machine = Machine::new(ArchConfig {
            grid_width: 2,
            grid_height: 1,
            ..ArchConfig::default()
        })
        .unwrap();
        let temps = Vector::zeros(2);
        let occupancy = vec![
            Some(ThreadId {
                job: JobId(0),
                index: 0,
            }),
            None,
        ];
        let levels = vec![DvfsLevel(0); 2];
        let view = SimView {
            time: 0.0,
            machine: &machine,
            core_temps: &temps,
            levels: &levels,
            occupancy: &occupancy,
            threads: &[],
            pending: &[],
            t_dtm: 70.0,
            dtm_active: false,
            sensor_confidence: &[1.0, 0.4],
        };
        assert_eq!(view.free_cores(), vec![CoreId(1)]);
        assert_eq!(view.min_sensor_confidence(), 0.4);
    }
}
