use std::error::Error;
use std::fmt;

use hp_floorplan::{CoreId, FloorplanError};
use hp_manycore::ManycoreError;
use hp_thermal::ThermalError;
use hp_workload::JobId;

use crate::job::ThreadId;
use crate::metrics::Metrics;

/// Errors produced by the simulation engine.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// A configuration parameter was non-physical.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// Its value.
        value: f64,
    },
    /// A scheduler action referenced an unknown job.
    UnknownJob(JobId),
    /// A scheduler action referenced an unknown or inactive thread.
    UnknownThread(ThreadId),
    /// One migration batch named the same thread more than once.
    DuplicateMigration(ThreadId),
    /// A placement or migration targeted a core that ends up multiply
    /// occupied.
    CoreConflict {
        /// The contested core.
        core: CoreId,
    },
    /// A placement supplied the wrong number of cores for a job.
    PlacementArity {
        /// The job being placed.
        job: JobId,
        /// Threads the job has.
        threads: usize,
        /// Cores the scheduler supplied.
        cores: usize,
    },
    /// The simulation exceeded its configured time horizon with jobs
    /// still unfinished.
    HorizonExceeded {
        /// The horizon in seconds.
        horizon: f64,
        /// Jobs still incomplete.
        unfinished: usize,
    },
    /// The supervised run consumed its deterministic interval budget
    /// ([`RunOptions::max_intervals`](crate::RunOptions)) with jobs
    /// still unfinished — the watchdog verdict for a stuck or runaway
    /// job. Raised inside [`SimError::Aborted`] so partials survive.
    IntervalBudgetExhausted {
        /// The budget, in simulation intervals.
        budget: u64,
    },
    /// The supervised run crossed its wall-clock deadline
    /// ([`RunOptions::deadline`](crate::RunOptions)) — the soft-timeout
    /// watchdog verdict. Raised inside [`SimError::Aborted`] so
    /// partials survive.
    DeadlineExceeded,
    /// A checkpoint document failed to load, verify, or match this run
    /// (see [`CheckpointError`](crate::CheckpointError) for the typed
    /// causes: parse, digest, version, spec-hash, semantic rebind).
    Checkpoint(crate::checkpoint::CheckpointError),
    /// A run ended mid-flight but the work done up to that point was
    /// recovered: `partial` holds the metrics (and the engine keeps the
    /// trace) accumulated before `cause` stopped the run. Raised for
    /// [`SimError::HorizonExceeded`] and any other mid-run failure.
    Aborted {
        /// Simulated time at which the run stopped, s.
        at: f64,
        /// The underlying failure (never itself `Aborted`).
        cause: Box<SimError>,
        /// Everything measured before the abort.
        partial: Box<Metrics>,
    },
    /// An underlying thermal-model operation failed.
    Thermal(ThermalError),
    /// An underlying machine-model operation failed.
    Manycore(ManycoreError),
    /// An underlying floorplan operation failed.
    Floorplan(FloorplanError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidParameter { name, value } => {
                write!(
                    f,
                    "simulation parameter {name} has non-physical value {value}"
                )
            }
            SimError::UnknownJob(id) => write!(f, "scheduler referenced unknown {id}"),
            SimError::UnknownThread(id) => write!(f, "scheduler referenced unknown {id}"),
            SimError::DuplicateMigration(id) => {
                write!(f, "migration batch names {id} more than once")
            }
            SimError::CoreConflict { core } => {
                write!(f, "scheduler action leaves {core} multiply occupied")
            }
            SimError::PlacementArity {
                job,
                threads,
                cores,
            } => write!(
                f,
                "placement for {job} supplied {cores} cores for {threads} threads"
            ),
            SimError::HorizonExceeded {
                horizon,
                unfinished,
            } => write!(
                f,
                "simulation horizon of {horizon} s exceeded with {unfinished} unfinished jobs"
            ),
            SimError::IntervalBudgetExhausted { budget } => {
                write!(
                    f,
                    "supervised run consumed its interval budget of {budget} intervals"
                )
            }
            SimError::DeadlineExceeded => {
                write!(f, "supervised run crossed its wall-clock deadline")
            }
            SimError::Checkpoint(e) => write!(f, "checkpoint failure: {e}"),
            SimError::Aborted { at, cause, .. } => {
                write!(
                    f,
                    "simulation aborted at t={at} s: {cause} (partial metrics retained)"
                )
            }
            SimError::Thermal(e) => write!(f, "thermal model failure: {e}"),
            SimError::Manycore(e) => write!(f, "machine model failure: {e}"),
            SimError::Floorplan(e) => write!(f, "floorplan failure: {e}"),
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Aborted { cause, .. } => Some(cause.as_ref()),
            SimError::Thermal(e) => Some(e),
            SimError::Manycore(e) => Some(e),
            SimError::Floorplan(e) => Some(e),
            SimError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

impl SimError {
    /// The metrics recovered from an aborted run, if this error carries
    /// any — the partial-result path for CLI and experiment reporting.
    pub fn partial_metrics(&self) -> Option<&Metrics> {
        match self {
            SimError::Aborted { partial, .. } => Some(partial),
            _ => None,
        }
    }
}

impl From<ThermalError> for SimError {
    fn from(e: ThermalError) -> Self {
        SimError::Thermal(e)
    }
}

impl From<ManycoreError> for SimError {
    fn from(e: ManycoreError) -> Self {
        SimError::Manycore(e)
    }
}

impl From<FloorplanError> for SimError {
    fn from(e: FloorplanError) -> Self {
        SimError::Floorplan(e)
    }
}

impl From<crate::checkpoint::CheckpointError> for SimError {
    fn from(e: crate::checkpoint::CheckpointError) -> Self {
        SimError::Checkpoint(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_variants() {
        let samples: Vec<SimError> = vec![
            SimError::UnknownJob(JobId(3)),
            SimError::DuplicateMigration(ThreadId {
                job: JobId(3),
                index: 1,
            }),
            SimError::CoreConflict { core: CoreId(5) },
            SimError::HorizonExceeded {
                horizon: 1.0,
                unfinished: 2,
            },
            SimError::Aborted {
                at: 0.5,
                cause: Box::new(SimError::HorizonExceeded {
                    horizon: 1.0,
                    unfinished: 2,
                }),
                partial: Box::new(Metrics::default()),
            },
        ];
        for e in samples {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn aborted_exposes_partial_and_source() {
        let e = SimError::Aborted {
            at: 2.0,
            cause: Box::new(SimError::UnknownJob(JobId(1))),
            partial: Box::new(Metrics {
                simulated_time: 2.0,
                ..Metrics::default()
            }),
        };
        assert_eq!(e.partial_metrics().map(|m| m.simulated_time), Some(2.0));
        assert!(e.source().is_some());
        assert_eq!(SimError::UnknownJob(JobId(1)).partial_metrics(), None);
    }
}
