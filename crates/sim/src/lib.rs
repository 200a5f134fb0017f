//! Interval thermal simulation engine — the HotSniper substitute.
//!
//! HotSniper couples the Sniper interval core simulator with McPAT power
//! and HotSpot thermal models in a fixed-interval loop, and lets a
//! scheduler plugin observe per-interval statistics and issue migrations
//! and DVFS changes. This crate reproduces that loop over the workspace's
//! own substrates:
//!
//! ```text
//! every interval dt:
//!   1. admit arrived jobs, run the scheduler (place / migrate / DVFS)
//!   2. performance: WorkPoint × core × frequency → instructions retired
//!   3. power: CPI activity + DVFS point + temperature → per-core watts
//!   4. thermal: exact RC transient step (MatEx route), the state carried
//!      in eigen coordinates and read out to every node for the guard
//!   5. DTM: hardware frequency crash while any junction ≥ T_DTM
//! ```
//!
//! Schedulers implement the [`Scheduler`] trait; the engine validates their
//! [`Action`]s (placements must target free cores, simultaneous migrations
//! must form a proper permutation — which is exactly what a synchronous
//! rotation is).
//!
//! # Example
//!
//! ```
//! use hp_manycore::{ArchConfig, Machine};
//! use hp_sim::{schedulers::PinnedScheduler, SimConfig, Simulation};
//! use hp_thermal::ThermalConfig;
//! use hp_workload::{closed_batch, Benchmark};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let machine = Machine::new(ArchConfig { grid_width: 4, grid_height: 4, ..ArchConfig::default() })?;
//! let jobs = closed_batch(Benchmark::Canneal, 8, 1);
//! let mut sim = Simulation::new(machine, ThermalConfig::default(), SimConfig::default())?;
//! let mut sched = PinnedScheduler::new();
//! let metrics = sim.run(jobs, &mut sched)?;
//! assert_eq!(metrics.jobs.len(), metrics.completed_jobs());
//! # Ok(())
//! # }
//! ```

mod checkpoint;
pub mod codec;
mod config;
mod engine;
mod error;
mod job;
mod metrics;
mod plan;
mod report;
mod scheduler;
mod trace;

pub mod schedulers;

pub use checkpoint::{CheckpointError, EngineCheckpoint, CHECKPOINT_SCHEMA};
pub use config::{DtmScope, SimConfig};
pub use engine::{RunOptions, Simulation};
pub use error::SimError;
pub use job::ThreadId;
// Re-exported so downstream schedulers can name the type behind
// `ThreadId::job` (e.g. when decoding a checkpoint snapshot) without a
// direct hp-workload dependency.
pub use hp_workload::JobId;
pub use metrics::{JobRecord, Metrics, Robustness};
pub use scheduler::{Action, PendingJobView, Scheduler, SchedulerHealth, SimView, ThreadView};
pub use trace::{TemperatureTrace, TraceEvent, TraceEventKind};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, SimError>;
