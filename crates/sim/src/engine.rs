use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use hp_faults::{mesh_neighbors, FaultError, FaultInjector, SensorConditioner, SensorReading};
use hp_floorplan::CoreId;
use hp_linalg::Vector;
use hp_manycore::Machine;
use hp_obs::{Histogram, Registry};
use hp_power::DvfsLevel;
use hp_thermal::{RcThermalModel, ThermalConfig, ThermalState, TransientSolver};
use hp_workload::{Job, JobId};

use crate::checkpoint::{
    self, ActiveJobState, CheckpointError, CheckpointState, EngineCheckpoint, FaultState,
    MetricsState, ObsState, SchedulerState,
};
use crate::codec::Labelled;
use crate::job::{running_with, JobRuntime, ThreadId};
use crate::metrics::{JobRecord, Metrics};
use crate::scheduler::{Action, PendingJobView, Scheduler, SchedulerHealth, SimView, ThreadView};
use crate::trace::{TemperatureTrace, TraceEventKind};
use crate::{Result, SimConfig, SimError};

/// Minimum per-core sensor confidence below which the run is logged as
/// running on degraded sensors (trace event only; policy floors live in
/// the schedulers).
const SENSOR_DEGRADED_CONFIDENCE: f64 = 0.5;

/// How many consecutive missed sensor readings the conditioning layer
/// bridges with the core's last good value before falling back to the
/// spatial median of its neighbours (the fault layer only).
pub(crate) const SENSOR_STALENESS_BUDGET_INTERVALS: u64 = 5;

/// The interval simulation engine.
///
/// Owns the machine, the thermal model and its transient solver; a run
/// processes a workload to completion under a [`Scheduler`] and produces
/// [`Metrics`]. See the [crate docs](crate) for the per-interval loop.
///
/// With an active [`FaultPlan`](hp_faults::FaultPlan) in the
/// [`SimConfig`], the engine additionally drives the fault-injection and
/// sensor-conditioning layers: schedulers then see conditioned sensor
/// temperatures with per-core confidence instead of ground truth, while
/// the hardware DTM watchdog keeps acting on the true junction
/// temperatures (modelling its dedicated thermal-diode path).
#[derive(Debug)]
pub struct Simulation {
    machine: Machine,
    thermal: RcThermalModel,
    solver: TransientSolver,
    config: SimConfig,
    trace: TemperatureTrace,
    /// Checkpoints written during the last run (never folded into the
    /// run's own `RunReport`: a resumed run must report bit-identically
    /// to an uninterrupted one, and the uninterrupted run wrote none).
    ckpt_saves: u64,
    /// Whether the last run started from a checkpoint (0 or 1).
    ckpt_resumes: u64,
}

/// Supervision and recovery options for [`Simulation::run_with_options`]
/// (DESIGN.md §13). The default runs unsupervised and from scratch —
/// exactly [`Simulation::run`].
#[derive(Debug, Default)]
pub struct RunOptions {
    /// Capture an [`EngineCheckpoint`] every this many simulated seconds
    /// (rounded to whole intervals, minimum one interval). Requires
    /// [`checkpoint_path`](RunOptions::checkpoint_path).
    pub checkpoint_every_seconds: Option<f64>,
    /// Where periodic checkpoints land. Each capture overwrites the file
    /// atomically (tmp + rename), so a crash mid-write never corrupts
    /// the previous good checkpoint.
    pub checkpoint_path: Option<PathBuf>,
    /// Resume mid-run from a verified checkpoint instead of starting at
    /// t = 0. The workload, configuration, machine and scheduler must be
    /// the ones the checkpoint was taken under
    /// ([`CheckpointError::SpecMismatch`] otherwise), and the resumed
    /// run's trace and `without_timings` report are bit-identical to an
    /// uninterrupted run's.
    pub resume_from: Option<EngineCheckpoint>,
    /// Deterministic watchdog: abort (as [`SimError::Aborted`] carrying
    /// [`SimError::IntervalBudgetExhausted`], partials preserved) after
    /// this many intervals *in this invocation* with work still pending.
    pub max_intervals: Option<u64>,
    /// Wall-clock soft deadline, polled every 64 intervals: crossing it
    /// aborts the run as [`SimError::Aborted`] carrying
    /// [`SimError::DeadlineExceeded`], partials preserved.
    pub deadline: Option<Instant>,
}

/// Fault-layer runtime for one run: the injector, the conditioning
/// ladder, and the conditioned view handed to schedulers.
#[derive(Debug)]
struct FaultRuntime {
    injector: FaultInjector,
    conditioner: SensorConditioner,
    /// Conditioned sensor temperatures, refreshed every interval, °C.
    sensed_temps: Vector,
    /// Per-core confidence of `sensed_temps`, in `[0, 1]`.
    confidence: Vec<f64>,
    /// Whether the run is currently below the degraded-confidence
    /// threshold (for transition events).
    sensors_degraded: bool,
}

/// Everything a run accumulates. Boxed into [`SimError::Aborted`] on a
/// mid-run failure so no measurement is ever discarded.
struct RunState {
    total_jobs: usize,
    arrivals: VecDeque<Job>,
    n: usize,
    dt: f64,
    sched_every: u64,
    /// Junction temperatures, the node vector (read out when a full
    /// readout or a checkpoint needs it) and, while the eigen path is
    /// live, the eigen coordinates — advanced in modal form every
    /// interval.
    thermal: ThermalState,
    /// Junction temperatures of `thermal`, °C: copied in once per
    /// interval after the thermal step and used by the next interval's
    /// sensors, DTM watchdog and power evaluation.
    core_temps: Vector,
    /// Per-core power of the current interval, W, rewritten every
    /// interval.
    power: Vector,
    levels: Vec<DvfsLevel>,
    occupancy: Vec<Option<ThreadId>>,
    pending: VecDeque<Job>,
    active: BTreeMap<JobId, JobRuntime>,
    records: BTreeMap<JobId, JobRecord>,
    metrics: Metrics,
    completed: usize,
    step: u64,
    /// Chip-wide DTM hysteresis latch state after the last interval.
    dtm_last_interval: bool,
    /// Per-core DTM hysteresis latches (only driven in per-core scope).
    dtm_core_latch: Vec<bool>,
    busy_freq_integral: f64,
    busy_time: f64,
    /// All-ones confidence slice for the fault-free path.
    full_confidence: Vec<f64>,
    faults: Option<FaultRuntime>,
    /// Whether the scheduler reported degraded health at the last hook.
    sched_was_degraded: bool,
    /// Observability restored from a checkpoint and folded in from
    /// `tallies`, snapshotted into `Metrics::observability` at run end.
    obs: Registry,
    /// The engine's own counters and timings, recorded without a lookup
    /// by name.
    tallies: EngineTallies,
}

/// The engine's counters that nothing else counts, and its wall-clock
/// histograms, kept in plain fields so that an interval records them
/// without a lock or a lookup by name. [`RunState::flush`] folds them
/// into the run's registry before every snapshot and every checkpoint
/// capture, under the names a report has always carried.
#[derive(Debug, Default)]
struct EngineTallies {
    sched_hooks: u64,
    placements: u64,
    dvfs_sets: u64,
    interval: Histogram,
    thermal_step: Histogram,
    perf_power: Histogram,
    bookkeeping: Histogram,
    schedule: Histogram,
    apply_actions: Histogram,
}

impl EngineTallies {
    /// Adds every tally to `registry` and zeroes it. A counter that
    /// never counted, and a histogram that never observed, create
    /// nothing there.
    fn flush(&mut self, registry: &Registry) {
        let counters = [
            ("engine.sched_hooks", &mut self.sched_hooks),
            ("engine.actions.placements", &mut self.placements),
            ("engine.actions.dvfs_sets", &mut self.dvfs_sets),
        ];
        for (name, count) in counters {
            if *count > 0 {
                registry.add(name, std::mem::take(count));
            }
        }
        let timings = [
            ("engine.interval", &mut self.interval),
            ("engine.thermal_step", &mut self.thermal_step),
            ("engine.perf_power", &mut self.perf_power),
            ("engine.bookkeeping", &mut self.bookkeeping),
            ("hook.schedule", &mut self.schedule),
            ("hook.apply_actions", &mut self.apply_actions),
        ];
        for (name, histogram) in timings {
            registry.absorb_histogram(name, histogram);
        }
    }
}

impl RunState {
    fn now(&self) -> f64 {
        self.step as f64 * self.dt
    }

    /// Brings the registry up to date: sets the engine counters the run
    /// state already counts (the step and the metrics' DTM, fallback,
    /// dropped-action and migration counts), then folds in the tallies.
    /// A counter that never counted creates nothing.
    fn flush(&mut self) {
        let (m, r) = (&self.metrics, &self.metrics.robustness);
        let counters = [
            ("engine.intervals", self.step),
            ("engine.dtm.intervals", m.dtm_intervals),
            ("engine.dtm.activations", r.watchdog_activations),
            ("engine.fallback.hooks", r.fallback_intervals),
            ("engine.fallback.activations", r.fallback_activations),
            ("engine.actions.dropped", r.dropped_actions),
            ("engine.actions.migrations", m.migrations),
        ];
        for (name, count) in counters {
            if count > 0 {
                self.obs.set_counter(name, count);
            }
        }
        self.tallies.flush(&self.obs);
    }
}

fn fault_error(e: FaultError) -> SimError {
    match e {
        FaultError::InvalidParameter { name, value } => SimError::InvalidParameter { name, value },
        _ => SimError::InvalidParameter {
            name: "faults",
            value: f64::NAN,
        },
    }
}

impl Simulation {
    /// Builds an engine for `machine` with the given thermal and engine
    /// configuration.
    ///
    /// # Errors
    ///
    /// Propagates configuration and model-construction failures.
    pub fn new(machine: Machine, thermal: ThermalConfig, config: SimConfig) -> Result<Self> {
        let model = RcThermalModel::new(machine.floorplan(), &thermal)?;
        let solver = TransientSolver::new(&model)?;
        Self::with_thermal(machine, model, solver, config)
    }

    /// Builds an engine around a prebuilt thermal model and transient
    /// solver, skipping the LU factorization and eigendecomposition that
    /// [`Simulation::new`] performs.
    ///
    /// This is the cache-handle constructor for sweep runners: each job
    /// clones shared, already-factorized handles (the model clone copies
    /// the matrices and shares the model's modal basis, and the solver
    /// clone shares that basis too) instead of re-deriving them. The
    /// model must describe `machine`'s floorplan, and the solver must
    /// step in the model's own basis: the basis fingerprints must agree.
    /// That check reads the model's basis, which a cached model has
    /// already built; a model whose basis is not built yet decomposes
    /// here, once.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation failures and eigendecomposition
    /// failures, and rejects a model whose core count does not match
    /// `machine`, or a solver whose node count or basis fingerprint does
    /// not match the model's.
    pub fn with_thermal(
        machine: Machine,
        model: RcThermalModel,
        solver: TransientSolver,
        config: SimConfig,
    ) -> Result<Self> {
        config.validate()?;
        if model.core_count() != machine.core_count() {
            return Err(SimError::InvalidParameter {
                name: "thermal model core count",
                value: model.core_count() as f64,
            });
        }
        if solver.basis().node_count() != model.node_count() {
            return Err(SimError::InvalidParameter {
                name: "transient solver node count",
                value: solver.basis().node_count() as f64,
            });
        }
        if solver.basis().fingerprint() != model.basis()?.fingerprint() {
            return Err(SimError::InvalidParameter {
                name: "transient solver basis",
                value: f64::NAN,
            });
        }
        Ok(Simulation {
            machine,
            thermal: model,
            solver,
            config,
            trace: TemperatureTrace::new(),
            ckpt_saves: 0,
            ckpt_resumes: 0,
        })
    }

    /// The machine under simulation.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// The thermal model in use.
    pub fn thermal(&self) -> &RcThermalModel {
        &self.thermal
    }

    /// The engine configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The temperature trace of the last run. Temperature samples are
    /// only recorded under [`SimConfig::record_trace`]; degradation
    /// [events](TemperatureTrace::events) are always recorded. Retained
    /// even when the run aborted mid-flight.
    pub fn trace(&self) -> &TemperatureTrace {
        &self.trace
    }

    /// Runs `jobs` to completion under `scheduler`.
    ///
    /// # Errors
    ///
    /// Any mid-run failure is returned as [`SimError::Aborted`] carrying
    /// the metrics accumulated so far (the trace is likewise retained on
    /// the engine). Causes include:
    ///
    /// * [`SimError::HorizonExceeded`] if jobs remain unfinished at the
    ///   configured horizon.
    /// * Validation errors for malformed scheduler actions
    ///   ([`SimError::CoreConflict`], [`SimError::PlacementArity`], …).
    pub fn run(&mut self, jobs: Vec<Job>, scheduler: &mut dyn Scheduler) -> Result<Metrics> {
        self.run_with_options(jobs, scheduler, &RunOptions::default())
    }

    /// Runs `jobs` under `scheduler` with supervision and recovery
    /// options: periodic checkpoints, resume-from-checkpoint, a
    /// deterministic interval budget and a wall-clock deadline
    /// (DESIGN.md §13).
    ///
    /// The contract for checkpointing is bit-identity: a run interrupted
    /// at any checkpoint boundary and resumed via
    /// [`RunOptions::resume_from`] produces exactly the trace and
    /// `RunReport::without_timings` of an uninterrupted run.
    ///
    /// # Errors
    ///
    /// Everything [`Simulation::run`] can raise, plus — all wrapped in
    /// [`SimError::Aborted`] so partial metrics survive —
    /// [`SimError::IntervalBudgetExhausted`], [`SimError::DeadlineExceeded`]
    /// and [`SimError::Checkpoint`] for failures writing a checkpoint.
    /// Invalid options and a checkpoint that cannot be re-bound to this
    /// run fail before the first interval, without partials.
    pub fn run_with_options(
        &mut self,
        jobs: Vec<Job>,
        scheduler: &mut dyn Scheduler,
        opts: &RunOptions,
    ) -> Result<Metrics> {
        self.ckpt_saves = 0;
        self.ckpt_resumes = 0;
        let ckpt_every = match opts.checkpoint_every_seconds {
            None => None,
            Some(s) => {
                if !s.is_finite() || s <= 0.0 {
                    return Err(SimError::InvalidParameter {
                        name: "checkpoint_every_seconds",
                        value: s,
                    });
                }
                if opts.checkpoint_path.is_none() {
                    return Err(SimError::InvalidParameter {
                        name: "checkpoint_path",
                        value: f64::NAN,
                    });
                }
                Some(((s / self.config.dt).round() as u64).max(1))
            }
        };
        // The spec fingerprint binds checkpoints to this exact run;
        // computed before init consumes the workload vector.
        let spec = checkpoint::spec_hash(
            &self.machine,
            self.solver.basis().fingerprint(),
            &self.config,
            &jobs,
            scheduler.name(),
        );
        let mut st = match &opts.resume_from {
            None => self.init_run(jobs, scheduler.name())?,
            Some(ckpt) => self.resume_run(jobs, scheduler, ckpt, spec)?,
        };
        let mut intervals_done: u64 = 0;
        let outcome = loop {
            match self.step_interval(&mut st, scheduler) {
                Ok(false) => {}
                Ok(true) => break Ok(()),
                Err(e) => break Err(e),
            }
            intervals_done += 1;
            if let (Some(every), Some(path)) = (ckpt_every, opts.checkpoint_path.as_deref()) {
                if st.step.is_multiple_of(every) {
                    let ckpt = self.capture_checkpoint(&mut st, scheduler, spec);
                    if let Err(e) = ckpt.save_to_path(path) {
                        break Err(SimError::Checkpoint(e));
                    }
                    self.ckpt_saves += 1;
                }
            }
            if let Some(budget) = opts.max_intervals {
                if intervals_done >= budget && st.completed < st.total_jobs {
                    break Err(SimError::IntervalBudgetExhausted { budget });
                }
            }
            if let Some(deadline) = opts.deadline {
                // xtask: allow(nondet) — the wall-clock watchdog is
                // nondeterministic by design; it only decides *whether*
                // the run aborts, never what a completed run reports.
                if intervals_done.is_multiple_of(64) && Instant::now() >= deadline {
                    break Err(SimError::DeadlineExceeded);
                }
            }
        };
        st.flush();
        let obs = std::mem::take(&mut st.obs);
        let mut metrics = Self::finalize(st);
        // The observability block rides on the metrics in the Ok and the
        // Aborted path alike: an aborted run's partial report is often
        // the most interesting one.
        metrics.observability = self.build_report(&obs, scheduler);
        match outcome {
            Ok(()) => Ok(metrics),
            Err(cause) => Err(SimError::Aborted {
                at: metrics.simulated_time,
                cause: Box::new(cause),
                partial: Box::new(metrics),
            }),
        }
    }

    /// Checkpoints written during the last
    /// [`run_with_options`](Simulation::run_with_options) invocation.
    /// Deliberately *not* part of the run's own report (see the field
    /// docs); campaign runners fold this into their own counters.
    pub fn checkpoint_saves(&self) -> u64 {
        self.ckpt_saves
    }

    /// Whether the last run resumed from a checkpoint (0 or 1).
    pub fn checkpoint_resumes(&self) -> u64 {
        self.ckpt_resumes
    }

    /// Assembles the run's observability report: the live registry
    /// (interval counters, hook histograms), the thermal solver's
    /// activity tallies, the GEMM dispatch backend, the degradation
    /// event log, and the scheduler's own report under the `sched.`
    /// namespace.
    fn build_report(&self, obs: &Registry, scheduler: &dyn Scheduler) -> hp_obs::RunReport {
        let mut report = obs.snapshot();
        let s = self.solver.runtime().stats();
        report.push_counter("thermal.step_batches", s.batch_calls);
        report.push_counter("thermal.batched_states", s.batched_items);
        report.push_counter("thermal.decay_cache_hits", s.decay_cache_hits);
        report.push_counter("thermal.decay_cache_misses", s.decay_cache_misses);
        let nu = self.solver.runtime().numerics();
        report.push_counter("numerics.fallback.activations", nu.fallback_activations);
        report.push_counter("numerics.fallback.steps", nu.fallback_steps);
        report.push_counter("numerics.guard.trips", nu.guard_trips);
        report.push_counter("numerics.degraded", u64::from(self.solver.degraded()));
        report.push_meta("gemm_backend", hp_linalg::Matrix::gemm_backend());
        for ev in self.trace.events() {
            report.push_event(ev.time_seconds, ev.kind.label(), &ev.detail);
        }
        if let Some(sched_report) = scheduler.observability() {
            report.merge_prefixed("sched", &sched_report);
        }
        report
    }

    /// Prepares the run state (initial temperatures, queues, fault
    /// layer). Failures here carry no partial results — nothing has been
    /// simulated yet.
    fn init_run(&mut self, mut jobs: Vec<Job>, scheduler_name: &str) -> Result<RunState> {
        jobs.sort_by(|a, b| a.arrival.total_cmp(&b.arrival));
        let total_jobs = jobs.len();
        let arrivals: VecDeque<Job> = jobs.into();

        let n = self.machine.core_count();
        let dt = self.config.dt;
        let sched_every = (self.config.sched_period / dt).round().max(1.0) as u64;

        let node_temps = match self.config.prewarm_power {
            None => self.thermal.ambient_state(),
            Some(p) => self.thermal.steady_state(&Vector::constant(n, p))?,
        };
        let thermal = self.solver.initial_state(&node_temps)?;
        let core_temps = self.thermal.core_temperatures(&node_temps);

        let faults = if self.config.faults.is_inert() {
            None
        } else {
            let injector = FaultInjector::new(&self.config.faults, n).map_err(fault_error)?;
            let arch = self.machine.config();
            let conditioner = SensorConditioner::new(
                mesh_neighbors(arch.grid_height, arch.grid_width),
                SENSOR_STALENESS_BUDGET_INTERVALS,
                self.thermal.config().ambient,
            );
            Some(FaultRuntime {
                injector,
                conditioner,
                sensed_temps: Vector::zeros(n),
                confidence: vec![1.0; n],
                sensors_degraded: false,
            })
        };

        self.trace = TemperatureTrace::new();
        // Each run reports its own solver activity.
        self.solver.runtime().reset_tallies();
        if self.config.record_trace {
            // The t = 0 starting condition (ambient or prewarmed) leads
            // the trace; the per-interval loop appends at `now + dt`.
            self.trace.push(0.0, core_temps.as_slice().to_vec());
        }
        let mut metrics = Metrics {
            scheduler: scheduler_name.to_string(),
            ..Metrics::default()
        };
        metrics.robustness.faults_enabled = faults.is_some();

        Ok(RunState {
            total_jobs,
            arrivals,
            n,
            dt,
            sched_every,
            thermal,
            core_temps,
            power: Vector::zeros(n),
            levels: vec![self.machine.config().dvfs.max_level(); n],
            occupancy: vec![None; n],
            pending: VecDeque::new(),
            active: BTreeMap::new(),
            records: BTreeMap::new(),
            metrics,
            completed: 0,
            step: 0,
            dtm_last_interval: false,
            dtm_core_latch: vec![false; n],
            busy_freq_integral: 0.0,
            busy_time: 0.0,
            full_confidence: vec![1.0; n],
            faults,
            sched_was_degraded: false,
            obs: Registry::new(),
            tallies: EngineTallies::default(),
        })
    }

    /// Turns an ended run (complete or aborted) into its metrics.
    fn finalize(mut st: RunState) -> Metrics {
        st.metrics.avg_frequency_ghz = if st.busy_time > 0.0 {
            st.busy_freq_integral / st.busy_time
        } else {
            0.0
        };
        if let Some(fr) = &st.faults {
            let s = fr.injector.stats();
            st.metrics.robustness.noisy_readings = s.noisy_readings;
            st.metrics.robustness.stuck_readings = s.stuck_readings;
            st.metrics.robustness.sensor_dropouts = s.dropouts;
            st.metrics.robustness.migration_faults = s.migration_failures;
            st.metrics.robustness.power_spikes = s.power_spikes;
        }
        st.metrics.robustness.watchdog_intervals = st.metrics.dtm_intervals;
        st.metrics.jobs = st.records.into_values().collect();
        st.metrics
    }

    /// Freezes the run state into an [`EngineCheckpoint`] at an interval
    /// boundary, after folding the engine's tallies into its registry.
    /// Everything `step_interval` mutates is captured but derived state
    /// (the kept buffers); the `Job` structs themselves are not (they are
    /// re-bound from the workload at resume, which the spec hash
    /// guarantees matches).
    fn capture_checkpoint(
        &self,
        st: &mut RunState,
        scheduler: &dyn Scheduler,
        spec: u64,
    ) -> EngineCheckpoint {
        st.flush();
        let active: Vec<ActiveJobState> = st
            .active
            .values()
            .map(|jr| ActiveJobState {
                job: jr.job.id.0,
                phase: jr.phase,
                completed: jr.completed,
                threads: jr.threads.clone(),
            })
            .collect();
        // Counters, gauges and metadata are seed-deterministic and
        // resumable; wall-clock histograms are dropped (they are
        // excluded from `without_timings` golden comparisons anyway).
        let report = st.obs.snapshot();
        let obs = ObsState {
            counters: report
                .counters
                .iter()
                .map(|c| (c.name.clone(), c.value))
                .collect(),
            gauges: report
                .gauges
                .iter()
                .map(|g| (g.name.clone(), g.value))
                .collect(),
            meta: report
                .meta
                .iter()
                .map(|m| (m.name.clone(), m.value.clone()))
                .collect(),
        };
        let faults = st.faults.as_ref().map(|fr| FaultState {
            injector: fr.injector.snapshot(),
            conditioner: fr.conditioner.snapshot(),
            sensed_temps: fr.sensed_temps.as_slice().to_vec(),
            confidence: fr.confidence.clone(),
            sensors_degraded: fr.sensors_degraded,
        });
        EngineCheckpoint {
            spec_hash: spec,
            state: CheckpointState {
                step: st.step,
                node_temps: st.thermal.nodes().as_slice().to_vec(),
                modal_temps: st.thermal.modal().map(|z| z.as_slice().to_vec()),
                levels: st.levels.iter().map(|l| l.index()).collect(),
                occupancy: st.occupancy.clone(),
                pending: st.pending.iter().map(|j| j.id.0).collect(),
                arrivals: st.arrivals.iter().map(|j| j.id.0).collect(),
                active,
                records: st.records.values().cloned().collect(),
                completed: st.completed as u64,
                dtm_last_interval: st.dtm_last_interval,
                dtm_core_latch: st.dtm_core_latch.clone(),
                busy_freq_integral: st.busy_freq_integral,
                busy_time: st.busy_time,
                sched_was_degraded: st.sched_was_degraded,
                metrics: MetricsState {
                    makespan: st.metrics.makespan,
                    peak_temperature: st.metrics.peak_temperature,
                    dtm_intervals: st.metrics.dtm_intervals,
                    migrations: st.metrics.migrations,
                    energy: st.metrics.energy,
                    simulated_time: st.metrics.simulated_time,
                },
                robustness: st.metrics.robustness,
                faults,
                obs,
                trace: self.trace.clone(),
                thermal_stats: self.solver.runtime().stats(),
                numerics_stats: self.solver.runtime().numerics(),
                scheduler: SchedulerState {
                    name: scheduler.name().to_string(),
                    blob: scheduler.snapshot(),
                },
            },
        }
    }

    /// Rebuilds a mid-flight `RunState` from a verified checkpoint: the
    /// resume half of the bit-identity contract. The state is a fresh
    /// run's, from [`init_run`](Simulation::init_run), with everything the
    /// checkpoint holds written over it.
    ///
    /// The supplied workload and scheduler must be the ones the
    /// checkpoint was captured under; `Job` structs are re-bound by id.
    /// The thermal solver's decay cache is warmed for the run's `dt`
    /// *before* its stats are overwritten, so the resumed run's cache
    /// counters continue exactly where the interrupted run's left off.
    fn resume_run(
        &mut self,
        jobs: Vec<Job>,
        scheduler: &mut dyn Scheduler,
        ckpt: &EngineCheckpoint,
        spec: u64,
    ) -> Result<RunState> {
        fn invalid(message: String) -> SimError {
            SimError::Checkpoint(CheckpointError::Invalid { message })
        }
        if ckpt.spec_hash != spec {
            return Err(SimError::Checkpoint(CheckpointError::SpecMismatch {
                expected: spec,
                found: ckpt.spec_hash,
            }));
        }
        let s = &ckpt.state;
        let n = self.machine.core_count();
        if s.scheduler.name != scheduler.name() {
            return Err(invalid(format!(
                "checkpoint was taken under scheduler `{}`, resuming under `{}`",
                s.scheduler.name,
                scheduler.name()
            )));
        }
        if s.levels.len() != n || s.occupancy.len() != n || s.dtm_core_latch.len() != n {
            return Err(invalid(format!(
                "checkpoint core count disagrees with the machine's {n} cores"
            )));
        }
        if s.node_temps.len() != self.thermal.node_count() {
            return Err(invalid(format!(
                "checkpoint thermal state has {} nodes, the model expects {}",
                s.node_temps.len(),
                self.thermal.node_count()
            )));
        }
        match (self.config.faults.is_inert(), s.faults.is_some()) {
            (true, true) => {
                return Err(invalid(
                    "checkpoint carries fault state but the fault plan is inert".into(),
                ))
            }
            (false, false) => {
                return Err(invalid(
                    "fault plan is active but the checkpoint has no fault state".into(),
                ))
            }
            _ => {}
        }

        let mut st = self.init_run(jobs, scheduler.name())?;
        st.thermal = self
            .solver
            .restore_state(
                Vector::from(s.node_temps.clone()),
                s.modal_temps.clone().map(Vector::from),
            )
            .map_err(|e| invalid(format!("checkpoint thermal state rejected: {e}")))?;
        st.core_temps = self.thermal.core_temperatures(st.thermal.nodes());

        let mut by_id: BTreeMap<usize, Job> = BTreeMap::new();
        for j in std::mem::take(&mut st.arrivals) {
            if let Some(dup) = by_id.insert(j.id.0, j) {
                return Err(invalid(format!("duplicate {} in the workload", dup.id)));
            }
        }
        let mut take = |id: usize| -> Result<Job> {
            by_id.remove(&id).ok_or_else(|| {
                invalid(format!(
                    "checkpoint references job {id} not in the workload"
                ))
            })
        };
        st.arrivals = s
            .arrivals
            .iter()
            .map(|&id| take(id))
            .collect::<Result<_>>()?;
        st.pending = s
            .pending
            .iter()
            .map(|&id| take(id))
            .collect::<Result<_>>()?;
        for a in &s.active {
            let job = take(a.job)?;
            if a.threads.len() != job.spec.thread_count() {
                return Err(invalid(format!(
                    "checkpoint has {} threads for {}, its spec has {}",
                    a.threads.len(),
                    job.id,
                    job.spec.thread_count()
                )));
            }
            if let Some((i, t)) = a
                .threads
                .iter()
                .enumerate()
                .find(|(_, t)| t.core.index() >= n)
            {
                return Err(invalid(format!(
                    "checkpoint places {}.t{i} on core {} of {n}",
                    job.id,
                    t.core.index()
                )));
            }
            let runtime = JobRuntime {
                job,
                phase: a.phase,
                threads: a.threads.clone(),
                completed: a.completed,
            };
            st.active.insert(runtime.job.id, runtime);
        }
        st.records = s.records.iter().map(|r| (r.job, r.clone())).collect();

        let dvfs = &self.machine.config().dvfs;
        st.levels = s
            .levels
            .iter()
            .map(|&i| {
                let level = DvfsLevel(i);
                dvfs.check(level)
                    .map(|()| level)
                    .map_err(|_| invalid(format!("checkpoint DVFS level {i} is off the ladder")))
            })
            .collect::<Result<_>>()?;

        if let (Some(fr), Some(fz)) = (st.faults.as_mut(), &s.faults) {
            fr.injector
                .restore(&fz.injector)
                .map_err(|e| invalid(format!("fault injector rejected the snapshot: {e}")))?;
            if !fr.conditioner.restore(&fz.conditioner) {
                return Err(invalid(
                    "sensor conditioner rejected the snapshot (core count mismatch)".into(),
                ));
            }
            if fz.sensed_temps.len() != n || fz.confidence.len() != n {
                return Err(invalid(
                    "checkpoint sensor view disagrees with the machine's core count".into(),
                ));
            }
            fr.sensed_temps = Vector::from(fz.sensed_temps.clone());
            fr.confidence = fz.confidence.clone();
            fr.sensors_degraded = fz.sensors_degraded;
        }

        if let Some(blob) = &s.scheduler.blob {
            scheduler
                .restore(blob)
                .map_err(|m| invalid(format!("scheduler rejected its snapshot: {m}")))?;
        }

        st.completed = usize::try_from(s.completed)
            .map_err(|_| invalid(format!("completed count {} overflows", s.completed)))?;
        st.step = s.step;
        st.occupancy = s.occupancy.clone();
        st.dtm_last_interval = s.dtm_last_interval;
        st.dtm_core_latch = s.dtm_core_latch.clone();
        st.busy_freq_integral = s.busy_freq_integral;
        st.busy_time = s.busy_time;
        st.sched_was_degraded = s.sched_was_degraded;
        let m = &mut st.metrics;
        m.makespan = s.metrics.makespan;
        m.peak_temperature = s.metrics.peak_temperature;
        m.dtm_intervals = s.metrics.dtm_intervals;
        m.migrations = s.metrics.migrations;
        m.energy = s.metrics.energy;
        m.simulated_time = s.metrics.simulated_time;
        m.robustness = s.robustness;
        for (name, v) in &s.obs.counters {
            st.obs.set_counter(name, *v);
        }
        for (name, v) in &s.obs.gauges {
            st.obs.set_gauge(name, *v);
        }
        for (name, v) in &s.obs.meta {
            st.obs.set_meta(name, v);
        }

        // The resumed trace continues in place; its t = 0 sample (if
        // traced) is already inside.
        self.trace = s.trace.clone();
        // Warm the decay cache for the fixed dt, discarding the warm-up
        // miss with the captured tallies: every in-run lookup hits, so
        // the final counters match an uninterrupted run.
        self.solver
            .runtime()
            .resume(&[self.config.dt], s.thermal_stats, s.numerics_stats);
        self.ckpt_resumes = 1;
        Ok(st)
    }

    /// Simulates one interval. Returns `Ok(true)` when the workload has
    /// completed.
    fn step_interval(&mut self, st: &mut RunState, scheduler: &mut dyn Scheduler) -> Result<bool> {
        // xtask: allow(nondet) — wall-clock observability timing; the
        // histogram it feeds is excluded from golden outputs.
        let interval_start = Instant::now();
        let n = st.n;
        let dt = st.dt;
        let now = st.now();
        st.metrics.simulated_time = now;
        if st.completed == st.total_jobs {
            return Ok(true);
        }
        if now > self.config.horizon {
            return Err(SimError::HorizonExceeded {
                horizon: self.config.horizon,
                unfinished: st.total_jobs - st.completed,
            });
        }

        // 1. Admission: move arrived jobs into the pending queue.
        while st
            .arrivals
            .front()
            .is_some_and(|j| j.arrival <= now + 1e-12)
        {
            let Some(job) = st.arrivals.pop_front() else {
                break;
            };
            st.pending.push_back(job);
        }

        // True junction temperatures for this interval, shared by the
        // DTM check and the power evaluation (read out at the end of the
        // previous interval's thermal step; the step below replaces
        // them). With faults active, schedulers see the conditioned
        // sensor view built right below instead.
        let mut core_temps = std::mem::take(&mut st.core_temps);

        // 1b. Fault layer: draw this interval's sensor faults and
        // condition the readings into the trusted view.
        if let Some(fr) = st.faults.as_mut() {
            fr.injector.begin_interval();
            let readings: Vec<SensorReading> = (0..n)
                .map(|c| fr.injector.sense(c, core_temps[c]))
                .collect();
            let trusted = fr.conditioner.condition(&readings);
            let min_conf = trusted.min_confidence();
            if min_conf < st.metrics.robustness.min_sensor_confidence {
                st.metrics.robustness.min_sensor_confidence = min_conf;
            }
            if min_conf < SENSOR_DEGRADED_CONFIDENCE && !fr.sensors_degraded {
                fr.sensors_degraded = true;
                self.trace.push_event(
                    now,
                    TraceEventKind::SensorsDegraded,
                    format!("min sensor confidence {min_conf:.2}"),
                );
            } else if min_conf >= SENSOR_DEGRADED_CONFIDENCE && fr.sensors_degraded {
                fr.sensors_degraded = false;
                self.trace.push_event(
                    now,
                    TraceEventKind::SensorsRecovered,
                    format!("min sensor confidence {min_conf:.2}"),
                );
            }
            fr.sensed_temps = Vector::from(trusted.temps_celsius);
            fr.confidence = trusted.confidence;
        }

        // 2. Scheduling hook.
        let mut hook_time = Duration::ZERO;
        if st.step.is_multiple_of(st.sched_every) {
            // The views are built afresh at every hook: kept in the run
            // state and refilled, they made every scheduler's hooks
            // slower (DESIGN.md §6a).
            let thread_views = build_thread_views(&st.active);
            let pending_views: Vec<PendingJobView> = st
                .pending
                .iter()
                .map(|j| PendingJobView {
                    job: j.id,
                    benchmark: j.benchmark,
                    threads: j.spec.thread_count(),
                    arrival: j.arrival,
                })
                .collect();
            st.tallies.sched_hooks += 1;
            // xtask: allow(nondet) — wall-clock observability timing; the
            // histogram it feeds is excluded from golden outputs.
            let hook_start = Instant::now();
            let actions = {
                let (view_temps, view_conf): (&Vector, &[f64]) = match st.faults.as_ref() {
                    Some(fr) => (&fr.sensed_temps, fr.confidence.as_slice()),
                    None => (&core_temps, st.full_confidence.as_slice()),
                };
                let view = SimView {
                    time: now,
                    machine: &self.machine,
                    core_temps: view_temps,
                    levels: &st.levels,
                    occupancy: &st.occupancy,
                    threads: &thread_views,
                    pending: &pending_views,
                    t_dtm: self.config.t_dtm,
                    dtm_active: st.dtm_last_interval,
                    sensor_confidence: view_conf,
                };
                scheduler.schedule(&view)
            };
            let schedule_time = hook_start.elapsed();
            st.tallies
                .schedule
                .observe_seconds(schedule_time.as_secs_f64());
            // xtask: allow(nondet) — wall-clock observability timing; the
            // histogram it feeds is excluded from golden outputs.
            let apply_start = Instant::now();
            Self::apply_actions(&self.machine, &mut self.trace, actions, now, st)?;
            let apply_time = apply_start.elapsed();
            st.tallies
                .apply_actions
                .observe_seconds(apply_time.as_secs_f64());
            hook_time = schedule_time + apply_time;

            // Poll the policy's self-reported health and account
            // fallback transitions.
            let degraded = scheduler.health() != SchedulerHealth::Nominal;
            if degraded {
                st.metrics.robustness.fallback_intervals += 1;
                if !st.sched_was_degraded {
                    st.metrics.robustness.fallback_activations += 1;
                    self.trace.push_event(
                        now,
                        TraceEventKind::FallbackEngaged,
                        format!("scheduler {} degraded", scheduler.name()),
                    );
                }
            } else if st.sched_was_degraded {
                self.trace.push_event(
                    now,
                    TraceEventKind::FallbackRecovered,
                    format!("scheduler {} nominal", scheduler.name()),
                );
            }
            st.sched_was_degraded = degraded;
        }

        // 3. Hardware DTM watchdog: frequency crash while too hot, with
        // a hysteresis latch — engage at `t_dtm`, release only below
        // `t_dtm − dtm_hysteresis_celsius` (a band of 0 reproduces the
        // historical stateless comparison exactly). The watchdog reads
        // the TRUE junction temperatures — hardware DTM has its own
        // thermal-diode path and is not fooled by injected sensor
        // faults; it is the final backstop of the degradation chain.
        let t_dtm = self.config.t_dtm;
        let band = self.config.dtm_hysteresis_celsius;
        let max_temp = core_temps.max();
        let dtm_now = self.config.dtm_enabled
            && (max_temp >= t_dtm || (st.dtm_last_interval && max_temp > t_dtm - band));
        if dtm_now {
            st.metrics.dtm_intervals += 1;
            if !st.dtm_last_interval {
                st.metrics.robustness.watchdog_activations += 1;
                self.trace.push_event(
                    now,
                    TraceEventKind::WatchdogEngaged,
                    format!("peak {max_temp:.3} C reached t_dtm {t_dtm} C"),
                );
            }
        } else if st.dtm_last_interval {
            self.trace.push_event(
                now,
                TraceEventKind::WatchdogReleased,
                format!("peak {max_temp:.3} C below {:.3} C", t_dtm - band),
            );
        }
        st.dtm_last_interval = dtm_now;
        if self.config.dtm_enabled && self.config.dtm_scope == crate::DtmScope::PerCore {
            for core in 0..n {
                let t = core_temps[core];
                let was = st.dtm_core_latch[core];
                st.dtm_core_latch[core] = t >= t_dtm || (was && t > t_dtm - band);
            }
        }
        let min_level = self.machine.config().dvfs.min_level();
        let dtm_enabled = self.config.dtm_enabled;
        let scope = self.config.dtm_scope;
        let core_latch = &st.dtm_core_latch;
        let throttled = |core: usize| match scope {
            crate::DtmScope::Chip => dtm_now,
            crate::DtmScope::PerCore => dtm_enabled && core_latch[core],
        };

        // 4. Performance + power for this interval.
        // xtask: allow(nondet) — wall-clock observability timing; the
        // histogram it feeds is excluded from golden outputs.
        let perf_start = Instant::now();
        for core in 0..n {
            let temp = core_temps[core];
            let level = if throttled(core) {
                min_level
            } else {
                st.levels[core]
            };
            st.power[core] = match st.occupancy[core] {
                None => self.machine.idle_power(temp),
                Some(tid) => {
                    let jr = st
                        .active
                        .get_mut(&tid.job)
                        .ok_or(SimError::UnknownThread(tid))?;
                    let nominal = jr.work_point(tid.index);
                    let t = &mut jr.threads[tid.index];
                    // Migration flush stall eats into the interval.
                    let exec_start = t.stall_until.max(now);
                    let exec_time = ((now + dt) - exec_start).clamp(0.0, dt);
                    let nominal_stack =
                        self.machine
                            .cpi_stack_at_level(&nominal, CoreId(core), level)?;
                    let effective = if now < t.warmup_until {
                        // Cold private caches: the flushed lines refill
                        // through the LLC, bounded by cache capacity.
                        let extra = self
                            .machine
                            .config()
                            .migration
                            .warmup_extra_mpki(nominal_stack.ips());
                        nominal.with_extra_l1_mpki(extra)
                    } else {
                        nominal
                    };
                    let stack = self
                        .machine
                        .cpi_stack_at_level(&effective, CoreId(core), level)?;
                    let retired = (stack.ips() * exec_time) as u64;
                    if let Some(remaining) = t.running {
                        let done = retired.min(remaining);
                        t.instructions_retired += done;
                        t.running = running_with(remaining - done);
                    }
                    t.last_cpi = if nominal.is_idle() {
                        f64::INFINITY
                    } else {
                        nominal_stack.total()
                    };
                    let watts = self.machine.core_power(&stack, level, temp);
                    t.history.push(dt, watts);
                    t.energy += watts * dt;
                    if !nominal.is_idle() {
                        st.busy_freq_integral +=
                            self.machine.config().dvfs.frequency_ghz(level) * dt;
                        st.busy_time += dt;
                    }
                    watts
                }
            };
            // Transient power-spike faults ride on top of whatever the
            // core draws (idle or busy).
            if let Some(fr) = st.faults.as_ref() {
                let spike = fr.injector.power_spike_watts(core);
                if spike > 0.0 {
                    st.power[core] += spike;
                }
            }
        }

        // 5. Exact thermal step for the interval, in modal form: the
        // carried eigen coordinates relax towards this interval's power
        // and the junctions are read out; the other nodes are read out
        // for the envelope guard only when the solver's certificate
        // cannot clear them (DESIGN.md §6a). The fixed `dt` hits the
        // solver's decay cache every interval, so no per-step
        // exponentials are recomputed.
        // xtask: allow(nondet) — wall-clock observability timing; the
        // histogram it feeds is excluded from golden outputs.
        let thermal_start = Instant::now();
        self.solver
            .advance(&self.thermal, &mut st.thermal, &st.power, dt)?;
        let thermal_step = thermal_start.elapsed();
        // Record the (at most one per run) transition onto the dense
        // numerical fallback. Deduplicated against the trace itself so a
        // checkpoint-resumed run does not re-emit the event.
        if self.solver.degraded_unlocked()
            && !self
                .trace
                .events()
                .iter()
                .any(|e| e.kind == TraceEventKind::NumericalDegradation)
        {
            let nu = self.solver.runtime().numerics();
            self.trace.push_event(
                now + dt,
                TraceEventKind::NumericalDegradation,
                format!(
                    "dense fallback engaged (guard trips {}, fallback steps {})",
                    nu.guard_trips, nu.fallback_steps
                ),
            );
        }
        let after = st.thermal.junctions();
        st.metrics.peak_temperature = st.metrics.peak_temperature.max(after.max());
        st.metrics.energy += st.power.sum() * dt;
        if self.config.record_trace {
            self.trace.push(now + dt, after.as_slice().to_vec());
        }
        core_temps.as_mut_slice().copy_from_slice(after.as_slice());
        st.core_temps = core_temps;

        // 6. Barrier release / phase advance / completion.
        let done_ids: Vec<JobId> = st
            .active
            .iter_mut()
            .filter_map(|(&id, jr)| {
                while jr.phase_done() {
                    if !jr.advance_phase() {
                        jr.completed = Some(now + dt);
                        return Some(id);
                    }
                }
                None
            })
            .collect();
        for id in done_ids {
            let Some(jr) = st.active.remove(&id) else {
                continue; // id came from `active` above; a miss is a no-op
            };
            for t in &jr.threads {
                st.occupancy[t.core.index()] = None;
            }
            let completed_at = jr.completed.unwrap_or(now + dt);
            if let Some(rec) = st.records.get_mut(&id) {
                rec.completed = Some(completed_at);
                rec.instructions = jr.threads.iter().map(|t| t.instructions_retired).sum();
                rec.migrations = jr.threads.iter().map(|t| t.migrations).sum();
                rec.energy = jr.threads.iter().map(|t| t.energy).sum();
            }
            st.metrics.makespan = st.metrics.makespan.max(completed_at);
            st.completed += 1;
        }

        st.step += 1;
        let interval = interval_start.elapsed();
        let perf_power = thermal_start.duration_since(perf_start);
        let tallies = &mut st.tallies;
        tallies.interval.observe_seconds(interval.as_secs_f64());
        tallies.perf_power.observe_seconds(perf_power.as_secs_f64());
        tallies
            .thermal_step
            .observe_seconds(thermal_step.as_secs_f64());
        // Bookkeeping is the rest: admission, the fault layer, health
        // polling, the watchdog, the trace, completions.
        let rest = interval.saturating_sub(hook_time + perf_power + thermal_step);
        tallies.bookkeeping.observe_seconds(rest.as_secs_f64());
        Ok(false)
    }

    /// Validates and applies one scheduling hook's action batch.
    ///
    /// With the fault layer active the engine is *lenient* about
    /// migration faults: a requested migration may be silently dropped
    /// by an injected failure, and if the surviving batch no longer
    /// forms a valid permutation the whole batch is dropped (and
    /// counted) instead of aborting the run — schedulers whose internal
    /// bookkeeping has drifted from reality are a symptom of the very
    /// faults under study. Placement and DVFS validation stays strict in
    /// both modes: those failures are policy bugs, not injected faults.
    fn apply_actions(
        machine: &Machine,
        trace: &mut TemperatureTrace,
        actions: Vec<Action>,
        now: f64,
        st: &mut RunState,
    ) -> Result<()> {
        let n = st.occupancy.len();
        let lenient = st.faults.is_some();
        // Phase 1: placements.
        let mut migrations: Vec<(ThreadId, CoreId)> = Vec::new();
        for action in actions {
            match action {
                Action::PlaceJob { job, cores } => {
                    let pos = st
                        .pending
                        .iter()
                        .position(|j| j.id == job)
                        .ok_or(SimError::UnknownJob(job))?;
                    // Validate before removing from the queue so a
                    // failed placement leaves the pending set intact.
                    let threads = st
                        .pending
                        .get(pos)
                        .map(|j| j.spec.thread_count())
                        .unwrap_or(0);
                    if cores.len() != threads {
                        return Err(SimError::PlacementArity {
                            job,
                            threads,
                            cores: cores.len(),
                        });
                    }
                    let mut claimed = vec![false; n];
                    for &c in &cores {
                        if c.index() >= n {
                            return Err(SimError::Floorplan(
                                hp_floorplan::FloorplanError::CoreOutOfRange {
                                    core: c.index(),
                                    cores: n,
                                },
                            ));
                        }
                        // Conflicts both with running threads and with
                        // duplicates inside this very placement.
                        if st.occupancy[c.index()].is_some() || claimed[c.index()] {
                            return Err(SimError::CoreConflict { core: c });
                        }
                        claimed[c.index()] = true;
                    }
                    let j = st.pending.remove(pos).ok_or(SimError::UnknownJob(job))?;
                    let rt = JobRuntime::start(j, &cores);
                    for (index, t) in rt.threads.iter().enumerate() {
                        st.occupancy[t.core.index()] = Some(ThreadId { job, index });
                    }
                    st.records.insert(
                        job,
                        JobRecord {
                            job,
                            benchmark: rt.job.benchmark.name().to_string(),
                            threads: rt.threads.len(),
                            arrival: rt.job.arrival,
                            started: now,
                            completed: None,
                            instructions: 0,
                            migrations: 0,
                            energy: 0.0,
                        },
                    );
                    st.active.insert(job, rt);
                    st.tallies.placements += 1;
                }
                Action::Migrate { thread, to } => migrations.push((thread, to)),
                Action::SetLevel { core, level } => {
                    if core.index() >= n {
                        return Err(SimError::Floorplan(
                            hp_floorplan::FloorplanError::CoreOutOfRange {
                                core: core.index(),
                                cores: n,
                            },
                        ));
                    }
                    machine
                        .config()
                        .dvfs
                        .check(level)
                        .map_err(|_| SimError::InvalidParameter {
                            name: "dvfs level",
                            value: level.index() as f64,
                        })?;
                    st.levels[core.index()] = level;
                    st.tallies.dvfs_sets += 1;
                }
                Action::SetAllLevels { level } => {
                    machine
                        .config()
                        .dvfs
                        .check(level)
                        .map_err(|_| SimError::InvalidParameter {
                            name: "dvfs level",
                            value: level.index() as f64,
                        })?;
                    st.levels.fill(level);
                    st.tallies.dvfs_sets += 1;
                }
            }
        }

        // Phase 2: migrations, applied as one atomic batch so synchronous
        // rotations (cyclic permutations) are expressible.
        if !migrations.is_empty() {
            // Validate sources, roll injected migration faults.
            let mut staged: Vec<(ThreadId, CoreId, CoreId)> = Vec::new(); // (thread, from, to)
            for &(tid, to) in &migrations {
                let source = st
                    .active
                    .get(&tid.job)
                    .and_then(|jr| jr.threads.get(tid.index))
                    .map(|t| t.core);
                let Some(from) = source else {
                    if lenient {
                        // Scheduler bookkeeping drifted after earlier
                        // injected failures; drop just this migration.
                        st.metrics.robustness.dropped_actions += 1;
                        continue;
                    }
                    return Err(SimError::UnknownThread(tid));
                };
                if to.index() >= n {
                    return Err(SimError::Floorplan(
                        hp_floorplan::FloorplanError::CoreOutOfRange {
                            core: to.index(),
                            cores: n,
                        },
                    ));
                }
                if let Some(fr) = st.faults.as_mut() {
                    if fr.injector.migration_fails() {
                        // The injected fault: the request is accepted
                        // but silently never takes effect.
                        continue;
                    }
                }
                staged.push((tid, from, to));
            }
            // Simulate the batch on a copy of the occupancy. A thread has
            // one source core, so a source already vacated is a thread
            // the batch names twice: staged to both destinations, it
            // would leave one of them with a stale occupant.
            let mut next: Vec<Option<ThreadId>> = st.occupancy.to_vec();
            let mut repeated: Option<ThreadId> = None;
            for &(tid, from, _) in &staged {
                if next[from.index()].take().is_none() {
                    repeated = Some(tid);
                    break;
                }
            }
            if let Some(tid) = repeated {
                if lenient {
                    // As for a broken permutation below: drop it all.
                    st.metrics.robustness.dropped_actions += staged.len() as u64;
                    trace.push_event(
                        now,
                        TraceEventKind::ActionsDropped,
                        format!(
                            "dropped {} staged migrations: batch names {tid} more than once",
                            staged.len()
                        ),
                    );
                    return Ok(());
                }
                return Err(SimError::DuplicateMigration(tid));
            }
            let mut conflict: Option<CoreId> = None;
            for &(tid, _, to) in &staged {
                if next[to.index()].is_some() {
                    conflict = Some(to);
                    break;
                }
                next[to.index()] = Some(tid);
            }
            if let Some(core) = conflict {
                if lenient {
                    // Injected failures broke the permutation; applying
                    // a subset would corrupt occupancy, so the whole
                    // batch is dropped and the scheduler retries next
                    // hook with a resynced view.
                    st.metrics.robustness.dropped_actions += staged.len() as u64;
                    trace.push_event(
                        now,
                        TraceEventKind::ActionsDropped,
                        format!(
                            "dropped {} staged migrations: batch no longer a permutation at {core}",
                            staged.len()
                        ),
                    );
                    return Ok(());
                }
                return Err(SimError::CoreConflict { core });
            }
            st.occupancy.copy_from_slice(&next);
            let flush = machine.config().migration.flush_seconds();
            let warmup = machine.config().migration.warmup_seconds();
            for (tid, from, to) in staged {
                if from == to {
                    continue; // no-op migration costs nothing
                }
                let jr = st
                    .active
                    .get_mut(&tid.job)
                    .ok_or(SimError::UnknownThread(tid))?;
                let t = &mut jr.threads[tid.index];
                t.core = to;
                t.stall_until = now + flush;
                t.warmup_until = now + flush + warmup;
                t.migrations += 1;
                st.metrics.migrations += 1;
            }
        }
        Ok(())
    }
}

fn build_thread_views(active: &BTreeMap<JobId, JobRuntime>) -> Vec<ThreadView> {
    let mut out = Vec::new();
    for (&job, jr) in active {
        for (index, t) in jr.threads.iter().enumerate() {
            out.push(ThreadView {
                id: ThreadId { job, index },
                benchmark: jr.job.benchmark,
                core: t.core,
                work: jr.work_point(index),
                last_cpi: t.last_cpi,
                avg_power: t.history.average(),
            });
        }
    }
    out
}
