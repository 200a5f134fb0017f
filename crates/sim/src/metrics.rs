use hp_workload::JobId;

/// Outcome of one job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// The job.
    pub job: JobId,
    /// Benchmark name.
    pub benchmark: String,
    /// Threads the job ran with.
    pub threads: usize,
    /// Arrival time, s.
    pub arrival: f64,
    /// Time the job started executing, s.
    pub started: f64,
    /// Completion time, s (`None` if the run ended first).
    pub completed: Option<f64>,
    /// Total instructions retired by the job.
    pub instructions: u64,
    /// Total thread migrations the job experienced.
    pub migrations: u64,
    /// Energy drawn by the job's cores while it ran, J.
    pub energy: f64,
}

impl JobRecord {
    /// Response time (completion − arrival), seconds, if the job
    /// completed.
    pub fn response_time(&self) -> Option<f64> {
        self.completed.map(|c| c - self.arrival)
    }
}

/// Degradation accounting for one run: how much sensor/migration/power
/// abuse the fault layer injected and how often each rung of the
/// fallback ladder (scheduler fallback → DTM watchdog) had to act.
///
/// All counters are zero (and `min_sensor_confidence` is `1.0`) for a
/// run without faults and without DTM engagement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Robustness {
    /// Whether the fault layer was engaged at all this run.
    pub faults_enabled: bool,
    /// Sensor readings perturbed by Gaussian noise.
    pub noisy_readings: u64,
    /// Sensor readings served from a stuck sensor.
    pub stuck_readings: u64,
    /// Sensor readings dropped entirely.
    pub sensor_dropouts: u64,
    /// Requested migrations that silently failed due to injected faults.
    pub migration_faults: u64,
    /// Transient power spikes injected.
    pub power_spikes: u64,
    /// Scheduler actions the engine dropped in lenient (fault) mode
    /// because injected failures had invalidated them.
    pub dropped_actions: u64,
    /// Lowest per-core sensor confidence seen over the run (1.0 = every
    /// reading fresh).
    pub min_sensor_confidence: f64,
    /// Scheduling hooks at which the scheduler reported a degraded
    /// health state (e.g. running on its fallback policy).
    pub fallback_intervals: u64,
    /// Transitions of the scheduler from nominal into a degraded state.
    pub fallback_activations: u64,
    /// Intervals the DTM watchdog spent engaged (same quantity as
    /// `Metrics::dtm_intervals`, duplicated here so the robustness block
    /// is self-contained).
    pub watchdog_intervals: u64,
    /// Times the DTM watchdog newly engaged (rising edges of the
    /// hysteresis latch).
    pub watchdog_activations: u64,
}

impl Default for Robustness {
    fn default() -> Self {
        Robustness {
            faults_enabled: false,
            noisy_readings: 0,
            stuck_readings: 0,
            sensor_dropouts: 0,
            migration_faults: 0,
            power_spikes: 0,
            dropped_actions: 0,
            min_sensor_confidence: 1.0,
            fallback_intervals: 0,
            fallback_activations: 0,
            watchdog_intervals: 0,
            watchdog_activations: 0,
        }
    }
}

/// Aggregate results of a simulation run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Metrics {
    /// Per-job outcomes, in job-id order.
    pub jobs: Vec<JobRecord>,
    /// Time the last job completed (the makespan for a closed workload), s.
    pub makespan: f64,
    /// Hottest junction temperature observed, °C.
    pub peak_temperature: f64,
    /// Number of simulation intervals the hardware DTM throttled the chip.
    pub dtm_intervals: u64,
    /// Total thread migrations applied.
    pub migrations: u64,
    /// Total chip energy, J.
    pub energy: f64,
    /// Total simulated time, s.
    pub simulated_time: f64,
    /// Busy-core-time-weighted average clock frequency, GHz (captures the
    /// DVFS/DTM throttling a scheduler imposed; 0 if nothing ran).
    pub avg_frequency_ghz: f64,
    /// Scheduler name that produced this run.
    pub scheduler: String,
    /// Fault-injection and degradation accounting (all-zero when the
    /// fault layer was inert and DTM never engaged).
    pub robustness: Robustness,
    /// Engine/solver/scheduler observability: counters, gauges and
    /// scheduler-hook wall-clock histograms (DESIGN.md §10). Counters
    /// and gauges are seed-deterministic; histograms are wall-clock
    /// measurements and differ between runs — compare metrics across
    /// same-seed runs via
    /// [`RunReport::without_timings`](hp_obs::RunReport::without_timings).
    pub observability: hp_obs::RunReport,
}

impl Metrics {
    /// Number of jobs that completed.
    pub fn completed_jobs(&self) -> usize {
        self.jobs.iter().filter(|j| j.completed.is_some()).count()
    }

    /// Mean response time over completed jobs, s.
    ///
    /// Returns `None` if no job completed.
    pub fn mean_response_time(&self) -> Option<f64> {
        let times: Vec<f64> = self.jobs.iter().filter_map(|j| j.response_time()).collect();
        if times.is_empty() {
            return None;
        }
        Some(times.iter().sum::<f64>() / times.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(completed: Option<f64>) -> JobRecord {
        JobRecord {
            job: JobId(0),
            benchmark: "x".into(),
            threads: 2,
            arrival: 1.0,
            started: 1.0,
            completed,
            instructions: 100,
            migrations: 0,
            energy: 1.0,
        }
    }

    #[test]
    fn response_time_requires_completion() {
        assert_eq!(record(None).response_time(), None);
        assert_eq!(record(Some(3.5)).response_time(), Some(2.5));
    }

    #[test]
    fn mean_response_time_skips_incomplete() {
        let m = Metrics {
            jobs: vec![record(Some(2.0)), record(None), record(Some(4.0))],
            ..Metrics::default()
        };
        assert_eq!(m.completed_jobs(), 2);
        assert_eq!(m.mean_response_time(), Some(2.0));
    }

    #[test]
    fn empty_metrics_have_no_mean() {
        assert_eq!(Metrics::default().mean_response_time(), None);
    }

    #[test]
    fn default_robustness_is_clean() {
        let r = Robustness::default();
        assert!(!r.faults_enabled);
        assert_eq!(r.min_sensor_confidence, 1.0);
        assert_eq!(r.fallback_activations, 0);
        assert_eq!(r.watchdog_activations, 0);
    }
}
