//! The parallel campaign executor.
//!
//! [`run_campaign`] drives a job vector over a scoped worker pool: a
//! shared atomic cursor hands out job indices, every worker pulls the
//! chip artifacts for its job from the shared [`ModelCache`], builds its
//! scheduler *inside its own thread* (schedulers are not `Send`), runs
//! the interval engine, and deposits the outcome into the job's slot.
//! Outcomes land in expansion order regardless of which worker finished
//! first, so the assembled [`CampaignReport`] is bit-identical for any
//! `workers` value (timings aside — DESIGN.md §11).
//!
//! With an output directory configured, each finished job writes its own
//! standalone `hp-report-v1` document (`job-NNN.report.json`) and
//! appends one summary line to `manifest.jsonl`; a re-run with
//! `resume = true` reuses every manifest entry whose digest still
//! matches the current expansion, so a crashed sweep continues instead
//! of restarting.

use std::fs;
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use hp_obs::{Registry, RunReport};
use hp_sim::codec;
use hp_sim::{EngineCheckpoint, RunOptions, SimError, Simulation};

use crate::cache::ModelCache;
use crate::error::{CampaignError, Result};
use crate::job::{build_scheduler, CampaignJob};
use crate::report::{CampaignReport, JobOutcome, JobStatus, ManifestLine};

/// File name of the per-campaign resume manifest.
pub const MANIFEST_FILE: &str = "manifest.jsonl";

/// File name of the assembled campaign document.
pub const CAMPAIGN_FILE: &str = "campaign.json";

/// How to drive a campaign.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Worker threads (clamped to at least 1). Results are identical
    /// for any value; only wall-clock time changes.
    pub workers: usize,
    /// Whether the shared [`ModelCache`] memoizes (disable only for A/B
    /// cost measurements).
    pub cache_enabled: bool,
    /// Directory for per-job reports, the manifest and the campaign
    /// document (`None` keeps everything in memory).
    pub out_dir: Option<PathBuf>,
    /// Reuse digest-matching completed jobs from an existing manifest in
    /// `out_dir` instead of re-running them.
    pub resume: bool,
    /// Extra attempts granted to jobs that end in a retryable status
    /// (failed / panicked / timed-out). A job still retryable after
    /// `1 + retries` attempts is quarantined. `0` disables both retry
    /// and quarantine.
    pub retries: u32,
    /// Wall-clock watchdog per attempt, seconds: stragglers are aborted
    /// with their partial metrics and classified
    /// [`JobStatus::TimedOut`]. Wall-clock only decides *whether* a run
    /// is cut short, never what the simulation computes.
    pub job_timeout_seconds: Option<f64>,
    /// Deterministic watchdog per attempt: abort after this many engine
    /// intervals ([`JobStatus::TimedOut`], partials retained).
    pub job_interval_budget: Option<u64>,
    /// Simulated seconds between per-job engine checkpoints
    /// (`job-NNN.ckpt.json` in `out_dir`; requires `out_dir`). With
    /// `resume` a half-finished job continues from its last checkpoint
    /// instead of restarting.
    pub checkpoint_every_seconds: Option<f64>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            workers: 1,
            cache_enabled: true,
            out_dir: None,
            resume: false,
            retries: 0,
            job_timeout_seconds: None,
            job_interval_budget: None,
            checkpoint_every_seconds: None,
        }
    }
}

/// Supervision context for one execution attempt.
struct Attempt<'a> {
    /// Per-job checkpoint file (requires `out_dir` + checkpoint cadence).
    ckpt_path: Option<PathBuf>,
    checkpoint_every_seconds: Option<f64>,
    interval_budget: Option<u64>,
    deadline: Option<Instant>,
    /// Whether to seed the run from an existing on-disk checkpoint.
    try_resume: bool,
    /// Campaign-level retry and checkpoint tallies, shared by workers.
    tallies: &'a Registry,
}

/// Runs every job and assembles the deterministic campaign report.
///
/// Per-job simulation failures never abort the sweep: they fold into
/// the job's [`JobStatus`] (aborted jobs keep their partial metrics and
/// report). Only infrastructure failures — an unwritable output
/// directory — surface as errors.
///
/// # Errors
///
/// Returns [`CampaignError::Io`] when the output directory cannot be
/// created or written.
pub fn run_campaign(jobs: &[CampaignJob], config: &CampaignConfig) -> Result<CampaignReport> {
    let sink = match &config.out_dir {
        Some(dir) => Some(OutputSink::open(dir)?),
        None => None,
    };
    let resumed: Vec<Option<JobOutcome>> = match (&config.out_dir, config.resume) {
        (Some(dir), true) => resume_outcomes(dir, jobs),
        _ => vec![None; jobs.len()],
    };

    let cache = ModelCache::new(config.cache_enabled);
    let pending: Vec<usize> = (0..jobs.len()).filter(|&i| resumed[i].is_none()).collect();
    let slots: Mutex<Vec<Option<JobOutcome>>> = Mutex::new(resumed);
    let cursor = AtomicUsize::new(0);
    let workers = config.workers.max(1).min(pending.len().max(1));
    let tallies = Registry::new();

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                // xtask: allow(relaxed) — work-stealing cursor; fetch_add is
                // atomic regardless of ordering and each index is claimed
                // exactly once. Job output slots are merged under a lock.
                let at = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(&index) = pending.get(at) else {
                    break;
                };
                let outcome = supervise_job(index, &jobs[index], config, &cache, &tallies);
                if let Some(sink) = &sink {
                    sink.record(index, &outcome);
                }
                let mut slots = slots.lock().unwrap_or_else(PoisonError::into_inner);
                if let Some(slot) = slots.get_mut(index) {
                    *slot = Some(outcome);
                }
            });
        }
    });

    let outcomes = slots.into_inner().unwrap_or_else(PoisonError::into_inner);
    let mut report = assemble(outcomes, &cache);
    let counted = tallies.snapshot();
    for name in [
        "campaign.retry.attempts",
        "campaign.retry.succeeded",
        "ckpt.saves",
        "ckpt.resumes",
    ] {
        let value = counted.counter(name).unwrap_or(0);
        report.campaign.push_counter(name, value);
    }
    report.campaign.push_counter(
        "campaign.quarantine",
        report.jobs.iter().filter(|j| j.quarantined).count() as u64,
    );
    if let Some(sink) = &sink {
        sink.finish(&report)?;
    }
    Ok(report)
}

/// Runs one job under the supervision policy: up to `1 + retries`
/// attempts, each with its own watchdogs; a job still in a retryable
/// state after the last attempt is quarantined (when retries are on).
fn supervise_job(
    index: usize,
    job: &CampaignJob,
    config: &CampaignConfig,
    cache: &ModelCache,
    tallies: &Registry,
) -> JobOutcome {
    let ckpt_path = match (&config.out_dir, config.checkpoint_every_seconds) {
        (Some(dir), Some(_)) => Some(dir.join(checkpoint_file_name(index))),
        _ => None,
    };
    let mut attempt_no: u32 = 0;
    loop {
        attempt_no += 1;
        let attempt = Attempt {
            ckpt_path: ckpt_path.clone(),
            checkpoint_every_seconds: config.checkpoint_every_seconds,
            interval_budget: config.job_interval_budget,
            // xtask: allow(nondet) — the wall-clock watchdog only decides
            // *whether* an attempt is cut short (TimedOut vs Completed),
            // never what the simulation computes; the deterministic
            // interval budget is the reproducible variant.
            deadline: config
                .job_timeout_seconds
                .map(|s| Instant::now() + Duration::from_secs_f64(s.max(0.0))),
            // Retries of a checkpointing job continue from the last
            // checkpoint instead of restarting (so watchdog-limited
            // attempts still make forward progress).
            try_resume: config.resume || attempt_no > 1,
            tallies,
        };
        let mut outcome = execute_job(job, cache, &attempt);
        outcome.attempts = attempt_no;
        if !outcome.status.is_retryable() {
            if attempt_no > 1
                && matches!(
                    outcome.status,
                    JobStatus::Completed | JobStatus::DegradedNumerics
                )
            {
                tallies.inc("campaign.retry.succeeded");
            }
            return outcome;
        }
        if attempt_no > config.retries {
            outcome.quarantined = config.retries > 0;
            return outcome;
        }
        tallies.inc("campaign.retry.attempts");
    }
}

/// Runs one attempt of a job against the shared cache; never fails and
/// never unwinds — setup errors, simulation errors, watchdog aborts and
/// panics all fold into the outcome's status.
fn execute_job(job: &CampaignJob, cache: &ModelCache, attempt: &Attempt<'_>) -> JobOutcome {
    let art = match cache.get_or_build(job.grid.0, job.grid.1, job.thermal) {
        Ok(art) => art,
        Err(e) => return failed_outcome(job, &e),
    };
    let mut try_resume = attempt.try_resume;
    let (sim, status, cause, metrics) = loop {
        let mut scheduler = match build_scheduler(job, &art) {
            Ok(s) => s,
            Err(e) => return failed_outcome(job, &e),
        };
        let mut sim = match Simulation::with_thermal(
            art.machine.clone(),
            art.model.clone(),
            art.transient.clone(),
            job.sim,
        ) {
            Ok(sim) => sim,
            Err(e) => return failed_outcome(job, &e),
        };
        let workload = job.workload.materialize();
        let resume_from = match (&attempt.ckpt_path, try_resume) {
            (Some(path), true) => EngineCheckpoint::load_from_path(path).ok(),
            _ => None,
        };
        let resumed_from_ckpt = resume_from.is_some();
        let options = RunOptions {
            checkpoint_every_seconds: if attempt.ckpt_path.is_some() {
                attempt.checkpoint_every_seconds
            } else {
                None
            },
            checkpoint_path: attempt.ckpt_path.clone(),
            resume_from,
            max_intervals: attempt.interval_budget,
            deadline: attempt.deadline,
        };
        // Panic isolation: a scheduler or engine panic poisons this
        // attempt only. `sim` and `scheduler` are plain owned state —
        // both are discarded on unwind, so AssertUnwindSafe is sound.
        let run = catch_unwind(AssertUnwindSafe(|| {
            sim.run_with_options(workload, scheduler.as_mut(), &options)
        }));
        attempt.tallies.add("ckpt.saves", sim.checkpoint_saves());
        attempt
            .tallies
            .add("ckpt.resumes", sim.checkpoint_resumes());
        match run {
            Ok(Ok(m)) => break (sim, JobStatus::Completed, String::new(), m),
            Ok(Err(SimError::Checkpoint(_))) if resumed_from_ckpt => {
                // A stale or foreign on-disk checkpoint (e.g. a previous
                // sweep in the same out_dir): drop it and run fresh.
                if let Some(path) = &attempt.ckpt_path {
                    let _ = fs::remove_file(path);
                }
                try_resume = false;
                continue;
            }
            Ok(Err(SimError::Aborted { cause, partial, .. })) => {
                let timed_out = matches!(
                    &*cause,
                    SimError::IntervalBudgetExhausted { .. } | SimError::DeadlineExceeded
                );
                let status = if timed_out {
                    JobStatus::TimedOut
                } else {
                    JobStatus::Aborted
                };
                break (sim, status, cause.to_string(), *partial);
            }
            // Setup-stage failures inside run() carry no partials.
            Ok(Err(e)) => return failed_outcome(job, &e),
            // `as_ref` (not `&payload`): coercing `&Box<dyn Any>` would
            // unsize the Box itself and defeat the downcasts.
            Err(payload) => return panicked_outcome(job, payload.as_ref()),
        }
    };
    // A completed run whose solver engaged the dense numerical fallback
    // is reclassified: the metrics are valid (the dense path is
    // authoritative), but the degradation must be visible at the
    // campaign level rather than buried in per-job counters.
    let status = if status == JobStatus::Completed && numerics_degraded(&metrics.observability) {
        JobStatus::DegradedNumerics
    } else {
        status
    };
    if matches!(status, JobStatus::Completed | JobStatus::DegradedNumerics) {
        // A finished job's mid-run checkpoint is dead state: drop it so
        // a later resume never tries to continue a completed run.
        if let Some(path) = &attempt.ckpt_path {
            let _ = fs::remove_file(path);
        }
    }
    let jobs_total = job.workload.materialize().len();
    let peak_series = if job.keep_peak_series {
        sim.trace().peak_series()
    } else {
        Vec::new()
    };
    JobOutcome {
        label: job.label.clone(),
        scheduler: job.scheduler.clone(),
        grid: job.grid,
        workload: job.workload.describe(),
        digest: job.digest(),
        status,
        cause,
        makespan_seconds: metrics.makespan,
        peak_celsius: metrics.peak_temperature,
        simulated_seconds: metrics.simulated_time,
        energy_joules: metrics.energy,
        avg_frequency_ghz: metrics.avg_frequency_ghz,
        dtm_intervals: metrics.dtm_intervals,
        migrations: metrics.migrations,
        jobs_completed: metrics.completed_jobs(),
        jobs_total,
        resumed: false,
        attempts: 1,
        quarantined: false,
        peak_series,
        report: metrics.observability,
    }
}

/// Whether a run's report shows the thermal solver degraded to its
/// verified dense fallback: the engine-level `numerics.*` counters, or
/// the scheduler's own rotation-peak solver under the `sched.` prefix.
fn numerics_degraded(report: &RunReport) -> bool {
    [
        "numerics.fallback.activations",
        "sched.numerics.fallback.activations",
    ]
    .iter()
    .any(|name| report.counter(name).unwrap_or(0) >= 1)
}

/// The outcome of a job that never produced simulation output.
fn failed_outcome(job: &CampaignJob, cause: &dyn std::fmt::Display) -> JobOutcome {
    no_output_outcome(job, JobStatus::Failed, cause.to_string())
}

/// The outcome of a job whose attempt unwound: the panic payload (the
/// `&str`/`String` message when one exists) becomes the cause.
fn panicked_outcome(job: &CampaignJob, payload: &(dyn std::any::Any + Send)) -> JobOutcome {
    let message = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string());
    no_output_outcome(job, JobStatus::Panicked, format!("panicked: {message}"))
}

fn no_output_outcome(job: &CampaignJob, status: JobStatus, cause: String) -> JobOutcome {
    JobOutcome {
        label: job.label.clone(),
        scheduler: job.scheduler.clone(),
        grid: job.grid,
        workload: job.workload.describe(),
        digest: job.digest(),
        status,
        cause,
        makespan_seconds: 0.0,
        peak_celsius: 0.0,
        simulated_seconds: 0.0,
        energy_joules: 0.0,
        avg_frequency_ghz: 0.0,
        dtm_intervals: 0,
        migrations: 0,
        jobs_completed: 0,
        jobs_total: 0,
        resumed: false,
        attempts: 1,
        quarantined: false,
        peak_series: Vec::new(),
        report: RunReport::new(),
    }
}

/// Builds the campaign-level report from the ordered outcomes and the
/// cache counters. `Metrics`-less slots (impossible in practice — every
/// pending job writes its slot) degrade to failed placeholders rather
/// than panicking.
fn assemble(outcomes: Vec<Option<JobOutcome>>, cache: &ModelCache) -> CampaignReport {
    let jobs: Vec<JobOutcome> = outcomes
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.unwrap_or_else(|| {
                failed_outcome(
                    &CampaignJob::new(
                        format!("missing-{i}"),
                        "unknown",
                        (1, 1),
                        crate::job::Workload::Explicit(Vec::new()),
                        Default::default(),
                    ),
                    &"no outcome recorded",
                )
            })
        })
        .collect();
    let mut campaign = RunReport::new();
    campaign.push_counter("campaign.cache.hits", cache.hits());
    campaign.push_counter("campaign.cache.misses", cache.misses());
    campaign.push_counter("campaign.jobs.total", jobs.len() as u64);
    let count = |s: JobStatus| jobs.iter().filter(|j| j.status == s).count() as u64;
    campaign.push_counter("campaign.jobs.completed", count(JobStatus::Completed));
    campaign.push_counter(
        "campaign.jobs.degraded_numerics",
        count(JobStatus::DegradedNumerics),
    );
    campaign.push_counter("campaign.jobs.aborted", count(JobStatus::Aborted));
    campaign.push_counter("campaign.jobs.failed", count(JobStatus::Failed));
    campaign.push_counter("campaign.jobs.panicked", count(JobStatus::Panicked));
    campaign.push_counter("campaign.jobs.timed_out", count(JobStatus::TimedOut));
    campaign.push_counter(
        "campaign.jobs.resumed",
        jobs.iter().filter(|j| j.resumed).count() as u64,
    );
    campaign.push_meta(
        "campaign.cache",
        if cache.is_enabled() {
            "enabled"
        } else {
            "disabled"
        },
    );
    CampaignReport { jobs, campaign }
}

/// File name of a job's standalone report document.
fn report_file_name(index: usize) -> String {
    format!("job-{index:03}.report.json")
}

/// File name of a job's mid-run engine checkpoint.
pub(crate) fn checkpoint_file_name(index: usize) -> String {
    format!("job-{index:03}.ckpt.json")
}

/// Loads reusable outcomes from an existing manifest: one slot per
/// current job, filled where a manifest entry's digest matches and its
/// report file still parses. Malformed manifest lines (a crash mid-
/// append) and stale digests are skipped silently — those jobs re-run.
fn resume_outcomes(dir: &Path, jobs: &[CampaignJob]) -> Vec<Option<JobOutcome>> {
    let mut slots: Vec<Option<JobOutcome>> = vec![None; jobs.len()];
    let Ok(manifest) = fs::read_to_string(dir.join(MANIFEST_FILE)) else {
        return slots;
    };
    for line in manifest.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let Ok(ManifestLine { mut outcome, file }) = codec::decode_document(line) else {
            continue;
        };
        let Some(index) = jobs
            .iter()
            .position(|j| j.label == outcome.label && j.digest() == outcome.digest)
        else {
            continue;
        };
        let Ok(report_src) = fs::read_to_string(dir.join(file)) else {
            continue;
        };
        let Ok(report) = codec::decode_document::<RunReport>(&report_src) else {
            continue;
        };
        outcome.report = report;
        outcome.resumed = true;
        if let Some(slot) = slots.get_mut(index) {
            *slot = Some(outcome);
        }
    }
    slots
}

/// Serialized writer for the output directory: per-job report files plus
/// the append-only manifest.
struct OutputSink {
    dir: PathBuf,
    // One lock covers manifest appends *and* the first-error slot;
    // workers record outcomes concurrently.
    state: Mutex<SinkState>,
}

struct SinkState {
    manifest: fs::File,
    first_error: Option<CampaignError>,
}

impl OutputSink {
    fn open(dir: &Path) -> Result<Self> {
        fs::create_dir_all(dir)
            .map_err(|e| CampaignError::Io(format!("create {}: {e}", dir.display())))?;
        // Opened eagerly, before any worker exists, so no file I/O ever
        // happens while the sink lock is held — record() only appends an
        // already-formatted line under the lock.
        let manifest = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join(MANIFEST_FILE))
            .map_err(|e| CampaignError::Io(format!("open {MANIFEST_FILE}: {e}")))?;
        Ok(OutputSink {
            dir: dir.to_path_buf(),
            state: Mutex::new(SinkState {
                manifest,
                first_error: None,
            }),
        })
    }

    /// Writes the job's report document and appends its manifest line.
    /// Errors are latched (first wins) and surfaced by [`Self::finish`].
    fn record(&self, index: usize, outcome: &JobOutcome) {
        let file = report_file_name(index);
        let report_path = self.dir.join(&file);
        let write_result = fs::write(&report_path, codec::pretty(&outcome.report));
        let line = codec::line(&ManifestLine {
            outcome: outcome.clone(),
            file,
        });
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if let Err(e) = write_result {
            if state.first_error.is_none() {
                state.first_error = Some(CampaignError::Io(format!(
                    "write {}: {e}",
                    report_path.display()
                )));
            }
            return;
        }
        if let Err(e) = writeln!(state.manifest, "{line}") {
            if state.first_error.is_none() {
                state.first_error = Some(CampaignError::Io(format!("append {MANIFEST_FILE}: {e}")));
            }
        }
    }

    /// Writes the assembled campaign document and surfaces any latched
    /// per-job IO error.
    fn finish(&self, report: &CampaignReport) -> Result<()> {
        let path = self.dir.join(CAMPAIGN_FILE);
        fs::write(&path, report.to_json_string())
            .map_err(|e| CampaignError::Io(format!("write {}: {e}", path.display())))?;
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        match state.first_error.take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Workload;
    use hp_sim::SimConfig;
    use hp_workload::Benchmark;

    fn quick_job(label: &str, scheduler: &str) -> CampaignJob {
        let sim = SimConfig {
            horizon: 2.0,
            ..SimConfig::default()
        };
        CampaignJob::new(
            label,
            scheduler,
            (4, 4),
            Workload::Closed {
                benchmark: Benchmark::Blackscholes,
                cores: 4,
                seed: 7,
            },
            sim,
        )
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hp-campaign-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn campaign_runs_and_counts_outcomes() {
        let jobs = vec![
            quick_job("a", "hotpotato"),
            quick_job("b", "pinned"),
            quick_job("c", "nonsense"),
        ];
        let report = run_campaign(&jobs, &CampaignConfig::default()).unwrap();
        assert_eq!(report.jobs.len(), 3);
        assert_eq!(report.completed(), 2);
        assert_eq!(report.failed(), 1);
        assert_eq!(report.campaign.counter("campaign.jobs.total"), Some(3));
        // Two jobs share the 4x4 grid: one miss, one hit.
        assert_eq!(report.campaign.counter("campaign.cache.misses"), Some(1));
        assert!(report.campaign.counter("campaign.cache.hits") >= Some(1));
        assert!(report.jobs[2].cause.contains("unknown scheduler"));
    }

    #[test]
    fn aborted_jobs_keep_partials() {
        let mut job = quick_job("tight", "pinned");
        // A horizon far too short for the batch forces HorizonExceeded.
        job.sim.horizon = 0.005;
        let report = run_campaign(&[job], &CampaignConfig::default()).unwrap();
        assert_eq!(report.aborted(), 1);
        let outcome = &report.jobs[0];
        assert!(outcome.cause.contains("horizon"), "{}", outcome.cause);
        assert!(outcome.simulated_seconds > 0.0, "partials retained");
        assert!(!outcome.report.is_empty(), "partial report retained");
    }

    #[test]
    fn output_directory_holds_reports_manifest_and_campaign() {
        let dir = temp_dir("outdir");
        let jobs = vec![quick_job("a", "pinned"), quick_job("b", "pinned")];
        let config = CampaignConfig {
            out_dir: Some(dir.clone()),
            ..CampaignConfig::default()
        };
        let report = run_campaign(&jobs, &config).unwrap();
        assert!(dir.join("job-000.report.json").is_file());
        assert!(dir.join("job-001.report.json").is_file());
        let manifest = fs::read_to_string(dir.join(MANIFEST_FILE)).unwrap();
        assert_eq!(manifest.lines().count(), 2);
        let campaign = fs::read_to_string(dir.join(CAMPAIGN_FILE)).unwrap();
        let parsed = CampaignReport::from_json_str(&campaign).unwrap();
        assert_eq!(parsed.without_timings(), report.without_timings());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_reuses_matching_jobs_and_reruns_drifted_ones() {
        let dir = temp_dir("resume");
        let jobs = vec![quick_job("a", "pinned"), quick_job("b", "pinned")];
        let config = CampaignConfig {
            out_dir: Some(dir.clone()),
            resume: true,
            ..CampaignConfig::default()
        };
        let first = run_campaign(&jobs, &config).unwrap();
        assert_eq!(first.campaign.counter("campaign.jobs.resumed"), Some(0));

        // Same spec: everything resumes, nothing rebuilds.
        let second = run_campaign(&jobs, &config).unwrap();
        assert_eq!(second.campaign.counter("campaign.jobs.resumed"), Some(2));
        assert_eq!(second.campaign.counter("campaign.cache.misses"), Some(0));
        assert!(second.jobs.iter().all(|j| j.resumed));
        assert_eq!(
            second.jobs[0].report.without_timings(),
            first.jobs[0].report.without_timings()
        );

        // Drift one job's config: its digest moves, it re-runs.
        let mut drifted = jobs;
        drifted[1].sim.horizon = 3.0;
        let third = run_campaign(&drifted, &config).unwrap();
        assert_eq!(third.campaign.counter("campaign.jobs.resumed"), Some(1));
        assert!(third.jobs[0].resumed);
        assert!(!third.jobs[1].resumed);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn panicking_job_is_isolated_retried_and_quarantined() {
        let jobs = vec![quick_job("ok", "pinned"), quick_job("boom", "chaos-panic")];
        let config = CampaignConfig {
            retries: 2,
            ..CampaignConfig::default()
        };
        let report = run_campaign(&jobs, &config).unwrap();
        // The healthy job is untouched by its neighbour's panics.
        assert_eq!(report.completed(), 1);
        assert_eq!(report.jobs[0].status, JobStatus::Completed);
        let boom = &report.jobs[1];
        assert_eq!(boom.status, JobStatus::Panicked);
        assert!(boom.cause.contains("chaos-panic"), "{}", boom.cause);
        assert_eq!(boom.attempts, 3, "1 try + 2 retries");
        assert!(boom.quarantined);
        assert_eq!(report.campaign.counter("campaign.retry.attempts"), Some(2));
        assert_eq!(report.campaign.counter("campaign.retry.succeeded"), Some(0));
        assert_eq!(report.campaign.counter("campaign.quarantine"), Some(1));
        assert_eq!(report.campaign.counter("campaign.jobs.panicked"), Some(1));
    }

    #[test]
    fn without_retries_a_panicking_job_fails_once_and_is_not_quarantined() {
        let jobs = vec![quick_job("boom", "chaos-panic")];
        let report = run_campaign(&jobs, &CampaignConfig::default()).unwrap();
        let boom = &report.jobs[0];
        assert_eq!(boom.status, JobStatus::Panicked);
        assert_eq!(boom.attempts, 1);
        assert!(!boom.quarantined, "no retry budget, no quarantine verdict");
        assert_eq!(report.campaign.counter("campaign.quarantine"), Some(0));
    }

    #[test]
    fn stalled_job_hits_the_interval_budget_with_partials() {
        let jobs = vec![quick_job("stall", "chaos-stall")];
        let config = CampaignConfig {
            job_interval_budget: Some(500),
            retries: 1,
            ..CampaignConfig::default()
        };
        let report = run_campaign(&jobs, &config).unwrap();
        let stall = &report.jobs[0];
        assert_eq!(stall.status, JobStatus::TimedOut);
        assert!(stall.cause.contains("interval budget"), "{}", stall.cause);
        assert!(stall.simulated_seconds > 0.0, "partials retained");
        assert_eq!(stall.attempts, 2);
        assert!(stall.quarantined);
        assert_eq!(report.campaign.counter("campaign.jobs.timed_out"), Some(1));
    }

    #[test]
    fn expired_wall_clock_deadline_times_a_job_out() {
        let jobs = vec![quick_job("late", "pinned")];
        let config = CampaignConfig {
            job_timeout_seconds: Some(0.0),
            ..CampaignConfig::default()
        };
        let report = run_campaign(&jobs, &config).unwrap();
        let late = &report.jobs[0];
        assert_eq!(late.status, JobStatus::TimedOut);
        assert!(late.cause.contains("deadline"), "{}", late.cause);
        assert!(!late.quarantined, "retries are off");
    }

    #[test]
    fn mid_job_checkpoints_turn_retries_into_forward_progress() {
        let dir = temp_dir("ckpt-retry");
        let job = quick_job("steady", "pinned");
        let golden = run_campaign(std::slice::from_ref(&job), &CampaignConfig::default()).unwrap();
        assert_eq!(golden.completed(), 1);

        // Each attempt gets an interval budget at a quarter of the full
        // run, but checkpoints + retry-resume accumulate progress until
        // the job completes — and the stitched-together run must report
        // bit-identically to the uninterrupted golden.
        let dt = 100e-6; // SimConfig::default().dt
        let total_intervals = (golden.jobs[0].makespan_seconds / dt) as u64;
        let budget = (total_intervals / 4).max(200);
        let config = CampaignConfig {
            out_dir: Some(dir.clone()),
            retries: 10,
            job_interval_budget: Some(budget),
            checkpoint_every_seconds: Some(budget as f64 / 4.0 * dt),
            ..CampaignConfig::default()
        };
        let report = run_campaign(&[job], &config).unwrap();
        let steady = &report.jobs[0];
        assert_eq!(steady.status, JobStatus::Completed, "{}", steady.cause);
        assert!(steady.attempts > 1, "budget forces at least one retry");
        assert!(!steady.quarantined);
        assert_eq!(report.campaign.counter("campaign.retry.succeeded"), Some(1));
        assert!(report.campaign.counter("ckpt.saves") > Some(0));
        assert!(report.campaign.counter("ckpt.resumes") > Some(0));
        assert_eq!(steady.makespan_seconds, golden.jobs[0].makespan_seconds);
        assert_eq!(
            steady.report.without_timings(),
            golden.jobs[0].report.without_timings()
        );
        assert!(
            !dir.join(checkpoint_file_name(0)).exists(),
            "completed job's checkpoint is cleaned up"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn ill_conditioned_jobs_complete_as_degraded_numerics() {
        // The headline numerical-integrity drill: a stiff thermal profile
        // arms the dense fallback, the job still finishes, the campaign
        // surfaces the degradation as a first-class status, and the whole
        // thing is bit-identical across reruns.
        let mut job = quick_job("stiff", "hotpotato");
        job.thermal = crate::ThermalProfile::IllConditioned;
        let jobs = [job];
        let first = run_campaign(&jobs, &CampaignConfig::default()).unwrap();
        let stiff = &first.jobs[0];
        assert_eq!(stiff.status, JobStatus::DegradedNumerics, "{}", stiff.cause);
        assert_eq!(stiff.jobs_completed, stiff.jobs_total, "workload finished");
        assert!(
            stiff
                .report
                .counter("sched.numerics.fallback.activations")
                .unwrap_or(0)
                >= 1,
            "rotation solver must report dense activations"
        );
        assert_eq!(stiff.report.counter("sched.numerics.degraded"), Some(1));
        assert!(!stiff.quarantined, "deterministic outcome, never retried");
        assert_eq!(
            first.campaign.counter("campaign.jobs.degraded_numerics"),
            Some(1)
        );
        assert_eq!(first.degraded_numerics(), 1);
        assert_eq!(first.completed(), 0);

        let second = run_campaign(&jobs, &CampaignConfig::default()).unwrap();
        assert_eq!(
            second.without_timings(),
            first.without_timings(),
            "degraded runs stay bit-identical across reruns"
        );
    }

    #[test]
    fn corrupt_manifest_lines_are_skipped() {
        let dir = temp_dir("corrupt");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(MANIFEST_FILE), "{not json\n").unwrap();
        let jobs = vec![quick_job("a", "pinned")];
        let config = CampaignConfig {
            out_dir: Some(dir.clone()),
            resume: true,
            ..CampaignConfig::default()
        };
        let report = run_campaign(&jobs, &config).unwrap();
        assert_eq!(report.campaign.counter("campaign.jobs.resumed"), Some(0));
        assert_eq!(report.completed(), 1);
        let _ = fs::remove_dir_all(&dir);
    }
}
