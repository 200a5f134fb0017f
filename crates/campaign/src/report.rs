//! The deterministic campaign result document (`hp-campaign-v1`).
//!
//! A [`CampaignReport`] collects one [`JobOutcome`] per expanded job —
//! in job-index order, independent of worker count or completion order —
//! plus a campaign-level hp-obs [`RunReport`] carrying the
//! `campaign.*` counters (cache traffic, job tallies).
//!
//! # Determinism contract
//!
//! Everything in the document except wall-clock histograms inside the
//! embedded run reports is a function of the expanded job list and the
//! seeds (DESIGN.md §11): comparing
//! `report.without_timings().to_json_string()` across runs with
//! different `--jobs` values must be a bit-identical comparison.
//!
//! The document and the resume manifest's lines are declared below on
//! `hp_sim::codec` (DESIGN.md §13), which writes and reads both.

use hp_obs::RunReport;
use hp_sim::codec::{self, Grid, Hex, Labelled};

use crate::error::{CampaignError, Result};

/// Document schema tag.
pub const SCHEMA: &str = "hp-campaign-v1";

/// How a job ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// The workload ran to completion.
    Completed,
    /// The workload ran to completion, but the thermal solver spent at
    /// least part of the run on its verified dense numerical fallback
    /// (`numerics.fallback.activations ≥ 1` in the job report). The
    /// metrics are valid — the dense path is authoritative — but the
    /// eigen fast path was not trusted, which is worth investigating.
    /// Deterministic, so never retried.
    DegradedNumerics,
    /// The engine aborted mid-run ([`hp_sim::SimError::Aborted`]); the
    /// outcome carries the partial metrics and report.
    Aborted,
    /// The job could not be set up (bad scheduler/spec/model); no
    /// simulation output exists.
    Failed,
    /// The job's worker caught a panic; no simulation output exists.
    Panicked,
    /// A supervision watchdog (interval budget or wall-clock deadline)
    /// aborted the job mid-run; partial metrics are retained.
    TimedOut,
}

impl JobStatus {
    /// The status as its JSON label.
    pub fn label(self) -> &'static str {
        match self {
            JobStatus::Completed => "completed",
            JobStatus::DegradedNumerics => "degraded-numerics",
            JobStatus::Aborted => "aborted",
            JobStatus::Failed => "failed",
            JobStatus::Panicked => "panicked",
            JobStatus::TimedOut => "timed-out",
        }
    }

    /// Whether the supervision layer's retry policy applies: setup
    /// failures, panics, and watchdog timeouts are worth another
    /// attempt; completed and (deterministically) aborted jobs are not.
    pub fn is_retryable(self) -> bool {
        matches!(
            self,
            JobStatus::Failed | JobStatus::Panicked | JobStatus::TimedOut
        )
    }
}

impl Labelled for JobStatus {
    const KIND: &'static str = "status";
    const ALL: &'static [Self] = &[
        JobStatus::Completed,
        JobStatus::DegradedNumerics,
        JobStatus::Aborted,
        JobStatus::Failed,
        JobStatus::Panicked,
        JobStatus::TimedOut,
    ];
    fn label(self) -> &'static str {
        JobStatus::label(self)
    }
}

/// The result of one campaign job: scenario coordinates, headline
/// metrics and the job's full observability report.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// The job's stable label (unique within the campaign).
    pub label: String,
    /// Scheduler name.
    pub scheduler: String,
    /// Chip grid `(width, height)`.
    pub grid: (usize, usize),
    /// Canonical workload description.
    pub workload: String,
    /// Spec digest used by the resume manifest.
    pub digest: u64,
    /// How the job ended.
    pub status: JobStatus,
    /// Failure/abort cause (empty for completed jobs).
    pub cause: String,
    /// Makespan, seconds (0 when nothing completed).
    pub makespan_seconds: f64,
    /// Peak junction temperature over the run, °C.
    pub peak_celsius: f64,
    /// Simulated time reached, seconds.
    pub simulated_seconds: f64,
    /// Total energy, joules.
    pub energy_joules: f64,
    /// Busy-time-weighted average core frequency, GHz.
    pub avg_frequency_ghz: f64,
    /// Intervals with the DTM watchdog engaged.
    pub dtm_intervals: u64,
    /// Thread migrations performed.
    pub migrations: u64,
    /// Jobs of the workload that completed.
    pub jobs_completed: usize,
    /// Jobs of the workload in total.
    pub jobs_total: usize,
    /// Whether this outcome was loaded from a resume manifest instead of
    /// being re-run.
    pub resumed: bool,
    /// Execution attempts this outcome took (1 = no retries).
    pub attempts: u32,
    /// Whether the job exhausted its retry budget and was quarantined:
    /// the sweep finished without it and it should not be retried again
    /// without investigation.
    pub quarantined: bool,
    /// Hottest-junction trace series (empty unless the job asked for it).
    pub peak_series: Vec<f64>,
    /// The job's hp-obs run report (timings are wall-clock and excluded
    /// from the determinism contract).
    pub report: RunReport,
}

/// The full result of a campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Per-job outcomes in expansion (job-index) order.
    pub jobs: Vec<JobOutcome>,
    /// Campaign-level counters (`campaign.cache.*`, `campaign.jobs.*`).
    pub campaign: RunReport,
}

impl CampaignReport {
    /// A copy with every wall-clock histogram stripped (per-job and
    /// campaign-level): the seed-deterministic subset, suitable for
    /// bit-identical comparison across worker counts.
    pub fn without_timings(&self) -> CampaignReport {
        CampaignReport {
            jobs: self
                .jobs
                .iter()
                .map(|j| JobOutcome {
                    report: j.report.without_timings(),
                    ..j.clone()
                })
                .collect(),
            campaign: self.campaign.without_timings(),
        }
    }

    /// Outcomes that completed.
    pub fn completed(&self) -> usize {
        self.count(JobStatus::Completed)
    }

    /// Outcomes that completed on the dense numerical fallback.
    pub fn degraded_numerics(&self) -> usize {
        self.count(JobStatus::DegradedNumerics)
    }

    /// Outcomes that aborted mid-run (partials retained).
    pub fn aborted(&self) -> usize {
        self.count(JobStatus::Aborted)
    }

    /// Outcomes that failed to set up.
    pub fn failed(&self) -> usize {
        self.count(JobStatus::Failed)
    }

    /// Outcomes whose worker caught a panic.
    pub fn panicked(&self) -> usize {
        self.count(JobStatus::Panicked)
    }

    /// Outcomes aborted by a supervision watchdog (a job count, not a
    /// duration).
    // xtask: allow(unit) — returns a job count; "time" here names the
    // TimedOut status, not a physical quantity.
    pub fn timed_out(&self) -> usize {
        self.count(JobStatus::TimedOut)
    }

    /// Outcomes that exhausted their retry budget and were quarantined.
    pub fn quarantined(&self) -> usize {
        self.jobs.iter().filter(|j| j.quarantined).count()
    }

    fn count(&self, status: JobStatus) -> usize {
        self.jobs.iter().filter(|j| j.status == status).count()
    }

    /// Serialises to the `hp-campaign-v1` JSON document.
    pub fn to_json_string(&self) -> String {
        codec::pretty(self)
    }

    /// Deserialises an `hp-campaign-v1` JSON document.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Parse`] on malformed JSON, a wrong
    /// schema tag, or a member of the wrong shape, naming the member.
    pub fn from_json_str(src: &str) -> Result<CampaignReport> {
        codec::decode_document(src).map_err(CampaignError::Parse)
    }
}

hp_sim::codec! { #[schema = SCHEMA] CampaignReport { jobs, campaign } }

// Metric keys carry their unit; the supervision members and the report
// default, so manifest lines written before supervision existed (and a
// job entry without its report) still read.
hp_sim::codec!(JobOutcome {
    label,
    scheduler,
    grid: Grid,
    workload,
    digest: Hex,
    status,
    cause,
    makespan_seconds as "makespan_s",
    peak_celsius as "peak_c",
    simulated_seconds as "simulated_s",
    energy_joules as "energy_j",
    avg_frequency_ghz as "avg_freq_ghz",
    dtm_intervals,
    migrations,
    jobs_completed,
    jobs_total,
    resumed = false,
    attempts = 1,
    quarantined = false,
    peak_series,
    report = RunReport::new(),
});

/// One line of the resume manifest: a finished job's outcome without its
/// run report, which is in `file` (relative to the manifest).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ManifestLine {
    pub outcome: JobOutcome,
    pub file: String,
}

hp_sim::codec!(ManifestLine { ..outcome without [report], file });

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> JobOutcome {
        let mut report = RunReport::new();
        report.push_counter("engine.intervals", 42);
        report.push_meta("gemm_backend", "scalar");
        JobOutcome {
            label: "s=hotpotato b=canneal".into(),
            scheduler: "hotpotato".into(),
            grid: (4, 4),
            workload: "closed:canneal:8:42".into(),
            digest: 0xdead_beef,
            status: JobStatus::Completed,
            cause: String::new(),
            makespan_seconds: 0.123456789,
            peak_celsius: 69.25,
            simulated_seconds: 0.2,
            energy_joules: 10.5,
            avg_frequency_ghz: 4.0,
            dtm_intervals: 3,
            migrations: 17,
            jobs_completed: 2,
            jobs_total: 2,
            resumed: false,
            attempts: 1,
            quarantined: false,
            peak_series: vec![45.0, 61.5],
            report,
        }
    }

    #[test]
    fn document_round_trips_exactly() {
        let report = CampaignReport {
            jobs: vec![outcome()],
            campaign: {
                let mut r = RunReport::new();
                r.push_counter("campaign.cache.hits", 3);
                r
            },
        };
        let text = report.to_json_string();
        let parsed = CampaignReport::from_json_str(&text).unwrap();
        assert_eq!(parsed, report);
        // Canonical form is a fixed point.
        assert_eq!(parsed.to_json_string(), text);
    }

    #[test]
    fn without_timings_strips_all_histograms() {
        let mut o = outcome();
        o.report.push_histogram(
            "hook.schedule",
            hp_obs::HistogramSummary {
                count: 1,
                mean_us: 1.0,
                p50_us: 1.0,
                p95_us: 1.0,
                max_us: 1.0,
            },
        );
        let report = CampaignReport {
            jobs: vec![o],
            campaign: RunReport::new(),
        };
        let stripped = report.without_timings();
        assert!(stripped.jobs[0].report.histogram("hook.schedule").is_none());
        assert_eq!(
            stripped.jobs[0].report.counter("engine.intervals"),
            Some(42)
        );
    }

    fn manifest_line(outcome: &JobOutcome) -> String {
        codec::line(&ManifestLine {
            outcome: outcome.clone(),
            file: "job-000.report.json".into(),
        })
    }

    fn read_line(line: &str) -> std::result::Result<JobOutcome, String> {
        codec::decode_document::<ManifestLine>(line).map(|m| m.outcome)
    }

    #[test]
    fn manifest_shape_omits_the_report() {
        let o = outcome();
        let line = manifest_line(&o);
        assert!(!line.contains("\"report\""));
        assert!(line.ends_with(r#""peak_series": [45, 61.5], "file": "job-000.report.json"}"#));
        let parsed = read_line(&line).unwrap();
        assert!(parsed.report.is_empty());
        assert_eq!(parsed.label, o.label);
        assert_eq!(parsed.digest, o.digest);
        assert_eq!(parsed.peak_series, o.peak_series);
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(CampaignReport::from_json_str("{}").is_err());
        assert!(CampaignReport::from_json_str("{\"schema\": \"other\"}").is_err());
        let line = manifest_line(&outcome());
        for (good, bad) in [
            ("\"grid\": \"4x4\"", "\"grid\": \"4by4\""),
            ("\"grid\": \"4x4\"", "\"grid\": \"0x4\""),
            ("\"status\": \"completed\"", "\"status\": \"exploded\""),
            ("\"digest\": \"00000000deadbeef\"", "\"digest\": \"beefy\""),
        ] {
            let err = read_line(&line.replace(good, bad)).expect_err(bad);
            assert!(err.contains(&bad[1..5]), "{bad}: {err}");
        }
    }

    #[test]
    fn rejects_jobs_that_are_not_an_array() {
        let text = CampaignReport {
            jobs: Vec::new(),
            campaign: RunReport::new(),
        }
        .to_json_string()
        .replace("\"jobs\": []", "\"jobs\": {}");
        let err = CampaignReport::from_json_str(&text).expect_err("jobs as an object");
        assert!(err.to_string().contains("`jobs` is not an array"), "{err}");
    }

    #[test]
    fn manifest_line_refuses_an_attempt_count_beyond_u32() {
        let line = manifest_line(&outcome()).replace("\"attempts\": 1", "\"attempts\": 4294967297");
        let err = read_line(&line).expect_err("attempts overflow u32");
        assert!(err.contains("`attempts`"), "{err}");
    }

    #[test]
    fn status_counts() {
        let mut a = outcome();
        a.status = JobStatus::Aborted;
        let report = CampaignReport {
            jobs: vec![outcome(), a],
            campaign: RunReport::new(),
        };
        assert_eq!(report.completed(), 1);
        assert_eq!(report.aborted(), 1);
        assert_eq!(report.failed(), 0);
        assert_eq!(report.panicked(), 0);
        assert_eq!(report.timed_out(), 0);
    }

    #[test]
    fn supervision_statuses_round_trip_and_classify() {
        let mut p = outcome();
        p.status = JobStatus::Panicked;
        p.cause = "panicked: boom".into();
        p.attempts = 3;
        p.quarantined = true;
        let parsed = read_line(&manifest_line(&p)).unwrap();
        assert_eq!(parsed.status, JobStatus::Panicked);
        assert_eq!(parsed.attempts, 3);
        assert!(parsed.quarantined);

        let report = CampaignReport {
            jobs: vec![outcome(), p],
            campaign: RunReport::new(),
        };
        assert_eq!(report.panicked(), 1);
        assert_eq!(report.quarantined(), 1);

        // Pre-supervision manifest lines (no attempts/quarantined keys)
        // still parse, with conservative defaults.
        let legacy =
            manifest_line(&outcome()).replace(", \"attempts\": 1, \"quarantined\": false", "");
        assert!(!legacy.contains("attempts"));
        let parsed = read_line(&legacy).unwrap();
        assert_eq!(parsed.attempts, 1);
        assert!(!parsed.quarantined);
    }
}
