//! Cross-scheduler conformance: every production scheduler runs the
//! same pinned scenario battery through the campaign runner and must
//! uphold four contracts:
//!
//! 1. **Thermal**: the peak junction temperature never exceeds
//!    `t_dtm + hysteresis` on any battery scenario (the hardware DTM is
//!    the enforcement backstop; a scheduler that leans on it harder
//!    than the hysteresis band is broken).
//! 2. **Determinism**: two same-seed campaigns produce bit-identical
//!    reports once wall-clock histograms are stripped (DESIGN.md §10).
//! 3. **Validity**: the engine validates every emitted action; a run
//!    that completes (rather than aborting) means no scheduler action
//!    was rejected, and every workload job finished.
//! 4. **Observability**: each job's run report round-trips through the
//!    hp-obs `hp-report-v1` parser.

use hp_campaign::{run_campaign, CampaignConfig, CampaignJob, CampaignReport, JobStatus, Workload};
use hp_obs::RunReport;
use hp_sim::SimConfig;
use hp_workload::{Benchmark, Job, JobId};

/// The schedulers under contract: the paper's HotPotato plus every
/// model-driven baseline and extension that manages temperature.
/// (`pinned` and `pcgov` are unmanaged/static baselines — they may
/// violate the threshold by design, so they are exercised for validity
/// and determinism but exempted from the thermal bound.)
const MANAGED: &[&str] = &["hotpotato", "hybrid", "fallback", "pcmig", "tsp"];

/// DTM threshold and hysteresis from `SimConfig::default`.
const T_DTM: f64 = 70.0;
const HYSTERESIS: f64 = 1.0;

/// The pinned scenario battery: mild mixed batches on the 4×4 chip.
/// Loads are chosen so a *working* thermal manager holds the threshold
/// without leaning on the hardware DTM backstop; the heavy fully-loaded
/// cases (where brief DTM trips are acceptable) live in
/// `scheduler_contracts.rs`.
fn battery() -> Vec<(&'static str, Vec<Job>)> {
    let jobs = |specs: &[(Benchmark, usize)]| -> Vec<Job> {
        specs
            .iter()
            .enumerate()
            .map(|(i, &(b, threads))| Job {
                id: JobId(i),
                benchmark: b,
                spec: b.spec(threads),
                arrival: 0.0,
            })
            .collect()
    };
    vec![
        (
            "mixed-light",
            jobs(&[(Benchmark::Blackscholes, 2), (Benchmark::Canneal, 4)]),
        ),
        ("hot-compute", jobs(&[(Benchmark::Swaptions, 4)])),
        (
            "cool-memory",
            jobs(&[(Benchmark::Streamcluster, 2), (Benchmark::Dedup, 2)]),
        ),
    ]
}

/// One campaign job per (scheduler, scenario) pair.
fn conformance_jobs() -> Vec<CampaignJob> {
    let sim = SimConfig {
        horizon: 60.0,
        ..SimConfig::default()
    };
    let mut out = Vec::new();
    for scheduler in MANAGED {
        for (scenario, jobs) in battery() {
            out.push(CampaignJob::new(
                format!("{scheduler}/{scenario}"),
                *scheduler,
                (4, 4),
                Workload::Explicit(jobs),
                sim,
            ));
        }
    }
    out
}

fn run_conformance() -> CampaignReport {
    let jobs = conformance_jobs();
    run_campaign(
        &jobs,
        &CampaignConfig {
            workers: 4,
            ..CampaignConfig::default()
        },
    )
    .expect("campaign infrastructure works")
}

#[test]
fn managed_schedulers_complete_every_scenario_below_the_threshold() {
    let report = run_conformance();
    assert_eq!(report.jobs.len(), MANAGED.len() * battery().len());
    for o in &report.jobs {
        // Contract 3: a completed status means the engine accepted every
        // action the scheduler emitted and the workload drained.
        assert_eq!(
            o.status,
            JobStatus::Completed,
            "{}: {} ({})",
            o.label,
            o.status.label(),
            o.cause
        );
        assert_eq!(
            o.jobs_completed, o.jobs_total,
            "{}: all workload jobs complete",
            o.label
        );
        assert!(
            o.makespan_seconds > 0.0 && o.energy_joules > 0.0,
            "{}: sane scalars",
            o.label
        );
        // Contract 1: never beyond the DTM threshold plus hysteresis.
        assert!(
            o.peak_celsius <= T_DTM + HYSTERESIS,
            "{}: peak {:.2} C exceeds {:.1} C",
            o.label,
            o.peak_celsius,
            T_DTM + HYSTERESIS
        );
    }
}

#[test]
fn conformance_campaign_is_bit_identical_across_runs() {
    // Contract 2: the battery is seeded and pinned, so two fresh
    // campaigns must agree on every counter, gauge, metric and event —
    // only wall-clock histograms may differ.
    let a = run_conformance().without_timings();
    let b = run_conformance().without_timings();
    assert_eq!(
        a.to_json_string(),
        b.to_json_string(),
        "same-seed campaigns diverged"
    );
}

#[test]
fn every_job_report_round_trips_through_hp_obs() {
    // Contract 4: each job's observability report is a valid
    // `hp-report-v1` document.
    let report = run_conformance();
    for o in &report.jobs {
        assert!(!o.report.is_empty(), "{}: report recorded", o.label);
        assert!(
            o.report.counter("engine.intervals").unwrap_or(0) > 0,
            "{}: engine counters present",
            o.label
        );
        let text = hp_sim::codec::pretty(&o.report);
        let parsed = hp_sim::codec::decode_document::<RunReport>(&text)
            .unwrap_or_else(|e| panic!("{}: report does not re-parse: {e}", o.label));
        assert_eq!(parsed, o.report, "{}: round-trip is identity", o.label);
    }
}

#[test]
fn rotation_family_actually_rotates_and_baselines_hold_still() {
    let report = run_conformance();
    let find = |label: &str| {
        report
            .jobs
            .iter()
            .find(|o| o.label == label)
            .unwrap_or_else(|| panic!("missing outcome {label}"))
    };
    // Rotation schedulers move threads on the hot compute scenario.
    for family in ["hotpotato", "hybrid", "fallback"] {
        assert!(
            find(&format!("{family}/hot-compute")).migrations > 0,
            "{family}: rotation must migrate on the hot scenario"
        );
    }
    // TSP manages via DVFS only: no migrations anywhere.
    for (scenario, _) in battery() {
        assert_eq!(
            find(&format!("tsp/{scenario}")).migrations,
            0,
            "tsp never migrates"
        );
    }
}
