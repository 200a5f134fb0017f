//! Checkpoint/restore chaos suite.
//!
//! The contract under test (DESIGN.md §13): a run interrupted at an
//! arbitrary point and resumed from its last on-disk checkpoint is
//! **bit-identical** — temperature trace, metrics, and the observability
//! report with timings stripped — to the same run left uninterrupted.
//! The interruption is in-process (the supervised interval budget kills
//! the run mid-flight), the interrupt points are drawn pseudo-randomly,
//! and the workload runs under injected sensor faults through the full
//! degradation chain, so the checkpoint must carry RNG cursors, fault
//! state, scheduler bookkeeping, solver cache warmth and the engine's
//! eigen-coordinate thermal state — not just node temperatures. A stiff
//! model stepped on the dense fallback must resume just as exactly.

use std::path::PathBuf;

use hp_faults::FaultPlan;
use hp_floorplan::GridFloorplan;
use hp_manycore::{ArchConfig, Machine};
use hp_sched::{FallbackChain, FallbackConfig};
use hp_sim::{
    EngineCheckpoint, Metrics, RunOptions, Scheduler, SimConfig, SimError, Simulation,
    TemperatureTrace,
};
use hp_thermal::{RcThermalModel, ThermalConfig};
use hp_workload::{closed_batch, Benchmark, Job};

fn machine_4x4() -> Machine {
    Machine::new(ArchConfig {
        grid_width: 4,
        grid_height: 4,
        ..ArchConfig::default()
    })
    .expect("valid 4x4 config")
}

fn model_4x4() -> RcThermalModel {
    RcThermalModel::new(
        &GridFloorplan::new(4, 4).expect("grid"),
        &ThermalConfig::default(),
    )
    .expect("valid thermal config")
}

/// A faulted configuration: moderate sensor dropout keeps the fallback
/// chain busy and exercises the RNG/fault cursors in the checkpoint.
fn faulted_config() -> SimConfig {
    SimConfig {
        horizon: 120.0,
        record_trace: true,
        faults: FaultPlan {
            seed: 1234,
            sensor_dropout_rate: 0.2,
            ..FaultPlan::default()
        },
        ..SimConfig::default()
    }
}

fn jobs() -> Vec<Job> {
    closed_batch(Benchmark::Canneal, 6, 2)
}

fn chain() -> FallbackChain {
    FallbackChain::new(
        model_4x4(),
        hotpotato::HotPotatoConfig::default(),
        FallbackConfig {
            confidence_floor: 0.9,
            hold_hooks: 3,
        },
    )
    .expect("valid chain")
}

fn fresh_sim() -> Simulation {
    Simulation::new(machine_4x4(), ThermalConfig::default(), faulted_config())
        .expect("valid sim config")
}

/// Metrics with wall-clock observability stripped — everything that the
/// bit-identity contract covers.
fn normalized(m: &Metrics) -> Metrics {
    let mut m = m.clone();
    m.observability = m.observability.without_timings();
    m
}

fn scratch_file(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hp-checkpoint-chaos-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(format!("{tag}.ckpt.json"))
}

#[test]
fn interrupted_and_resumed_run_is_bit_identical_to_golden() {
    // --- Golden: the same faulted run, uninterrupted. ---
    let mut golden_sim = fresh_sim();
    let mut golden_sched = chain();
    let golden = golden_sim
        .run(jobs(), &mut golden_sched)
        .expect("golden completes");
    let golden_trace: TemperatureTrace = golden_sim.trace().clone();
    let dt = 100e-6; // SimConfig::default().dt
    let total_intervals = (golden.makespan / dt).round() as u64;
    assert!(total_intervals > 200, "workload long enough to interrupt");

    // Pseudo-random interrupt points: a tiny LCG keeps the test
    // deterministic while still sampling fresh points per constant seed.
    let mut lcg: u64 = 0x5eed_cafe;
    let mut next_point = |lo: u64, hi: u64| {
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        lo + (lcg >> 33) % (hi - lo)
    };

    let ckpt_every_s = 25e-3; // a checkpoint every 25 simulated ms

    for round in 0..3 {
        // Interrupt strictly after the first checkpoint boundary.
        let interrupt = next_point(50, total_intervals - 10);
        let path = scratch_file(&format!("round-{round}"));

        // --- Interrupted leg: budget watchdog kills the run mid-flight,
        //     periodic checkpoints land on disk. ---
        let mut sim = fresh_sim();
        let mut sched = chain();
        let err = sim
            .run_with_options(
                jobs(),
                &mut sched,
                &RunOptions {
                    checkpoint_every_seconds: Some(ckpt_every_s),
                    checkpoint_path: Some(path.clone()),
                    max_intervals: Some(interrupt),
                    ..RunOptions::default()
                },
            )
            .expect_err("interval budget must abort the run");
        match &err {
            SimError::Aborted { cause, .. } => {
                assert!(
                    matches!(**cause, SimError::IntervalBudgetExhausted { .. }),
                    "unexpected abort cause: {cause}"
                );
            }
            other => panic!("expected Aborted, got {other}"),
        }
        assert!(
            err.partial_metrics().is_some(),
            "watchdog abort preserves partial metrics"
        );

        // --- Resumed leg: fresh engine + fresh scheduler, state from the
        //     last checkpoint on disk. ---
        let doc = std::fs::read_to_string(&path).expect("checkpoint written");
        assert!(
            doc.contains("\"modal_temps\":["),
            "a healthy run resumes from its carried eigen coordinates"
        );
        let ckpt = EngineCheckpoint::load_from_path(&path).expect("checkpoint loads");
        assert!(ckpt.step() > 0 && ckpt.step() <= interrupt);
        let mut resumed_sim = fresh_sim();
        let mut resumed_sched = chain();
        let resumed = resumed_sim
            .run_with_options(
                jobs(),
                &mut resumed_sched,
                &RunOptions {
                    resume_from: Some(ckpt),
                    ..RunOptions::default()
                },
            )
            .expect("resumed run completes");

        assert_eq!(
            normalized(&resumed),
            normalized(&golden),
            "round {round}: resumed metrics + de-timed report differ from golden \
             (interrupted at interval {interrupt})"
        );
        assert_eq!(
            resumed_sim.trace(),
            &golden_trace,
            "round {round}: resumed temperature trace differs from golden"
        );
        assert_eq!(resumed_sim.checkpoint_resumes(), 1);

        std::fs::remove_file(&path).ok();
    }
}

/// The resume contract, held against every scheduler the CLI and the
/// campaign runner can build (DESIGN.md §13): a policy that keeps state
/// across hooks must carry it through its snapshot. Each runs the CLI's
/// `simulate --grid 4x4 --benchmark blackscholes --cores 16` batch once
/// uninterrupted and once cut 10 intervals after its last 20 ms
/// checkpoint before the end, then resumed with a fresh engine and a
/// fresh scheduler. (PCMig's on-demand migrations come late in this
/// batch: without its predictor sample and cooldown clocks it resumes
/// from step 600 onto a different trajectory.)
#[test]
fn every_scheduler_resumes_bit_identically() {
    use hp_campaign::{
        build_scheduler, CampaignJob, ChipArtifacts, ThermalProfile, Workload, SCHEDULER_NAMES,
    };

    let art = ChipArtifacts::build(4, 4, ThermalProfile::default()).expect("4x4 artifacts");
    let work = || closed_batch(Benchmark::Blackscholes, 16, 42);
    let sim = || {
        Simulation::new(
            machine_4x4(),
            ThermalConfig::default(),
            SimConfig::default(),
        )
        .expect("valid sim config")
    };
    let every = 200; // intervals between checkpoints: 20 ms at dt = 100 µs
    for &name in SCHEDULER_NAMES {
        let workload = Workload::Closed {
            benchmark: Benchmark::Blackscholes,
            cores: 16,
            seed: 42,
        };
        let job = CampaignJob::new(name, name, (4, 4), workload, SimConfig::default());
        let scheduler = || build_scheduler(&job, &art).expect("a known scheduler");
        let golden = sim()
            .run(work(), scheduler().as_mut())
            .expect("uninterrupted run completes");
        let total = golden
            .observability
            .counter("engine.intervals")
            .expect("interval counter");
        let last_boundary = (total - 11) / every * every;
        assert!(last_boundary >= every, "{name}: {total} intervals");

        let path = scratch_file(&format!("contract-{name}"));
        sim()
            .run_with_options(
                work(),
                scheduler().as_mut(),
                &RunOptions {
                    checkpoint_every_seconds: Some(20e-3),
                    checkpoint_path: Some(path.clone()),
                    max_intervals: Some(last_boundary + 10),
                    ..RunOptions::default()
                },
            )
            .expect_err("the interval budget interrupts the run");
        let ckpt = EngineCheckpoint::load_from_path(&path).expect("checkpoint written");
        assert_eq!(ckpt.step(), last_boundary, "{name}");
        let resumed = sim()
            .run_with_options(
                work(),
                scheduler().as_mut(),
                &RunOptions {
                    resume_from: Some(ckpt),
                    ..RunOptions::default()
                },
            )
            .expect("resumed run completes");
        assert_eq!(
            resumed.observability.without_timings(),
            golden.observability.without_timings(),
            "{name}: resumed report differs from the uninterrupted run's"
        );
        assert_eq!(
            normalized(&resumed),
            normalized(&golden),
            "{name}: resumed metrics differ from the uninterrupted run's"
        );
        std::fs::remove_file(&path).ok();
    }
}

/// An `hp-ckpt-v2` document written by an earlier build, committed as is
/// so that a codec change which moves a single byte of the format fails
/// here. It is the last checkpoint (step 1400) of
///
/// ```text
/// hotpotato-cli simulate --grid 4x4 --scheduler fallback --benchmark canneal \
///     --cores 4 --faults plan.json --checkpoint-every 0.01 --checkpoint-dir D
/// ```
///
/// with `plan.json` = `{"seed": 42, "sensor_dropout_rate": 0.3}`: it
/// carries fault state, 267 trace events, 48 modal coordinates and a
/// FallbackChain blob that wraps an escaped HotPotato blob. The fixture
/// is never regenerated — it stands for the documents older binaries
/// wrote.
const OLDER_CHECKPOINT: &str = include_str!("golden/ckpt_v2_fallback_4x4.json");

#[test]
fn checkpoint_from_an_older_binary_verifies_and_reencodes_byte_for_byte() {
    let ckpt = EngineCheckpoint::from_json_str(OLDER_CHECKPOINT).expect("digest verifies");
    assert_eq!(ckpt.step(), 1400);
    assert_eq!(ckpt.to_json_string(), OLDER_CHECKPOINT);

    let doc = hp_obs::json::parse(OLDER_CHECKPOINT).expect("well-formed JSON");
    let blob = doc
        .get("state")
        .and_then(|s| s.get("scheduler"))
        .and_then(|s| s.get("blob"))
        .and_then(hp_obs::json::Json::as_str)
        .expect("a scheduler blob");
    let mut fresh = FallbackChain::new(
        model_4x4(),
        hotpotato::HotPotatoConfig::default(),
        FallbackConfig::default(),
    )
    .expect("valid chain");
    fresh.restore(blob).expect("the chain accepts the blob");
    assert_eq!(fresh.snapshot().as_deref(), Some(blob));
}

#[test]
fn sweep_isolates_panicking_and_hung_jobs_while_the_rest_complete() {
    use hp_campaign::{run_campaign, CampaignConfig, CampaignJob, JobStatus, Workload};

    let job = |label: &str, scheduler: &str, horizon: f64| {
        CampaignJob::new(
            label,
            scheduler,
            (4, 4),
            Workload::Closed {
                benchmark: Benchmark::Blackscholes,
                cores: 4,
                seed: 7,
            },
            SimConfig {
                horizon,
                ..SimConfig::default()
            },
        )
    };

    // Size the interval budget off an unsupervised baseline: generous for
    // the healthy jobs, far below the hung job's 30 s horizon.
    let healthy = vec![job("a", "pinned", 2.0), job("b", "hotpotato", 2.0)];
    let baseline = run_campaign(&healthy, &CampaignConfig::default()).expect("baseline runs");
    assert_eq!(baseline.completed(), 2);
    let dt = 100e-6; // SimConfig::default().dt
    let slowest = baseline
        .jobs
        .iter()
        .map(|j| (j.makespan_seconds / dt) as u64)
        .max()
        .unwrap();
    let budget = slowest * 2 + 1_000;

    let dir = std::env::temp_dir().join(format!("hp-chaos-sweep-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut jobs = healthy;
    jobs.push(job("boom", "chaos-panic", 2.0));
    jobs.push(job("hung", "chaos-stall", 30.0));
    let config = CampaignConfig {
        workers: 2,
        out_dir: Some(dir.clone()),
        retries: 1,
        job_interval_budget: Some(budget),
        ..CampaignConfig::default()
    };
    let report = run_campaign(&jobs, &config).expect("sweep survives chaos jobs");

    // Healthy neighbours are untouched by the chaos jobs.
    assert_eq!(report.jobs[0].status, JobStatus::Completed);
    assert_eq!(report.jobs[1].status, JobStatus::Completed);
    assert_eq!(report.jobs[0].attempts, 1);
    assert_eq!(
        report.jobs[0].report.without_timings(),
        baseline.jobs[0].report.without_timings(),
        "supervision must not perturb healthy jobs"
    );

    // The panicking job was caught, retried once, then quarantined.
    let boom = &report.jobs[2];
    assert_eq!(boom.status, JobStatus::Panicked);
    assert!(boom.cause.contains("chaos-panic"), "{}", boom.cause);
    assert_eq!(boom.attempts, 2);
    assert!(boom.quarantined);

    // The hung job hit the deterministic watchdog with partials intact.
    let hung = &report.jobs[3];
    assert_eq!(hung.status, JobStatus::TimedOut);
    assert!(hung.cause.contains("interval budget"), "{}", hung.cause);
    assert!(hung.simulated_seconds > 0.0, "partials retained");
    assert!(hung.quarantined);

    assert_eq!(report.campaign.counter("campaign.quarantine"), Some(2));
    assert_eq!(report.campaign.counter("campaign.retry.attempts"), Some(2));
    assert_eq!(report.campaign.counter("campaign.jobs.completed"), Some(2));

    // The output directory documents the verdicts for post-mortems.
    let manifest = std::fs::read_to_string(dir.join("manifest.jsonl")).expect("manifest");
    assert_eq!(manifest.lines().count(), 4);
    assert!(manifest.contains("\"quarantined\": true"));
    assert!(dir.join("campaign.json").is_file());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_rejects_checkpoint_from_a_different_run() {
    // Checkpoint a faulted canneal batch ...
    let path = scratch_file("wrong-run");
    let mut sim = fresh_sim();
    let mut sched = chain();
    sim.run_with_options(
        jobs(),
        &mut sched,
        &RunOptions {
            checkpoint_every_seconds: Some(25e-3),
            checkpoint_path: Some(path.clone()),
            max_intervals: Some(400),
            ..RunOptions::default()
        },
    )
    .expect_err("budget aborts");
    let ckpt = EngineCheckpoint::load_from_path(&path).expect("loads");

    // ... then try to resume a *different* workload from it.
    let mut other_sim = fresh_sim();
    let mut other_sched = chain();
    let err = other_sim
        .run_with_options(
            closed_batch(Benchmark::Swaptions, 4, 1),
            &mut other_sched,
            &RunOptions {
                resume_from: Some(ckpt),
                ..RunOptions::default()
            },
        )
        .expect_err("spec-hash mismatch must refuse the resume");
    assert!(
        matches!(
            err,
            SimError::Checkpoint(hp_sim::CheckpointError::SpecMismatch { .. })
        ),
        "wrong error: {err}"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn resume_rejects_checkpoint_from_a_different_thermal_model() {
    use hp_sim::schedulers::PinnedScheduler;

    // Checkpoint a pinned batch on the default thermal stack ...
    let config = || SimConfig {
        horizon: 120.0,
        ..SimConfig::default()
    };
    let work = || closed_batch(Benchmark::Blackscholes, 2, 3);
    let path = scratch_file("other-thermal");
    let mut sim = Simulation::new(machine_4x4(), ThermalConfig::default(), config())
        .expect("valid sim config");
    sim.run_with_options(
        work(),
        &mut PinnedScheduler::new(),
        &RunOptions {
            checkpoint_every_seconds: Some(5e-3),
            checkpoint_path: Some(path.clone()),
            max_intervals: Some(100),
            ..RunOptions::default()
        },
    )
    .expect_err("interval budget must abort the run");
    let ckpt = EngineCheckpoint::load_from_path(&path).expect("checkpoint loads");

    // ... and resume it on a stack with a weaker heat sink: same machine,
    // config, workload and scheduler, but the saved eigen coordinates
    // belong to another basis.
    let weaker_sink = ThermalConfig {
        g_sink_ambient: 0.12,
        ..ThermalConfig::default()
    };
    let mut other_sim =
        Simulation::new(machine_4x4(), weaker_sink, config()).expect("valid sim config");
    let err = other_sim
        .run_with_options(
            work(),
            &mut PinnedScheduler::new(),
            &RunOptions {
                resume_from: Some(ckpt),
                ..RunOptions::default()
            },
        )
        .expect_err("a foreign basis must refuse the resume");
    assert!(
        matches!(
            err,
            SimError::Checkpoint(hp_sim::CheckpointError::SpecMismatch { .. })
        ),
        "wrong error: {err}"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn ill_conditioned_run_resumes_bit_identically_on_the_dense_fallback() {
    use hp_sim::schedulers::PinnedScheduler;

    // The stiff profile arms the dense fallback at construction: the
    // engine steps in node space from the first interval, the checkpoint
    // carries no modal state, and the resumed run must still match.
    let stiff_sim = || {
        Simulation::new(
            machine_4x4(),
            ThermalConfig::ill_conditioned(),
            SimConfig {
                horizon: 120.0,
                record_trace: true,
                ..SimConfig::default()
            },
        )
        .expect("valid sim config")
    };
    let work = || closed_batch(Benchmark::Blackscholes, 2, 3);

    let mut golden_sim = stiff_sim();
    let golden = golden_sim
        .run(work(), &mut PinnedScheduler::new())
        .expect("stiff run completes on the dense path");
    assert_eq!(
        golden
            .observability
            .counter("numerics.fallback.activations"),
        Some(1)
    );
    let total_intervals = golden
        .observability
        .counter("engine.intervals")
        .unwrap_or(0);
    assert!(total_intervals > 100, "workload long enough to interrupt");

    let path = scratch_file("ill-conditioned");
    let mut sim = stiff_sim();
    sim.run_with_options(
        work(),
        &mut PinnedScheduler::new(),
        &RunOptions {
            checkpoint_every_seconds: Some(5e-3),
            checkpoint_path: Some(path.clone()),
            max_intervals: Some(total_intervals / 2),
            ..RunOptions::default()
        },
    )
    .expect_err("interval budget must abort the run");
    let doc = std::fs::read_to_string(&path).expect("checkpoint written");
    assert!(doc.contains("\"modal_temps\":null"), "node-space state");
    let ckpt = EngineCheckpoint::load_from_path(&path).expect("checkpoint loads");
    let mut resumed_sim = stiff_sim();
    let resumed = resumed_sim
        .run_with_options(
            work(),
            &mut PinnedScheduler::new(),
            &RunOptions {
                resume_from: Some(ckpt),
                ..RunOptions::default()
            },
        )
        .expect("resumed run completes");
    assert_eq!(normalized(&resumed), normalized(&golden));
    assert_eq!(resumed_sim.trace(), golden_sim.trace());
    std::fs::remove_file(&path).ok();
}
