//! The `fig4a` campaign through `SweepSpec::expand` + `run_campaign` —
//! the path of `fig4a` and `hp sweep`: hotpotato, pcmig and hybrid × the
//! 8 PARSEC closed batches that fill the 8×8 chip, horizon 120 s, with
//! the model cache on, so one build inside `run_campaign` serves all 24
//! jobs.
//!
//! A run repeats the campaign on the same inputs, a number of rounds
//! fixed by `--seconds`; `wall_s` and `intervals_per_s` are medians over
//! the rounds. `run_campaign` builds its schedulers itself, so hook times
//! and response times come from replays of the same 24 jobs through
//! `build_scheduler` and `Simulation::with_thermal` under the hook
//! wrapper; the gate checks that every replay reproduces the campaign.
//! `setup_s` is the median of `ChipArtifacts::build`, the one build a
//! campaign makes.

use std::time::Instant;

use hp_campaign::{
    build_scheduler, run_campaign, CampaignConfig, CampaignJob, CampaignReport, ChipArtifacts,
    JobStatus, SweepSpec, ThermalProfile,
};
use hp_sim::{Metrics as SimMetrics, Simulation};
use hp_workload::Benchmark;

use crate::hook::{HookSample, HookTrace, TimedScheduler};
use crate::host::{self, Reference};
use crate::layers::{histogram_s, PerLayer};
use crate::open::secs;
use crate::output::{Metrics, Verdict};
use crate::spans::{total_and_self_ns, Span, SpanLog};
use crate::stats::{mean, median};
use crate::workloads::{hook_figures, peak_limit_celsius, Outcome, SETUP_SAMPLES};
use crate::Args;

/// The baselines and the policy under test, in `fig4a`'s order.
pub const SCHEDULERS: [&str; 3] = ["hotpotato", "pcmig", "hybrid"];

/// Each this many seconds of `--seconds` buy one campaign: on the
/// reference host (2-vCPU Xeon) a campaign takes 2.5 s, and the rest
/// pays for the replays, the traced twin and the set-up builds.
const SECONDS_PER_ROUND: f64 = 6.0;

/// Each this many seconds of `--seconds` buy one replay (5 s there).
const SECONDS_PER_REPLAY: f64 = 10.0;

/// The `fig4a` sweep with the run's seed on the generator axis.
pub fn spec(seed: u64) -> SweepSpec {
    let mut spec = SweepSpec::new(SCHEDULERS);
    spec.benchmarks = Benchmark::all()
        .iter()
        .map(|b| b.name().to_string())
        .collect();
    spec.grids = vec![(8, 8)];
    spec.horizon_seconds = 120.0;
    spec.seeds = vec![seed];
    spec
}

/// Two workers, never more than the host has; model cache on.
pub fn config() -> CampaignConfig {
    CampaignConfig {
        workers: host::nproc().min(2),
        cache_enabled: true,
        ..CampaignConfig::default()
    }
}

/// One `expand` + `run_campaign`.
struct Round {
    wall_s: f64,
    campaign_s: f64,
    jobs: Vec<CampaignJob>,
    report: CampaignReport,
}

fn round(seed: u64, log: Option<(&mut SpanLog, u32)>) -> Result<Round, String> {
    let t0 = Instant::now();
    let jobs = spec(seed)
        .expand()
        .map_err(|e| format!("SweepSpec::expand: {e}"))?;
    let t1 = Instant::now();
    let report = run_campaign(&jobs, &config()).map_err(|e| format!("run_campaign: {e}"))?;
    let t2 = Instant::now();
    if let Some((log, group)) = log {
        let root = log.push(Span {
            name: "sweep",
            tag: "",
            group,
            parent: None,
            start_ns: log.offset_ns(t0),
            end_ns: log.offset_ns(t2),
        });
        for (name, a, b) in [("SweepSpec::expand", t0, t1), ("run_campaign", t1, t2)] {
            let (start_ns, end_ns) = (log.offset_ns(a), log.offset_ns(b));
            log.push(Span {
                name,
                tag: "",
                group,
                parent: Some(root),
                start_ns,
                end_ns,
            });
        }
    }
    Ok(Round {
        wall_s: secs(t0, t2),
        campaign_s: secs(t1, t2),
        jobs,
        report,
    })
}

/// `count` campaigns, the reference kernel sampled before each.
fn rounds(
    seed: u64,
    count: usize,
    reference: &mut Reference,
    mut log: Option<&mut SpanLog>,
) -> Result<Vec<Round>, String> {
    (0..count)
        .map(|k| {
            reference.sample();
            let group = u32::try_from(k).unwrap_or(u32::MAX);
            round(seed, log.as_deref_mut().map(|l| (l, group)))
        })
        .collect()
}

/// The campaign's jobs run one by one under the hook wrapper.
struct Replay {
    metrics: Vec<SimMetrics>,
    hooks: Vec<HookSample>,
}

fn replay(
    jobs: &[CampaignJob],
    art: &ChipArtifacts,
    mut log: Option<&mut SpanLog>,
) -> Result<Replay, String> {
    let mut hooks = Vec::with_capacity(jobs.len() * 1024);
    let mut metrics = Vec::with_capacity(jobs.len());
    for (i, job) in jobs.iter().enumerate() {
        let fail =
            |what: &str, e: &dyn std::fmt::Display| format!("replay {}: {what}: {e}", job.label);
        let mut sched = build_scheduler(job, art).map_err(|e| fail("build_scheduler", &e))?;
        let mut sim = Simulation::with_thermal(
            art.machine.clone(),
            art.model.clone(),
            art.transient.clone(),
            job.sim,
        )
        .map_err(|e| fail("Simulation::with_thermal", &e))?;
        let workload = job.workload.materialize();
        let group = 1000 + u32::try_from(i).unwrap_or(0);
        let m = match log.as_deref_mut() {
            None => sim.run(
                workload,
                &mut TimedScheduler::new(sched.as_mut(), &mut hooks, None),
            ),
            Some(log) => {
                let run = log.begin("Simulation::run", group, None);
                let m = {
                    let trace = HookTrace {
                        log: &mut *log,
                        parent: run,
                        group,
                    };
                    sim.run(
                        workload,
                        &mut TimedScheduler::new(sched.as_mut(), &mut hooks, Some(trace)),
                    )
                };
                log.end(run);
                m
            }
        };
        metrics.push(m.map_err(|e| fail("Simulation::run", &e))?);
    }
    Ok(Replay { metrics, hooks })
}

/// Builds the chip artifacts `SETUP_SAMPLES` times (what a cache miss
/// inside `run_campaign` costs); returns the times and the last build.
fn setups() -> Result<(Vec<f64>, ChipArtifacts), String> {
    let mut times = Vec::with_capacity(SETUP_SAMPLES);
    let mut last = None;
    for _ in 0..SETUP_SAMPLES {
        let t = Instant::now();
        let art = ChipArtifacts::build(8, 8, ThermalProfile::Default)
            .map_err(|e| format!("ChipArtifacts::build: {e}"))?;
        times.push(t.elapsed().as_secs_f64());
        last = Some(art);
    }
    let art = last.ok_or("no set-up build")?;
    Ok((times, art))
}

/// The gate: every campaign job completes within T_DTM + 1 °C without a
/// numerics fallback, the replay under the hook wrapper reproduces each
/// job, and every other campaign (repeats and traced ones) equals the
/// first with timings stripped.
fn gate(first: &Round, others: &[&Round], replays: &[Replay], v: &mut Verdict) {
    let report = &first.report;
    v.attempted = report.jobs.len() as u64;
    if report.jobs.len() != SCHEDULERS.len() * Benchmark::all().len() {
        v.fail(format!("{} campaign jobs, expected 24", report.jobs.len()));
    }
    let misses = report
        .campaign
        .counter("campaign.cache.misses")
        .unwrap_or(0);
    if misses != 1 {
        v.fail(format!("campaign.cache.misses = {misses}, expected 1"));
    }
    let limit = peak_limit_celsius();
    for (i, o) in report.jobs.iter().enumerate() {
        let mut problems = Vec::new();
        if o.status != JobStatus::Completed || o.jobs_completed != o.jobs_total {
            problems.push(format!(
                "{} ({} of {} jobs completed)",
                o.status.label(),
                o.jobs_completed,
                o.jobs_total
            ));
        }
        if o.peak_celsius.is_nan() || o.peak_celsius > limit {
            problems.push(format!("peak {:.3} C above {limit} C", o.peak_celsius));
        }
        for name in [
            "numerics.fallback.activations",
            "sched.numerics.fallback.activations",
        ] {
            let n = o.report.counter(name).unwrap_or(0);
            if n != 0 {
                problems.push(format!("{name} = {n}"));
            }
        }
        let same = replays.iter().all(|r| {
            r.metrics.get(i).is_some_and(|m| {
                m.makespan == o.makespan_seconds
                    && m.observability.without_timings() == o.report.without_timings()
            })
        });
        if !same {
            problems.push("the replay under the hook wrapper differs".into());
        }
        if !problems.is_empty() {
            v.failed += 1;
            v.fail(format!("{}: {}", o.label, problems.join("; ")));
        }
    }
    let want = report.without_timings();
    if others.iter().any(|r| r.report.without_timings() != want) {
        v.failed = v.attempted;
        v.fail("a repeated or traced campaign differs from the first with timings stripped");
    }
}

/// Runs the sweep workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let count = ((args.seconds / SECONDS_PER_ROUND).round() as usize).max(3);
    if args.trace {
        return run_traced(args, count.div_ceil(2));
    }
    let mut v = Verdict::default();
    let mut reference = Reference::new();
    let plain = rounds(args.seed, count, &mut reference, None)?;
    let (setup_times, art) = setups()?;
    let replays = ((args.seconds / SECONDS_PER_REPLAY).round() as usize).max(1);
    let reps = (0..replays)
        .map(|_| {
            reference.sample();
            replay(&plain[0].jobs, &art, None)
        })
        .collect::<Result<Vec<_>, _>>()?;
    let mut log = SpanLog::with_capacity(8);
    let twin = round(args.seed, Some((&mut log, 0)))?;
    let mut others: Vec<&Round> = plain.iter().skip(1).collect();
    others.push(&twin);
    gate(&plain[0], &others, &reps, &mut v);

    let report = &plain[0].report;
    let intervals: u64 = report
        .jobs
        .iter()
        .map(|o| o.report.counter("engine.intervals").unwrap_or(0))
        .sum();
    let per_replay: Vec<&[HookSample]> = reps.iter().map(|r| r.hooks.as_slice()).collect();
    let (hook_mean, hook_p99) = hook_figures(&per_replay, "replay", &mut v);
    let responses: Vec<f64> = reps[0]
        .metrics
        .iter()
        .flat_map(|m| m.jobs.iter().filter_map(|j| j.response_time()))
        .collect();
    println!(
        "campaigns: {count} x {} jobs on {} workers; hooks from {replays} replay(s)",
        report.jobs.len(),
        config().workers
    );
    let med = |xs: Vec<f64>| median(&xs).unwrap_or(f64::NAN);
    let wall_s = med(plain.iter().map(|r| r.wall_s).collect());
    let setup_s = med(setup_times);
    let ips = med(plain
        .iter()
        .map(|r| intervals as f64 / r.campaign_s)
        .collect());
    println!(
        "this host, unscaled: wall_s {wall_s:.4} setup_s {setup_s:.4} intervals_per_s {ips:.1} \
         hook_us_mean {hook_mean:.3} hook_us_p99 {hook_p99:.3}"
    );
    reference.print();
    let k = reference.scale();
    let mut m = Metrics::default();
    m.put("wall_s", wall_s * k, "s");
    m.put("setup_s", setup_s * k, "s");
    m.put("intervals_per_s", ips / k, "1/s");
    m.put("hook_us_mean", hook_mean * k, "us");
    m.put("hook_us_p99", hook_p99 * k, "us");
    m.put("peak_rss_mb", host::peak_rss_mb().unwrap_or(f64::NAN), "MB");
    m.put(
        "sim_makespan_ms",
        report.jobs.iter().map(|o| o.makespan_seconds * 1e3).sum(),
        "ms",
    );
    m.put(
        "sim_response_ms",
        mean(&responses).map_or(f64::NAN, |r| r * 1e3),
        "ms",
    );
    m.put(
        "sim_peak_c",
        report
            .jobs
            .iter()
            .map(|o| o.peak_celsius)
            .fold(f64::NEG_INFINITY, f64::max),
        "C",
    );
    Ok((m, v, None))
}

fn run_traced(args: &Args, count: usize) -> Result<Outcome, String> {
    let mut v = Verdict::default();
    let mut reference = Reference::new();
    let plain = rounds(args.seed, count, &mut reference, None)?;
    let mut log = SpanLog::with_capacity(64 * 1024);
    let traced = rounds(args.seed, count, &mut reference, Some(&mut log))?;
    let (setup_times, art) = setups()?;
    let rep = replay(&plain[0].jobs, &art, Some(&mut log))?;
    let others: Vec<&Round> = plain.iter().skip(1).chain(&traced).collect();
    gate(&plain[0], &others, std::slice::from_ref(&rep), &mut v);

    let mut pl = PerLayer {
        reference_ms: reference.median_s() * 1e3,
        ..PerLayer::default()
    };
    pl.probe_setup()?;
    let (run_ns, run_self_ns) = total_and_self_ns(log.spans(), "Simulation::run");
    let reports: Vec<_> = rep.metrics.iter().map(|m| &m.observability).collect();
    pl.fill_simulations(
        &reports,
        &rep.hooks,
        run_ns as f64 / 1e9,
        run_self_ns as f64 / 1e9,
    );

    let med = |xs: Vec<f64>| median(&xs).unwrap_or(f64::NAN);
    let last = traced.last().ok_or("no traced campaign")?;
    pl.campaign_run_s = med(traced.iter().map(|r| r.campaign_s).collect());
    let counter = |name: &str| last.report.campaign.counter(name).unwrap_or(0) as f64;
    let (hits, misses) = (
        counter("campaign.cache.hits"),
        counter("campaign.cache.misses"),
    );
    pl.campaign_cache_hit_ratio = hits / (hits + misses);
    let worker_s = config().workers as f64 * last.campaign_s;
    let total = |name: &str| -> f64 {
        last.report
            .jobs
            .iter()
            .map(|o| histogram_s(&o.report, name))
            .sum()
    };
    pl.campaign_worker_busy_frac = total("engine.interval") / worker_s;
    for (k, sched) in SCHEDULERS.iter().enumerate() {
        for o in last.report.jobs.iter().filter(|o| o.scheduler == *sched) {
            pl.campaign_hook_s[k] += histogram_s(&o.report, "hook.schedule");
            pl.campaign_interval_s[k] += histogram_s(&o.report, "engine.interval");
        }
    }
    let plain_wall = med(plain.iter().map(|r| r.wall_s).collect());
    let traced_wall = med(traced.iter().map(|r| r.wall_s).collect());
    pl.trace_overhead_frac = traced_wall / plain_wall - 1.0;
    // Shares of the worker time of one traced campaign.
    pl.setup_frac = med(setup_times) / worker_s;
    pl.thermal_step_frac = total("engine.thermal_step") / worker_s;
    pl.hooks_frac = total("hook.schedule") / worker_s;
    println!(
        "traced: {count} campaign(s) twice; untraced {plain_wall:.3} s, traced {traced_wall:.3} s (medians)"
    );
    Ok((pl.metrics(), v, Some(log)))
}
