//! Subcommand implementations.

use std::error::Error;
use std::fs::File;
use std::io::BufWriter;

use hotpotato::{EpochPowerSequence, RotationPeakSolver};
use hp_faults::FaultPlan;
use hp_floorplan::GridFloorplan;
use hp_linalg::Vector;
use hp_manycore::{ArchConfig, Machine};
use hp_obs::RunReport;
use hp_power::IDLE_WATTS;
use hp_sim::codec;
use hp_sim::{EngineCheckpoint, Metrics, RunOptions, SimConfig, Simulation};
use hp_thermal::{tsp, RcThermalModel, ThermalConfig};
use hp_workload::{closed_batch, open_poisson, Benchmark, Job, JobId};

use hp_campaign::{
    build_scheduler, run_campaign, CampaignConfig, CampaignJob, CampaignReport, ChipArtifacts,
    SweepSpec, ThermalProfile, Workload, SCHEDULER_NAMES,
};

use crate::args::ParsedArgs;

type CliResult = Result<(), Box<dyn Error>>;

/// Marker error for a simulation that aborted mid-run *after* flushing
/// its partial trace/report. `main` maps it to a distinct exit code
/// (2) so callers can tell "failed, but partials exist" from plain
/// failures (1).
#[derive(Debug)]
pub struct AbortedRun(pub String);

impl std::fmt::Display for AbortedRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl Error for AbortedRun {}

/// Marker error for a sweep that finished but left unhealthy jobs.
/// `main` maps it to exit 4 when any job was quarantined (retry budget
/// exhausted — needs investigation) and exit 3 for plain failures
/// (failed / panicked / timed-out), so batch wrappers can branch.
#[derive(Debug)]
pub struct SweepHealth {
    /// Human-readable verdict.
    pub message: String,
    /// Exit code to report (3 or 4).
    pub exit: u8,
}

impl std::fmt::Display for SweepHealth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl Error for SweepHealth {}

fn machine(w: usize, h: usize) -> Result<Machine, Box<dyn Error>> {
    Ok(Machine::new(ArchConfig {
        grid_width: w,
        grid_height: h,
        ..ArchConfig::default()
    })?)
}

fn model(w: usize, h: usize) -> Result<RcThermalModel, Box<dyn Error>> {
    Ok(RcThermalModel::new(
        &GridFloorplan::new(w, h)?,
        &ThermalConfig::default(),
    )?)
}

/// `rings`: print the AMD ring decomposition.
pub fn rings(args: &ParsedArgs) -> CliResult {
    let (w, h) = args.grid_or("grid", 8, 8)?;
    let machine = machine(w, h)?;
    let fp = machine.floorplan();
    let rings = machine.rings();
    println!("{w}x{h} grid, {} AMD rings", rings.len());
    for y in 0..h {
        let row: Vec<String> = (0..w)
            .map(|x| {
                let core = fp.core_at(x, y).expect("coordinate in range");
                format!("{:>2}", rings.ring_of(core).index())
            })
            .collect();
        println!("  {}", row.join(" "));
    }
    println!("{:>5} {:>6} {:>7} {:>10}", "ring", "slots", "AMD", "LLC ns");
    for (i, ring) in rings.iter().enumerate() {
        println!(
            "{:>5} {:>6} {:>7.2} {:>10.1}",
            i,
            ring.capacity(),
            ring.amd(),
            machine.llc_latency_ns(ring.cores()[0])?
        );
    }
    Ok(())
}

/// `peak`: steady-cycle peak of a rotation on one ring.
pub fn peak(args: &ParsedArgs) -> CliResult {
    let (w, h) = args.grid_or("grid", 8, 8)?;
    let ring_idx: usize = args.get_or("ring", 0)?;
    let tau_ms: f64 = args.get_or("tau-ms", 0.5)?;
    let watts = args.floats_or("watts", &[7.0, 7.0])?;
    let idle: f64 = args.get_or("idle", IDLE_WATTS)?;

    let machine = machine(w, h)?;
    let rings = machine.rings();
    if ring_idx >= rings.len() {
        return Err(format!("--ring {ring_idx}: chip has {} rings", rings.len()).into());
    }
    let ring = rings.ring(ring_idx);
    if watts.len() > ring.capacity() {
        return Err(format!(
            "{} threads cannot rotate on a {}-slot ring",
            watts.len(),
            ring.capacity()
        )
        .into());
    }
    let solver = RotationPeakSolver::new(model(w, h)?)?;
    let delta = ring.capacity();
    // Spread the threads evenly over the ring's slots.
    let slots: Vec<usize> = (0..watts.len()).map(|i| i * delta / watts.len()).collect();
    let epochs: Vec<Vector> = (0..delta)
        .map(|e| {
            let mut p = Vector::constant(machine.core_count(), idle);
            for (i, &watt) in watts.iter().enumerate() {
                let core = ring.cores()[(slots[i] + e) % delta];
                p[core.index()] = watt;
            }
            p
        })
        .collect();
    let seq = EpochPowerSequence::new(tau_ms * 1e-3, epochs)?;
    let report = solver.peak(&seq)?;
    println!(
        "rotating {:?} W on ring {ring_idx} ({} slots) at tau = {tau_ms} ms:",
        watts,
        ring.capacity()
    );
    println!(
        "  steady-cycle peak {:.2} C at {} (epoch {})",
        report.peak_celsius, report.critical_core, report.critical_epoch
    );
    let pinned = solver.peak_celsius(&EpochPowerSequence::new(
        tau_ms * 1e-3,
        vec![seq.epoch(0).clone()],
    )?)?;
    println!("  pinned (no rotation):   {pinned:.2} C");
    println!(
        "  rotation saves:         {:.2} C",
        pinned - report.peak_celsius
    );
    Ok(())
}

/// `tsp`: uniform and per-core budgets for a centre-packed active set.
pub fn tsp(args: &ParsedArgs) -> CliResult {
    let (w, h) = args.grid_or("grid", 8, 8)?;
    let n = w * h;
    let active_n: usize = args.get_or("active", n)?;
    let t_dtm: f64 = args.get_or("t-dtm", 70.0)?;
    if active_n == 0 || active_n > n {
        return Err(format!("--active must be in 1..={n}").into());
    }
    let model = model(w, h)?;
    let active = tsp::worst_case_mapping(&model, active_n)?;
    let wc = tsp::budget(&model, &active, t_dtm, IDLE_WATTS)?;
    println!("{w}x{h} chip, {active_n} active cores (worst-case packing), threshold {t_dtm} C:");
    println!(
        "  uniform TSP budget: {:.2} W/core (critical {})",
        wc.per_core_watts, wc.critical_core
    );
    // Per-core budgets for the same mapping.
    let budgets = tsp::per_core_budgets(&model, &active, t_dtm, IDLE_WATTS)?;
    let total: f64 = budgets.iter().sum();
    println!(
        "  per-core (water-filling): total {:.1} W vs uniform total {:.1} W ({:+.2} %)",
        total,
        wc.per_core_watts * active_n as f64,
        (total / (wc.per_core_watts * active_n as f64) - 1.0) * 100.0
    );
    Ok(())
}

/// `simulate`: run a workload under a chosen scheduler.
pub fn simulate(args: &ParsedArgs) -> CliResult {
    let (w, h) = args.grid_or("grid", 8, 8)?;
    let n = w * h;
    let scheduler_name = args.get("scheduler").unwrap_or("hotpotato").to_string();
    let benchmark_name = args.get("benchmark").unwrap_or("blackscholes").to_string();
    let cores: usize = args.get_or("cores", n)?;
    if cores == 0 || cores > n {
        return Err(format!("--cores {cores}: must be in 1..={n} for a {w}x{h} grid").into());
    }
    let jobs_n: usize = args.get_or("jobs", 0)?;
    let rate: f64 = args.get_or("rate", 40.0)?;
    let horizon: f64 = args.get_or("horizon", 600.0)?;
    if horizon.is_nan() || horizon <= 0.0 {
        return Err(format!("--horizon {horizon}: must be positive seconds").into());
    }

    let jobs: Vec<Job> = if benchmark_name == "mixed" {
        let count = if jobs_n == 0 { 10 } else { jobs_n };
        open_poisson(count, rate, 42)
    } else {
        let benchmark = parse_benchmark(&benchmark_name)?;
        if jobs_n > 0 {
            (0..jobs_n)
                .map(|i| Job {
                    id: JobId(i),
                    benchmark,
                    spec: benchmark.spec((cores / jobs_n).max(1)),
                    arrival: 0.0,
                })
                .collect()
        } else {
            closed_batch(benchmark, cores.min(n), 42)
        }
    };

    // Fault injection: `--faults plan.json` loads a serialized FaultPlan,
    // `--fault-seed N` overrides its RNG seed (deterministic replays).
    let mut faults = match args.get("faults") {
        Some(path) => read_fault_plan(path)?,
        None => FaultPlan::default(),
    };
    faults.seed = args.get_or("fault-seed", faults.seed)?;

    // Checkpoint/resume supervision (DESIGN.md §13): periodic engine
    // checkpoints every `--checkpoint-every` simulated seconds into
    // `--checkpoint-dir`, and `--resume-from` to continue an interrupted
    // run bit-identically from its last checkpoint.
    let ckpt_every: f64 = args.get_or("checkpoint-every", 0.0)?;
    if ckpt_every < 0.0 || ckpt_every.is_nan() {
        return Err(format!("--checkpoint-every {ckpt_every}: must be positive seconds").into());
    }
    let checkpoint_path = match (args.get("checkpoint-dir"), ckpt_every > 0.0) {
        (Some(dir), true) => {
            std::fs::create_dir_all(dir).map_err(|e| format!("--checkpoint-dir {dir}: {e}"))?;
            Some(std::path::Path::new(dir).join("simulate.ckpt.json"))
        }
        (Some(_), false) => {
            return Err("--checkpoint-dir requires --checkpoint-every SECONDS".into())
        }
        (None, true) => {
            return Err("--checkpoint-every requires --checkpoint-dir DIR".into());
        }
        (None, false) => None,
    };
    let resume_from = match args.get("resume-from") {
        Some(path) => Some(
            EngineCheckpoint::load_from_path(std::path::Path::new(path))
                .map_err(|e| format!("--resume-from {path}: {e}"))?,
        ),
        None => None,
    };
    let resumed = resume_from.is_some();
    let options = RunOptions {
        checkpoint_every_seconds: (ckpt_every > 0.0).then_some(ckpt_every),
        checkpoint_path,
        resume_from,
        ..RunOptions::default()
    };

    let sim_config = SimConfig {
        horizon,
        record_trace: args.get("trace").is_some(),
        faults,
        ..SimConfig::default()
    };
    // The campaign path, one job long: one model and one basis serve the
    // engine and the scheduler. The chaos fixtures stay campaign-only.
    if !SCHEDULER_NAMES.contains(&scheduler_name.as_str()) {
        return Err(format!("unknown scheduler `{scheduler_name}`").into());
    }
    let chip = ChipArtifacts::build(w, h, ThermalProfile::Default)?;
    let job = CampaignJob::new(
        "simulate",
        scheduler_name.as_str(),
        (w, h),
        Workload::Explicit(Vec::new()),
        SimConfig::default(),
    );
    let mut scheduler = build_scheduler(&job, &chip)?;
    let mut sim = Simulation::with_thermal(chip.machine, chip.model, chip.transient, sim_config)?;

    let metrics = match sim.run_with_options(jobs, scheduler.as_mut(), &options) {
        Ok(m) => m,
        Err(e) => {
            let context = format!(
                "simulate: scheduler `{scheduler_name}`, benchmark `{benchmark_name}` \
                 on {w}x{h} grid: {e}"
            );
            // A mid-run abort still carries everything accumulated so
            // far; print it and flush the partial trace/report before
            // failing so the run is not a total loss. The AbortedRun
            // marker gives these runs their own exit code.
            if let Some(partial) = e.partial_metrics() {
                let note = format!("aborted at t={:.3} s: {e}", partial.simulated_time);
                println!(
                    "aborted at t={:.3} s — partial results:",
                    partial.simulated_time
                );
                print_simulate_metrics(partial, &scheduler_name, w, h);
                write_trace(&sim, args, "partial temperature trace")?;
                write_report(partial, args, &scheduler_name, w, h, Some(&note))?;
                if let Some(path) = &options.checkpoint_path {
                    if sim.checkpoint_saves() > 0 {
                        println!("  resume with: --resume-from {}", path.display());
                    }
                }
                return Err(Box::new(AbortedRun(context)));
            }
            return Err(context.into());
        }
    };
    print_simulate_metrics(&metrics, &scheduler_name, w, h);
    if resumed {
        println!("  resumed from checkpoint (bit-identical to an uninterrupted run)");
    }
    if sim.checkpoint_saves() > 0 {
        println!("  {} checkpoint(s) written", sim.checkpoint_saves());
    }
    write_trace(&sim, args, "temperature trace")?;
    write_report(&metrics, args, &scheduler_name, w, h, None)?;
    Ok(())
}

/// `sweep`: expand a declarative spec into a scenario campaign and run
/// it on a worker pool with the shared model cache.
pub fn sweep(args: &ParsedArgs) -> CliResult {
    let spec_path = args
        .get("spec")
        .ok_or("sweep: --spec FILE is required")?
        .to_string();
    let raw =
        std::fs::read_to_string(&spec_path).map_err(|e| format!("--spec {spec_path}: {e}"))?;
    let spec = SweepSpec::from_json_str(&raw).map_err(|e| format!("--spec {spec_path}: {e}"))?;
    let jobs = spec.expand()?;
    let default_workers = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let workers: usize = args.get_or("jobs", default_workers)?;
    if workers == 0 {
        return Err("--jobs 0: need at least one worker".into());
    }
    // Supervision policy: bounded retries with quarantine, wall-clock
    // and interval watchdogs, and per-job mid-run checkpoints.
    let retries: u32 = args.get_or("retries", 0)?;
    let job_timeout: f64 = args.get_or("job-timeout", 0.0)?;
    if job_timeout < 0.0 || job_timeout.is_nan() {
        return Err(format!("--job-timeout {job_timeout}: must be positive seconds").into());
    }
    let interval_budget: u64 = args.get_or("interval-budget", 0)?;
    let ckpt_every: f64 = args.get_or("checkpoint-every", 0.0)?;
    if ckpt_every < 0.0 || ckpt_every.is_nan() {
        return Err(format!("--checkpoint-every {ckpt_every}: must be positive seconds").into());
    }
    if ckpt_every > 0.0 && args.get("out").is_none() {
        return Err("sweep --checkpoint-every requires --out DIR".into());
    }
    let config = CampaignConfig {
        workers,
        cache_enabled: !matches!(args.get("cache"), Some("off" | "false" | "0")),
        out_dir: args.get("out").map(std::path::PathBuf::from),
        resume: matches!(args.get("resume"), Some("true" | "1" | "yes")),
        retries,
        job_timeout_seconds: (job_timeout > 0.0).then_some(job_timeout),
        job_interval_budget: (interval_budget > 0).then_some(interval_budget),
        checkpoint_every_seconds: (ckpt_every > 0.0).then_some(ckpt_every),
    };
    println!(
        "sweep: {} jobs on {} workers (cache {})",
        jobs.len(),
        workers,
        if config.cache_enabled { "on" } else { "off" }
    );
    let report = run_campaign(&jobs, &config)?;
    for outcome in &report.jobs {
        let status = match outcome.status {
            hp_campaign::JobStatus::Completed => "ok     ",
            hp_campaign::JobStatus::DegradedNumerics => "DEGRADE",
            hp_campaign::JobStatus::Aborted => "aborted",
            hp_campaign::JobStatus::Failed => "FAILED ",
            hp_campaign::JobStatus::Panicked => "PANIC  ",
            hp_campaign::JobStatus::TimedOut => "TIMEOUT",
        };
        println!(
            "  [{status}] {} | peak {:.1} C | makespan {:.1} ms | {}/{} jobs",
            outcome.label,
            outcome.peak_celsius,
            outcome.makespan_seconds * 1e3,
            outcome.jobs_completed,
            outcome.jobs_total
        );
        if outcome.attempts > 1 || outcome.quarantined {
            println!(
                "            attempts: {}{}",
                outcome.attempts,
                if outcome.quarantined {
                    " — QUARANTINED"
                } else {
                    ""
                }
            );
        }
        if !outcome.cause.is_empty() {
            println!("            cause: {}", outcome.cause);
        }
    }
    let counter = |name: &str| report.campaign.counter(name).unwrap_or(0);
    if report.degraded_numerics() > 0 {
        println!(
            "  numerics: {} job(s) completed on the dense fallback (degraded-numerics) — \
             run `validate` against this spec for the conditioning facts",
            report.degraded_numerics()
        );
    }
    println!(
        "sweep done: {} completed, {} aborted, {} failed, {} panicked, {} timed out, \
         {} resumed | cache {} hits / {} misses",
        report.completed() + report.degraded_numerics(),
        report.aborted(),
        report.failed(),
        report.panicked(),
        report.timed_out(),
        counter("campaign.jobs.resumed"),
        counter("campaign.cache.hits"),
        counter("campaign.cache.misses"),
    );
    if counter("campaign.retry.attempts") > 0 || report.quarantined() > 0 {
        println!(
            "  supervision: {} retry attempt(s), {} recovered, {} quarantined",
            counter("campaign.retry.attempts"),
            counter("campaign.retry.succeeded"),
            report.quarantined(),
        );
    }
    if let Some(dir) = &config.out_dir {
        println!(
            "  campaign written to {}",
            dir.join("campaign.json").display()
        );
    }
    // Distinct nonzero exit codes (pinned in tests/exit_codes.rs):
    // quarantine outranks plain failure — it means the retry budget was
    // spent and a human has to look.
    if report.quarantined() > 0 {
        return Err(Box::new(SweepHealth {
            message: format!("sweep: {} job(s) quarantined", report.quarantined()),
            exit: 4,
        }));
    }
    let unhealthy = report.failed() + report.panicked() + report.timed_out();
    if unhealthy > 0 {
        return Err(Box::new(SweepHealth {
            message: format!("sweep: {unhealthy} job(s) failed to run"),
            exit: 3,
        }));
    }
    Ok(())
}

/// Reads and validates the fault-plan file `path`.
fn read_fault_plan(path: &str) -> Result<FaultPlan, Box<dyn Error>> {
    let raw = std::fs::read_to_string(path).map_err(|e| format!("--faults {path}: {e}"))?;
    Ok(codec::decode_document(&raw).map_err(|e| format!("--faults {path}: {e}"))?)
}

/// `validate`: check a sweep spec, fault plan, and/or thermal model for
/// well-formedness *without simulating anything* — the preflight for
/// long campaigns — and any document a run wrote (`--document`). Exit 0
/// when everything checks out, 1 otherwise; an ill-conditioned (but
/// valid) model passes with a warning since runs on it complete via the
/// verified dense fallback.
pub fn validate(args: &ParsedArgs) -> CliResult {
    let mut validated_any = false;
    if let Some(path) = args.get("spec") {
        let raw = std::fs::read_to_string(path).map_err(|e| format!("--spec {path}: {e}"))?;
        let spec = SweepSpec::from_json_str(&raw).map_err(|e| format!("--spec {path}: {e}"))?;
        let jobs = spec.expand().map_err(|e| format!("--spec {path}: {e}"))?;
        println!("spec {path}: {} job(s) expand cleanly", jobs.len());
        let mut grids: Vec<(usize, usize)> = jobs.iter().map(|j| j.grid).collect();
        grids.sort_unstable();
        grids.dedup();
        for (w, h) in grids {
            validate_model(w, h, spec.thermal)?;
        }
        validated_any = true;
    }
    if let Some(path) = args.get("faults") {
        let plan = read_fault_plan(path)?;
        println!("fault plan {path}: parses cleanly (seed {})", plan.seed);
        validated_any = true;
    }
    if let Some(path) = args.get("document") {
        validate_document(path).map_err(|e| format!("--document {path}: {e}"))?;
        validated_any = true;
    }
    if !validated_any || args.get("grid").is_some() || args.get("thermal").is_some() {
        let (w, h) = args.grid_or("grid", 8, 8)?;
        let name = args.get("thermal").unwrap_or("default");
        let profile = hp_campaign::ThermalProfile::from_name(name)
            .ok_or_else(|| format!("--thermal {name}: expected `default` or `ill-conditioned`"))?;
        validate_model(w, h, profile)?;
    }
    Ok(())
}

/// Decodes the document `path` by its `schema` tag: a run report, a
/// campaign document, or a checkpoint (digest verified).
fn validate_document(path: &str) -> CliResult {
    let raw = std::fs::read_to_string(path)?;
    let schema = codec::schema(&hp_obs::json::parse(&raw)?)?;
    let summary = if schema == hp_obs::SCHEMA {
        let r: RunReport = codec::decode_document(&raw)?;
        format!("{} counters, {} events", r.counters.len(), r.events.len())
    } else if schema == hp_campaign::SCHEMA {
        format!("{} jobs", CampaignReport::from_json_str(&raw)?.jobs.len())
    } else if schema == hp_sim::CHECKPOINT_SCHEMA {
        let step = EngineCheckpoint::from_json_str(&raw)?.step();
        format!("digest verified, step {step}")
    } else {
        return Err(format!("unknown schema `{schema}`").into());
    };
    println!("{schema} {path}: {summary}");
    Ok(())
}

/// Builds and validates one RC model, printing its conditioning facts.
fn validate_model(w: usize, h: usize, profile: hp_campaign::ThermalProfile) -> CliResult {
    let model =
        RcThermalModel::new(&GridFloorplan::new(w, h)?, &profile.config()).map_err(|e| {
            format!(
                "{w}x{h} ({}): model construction failed: {e}",
                profile.name()
            )
        })?;
    let health = model
        .validate()
        .map_err(|e| format!("{w}x{h} ({}): model validation failed: {e}", profile.name()))?;
    println!(
        "model {w}x{h} ({}): cond(B) ~ {:.2e} | capacitance ratio {:.2e} | \
         time constants [{:.2e}, {:.2e}] s",
        profile.name(),
        health.condition_estimate,
        health.capacitance_ratio,
        health.min_time_constant,
        health.max_time_constant
    );
    if health.ill_conditioned {
        println!(
            "  WARNING: stiffness {:.2e} exceeds the dense-fallback threshold {:.0e}; \
             solvers arm the verified dense path and runs complete as degraded-numerics",
            health.stiffness,
            hp_thermal::CONDITION_FALLBACK_THRESHOLD
        );
    } else {
        println!(
            "  healthy: stiffness {:.2e} is below the dense-fallback threshold {:.0e}",
            health.stiffness,
            hp_thermal::CONDITION_FALLBACK_THRESHOLD
        );
    }
    Ok(())
}

/// Writes the recorded temperature trace as CSV when `--trace` was given.
fn write_trace(sim: &Simulation, args: &ParsedArgs, what: &str) -> CliResult {
    if let Some(path) = args.get("trace") {
        let file = File::create(path)?;
        sim.trace().write_csv(BufWriter::new(file))?;
        println!("  {what} written to {path}");
    }
    Ok(())
}

/// Writes the run's observability report (`hp-report-v1` JSON) when
/// `--report` was given, annotated with the CLI-level run context.
fn write_report(
    metrics: &Metrics,
    args: &ParsedArgs,
    scheduler_name: &str,
    w: usize,
    h: usize,
    aborted: Option<&str>,
) -> CliResult {
    if let Some(path) = args.get("report") {
        let mut report = metrics.observability.clone();
        report.push_meta("scheduler", scheduler_name);
        report.push_meta("grid", &format!("{w}x{h}"));
        if let Some(note) = aborted {
            report.push_meta("aborted", note);
        }
        std::fs::write(path, codec::pretty(&report))?;
        println!("  observability report written to {path}");
    }
    Ok(())
}

/// Renders an optional duration (s) as `X.X ms`, or `n/a` when absent —
/// e.g. the mean response of a run where no job completed.
fn fmt_ms_or_na(seconds: Option<f64>) -> String {
    seconds.map_or_else(|| "n/a".to_string(), |s| format!("{:.1} ms", s * 1e3))
}

fn print_simulate_metrics(metrics: &Metrics, scheduler_name: &str, w: usize, h: usize) {
    println!("scheduler {scheduler_name} on {w}x{h} chip:");
    println!(
        "  makespan {:.1} ms | mean response {} | peak {:.1} C",
        metrics.makespan * 1e3,
        fmt_ms_or_na(metrics.mean_response_time()),
        metrics.peak_temperature
    );
    println!(
        "  DTM intervals {} | migrations {} | avg freq {:.2} GHz | energy {:.1} J",
        metrics.dtm_intervals, metrics.migrations, metrics.avg_frequency_ghz, metrics.energy
    );
    let r = &metrics.robustness;
    if r.faults_enabled {
        println!(
            "  faults: {} noisy / {} stuck / {} dropped readings | {} failed migrations | \
             {} power spikes | min confidence {:.2}",
            r.noisy_readings,
            r.stuck_readings,
            r.sensor_dropouts,
            r.migration_faults,
            r.power_spikes,
            r.min_sensor_confidence
        );
        println!(
            "  degradation: {} fallback hooks ({} activations) | {} watchdog intervals \
             ({} trips) | {} actions dropped",
            r.fallback_intervals,
            r.fallback_activations,
            r.watchdog_intervals,
            r.watchdog_activations,
            r.dropped_actions
        );
    }
    for job in &metrics.jobs {
        println!(
            "    {} x{}: {}, {} migrations",
            job.benchmark,
            job.threads,
            fmt_ms_or_na(job.response_time()),
            job.migrations
        );
    }
}

fn parse_benchmark(name: &str) -> Result<Benchmark, Box<dyn Error>> {
    Benchmark::all()
        .into_iter()
        .find(|b| b.name() == name)
        .ok_or_else(|| format!("unknown benchmark `{name}`").into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_parsing() {
        assert_eq!(parse_benchmark("canneal").unwrap(), Benchmark::Canneal);
        assert!(parse_benchmark("quake").is_err());
    }

    #[test]
    fn rings_command_runs() {
        let args = ParsedArgs::parse(["rings", "--grid", "4x4"]).unwrap();
        rings(&args).unwrap();
    }

    #[test]
    fn peak_command_runs_and_validates() {
        let args = ParsedArgs::parse(["peak", "--grid", "4x4", "--watts", "7,7"]).unwrap();
        peak(&args).unwrap();
        let bad = ParsedArgs::parse(["peak", "--grid", "4x4", "--ring", "99"]).unwrap();
        assert!(peak(&bad).is_err());
        let too_many =
            ParsedArgs::parse(["peak", "--grid", "4x4", "--watts", "1,1,1,1,1"]).unwrap();
        assert!(peak(&too_many).is_err());
    }

    #[test]
    fn tsp_command_runs_and_validates() {
        let args = ParsedArgs::parse(["tsp", "--grid", "4x4", "--active", "8"]).unwrap();
        tsp(&args).unwrap();
        let bad = ParsedArgs::parse(["tsp", "--grid", "4x4", "--active", "99"]).unwrap();
        assert!(tsp(&bad).is_err());
    }

    #[test]
    fn simulate_command_small_run() {
        let args = ParsedArgs::parse([
            "simulate",
            "--grid",
            "4x4",
            "--benchmark",
            "canneal",
            "--cores",
            "4",
            "--scheduler",
            "pinned",
        ])
        .unwrap();
        simulate(&args).unwrap();
    }

    #[test]
    fn simulate_rejects_unknowns() {
        for name in ["magic", "chaos-panic"] {
            let args = ParsedArgs::parse(["simulate", "--scheduler", name]).unwrap();
            let err = simulate(&args).unwrap_err().to_string();
            assert!(err.contains("unknown scheduler"), "{name}: {err}");
        }
        let args = ParsedArgs::parse(["simulate", "--benchmark", "quake"]).unwrap();
        assert!(simulate(&args).is_err());
    }

    #[test]
    fn simulate_with_fault_plan_and_fallback_scheduler() {
        let plan_path = std::env::temp_dir().join("hp_cli_fault_plan_test.json");
        std::fs::write(&plan_path, "{\"seed\": 1, \"sensor_dropout_rate\": 0.2}").unwrap();
        let args = ParsedArgs::parse([
            "simulate",
            "--grid",
            "4x4",
            "--benchmark",
            "canneal",
            "--cores",
            "4",
            "--scheduler",
            "fallback",
            "--faults",
            plan_path.to_str().unwrap(),
            "--fault-seed",
            "7",
        ])
        .unwrap();
        simulate(&args).unwrap();
        std::fs::remove_file(&plan_path).ok();
    }

    fn simulate_args(extra: &[&str]) -> ParsedArgs {
        let mut argv = vec![
            "simulate",
            "--grid",
            "4x4",
            "--benchmark",
            "canneal",
            "--cores",
            "4",
            "--scheduler",
            "hotpotato",
        ];
        argv.extend_from_slice(extra);
        ParsedArgs::parse(argv).unwrap()
    }

    #[test]
    fn simulate_rejects_cores_beyond_grid() {
        let args = ParsedArgs::parse(["simulate", "--grid", "4x4", "--cores", "17"]).unwrap();
        let err = simulate(&args).unwrap_err().to_string();
        assert!(err.contains("1..=16"), "got: {err}");
        let args = ParsedArgs::parse(["simulate", "--grid", "4x4", "--cores", "0"]).unwrap();
        assert!(simulate(&args).is_err());
        let args = ParsedArgs::parse(["simulate", "--horizon", "0"]).unwrap();
        assert!(simulate(&args).is_err());
    }

    #[test]
    fn simulate_trace_starts_at_time_zero() {
        let trace_path = std::env::temp_dir().join("hp_cli_trace_t0_test.csv");
        let args = simulate_args(&["--trace", trace_path.to_str().unwrap()]);
        simulate(&args).unwrap();
        let csv = std::fs::read_to_string(&trace_path).unwrap();
        let mut lines = csv.lines();
        assert!(lines.next().unwrap().starts_with("time_s,core0"));
        let first = lines.next().expect("at least one sample");
        assert_eq!(
            first.split(',').next().unwrap(),
            "0",
            "first trace sample must be the initial t=0 state, got `{first}`"
        );
        std::fs::remove_file(&trace_path).ok();
    }

    #[test]
    fn simulate_abort_still_writes_trace_and_report() {
        // A 50 ms horizon cannot finish canneal: the run aborts with
        // HorizonExceeded, but the partial trace and report must land on
        // disk anyway.
        let trace_path = std::env::temp_dir().join("hp_cli_abort_trace_test.csv");
        let report_path = std::env::temp_dir().join("hp_cli_abort_report_test.json");
        let args = simulate_args(&[
            "--horizon",
            "0.05",
            "--trace",
            trace_path.to_str().unwrap(),
            "--report",
            report_path.to_str().unwrap(),
        ]);
        let err = simulate(&args).unwrap_err();
        assert!(
            err.downcast_ref::<AbortedRun>().is_some(),
            "abort-with-partials must carry the AbortedRun marker"
        );
        let err = err.to_string();
        assert!(err.contains("horizon"), "got: {err}");

        let csv = std::fs::read_to_string(&trace_path).unwrap();
        assert!(csv.lines().count() > 1, "partial trace has samples");

        let raw = std::fs::read_to_string(&report_path).unwrap();
        let report: RunReport = codec::decode_document(&raw).unwrap();
        let aborted = report.meta_value("aborted").expect("abort note present");
        assert!(aborted.starts_with("aborted at t="), "got: {aborted}");
        assert!(report.counter("engine.intervals").unwrap_or(0) > 0);

        std::fs::remove_file(&trace_path).ok();
        std::fs::remove_file(&report_path).ok();
    }

    #[test]
    fn simulate_report_roundtrips_and_counters_are_deterministic() {
        let path_a = std::env::temp_dir().join("hp_cli_report_a_test.json");
        let path_b = std::env::temp_dir().join("hp_cli_report_b_test.json");
        for path in [&path_a, &path_b] {
            let args = simulate_args(&["--report", path.to_str().unwrap()]);
            simulate(&args).unwrap();
        }
        let read = |path: &std::path::Path| -> RunReport {
            let raw = std::fs::read_to_string(path).unwrap();
            codec::decode_document(&raw).expect("report parses back")
        };
        let (a, b) = (read(&path_a), read(&path_b));
        // Full report round-trip: export → parse → export is identity.
        let text = std::fs::read_to_string(&path_a).unwrap();
        assert_eq!(codec::pretty(&a), text);
        // Same-seed runs: every counter, gauge, meta entry and event is
        // bit-identical; only the wall-clock histograms may differ.
        assert_eq!(a.without_timings(), b.without_timings());
        assert!(a.counter("engine.intervals").unwrap_or(0) > 0);
        assert!(a.counter("sched.alg1.evaluations").unwrap_or(0) > 0);
        assert!(a.histogram("hook.schedule").is_some());
        // Every interval times itself and its phases; the timings are
        // what `without_timings` drops.
        let intervals = a.counter("engine.intervals");
        for name in [
            "engine.interval",
            "engine.perf_power",
            "engine.thermal_step",
            "engine.bookkeeping",
        ] {
            assert_eq!(a.histogram(name).map(|h| h.count), intervals, "{name}");
            assert!(a.without_timings().histogram(name).is_none(), "{name}");
        }
        assert_eq!(a.meta_value("scheduler"), Some("hotpotato"));
        assert_eq!(a.meta_value("grid"), Some("4x4"));
        std::fs::remove_file(&path_a).ok();
        std::fs::remove_file(&path_b).ok();
    }

    #[test]
    fn simulate_setup_failure_has_no_aborted_marker() {
        // Unknown scheduler fails before any simulation: plain error,
        // not AbortedRun (exit 1, not 2).
        let args = ParsedArgs::parse(["simulate", "--scheduler", "magic"]).unwrap();
        let err = simulate(&args).unwrap_err();
        assert!(err.downcast_ref::<AbortedRun>().is_none());
    }

    #[test]
    fn sweep_runs_a_small_campaign_to_disk() {
        let dir = std::env::temp_dir().join(format!("hp_cli_sweep_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec_path = std::env::temp_dir().join("hp_cli_sweep_spec_test.json");
        std::fs::write(
            &spec_path,
            "{\"schedulers\": [\"pinned\", \"tsp\"], \"grids\": [\"4x4\"], \
             \"loads\": [0.25], \"horizon_seconds\": 2}",
        )
        .unwrap();
        let args = ParsedArgs::parse([
            "sweep",
            "--spec",
            spec_path.to_str().unwrap(),
            "--jobs",
            "2",
            "--out",
            dir.to_str().unwrap(),
        ])
        .unwrap();
        sweep(&args).unwrap();
        // Each job's standalone report and the campaign document decode,
        // and the validator takes every one of them.
        for name in [
            "job-000.report.json",
            "job-001.report.json",
            "campaign.json",
        ] {
            let path = dir.join(name);
            let args =
                ParsedArgs::parse(["validate", "--document", path.to_str().unwrap()]).unwrap();
            validate(&args).expect("document validates");
        }
        let raw = std::fs::read_to_string(dir.join("job-000.report.json")).unwrap();
        codec::decode_document::<RunReport>(&raw).expect("job report parses");
        let raw = std::fs::read_to_string(dir.join("campaign.json")).unwrap();
        let report = CampaignReport::from_json_str(&raw).unwrap();
        assert_eq!(report.completed(), 2);
        std::fs::remove_file(&spec_path).ok();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_rejects_bad_inputs() {
        let args = ParsedArgs::parse(["sweep"]).unwrap();
        assert!(sweep(&args).unwrap_err().to_string().contains("--spec"));
        let args = ParsedArgs::parse(["sweep", "--spec", "/nonexistent/spec.json"]).unwrap();
        assert!(sweep(&args).is_err());
        let spec_path = std::env::temp_dir().join("hp_cli_sweep_bad_spec_test.json");
        std::fs::write(&spec_path, "{\"schedulers\": [\"magic\"]}").unwrap();
        let args = ParsedArgs::parse(["sweep", "--spec", spec_path.to_str().unwrap()]).unwrap();
        assert!(sweep(&args).is_err());
        std::fs::write(&spec_path, "{\"schedulers\": [\"pinned\"]}").unwrap();
        let args = ParsedArgs::parse([
            "sweep",
            "--spec",
            spec_path.to_str().unwrap(),
            "--jobs",
            "0",
        ])
        .unwrap();
        let err = sweep(&args).unwrap_err().to_string();
        assert!(err.contains("--jobs 0"), "got: {err}");
        std::fs::remove_file(&spec_path).ok();
    }

    #[test]
    fn validate_checks_models_specs_and_plans_without_simulating() {
        // Bare: validates the default 8x8 model.
        let args = ParsedArgs::parse(["validate"]).unwrap();
        validate(&args).unwrap();
        // Ill-conditioned profile is valid (passes with a warning).
        let args = ParsedArgs::parse(["validate", "--grid", "4x4", "--thermal", "ill-conditioned"])
            .unwrap();
        validate(&args).unwrap();
        // Unknown profile fails.
        let args = ParsedArgs::parse(["validate", "--thermal", "toasty"]).unwrap();
        assert!(validate(&args).is_err());

        // A good spec + fault plan pass; a bad spec fails.
        let spec_path = std::env::temp_dir().join("hp_cli_validate_spec_test.json");
        let plan_path = std::env::temp_dir().join("hp_cli_validate_plan_test.json");
        std::fs::write(
            &spec_path,
            "{\"schedulers\": [\"hotpotato\"], \"grids\": [\"4x4\"], \
             \"thermal\": \"ill-conditioned\"}",
        )
        .unwrap();
        std::fs::write(&plan_path, "{\"seed\": 3}").unwrap();
        let args = ParsedArgs::parse([
            "validate",
            "--spec",
            spec_path.to_str().unwrap(),
            "--faults",
            plan_path.to_str().unwrap(),
        ])
        .unwrap();
        validate(&args).unwrap();
        std::fs::write(&spec_path, "{\"schedulers\": [\"magic\"]}").unwrap();
        let args = ParsedArgs::parse(["validate", "--spec", spec_path.to_str().unwrap()]).unwrap();
        assert!(validate(&args).is_err());
        // Missing files fail too.
        let args = ParsedArgs::parse(["validate", "--spec", "/nonexistent/s.json"]).unwrap();
        assert!(validate(&args).is_err());
        std::fs::remove_file(&spec_path).ok();
        std::fs::remove_file(&plan_path).ok();
    }

    #[test]
    fn validate_checks_documents_by_their_schema() {
        let dir = std::env::temp_dir().join(format!("hp_cli_validate_doc_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
        let check = |file: &str| {
            let args = ParsedArgs::parse(["validate", "--document", file]).unwrap();
            validate(&args)
        };
        let args = simulate_args(&[
            "--report",
            &path("report.json"),
            "--checkpoint-every",
            "0.02",
            "--checkpoint-dir",
            &path(""),
        ]);
        simulate(&args).unwrap();
        check(&path("report.json")).expect("report validates");
        let ckpt = path("simulate.ckpt.json");
        check(&ckpt).expect("checkpoint validates");
        // A checkpoint whose digest no longer matches its state fails.
        let raw = std::fs::read_to_string(&ckpt).unwrap();
        let tampered = raw.replacen("\"step\":", "\"step\":1", 1);
        std::fs::write(path("tampered.json"), tampered).unwrap();
        let err = check(&path("tampered.json")).unwrap_err().to_string();
        assert!(err.contains("digest"), "{err}");
        // Unknown schemas, malformed members and missing files fail.
        std::fs::write(path("other.json"), "{\"schema\": \"hp-other-v1\"}").unwrap();
        let err = check(&path("other.json")).unwrap_err().to_string();
        assert!(err.contains("unknown schema `hp-other-v1`"), "{err}");
        let raw = std::fs::read_to_string(path("report.json")).unwrap();
        let bad = raw.replacen("\"counters\": {", "\"counters\": [1, 2], \"_\": {", 1);
        std::fs::write(path("bad.json"), bad).unwrap();
        assert!(check(&path("bad.json")).is_err());
        assert!(check(&path("absent.json")).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn simulate_rejects_missing_or_bad_fault_plan() {
        let args = ParsedArgs::parse(["simulate", "--faults", "/nonexistent/plan.json"]).unwrap();
        assert!(simulate(&args).is_err());
        let plan_path = std::env::temp_dir().join("hp_cli_bad_fault_plan_test.json");
        std::fs::write(&plan_path, "{\"sensor_dropout_rate\": \"lots\"}").unwrap();
        let args = ParsedArgs::parse([
            "simulate",
            "--grid",
            "4x4",
            "--faults",
            plan_path.to_str().unwrap(),
        ])
        .unwrap();
        assert!(simulate(&args).is_err());
        std::fs::remove_file(&plan_path).ok();
    }
}
