//! The open-system workloads: `Simulation::new` + `HotPotato::new` +
//! `Simulation::run` on the 8×8 chip — the path of `hotpotato-cli
//! simulate` and `fig4b` — fed by `open_poisson`.
//!
//! A run is a closed loop: it starts the next simulation when the last
//! one returns, each on its own generator seed derived from the run's
//! seed. The number of simulations is fixed by `--seconds` alone, so a
//! seed always means the same inputs and a faster program simply
//! finishes sooner. Every figure covers all the simulations of the run:
//! `wall_s` sums their wall times, set-ups included, and `setup_s` is the
//! median of their set-ups.

use std::ops::Range;
use std::time::Instant;

use hotpotato::{HotPotato, HotPotatoConfig};
use hp_manycore::{ArchConfig, Machine};
use hp_sim::{Metrics, SimConfig, Simulation};
use hp_thermal::{RcThermalModel, ThermalConfig};
use hp_workload::{open_poisson, Job};

use crate::hook::{HookSample, HookTrace, TimedScheduler};
use crate::host::{self, Reference};
use crate::layers::{histogram_s, PerLayer};
use crate::output::{Metrics as Out, Verdict};
use crate::spans::{total_and_self_ns, Span, SpanLog};
use crate::stats::{mean, median};
use crate::workloads::{check_sim, hook_figures, Outcome, SETUP_SAMPLES};
use crate::Args;

/// One open-system workload.
#[derive(Debug, Clone, Copy)]
pub struct OpenSpec {
    /// Poisson arrival rate, jobs per simulated second.
    pub rate_per_s: f64,
    /// Jobs per simulation.
    pub jobs: usize,
    /// Host seconds one simulation takes on the reference host (2-vCPU
    /// Xeon); sizes the number of simulations per run.
    pub nominal_sim_s: f64,
}

impl OpenSpec {
    /// Simulations in a run of `seconds`.
    pub fn sims(&self, seconds: f64) -> usize {
        ((seconds / self.nominal_sim_s).round() as usize).max(1)
    }

    /// Hook buffer size for one simulation: a hook every 500 µs of
    /// simulated time, over roughly `jobs / rate` seconds of arrivals.
    fn hook_capacity(&self) -> usize {
        ((self.jobs as f64 / self.rate_per_s + 2.0) / sim_config().sched_period) as usize
    }
}

/// The engine configuration every open simulation uses: the defaults
/// (100 µs intervals, 500 µs hooks, DTM at 70 °C, inert fault plan) with
/// `fig4b`'s horizon.
pub fn sim_config() -> SimConfig {
    SimConfig {
        horizon: 600.0,
        ..SimConfig::default()
    }
}

/// Generator seed of simulation `k` of a run seeded with `seed`.
pub fn sub_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(k as u64)
}

/// The jobs of one simulation: `open_poisson`'s mix and arrival pattern,
/// with the arrival times scaled so that the last of the `jobs` arrivals
/// lands at exactly `jobs / rate` seconds. That conditions the Poisson
/// process on its count over a fixed window, so every simulation carries
/// the nominal load: per-hook and per-interval figures then do not swing
/// with how early one seed's arrivals happened to end.
pub fn arrivals(spec: &OpenSpec, seed: u64) -> Vec<Job> {
    let mut jobs = open_poisson(spec.jobs, spec.rate_per_s, seed);
    let window = spec.jobs as f64 / spec.rate_per_s;
    if let Some(last) = jobs.last().map(|j| j.arrival) {
        for j in &mut jobs {
            j.arrival *= window / last;
        }
    }
    jobs
}

/// Host timings and results of one simulation.
#[derive(Debug)]
pub struct SimRun {
    /// Set-up, job generation and run.
    pub wall_s: f64,
    pub sim_new_s: f64,
    pub sched_new_s: f64,
    pub run_s: f64,
    pub jobs: usize,
    pub metrics: Metrics,
    /// This simulation's samples in the shared hook buffer.
    pub hooks: Range<usize>,
}

impl SimRun {
    /// `Simulation::new` + `HotPotato::new`.
    pub fn setup_s(&self) -> f64 {
        self.sim_new_s + self.sched_new_s
    }

    /// The result with wall-clock timings stripped: what must repeat.
    pub fn detimed(&self) -> Metrics {
        Metrics {
            observability: self.metrics.observability.without_timings(),
            ..self.metrics.clone()
        }
    }
}

/// Seconds from `from` to `to`.
pub fn secs(from: Instant, to: Instant) -> f64 {
    (to - from).as_secs_f64()
}

/// Builds the engine and the scheduler as `hotpotato-cli simulate` does.
fn build() -> Result<(Simulation, HotPotato, Instant, Instant), String> {
    let t0 = Instant::now();
    let machine = Machine::new(ArchConfig::default()).map_err(|e| format!("machine: {e}"))?;
    let sim = Simulation::new(machine, ThermalConfig::default(), sim_config())
        .map_err(|e| format!("Simulation::new: {e}"))?;
    let t1 = Instant::now();
    let model = RcThermalModel::new(sim.machine().floorplan(), &ThermalConfig::default())
        .map_err(|e| format!("thermal model: {e}"))?;
    let hp = HotPotato::new(model, HotPotatoConfig::default())
        .map_err(|e| format!("HotPotato::new: {e}"))?;
    Ok((sim, hp, t0, t1))
}

/// Times one `Simulation::new` + `HotPotato::new` build and drops it.
pub fn setup_only() -> Result<f64, String> {
    let (_sim, _hp, t0, _) = build()?;
    Ok(secs(t0, Instant::now()))
}

/// Runs one simulation of `jobs` jobs at `rate_per_s` on generator seed
/// `seed`, appending one sample per scheduling hook to `hooks`. With
/// `trace`, every call is also logged as a span of simulation `group`.
pub fn simulate(
    spec: &OpenSpec,
    seed: u64,
    hooks: &mut Vec<HookSample>,
    trace: Option<(&mut SpanLog, u32)>,
) -> Result<SimRun, String> {
    let (mut sim, mut hp, t0, t1) = build()?;
    let first_hook = hooks.len();
    let t2 = Instant::now();
    let jobs = arrivals(spec, seed);
    let t3 = Instant::now();
    let (metrics, t4) = match trace {
        None => {
            let mut timed = TimedScheduler::new(&mut hp, hooks, None);
            let m = sim.run(jobs, &mut timed);
            (m, Instant::now())
        }
        Some((log, group)) => {
            let root = log.push(Span {
                name: "simulation",
                tag: "",
                group,
                parent: None,
                start_ns: log.offset_ns(t0),
                end_ns: 0,
            });
            for (name, a, b) in [
                ("Simulation::new", t0, t1),
                ("HotPotato::new", t1, t2),
                ("open_poisson", t2, t3),
            ] {
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
            let run = log.begin("Simulation::run", group, Some(root));
            let m = {
                let trace = HookTrace {
                    log: &mut *log,
                    parent: run,
                    group,
                };
                let mut timed = TimedScheduler::new(&mut hp, hooks, Some(trace));
                sim.run(jobs, &mut timed)
            };
            let t4 = Instant::now();
            log.end(run);
            log.end(root);
            (m, t4)
        }
    };
    let metrics = metrics.map_err(|e| format!("Simulation::run (seed {seed}): {e}"))?;
    Ok(SimRun {
        wall_s: secs(t0, t4),
        sim_new_s: secs(t0, t1),
        sched_new_s: secs(t1, t2),
        run_s: secs(t3, t4),
        jobs: spec.jobs,
        metrics,
        hooks: first_hook..hooks.len(),
    })
}

/// Runs simulations `0..count` of a run seeded with `seed`, sampling the
/// reference kernel before each; returns them with the hook samples and
/// their summed wall time.
fn simulate_all(
    spec: &OpenSpec,
    seed: u64,
    count: usize,
    reference: &mut Reference,
    mut log: Option<&mut SpanLog>,
) -> Result<(Vec<SimRun>, Vec<HookSample>, f64), String> {
    let mut hooks = Vec::with_capacity(count * spec.hook_capacity());
    let mut sims = Vec::with_capacity(count);
    for k in 0..count {
        reference.sample();
        let group = u32::try_from(k).unwrap_or(u32::MAX);
        let trace = log.as_deref_mut().map(|l| (l, group));
        sims.push(simulate(spec, sub_seed(seed, k), &mut hooks, trace)?);
    }
    let wall_s = sims.iter().map(|s| s.wall_s).sum();
    Ok((sims, hooks, wall_s))
}

/// Gates `sims` and checks each twin against the simulation it repeats.
fn gate(spec: &OpenSpec, sims: &[SimRun], twins: &[SimRun], v: &mut Verdict) {
    for (k, s) in sims.iter().enumerate() {
        v.attempted += s.jobs as u64;
        let mut failed = check_sim(&format!("simulation {k}"), &s.metrics, spec.jobs, v);
        if twins.get(k).is_some_and(|t| t.detimed() != s.detimed()) {
            v.fail(format!(
                "simulation {k}: traced and untraced runs differ with timings stripped"
            ));
            failed = s.jobs as u64;
        }
        v.failed += failed;
    }
}

/// Runs an open workload: the end-to-end metrics untraced, or the
/// per-layer metrics from an untraced and a traced loop over the same
/// inputs.
pub fn run(spec: &OpenSpec, args: &Args) -> Result<Outcome, String> {
    let count = spec.sims(args.seconds);
    if args.trace {
        return run_traced(spec, args, count.div_ceil(2));
    }
    let mut v = Verdict::default();
    let mut reference = Reference::new();
    let (sims, hooks, wall_s) = simulate_all(spec, args.seed, count, &mut reference, None)?;
    let mut setups: Vec<f64> = sims.iter().map(SimRun::setup_s).collect();
    while setups.len() < SETUP_SAMPLES {
        setups.push(setup_only()?);
    }
    // The traced twin of simulation 0: neither the wrapper nor the spans
    // may change what is simulated.
    let mut log = SpanLog::with_capacity(spec.hook_capacity() + 8);
    let (twin, _, _) = simulate_all(spec, args.seed, 1, &mut reference, Some(&mut log))?;
    gate(spec, &sims, &twin, &mut v);

    let per_sim: Vec<&[HookSample]> = sims.iter().map(|s| &hooks[s.hooks.clone()]).collect();
    let (hook_mean, hook_p99) = hook_figures(&per_sim, "simulation", &mut v);
    let intervals: u64 = sims
        .iter()
        .map(|s| {
            s.metrics
                .observability
                .counter("engine.intervals")
                .unwrap_or(0)
        })
        .sum();
    let run_s: f64 = sims.iter().map(|s| s.run_s).sum();
    let responses: Vec<f64> = sims
        .iter()
        .flat_map(|s| s.metrics.jobs.iter().filter_map(|j| j.response_time()))
        .collect();
    let makespans: Vec<f64> = sims.iter().map(|s| s.metrics.makespan * 1e3).collect();
    println!(
        "simulations: {count} x {} jobs at {}/s; setup samples: {}",
        spec.jobs,
        spec.rate_per_s,
        setups.len()
    );
    let setup_s = median(&setups).unwrap_or(f64::NAN);
    let ips = intervals as f64 / run_s;
    println!(
        "this host, unscaled: wall_s {wall_s:.4} setup_s {setup_s:.4} intervals_per_s {ips:.1} \
         hook_us_mean {hook_mean:.3} hook_us_p99 {hook_p99:.3}"
    );
    reference.print();
    let k = reference.scale();
    let mut m = Out::default();
    m.put("wall_s", wall_s * k, "s");
    m.put("setup_s", setup_s * k, "s");
    m.put("intervals_per_s", ips / k, "1/s");
    m.put("hook_us_mean", hook_mean * k, "us");
    m.put("hook_us_p99", hook_p99 * k, "us");
    m.put("peak_rss_mb", host::peak_rss_mb().unwrap_or(f64::NAN), "MB");
    m.put(
        "sim_makespan_ms",
        mean(&makespans).unwrap_or(f64::NAN),
        "ms",
    );
    m.put(
        "sim_response_ms",
        mean(&responses).map_or(f64::NAN, |r| r * 1e3),
        "ms",
    );
    m.put(
        "sim_peak_c",
        sims.iter()
            .map(|s| s.metrics.peak_temperature)
            .fold(f64::NEG_INFINITY, f64::max),
        "C",
    );
    Ok((m, v, None))
}

fn run_traced(spec: &OpenSpec, args: &Args, count: usize) -> Result<Outcome, String> {
    let mut v = Verdict::default();
    let mut reference = Reference::new();
    let (plain, _, plain_wall_s) = simulate_all(spec, args.seed, count, &mut reference, None)?;
    let mut log = SpanLog::with_capacity(count * (spec.hook_capacity() + 8));
    let (traced, hooks, traced_wall_s) =
        simulate_all(spec, args.seed, count, &mut reference, Some(&mut log))?;
    gate(spec, &plain, &traced, &mut v);

    let mut pl = PerLayer {
        reference_ms: reference.median_s() * 1e3,
        ..PerLayer::default()
    };
    pl.probe_setup()?;
    let setup = |f: fn(&SimRun) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    pl.sim_new_s = setup(|s| s.sim_new_s).unwrap_or(f64::NAN);
    pl.sched_new_s = setup(|s| s.sched_new_s).unwrap_or(f64::NAN);
    let (run_ns, run_self_ns) = total_and_self_ns(log.spans(), "Simulation::run");
    let reports: Vec<_> = traced.iter().map(|s| &s.metrics.observability).collect();
    pl.fill_simulations(
        &reports,
        &hooks,
        run_ns as f64 / 1e9,
        run_self_ns as f64 / 1e9,
    );
    pl.trace_overhead_frac = traced_wall_s / plain_wall_s - 1.0;
    pl.setup_frac = traced.iter().map(SimRun::setup_s).sum::<f64>() / traced_wall_s;
    pl.thermal_step_frac = reports
        .iter()
        .map(|r| histogram_s(r, "engine.thermal_step"))
        .sum::<f64>()
        / traced_wall_s;
    pl.hooks_frac = hooks.iter().map(|h| h.ns as f64 / 1e9).sum::<f64>() / traced_wall_s;
    println!(
        "traced: {count} simulation(s) twice; untraced {plain_wall_s:.3} s, traced {traced_wall_s:.3} s"
    );
    Ok((pl.metrics(), v, Some(log)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_fill_exactly_the_nominal_window() {
        let spec = OpenSpec {
            rate_per_s: 10.0,
            jobs: 50,
            nominal_sim_s: 1.0,
        };
        let raw = open_poisson(spec.jobs, spec.rate_per_s, 7);
        let jobs = arrivals(&spec, 7);
        assert_eq!(jobs.len(), 50);
        assert_eq!(jobs.last().map(|j| j.arrival), Some(5.0));
        assert!(jobs.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        // Same mix and relative pattern as the generator's output.
        let scale = 5.0 / raw[49].arrival;
        for (j, r) in jobs.iter().zip(&raw) {
            assert_eq!((j.id, j.benchmark), (r.id, r.benchmark));
            assert_eq!(j.spec, r.spec);
            assert_eq!(j.arrival, r.arrival * scale);
        }
    }

    #[test]
    fn run_size_depends_on_seconds_only() {
        let spec = OpenSpec {
            rate_per_s: 10.0,
            jobs: 50,
            nominal_sim_s: 4.0,
        };
        assert_eq!(spec.sims(30.0), 8);
        assert_eq!(spec.sims(1.0), 1);
        assert_ne!(sub_seed(1, 0), sub_seed(2, 0));
        assert_ne!(sub_seed(1, 0), sub_seed(1, 1));
    }
}
