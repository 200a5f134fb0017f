//! The workloads and the correctness gate they share.

use hp_sim::Metrics as SimMetrics;

use crate::hook::HookSample;
use crate::open::{self, OpenSpec};
use crate::output::{Metrics, Verdict};
use crate::spans::SpanLog;
use crate::stats::{mean, median, percentile};
use crate::{sweep, Args};

/// What a workload run returns: its metrics, the gate's verdict and,
/// when traced, the span log.
pub type Outcome = (Metrics, Verdict, Option<SpanLog>);

/// Workload names accepted by `--workload`.
pub const NAMES: [&str; 3] = ["open-light", "open-heavy", "sweep-fig4a"];

/// 10 jobs/s: few jobs overlap, so the per-interval thermal step
/// dominates and the hooks are cheap.
pub const OPEN_LIGHT: OpenSpec = OpenSpec {
    rate_per_s: 10.0,
    jobs: 50,
    nominal_sim_s: 4.5,
};

/// 160 jobs/s: arrivals overlap and most rings are busy, so Algorithm 1
/// probes and Algorithm 2 placements dominate.
pub const OPEN_HEAVY: OpenSpec = OpenSpec {
    rate_per_s: 160.0,
    jobs: 200,
    nominal_sim_s: 5.0,
};

/// Set-up builds per run at the least; `setup_s` is their median.
pub const SETUP_SAMPLES: usize = 5;

/// Dispatches `args.workload`.
pub fn run(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "open-light" => open::run(&OPEN_LIGHT, args),
        "open-heavy" => open::run(&OPEN_HEAVY, args),
        "sweep-fig4a" => sweep::run(args),
        other => Err(format!("unknown workload {other}")),
    }
}

/// Junction temperature a run may reach: T_DTM + 1 °C.
pub fn peak_limit_celsius() -> f64 {
    open::sim_config().t_dtm + 1.0
}

/// The per-simulation checks of the gate: every job completes, the
/// hottest junction stays within T_DTM + 1 °C, and neither the engine
/// nor the scheduler fell back to the dense numerics. Returns how many
/// jobs count as failed: all of them when a check fails.
pub fn check_sim(label: &str, m: &SimMetrics, jobs: usize, v: &mut Verdict) -> u64 {
    let mut ok = true;
    let done = m.completed_jobs();
    if m.jobs.len() != jobs || done != jobs {
        v.fail(format!("{label}: {done} of {jobs} jobs completed"));
        ok = false;
    }
    let limit = peak_limit_celsius();
    if m.peak_temperature.is_nan() || m.peak_temperature > limit {
        v.fail(format!(
            "{label}: peak {:.3} C above {limit} C",
            m.peak_temperature
        ));
        ok = false;
    }
    for name in [
        "numerics.fallback.activations",
        "sched.numerics.fallback.activations",
    ] {
        let n = m.observability.counter(name).unwrap_or(0);
        if n != 0 {
            v.fail(format!("{label}: {name} = {n}"));
            ok = false;
        }
    }
    if ok {
        jobs.saturating_sub(done) as u64
    } else {
        jobs as u64
    }
}

/// `hook_us_mean` and `hook_us_p99` of a run whose hooks come in `sets`
/// (its simulations or replays, each named `unit`): the median over the
/// sets of each set's mean, so one simulation with a costly job mix does
/// not carry the run, and the p99 of all raw samples pooled. Prints each
/// set's figures and the pooled sample count; a p99 with fewer than 10
/// samples beyond it fails the run.
pub fn hook_figures(sets: &[&[HookSample]], unit: &str, v: &mut Verdict) -> (f64, f64) {
    let us = |set: &[HookSample]| -> Vec<f64> { set.iter().map(|h| h.ns as f64 / 1e3).collect() };
    let mut means = Vec::with_capacity(sets.len());
    for (i, set) in sets.iter().enumerate() {
        let x = us(set);
        let m = mean(&x).unwrap_or(f64::NAN);
        means.push(m);
        println!(
            "  {unit} {i}: {} hooks, mean {m:.2} us, p99 {:.1} us",
            x.len(),
            percentile(&x, 0.99).map_or(f64::NAN, |p| p.value)
        );
    }
    let all: Vec<f64> = sets.iter().flat_map(|s| us(s)).collect();
    let p99 = percentile(&all, 0.99);
    match p99 {
        Some(p) => println!(
            "hook p99: {:.3} us over {} raw samples, {} beyond",
            p.value, p.samples, p.beyond
        ),
        None => v.fail(format!(
            "hook p99 has fewer than 10 of {} samples beyond it",
            all.len()
        )),
    }
    (
        median(&means).unwrap_or(f64::NAN),
        p99.map_or(f64::NAN, |p| p.value),
    )
}
