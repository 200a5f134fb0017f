//! The per-layer metrics of a traced run.
//!
//! Every workload prints every metric, in this order; a layer a workload
//! does not run reads 0 there (no campaign on the open workloads, no
//! `Simulation::new` outside `run_campaign` on the sweep). Times here are
//! as measured on this host, not scaled by the reference kernel.

use hp_linalg::eigen::SystemEigen;
use hp_manycore::{ArchConfig, Machine};
use hp_obs::RunReport;
use hp_thermal::{RcThermalModel, ThermalConfig};

use crate::hook::HookSample;
use crate::output::Metrics;
use crate::stats::{mean, median, percentile};

/// Builds timed per probe of the setup layer.
const PROBE_REPEATS: usize = 3;

#[derive(Debug, Default, Clone)]
pub struct PerLayer {
    // Setup.
    pub sim_new_s: f64,
    pub sched_new_s: f64,
    pub thermal_model_s: f64,
    pub linalg_eigen_s: f64,
    // Engine.
    pub intervals: u64,
    pub engine_self_us_per_interval: f64,
    pub thermal_step_batches: u64,
    pub thermal_decay_cache_hit_ratio: f64,
    // Scheduler.
    pub hooks: u64,
    pub place_hooks: u64,
    pub alg1_evaluations: u64,
    pub alg1_solver_failures: u64,
    pub steady_us_mean: f64,
    pub place_ms_mean: f64,
    pub place_ms_p50: f64,
    pub busy_frac: f64,
    pub alg1_candidates_per_batch: f64,
    pub alg1_decay_cache_hit_ratio: f64,
    pub alg1_hook_us_per_eval: f64,
    // Modelled chip.
    pub placements: u64,
    pub migrations: u64,
    pub dtm_intervals: u64,
    // Campaign and baselines.
    pub campaign_run_s: f64,
    pub campaign_cache_hit_ratio: f64,
    pub campaign_worker_busy_frac: f64,
    /// Hook and interval seconds per scheduler: hotpotato, pcmig, hybrid.
    pub campaign_hook_s: [f64; 3],
    pub campaign_interval_s: [f64; 3],
    // Tracing cost, host speed and layer shares of the traced wall time.
    pub trace_overhead_frac: f64,
    /// Median time of the host-speed reference kernel (unscaled).
    pub reference_ms: f64,
    pub setup_frac: f64,
    pub thermal_step_frac: f64,
    pub hooks_frac: f64,
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The counter `name` summed over `reports`.
pub fn sum_counter(reports: &[&RunReport], name: &str) -> u64 {
    reports.iter().filter_map(|r| r.counter(name)).sum()
}

/// Seconds a report histogram recorded: count × mean, both exact (the
/// bucketed percentiles are never used).
pub fn histogram_s(report: &RunReport, name: &str) -> f64 {
    report
        .histogram(name)
        .map_or(0.0, |h| h.count as f64 * h.mean_us * 1e-6)
}

impl PerLayer {
    /// Times `RcThermalModel::new` (LU included) and `SystemEigen::new`
    /// on the 8×8 chip, median of a few builds each.
    pub fn probe_setup(&mut self) -> Result<(), String> {
        let machine = Machine::new(ArchConfig::default()).map_err(|e| format!("machine: {e}"))?;
        let (mut model_s, mut eigen_s) = (Vec::new(), Vec::new());
        for _ in 0..PROBE_REPEATS {
            let t = std::time::Instant::now();
            let model = RcThermalModel::new(machine.floorplan(), &ThermalConfig::default())
                .map_err(|e| format!("thermal model: {e}"))?;
            model_s.push(t.elapsed().as_secs_f64());
            let t = std::time::Instant::now();
            let eigen = SystemEigen::new(model.a_diag(), model.b())
                .map_err(|e| format!("eigendecomposition: {e}"))?;
            eigen_s.push(t.elapsed().as_secs_f64());
            std::hint::black_box(eigen);
        }
        self.thermal_model_s = median(&model_s).unwrap_or(f64::NAN);
        self.linalg_eigen_s = median(&eigen_s).unwrap_or(f64::NAN);
        Ok(())
    }

    /// Fills the engine, scheduler and chip metrics from the reports of
    /// the traced simulations, their hook samples, the summed duration
    /// of their `Simulation::run` spans and those spans' self time.
    pub fn fill_simulations(
        &mut self,
        reports: &[&RunReport],
        hooks: &[HookSample],
        run_s: f64,
        run_self_s: f64,
    ) {
        let sum = |name: &str| sum_counter(reports, name);
        self.intervals = sum("engine.intervals");
        self.engine_self_us_per_interval = ratio(run_self_s * 1e6, self.intervals as f64);
        self.thermal_step_batches = sum("thermal.step_batches");
        let (hits, misses) = (
            sum("thermal.decay_cache_hits"),
            sum("thermal.decay_cache_misses"),
        );
        self.thermal_decay_cache_hit_ratio = ratio(hits as f64, (hits + misses) as f64);

        let us = |placement: bool| -> Vec<f64> {
            hooks
                .iter()
                .filter(|h| h.placement == placement)
                .map(|h| h.ns as f64 / 1e3)
                .collect()
        };
        let (place_us, steady_us) = (us(true), us(false));
        let hook_s = hooks.iter().map(|h| h.ns as f64).sum::<f64>() / 1e9;
        self.hooks = hooks.len() as u64;
        self.place_hooks = place_us.len() as u64;
        self.steady_us_mean = mean(&steady_us).unwrap_or(0.0);
        self.place_ms_mean = mean(&place_us).map_or(0.0, |u| u / 1e3);
        self.place_ms_p50 = percentile(&place_us, 0.5).map_or(f64::NAN, |p| p.value / 1e3);
        self.busy_frac = ratio(hook_s, run_s);
        self.alg1_evaluations = sum("sched.alg1.evaluations");
        self.alg1_solver_failures = sum("sched.alg1.solver_failures");
        self.alg1_candidates_per_batch = ratio(
            sum("sched.alg1.batched_candidates") as f64,
            sum("sched.alg1.batch_calls") as f64,
        );
        let (hits, misses) = (
            sum("sched.alg1.decay_cache_hits"),
            sum("sched.alg1.decay_cache_misses"),
        );
        self.alg1_decay_cache_hit_ratio = ratio(hits as f64, (hits + misses) as f64);
        self.alg1_hook_us_per_eval = ratio(hook_s * 1e6, self.alg1_evaluations as f64);

        self.placements = sum("engine.actions.placements");
        self.migrations = sum("engine.actions.migrations");
        self.dtm_intervals = sum("engine.dtm.intervals");
    }

    /// The metrics in print order.
    pub fn metrics(&self) -> Metrics {
        let mut m = Metrics::default();
        m.put("setup.sim_new_s", self.sim_new_s, "s");
        m.put("setup.sched_new_s", self.sched_new_s, "s");
        m.put("thermal.model_s", self.thermal_model_s, "s");
        m.put("linalg.eigen_s", self.linalg_eigen_s, "s");
        m.put("engine.intervals", self.intervals as f64, "count");
        m.put(
            "engine.self_us_per_interval",
            self.engine_self_us_per_interval,
            "us",
        );
        m.put(
            "thermal.step_batches",
            self.thermal_step_batches as f64,
            "count",
        );
        m.put(
            "thermal.decay_cache_hit_ratio",
            self.thermal_decay_cache_hit_ratio,
            "ratio",
        );
        m.put("sched.hooks", self.hooks as f64, "count");
        m.put("sched.place_hooks", self.place_hooks as f64, "count");
        m.put("alg1.evaluations", self.alg1_evaluations as f64, "count");
        m.put(
            "alg1.solver_failures",
            self.alg1_solver_failures as f64,
            "count",
        );
        m.put("sched.steady_us_mean", self.steady_us_mean, "us");
        m.put("sched.place_ms_mean", self.place_ms_mean, "ms");
        m.put("sched.place_ms_p50", self.place_ms_p50, "ms");
        m.put("sched.busy_frac", self.busy_frac, "ratio");
        m.put(
            "alg1.candidates_per_batch",
            self.alg1_candidates_per_batch,
            "count",
        );
        m.put(
            "alg1.decay_cache_hit_ratio",
            self.alg1_decay_cache_hit_ratio,
            "ratio",
        );
        m.put("alg1.hook_us_per_eval", self.alg1_hook_us_per_eval, "us");
        m.put("engine.placements", self.placements as f64, "count");
        m.put("engine.migrations", self.migrations as f64, "count");
        m.put("engine.dtm_intervals", self.dtm_intervals as f64, "count");
        m.put("campaign.run_s", self.campaign_run_s, "s");
        m.put(
            "campaign.cache.hit_ratio",
            self.campaign_cache_hit_ratio,
            "ratio",
        );
        m.put(
            "campaign.worker_busy_frac",
            self.campaign_worker_busy_frac,
            "ratio",
        );
        let [hp, pm, hy] = self.campaign_hook_s;
        m.put("campaign.hotpotato.hook_s", hp, "s");
        m.put("campaign.pcmig.hook_s", pm, "s");
        m.put("campaign.hybrid.hook_s", hy, "s");
        let [hp, pm, hy] = self.campaign_interval_s;
        m.put("campaign.hotpotato.interval_s", hp, "s");
        m.put("campaign.pcmig.interval_s", pm, "s");
        m.put("campaign.hybrid.interval_s", hy, "s");
        m.put("trace.overhead_frac", self.trace_overhead_frac, "ratio");
        m.put("host.reference_ms", self.reference_ms, "ms");
        m.put("layer.setup_frac", self.setup_frac, "ratio");
        m.put("layer.thermal_step_frac", self.thermal_step_frac, "ratio");
        m.put("layer.hooks_frac", self.hooks_frac, "ratio");
        m
    }
}
