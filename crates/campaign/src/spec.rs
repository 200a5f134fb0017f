//! The declarative sweep specification.
//!
//! A [`SweepSpec`] names the axes of a cartesian scenario grid —
//! scheduler × benchmark × load level × chip size × fault plan × seed —
//! and [`SweepSpec::expand`] unrolls it into the runner's job vector in
//! a deterministic nested-loop order. The document is declared on
//! `hp_sim::codec` (DESIGN.md §13): every axis but `schedulers` may be
//! left out, unknown keys are refused, and `fault_plans` holds fault-plan
//! objects as a plan file would.
//!
//! ```json
//! {
//!   "schedulers": ["hotpotato", "pcmig"],
//!   "benchmarks": ["blackscholes"],
//!   "loads": [0.5, 1.0],
//!   "grids": ["4x4"],
//!   "seeds": [42],
//!   "horizon_seconds": 2.0
//! }
//! ```

use hp_faults::FaultPlan;
use hp_sim::codec::{self, Grid, Seq};
use hp_sim::SimConfig;
use hp_workload::Benchmark;

use crate::cache::ThermalProfile;
use crate::error::{CampaignError, Result};
use crate::job::{CampaignJob, Workload, SCHEDULER_NAMES};

/// The benchmark axis value selecting an open heterogeneous system
/// instead of a closed single-benchmark batch.
pub const MIXED: &str = "mixed";

/// A declarative cartesian sweep over scenario coordinates.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Scheduler names (required, each from
    /// [`SCHEDULER_NAMES`](crate::SCHEDULER_NAMES)).
    pub schedulers: Vec<String>,
    /// Benchmark names, or [`MIXED`] for an open Poisson system.
    pub benchmarks: Vec<String>,
    /// Load levels: fraction of the chip's cores filled by the closed
    /// batch (or multiplier on `open_jobs` for [`MIXED`]).
    pub loads: Vec<f64>,
    /// Chip grids `(width, height)`.
    pub grids: Vec<(usize, usize)>,
    /// Workload generator seeds.
    pub seeds: Vec<u64>,
    /// Fault plans (the default is a single inert plan).
    pub fault_plans: Vec<FaultPlan>,
    /// Named RC parameter set every job runs under (`"default"` or
    /// `"ill-conditioned"` in the JSON grammar). Not an axis: numerical
    /// drills sweep scenarios within one profile, they do not mix
    /// physics inside a campaign.
    pub thermal: ThermalProfile,
    /// Simulation horizon per job, seconds.
    pub horizon_seconds: f64,
    /// Job count for [`MIXED`] workloads at load 1.0.
    pub open_jobs: usize,
    /// Poisson arrival rate for [`MIXED`] workloads, jobs per second.
    pub rate_per_s: f64,
}

impl SweepSpec {
    /// A spec sweeping the given schedulers with every other axis at its
    /// default (blackscholes, full load, 8×8, seed 42, no faults).
    pub fn new<S: Into<String>>(schedulers: impl IntoIterator<Item = S>) -> Self {
        SweepSpec {
            schedulers: schedulers.into_iter().map(Into::into).collect(),
            benchmarks: vec!["blackscholes".into()],
            loads: vec![1.0],
            grids: vec![(8, 8)],
            seeds: vec![42],
            fault_plans: vec![FaultPlan::default()],
            thermal: ThermalProfile::Default,
            horizon_seconds: 10.0,
            open_jobs: 16,
            rate_per_s: 50.0,
        }
    }

    /// Parses a spec document, rejecting unknown keys so typos fail
    /// loudly instead of silently sweeping a default axis.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Spec`] on malformed JSON, unknown keys,
    /// or invalid axis values.
    pub fn from_json_str(src: &str) -> Result<Self> {
        let spec: SweepSpec = codec::decode_document(src).map_err(CampaignError::Spec)?;
        spec.validate()?;
        Ok(spec)
    }

    /// Checks the axes for semantic validity.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Spec`] naming the offending axis.
    pub fn validate(&self) -> Result<()> {
        for (axis, empty) in [
            ("schedulers", self.schedulers.is_empty()),
            ("benchmarks", self.benchmarks.is_empty()),
            ("loads", self.loads.is_empty()),
            ("grids", self.grids.is_empty()),
            ("seeds", self.seeds.is_empty()),
            ("fault_plans", self.fault_plans.is_empty()),
        ] {
            if empty {
                return Err(CampaignError::Spec(format!("`{axis}` axis is empty")));
            }
        }
        for s in &self.schedulers {
            // `chaos-*` fixtures are accepted (supervision drills) but
            // deliberately absent from the advertised name list.
            if !SCHEDULER_NAMES.contains(&s.as_str()) && !s.starts_with("chaos-") {
                return Err(CampaignError::Spec(format!(
                    "unknown scheduler `{s}` (expected one of {SCHEDULER_NAMES:?})"
                )));
            }
        }
        for b in &self.benchmarks {
            if b != MIXED && parse_benchmark(b).is_none() {
                return Err(CampaignError::Spec(format!("unknown benchmark `{b}`")));
            }
        }
        for &l in &self.loads {
            if !l.is_finite() || l <= 0.0 {
                return Err(CampaignError::Spec(format!(
                    "load `{l}` must be finite and positive"
                )));
            }
        }
        if !self.horizon_seconds.is_finite() || self.horizon_seconds <= 0.0 {
            return Err(CampaignError::Spec(format!(
                "horizon `{}` must be finite and positive",
                self.horizon_seconds
            )));
        }
        if !self.rate_per_s.is_finite() || self.rate_per_s <= 0.0 {
            return Err(CampaignError::Spec(format!(
                "rate `{}` must be finite and positive",
                self.rate_per_s
            )));
        }
        Ok(())
    }

    /// Unrolls the cartesian grid into the runner's job vector.
    ///
    /// Order is the deterministic nested-loop order grid → scheduler →
    /// benchmark → load → fault plan → seed; job labels encode the full
    /// coordinates and are unique within the campaign.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Spec`] if [`SweepSpec::validate`] fails.
    pub fn expand(&self) -> Result<Vec<CampaignJob>> {
        self.validate()?;
        let mut jobs = Vec::new();
        for &(w, h) in &self.grids {
            for scheduler in &self.schedulers {
                for benchmark in &self.benchmarks {
                    for &load in &self.loads {
                        for (fi, plan) in self.fault_plans.iter().enumerate() {
                            for &seed in &self.seeds {
                                let workload = if benchmark == MIXED {
                                    let scaled = (self.open_jobs as f64 * load).round();
                                    Workload::OpenPoisson {
                                        count: (scaled as usize).max(1),
                                        rate_per_s: self.rate_per_s,
                                        seed,
                                    }
                                } else {
                                    let Some(b) = parse_benchmark(benchmark) else {
                                        // validate() already rejected unknown names.
                                        continue;
                                    };
                                    let scaled = ((w * h) as f64 * load).round();
                                    Workload::Closed {
                                        benchmark: b,
                                        cores: (scaled as usize).max(1),
                                        seed,
                                    }
                                };
                                let label = format!(
                                    "g={w}x{h} s={scheduler} b={benchmark} l={load} f={fi} seed={seed}"
                                );
                                let mut sim = SimConfig {
                                    horizon: self.horizon_seconds,
                                    ..SimConfig::default()
                                };
                                sim.faults = *plan;
                                let mut job = CampaignJob::new(
                                    label,
                                    scheduler.clone(),
                                    (w, h),
                                    workload,
                                    sim,
                                );
                                job.thermal = self.thermal;
                                jobs.push(job);
                            }
                        }
                    }
                }
            }
        }
        Ok(jobs)
    }
}

/// Resolves a benchmark by its canonical name.
fn parse_benchmark(name: &str) -> Option<Benchmark> {
    Benchmark::all().into_iter().find(|b| b.name() == name)
}

/// The axes a spec document leaves out.
fn axis_defaults() -> SweepSpec {
    SweepSpec::new(Vec::<String>::new())
}

hp_sim::codec!(SweepSpec {
    schedulers,
    benchmarks = axis_defaults().benchmarks,
    loads = axis_defaults().loads,
    grids: Seq<Grid> = axis_defaults().grids,
    seeds = axis_defaults().seeds,
    fault_plans = axis_defaults().fault_plans,
    thermal = axis_defaults().thermal,
    horizon_seconds = axis_defaults().horizon_seconds,
    open_jobs = axis_defaults().open_jobs,
    rate_per_s = axis_defaults().rate_per_s,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_spec_uses_defaults() {
        let spec = SweepSpec::from_json_str("{\"schedulers\": [\"hotpotato\"]}").unwrap();
        assert_eq!(spec.benchmarks, vec!["blackscholes"]);
        assert_eq!(spec.grids, vec![(8, 8)]);
        let jobs = spec.expand().unwrap();
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].grid, (8, 8));
        assert!(matches!(
            jobs[0].workload,
            Workload::Closed { cores: 64, .. }
        ));
    }

    #[test]
    fn expansion_is_the_full_cartesian_product_in_stable_order() {
        let spec = SweepSpec::from_json_str(
            "{\"schedulers\": [\"hotpotato\", \"pcmig\"], \"loads\": [0.5, 1.0], \
             \"grids\": [\"4x4\"], \"seeds\": [1, 2]}",
        )
        .unwrap();
        let jobs = spec.expand().unwrap();
        assert_eq!(jobs.len(), 2 * 2 * 2);
        assert_eq!(
            jobs[0].label,
            "g=4x4 s=hotpotato b=blackscholes l=0.5 f=0 seed=1"
        );
        // Seeds are the innermost axis.
        assert_eq!(
            jobs[1].label,
            "g=4x4 s=hotpotato b=blackscholes l=0.5 f=0 seed=2"
        );
        // Half load on 4x4 fills 8 cores.
        assert!(matches!(
            jobs[0].workload,
            Workload::Closed { cores: 8, .. }
        ));
        let labels: std::collections::BTreeSet<_> = jobs.iter().map(|j| &j.label).collect();
        assert_eq!(labels.len(), jobs.len(), "labels are unique");
    }

    #[test]
    fn mixed_benchmark_expands_to_open_poisson() {
        let mut spec = SweepSpec::new(["hotpotato"]);
        spec.benchmarks = vec![MIXED.into()];
        spec.loads = vec![0.5];
        spec.open_jobs = 10;
        let jobs = spec.expand().unwrap();
        assert!(matches!(
            jobs[0].workload,
            Workload::OpenPoisson { count: 5, .. }
        ));
    }

    #[test]
    fn round_trips_through_json() {
        let mut spec = SweepSpec::new(["hotpotato", "tsp"]);
        spec.loads = vec![0.25, 1.0];
        spec.grids = vec![(4, 4), (6, 6)];
        spec.thermal = ThermalProfile::IllConditioned;
        let text = codec::pretty(&spec);
        let parsed = SweepSpec::from_json_str(&text).unwrap();
        assert_eq!(parsed, spec);
        assert!(text.contains("\"grids\": [\"4x4\", \"6x6\"],\n"), "{text}");
    }

    #[test]
    fn thermal_profile_parses_and_reaches_every_job() {
        let spec = SweepSpec::from_json_str(
            "{\"schedulers\": [\"hotpotato\"], \"thermal\": \"ill-conditioned\", \
             \"grids\": [\"4x4\"], \"seeds\": [1, 2]}",
        )
        .unwrap();
        assert_eq!(spec.thermal, ThermalProfile::IllConditioned);
        let jobs = spec.expand().unwrap();
        assert!(jobs
            .iter()
            .all(|j| j.thermal == ThermalProfile::IllConditioned));
        // Absent key keeps the default profile.
        let plain = SweepSpec::from_json_str("{\"schedulers\": [\"hotpotato\"]}").unwrap();
        assert_eq!(plain.thermal, ThermalProfile::Default);
        // Unknown profiles fail loudly.
        let err =
            SweepSpec::from_json_str("{\"schedulers\": [\"hotpotato\"], \"thermal\": \"toasty\"}")
                .unwrap_err();
        assert!(err.to_string().contains("thermal profile"), "{err}");
    }

    #[test]
    fn rejects_bad_specs() {
        // Unknown key.
        let err = SweepSpec::from_json_str("{\"schedulers\": [\"hotpotato\"], \"schedulrs\": []}")
            .unwrap_err();
        assert!(err.to_string().contains("unknown key"), "{err}");
        // Missing required axis.
        assert!(SweepSpec::from_json_str("{}").is_err());
        // Unknown scheduler / benchmark.
        assert!(SweepSpec::from_json_str("{\"schedulers\": [\"magic\"]}").is_err());
        assert!(SweepSpec::from_json_str(
            "{\"schedulers\": [\"hotpotato\"], \"benchmarks\": [\"quake\"]}"
        )
        .is_err());
        // Bad load and grid values.
        assert!(
            SweepSpec::from_json_str("{\"schedulers\": [\"hotpotato\"], \"loads\": [0]}").is_err()
        );
        assert!(SweepSpec::from_json_str(
            "{\"schedulers\": [\"hotpotato\"], \"grids\": [\"4by4\"]}"
        )
        .is_err());
    }

    #[test]
    fn inline_fault_plans_round_trip() {
        let plan = FaultPlan::default();
        let src = format!(
            "{{\"schedulers\": [\"hotpotato\"], \"fault_plans\": [{}]}}",
            codec::pretty(&plan)
        );
        let spec = SweepSpec::from_json_str(&src).unwrap();
        assert_eq!(spec.fault_plans, vec![plan]);
    }

    #[test]
    fn rejects_fault_plans_that_are_not_an_array() {
        let err = SweepSpec::from_json_str(
            "{\"schedulers\": [\"hotpotato\"], \"fault_plans\": {\"seed\": 1}}",
        )
        .unwrap_err();
        assert!(
            err.to_string().contains("`fault_plans` is not an array"),
            "{err}"
        );
    }

    #[test]
    fn rejects_an_invalid_inline_fault_plan() {
        let err = SweepSpec::from_json_str(
            "{\"schedulers\": [\"hotpotato\"], \"fault_plans\": [{\"sensor_dropout_rate\": 2.0}]}",
        )
        .unwrap_err();
        assert!(err.to_string().contains("sensor_dropout_rate"), "{err}");
    }
}
