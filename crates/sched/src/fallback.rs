//! Graceful-degradation chain: HotPotato → TSP-uniform throttle.
//!
//! The rotation policy depends on two inputs the fault layer can poison:
//! trustworthy temperature sensors (its power estimates feed Algorithm 1)
//! and a solver that actually evaluates. [`FallbackChain`] watches both
//! and, when either fails, swaps the chip onto the conservative
//! [`TspUniform`] policy — no migrations, every busy core throttled to the
//! uniform TSP budget of its mapping — until the inputs are trustworthy
//! again. The hardware DTM watchdog in the engine remains the final
//! backstop below this chain.

use hotpotato::{HotPotato, HotPotatoConfig};
use hp_sim::codec::{decode, encode};
use hp_sim::{Action, Scheduler, SchedulerHealth, SimView};
use hp_thermal::RcThermalModel;

use crate::tsp_uniform::TspUniform;

/// Knobs of the degradation chain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FallbackConfig {
    /// Minimum acceptable [`SimView::min_sensor_confidence`]; below this
    /// the rotation policy is not trusted with migration decisions.
    pub confidence_floor: f64,
    /// Hooks the chain stays on the fallback policy before attempting
    /// recovery (hold hysteresis — prevents flapping when a fault is
    /// intermittent at exactly the scheduling period).
    pub hold_hooks: u64,
}

impl Default for FallbackConfig {
    fn default() -> Self {
        FallbackConfig {
            confidence_floor: 0.5,
            hold_hooks: 10,
        }
    }
}

/// HotPotato wrapped in a TSP-uniform safety net.
///
/// Nominal operation delegates to [`HotPotato`] unchanged. The chain
/// degrades when either
///
/// * the engine's conditioned sensor confidence drops below
///   [`FallbackConfig::confidence_floor`], or
/// * an Algorithm-1 evaluation fails (the solver's `T_peak = ∞`
///   degenerate reading) during a scheduling hook, or
/// * the solver's runtime numerical-invariant guard trips during a hook
///   (the eigen answer was rejected and recomputed densely — the chain
///   throttles until the retry confirms the dense path is stable).
///
/// Construction-time numerical arming (a model stiff enough that the
/// solver runs on its dense fallback from the start) is *not* a trigger:
/// the dense path is authoritative and the rotation policy stays valid.
///
/// While degraded it runs a [`TspUniform`] on a clone of the model
/// (placement on lowest-AMD free cores plus the uniform TSP budget of the
/// executing mapping) and reports [`SchedulerHealth::Degraded`] so the
/// engine can count fallback intervals. After
/// [`FallbackConfig::hold_hooks`] hooks with confidence restored it
/// resynchronises the rotation bookkeeping from the engine's ground truth
/// ([`HotPotato::resync_from_view`]), releases the throttle with a
/// chip-wide max-level action, and hands control back — unless the
/// retried evaluation fails again, in which case it stays on the fallback.
///
/// # Example
///
/// ```
/// use hp_floorplan::GridFloorplan;
/// use hp_sched::{FallbackChain, FallbackConfig};
/// use hp_thermal::{RcThermalModel, ThermalConfig};
/// use hotpotato::HotPotatoConfig;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let model = RcThermalModel::new(&GridFloorplan::new(4, 4)?, &ThermalConfig::default())?;
/// let _sched = FallbackChain::new(model, HotPotatoConfig::default(), FallbackConfig::default())?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct FallbackChain {
    primary: HotPotato,
    /// The safe mode: stateless but for its budget cache, which only
    /// memoises, so it is not snapshotted.
    safe: TspUniform,
    fallback: FallbackConfig,
    degraded: bool,
    hooks_on_fallback: u64,
    degradations: u64,
    recoveries: u64,
}

impl FallbackChain {
    /// Creates the chain; `model` must match the simulated machine. The
    /// rotation and the TSP-uniform safe mode both act against the view's
    /// [`SimView::t_dtm`].
    ///
    /// # Errors
    ///
    /// Propagates HotPotato construction failures.
    pub fn new(
        model: RcThermalModel,
        config: HotPotatoConfig,
        fallback: FallbackConfig,
    ) -> hotpotato::Result<Self> {
        Ok(FallbackChain {
            safe: TspUniform::new(model.clone()),
            primary: HotPotato::new(model, config)?,
            fallback,
            degraded: false,
            hooks_on_fallback: 0,
            degradations: 0,
            recoveries: 0,
        })
    }

    /// Whether the chain is currently running on the fallback policy.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Times the chain left nominal operation for the fallback policy.
    pub fn degradations(&self) -> u64 {
        self.degradations
    }

    /// Times the chain recovered from the fallback back to HotPotato.
    pub fn recoveries(&self) -> u64 {
        self.recoveries
    }

    /// Access to the wrapped rotation scheduler.
    pub fn rotation(&self) -> &HotPotato {
        &self.primary
    }

    fn enter_fallback(&mut self) {
        self.degraded = true;
        self.hooks_on_fallback = 0;
        self.degradations += 1;
    }

    /// Runs the primary, reporting whether Algorithm 1 failed during the
    /// hook (detected by differencing the monotone failure counter) or
    /// the solver's runtime invariant guard tripped (a typed
    /// `NumericalError` recovered internally by the dense fallback —
    /// treated the same as a failure so the chain throttles while the
    /// numerics settle).
    fn try_primary(&mut self, view: &SimView<'_>) -> (Vec<Action>, bool) {
        let failures_before = self.primary.solver_failures();
        let guard_trips_before = self.primary.solver().runtime().numerics().guard_trips;
        let actions = self.primary.schedule(view);
        let failed = self.primary.solver_failures() > failures_before
            || self.primary.solver().runtime().numerics().guard_trips > guard_trips_before;
        (actions, failed)
    }
}

hp_sim::codec! {
    /// [`FallbackChain`]'s snapshot blob.
    struct Snapshot {
        degraded: bool,
        hooks_on_fallback: u64,
        degradations: u64,
        recoveries: u64,
        primary: String,
    }
}

impl Scheduler for FallbackChain {
    fn name(&self) -> &str {
        "hotpotato-fallback-chain"
    }

    fn schedule(&mut self, view: &SimView<'_>) -> Vec<Action> {
        let confidence_ok = view.min_sensor_confidence() >= self.fallback.confidence_floor;

        if self.degraded {
            self.hooks_on_fallback += 1;
            if confidence_ok && self.hooks_on_fallback >= self.fallback.hold_hooks {
                // Recovery attempt: re-seat the rotation bookkeeping on
                // reality (fallback placements / failed migrations have
                // invalidated it), then let Algorithm 1 try again.
                self.primary.resync_from_view(view);
                let (mut actions, failed) = self.try_primary(view);
                if !failed {
                    self.degraded = false;
                    self.recoveries += 1;
                    // Release the fallback throttle; HotPotato manages
                    // temperature through placement, at peak frequency.
                    let ladder = &view.machine.config().dvfs;
                    actions.push(Action::SetAllLevels {
                        level: ladder.max_level(),
                    });
                    return actions;
                }
                // Solver still failing: discard its actions, stay safe.
            }
            return self.safe.schedule(view);
        }

        if !confidence_ok {
            self.enter_fallback();
            return self.safe.schedule(view);
        }

        let (actions, failed) = self.try_primary(view);
        if failed {
            // Discard the poisoned plan; throttle conservatively instead.
            self.enter_fallback();
            return self.safe.schedule(view);
        }
        actions
    }

    fn health(&self) -> SchedulerHealth {
        if self.degraded {
            SchedulerHealth::Degraded
        } else {
            SchedulerHealth::Nominal
        }
    }

    fn observability(&self) -> Option<hp_obs::RunReport> {
        // Forward the wrapped rotation scheduler's report and stack the
        // chain's own degradation accounting on top.
        let mut report = self.primary.observability().unwrap_or_default();
        report.push_counter("fallback.degradations", self.degradations);
        report.push_counter("fallback.recoveries", self.recoveries);
        report.push_counter("fallback.active", u64::from(self.degraded));
        Some(report)
    }

    // The chain's own counters plus the wrapped rotation scheduler's
    // blob, nested as an escaped string. The `FallbackConfig` and
    // `HotPotatoConfig` knobs are construction parameters that neither
    // this blob nor the engine's spec hash carries (the hash binds only
    // the scheduler's name): whoever resumes must rebuild the chain with
    // the configs of the checkpointed run. Campaigns always pass the
    // default `FallbackConfig` and build the `HotPotatoConfig` from the
    // job.
    fn snapshot(&self) -> Option<String> {
        Some(encode(&Snapshot {
            degraded: self.degraded,
            hooks_on_fallback: self.hooks_on_fallback,
            degradations: self.degradations,
            recoveries: self.recoveries,
            primary: self.primary.snapshot()?,
        }))
    }

    fn restore(&mut self, state: &str) -> std::result::Result<(), String> {
        let snap: Snapshot = decode(state).map_err(|e| format!("fallback-chain snapshot: {e}"))?;
        self.primary.restore(&snap.primary)?;
        self.degraded = snap.degraded;
        self.hooks_on_fallback = snap.hooks_on_fallback;
        self.degradations = snap.degradations;
        self.recoveries = snap.recoveries;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hp_floorplan::GridFloorplan;
    use hp_manycore::{ArchConfig, Machine};
    use hp_sim::{SimConfig, Simulation};
    use hp_thermal::ThermalConfig;
    use hp_workload::{closed_batch, Benchmark};

    fn setup(sim_config: SimConfig) -> (Simulation, RcThermalModel) {
        let machine = Machine::new(ArchConfig {
            grid_width: 4,
            grid_height: 4,
            ..ArchConfig::default()
        })
        .expect("valid config");
        let model = RcThermalModel::new(
            &GridFloorplan::new(4, 4).expect("grid"),
            &ThermalConfig::default(),
        )
        .expect("valid thermal config");
        let sim =
            Simulation::new(machine, ThermalConfig::default(), sim_config).expect("valid sim");
        (sim, model)
    }

    #[test]
    fn chain_is_transparent_without_faults() {
        // With clean sensors and a healthy solver the chain must behave
        // exactly like pure HotPotato.
        let jobs = closed_batch(Benchmark::Canneal, 8, 2);

        let (mut sim, model) = setup(SimConfig::default());
        let mut chain =
            FallbackChain::new(model, HotPotatoConfig::default(), FallbackConfig::default())
                .expect("valid");
        let chain_m = sim.run(jobs.clone(), &mut chain).expect("completes");
        assert_eq!(chain.degradations(), 0, "no degradation without faults");
        assert!(!chain.is_degraded());

        let (mut sim, model) = setup(SimConfig::default());
        let mut pure = HotPotato::new(model, HotPotatoConfig::default()).expect("valid");
        let pure_m = sim.run(jobs, &mut pure).expect("completes");

        assert_eq!(chain_m.makespan, pure_m.makespan, "bit-identical schedule");
        assert_eq!(chain_m.peak_temperature, pure_m.peak_temperature);
        assert_eq!(chain_m.migrations, pure_m.migrations);
        assert_eq!(chain_m.robustness.fallback_activations, 0);
    }

    #[test]
    fn chain_survives_heavy_sensor_faults() {
        // Under aggressive dropout + stuck sensors the chain must finish
        // the workload, spend time on the fallback, and keep the chip
        // within one degree of the DTM threshold.
        let faults = hp_faults::FaultPlan {
            seed: 42,
            sensor_dropout_rate: 0.4,
            sensor_stuck_rate: 0.05,
            sensor_stuck_intervals: 200,
            ..hp_faults::FaultPlan::default()
        };
        let config = SimConfig {
            horizon: 120.0,
            faults,
            ..SimConfig::default()
        };
        let t_dtm = config.t_dtm;
        let (mut sim, model) = setup(config);
        let mut chain =
            FallbackChain::new(model, HotPotatoConfig::default(), FallbackConfig::default())
                .expect("valid");
        let jobs = closed_batch(Benchmark::Swaptions, 8, 2);
        let m = sim.run(jobs, &mut chain).expect("completes despite faults");
        assert_eq!(m.completed_jobs(), m.jobs.len());
        assert!(
            m.robustness.fallback_activations > 0,
            "faults this heavy must trip the fallback at least once"
        );
        assert!(
            m.robustness.fallback_intervals >= m.robustness.fallback_activations,
            "each activation costs at least one hook"
        );
        assert!(
            m.peak_temperature <= t_dtm + 1.0,
            "degradation chain keeps the chip safe (peak {:.2})",
            m.peak_temperature
        );
    }

    #[test]
    fn chain_stays_nominal_on_armed_dense_fallback() {
        // A stiff model arms the solver's dense fallback at construction.
        // That is a numerical degradation, not a solver failure: the
        // dense answers are authoritative, so the chain must keep the
        // rotation policy in charge and complete the workload without
        // ever entering the TSP-uniform throttle.
        let machine = Machine::new(ArchConfig {
            grid_width: 4,
            grid_height: 4,
            ..ArchConfig::default()
        })
        .expect("valid config");
        let thermal = ThermalConfig::ill_conditioned();
        let model = RcThermalModel::new(&GridFloorplan::new(4, 4).expect("grid"), &thermal)
            .expect("valid thermal config");
        let mut sim = Simulation::new(machine, thermal, SimConfig::default()).expect("valid sim");
        let mut chain =
            FallbackChain::new(model, HotPotatoConfig::default(), FallbackConfig::default())
                .expect("valid");
        let m = sim
            .run(closed_batch(Benchmark::Canneal, 8, 2), &mut chain)
            .expect("completes on the dense numerical fallback");
        assert_eq!(m.completed_jobs(), m.jobs.len());
        assert!(chain.rotation().solver().degraded(), "stiff model arms");
        assert_eq!(
            chain.degradations(),
            0,
            "armed dense fallback is not a chain trigger"
        );
        assert!(!chain.is_degraded());
        assert!(
            chain
                .rotation()
                .solver()
                .runtime()
                .numerics()
                .fallback_activations
                >= 1,
            "dense fallback must have actually been exercised"
        );
    }

    #[test]
    fn chain_recovers_after_transient_degradation() {
        // Moderate dropout: confidence dips below the floor sometimes but
        // recovers; the chain must hand control back to HotPotato.
        let faults = hp_faults::FaultPlan {
            seed: 7,
            sensor_dropout_rate: 0.25,
            ..hp_faults::FaultPlan::default()
        };
        let config = SimConfig {
            horizon: 120.0,
            faults,
            ..SimConfig::default()
        };
        let (mut sim, model) = setup(config);
        let mut chain = FallbackChain::new(
            model,
            HotPotatoConfig::default(),
            FallbackConfig {
                confidence_floor: 0.9,
                hold_hooks: 3,
            },
        )
        .expect("valid");
        let jobs = closed_batch(Benchmark::Canneal, 8, 2);
        let m = sim.run(jobs, &mut chain).expect("completes");
        assert_eq!(m.completed_jobs(), m.jobs.len());
        assert!(chain.degradations() > 0, "floor at 0.9 must trip");
        assert!(
            chain.recoveries() > 0,
            "transient faults must allow recovery ({} degradations)",
            chain.degradations()
        );
    }
}
