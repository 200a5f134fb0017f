//! **Extension (paper §VII future work):** unifying synchronous thread
//! rotation with DVFS.
//!
//! Pure HotPotato refuses to touch frequency: when even the fastest
//! rotation cannot keep `T_peak < T_DTM` (a fully loaded chip of
//! compute-bound threads), it runs at 4 GHz and lets the hardware DTM
//! duty-cycle the chip — wasteful, because DTM crashes to the minimum
//! frequency. [`HotPotatoDvfs`] adds the knob the paper plans as future
//! work: when the rotation analytics report an unsustainable schedule,
//! the chip is throttled to the *highest* frequency whose power the
//! rotation CAN sustain — a much gentler cut than both DTM and PCMig's
//! steady-state TSP budget; when the rotation becomes sustainable again,
//! frequency returns to peak.

use hotpotato::{HotPotato, HotPotatoConfig};
use hp_power::DvfsLevel;
use hp_sim::codec::{decode, encode};
use hp_sim::{Action, Scheduler, SimView};
use hp_thermal::RcThermalModel;

/// HotPotato + DVFS hybrid: rotation first, frequency as the overflow
/// valve.
///
/// # Example
///
/// ```
/// use hp_floorplan::GridFloorplan;
/// use hp_sched::HotPotatoDvfs;
/// use hp_thermal::{RcThermalModel, ThermalConfig};
/// use hotpotato::HotPotatoConfig;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let model = RcThermalModel::new(&GridFloorplan::new(4, 4)?, &ThermalConfig::default())?;
/// let _sched = HotPotatoDvfs::new(model, HotPotatoConfig::default())?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct HotPotatoDvfs {
    inner: HotPotato,
    t_dtm: f64,
    /// Current chip-wide throttle level (None = peak everywhere).
    throttle: Option<DvfsLevel>,
}

impl HotPotatoDvfs {
    /// Creates the hybrid scheduler; `model` must match the simulated
    /// machine.
    ///
    /// # Errors
    ///
    /// Propagates HotPotato construction failures.
    pub fn new(model: RcThermalModel, config: HotPotatoConfig) -> hotpotato::Result<Self> {
        Ok(HotPotatoDvfs {
            t_dtm: config.t_dtm,
            inner: HotPotato::new(model, config)?,
            throttle: None,
        })
    }

    /// The currently applied chip-wide throttle, if any.
    pub fn throttle(&self) -> Option<DvfsLevel> {
        self.throttle
    }

    /// Access to the wrapped rotation scheduler.
    pub fn rotation(&self) -> &HotPotato {
        &self.inner
    }
}

hp_sim::codec! {
    /// [`HotPotatoDvfs`]'s snapshot blob.
    struct Snapshot {
        throttle: Option<DvfsLevel>,
        inner: String,
    }
}

impl Scheduler for HotPotatoDvfs {
    fn name(&self) -> &str {
        "hotpotato-dvfs"
    }

    fn schedule(&mut self, view: &SimView<'_>) -> Vec<Action> {
        let mut actions = self.inner.schedule(view);
        let ladder = &view.machine.config().dvfs;

        // The inner scheduler has already exhausted its knobs (eviction,
        // rotation acceleration). The valve reacts to *measured*
        // temperature — the d→∞ rotation estimate is deliberately
        // conservative (it assumes a fully warmed heat sink), and acting
        // on it would over-throttle short runs the way a worst-case TSP
        // budget does. A one-step-per-period bang-bang controller with a
        // hysteresis band just below the DTM trip point keeps the chip at
        // the highest sustainable frequency.
        let measured = view.core_temps.max();
        let margin = 0.5;

        let next = if measured > self.t_dtm - margin {
            // About to trip DTM: throttle one step further. Power drops
            // superlinearly in frequency, so a few 100 MHz steps suffice.
            Some(match self.throttle {
                Some(level) => ladder.step_down(level),
                None => ladder.step_down(ladder.max_level()),
            })
        } else if measured < self.t_dtm - 3.0 * margin {
            // Comfortable again: release one step towards peak.
            match self.throttle {
                Some(level) if ladder.step_up(level) == ladder.max_level() => None,
                Some(level) => Some(ladder.step_up(level)),
                None => None,
            }
        } else {
            self.throttle // hold
        };

        if next != self.throttle {
            self.throttle = next;
            actions.push(Action::SetAllLevels {
                level: next.unwrap_or(ladder.max_level()),
            });
        }
        actions
    }

    fn observability(&self) -> Option<hp_obs::RunReport> {
        // Forward the wrapped rotation scheduler's report; the valve
        // itself only contributes its current throttle state.
        let mut report = self.inner.observability().unwrap_or_default();
        report.push_counter("dvfs.throttled", u64::from(self.throttle.is_some()));
        Some(report)
    }

    // The valve's only state is the chip-wide throttle level; the wrapped
    // rotation scheduler's blob rides along as an escaped string.
    fn snapshot(&self) -> Option<String> {
        Some(encode(&Snapshot {
            throttle: self.throttle,
            inner: self.inner.snapshot()?,
        }))
    }

    fn restore(&mut self, state: &str) -> std::result::Result<(), String> {
        let snap: Snapshot = decode(state).map_err(|e| format!("hotpotato-dvfs snapshot: {e}"))?;
        self.inner.restore(&snap.inner)?;
        self.throttle = snap.throttle;
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

    fn setup() -> (Simulation, RcThermalModel) {
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
        let sim = Simulation::new(
            machine,
            ThermalConfig::default(),
            SimConfig {
                horizon: 120.0,
                ..SimConfig::default()
            },
        )
        .expect("valid sim config");
        (sim, model)
    }

    #[test]
    fn hybrid_completes_oversubscribed_hot_load() {
        // A full chip of swaptions is unsustainable for pure rotation;
        // the hybrid must finish it with almost no DTM interference.
        let (mut sim, model) = setup();
        let mut s = HotPotatoDvfs::new(model, HotPotatoConfig::default()).expect("valid");
        let jobs = closed_batch(Benchmark::Swaptions, 16, 1);
        let m = sim.run(jobs, &mut s).expect("completes");
        assert_eq!(m.completed_jobs(), m.jobs.len());
        // The DTM watchdog holds each engagement until the peak falls a
        // full hysteresis band below t_dtm, so a trip now costs several
        // intervals; "rare" means a handful of engagements, not a
        // per-interval duty cycle (which would be thousands).
        assert!(
            m.dtm_intervals < 60,
            "DVFS valve keeps DTM rare ({} intervals)",
            m.dtm_intervals
        );
        assert!(
            m.robustness.watchdog_activations > 0
                && m.robustness.watchdog_activations <= m.dtm_intervals,
            "engagement edges are counted ({} trips over {} intervals)",
            m.robustness.watchdog_activations,
            m.dtm_intervals
        );
        assert!(m.peak_temperature <= 71.0, "peak {:.1}", m.peak_temperature);
    }

    #[test]
    fn hybrid_beats_pure_rotation_on_saturated_load() {
        let jobs = closed_batch(Benchmark::Swaptions, 16, 1);

        let (mut sim, model) = setup();
        let mut hybrid = HotPotatoDvfs::new(model, HotPotatoConfig::default()).expect("valid");
        let hybrid_m = sim.run(jobs.clone(), &mut hybrid).expect("completes");

        let (mut sim, model) = setup();
        let mut pure = hotpotato::HotPotato::new(model, HotPotatoConfig::default()).expect("valid");
        let pure_m = sim.run(jobs, &mut pure).expect("completes");

        assert!(
            hybrid_m.makespan <= pure_m.makespan * 1.02,
            "hybrid {:.1} ms vs pure {:.1} ms",
            hybrid_m.makespan * 1e3,
            pure_m.makespan * 1e3
        );
        // And it does so with far fewer hardware interventions.
        assert!(hybrid_m.dtm_intervals <= pure_m.dtm_intervals);
    }

    #[test]
    fn hybrid_keeps_peak_frequency_on_cool_load() {
        let (mut sim, model) = setup();
        let mut s = HotPotatoDvfs::new(model, HotPotatoConfig::default()).expect("valid");
        let jobs = closed_batch(Benchmark::Canneal, 8, 2);
        let m = sim.run(jobs, &mut s).expect("completes");
        assert_eq!(m.completed_jobs(), m.jobs.len());
        assert_eq!(s.throttle(), None, "no throttle for a cool workload");
    }
}
