use crate::{FaultError, Result};

/// A deterministic fault-injection plan.
///
/// All rates are per-draw probabilities in `[0, 1]` and default to zero:
/// `FaultPlan::default()` is *inert* ([`is_inert`](FaultPlan::is_inert)
/// returns `true`) and the engine skips the fault layer entirely, which
/// keeps the no-fault path bit-identical. Durations are measured in
/// simulation intervals; magnitudes carry their unit in the field name.
///
/// The same plan + seed + workload always produces the same fault
/// sequence — the determinism contract behind the pinned golden fault
/// scenario (DESIGN.md §8). A plan file is a flat JSON object that
/// `hp_sim::codec` writes and reads (DESIGN.md §13).
///
/// # Example
///
/// ```
/// use hp_faults::FaultPlan;
///
/// let plan = FaultPlan {
///     sensor_dropout_rate: 0.05,
///     seed: 7,
///     ..FaultPlan::default()
/// };
/// assert!(!plan.is_inert());
/// assert!(plan.validate().is_ok());
/// assert!(FaultPlan::default().is_inert());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// RNG seed; the whole fault sequence is a pure function of the seed
    /// and the engine's call order.
    pub seed: u64,
    /// Standard deviation of zero-mean Gaussian noise added to every
    /// delivered sensor reading, °C (0 = no noise).
    pub sensor_noise_sigma_celsius: f64,
    /// Per-core, per-interval probability of a sensor entering a
    /// stuck-at-last-value episode.
    pub sensor_stuck_rate: f64,
    /// Length of a stuck episode, in simulation intervals.
    pub sensor_stuck_intervals: u64,
    /// Per-core, per-interval probability that a reading is dropped
    /// entirely (the sensor returns nothing).
    pub sensor_dropout_rate: f64,
    /// Per-requested-migration probability that the move silently does
    /// not take effect.
    pub migration_failure_rate: f64,
    /// After a migration failure, *all* migrations keep failing for this
    /// many intervals (a migration-subsystem blackout).
    pub migration_blackout_intervals: u64,
    /// Per-interval probability that a transient power spike starts on a
    /// uniformly chosen core (at most one spike active at a time).
    pub power_spike_rate: f64,
    /// Extra power drawn by a spiking core, W.
    pub power_spike_watts: f64,
    /// Length of one power spike, in simulation intervals.
    pub power_spike_intervals: u64,
    /// Keep the fault layer engaged even when every rate is zero. Only
    /// used by the differential tests that pin down the contract "zero
    /// rates through the fault layer is bit-identical to no fault layer".
    pub force_active: bool,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            sensor_noise_sigma_celsius: 0.0,
            sensor_stuck_rate: 0.0,
            sensor_stuck_intervals: 50,
            sensor_dropout_rate: 0.0,
            migration_failure_rate: 0.0,
            migration_blackout_intervals: 10,
            power_spike_rate: 0.0,
            power_spike_watts: 0.0,
            power_spike_intervals: 10,
            force_active: false,
        }
    }
}

impl FaultPlan {
    /// `true` when the plan can never produce a fault, in which case the
    /// engine bypasses the fault layer entirely (bit-identical runs).
    pub fn is_inert(&self) -> bool {
        !self.force_active
            && self.sensor_noise_sigma_celsius == 0.0
            && self.sensor_stuck_rate == 0.0
            && self.sensor_dropout_rate == 0.0
            && self.migration_failure_rate == 0.0
            && self.power_spike_rate == 0.0
    }

    /// Validates every parameter.
    ///
    /// # Errors
    ///
    /// Returns [`FaultError::InvalidParameter`] naming the first
    /// offender: rates outside `[0, 1]`, non-finite or negative
    /// magnitudes, or a zero duration paired with a non-zero rate.
    pub fn validate(&self) -> Result<()> {
        for (name, value) in [
            ("sensor_stuck_rate", self.sensor_stuck_rate),
            ("sensor_dropout_rate", self.sensor_dropout_rate),
            ("migration_failure_rate", self.migration_failure_rate),
            ("power_spike_rate", self.power_spike_rate),
        ] {
            if !(value.is_finite() && (0.0..=1.0).contains(&value)) {
                return Err(FaultError::InvalidParameter { name, value });
            }
        }
        for (name, value) in [
            (
                "sensor_noise_sigma_celsius",
                self.sensor_noise_sigma_celsius,
            ),
            ("power_spike_watts", self.power_spike_watts),
        ] {
            if !(value.is_finite() && value >= 0.0) {
                return Err(FaultError::InvalidParameter { name, value });
            }
        }
        if self.sensor_stuck_rate > 0.0 && self.sensor_stuck_intervals == 0 {
            return Err(FaultError::InvalidParameter {
                name: "sensor_stuck_intervals",
                value: 0.0,
            });
        }
        if self.power_spike_rate > 0.0 && self.power_spike_intervals == 0 {
            return Err(FaultError::InvalidParameter {
                name: "power_spike_intervals",
                value: 0.0,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_inert_and_valid() {
        let plan = FaultPlan::default();
        assert!(plan.is_inert());
        assert!(plan.validate().is_ok());
    }

    #[test]
    fn force_active_defeats_inertness() {
        let plan = FaultPlan {
            force_active: true,
            ..FaultPlan::default()
        };
        assert!(!plan.is_inert());
    }

    #[test]
    fn any_nonzero_rate_defeats_inertness() {
        for plan in [
            FaultPlan {
                sensor_noise_sigma_celsius: 0.1,
                ..FaultPlan::default()
            },
            FaultPlan {
                sensor_stuck_rate: 0.1,
                ..FaultPlan::default()
            },
            FaultPlan {
                sensor_dropout_rate: 0.1,
                ..FaultPlan::default()
            },
            FaultPlan {
                migration_failure_rate: 0.1,
                ..FaultPlan::default()
            },
            FaultPlan {
                power_spike_rate: 0.1,
                ..FaultPlan::default()
            },
        ] {
            assert!(!plan.is_inert(), "{plan:?}");
        }
    }

    #[test]
    fn validation_rejects_bad_rates_and_durations() {
        let bad = FaultPlan {
            sensor_dropout_rate: 1.5,
            ..FaultPlan::default()
        };
        assert!(bad.validate().is_err());
        let bad = FaultPlan {
            sensor_noise_sigma_celsius: f64::NAN,
            ..FaultPlan::default()
        };
        assert!(bad.validate().is_err());
        let bad = FaultPlan {
            sensor_stuck_rate: 0.1,
            sensor_stuck_intervals: 0,
            ..FaultPlan::default()
        };
        assert!(bad.validate().is_err());
        let bad = FaultPlan {
            power_spike_rate: 0.1,
            power_spike_intervals: 0,
            ..FaultPlan::default()
        };
        assert!(bad.validate().is_err());
        let bad = FaultPlan {
            migration_failure_rate: -0.1,
            ..FaultPlan::default()
        };
        assert!(bad.validate().is_err());
    }
}
