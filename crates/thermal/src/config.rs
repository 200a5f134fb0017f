use crate::{Result, ThermalError};

/// Package and material parameters of the compact RC thermal model.
///
/// All conductances are in W/K *per core patch*, capacitances in J/K per
/// patch. The defaults model the paper's Table-I processor: 0.81 mm² cores
/// at 14 nm under a copper spreader and a forced-air heat sink, calibrated
/// so that
///
/// * a fully loaded compute-bound core at 4 GHz (~7 W) exceeds the 70 °C
///   threshold by ~10 °C (Fig. 2(a)),
/// * rotating two such threads over the four centre cores keeps the peak
///   near but below the threshold (Fig. 2(c)),
/// * the junction time constant sits in the low-millisecond range, so
///   0.5 ms rotations average temperatures effectively.
///
/// # Example
///
/// ```
/// use hp_thermal::ThermalConfig;
///
/// let cfg = ThermalConfig {
///     ambient: 50.0,
///     ..ThermalConfig::default()
/// };
/// assert!(cfg.validate().is_ok());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalConfig {
    /// Ambient temperature in °C (paper: 45 °C).
    pub ambient: f64,
    /// Junction (silicon) heat capacity per core, J/K.
    pub c_junction: f64,
    /// Heat-spreader patch capacity per core, J/K.
    pub c_spreader: f64,
    /// Heat-sink patch capacity per core, J/K.
    pub c_sink: f64,
    /// Vertical conductance junction → spreader (through die + TIM), W/K.
    pub g_junction_spreader: f64,
    /// Vertical conductance spreader → sink, W/K.
    pub g_spreader_sink: f64,
    /// Convection conductance sink → ambient per core patch, W/K.
    pub g_sink_ambient: f64,
    /// Lateral conductance between adjacent junction patches, W/K.
    pub g_lateral_junction: f64,
    /// Lateral conductance between adjacent spreader patches, W/K.
    pub g_lateral_spreader: f64,
    /// Lateral conductance between adjacent sink patches, W/K.
    pub g_lateral_sink: f64,
    /// Extra sink→ambient conductance per missing grid neighbour, W/K.
    ///
    /// Edge and corner patches of a real heat sink border peripheral fin
    /// area, so they cool better than interior patches. This term is what
    /// makes the die centre thermally constrained and the outer AMD rings
    /// thermally relaxed (paper Fig. 3): a corner patch (2 missing
    /// neighbours) gains `2 × g_sink_edge` of additional ambient coupling.
    pub g_sink_edge: f64,
    /// Extra spreader→sink conductance per missing grid neighbour, W/K.
    ///
    /// Models heat spreading from edge spreader patches into the
    /// peripheral spreader/sink area beyond the die outline.
    pub g_spreader_edge: f64,
}

impl Default for ThermalConfig {
    fn default() -> Self {
        ThermalConfig {
            ambient: 45.0,
            // Silicon: 1.75e6 J/(m^3 K) x 0.81 mm^2 x 0.5 mm die.
            c_junction: 7.1e-4,
            // Copper spreader: 3.45e6 J/(m^3 K) x ~1.6 mm^2 x 1 mm.
            c_spreader: 5.6e-3,
            // Aluminium sink mass apportioned per core patch.
            c_sink: 0.35,
            // Die + TIM vertical path: ~4.5 K/W for a 0.81 mm^2 core.
            g_junction_spreader: 0.215,
            // Spreader to sink base.
            g_spreader_sink: 0.90,
            // Forced-air convection share per core patch (~8 K/W per patch,
            // i.e. 0.125 K/W for the whole 64-core package).
            g_sink_ambient: 0.18,
            // Silicon lateral: thinned (~0.1 mm) 14 nm die, 0.9 mm pitch
            // - lateral conduction in the die is marginal.
            g_lateral_junction: 0.005,
            // Copper lateral: k=400 W/(m K), 1 mm thick.
            g_lateral_spreader: 0.40,
            // Sink base lateral: thick aluminium.
            g_lateral_sink: 1.2,
            // Vertical die + TIM path calibrated against Fig. 2.
            // (see examples/calibrate.rs)
            g_sink_edge: 0.60,
            g_spreader_edge: 0.60,
        }
    }
}

impl ThermalConfig {
    /// Checks that all parameters are physical (finite and positive).
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidParameter`] naming the first offender.
    pub fn validate(&self) -> Result<()> {
        let named = [
            ("c_junction", self.c_junction),
            ("c_spreader", self.c_spreader),
            ("c_sink", self.c_sink),
            ("g_junction_spreader", self.g_junction_spreader),
            ("g_spreader_sink", self.g_spreader_sink),
            ("g_sink_ambient", self.g_sink_ambient),
            ("g_lateral_junction", self.g_lateral_junction),
            ("g_lateral_spreader", self.g_lateral_spreader),
            ("g_lateral_sink", self.g_lateral_sink),
        ];
        for (name, value) in [
            ("g_sink_edge", self.g_sink_edge),
            ("g_spreader_edge", self.g_spreader_edge),
        ] {
            if !(value.is_finite() && value >= 0.0) {
                return Err(ThermalError::InvalidParameter { name, value });
            }
        }
        for (name, value) in named {
            if !(value.is_finite() && value > 0.0) {
                return Err(ThermalError::InvalidParameter { name, value });
            }
        }
        if !self.ambient.is_finite() {
            return Err(ThermalError::InvalidParameter {
                name: "ambient",
                value: self.ambient,
            });
        }
        Ok(())
    }

    /// An intentionally ill-conditioned configuration for numerics-chaos
    /// testing: the junction capacitance is shrunk by nine orders of
    /// magnitude, pushing the capacitance ratio `max(A)/min(A)` to ~5e12
    /// and the system's eigenvalue spread past
    /// [`CONDITION_FALLBACK_THRESHOLD`], so every solver built on this
    /// profile arms its dense fallback at construction. All parameters
    /// stay positive and finite — the model *builds*; it is the eigen
    /// fast path that cannot be trusted on it.
    ///
    /// [`CONDITION_FALLBACK_THRESHOLD`]: crate::CONDITION_FALLBACK_THRESHOLD
    pub fn ill_conditioned() -> Self {
        ThermalConfig {
            // Ten orders below the physical value: the junction reacts
            // ~1e10× faster than the sink, a stiffness the eigen route
            // cannot resolve in f64.
            c_junction: 7.1e-14,
            ..ThermalConfig::default()
        }
    }

    /// Junction thermal time constant `C/G` of an isolated core, seconds.
    ///
    /// Rotations faster than this constant average heat effectively; the
    /// default configuration yields ~2.8 ms, comfortably above the paper's
    /// 0.5 ms rotation epoch.
    pub fn junction_time_constant(&self) -> f64 {
        self.c_junction / self.g_junction_spreader
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(ThermalConfig::default().validate().is_ok());
    }

    #[test]
    fn rejects_nonpositive() {
        let cfg = ThermalConfig {
            c_junction: 0.0,
            ..ThermalConfig::default()
        };
        assert!(matches!(
            cfg.validate(),
            Err(ThermalError::InvalidParameter {
                name: "c_junction",
                ..
            })
        ));
    }

    #[test]
    fn rejects_nan_ambient() {
        let cfg = ThermalConfig {
            ambient: f64::NAN,
            ..ThermalConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn ill_conditioned_profile_is_valid_but_stiff() {
        let cfg = ThermalConfig::ill_conditioned();
        assert!(cfg.validate().is_ok());
        let ratio = cfg.c_sink / cfg.c_junction;
        assert!(ratio > 1e12, "capacitance ratio {ratio:e}");
    }

    #[test]
    fn junction_time_constant_in_millisecond_range() {
        let tau = ThermalConfig::default().junction_time_constant();
        assert!(tau > 1e-3 && tau < 10e-3, "tau = {tau}");
    }
}
