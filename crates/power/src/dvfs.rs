use crate::{PowerError, Result};

/// An index into a [`DvfsLadder`]: level `0` is the slowest operating point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct DvfsLevel(pub usize);

impl DvfsLevel {
    /// The raw level index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for DvfsLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "level{}", self.0)
    }
}

/// The discrete DVFS operating points of a core.
///
/// Frequencies run from `f_min` to `f_max` in uniform steps (the paper
/// allows the PCMig baseline "fine-grained DVFS at a step size of 100 MHz"),
/// and the supply voltage scales linearly between `v_min` and `v_max` — the
/// usual first-order model for a 14 nm process.
///
/// # Example
///
/// ```
/// use hp_power::DvfsLadder;
///
/// # fn main() -> Result<(), hp_power::PowerError> {
/// let ladder = DvfsLadder::default();
/// assert_eq!(ladder.level_count(), 31); // 1.0, 1.1, ..., 4.0 GHz
/// let peak = ladder.max_level();
/// assert_eq!(ladder.frequency_ghz(peak), 4.0);
/// // The largest level whose frequency is <= 2.35 GHz is 2.3 GHz.
/// let l = ladder.level_for_frequency(2.35)?;
/// assert!((ladder.frequency_ghz(l) - 2.3).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DvfsLadder {
    f_min_ghz: f64,
    f_max_ghz: f64,
    step_ghz: f64,
    v_min: f64,
    v_max: f64,
    levels: usize,
}

impl Default for DvfsLadder {
    /// The paper's configuration: 1.0–4.0 GHz in 100 MHz steps,
    /// 0.60–1.20 V.
    fn default() -> Self {
        // xtask: allow(panic) — constant parameters, pinned by the
        // `default_ladder_shape` unit test; cannot fail at runtime.
        DvfsLadder::new(1.0, 4.0, 0.1, 0.60, 1.20).expect("default ladder is valid")
    }
}

impl DvfsLadder {
    /// Creates a ladder from `f_min_ghz` to `f_max_ghz` (inclusive) in
    /// `step_ghz` increments, with voltage scaling linearly from `v_min`
    /// to `v_max`.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::InvalidParameter`] when frequencies or voltages
    /// are non-positive, inverted, or the step does not fit the range.
    pub fn new(
        f_min_ghz: f64,
        f_max_ghz: f64,
        step_ghz: f64,
        v_min: f64,
        v_max: f64,
    ) -> Result<Self> {
        for (name, value) in [
            ("f_min_ghz", f_min_ghz),
            ("f_max_ghz", f_max_ghz),
            ("step_ghz", step_ghz),
            ("v_min", v_min),
            ("v_max", v_max),
        ] {
            if !(value.is_finite() && value > 0.0) {
                return Err(PowerError::InvalidParameter { name, value });
            }
        }
        if f_max_ghz < f_min_ghz {
            return Err(PowerError::InvalidParameter {
                name: "f_max_ghz",
                value: f_max_ghz,
            });
        }
        if v_max < v_min {
            return Err(PowerError::InvalidParameter {
                name: "v_max",
                value: v_max,
            });
        }
        let span = f_max_ghz - f_min_ghz;
        let steps = (span / step_ghz).round();
        if (steps * step_ghz - span).abs() > 1e-9 {
            return Err(PowerError::InvalidParameter {
                name: "step_ghz",
                value: step_ghz,
            });
        }
        Ok(DvfsLadder {
            f_min_ghz,
            f_max_ghz,
            step_ghz,
            v_min,
            v_max,
            levels: steps as usize + 1,
        })
    }

    /// Number of operating points.
    pub fn level_count(&self) -> usize {
        self.levels
    }

    /// The slowest operating point.
    pub fn min_level(&self) -> DvfsLevel {
        DvfsLevel(0)
    }

    /// The fastest operating point.
    pub fn max_level(&self) -> DvfsLevel {
        DvfsLevel(self.levels - 1)
    }

    /// Iterator over all levels, slowest first.
    pub fn levels(&self) -> impl Iterator<Item = DvfsLevel> {
        (0..self.levels).map(DvfsLevel)
    }

    /// Validates a level.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::LevelOutOfRange`] for out-of-range levels.
    pub fn check(&self, level: DvfsLevel) -> Result<()> {
        if level.0 >= self.levels {
            return Err(PowerError::LevelOutOfRange {
                level: level.0,
                levels: self.levels,
            });
        }
        Ok(())
    }

    /// Clock frequency of `level` in GHz.
    ///
    /// # Panics
    ///
    /// Panics if `level` is out of range (use [`check`](Self::check) first
    /// for untrusted input).
    pub fn frequency_ghz(&self, level: DvfsLevel) -> f64 {
        assert!(level.0 < self.levels, "dvfs level out of range");
        (self.f_min_ghz + level.0 as f64 * self.step_ghz).min(self.f_max_ghz)
    }

    /// Supply voltage of `level` in volts (linear V–f scaling).
    ///
    /// # Panics
    ///
    /// Panics if `level` is out of range.
    pub fn voltage(&self, level: DvfsLevel) -> f64 {
        let f = self.frequency_ghz(level);
        if self.f_max_ghz == self.f_min_ghz {
            return self.v_max;
        }
        self.v_min
            + (self.v_max - self.v_min) * (f - self.f_min_ghz) / (self.f_max_ghz - self.f_min_ghz)
    }

    /// The fastest level whose frequency does not exceed `ghz`.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::FrequencyOutOfRange`] if `ghz` is below the
    /// ladder minimum; frequencies above the maximum saturate at the top
    /// level.
    pub fn level_for_frequency(&self, ghz: f64) -> Result<DvfsLevel> {
        if !ghz.is_finite() || ghz < self.f_min_ghz - 1e-12 {
            return Err(PowerError::FrequencyOutOfRange {
                ghz,
                min: self.f_min_ghz,
                max: self.f_max_ghz,
            });
        }
        let idx = ((ghz - self.f_min_ghz) / self.step_ghz + 1e-9).floor() as usize;
        Ok(DvfsLevel(idx.min(self.levels - 1)))
    }

    /// One step down (towards lower frequency), saturating at the bottom.
    pub fn step_down(&self, level: DvfsLevel) -> DvfsLevel {
        DvfsLevel(level.0.saturating_sub(1))
    }

    /// One step up (towards higher frequency), saturating at the top.
    pub fn step_up(&self, level: DvfsLevel) -> DvfsLevel {
        DvfsLevel((level.0 + 1).min(self.levels - 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_ladder_shape() {
        let l = DvfsLadder::default();
        assert_eq!(l.level_count(), 31);
        assert_eq!(l.frequency_ghz(l.min_level()), 1.0);
        assert_eq!(l.frequency_ghz(l.max_level()), 4.0);
        assert!((l.voltage(l.min_level()) - 0.60).abs() < 1e-12);
        assert!((l.voltage(l.max_level()) - 1.20).abs() < 1e-12);
    }

    #[test]
    fn voltage_monotone_in_level() {
        let l = DvfsLadder::default();
        let mut last = 0.0;
        for level in l.levels() {
            let v = l.voltage(level);
            assert!(v > last);
            last = v;
        }
    }

    #[test]
    fn level_for_frequency_rounds_down() {
        let l = DvfsLadder::default();
        let lv = l.level_for_frequency(2.35).unwrap();
        assert!((l.frequency_ghz(lv) - 2.3).abs() < 1e-9);
        let exact = l.level_for_frequency(2.3).unwrap();
        assert!((l.frequency_ghz(exact) - 2.3).abs() < 1e-9);
    }

    #[test]
    fn level_for_frequency_saturates_high() {
        let l = DvfsLadder::default();
        assert_eq!(l.level_for_frequency(9.0).unwrap(), l.max_level());
    }

    #[test]
    fn level_for_frequency_rejects_low() {
        let l = DvfsLadder::default();
        assert!(matches!(
            l.level_for_frequency(0.5),
            Err(PowerError::FrequencyOutOfRange { .. })
        ));
    }

    #[test]
    fn stepping_saturates() {
        let l = DvfsLadder::default();
        assert_eq!(l.step_down(DvfsLevel(0)), DvfsLevel(0));
        assert_eq!(l.step_up(l.max_level()), l.max_level());
        assert_eq!(l.step_up(DvfsLevel(3)), DvfsLevel(4));
        assert_eq!(l.step_down(DvfsLevel(3)), DvfsLevel(2));
    }

    #[test]
    fn rejects_bad_ranges() {
        assert!(DvfsLadder::new(4.0, 1.0, 0.1, 0.6, 1.2).is_err());
        assert!(DvfsLadder::new(1.0, 4.0, 0.1, 1.2, 0.6).is_err());
        assert!(DvfsLadder::new(1.0, 4.0, 0.0, 0.6, 1.2).is_err());
        assert!(DvfsLadder::new(1.0, 4.0, 0.7, 0.6, 1.2).is_err());
    }

    #[test]
    fn check_rejects_out_of_range() {
        let l = DvfsLadder::default();
        assert!(l.check(DvfsLevel(30)).is_ok());
        assert!(matches!(
            l.check(DvfsLevel(31)),
            Err(PowerError::LevelOutOfRange { .. })
        ));
    }

    #[test]
    fn single_level_ladder() {
        let l = DvfsLadder::new(2.0, 2.0, 0.1, 0.8, 0.8).unwrap();
        assert_eq!(l.level_count(), 1);
        assert_eq!(l.frequency_ghz(DvfsLevel(0)), 2.0);
        assert_eq!(l.voltage(DvfsLevel(0)), 0.8);
    }
}
