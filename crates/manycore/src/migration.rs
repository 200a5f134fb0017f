use crate::{ManycoreError, Result};

/// Cost model for a thread migration on an S-NUCA many-core.
///
/// Because the LLC is logically shared, a migration only needs to
/// write back the private L1/L2 state and refill it through the LLC
/// (paper §I). We model this as
///
/// * a fixed **flush stall** while dirty private lines drain to the LLC
///   and the context moves, and
/// * a **warmup window** after restart during which the flushed private
///   lines refill through the LLC. The *total* extra misses per
///   migration are bounded by the private cache's line count
///   (`refill_lines`), so memory-streaming threads — whose L1 content is
///   transient anyway — pay barely more than their steady miss traffic,
///   exactly the "not particularly severe" penalty the paper's premise
///   rests on (§I).
///
/// Defaults are calibrated so a 0.5 ms rotation epoch costs a
/// compute-bound thread several percent (Fig. 2(c) reports an 8.1 %
/// rotation penalty), far below the DVFS penalty a TSP budget would
/// impose.
///
/// # Example
///
/// ```
/// use hp_manycore::MigrationModel;
///
/// let m = MigrationModel::default();
/// // Penalty fraction for a 0.5 ms epoch: stall + part of the warmup.
/// assert!(m.flush_seconds() < 0.5e-3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationModel {
    /// Stall while flushing private caches and moving the context, µs.
    pub flush_us: f64,
    /// Cold-cache window after restart, µs.
    pub warmup_us: f64,
    /// Private cache lines that must refill after a migration (I + D).
    pub refill_lines: u64,
}

impl Default for MigrationModel {
    fn default() -> Self {
        MigrationModel {
            // 16+16 KB L1 at 64 B/line = 512 lines; writing back and
            // refilling through the LLC at a few ns each ≈ a few µs.
            flush_us: 8.0,
            warmup_us: 60.0,
            refill_lines: 512,
        }
    }
}

impl MigrationModel {
    /// Flush stall in seconds.
    pub fn flush_seconds(&self) -> f64 {
        self.flush_us * 1e-6
    }

    /// Warmup window in seconds.
    pub fn warmup_seconds(&self) -> f64 {
        self.warmup_us * 1e-6
    }

    /// The extra L1 misses per kilo-instruction during the warmup window
    /// for a thread retiring `nominal_ips` instructions per second:
    /// `refill_lines` spread over the instructions executed in the window.
    ///
    /// Returns `0.0` for a non-positive `nominal_ips` (idle threads).
    pub fn warmup_extra_mpki(&self, nominal_ips: f64) -> f64 {
        let window_instructions = nominal_ips * self.warmup_seconds();
        if window_instructions <= 0.0 {
            return 0.0;
        }
        self.refill_lines as f64 * 1000.0 / window_instructions
    }

    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns [`ManycoreError::InvalidParameter`] for negative or
    /// non-finite values, or a warmup factor below 1.
    pub fn validate(&self) -> Result<()> {
        for (name, value) in [("flush_us", self.flush_us), ("warmup_us", self.warmup_us)] {
            if !(value.is_finite() && value >= 0.0) {
                return Err(ManycoreError::InvalidParameter { name, value });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_valid_and_sub_epoch() {
        let m = MigrationModel::default();
        assert!(m.validate().is_ok());
        // The entire migration disruption must fit well within a 0.5 ms
        // rotation epoch, otherwise rotation could never pay off.
        assert!(m.flush_seconds() + m.warmup_seconds() < 0.25e-3);
    }

    #[test]
    fn rejects_negative_flush() {
        let m = MigrationModel {
            flush_us: -1.0,
            ..MigrationModel::default()
        };
        assert!(m.validate().is_err());
    }

    #[test]
    fn warmup_extra_mpki_capacity_bounded() {
        let m = MigrationModel::default();
        // A 5.8 GIPS compute-bound thread retires ~348k instructions in
        // the 60 us window: 512 lines over 348 kilo-instructions.
        let extra = m.warmup_extra_mpki(5.8e9);
        assert!((extra - 512.0 * 1000.0 / (5.8e9 * 60e-6)).abs() < 1e-9);
        assert!(extra > 1.0 && extra < 2.0, "extra {extra}");
        // Total extra misses are ips-independent: slower threads see a
        // proportionally higher rate over fewer instructions.
        let slow = m.warmup_extra_mpki(0.6e9);
        assert!((slow / extra - 5.8 / 0.6).abs() < 1e-6);
    }

    #[test]
    fn warmup_extra_mpki_zero_for_idle() {
        assert_eq!(MigrationModel::default().warmup_extra_mpki(0.0), 0.0);
    }
}
