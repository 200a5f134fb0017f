use hp_power::{DvfsLadder, PowerModel};

use crate::{ManycoreError, MigrationModel, Result};

/// Machine parameters of the simulated S-NUCA processor (paper Table I).
///
/// | Parameter        | Default                              |
/// |------------------|--------------------------------------|
/// | Cores            | 64 (8×8 grid)                        |
/// | Core model       | x86-like OoO, 1.0–4.0 GHz DVFS       |
/// | L1 I/D           | 16/16 KB, 8-way, 64 B blocks         |
/// | LLC              | 128 KB per core, 16-way, 64 B blocks |
/// | NoC latency      | 1.5 ns per hop                       |
/// | NoC link width   | 256 bit                              |
/// | Core area        | 0.81 mm²                             |
///
/// # Example
///
/// ```
/// use hp_manycore::ArchConfig;
///
/// let cfg = ArchConfig { grid_width: 4, grid_height: 4, ..ArchConfig::default() };
/// assert_eq!(cfg.core_count(), 16);
/// assert!(cfg.validate().is_ok());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ArchConfig {
    /// Grid width in cores.
    pub grid_width: usize,
    /// Grid height in cores.
    pub grid_height: usize,
    /// DVFS operating points.
    pub dvfs: DvfsLadder,
    /// Per-core power model.
    pub power: PowerModel,
    /// NoC latency per hop, ns (Table I: 1.5 ns).
    pub noc_hop_ns: f64,
    /// LLC bank access latency (tag + data array), ns.
    pub llc_bank_ns: f64,
    /// Off-chip memory access latency, ns.
    pub memory_ns: f64,
    /// Private L1 data cache size, KiB (Table I: 16).
    pub l1_kb: usize,
    /// LLC slice per core, KiB (Table I: 128).
    pub llc_kb_per_core: usize,
    /// Cache block size, bytes (Table I: 64).
    pub block_bytes: usize,
    /// Core area, mm² (Table I: 0.81).
    pub core_area_mm2: f64,
    /// Migration cost model.
    pub migration: MigrationModel,
}

impl Default for ArchConfig {
    fn default() -> Self {
        ArchConfig {
            grid_width: 8,
            grid_height: 8,
            dvfs: DvfsLadder::default(),
            power: PowerModel::default(),
            noc_hop_ns: 1.5,
            llc_bank_ns: 4.0,
            memory_ns: 80.0,
            l1_kb: 16,
            llc_kb_per_core: 128,
            block_bytes: 64,
            core_area_mm2: 0.81,
            migration: MigrationModel::default(),
        }
    }
}

impl ArchConfig {
    /// Total number of cores.
    pub fn core_count(&self) -> usize {
        self.grid_width * self.grid_height
    }

    /// Validates all parameters.
    ///
    /// # Errors
    ///
    /// Returns [`ManycoreError::InvalidParameter`] naming the first
    /// offender; grid dimensions of zero are reported as `grid_width` /
    /// `grid_height`.
    pub fn validate(&self) -> Result<()> {
        if self.grid_width == 0 {
            return Err(ManycoreError::InvalidParameter {
                name: "grid_width",
                value: 0.0,
            });
        }
        if self.grid_height == 0 {
            return Err(ManycoreError::InvalidParameter {
                name: "grid_height",
                value: 0.0,
            });
        }
        for (name, value) in [
            ("noc_hop_ns", self.noc_hop_ns),
            ("llc_bank_ns", self.llc_bank_ns),
            ("memory_ns", self.memory_ns),
            ("core_area_mm2", self.core_area_mm2),
            ("l1_kb", self.l1_kb as f64),
            ("llc_kb_per_core", self.llc_kb_per_core as f64),
            ("block_bytes", self.block_bytes as f64),
        ] {
            if !(value.is_finite() && value > 0.0) {
                return Err(ManycoreError::InvalidParameter { name, value });
            }
        }
        self.migration.validate()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table1() {
        let c = ArchConfig::default();
        assert_eq!(c.core_count(), 64);
        assert_eq!(c.noc_hop_ns, 1.5);
        assert_eq!(c.l1_kb, 16);
        assert_eq!(c.llc_kb_per_core, 128);
        assert_eq!(c.block_bytes, 64);
        assert_eq!(c.core_area_mm2, 0.81);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn rejects_zero_grid() {
        let c = ArchConfig {
            grid_width: 0,
            ..ArchConfig::default()
        };
        assert!(matches!(
            c.validate(),
            Err(ManycoreError::InvalidParameter {
                name: "grid_width",
                ..
            })
        ));
    }

    #[test]
    fn rejects_negative_latency() {
        let c = ArchConfig {
            noc_hop_ns: -1.0,
            ..ArchConfig::default()
        };
        assert!(c.validate().is_err());
    }
}
