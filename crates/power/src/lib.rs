//! DVFS and power models for the simulated S-NUCA many-core.
//!
//! The paper's baseline schedulers (PCGov/PCMig) use per-core DVFS at a
//! 100 MHz step size as their thermal knob; HotPotato runs every core at
//! peak frequency and relies on thread rotation instead. This crate models
//! the knob itself:
//!
//! * [`DvfsLadder`] — the discrete frequency levels (1.0–4.0 GHz by
//!   default, 100 MHz steps) and the V–f operating points.
//! * [`PowerModel`] — per-core power as
//!   `P = C_eff · activity · V² · f  +  P_leak(V, T)`, with
//!   temperature-dependent leakage, calibrated so a fully active core at
//!   4 GHz draws ~7 W and an idle core ~0.3 W (paper §VI).
//!
//! # Example
//!
//! ```
//! use hp_power::{DvfsLadder, PowerModel};
//!
//! # fn main() -> Result<(), hp_power::PowerError> {
//! let ladder = DvfsLadder::default();
//! let model = PowerModel::default();
//! let peak = ladder.max_level();
//! let busy = model.core_power(ladder.frequency_ghz(peak), ladder.voltage(peak), 1.0, 45.0);
//! let idle = model.idle_power();
//! assert!(busy > 6.0 && busy < 8.0);
//! assert!((idle - 0.3).abs() < 0.05);
//! # Ok(())
//! # }
//! ```

mod dvfs;
mod error;
mod model;

pub use dvfs::{DvfsLadder, DvfsLevel};
pub use error::PowerError;
pub use model::PowerModel;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, PowerError>;

/// Idle-core power estimate, W (paper §VI: 0.3 W): what a free core
/// draws in every scheduler's power map and in the TSP budgets.
pub const IDLE_WATTS: f64 = 0.3;
