//! **HotPotato** — thermal management for S-NUCA many-cores via synchronous
//! thread rotations.
//!
//! Reproduction of Shen, Niknam, Pathania & Pimentel, DATE 2023. The crate
//! provides the paper's two contributions:
//!
//! 1. **Peak-temperature analysis of a periodic thread rotation**
//!    ([`RotationPeakSolver`], paper §IV, Eqs. 4–11 and Algorithm 1).
//!    Rotating threads over a set of cores with epoch `τ` and period `δ`
//!    drives the RC thermal model into a *steady periodic cycle*; because
//!    all eigenvalues of `C = −A⁻¹B` are negative, the cycle's
//!    epoch-boundary temperatures have geometric-series closed forms that
//!    can be evaluated in microseconds — fast enough for a run-time
//!    scheduler.
//! 2. **The HotPotato scheduler** ([`HotPotato`], paper §V, Algorithm 2):
//!    a greedy policy over the concentric AMD rings of the floorplan that
//!    assigns new threads to the best-performing thermally sustainable
//!    ring, rotates every ring synchronously, evicts compute-bound threads
//!    outward under thermal pressure and promotes memory-bound threads
//!    inward when headroom appears — all at peak frequency, no DVFS.
//!
//! # Example: the Fig. 1 rotation, analytically
//!
//! ```
//! use hp_floorplan::{CoreId, GridFloorplan};
//! use hp_linalg::Vector;
//! use hp_thermal::{RcThermalModel, ThermalConfig};
//! use hotpotato::{EpochPowerSequence, RotationPeakSolver};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let fp = GridFloorplan::new(4, 4)?;
//! let model = RcThermalModel::new(&fp, &ThermalConfig::default())?;
//! let solver = RotationPeakSolver::new(model)?;
//!
//! // Two 7 W threads rotating over the centre ring {5, 6, 10, 9} at 0.5 ms.
//! let ring = [CoreId(5), CoreId(6), CoreId(10), CoreId(9)];
//! let mut epochs = Vec::new();
//! for e in 0..4 {
//!     let mut p = Vector::constant(16, 0.3);
//!     p[ring[e % 4].index()] = 7.0;
//!     p[ring[(e + 2) % 4].index()] = 7.0;
//!     epochs.push(p);
//! }
//! let seq = EpochPowerSequence::new(0.5e-3, epochs)?;
//! let report = solver.peak(&seq)?;
//! // The rotation averages the heat: peak stays below the 70 °C threshold,
//! // while pinning the same threads (Fig. 2(a)) exceeds it.
//! assert!(report.peak_celsius < 70.0);
//! # Ok(())
//! # }
//! ```

mod error;
mod peak;
mod rotation;
mod scheduler;

pub mod design_space;

pub use error::HotPotatoError;
pub use peak::{DenseEpochMap, PeakReport, ProbeSession, RotationPeakSolver};
pub use rotation::{EpochPowerSequence, RingRotation};
pub use scheduler::{HotPotato, HotPotatoConfig};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, HotPotatoError>;
