//! HotSpot-style compact RC thermal model for grid many-cores, the
//! MatEx-style transient solver, and TSP power budgeting.
//!
//! The model follows the paper's §III-B formulation
//!
//! ```text
//! A·T' + B·T = P + T_amb·G        (paper Eq. 1)
//! ```
//!
//! with `A` the diagonal matrix of thermal capacitances, `B` the symmetric
//! positive-definite conductance matrix (ambient leaks included on the
//! diagonal), `P` the power map and `G` the conductance-to-ambient column.
//! Each core contributes a three-node vertical stack — junction (silicon),
//! heat-spreader patch and heat-sink patch — with lateral coupling between
//! neighbouring patches in every layer, so a `w × h` chip yields
//! `N = 3·w·h` thermal nodes.
//!
//! Three solvers operate on the model:
//!
//! * [`RcThermalModel::steady_state`] — `T_steady = B⁻¹(P + T_amb·G)`
//!   (paper Eq. 3), using a cached LU factorization of `B`.
//! * [`TransientSolver`] — `T(t) = T_steady + e^{C·t}(T_init − T_steady)`
//!   (paper Eq. 4) through the eigendecomposition of `C = −A⁻¹B`, the same
//!   route as the MatEx solver the paper builds on, evaluated in eigen
//!   coordinates with the operators of the model's [`ModalBasis`]. The
//!   model builds that basis once, on first use by
//!   [`RcThermalModel::basis`], and every clone of the model shares it,
//!   so all solvers of one chip step in one basis. The interval engine
//!   carries its [`ThermalState`] in eigen coordinates and, on intervals
//!   whose spreader and sink rows a modal certificate provably keeps
//!   inside the envelope guard, reads out only the junctions. Its
//!   caches, envelope guard and tallies live in a [`ModalRuntime`], the
//!   same bookkeeping Algorithm 1's rotation-peak solver uses.
//! * [`tsp`] — Thermal Safe Power budgets (paper ref. \[14\]): the largest
//!   uniform per-core power for a given active-core mapping such that no
//!   steady-state junction temperature exceeds the DTM threshold.
//!
//! # Example
//!
//! ```
//! use hp_floorplan::GridFloorplan;
//! use hp_thermal::{RcThermalModel, ThermalConfig};
//! use hp_linalg::Vector;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let fp = GridFloorplan::new(4, 4)?;
//! let model = RcThermalModel::new(&fp, &ThermalConfig::default())?;
//! // All cores idle: the chip settles barely above ambient.
//! let idle = Vector::constant(16, 0.3);
//! let t = model.steady_state(&idle)?;
//! let hottest = model.core_temperatures(&t).max();
//! assert!(hottest > 45.0 && hottest < 55.0);
//! # Ok(())
//! # }
//! ```

mod config;
mod error;
mod fallback;
mod modal;
mod model;
mod runtime;
mod transient;

pub mod stacked;
pub mod tsp;

pub use config::ThermalConfig;
pub use error::ThermalError;
pub use fallback::{DenseStepper, DENSE_SUBSTEPS};
pub use modal::ModalBasis;
pub use model::{Layer, ModelHealth, RcThermalModel, CONDITION_FALLBACK_THRESHOLD};
pub use runtime::{Ledger, ModalDecay, ModalRuntime, NumericsStats, SolverStats};
pub use transient::{ThermalState, TransientSolver};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ThermalError>;
