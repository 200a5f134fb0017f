//! Baseline thermal-aware schedulers for S-NUCA many-cores.
//!
//! These are the policies HotPotato is evaluated against (paper §II, §VI):
//!
//! * [`TspUniform`] — pure TSP power budgeting \[14\]: every scheduling
//!   period the uniform per-core budget for the current active mapping is
//!   computed from the RC model, and each active core is throttled to the
//!   fastest DVFS level whose power fits the budget. No migrations. This
//!   is the DVFS trace of Fig. 2(b).
//! * [`PcGov`] — the PCGov scheduler \[6\], \[20\]: Pareto-optimal per-core
//!   (water-filling) TSP budgets plus cache-aware (lowest-AMD-first)
//!   placement.
//! * [`PcMig`] — the paper's state-of-the-art baseline \[10\], \[21\]: the
//!   uniform TSP budget of its current mapping, as [`TspUniform`], plus
//!   *asynchronous on-demand* thread migrations driven by a temperature
//!   predictor. The original uses a neural network to predict
//!   post-migration temperatures; we substitute a linear extrapolation of
//!   each core's recent temperature trend (see DESIGN.md §2).
//! * [`HotPotatoDvfs`] — **extension** implementing the paper's §VII
//!   future work: synchronous rotation unified with DVFS.
//! * [`FallbackChain`] — HotPotato that drops to a [`TspUniform`] safe
//!   mode while its inputs are untrustworthy (DESIGN.md §8).
//!
//! All five implement [`hp_sim::Scheduler`] and act against one DTM
//! threshold, the engine's: every hook reads [`hp_sim::SimView::t_dtm`],
//! and no scheduler holds a copy of it. The DVFS baselines (TSP, PCGov,
//! PCMig and the fallback's safe mode) take only the thermal model, place
//! jobs as [`PinnedScheduler`](hp_sim::schedulers::PinnedScheduler) does
//! and turn budgets into DVFS levels through one path, which caches the
//! budgets of the last set of executing cores at the last threshold. A
//! free core draws [`hp_power::IDLE_WATTS`] in every budget.
//!
//! # Example
//!
//! ```
//! use hp_floorplan::GridFloorplan;
//! use hp_sched::TspUniform;
//! use hp_thermal::{RcThermalModel, ThermalConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let model = RcThermalModel::new(&GridFloorplan::new(4, 4)?, &ThermalConfig::default())?;
//! let sched = TspUniform::new(model);
//! # let _ = sched;
//! # Ok(())
//! # }
//! ```

mod budget;
mod fallback;
mod hybrid;
mod pcmig;
mod tsp_uniform;

pub use fallback::{FallbackChain, FallbackConfig};
pub use hybrid::HotPotatoDvfs;
pub use pcmig::{PcGov, PcMig};
pub use tsp_uniform::TspUniform;
