//! Shared fixtures for the Criterion benchmarks.
//!
//! The benches mirror the paper's evaluation artefacts:
//!
//! | Bench | Paper artefact |
//! |---|---|
//! | `overhead_alg1` | §VI run-time overhead (23.76 µs per schedule) and the §V complexity claims (δ and N scaling) |
//! | `fig2_traces` | Fig. 2 — the three thermal-management runs |
//! | `fig4a_homogeneous` | Fig. 4(a) — homogeneous batch, HotPotato vs PCMig (reduced 16-core variant for bench time) |
//! | `fig4b_open_system` | Fig. 4(b) — open-system run at medium load |
//! | `linalg_kernels` | substrate micro-benches (LU, Cholesky, symmetric eigen) |
//! | `thermal_solvers` | steady-state + transient step cost |

use hotpotato::EpochPowerSequence;
use hp_floorplan::GridFloorplan;
use hp_linalg::Vector;
use hp_manycore::{ArchConfig, Machine};
use hp_thermal::{RcThermalModel, ThermalConfig};

/// A `w × h` machine with the paper's Table-I parameters.
pub fn machine(w: usize, h: usize) -> Machine {
    Machine::new(ArchConfig {
        grid_width: w,
        grid_height: h,
        ..ArchConfig::default()
    })
    .expect("valid arch config")
}

/// The RC thermal model for a `w × h` grid.
pub fn model(w: usize, h: usize) -> RcThermalModel {
    RcThermalModel::new(
        &GridFloorplan::new(w, h).expect("non-empty grid"),
        &ThermalConfig::default(),
    )
    .expect("valid thermal config")
}

/// A full-load mixed-power rotation sequence over `cores` cores with
/// period `delta`.
pub fn full_load_sequence(cores: usize, delta: usize, tau: f64) -> EpochPowerSequence {
    let powers: Vec<f64> = (0..cores)
        .map(|i| if i % 3 == 0 { 7.0 } else { 2.5 })
        .collect();
    let epochs = (0..delta)
        .map(|e| Vector::from_fn(cores, |c| powers[(c + e) % cores]))
        .collect();
    EpochPowerSequence::new(tau, epochs).expect("valid sequence")
}
