//! The serial references the differential tests hold
//! [`TransientSolver::step`] and [`TransientSolver::advance`] to.

use hp_linalg::{NumericalError, Vector};
use hp_thermal::{ThermalError, TransientSolver};

/// [`TransientSolver::step`] as per-element mat-vecs and dot products,
/// with its own exponentials: `T' = V·(m∘(V⁻¹·T) + (1 − m)∘(proj·P +
/// y_amb))`, `m = e^{λ·dt}`. It shares the basis with the library and
/// nothing else: no GEMM, no decay cache, no guard. Every sum runs in
/// ascending index order, as the library's GEMMs do, so the two agree bit
/// for bit.
///
/// # Errors
///
/// The typed errors `step` returns: [`ThermalError::InvalidParameter`]
/// for a negative or non-finite `dt`, [`ThermalError::Linalg`] for
/// non-finite node temperatures or power, and
/// [`ThermalError::PowerLengthMismatch`] for wrong-length power.
pub fn step_reference(
    solver: &TransientSolver,
    node_temps: &Vector,
    core_power: &Vector,
    dt: f64,
) -> Result<Vector, ThermalError> {
    if !(dt.is_finite() && dt >= 0.0) {
        return Err(ThermalError::InvalidParameter {
            name: "dt",
            value: dt,
        });
    }
    for (vector, what) in [
        (node_temps, "input node temperatures"),
        (core_power, "input core power"),
    ] {
        if vector.iter().any(|v| !v.is_finite()) {
            return Err(ThermalError::Linalg(
                NumericalError::NonFinite { what }.into(),
            ));
        }
    }
    let basis = solver.basis();
    if core_power.len() != basis.core_count() {
        return Err(ThermalError::PowerLengthMismatch {
            expected: basis.core_count(),
            got: core_power.len(),
        });
    }
    let eigen = basis.eigen();
    let z = eigen.v_inv().mul_vector(node_temps);
    Ok(eigen
        .v()
        .mul_vector(&relax_reference(solver, &z, core_power, dt)))
}

/// `z ← m∘z + (1 − m)∘(proj·P + y_amb)` with per-element dot products
/// and its own exponentials.
fn relax_reference(solver: &TransientSolver, z: &Vector, core_power: &Vector, dt: f64) -> Vector {
    let basis = solver.basis();
    let eigen = basis.eigen();
    let (proj_t, y_amb) = (basis.proj_t(), basis.y_amb());
    let m = Vector::from_fn(eigen.dim(), |i| (eigen.eigenvalues()[i] * dt).exp());
    Vector::from_fn(eigen.dim(), |i| {
        let mut y = 0.0;
        for (j, &p) in core_power.iter().enumerate() {
            y += p * proj_t[(j, i)];
        }
        m[i] * z[i] + (1.0 - m[i]) * (y + y_amb[i])
    })
}

/// A state carried the way the engine carried it before the readout
/// certificate: eigen coordinates `z` and every node temperature, °C.
#[derive(Debug, Clone)]
pub struct CarriedReference {
    /// `T = V·z`, read out every interval.
    pub nodes: Vector,
    /// `z`.
    pub modal: Vector,
}

impl CarriedReference {
    /// The state `initial_state(node_temps)` builds: `z = V⁻¹·T`.
    pub fn new(solver: &TransientSolver, node_temps: &Vector) -> Self {
        CarriedReference {
            nodes: node_temps.clone(),
            modal: solver.basis().eigen().v_inv().mul_vector(node_temps),
        }
    }

    /// [`TransientSolver::advance`] on a healthy solver, as serial
    /// mat-vecs: `z` relaxes as in [`step_reference`] and every node is
    /// read out, `T = V·z`, every interval. No certificate, guard or
    /// cache: the caller checks that the solver stayed healthy.
    pub fn advance(&mut self, solver: &TransientSolver, core_power: &Vector, dt: f64) {
        self.modal = relax_reference(solver, &self.modal, core_power, dt);
        self.nodes = solver.basis().eigen().v().mul_vector(&self.modal);
    }
}
