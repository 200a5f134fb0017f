//! The serial reference the differential tests hold
//! [`TransientSolver::step`] to.

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
    let (proj_t, y_amb) = (basis.proj_t(), basis.y_amb());
    let m = Vector::from_fn(eigen.dim(), |i| (eigen.eigenvalues()[i] * dt).exp());
    let z = eigen.v_inv().mul_vector(node_temps);
    let z_next = Vector::from_fn(eigen.dim(), |i| {
        let mut y = 0.0;
        for (j, &p) in core_power.iter().enumerate() {
            y += p * proj_t[(j, i)];
        }
        m[i] * z[i] + (1.0 - m[i]) * (y + y_amb[i])
    });
    Ok(eigen.v().mul_vector(&z_next))
}
