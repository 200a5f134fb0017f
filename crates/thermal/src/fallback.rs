//! Dense implicit-Euler fallback stepper — the slow, unconditionally
//! stable path the transient and peak solvers degrade to when the eigen
//! fast path reports numerical trouble (see DESIGN.md §14).
//!
//! One step of length `h` solves the backward-Euler system
//!
//! ```text
//! (A/h + B) · T_{k+1} = (A/h) · T_k + P + T_amb·G
//! ```
//!
//! through the LU factors of `A/h + B`. Backward Euler is A-stable: no
//! eigenvalue spread, capacitance ratio, or stiffness can make it blow
//! up, which is exactly the property the eigen route loses on
//! ill-conditioned models. Plain backward Euler is only first-order
//! accurate, so each [`DenseStepper::step`] runs the substep ladder twice
//! — `m` substeps at `h` and `2m` at `h/2` — and Richardson-extrapolates
//! (`2·x_{h/2} − x_h`), giving second-order accuracy while keeping the
//! unconditional stability (the two ladders share the eigenbasis of
//! `A⁻¹B`, so every extrapolated mode factor stays inside the unit
//! circle).
//!
//! [`DenseStepper::epoch_map`] exposes the same step as an affine map
//! `T ↦ M·T + S·f`, which is what the rotation peak solver composes into
//! a cycle map and solves to a fixed point instead of time-stepping
//! through thousands of periods.

use hp_linalg::{LuDecomposition, Matrix, Vector};

use crate::{RcThermalModel, Result};

/// Substeps `m` per [`DenseStepper::step`]; the extrapolated pair runs
/// `m` and `2m`. Chosen so the fallback agrees with the eigen path to
/// ≲1e-6 °C at millisecond steps on healthy models (the differential
/// suite pins this).
pub const DENSE_SUBSTEPS: usize = 48;

/// Backward-Euler dense stepper for one fixed step length `dt`.
///
/// Construction factorizes `A/h + B` for the two substep ladders
/// (`O(N³)` once); each [`step`](DenseStepper::step) is then `3m` dense
/// triangular solves (`O(m·N²)`) — orders of magnitude slower than the
/// eigen fast path's two thin GEMMs, but immune to the conditioning of
/// the eigenbasis.
#[derive(Debug)]
pub struct DenseStepper {
    nodes: usize,
    dt: f64,
    /// `A/h` diagonal for the coarse ladder (`h = dt/m`).
    a_over_h: Vector,
    /// `A/(h/2)` diagonal for the fine ladder.
    a_over_h2: Vector,
    lu_h: LuDecomposition,
    lu_h2: LuDecomposition,
}

impl DenseStepper {
    /// Factorizes the backward-Euler systems for step length `dt`.
    ///
    /// # Errors
    ///
    /// * [`crate::ThermalError::InvalidParameter`] for a non-positive or
    ///   non-finite `dt`.
    /// * Propagated factorization errors (cannot occur for a valid RC
    ///   model: `A/h + B` is SPD whenever `B` is).
    pub fn new(model: &RcThermalModel, dt: f64) -> Result<Self> {
        if !(dt.is_finite() && dt > 0.0) {
            return Err(crate::ThermalError::InvalidParameter {
                name: "dense dt",
                value: dt,
            });
        }
        let nodes = model.node_count();
        let m = hp_linalg::convert::usize_to_f64(DENSE_SUBSTEPS);
        let h = dt / m;
        let a = model.a_diag();
        let b = model.b();
        let a_over_h = Vector::from_fn(nodes, |i| a[i] / h);
        let a_over_h2 = Vector::from_fn(nodes, |i| a[i] / (h / 2.0));
        let sys_h = Matrix::from_fn(nodes, nodes, |i, j| {
            b[(i, j)] + if i == j { a_over_h[i] } else { 0.0 }
        });
        let sys_h2 = Matrix::from_fn(nodes, nodes, |i, j| {
            b[(i, j)] + if i == j { a_over_h2[i] } else { 0.0 }
        });
        Ok(DenseStepper {
            nodes,
            dt,
            a_over_h,
            a_over_h2,
            lu_h: sys_h.lu()?,
            lu_h2: sys_h2.lu()?,
        })
    }

    /// The step length this stepper was factorized for.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Runs one substep ladder: `steps` backward-Euler substeps of the
    /// given system under constant node forcing `f = P + T_amb·G`.
    fn ladder(
        &self,
        lu: &LuDecomposition,
        a_over_h: &Vector,
        temps: &Vector,
        forcing: &Vector,
        steps: usize,
    ) -> Result<Vector> {
        let mut t = temps.clone();
        for _ in 0..steps {
            let rhs = Vector::from_fn(self.nodes, |i| a_over_h[i] * t[i] + forcing[i]);
            t = lu.solve(&rhs)?;
        }
        Ok(t)
    }

    /// Advances the node state by the full `dt` under constant node
    /// forcing `forcing = P_nodes + T_amb·G` (see
    /// [`RcThermalModel::forcing`]), Richardson-extrapolated across the
    /// two substep ladders.
    ///
    /// # Errors
    ///
    /// Propagated solve errors (cannot occur after successful
    /// construction with matching dimensions).
    pub fn step(&self, temps: &Vector, forcing: &Vector) -> Result<Vector> {
        let coarse = self.ladder(&self.lu_h, &self.a_over_h, temps, forcing, DENSE_SUBSTEPS)?;
        let fine = self.ladder(
            &self.lu_h2,
            &self.a_over_h2,
            temps,
            forcing,
            2 * DENSE_SUBSTEPS,
        )?;
        Ok(Vector::from_fn(self.nodes, |i| 2.0 * fine[i] - coarse[i]))
    }

    /// The extrapolated step as an affine map: returns `(M, S)` such that
    /// [`step`](DenseStepper::step) equals `T ↦ M·T + S·f` for any state
    /// `T` and forcing `f` (the step is affine in both).
    ///
    /// The rotation peak solver composes these maps over a rotation cycle
    /// and solves the fixed point `(I − M_cycle)·T* = c` instead of
    /// stepping through the thousands of periods a sink time constant
    /// would need.
    ///
    /// # Errors
    ///
    /// Propagated solve errors (cannot occur after successful
    /// construction).
    pub fn epoch_map(&self) -> Result<(Matrix, Matrix)> {
        // Per substep: T ↦ K·T + R·f with K = R·(A/h), R = (A/h + B)⁻¹.
        // A ladder of `s` substeps is T ↦ K^s·T + (Σ_{j<s} K^j)·R·f,
        // accumulated by Horner: S ← K·S + R.
        let build = |lu: &LuDecomposition, a_over_h: &Vector, steps: usize| -> Result<_> {
            let r = lu.solve_matrix(&Matrix::identity(self.nodes))?;
            let k = Matrix::from_fn(self.nodes, self.nodes, |i, j| r[(i, j)] * a_over_h[j]);
            let mut m = Matrix::identity(self.nodes);
            let mut s = Matrix::zeros(self.nodes, self.nodes);
            for _ in 0..steps {
                m = k.mul_matrix(&m)?;
                s = &k.mul_matrix(&s)? + &r;
            }
            Ok((m, s))
        };
        let (m1, s1) = build(&self.lu_h, &self.a_over_h, DENSE_SUBSTEPS)?;
        let (m2, s2) = build(&self.lu_h2, &self.a_over_h2, 2 * DENSE_SUBSTEPS)?;
        let m = Matrix::from_fn(self.nodes, self.nodes, |i, j| 2.0 * m2[(i, j)] - m1[(i, j)]);
        let s = Matrix::from_fn(self.nodes, self.nodes, |i, j| 2.0 * s2[(i, j)] - s1[(i, j)]);
        Ok((m, s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ThermalConfig, TransientSolver};
    use hp_floorplan::GridFloorplan;

    fn setup() -> (RcThermalModel, TransientSolver) {
        let fp = GridFloorplan::new(4, 4).unwrap();
        let model = RcThermalModel::new(&fp, &ThermalConfig::default()).unwrap();
        let solver = TransientSolver::new(&model).unwrap();
        (model, solver)
    }

    #[test]
    fn dense_step_matches_eigen_on_healthy_model() {
        let (model, solver) = setup();
        let mut p = Vector::constant(16, 0.3);
        p[5] = 7.0;
        let forcing = model.forcing(&p).unwrap();
        let dt = 1e-4;
        let dense = DenseStepper::new(&model, dt).unwrap();
        let mut t_eigen = model.ambient_state();
        let mut t_dense = model.ambient_state();
        for step in 0..20 {
            t_eigen = solver.step(&model, &t_eigen, &p, dt).unwrap();
            t_dense = dense.step(&t_dense, &forcing).unwrap();
            let err = (&t_eigen - &t_dense).norm_inf();
            assert!(err < 1e-6, "step {step}: divergence {err:e}");
        }
    }

    #[test]
    fn dense_step_reaches_steady_state() {
        let (model, _) = setup();
        let mut p = Vector::constant(16, 0.3);
        p[5] = 7.0;
        let forcing = model.forcing(&p).unwrap();
        let dense = DenseStepper::new(&model, 1.0).unwrap();
        let mut t = model.ambient_state();
        for _ in 0..40 {
            t = dense.step(&t, &forcing).unwrap();
        }
        let t_ss = model.steady_state(&p).unwrap();
        assert!((&t - &t_ss).norm_inf() < 1e-6);
    }

    #[test]
    fn dense_step_stable_on_stiff_model() {
        // A capacitance ratio around 5e12 — far beyond what the eigen
        // route tolerates — must still produce finite, physical output.
        let fp = GridFloorplan::new(4, 4).unwrap();
        let cfg = ThermalConfig::ill_conditioned();
        let model = RcThermalModel::new(&fp, &cfg).unwrap();
        let mut p = Vector::constant(16, 0.3);
        p[5] = 7.0;
        let forcing = model.forcing(&p).unwrap();
        let dense = DenseStepper::new(&model, 5e-4).unwrap();
        let mut t = model.ambient_state();
        for _ in 0..50 {
            t = dense.step(&t, &forcing).unwrap();
            assert!(t.iter().all(|v| v.is_finite()));
            assert!(t.min() > cfg.ambient - 1.0);
        }
        assert!(t.max() > cfg.ambient);
    }

    #[test]
    fn epoch_map_reproduces_step() {
        let (model, _) = setup();
        let mut p = Vector::constant(16, 0.3);
        p[9] = 5.0;
        let forcing = model.forcing(&p).unwrap();
        let dense = DenseStepper::new(&model, 5e-4).unwrap();
        let (m, s) = dense.epoch_map().unwrap();
        let t0 = {
            let mut hot = model.ambient_state();
            hot[5] = 60.0;
            hot
        };
        let direct = dense.step(&t0, &forcing).unwrap();
        let mapped = &m.mul_vector(&t0) + &s.mul_vector(&forcing);
        assert!((&direct - &mapped).norm_inf() < 1e-9);
    }

    #[test]
    fn rejects_bad_dt() {
        let (model, _) = setup();
        assert!(DenseStepper::new(&model, 0.0).is_err());
        assert!(DenseStepper::new(&model, f64::NAN).is_err());
        assert!(DenseStepper::new(&model, -1.0).is_err());
    }
}
