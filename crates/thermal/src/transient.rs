use std::sync::Arc;

use hp_linalg::eigen::SystemEigen;
use hp_linalg::{LinalgError, Matrix, NumericalError, Vector};

use crate::{DenseStepper, Ledger, ModalBasis, ModalRuntime, RcThermalModel, Result, ThermalError};

/// The thermal state the interval engine carries from one interval to
/// the next: the node temperatures `T` (°C) and, while the eigen path is
/// live, their eigen coordinates `z = V⁻¹·T`.
///
/// Carrying `z` is what lets [`TransientSolver::advance`] skip the
/// node-to-modal projection every interval; the node vector is still
/// materialized every step, for the envelope guard, the junction
/// readings and the dense fallback. Once the solver steps in node space
/// (an armed model or a tripped guard) `z` is dropped for good. Build a
/// state with [`TransientSolver::initial_state`] or, when resuming from
/// a checkpoint, [`TransientSolver::restore_state`].
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalState {
    nodes: Vector,
    modal: Option<Vector>,
}

impl ThermalState {
    /// Node temperatures `T`, °C.
    pub fn nodes(&self) -> &Vector {
        &self.nodes
    }

    /// Eigen coordinates `z` of [`nodes`](ThermalState::nodes), °C, or
    /// `None` once the state is stepped in node space.
    pub fn modal(&self) -> Option<&Vector> {
        self.modal.as_ref()
    }
}

/// MatEx-style transient temperature solver.
///
/// Holds its model's [`ModalBasis`] of `C = −A⁻¹B` (the one
/// [`RcThermalModel::basis`] shares with every other solver of the
/// chip) and evaluates the exact
/// solution of the linear ODE for piecewise-constant power (paper Eq. 4)
/// in eigen coordinates:
///
/// ```text
/// z ← e^{λΔt}∘z + (1 − e^{λΔt})∘(projᵀ·P + y_amb),    T = V·z
/// ```
///
/// Because the power is constant inside a simulation interval, a single
/// [`step`](TransientSolver::step) is *exact* for that interval — no
/// time-discretization error — which is what lets the interval simulator
/// take millisecond steps safely.
///
/// # Step layout
///
/// [`step`](TransientSolver::step) and
/// [`advance`](TransientSolver::advance) run one modal update: the power
/// map becomes its eigen-space steady state through one `cores × N` GEMM
/// row (no linear solve), the eigen coordinates relax towards it with the
/// cached decay factors `e^{λΔt}`, one `N × N` GEMM row reads the node
/// temperatures back out, and the runtime's envelope guard checks them.
/// `step` first projects its node input (`z = V⁻¹·T`, one more `N × N`
/// GEMM row); `advance` carries `z` in a [`ThermalState`] from one call
/// to the next and skips it. Because the register-tiled GEMM accumulates
/// each output element in ascending inner-index order, `step` is
/// bit-identical to the serial mat-vec form of the same update. Decay
/// vectors are cached per distinct `dt`, so an interval simulator
/// computes the `N` exponentials once instead of every interval.
///
/// # Example
///
/// ```
/// use hp_floorplan::GridFloorplan;
/// use hp_thermal::{RcThermalModel, ThermalConfig, TransientSolver};
/// use hp_linalg::Vector;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let fp = GridFloorplan::new(4, 4)?;
/// let model = RcThermalModel::new(&fp, &ThermalConfig::default())?;
/// let solver = TransientSolver::new(&model)?;
/// let mut power = Vector::constant(16, 0.3);
/// power[5] = 7.0;
/// // Starting at ambient, temperature climbs towards the steady state.
/// let t0 = model.ambient_state();
/// let t1 = solver.step(&model, &t0, &power, 0.001)?;
/// assert!(model.core_temperatures(&t1)[5] > 45.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TransientSolver {
    /// The shared basis plus this solver's decay and dense-stepper
    /// caches (keyed by `dt`), envelope guard and tallies.
    runtime: ModalRuntime<DenseStepper>,
}

/// One relaxation `z ← m∘z + (1 − m)∘y`, written into `out`.
fn relax(m: &Vector, z: &[f64], y: &[f64], out: &mut [f64]) {
    for (i, slot) in out.iter_mut().enumerate() {
        *slot = m[i] * z[i] + (1.0 - m[i]) * y[i];
    }
}

impl TransientSolver {
    /// Builds the solver on the model's [`basis`](RcThermalModel::basis):
    /// one eigendecomposition of the model's `C` if no solver of this
    /// model or of a clone of it has built the basis yet, none otherwise.
    /// Step the solver with that model (or a clone); a model of another
    /// chip gives meaningless temperatures.
    ///
    /// # Errors
    ///
    /// Propagates eigendecomposition failures as [`ThermalError::Linalg`].
    pub fn new(model: &RcThermalModel) -> Result<Self> {
        Ok(TransientSolver {
            runtime: ModalRuntime::new(Arc::clone(model.basis()?)),
        })
    }

    /// The eigenbasis and modal operators the solver steps with.
    pub fn basis(&self) -> &ModalBasis {
        self.runtime.basis()
    }

    /// The solver's caches, envelope guard and tallies.
    pub fn runtime(&self) -> &ModalRuntime<DenseStepper> {
        &self.runtime
    }

    /// Whether solver calls currently route through the dense
    /// backward-Euler fallback instead of the eigen fast path — either
    /// because the eigendecomposition failed its construction-time trust
    /// checks (`armed`) or because a runtime invariant guard tripped on an
    /// eigen-path output (sticky for the solver's lifetime).
    pub fn degraded(&self) -> bool {
        self.runtime.degraded()
    }

    /// The underlying eigendecomposition of `C = −A⁻¹B`.
    pub fn eigen(&self) -> &SystemEigen {
        self.runtime.basis().eigen()
    }

    /// Rejects a node vector whose length is not the model's node count.
    fn check_nodes(&self, nodes: &Vector) -> Result<()> {
        let n = self.runtime.basis().node_count();
        if nodes.len() != n {
            return Err(ThermalError::Linalg(LinalgError::DimensionMismatch {
                op: "thermal node state",
                left: (n, 1),
                right: (nodes.len(), 1),
            }));
        }
        Ok(())
    }

    /// Rejects non-finite state or power input at the API boundary: a NaN
    /// fed into the exponential kernel propagates silently through every
    /// GEMM, so it is cheaper and clearer to name the offender up front.
    fn check_finite(vector: &Vector, what: &'static str) -> Result<()> {
        if vector.iter().any(|v| !v.is_finite()) {
            return Err(ThermalError::Linalg(
                NumericalError::NonFinite { what }.into(),
            ));
        }
        Ok(())
    }

    /// Rejects a negative or non-finite `dt`, then non-finite or
    /// wrong-length node temperatures or power.
    fn check_input(&self, node_temps: &Vector, core_power: &Vector, dt: f64) -> Result<()> {
        if !(dt.is_finite() && dt >= 0.0) {
            return Err(ThermalError::InvalidParameter {
                name: "dt",
                value: dt,
            });
        }
        Self::check_finite(node_temps, "input node temperatures")?;
        Self::check_finite(core_power, "input core power")?;
        let cores = self.runtime.basis().core_count();
        if core_power.len() != cores {
            return Err(ThermalError::PowerLengthMismatch {
                expected: cores,
                got: core_power.len(),
            });
        }
        self.check_nodes(node_temps)
    }

    /// The modal update of [`step`](TransientSolver::step) and
    /// [`advance`](TransientSolver::advance): `state` advances by `dt`
    /// seconds under `core_power`, counted as a batch of one.
    ///
    /// While `state` carries eigen coordinates and the solver is healthy,
    /// `z` relaxes towards the power map's eigen-space steady state and
    /// the node vector is read back out and guarded. Otherwise, or on a
    /// guard trip (counted, sticky), the interval is recomputed by the
    /// dense backward-Euler fallback from the previous node vector, `z`
    /// is dropped, and a zero `dt` leaves the nodes unchanged.
    fn update(
        basis: &ModalBasis,
        ledger: &mut Ledger<DenseStepper>,
        model: &RcThermalModel,
        state: &mut ThermalState,
        core_power: &Vector,
        dt: f64,
    ) -> Result<()> {
        ledger.count_batch(1);
        if let Some(z) = state.modal.as_ref().filter(|_| !ledger.degraded()) {
            let decay = ledger.decay(dt);
            let powers = Matrix::from_fn(1, core_power.len(), |_, j| core_power[j]);
            let y = basis.steady_modal(&powers)?;
            let mut z_next = Matrix::zeros(1, z.len());
            relax(&decay.m, z.as_slice(), y.row(0), z_next.row_mut(0));
            let nodes = Vector::from(z_next.mul_matrix(basis.v_t())?.row(0).to_vec());
            if !ledger.guard(model.config().ambient, nodes.iter().copied()) {
                state.nodes = nodes;
                state.modal = Some(Vector::from(z_next.row(0).to_vec()));
                return Ok(());
            }
        }
        state.modal = None;
        if dt > 0.0 {
            // The exact solution is the identity at dt = 0; the dense
            // stepper cannot be factorized for it, and needn't be.
            let stepper = ledger.dense(dt, || DenseStepper::new(model, dt))?;
            let next = stepper.step(&state.nodes, &model.forcing(core_power)?)?;
            Self::check_finite(&next, "dense fallback output")?;
            state.nodes = next;
            ledger.count_fallback_steps(1);
        }
        Ok(())
    }

    /// Advances the node state by `dt` seconds under a constant per-core
    /// power map: [`initial_state`](TransientSolver::initial_state)'s
    /// projection, then the modal update of
    /// [`advance`](TransientSolver::advance). An interval simulator that
    /// steps the same state repeatedly should carry it in a
    /// [`ThermalState`] and call `advance` instead, which skips the
    /// per-step projection and takes no lock. `step` holds the runtime's
    /// lock for its whole update.
    ///
    /// # Degradation
    ///
    /// On a [`degraded`](TransientSolver::degraded) solver the state is
    /// advanced by the dense backward-Euler fallback instead (counted in
    /// [`ModalRuntime::numerics`]). On a healthy solver the eigen output
    /// passes the runtime's envelope guard (finite, within
    /// `[ambient − 1 °C, ambient + 1000 °C]`); a violation trips the
    /// sticky degradation flag and the step is recomputed densely.
    ///
    /// # Errors
    ///
    /// * [`ThermalError::InvalidParameter`] for a negative or non-finite `dt`.
    /// * [`ThermalError::Linalg`] wrapping [`NumericalError::NonFinite`]
    ///   for non-finite input temperatures or power.
    /// * [`ThermalError::PowerLengthMismatch`] for wrong-length power.
    pub fn step(
        &self,
        model: &RcThermalModel,
        node_temps: &Vector,
        core_power: &Vector,
        dt: f64,
    ) -> Result<Vector> {
        self.check_input(node_temps, core_power, dt)?;
        let mut state = self.project(node_temps)?;
        let mut ledger = self.runtime.lock();
        Self::update(
            self.runtime.basis(),
            &mut ledger,
            model,
            &mut state,
            core_power,
            dt,
        )?;
        Ok(state.nodes)
    }

    /// The state [`advance`](TransientSolver::advance) starts from: the
    /// node temperatures `node_temps` (°C) with their eigen coordinates,
    /// projected through the same GEMM as [`step`](TransientSolver::step)
    /// — so the first `advance` from it equals `step` bit for bit. On a
    /// [`degraded`](TransientSolver::degraded) solver the state carries
    /// no eigen coordinates and is stepped in node space.
    ///
    /// # Errors
    ///
    /// [`ThermalError::Linalg`] for a wrong-length or non-finite
    /// `node_temps`.
    pub fn initial_state(&self, node_temps: &Vector) -> Result<ThermalState> {
        Self::check_finite(node_temps, "input node temperatures")?;
        self.check_nodes(node_temps)?;
        self.project(node_temps)
    }

    /// `node_temps` with its eigen coordinates `z = V⁻¹·T` (one GEMM row),
    /// or without them on a degraded solver.
    fn project(&self, node_temps: &Vector) -> Result<ThermalState> {
        let modal = if self.degraded() {
            None
        } else {
            let row = Matrix::from_fn(1, node_temps.len(), |_, i| node_temps[i]);
            let z = row.mul_matrix(self.runtime.basis().v_inv_t())?;
            Some(Vector::from(z.row(0).to_vec()))
        };
        Ok(ThermalState {
            nodes: node_temps.clone(),
            modal,
        })
    }

    /// Rebuilds a [`ThermalState`] from its parts — the checkpoint-resume
    /// path. `modal` must be exactly the eigen coordinates the captured
    /// state carried (`None` for a state stepped in node space); the
    /// resumed run then continues bit-identically.
    ///
    /// # Errors
    ///
    /// [`ThermalError::Linalg`] if either vector has the wrong length or
    /// a non-finite entry.
    pub fn restore_state(&self, nodes: Vector, modal: Option<Vector>) -> Result<ThermalState> {
        Self::check_finite(&nodes, "restored node temperatures")?;
        self.check_nodes(&nodes)?;
        if let Some(z) = &modal {
            Self::check_finite(z, "restored modal coordinates")?;
            self.check_nodes(z)?;
        }
        Ok(ThermalState { nodes, modal })
    }

    /// Advances a carried [`ThermalState`] by `dt` seconds under a
    /// constant per-core power map — the interval engine's step, and
    /// the same modal update as [`step`](TransientSolver::step) without
    /// its projection.
    ///
    /// A guard trip (counted, sticky) recomputes the interval with the
    /// dense fallback from the previous node vector and drops `z`, as
    /// does a [`degraded`](TransientSolver::degraded) solver: from then
    /// on the state is stepped in node space.
    ///
    /// Takes `&mut self` because the engine owns its solver outright: the
    /// runtime's caches and tallies are reached through exclusive access,
    /// without taking its lock. Counts exactly like a [`step`] call (one
    /// batch of one state, one decay-cache lookup).
    ///
    /// [`step`]: TransientSolver::step
    ///
    /// # Errors
    ///
    /// Same as [`step`](TransientSolver::step).
    pub fn advance(
        &mut self,
        model: &RcThermalModel,
        state: &mut ThermalState,
        core_power: &Vector,
        dt: f64,
    ) -> Result<()> {
        self.check_input(&state.nodes, core_power, dt)?;
        let (basis, ledger) = self.runtime.get_mut();
        Self::update(basis, ledger, model, state, core_power, dt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NumericsStats, SolverStats, ThermalConfig};
    use hp_floorplan::GridFloorplan;

    /// One backward-Euler step of the dense fallback, built afresh.
    fn dense_step(model: &RcThermalModel, t: &Vector, p: &Vector, dt: f64) -> Vector {
        let stepper = DenseStepper::new(model, dt).unwrap();
        stepper.step(t, &model.forcing(p).unwrap()).unwrap()
    }

    fn setup() -> (RcThermalModel, TransientSolver) {
        let fp = GridFloorplan::new(4, 4).unwrap();
        let model = RcThermalModel::new(&fp, &ThermalConfig::default()).unwrap();
        let solver = TransientSolver::new(&model).unwrap();
        (model, solver)
    }

    #[test]
    fn zero_dt_is_identity() {
        let (model, solver) = setup();
        let t0 = model.ambient_state();
        let p = Vector::constant(16, 2.0);
        let t1 = solver.step(&model, &t0, &p, 0.0).unwrap();
        assert!((&t1 - &t0).norm_inf() < 1e-9);
    }

    #[test]
    fn long_step_reaches_steady_state() {
        let (model, solver) = setup();
        let mut p = Vector::constant(16, 0.3);
        p[5] = 7.0;
        let t_inf = solver
            .step(&model, &model.ambient_state(), &p, 1e4)
            .unwrap();
        let t_ss = model.steady_state(&p).unwrap();
        assert!((&t_inf - &t_ss).norm_inf() < 1e-6);
    }

    #[test]
    fn two_half_steps_equal_one_full_step() {
        let (model, solver) = setup();
        let mut p = Vector::constant(16, 0.3);
        p[0] = 5.0;
        let t0 = model.ambient_state();
        let full = solver.step(&model, &t0, &p, 0.002).unwrap();
        let half = solver.step(&model, &t0, &p, 0.001).unwrap();
        let two = solver.step(&model, &half, &p, 0.001).unwrap();
        assert!((&full - &two).norm_inf() < 1e-9);
    }

    /// The retired per-interval formulation, kept as test code only:
    /// an LU solve for the steady state, then `T_ss + V·e^{Λdt}·V⁻¹·(T − T_ss)`.
    fn lu_step(
        solver: &TransientSolver,
        model: &RcThermalModel,
        t: &Vector,
        p: &Vector,
        dt: f64,
    ) -> Vector {
        let t_ss = model.steady_state(p).unwrap();
        let eigen = solver.eigen();
        let decay = Vector::from_fn(eigen.dim(), |i| (eigen.eigenvalues()[i] * dt).exp());
        &t_ss + &eigen.spectral_apply(&decay, &(t - &t_ss))
    }

    #[test]
    fn modal_step_agrees_with_the_retired_lu_form() {
        let (model, solver) = setup();
        let mut t = model.ambient_state();
        let mut t_lu = model.ambient_state();
        for k in 0..50 {
            let p = Vector::from_fn(16, |c| if (c + k) % 5 == 0 { 6.0 } else { 0.3 });
            t = solver.step(&model, &t, &p, 1e-4).unwrap();
            t_lu = lu_step(&solver, &model, &t_lu, &p, 1e-4);
            assert!((&t - &t_lu).norm_inf() < 1e-9, "step {k}");
        }
    }

    #[test]
    fn first_advance_equals_step_bit_for_bit() {
        let (model, mut solver) = setup();
        let mut p = Vector::constant(16, 0.3);
        p[6] = 6.5;
        let t0 = solver
            .step(&model, &model.ambient_state(), &p, 0.2)
            .unwrap();
        let stepped = solver.step(&model, &t0, &p, 1e-4).unwrap();
        let mut state = solver.initial_state(&t0).unwrap();
        solver.advance(&model, &mut state, &p, 1e-4).unwrap();
        for i in 0..model.node_count() {
            assert_eq!(state.nodes()[i].to_bits(), stepped[i].to_bits(), "node {i}");
        }
        // Later steps keep z instead of re-projecting, so they agree with
        // chained `step` calls to round-off, not bit for bit.
        let mut t = stepped;
        for k in 0..200 {
            let p = Vector::from_fn(16, |c| if (c + k) % 3 == 0 { 5.0 } else { 0.4 });
            t = solver.step(&model, &t, &p, 1e-4).unwrap();
            solver.advance(&model, &mut state, &p, 1e-4).unwrap();
        }
        assert!((state.nodes() - &t).norm_inf() < 1e-9);
        assert!(state.modal().is_some());
    }

    #[test]
    fn advance_counts_like_step() {
        let (model, mut solver) = setup();
        let p = Vector::constant(16, 0.5);
        let mut state = solver.initial_state(&model.ambient_state()).unwrap();
        for _ in 0..3 {
            solver.advance(&model, &mut state, &p, 1e-4).unwrap();
        }
        let s = solver.runtime().stats();
        assert_eq!(s.batch_calls, 3);
        assert_eq!(s.batched_items, 3);
        assert_eq!(s.decay_cache_misses, 1);
        assert_eq!(s.decay_cache_hits, 2);
        assert_eq!(solver.runtime().numerics(), NumericsStats::default());
    }

    #[test]
    fn poisoned_modal_state_trips_the_guard_and_steps_densely() {
        let (model, mut solver) = setup();
        let p = Vector::constant(16, 0.5);
        let t0 = model.ambient_state();
        let good = solver.initial_state(&t0).unwrap();
        let garbage = good.modal().unwrap().scaled(1e6);
        let mut state = solver.restore_state(t0.clone(), Some(garbage)).unwrap();
        solver.advance(&model, &mut state, &p, 1e-4).unwrap();
        // The interval was recomputed densely from the previous nodes.
        assert!(solver.degraded());
        assert!(state.modal().is_none());
        assert_eq!(state.nodes(), &dense_step(&model, &t0, &p, 1e-4));
        let n = solver.runtime().numerics();
        assert_eq!(n.guard_trips, 1);
        assert_eq!(n.fallback_activations, 1);
        // Sticky: the next interval is dense without another trip.
        solver.advance(&model, &mut state, &p, 1e-4).unwrap();
        let n = solver.runtime().numerics();
        assert_eq!(n.guard_trips, 1);
        assert!(n.fallback_steps >= 2);
    }

    #[test]
    fn armed_solver_steps_states_in_node_space() {
        let (model, mut solver) = setup_stiff();
        let mut state = solver.initial_state(&model.ambient_state()).unwrap();
        assert!(state.modal().is_none());
        let p = Vector::constant(16, 2.0);
        solver.advance(&model, &mut state, &p, 5e-4).unwrap();
        assert!(state.nodes().iter().all(|v| v.is_finite()));
        let n = solver.runtime().numerics();
        assert_eq!(
            (n.fallback_activations, n.fallback_steps, n.guard_trips),
            (1, 1, 0)
        );
    }

    #[test]
    fn restore_state_rejects_bad_shapes() {
        let (model, solver) = setup();
        let t0 = model.ambient_state();
        assert!(solver.restore_state(Vector::zeros(5), None).is_err());
        assert!(solver
            .restore_state(t0.clone(), Some(Vector::zeros(5)))
            .is_err());
        let mut bad = t0.clone();
        bad[0] = f64::NAN;
        assert!(solver.restore_state(t0.clone(), Some(bad)).is_err());
        assert!(solver.initial_state(&Vector::zeros(3)).is_err());
        let state = solver.restore_state(t0.clone(), None).unwrap();
        assert_eq!(state.nodes(), &t0);
    }

    /// A warm, non-uniform starting state: one hot core after 0.2 s.
    fn warm_state(model: &RcThermalModel, solver: &TransientSolver) -> Vector {
        let mut p = Vector::constant(16, 0.3);
        p[9] = 6.0;
        solver.step(model, &model.ambient_state(), &p, 0.2).unwrap()
    }

    #[test]
    fn new_shares_the_model_basis_between_solvers() {
        let (model, a) = setup();
        let copy = model.clone();
        let b = TransientSolver::new(&copy).unwrap();
        let basis = model.basis().unwrap();
        assert!(std::ptr::eq(a.basis(), &**basis));
        assert!(std::ptr::eq(a.basis(), b.basis()));
        // The model's cell, `a` and `b` each hold one reference.
        assert_eq!(Arc::strong_count(basis), 3);
        // A model built anew decomposes anew, into the same bits.
        let fresh_model = RcThermalModel::new(
            &GridFloorplan::new(4, 4).unwrap(),
            &ThermalConfig::default(),
        )
        .unwrap();
        let fresh = TransientSolver::new(&fresh_model).unwrap();
        assert!(!std::ptr::eq(a.basis(), fresh.basis()));
        let t0 = warm_state(&model, &a);
        let p = Vector::constant(16, 1.5);
        let x = a.step(&model, &t0, &p, 1e-4).unwrap();
        let y = b.step(&model, &t0, &p, 1e-4).unwrap();
        let z = fresh.step(&fresh_model, &t0, &p, 1e-4).unwrap();
        for i in 0..model.node_count() {
            assert_eq!(x[i].to_bits(), y[i].to_bits(), "node {i}");
            assert_eq!(x[i].to_bits(), z[i].to_bits(), "node {i}");
        }
    }

    #[test]
    fn clone_shares_the_basis_and_copies_the_decay_cache() {
        let (model, solver) = setup();
        let p = Vector::constant(16, 1.0);
        solver
            .step(&model, &model.ambient_state(), &p, 1e-4)
            .unwrap();
        let clone = solver.clone();
        assert!(std::ptr::eq(solver.basis(), clone.basis()));
        // The cached decay vector came along: the clone's first step at
        // the same dt is a hit, counted in the clone's own fresh tally.
        clone
            .step(&model, &model.ambient_state(), &p, 1e-4)
            .unwrap();
        let s = clone.runtime().stats();
        assert_eq!((s.decay_cache_hits, s.decay_cache_misses), (1, 0));
        assert_eq!(solver.runtime().stats().batch_calls, 1);
    }

    #[test]
    fn initial_state_carries_the_eigen_coordinates() {
        let (model, solver) = setup();
        let t0 = warm_state(&model, &solver);
        let state = solver.initial_state(&t0).unwrap();
        assert_eq!(state.nodes(), &t0);
        let z = state.modal().expect("healthy solver carries z");
        assert_eq!(z.len(), model.node_count());
        let back = solver.eigen().v().mul_vector(z);
        assert!((&back - &t0).norm_inf() < 1e-9);
    }

    #[test]
    fn initial_state_rejects_non_finite_temperatures() {
        let (model, solver) = setup();
        for bad in [f64::NAN, f64::INFINITY] {
            let mut t0 = model.ambient_state();
            t0[7] = bad;
            assert!(matches!(
                solver.initial_state(&t0),
                Err(ThermalError::Linalg(_))
            ));
        }
    }

    #[test]
    fn zero_dt_advance_keeps_the_modal_state() {
        let (model, mut solver) = setup();
        let t0 = warm_state(&model, &solver);
        let mut state = solver.initial_state(&t0).unwrap();
        let z0 = state.modal().unwrap().clone();
        solver
            .advance(&model, &mut state, &Vector::constant(16, 4.0), 0.0)
            .unwrap();
        // e^{0} = 1: z is kept exactly; the readout returns to T.
        assert_eq!(state.modal(), Some(&z0));
        assert!((state.nodes() - &t0).norm_inf() < 1e-9);
    }

    #[test]
    fn long_advance_reaches_steady_state() {
        let (model, mut solver) = setup();
        let mut p = Vector::constant(16, 0.3);
        p[2] = 7.0;
        let mut state = solver.initial_state(&model.ambient_state()).unwrap();
        solver.advance(&model, &mut state, &p, 1e4).unwrap();
        let t_ss = model.steady_state(&p).unwrap();
        assert!((state.nodes() - &t_ss).norm_inf() < 1e-6);
        assert!(state.modal().is_some());
    }

    #[test]
    fn restored_state_continues_bit_identically() {
        // The solver-level half of checkpoint resume: rebuilding a state
        // from its captured parts continues exactly where it left off.
        let (model, mut solver) = setup();
        let power =
            |k: usize| Vector::from_fn(16, |c| if (c + k).is_multiple_of(4) { 6.0 } else { 0.4 });
        let mut live = solver.initial_state(&model.ambient_state()).unwrap();
        for k in 0..25 {
            solver.advance(&model, &mut live, &power(k), 1e-4).unwrap();
        }
        let mut resumed = solver
            .restore_state(live.nodes().clone(), live.modal().cloned())
            .unwrap();
        assert_eq!(resumed, live);
        for k in 25..75 {
            solver.advance(&model, &mut live, &power(k), 1e-4).unwrap();
            solver
                .advance(&model, &mut resumed, &power(k), 1e-4)
                .unwrap();
        }
        for i in 0..model.node_count() {
            assert_eq!(live.nodes()[i].to_bits(), resumed.nodes()[i].to_bits());
        }
        assert_eq!(live.modal(), resumed.modal());
    }

    #[test]
    fn node_space_state_on_a_healthy_solver_steps_densely_without_tripping() {
        let (model, mut solver) = setup();
        let t0 = model.ambient_state();
        let p = Vector::constant(16, 2.0);
        let mut state = solver.restore_state(t0.clone(), None).unwrap();
        solver.advance(&model, &mut state, &p, 1e-4).unwrap();
        assert!(state.modal().is_none());
        assert!(!solver.degraded(), "no guard tripped");
        assert_eq!(state.nodes(), &dense_step(&model, &t0, &p, 1e-4));
        let n = solver.runtime().numerics();
        assert_eq!(n.guard_trips, 0);
        assert_eq!(n.fallback_activations, 1);
        // The dense step tracks the exact one to well under a kelvin.
        let exact = solver.step(&model, &t0, &p, 1e-4).unwrap();
        assert!((state.nodes() - &exact).norm_inf() < 0.05);
    }

    #[test]
    fn advance_on_a_tripped_solver_drops_the_modal_state() {
        let (model, mut solver) = setup();
        let p = Vector::constant(16, 1.0);
        let mut state = solver.initial_state(&model.ambient_state()).unwrap();
        // A node state far outside the physical envelope trips the guard
        // on the batched path.
        let scorching = Vector::constant(model.node_count(), 1e5);
        solver.step(&model, &scorching, &p, 1e-4).unwrap();
        assert!(solver.degraded());
        assert_eq!(solver.runtime().numerics().guard_trips, 1);
        // The carried z is not trusted on a tripped solver: the interval
        // runs densely without a second trip and z is gone for good.
        solver.advance(&model, &mut state, &p, 1e-4).unwrap();
        assert!(state.modal().is_none());
        assert_eq!(solver.runtime().numerics().guard_trips, 1);
        assert!(state.nodes().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn advance_reuses_the_decay_cache_of_step() {
        let (model, mut solver) = setup();
        let p = Vector::constant(16, 1.0);
        let t0 = model.ambient_state();
        solver.step(&model, &t0, &p, 2.5e-4).unwrap();
        let mut state = solver.initial_state(&t0).unwrap();
        solver.advance(&model, &mut state, &p, 2.5e-4).unwrap();
        let s = solver.runtime().stats();
        assert_eq!((s.decay_cache_hits, s.decay_cache_misses), (1, 1));
        assert_eq!((s.batch_calls, s.batched_items), (2, 2));
    }

    #[test]
    fn decay_cache_stable_across_repeats() {
        let (model, solver) = setup();
        let mut p = Vector::constant(16, 0.3);
        p[9] = 6.0;
        let t0 = model.ambient_state();
        let a = solver.step(&model, &t0, &p, 1e-4).unwrap();
        let b = solver.step(&model, &t0, &p, 1e-4).unwrap();
        for i in 0..model.node_count() {
            assert_eq!(a[i].to_bits(), b[i].to_bits());
        }
    }

    #[test]
    fn cloned_solver_agrees() {
        let (model, solver) = setup();
        let mut p = Vector::constant(16, 0.3);
        p[3] = 6.0;
        let t0 = model.ambient_state();
        let clone = solver.clone();
        let a = solver.step(&model, &t0, &p, 5e-4).unwrap();
        let b = clone.step(&model, &t0, &p, 5e-4).unwrap();
        for i in 0..model.node_count() {
            assert_eq!(a[i].to_bits(), b[i].to_bits());
        }
    }

    #[test]
    fn heating_is_monotone_from_ambient() {
        let (model, solver) = setup();
        let mut p = Vector::constant(16, 0.3);
        p[5] = 7.0;
        let mut t = model.ambient_state();
        let mut last_peak = model.core_temperatures(&t).max();
        for _ in 0..20 {
            t = solver.step(&model, &t, &p, 0.001).unwrap();
            let peak = model.core_temperatures(&t).max();
            assert!(peak >= last_peak - 1e-12);
            last_peak = peak;
        }
        assert!(last_peak > 46.0);
    }

    #[test]
    fn cooling_after_power_off() {
        let (model, solver) = setup();
        let mut p = Vector::constant(16, 0.3);
        p[5] = 7.0;
        let hot = solver
            .step(&model, &model.ambient_state(), &p, 10.0)
            .unwrap();
        let cooled = solver.step(&model, &hot, &Vector::zeros(16), 10.0).unwrap();
        assert!(model.core_temperatures(&cooled).max() < model.core_temperatures(&hot).max());
    }

    #[test]
    fn negative_dt_rejected() {
        let (model, solver) = setup();
        assert!(solver
            .step(&model, &model.ambient_state(), &Vector::zeros(16), -1.0)
            .is_err());
    }

    #[test]
    fn stats_count_batches_and_cache_traffic() {
        let (model, solver) = setup();
        let t0 = model.ambient_state();
        let p = Vector::constant(16, 0.5);
        assert_eq!(solver.runtime().stats(), SolverStats::default());
        for dt in [1e-3, 1e-3, 2e-3, 2e-3, 2e-3] {
            solver.step(&model, &t0, &p, dt).unwrap();
        }
        let s = solver.runtime().stats();
        assert_eq!(s.batch_calls, 5);
        assert_eq!(s.batched_items, 5);
        // Two distinct dt values → two misses; the repeats hit.
        assert_eq!(s.decay_cache_misses, 2);
        assert_eq!(s.decay_cache_hits, 3);
        // A clone starts from zero; reset clears the original.
        let fresh = solver.clone();
        assert_eq!(fresh.runtime().stats(), SolverStats::default());
        solver.runtime().reset_tallies();
        assert_eq!(solver.runtime().stats(), SolverStats::default());
    }

    fn setup_stiff() -> (RcThermalModel, TransientSolver) {
        let fp = GridFloorplan::new(4, 4).unwrap();
        let model = RcThermalModel::new(&fp, &ThermalConfig::ill_conditioned()).unwrap();
        let solver = TransientSolver::new(&model).unwrap();
        (model, solver)
    }

    #[test]
    fn stiff_model_arms_dense_fallback_at_construction() {
        let (model, solver) = setup_stiff();
        assert!(solver.degraded());
        assert_eq!(solver.runtime().numerics(), NumericsStats::default());
        let mut p = Vector::constant(16, 0.3);
        p[5] = 7.0;
        let mut t = model.ambient_state();
        for _ in 0..5 {
            t = solver.step(&model, &t, &p, 5e-4).unwrap();
            assert!(t.iter().all(|v| v.is_finite()));
            assert!(t.min() > model.config().ambient - 1.0);
        }
        let n = solver.runtime().numerics();
        // One activation episode regardless of how many steps ran.
        assert_eq!(n.fallback_activations, 1);
        assert_eq!(n.fallback_steps, 5);
        assert_eq!(n.guard_trips, 0);
    }

    #[test]
    fn degraded_zero_dt_is_identity() {
        let (model, solver) = setup_stiff();
        let t0 = model.ambient_state();
        let p = Vector::constant(16, 2.0);
        let t1 = solver.step(&model, &t0, &p, 0.0).unwrap();
        assert!((&t1 - &t0).norm_inf() < 1e-12);
        // dt = 0 never engages the dense stepper.
        assert_eq!(solver.runtime().numerics().fallback_steps, 0);
    }

    #[test]
    fn healthy_solver_is_not_degraded() {
        let (_, solver) = setup();
        assert!(!solver.degraded());
        assert_eq!(solver.runtime().numerics(), NumericsStats::default());
    }

    #[test]
    fn nonfinite_inputs_rejected() {
        let (model, mut solver) = setup();
        let t0 = model.ambient_state();
        let mut bad_p = Vector::constant(16, 0.3);
        bad_p[3] = f64::NAN;
        assert!(matches!(
            solver.step(&model, &t0, &bad_p, 1e-3),
            Err(ThermalError::Linalg(_))
        ));
        let mut bad_t = model.ambient_state();
        bad_t[7] = f64::INFINITY;
        let p = Vector::constant(16, 0.3);
        assert!(solver.step(&model, &bad_t, &p, 1e-3).is_err());
        assert!(solver.initial_state(&bad_t).is_err());
        let mut state = solver.initial_state(&t0).unwrap();
        assert!(solver.advance(&model, &mut state, &bad_p, 1e-3).is_err());
        assert_eq!(state.nodes(), &t0);
        // Rejected inputs never degrade the solver.
        assert!(!solver.degraded());
    }

    #[test]
    fn reset_clears_numerics_but_degradation_is_sticky() {
        let (model, solver) = setup_stiff();
        let p = Vector::constant(16, 0.5);
        solver
            .step(&model, &model.ambient_state(), &p, 1e-3)
            .unwrap();
        assert_eq!(solver.runtime().numerics().fallback_activations, 1);
        solver.runtime().reset_tallies();
        assert_eq!(solver.runtime().numerics(), NumericsStats::default());
        assert!(solver.degraded());
        // The next dense step opens a fresh activation episode.
        solver
            .step(&model, &model.ambient_state(), &p, 1e-3)
            .unwrap();
        assert_eq!(solver.runtime().numerics().fallback_activations, 1);
    }

    #[test]
    fn clone_inherits_degradation_with_fresh_tallies() {
        let (model, solver) = setup_stiff();
        let p = Vector::constant(16, 0.5);
        solver
            .step(&model, &model.ambient_state(), &p, 1e-3)
            .unwrap();
        let fresh = solver.clone();
        assert!(fresh.degraded());
        assert_eq!(fresh.runtime().numerics(), NumericsStats::default());
        // The original keeps its tallies — cloning is not a reset.
        assert_eq!(solver.runtime().numerics().fallback_activations, 1);
    }

    #[test]
    fn dense_fallback_tracks_eigen_on_healthy_model() {
        // The step a guard trip would substitute stays within a
        // microkelvin of the eigen step it replaces.
        let (model, solver) = setup();
        let mut p = Vector::constant(16, 0.3);
        p[5] = 7.0;
        let t0 = model.ambient_state();
        let eigen_out = solver.step(&model, &t0, &p, 1e-4).unwrap();
        let dense_out = dense_step(&model, &t0, &p, 1e-4);
        assert!((&eigen_out - &dense_out).norm_inf() < 1e-6);
    }

    #[test]
    fn junction_time_constant_observed() {
        // After one junction time constant the deviation towards steady
        // state should have decayed noticeably (but not fully).
        let (model, solver) = setup();
        let mut p = Vector::constant(16, 0.3);
        p[5] = 7.0;
        let tau = model.config().junction_time_constant();
        let t = solver
            .step(&model, &model.ambient_state(), &p, tau)
            .unwrap();
        let t_ss = model.steady_state(&p).unwrap();
        let progress = (t[5] - 45.0) / (t_ss[5] - 45.0);
        assert!(progress > 0.3 && progress < 0.95, "progress {progress:.2}");
    }
}
