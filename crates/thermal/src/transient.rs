use std::sync::Arc;

use hp_linalg::convert::usize_to_f64;
use hp_linalg::eigen::SystemEigen;
use hp_linalg::{LinalgError, Matrix, NumericalError, Vector};

use crate::{
    DenseStepper, ModalBasis, ModalDecay, ModalRuntime, RcThermalModel, Result, ThermalError,
};

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
/// Every stepping entry point runs the same modal update: the power map
/// becomes its eigen-space steady state through one `cores × N` GEMM row
/// (no linear solve), the eigen coordinates relax towards it with the
/// cached decay factors `e^{λΔt}`, and one `N × N` GEMM row reads the
/// node temperatures back out. [`step`](TransientSolver::step) and
/// [`step_many`](TransientSolver::step_many) first project their node
/// input once (`z = V⁻¹·T`, one more `N × N` GEMM row per state);
/// [`advance`](TransientSolver::advance) carries `z` in a
/// [`ThermalState`] from one call to the next and skips it. Because the
/// register-tiled GEMM accumulates each output element in ascending
/// inner-index order — the same order as the scalar dot products — the
/// batched results are bit-identical to the serial mat-vec form (kept as
/// [`step_reference`] for differential testing). Decay vectors are
/// cached per distinct `dt`, so an interval simulator computes the `N`
/// exponentials once instead of every interval.
///
/// [`step_reference`]: TransientSolver::step_reference
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

/// One modal update `z ← m∘z + (1 − m)∘y`, written into `out`. Every
/// stepping path goes through this one expression, which is what keeps
/// the batched, the state-carrying and the serial forms bit-identical.
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

    /// Rejects a `(node state, core power)` input of the wrong shape.
    fn check_shape(&self, node_temps: &Vector, core_power: &Vector) -> Result<()> {
        let cores = self.runtime.basis().core_count();
        if core_power.len() != cores {
            return Err(ThermalError::PowerLengthMismatch {
                expected: cores,
                got: core_power.len(),
            });
        }
        self.check_nodes(node_temps)
    }

    fn check_dt(dt: f64, name: &'static str) -> Result<()> {
        if !(dt.is_finite() && dt >= 0.0) {
            return Err(ThermalError::InvalidParameter { name, value: dt });
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

    fn check_pairs_finite(pairs: &[(&Vector, &Vector)]) -> Result<()> {
        for (temps, power) in pairs {
            Self::check_finite(temps, "input node temperatures")?;
            Self::check_finite(power, "input core power")?;
        }
        Ok(())
    }

    /// One backward-Euler step of `temps` under `power` through the
    /// cached dense `stepper`.
    fn dense_step(
        stepper: &DenseStepper,
        model: &RcThermalModel,
        temps: &Vector,
        power: &Vector,
    ) -> Result<Vector> {
        let next = stepper.step(temps, &model.forcing(power)?)?;
        Self::check_finite(&next, "dense fallback output")?;
        Ok(next)
    }

    /// Dense-fallback form of [`step_many`](TransientSolver::step_many):
    /// backward-Euler stepping through the cached [`DenseStepper`],
    /// counted by the runtime (fallback steps, and one activation
    /// episode on the first fallback of a measured run).
    fn step_many_dense(
        &self,
        model: &RcThermalModel,
        pairs: &[(&Vector, &Vector)],
        dt: f64,
    ) -> Result<Vec<Vector>> {
        if dt == 0.0 {
            // The exact solution is the identity at dt = 0; the dense
            // stepper cannot be factorized for it, and needn't be.
            return Ok(pairs.iter().map(|(t, _)| (*t).clone()).collect());
        }
        let stepper = self
            .runtime
            .lock()
            .dense(dt, || DenseStepper::new(model, dt))?;
        let out = pairs
            .iter()
            .map(|(temps, power)| Self::dense_step(&stepper, model, temps, power))
            .collect::<Result<Vec<_>>>()?;
        self.runtime.lock().count_fallback_steps(out.len());
        Ok(out)
    }

    /// `steps` chained dense-fallback steps of `dt` seconds each from
    /// `node_temps` under constant power: every intermediate state, in
    /// order.
    fn dense_chain(
        &self,
        model: &RcThermalModel,
        node_temps: &Vector,
        core_power: &Vector,
        dt: f64,
        steps: usize,
    ) -> Result<Vec<Vector>> {
        if dt == 0.0 || steps == 0 {
            // Identity steps never engage the dense stepper.
            return Ok(vec![node_temps.clone(); steps]);
        }
        let stepper = self
            .runtime
            .lock()
            .dense(dt, || DenseStepper::new(model, dt))?;
        let mut out: Vec<Vector> = Vec::with_capacity(steps);
        for _ in 0..steps {
            let state = out.last().unwrap_or(node_temps);
            out.push(Self::dense_step(&stepper, model, state, core_power)?);
        }
        self.runtime.lock().count_fallback_steps(steps);
        Ok(out)
    }

    /// Advances the node state by `dt` seconds under a constant per-core
    /// power map.
    ///
    /// This is the batched kernel applied to a batch of one — see
    /// [`step_many`](TransientSolver::step_many) for the layout. An
    /// interval simulator that steps the same state repeatedly should
    /// carry it in a [`ThermalState`] and call
    /// [`advance`](TransientSolver::advance) instead, which skips the
    /// per-step node-to-modal projection.
    ///
    /// # Errors
    ///
    /// * [`ThermalError::PowerLengthMismatch`] for wrong-length power.
    /// * [`ThermalError::InvalidParameter`] for a negative or non-finite `dt`.
    pub fn step(
        &self,
        model: &RcThermalModel,
        node_temps: &Vector,
        core_power: &Vector,
        dt: f64,
    ) -> Result<Vector> {
        let mut out = self.step_many(model, &[(node_temps, core_power)], dt)?;
        // xtask: allow(panic) — step_many returns exactly one state per
        // input pair, so a batch of one always pops.
        Ok(out.pop().expect("batch of one"))
    }

    /// Advances many independent `(state, power)` pairs by the same `dt`
    /// in one batched evaluation, agreeing with per-pair
    /// [`step`](TransientSolver::step) calls bit for bit.
    ///
    /// The node states are row-stacked into a `B × N` matrix and
    /// projected to eigen coordinates with one GEMM against `V⁻¹ᵀ`; the
    /// power maps are row-stacked into a `B × cores` matrix and mapped to
    /// their eigen-space steady states with one GEMM against `projᵀ`;
    /// each row relaxes towards its steady state with the cached decay
    /// `e^{λ·dt}`; and one GEMM against `Vᵀ` reads the node states back
    /// out. Transposing the GEMM operands leaves every dot product's
    /// terms and their ascending-`k` order unchanged, which is why the
    /// batch is bit-identical to the serial
    /// [`step_reference`](TransientSolver::step_reference) form.
    ///
    /// # Degradation
    ///
    /// On a [`degraded`](TransientSolver::degraded) solver the batch is
    /// advanced by the dense backward-Euler fallback instead (counted in
    /// [`ModalRuntime::numerics`]). On a healthy solver the eigen outputs
    /// pass the runtime's envelope guard (finite, within
    /// `[ambient − 1 °C, ambient + 1000 °C]`); a violation trips the
    /// sticky degradation flag and the batch is recomputed densely.
    ///
    /// # Errors
    ///
    /// Same as [`step`](TransientSolver::step), applied to every pair;
    /// additionally [`ThermalError::Linalg`] wrapping
    /// [`NumericalError::NonFinite`] for non-finite input temperatures or
    /// power.
    pub fn step_many(
        &self,
        model: &RcThermalModel,
        pairs: &[(&Vector, &Vector)],
        dt: f64,
    ) -> Result<Vec<Vector>> {
        Self::check_dt(dt, "dt")?;
        Self::check_pairs_finite(pairs)?;
        for (temps, power) in pairs {
            self.check_shape(temps, power)?;
        }
        if pairs.is_empty() {
            return Ok(Vec::new());
        }
        let decay = {
            let mut ledger = self.runtime.lock();
            ledger.count_batch(pairs.len());
            (!ledger.degraded()).then(|| ledger.decay(dt))
        };
        let Some(decay) = decay else {
            return self.step_many_dense(model, pairs, dt);
        };
        let basis = self.runtime.basis();
        let n = basis.node_count();
        let cores = basis.core_count();

        let temps = Matrix::from_fn(pairs.len(), n, |r, i| pairs[r].0[i]);
        let powers = Matrix::from_fn(pairs.len(), cores, |r, j| pairs[r].1[j]);
        let z = temps.mul_matrix(basis.v_inv_t())?; // B × N, eigen space
        let y = basis.steady_modal(&powers)?; // B × N, eigen space
        let mut z_next = Matrix::zeros(pairs.len(), n);
        for r in 0..pairs.len() {
            relax(&decay.m, z.row(r), y.row(r), z_next.row_mut(r));
        }
        let t = z_next.mul_matrix(basis.v_t())?; // B × N, node space
        let out: Vec<Vector> = (0..pairs.len())
            .map(|r| Vector::from(t.row(r).to_vec()))
            .collect();

        let nodes = out.iter().flat_map(|t| t.iter().copied());
        if self.runtime.lock().guard(model.config().ambient, nodes) {
            return self.step_many_dense(model, pairs, dt);
        }
        Ok(out)
    }

    /// Serial mat-vec form of [`step`](TransientSolver::step): the same
    /// modal update `T' = V·(m∘(V⁻¹·T) + (1 − m)∘(proj·P + y_amb))` with
    /// per-call exponentials, per-element dot products and no batching.
    /// Kept as the differential-testing reference the batched kernel must
    /// match bit for bit.
    ///
    /// # Errors
    ///
    /// Same as [`step`](TransientSolver::step).
    #[doc(hidden)]
    pub fn step_reference(
        &self,
        _model: &RcThermalModel,
        node_temps: &Vector,
        core_power: &Vector,
        dt: f64,
    ) -> Result<Vector> {
        Self::check_dt(dt, "dt")?;
        Self::check_finite(node_temps, "input node temperatures")?;
        Self::check_finite(core_power, "input core power")?;
        self.check_shape(node_temps, core_power)?;
        let basis = self.runtime.basis();
        let eigen = basis.eigen();
        let proj_t = basis.proj_t();
        let y_amb = basis.y_amb();
        let m = ModalDecay::new(eigen.eigenvalues(), dt).m;
        let z = eigen.v_inv().mul_vector(node_temps);
        let y = Vector::from_fn(eigen.dim(), |i| {
            let mut acc = 0.0;
            for (j, &p) in core_power.iter().enumerate() {
                acc += p * proj_t[(j, i)];
            }
            acc + y_amb[i]
        });
        let mut z_next = Vector::zeros(eigen.dim());
        relax(&m, z.as_slice(), y.as_slice(), z_next.as_mut_slice());
        Ok(eigen.v().mul_vector(&z_next))
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
        if self.degraded() {
            return Ok(ThermalState {
                nodes: node_temps.clone(),
                modal: None,
            });
        }
        let row = Matrix::from_fn(1, node_temps.len(), |_, i| node_temps[i]);
        let z = row.mul_matrix(self.runtime.basis().v_inv_t())?;
        Ok(ThermalState {
            nodes: node_temps.clone(),
            modal: Some(Vector::from(z.row(0).to_vec())),
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
    /// constant per-core power map — the interval engine's step.
    ///
    /// While the state carries eigen coordinates the update is the modal
    /// form of [`step`](TransientSolver::step) without its projection:
    /// one `cores × N` GEMM row maps the power to its eigen-space steady
    /// state, `z` relaxes towards it, and one `N × N` GEMM row
    /// materializes the full node vector, which the unchanged envelope
    /// guard then checks. A guard trip (counted, sticky) recomputes the
    /// interval with the dense fallback from the previous node vector and
    /// drops `z`, as does a [`degraded`](TransientSolver::degraded)
    /// solver: from then on the state is stepped in node space.
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
        Self::check_dt(dt, "dt")?;
        Self::check_finite(&state.nodes, "input node temperatures")?;
        Self::check_finite(core_power, "input core power")?;
        self.check_shape(&state.nodes, core_power)?;
        let ledger = self.runtime.get_mut();
        ledger.count_batch(1);
        let healthy = !ledger.degraded();
        if let Some(z) = state.modal.as_ref().filter(|_| healthy) {
            let decay = self.runtime.get_mut().decay(dt);
            let basis = self.runtime.basis();
            let powers = Matrix::from_fn(1, core_power.len(), |_, j| core_power[j]);
            let y = basis.steady_modal(&powers)?;
            let mut z_next = Matrix::zeros(1, z.len());
            relax(&decay.m, z.as_slice(), y.row(0), z_next.row_mut(0));
            let nodes = Vector::from(z_next.mul_matrix(basis.v_t())?.row(0).to_vec());
            let ambient = model.config().ambient;
            if !self.runtime.get_mut().guard(ambient, nodes.iter().copied()) {
                state.nodes = nodes;
                state.modal = Some(Vector::from(z_next.row(0).to_vec()));
                return Ok(());
            }
        }
        state.modal = None;
        if dt > 0.0 {
            let stepper = self
                .runtime
                .get_mut()
                .dense(dt, || DenseStepper::new(model, dt))?;
            state.nodes = Self::dense_step(&stepper, model, &state.nodes, core_power)?;
            self.runtime.get_mut().count_fallback_steps(1);
        }
        Ok(())
    }

    /// Peak junction temperature (and the time it occurs) within
    /// `[0, horizon]` under constant power — the *peak detection* half of
    /// the MatEx solver the paper builds on.
    ///
    /// Each junction's trajectory is a sum of decaying exponentials
    /// `T_i(t) = T_ss,i + Σ_k V_ik·e^{λ_k t}·w_k`, which is smooth with few
    /// extrema; the maximum is located by a coarse scan (all sample
    /// instants row-stacked through one GEMM) followed by golden-section
    /// refinement of the best bracket, then compared with both endpoints.
    ///
    /// # Errors
    ///
    /// * [`ThermalError::InvalidParameter`] for a negative or non-finite
    ///   `horizon`.
    /// * Propagated solver errors.
    pub fn peak_within(
        &self,
        model: &RcThermalModel,
        node_temps: &Vector,
        core_power: &Vector,
        horizon: f64,
    ) -> Result<(f64, f64)> {
        Self::check_dt(horizon, "horizon")?;
        Self::check_finite(node_temps, "input node temperatures")?;
        Self::check_finite(core_power, "input core power")?;
        if self.degraded() {
            return self.peak_within_dense(model, node_temps, core_power, horizon);
        }
        let t_steady = model.steady_state(core_power)?;
        let deviation = node_temps - &t_steady;
        let eigen = self.eigen();
        let w = eigen.v_inv().mul_vector(&deviation);
        let v = eigen.v();
        let lambda = eigen.eigenvalues();
        let cores = model.core_count();
        let nodes = model.node_count();

        // Hottest junction at time t. The modal terms are grouped as
        // v·(e^{λt}·w) — the same grouping and ascending-k accumulation as
        // the batched coarse scan below, so the two agree bit for bit.
        let peak_at = |t: f64| -> f64 {
            let mut best = f64::NEG_INFINITY;
            for c in 0..cores {
                let mut acc = 0.0;
                for k in 0..nodes {
                    acc += v[(c, k)] * ((lambda[k] * t).exp() * w[k]);
                }
                best = best.max(t_steady[c] + acc);
            }
            best
        };

        if horizon == 0.0 {
            return Ok((peak_at(0.0), 0.0));
        }

        // Coarse scan: row-stack the decayed eigen states of every sample
        // instant and reconstruct all junction trajectories with one GEMM.
        const SAMPLES: usize = 48;
        let mut e = Matrix::zeros(SAMPLES + 1, nodes);
        for s in 0..=SAMPLES {
            let t = horizon * usize_to_f64(s) / usize_to_f64(SAMPLES);
            let row = e.row_mut(s);
            for (k, slot) in row.iter_mut().enumerate() {
                *slot = (lambda[k] * t).exp() * w[k];
            }
        }
        let traj = e.mul_matrix(self.runtime.basis().v_t())?; // (SAMPLES+1) × nodes
        let mut best_t = 0.0;
        let mut best_v = f64::NEG_INFINITY;
        for s in 0..=SAMPLES {
            let row = traj.row(s);
            let mut val = f64::NEG_INFINITY;
            for c in 0..cores {
                val = val.max(t_steady[c] + row[c]);
            }
            if val > best_v {
                best_v = val;
                best_t = horizon * usize_to_f64(s) / usize_to_f64(SAMPLES);
            }
        }

        // Golden-section refinement of the winning bracket.
        let step = horizon / usize_to_f64(SAMPLES);
        let (mut lo, mut hi) = ((best_t - step).max(0.0), (best_t + step).min(horizon));
        const PHI: f64 = 0.618_033_988_749_894_8;
        for _ in 0..40 {
            let a = hi - PHI * (hi - lo);
            let b = lo + PHI * (hi - lo);
            if peak_at(a) < peak_at(b) {
                lo = a;
            } else {
                hi = b;
            }
        }
        let t_ref = 0.5 * (lo + hi);
        let v_ref = peak_at(t_ref);
        let (peak, at) = if v_ref > best_v {
            (v_ref, t_ref)
        } else {
            (best_v, best_t)
        };
        // Both candidate times come from rounded arithmetic — the scan
        // instants `horizon·s/S` and the bracket midpoint `(lo+hi)/2` can
        // each land one ULP past `horizon`; clamp so the reported peak
        // time honours the `[0, horizon]` contract exactly.
        let at = at.clamp(0.0, horizon);
        // The guard checks the scalar result: the trajectories above are
        // eigen reconstructions too.
        if self.runtime.lock().guard(model.config().ambient, [peak]) {
            return self.peak_within_dense(model, node_temps, core_power, horizon);
        }
        Ok((peak, at))
    }

    /// Dense-fallback form of [`peak_within`](TransientSolver::peak_within):
    /// a backward-Euler sampling scan over the horizon. No golden-section
    /// refinement — the dense path trades the last digit of peak-time
    /// precision for unconditional stability.
    fn peak_within_dense(
        &self,
        model: &RcThermalModel,
        node_temps: &Vector,
        core_power: &Vector,
        horizon: f64,
    ) -> Result<(f64, f64)> {
        let mut best_v = model.core_temperatures(node_temps).max();
        let mut best_t = 0.0;
        if horizon == 0.0 {
            return Ok((best_v, best_t));
        }
        const SAMPLES: usize = 48;
        let sub = horizon / usize_to_f64(SAMPLES);
        let states = self.dense_chain(model, node_temps, core_power, sub, SAMPLES)?;
        for (s, state) in (1..=SAMPLES).zip(&states) {
            let val = model.core_temperatures(state).max();
            if val > best_v {
                best_v = val;
                // `sub·S` can round one ULP past `horizon`; clamp to keep
                // the reported time inside the queried window.
                best_t = (sub * usize_to_f64(s)).min(horizon);
            }
        }
        Ok((best_v, best_t))
    }

    /// Evaluates the full trajectory at `samples` evenly spaced instants in
    /// `(0, dt]` under constant power (useful for dense thermal traces).
    ///
    /// The eigen-space deviation is computed once, every sample instant's
    /// decayed state is row-stacked, and one GEMM reconstructs all node
    /// states — bit-identical to per-sample
    /// [`step`](TransientSolver::step) calls at the same instants. On the
    /// dense fallback the instants are reached by chained backward-Euler
    /// substeps of `dt / samples`.
    ///
    /// # Errors
    ///
    /// Same as [`step`](TransientSolver::step).
    pub fn trajectory(
        &self,
        model: &RcThermalModel,
        node_temps: &Vector,
        core_power: &Vector,
        dt: f64,
        samples: usize,
    ) -> Result<Vec<Vector>> {
        Self::check_dt(dt, "dt")?;
        Self::check_finite(node_temps, "input node temperatures")?;
        Self::check_finite(core_power, "input core power")?;
        let sub = dt / usize_to_f64(samples);
        if self.degraded() {
            return self.dense_chain(model, node_temps, core_power, sub, samples);
        }
        let t_steady = model.steady_state(core_power)?;
        let deviation = node_temps - &t_steady;
        let eigen = self.eigen();
        let y = eigen.v_inv().mul_vector(&deviation);
        let n = eigen.dim();
        let lambda = eigen.eigenvalues();

        let mut e = Matrix::zeros(samples, n);
        for k in 1..=samples {
            let t = dt * usize_to_f64(k) / usize_to_f64(samples);
            let row = e.row_mut(k - 1);
            for (i, slot) in row.iter_mut().enumerate() {
                *slot = (lambda[i] * t).exp() * y[i];
            }
        }
        let decayed = e.mul_matrix(self.runtime.basis().v_t())?; // samples × N
        let out: Vec<Vector> = (0..samples)
            .map(|k| Vector::from_fn(n, |i| t_steady[i] + decayed[(k, i)]))
            .collect();
        let nodes = out.iter().flat_map(|t| t.iter().copied());
        if self.runtime.lock().guard(model.config().ambient, nodes) {
            return self.dense_chain(model, node_temps, core_power, sub, samples);
        }
        Ok(out)
    }

    /// Serial form of [`trajectory`](TransientSolver::trajectory): one
    /// full `exp_apply` mat-vec pair per sample instant. Differential-
    /// testing reference for the batched trajectory.
    ///
    /// # Errors
    ///
    /// Same as [`step`](TransientSolver::step).
    #[doc(hidden)]
    pub fn trajectory_reference(
        &self,
        model: &RcThermalModel,
        node_temps: &Vector,
        core_power: &Vector,
        dt: f64,
        samples: usize,
    ) -> Result<Vec<Vector>> {
        Self::check_dt(dt, "dt")?;
        Self::check_finite(node_temps, "input node temperatures")?;
        Self::check_finite(core_power, "input core power")?;
        let t_steady = model.steady_state(core_power)?;
        let deviation = node_temps - &t_steady;
        let mut out = Vec::with_capacity(samples);
        for k in 1..=samples {
            let t = dt * usize_to_f64(k) / usize_to_f64(samples);
            let decayed = self.eigen().exp_apply(t, &deviation);
            out.push(&t_steady + &decayed);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NumericsStats, SolverStats, ThermalConfig};
    use hp_floorplan::GridFloorplan;

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

    #[test]
    fn step_matches_serial_reference_bit_for_bit() {
        let (model, solver) = setup();
        let mut p = Vector::constant(16, 0.3);
        p[5] = 7.0;
        let mut t = model.ambient_state();
        let mut t_ref = model.ambient_state();
        for k in 0..10 {
            let dt = 1e-4 * f64::from(1 + k % 3);
            t = solver.step(&model, &t, &p, dt).unwrap();
            t_ref = solver.step_reference(&model, &t_ref, &p, dt).unwrap();
            for i in 0..model.node_count() {
                assert_eq!(
                    t[i].to_bits(),
                    t_ref[i].to_bits(),
                    "step {k} node {i}: {} vs {}",
                    t[i],
                    t_ref[i]
                );
            }
        }
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
        &t_ss + &solver.eigen().exp_apply(dt, &(t - &t_ss))
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
        let dense = solver.step_many_dense(&model, &[(&t0, &p)], 1e-4).unwrap();
        assert_eq!(state.nodes(), &dense[0]);
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
        let dense = solver.step_many_dense(&model, &[(&t0, &p)], 1e-4).unwrap();
        assert_eq!(state.nodes(), &dense[0]);
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
    fn step_many_matches_per_pair_steps() {
        let (model, solver) = setup();
        let states: Vec<Vector> = (0..4)
            .map(|k| {
                let mut p = Vector::constant(16, 0.3);
                p[k * 3] = 5.0;
                solver
                    .step(&model, &model.ambient_state(), &p, 0.01 * (k + 1) as f64)
                    .unwrap()
            })
            .collect();
        let powers: Vec<Vector> = (0..4)
            .map(|k| Vector::from_fn(16, |c| ((c + k) % 5) as f64 * 1.1 + 0.3))
            .collect();
        let pairs: Vec<(&Vector, &Vector)> = states.iter().zip(powers.iter()).collect();
        let batch = solver.step_many(&model, &pairs, 7e-4).unwrap();
        assert_eq!(batch.len(), 4);
        for (k, (state, power)) in pairs.iter().enumerate() {
            let single = solver.step(&model, state, power, 7e-4).unwrap();
            for i in 0..model.node_count() {
                assert_eq!(batch[k][i].to_bits(), single[i].to_bits(), "pair {k}");
            }
        }
    }

    #[test]
    fn step_many_empty_batch_is_empty() {
        let (model, solver) = setup();
        assert!(solver.step_many(&model, &[], 1e-3).unwrap().is_empty());
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
    fn trajectory_endpoint_matches_step() {
        let (model, solver) = setup();
        let mut p = Vector::constant(16, 0.3);
        p[10] = 6.0;
        let t0 = model.ambient_state();
        let traj = solver.trajectory(&model, &t0, &p, 0.004, 4).unwrap();
        let end = solver.step(&model, &t0, &p, 0.004).unwrap();
        assert_eq!(traj.len(), 4);
        assert!((traj.last().unwrap() - &end).norm_inf() < 1e-9);
    }

    #[test]
    fn trajectory_matches_serial_reference_bit_for_bit() {
        let (model, solver) = setup();
        let mut p = Vector::constant(16, 0.3);
        p[10] = 6.0;
        let mut hot = Vector::constant(16, 0.3);
        hot[2] = 7.0;
        let t0 = solver
            .step(&model, &model.ambient_state(), &hot, 5.0)
            .unwrap();
        let batched = solver.trajectory(&model, &t0, &p, 0.004, 7).unwrap();
        let serial = solver
            .trajectory_reference(&model, &t0, &p, 0.004, 7)
            .unwrap();
        assert_eq!(batched.len(), serial.len());
        for (k, (a, b)) in batched.iter().zip(&serial).enumerate() {
            for i in 0..model.node_count() {
                assert_eq!(a[i].to_bits(), b[i].to_bits(), "sample {k} node {i}");
            }
        }
    }

    #[test]
    fn peak_within_matches_dense_sampling() {
        let (model, solver) = setup();
        let mut p = Vector::constant(16, 0.3);
        p[5] = 7.0;
        // Start HOT on a different core so the trajectory has an interior
        // structure (core 10 cools while core 5 heats).
        let mut hot = Vector::constant(16, 0.3);
        hot[10] = 7.0;
        let t0 = solver
            .step(&model, &model.ambient_state(), &hot, 10.0)
            .unwrap();
        let horizon = 20e-3;
        let (peak, at) = solver.peak_within(&model, &t0, &p, horizon).unwrap();
        // Dense reference.
        let mut reference = f64::NEG_INFINITY;
        for s in 0..=2000 {
            let t = horizon * f64::from(s) / 2000.0;
            let state = solver.step(&model, &t0, &p, t).unwrap();
            reference = reference.max(model.core_temperatures(&state).max());
        }
        assert!(
            (peak - reference).abs() < 0.02,
            "peak {peak:.3} vs dense reference {reference:.3}"
        );
        assert!((0.0..=horizon).contains(&at));
    }

    #[test]
    fn peak_within_heating_run_is_at_horizon() {
        // Pure heating from ambient: the maximum sits at the end.
        let (model, solver) = setup();
        let mut p = Vector::constant(16, 0.3);
        p[5] = 7.0;
        let horizon = 5e-3;
        let (peak, at) = solver
            .peak_within(&model, &model.ambient_state(), &p, horizon)
            .unwrap();
        let end = solver
            .step(&model, &model.ambient_state(), &p, horizon)
            .unwrap();
        assert!((peak - model.core_temperatures(&end).max()).abs() < 1e-6);
        assert!((at - horizon).abs() < horizon * 0.05);
    }

    #[test]
    fn peak_within_cooling_run_is_at_start() {
        // Cooling after power-off: the maximum sits at t = 0.
        let (model, solver) = setup();
        let mut hot_p = Vector::constant(16, 0.3);
        hot_p[5] = 7.0;
        let hot = solver
            .step(&model, &model.ambient_state(), &hot_p, 10.0)
            .unwrap();
        let (peak, at) = solver
            .peak_within(&model, &hot, &Vector::zeros(16), 10e-3)
            .unwrap();
        assert!((peak - model.core_temperatures(&hot).max()).abs() < 1e-6);
        assert!(at < 1e-3);
    }

    #[test]
    fn peak_within_rejects_bad_horizon() {
        let (model, solver) = setup();
        assert!(solver
            .peak_within(&model, &model.ambient_state(), &Vector::zeros(16), -1.0)
            .is_err());
    }

    #[test]
    fn stats_count_batches_and_cache_traffic() {
        let (model, solver) = setup();
        let t0 = model.ambient_state();
        let p = Vector::constant(16, 0.5);
        assert_eq!(solver.runtime().stats(), SolverStats::default());
        solver.step(&model, &t0, &p, 1e-3).unwrap();
        solver.step(&model, &t0, &p, 1e-3).unwrap();
        let pairs = [(&t0, &p), (&t0, &p), (&t0, &p)];
        solver.step_many(&model, &pairs, 2e-3).unwrap();
        let s = solver.runtime().stats();
        assert_eq!(s.batch_calls, 3);
        assert_eq!(s.batched_items, 5);
        // Two distinct dt values → two misses; the repeated step hits.
        assert_eq!(s.decay_cache_misses, 2);
        assert_eq!(s.decay_cache_hits, 1);
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
    fn degraded_trajectory_and_peak_are_finite() {
        let (model, solver) = setup_stiff();
        let mut p = Vector::constant(16, 0.3);
        p[5] = 7.0;
        let t0 = model.ambient_state();
        let traj = solver.trajectory(&model, &t0, &p, 2e-3, 4).unwrap();
        assert_eq!(traj.len(), 4);
        for state in &traj {
            assert!(state.iter().all(|v| v.is_finite()));
        }
        let (peak, at) = solver.peak_within(&model, &t0, &p, 2e-3).unwrap();
        assert!(peak.is_finite() && peak >= model.config().ambient - 1.0);
        assert!((0.0..=2e-3).contains(&at));
        assert_eq!(solver.runtime().numerics().fallback_activations, 1);
    }

    #[test]
    fn healthy_solver_is_not_degraded() {
        let (_, solver) = setup();
        assert!(!solver.degraded());
        assert_eq!(solver.runtime().numerics(), NumericsStats::default());
    }

    #[test]
    fn nonfinite_inputs_rejected() {
        let (model, solver) = setup();
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
        assert!(solver.step_reference(&model, &bad_t, &p, 1e-3).is_err());
        assert!(solver.trajectory(&model, &t0, &bad_p, 1e-3, 4).is_err());
        assert!(solver.peak_within(&model, &bad_t, &p, 1e-3).is_err());
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
        // Force the dense path on a *healthy* model via a clone whose
        // guard we trip artificially through restore + envelope violation
        // is not possible from outside; instead compare step_many_dense
        // through the public API of a stiff-armed solver sharing the
        // healthy model's eigen basis. Simplest honest check: the
        // fallback stepper itself is pinned against the eigen path in
        // fallback.rs; here we pin the routed outputs' agreement.
        let (model, solver) = setup();
        let mut p = Vector::constant(16, 0.3);
        p[5] = 7.0;
        let t0 = model.ambient_state();
        let eigen_out = solver.step(&model, &t0, &p, 1e-4).unwrap();
        let dense_out = {
            let mut out = solver.step_many_dense(&model, &[(&t0, &p)], 1e-4).unwrap();
            out.pop().unwrap()
        };
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
