use std::fmt;
use std::sync::{Arc, OnceLock};

use hp_linalg::convert::usize_to_f64;
use hp_linalg::eigen::SystemEigen;
use hp_linalg::{LinalgError, Matrix, NumericalError, Vector};

use crate::runtime::{envelope_celsius, StepBuffers};
use crate::{DenseStepper, Ledger, ModalBasis, ModalRuntime, RcThermalModel, Result, ThermalError};

/// The thermal state the interval engine carries from one interval to
/// the next: the junction temperatures `T_J` (°C), the node temperatures
/// `T` (°C) and, while the eigen path is live, their eigen coordinates
/// `z = V⁻¹·T`.
///
/// Carrying `z` is what lets [`TransientSolver::advance`] skip the
/// node-to-modal projection every interval. An interval whose spreader
/// and sink rows a modal certificate clears (see [`TransientSolver`])
/// reads out only the junctions; [`nodes`](ThermalState::nodes) then
/// reads `T = z·Vᵀ` out on first use, through the same GEMM row a full
/// readout runs, so it holds the bits every interval used to
/// materialize. Once the solver steps in node space (an armed model or a
/// tripped guard) `z` is dropped for good. Build a state with
/// [`TransientSolver::initial_state`] or, when resuming from a
/// checkpoint, [`TransientSolver::restore_state`].
///
/// Two states are equal when their temperatures are: `T` (read out if
/// need be) and `z`. Neither the certificate's anchor nor whether `T`
/// has been read out yet takes part.
#[derive(Clone)]
pub struct ThermalState {
    /// `T_J`: the first `cores` entries of `T`, °C.
    junctions: Vector,
    /// `T`, °C: set whenever the solver computed it, read out of `z` on
    /// first use otherwise.
    nodes: OnceLock<Vector>,
    /// The storage of the node vector a certified interval set aside:
    /// the next full readout writes into it instead of allocating.
    spare: Option<Vector>,
    modal: Option<Vector>,
    /// The last full readout of `z`, while the state carries one.
    anchor: Option<Anchor>,
    /// The basis `z` is read out through.
    basis: Arc<ModalBasis>,
}

impl ThermalState {
    /// A state whose node vector `nodes` is known, with no anchor.
    fn known(basis: Arc<ModalBasis>, nodes: Vector, modal: Option<Vector>) -> Self {
        ThermalState {
            junctions: Vector::from(nodes.as_slice()[..basis.core_count()].to_vec()),
            nodes: OnceLock::from(nodes),
            spare: None,
            modal,
            anchor: None,
            basis,
        }
    }

    /// Node temperatures `T`, °C, read out as `z·Vᵀ` on first use after
    /// a certified interval.
    pub fn nodes(&self) -> &Vector {
        self.nodes.get_or_init(|| {
            // The node vector is unset only after a certified interval,
            // which leaves `z` of the basis's node count, so the product
            // exists. The NaN row stands in for the impossible case (a
            // rejected product leaves it unwritten): it trips every check
            // that reads it.
            let mut t = Vector::constant(self.basis.node_count(), f64::NAN);
            if let Some(z) = &self.modal {
                Matrix::gemm_into(z.as_slice(), 1, self.basis.v_t(), t.as_mut_slice()).ok();
            }
            t
        })
    }

    /// Junction temperatures `T_J`, °C: the first `cores` entries of
    /// [`nodes`](ThermalState::nodes), known every interval.
    pub fn junctions(&self) -> &Vector {
        &self.junctions
    }

    /// Eigen coordinates `z` of [`nodes`](ThermalState::nodes), °C, or
    /// `None` once the state is stepped in node space.
    pub fn modal(&self) -> Option<&Vector> {
        self.modal.as_ref()
    }

    /// Moves the state to the certified interval's eigen coordinates `z`
    /// and junction temperatures `junctions` (°C), in place; `T` is read
    /// out on demand, and its storage is kept for the next full readout.
    fn step_certified(&mut self, z: &[f64], junctions: &[f64]) {
        self.junctions.as_mut_slice().copy_from_slice(junctions);
        if let Some(modal) = &mut self.modal {
            modal.as_mut_slice().copy_from_slice(z);
        }
        if let Some(nodes) = self.nodes.take() {
            self.spare = Some(nodes);
        }
    }

    /// Moves the state to a fully read-out interval of `basis`: eigen
    /// coordinates `z` and node temperatures `nodes` (°C), which become
    /// the certificate's anchor. Written in place into the storage the
    /// state already holds (that of `T` set aside by a certified
    /// interval included).
    fn step_read_out(&mut self, basis: &Arc<ModalBasis>, z: &[f64], nodes: &[f64]) {
        if !Arc::ptr_eq(&self.basis, basis) {
            self.basis = Arc::clone(basis);
        }
        let (junctions, rows) = nodes.split_at(basis.core_count().min(nodes.len()));
        refill(&mut self.junctions, junctions);
        let mut t = self
            .nodes
            .take()
            .or_else(|| self.spare.take())
            .unwrap_or_default();
        refill(&mut t, nodes);
        self.nodes = OnceLock::from(t);
        if let Some(modal) = &mut self.modal {
            refill(modal, z);
        }
        match &mut self.anchor {
            Some(anchor) => anchor.set(z, rows),
            None => self.anchor = Some(Anchor::new(z, rows)),
        }
    }

    /// Reads `T` out if need be, then drops `z` and the anchor: the state
    /// is stepped in node space from here on.
    fn leave_modal(&mut self) {
        self.nodes();
        self.modal = None;
        self.anchor = None;
    }
}

impl PartialEq for ThermalState {
    fn eq(&self, other: &Self) -> bool {
        self.modal == other.modal && self.nodes() == other.nodes()
    }
}

impl fmt::Debug for ThermalState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ThermalState")
            .field("junctions", &self.junctions)
            .field("nodes", &self.nodes.get())
            .field("modal", &self.modal)
            .finish_non_exhaustive()
    }
}

/// Relative slack of the certificate's bound, `1 + 2⁻⁴⁰`: it absorbs
/// the rounding of the bound's own arithmetic (see
/// [`Anchor::certifies`]).
const BOUND_SLACK: f64 = 1.0 + 4096.0 * f64::EPSILON;

/// Largest node count `N` the slack covers: `γ_{N+16} ≤ 2⁻⁴¹`.
const MAX_CERTIFIED_NODES: usize = (1 << 12) - 16;

/// The last full readout of a carried state: its eigen coordinates `z_a`
/// and the coolest and hottest of its spreader and sink rows, °C.
#[derive(Debug, Clone)]
struct Anchor {
    modal: Vector,
    coolest: f64,
    hottest: f64,
}

/// Overwrites `v` with `values`, in place when the lengths agree.
fn refill(v: &mut Vector, values: &[f64]) {
    if v.len() == values.len() {
        v.as_mut_slice().copy_from_slice(values);
    } else {
        *v = Vector::from(values.to_vec());
    }
}

/// The coolest and hottest of `rows`, °C.
fn extremes(rows: &[f64]) -> (f64, f64) {
    rows.iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &t| {
            (lo.min(t), hi.max(t))
        })
}

impl Anchor {
    /// The anchor of `z` whose full readout `z·Vᵀ` has the spreader and
    /// sink rows `rows`.
    fn new(z: &[f64], rows: &[f64]) -> Self {
        let (coolest, hottest) = extremes(rows);
        Anchor {
            modal: Vector::from(z.to_vec()),
            coolest,
            hottest,
        }
    }

    /// Moves the anchor to `z` with rows `rows`, in place.
    fn set(&mut self, z: &[f64], rows: &[f64]) {
        refill(&mut self.modal, z);
        (self.coolest, self.hottest) = extremes(rows);
    }

    /// Whether every spreader and sink row of the full readout `z·Vᵀ`
    /// provably passes the envelope guard `[lo, hi]`, given that this
    /// anchor's readout did, the per-mode `weights` of those rows, and
    /// the guard bounds `(lo, hi)`.
    ///
    /// The bound. Both readouts are dot products of length `N`,
    /// accumulated from 0.0 with one rounding per product and sum, so
    /// with `u = 2⁻⁵³`, `γ_N = N·u/(1 − N·u)` and `η = 2⁻¹⁰⁷⁴` (Higham,
    /// *Accuracy and Stability*, §3.1; a product that underflows errs by
    /// at most `η/2` absolutely), every such row `i` satisfies
    ///
    /// ```text
    /// |fl(z·V_i) − z·V_i| ≤ γ_N·Σ_k |z_k|·|V_ik| + N·η,
    /// ```
    ///
    /// and the same for `z_a`, whose exact rows differ from `z`'s by
    /// `|Σ_k (z_k − z_a,k)·V_ik| ≤ Σ_k w_k·|z_k − z_a,k|`. Hence every
    /// computed row lies within
    ///
    /// ```text
    /// B = Σ_k w_k·|z_k − z_a,k| + γ_N·Σ_k w_k·(|z_k| + |z_a,k|) + 2N·η
    /// ```
    ///
    /// of the anchor's row, so inside `[coolest − B, hottest + B]`, and
    /// finite: an overflow anywhere would make `B` exceed 10²⁹⁰.
    ///
    /// The evaluation. Each of `b`'s `N` non-negative terms is at most
    /// six rounded operations deep (the two of γ_N included); the eight
    /// lane sums and their total add at most `N + 8` more, the scaling
    /// and the absolute term two. So `b` falls short of `B` without its
    /// `η` terms by at most the factor `1 − γ_{N+16}`, less
    /// `(2N + 1)·η/2` where products underflow. For `N + 16 ≤ 2¹²`,
    /// `γ_{N+16} ≤ 2⁻⁴¹`, so the slack `1 + 2⁻⁴⁰` lifts `b` above
    /// `(1 + u)·B`, the absolute term `2⁻¹⁰²² = 2⁵²·η` covering every `η`
    /// term. The margins `coolest − lo ≥ 0` and `hi − hottest ≥ 0` round
    /// up by at most the factor `1 + u`, so `b ≤ margin` in floating
    /// point implies `B ≤ margin` exactly. A NaN or infinite coordinate
    /// or weight makes `b` NaN or +∞, and both comparisons then fail.
    fn certifies(&self, weights: &Vector, z: &[f64], (lo, hi): (f64, f64)) -> bool {
        let n = z.len();
        if n > MAX_CERTIFIED_NODES || self.modal.len() != n || weights.len() != n {
            return false;
        }
        let n_u = usize_to_f64(n) * (f64::EPSILON / 2.0);
        let gamma = n_u / (1.0 - n_u);
        let term =
            |zk: f64, ak: f64, wk: f64| wk * ((zk - ak).abs() + gamma * (zk.abs() + ak.abs()));
        // Eight independent partial sums: the bound holds for any
        // summation order, and the lanes vectorize.
        let mut lanes = [0.0; 8];
        let (z_body, z_tail) = z.as_chunks::<8>();
        let (a_body, a_tail) = self.modal.as_slice().as_chunks::<8>();
        let (w_body, w_tail) = weights.as_slice().as_chunks::<8>();
        for ((zc, ac), wc) in z_body.iter().zip(a_body).zip(w_body) {
            for l in 0..8 {
                lanes[l] += term(zc[l], ac[l], wc[l]);
            }
        }
        for ((&zk, &ak), &wk) in z_tail.iter().zip(a_tail).zip(w_tail) {
            lanes[0] += term(zk, ak, wk);
        }
        let b = BOUND_SLACK * lanes.iter().sum::<f64>() + f64::MIN_POSITIVE;
        b <= self.coolest - lo && b <= hi - self.hottest
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
/// cached decay factors `e^{λΔt}`, a GEMM row reads temperatures back
/// out, and the runtime's envelope guard checks them. `step` first
/// projects its node input (`z = V⁻¹·T`, one more `N × N` GEMM row) and
/// reads out every node; `advance` carries `z` in a [`ThermalState`]
/// from one call to the next and skips the projection. Because the
/// register-tiled GEMM accumulates each output element in ascending
/// inner-index order, `step` is bit-identical to the serial mat-vec form
/// of the same update. Decay vectors are cached per distinct `dt`, so an
/// interval simulator computes the `N` exponentials once instead of
/// every interval. Every GEMM row writes through
/// [`Matrix::gemm_into`] into buffers the runtime's [`Ledger`] keeps,
/// and `advance` writes the state in place, so once those have their
/// sizes a carried interval allocates nothing.
///
/// # Readout certificate
///
/// The guard answers for every node, but the engine needs only the
/// junctions. So a carried state keeps an *anchor*: the `z` of the last
/// full readout (`z·Vᵀ`, all `N` nodes) and the coolest and hottest of
/// that readout's spreader and sink rows. Each `advance` bounds how far
/// the new `z` can move those rows from the anchor's, rounding of both
/// readouts included, with the basis's per-mode weights `max |V_ik|`.
/// When the bound keeps them inside the guard's envelope, the interval
/// reads out only the junctions (`z·V_Jᵀ`, an `N × cores` GEMM row) and
/// guards those; otherwise it reads out and guards every node, as `step`
/// does, and re-anchors. Either way the guard passes or trips exactly
/// when the full check would, and the junctions carry the same bits.
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

    /// [`degraded`](TransientSolver::degraded) through exclusive access,
    /// without taking the runtime's lock: for an owner that steps the
    /// solver with [`advance`](TransientSolver::advance).
    pub fn degraded_unlocked(&mut self) -> bool {
        self.runtime.get_mut().1.degraded()
    }

    /// The underlying eigendecomposition of `C = −A⁻¹B`.
    pub fn eigen(&self) -> &SystemEigen {
        self.runtime.basis().eigen()
    }

    /// Rejects a node vector of `len` entries when that is not the
    /// model's node count.
    fn check_nodes(&self, len: usize) -> Result<()> {
        let n = self.runtime.basis().node_count();
        if len != n {
            return Err(ThermalError::Linalg(LinalgError::DimensionMismatch {
                op: "thermal node state",
                left: (n, 1),
                right: (len, 1),
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

    /// Rejects a negative or non-finite `dt`.
    fn check_dt(dt: f64) -> Result<()> {
        if !(dt.is_finite() && dt >= 0.0) {
            return Err(ThermalError::InvalidParameter {
                name: "dt",
                value: dt,
            });
        }
        Ok(())
    }

    /// Rejects non-finite or wrong-length power.
    fn check_power(&self, core_power: &Vector) -> Result<()> {
        Self::check_finite(core_power, "input core power")?;
        let cores = self.runtime.basis().core_count();
        if core_power.len() != cores {
            return Err(ThermalError::PowerLengthMismatch {
                expected: cores,
                got: core_power.len(),
            });
        }
        Ok(())
    }

    /// The modal update of [`step`](TransientSolver::step) and
    /// [`advance`](TransientSolver::advance): `state` advances by `dt`
    /// seconds under `core_power`, counted as a batch of one.
    ///
    /// While `state` carries eigen coordinates and the solver is healthy,
    /// `z` relaxes towards the power map's eigen-space steady state (see
    /// [`modal_update`](TransientSolver::modal_update)). On a guard trip
    /// (counted, sticky), or without `z`, the interval is recomputed by
    /// the dense backward-Euler fallback from the previous node vector,
    /// `z` is dropped, and a zero `dt` leaves the nodes unchanged.
    fn update(
        basis: &Arc<ModalBasis>,
        ledger: &mut Ledger<DenseStepper>,
        model: &RcThermalModel,
        state: &mut ThermalState,
        core_power: &Vector,
        dt: f64,
    ) -> Result<()> {
        ledger.count_batch(1);
        if state.modal.is_some() && !ledger.degraded() {
            let mut buffers = std::mem::take(&mut ledger.buffers);
            let stepped =
                Self::modal_update(basis, ledger, &mut buffers, model, state, core_power, dt);
            ledger.buffers = buffers;
            if stepped? {
                return Ok(());
            }
        }
        state.leave_modal();
        if dt > 0.0 {
            // The exact solution is the identity at dt = 0; the dense
            // stepper cannot be factorized for it, and needn't be.
            let stepper = ledger.dense(dt, || DenseStepper::new(model, dt))?;
            let next = stepper.step(state.nodes(), &model.forcing(core_power)?)?;
            Self::check_finite(&next, "dense fallback output")?;
            *state = ThermalState::known(Arc::clone(basis), next, None);
            ledger.count_fallback_steps(1);
        }
        Ok(())
    }

    /// The eigen path of [`update`](TransientSolver::update), through the
    /// ledger's kept `buffers`: `y` from the power slice, `z` relaxed
    /// towards it, then a readout. When the state's anchor certifies the
    /// new `z` (it must have been read out through this very basis) only
    /// the junctions are read out and guarded; otherwise every node is,
    /// and a passing readout becomes the new anchor. A passing interval
    /// is written into `state` in place and returns `true`; a guard trip
    /// leaves `state` as it was and returns `false`. Nothing is allocated
    /// once the buffers and the state's storage have their sizes.
    fn modal_update(
        basis: &Arc<ModalBasis>,
        ledger: &mut Ledger<DenseStepper>,
        buffers: &mut StepBuffers,
        model: &RcThermalModel,
        state: &mut ThermalState,
        core_power: &Vector,
        dt: f64,
    ) -> Result<bool> {
        let Some(z) = &state.modal else {
            return Ok(false);
        };
        let n = basis.node_count();
        let decay = ledger.decay(dt);
        buffers.steady.resize(n, 0.0);
        buffers.modal.resize(n, 0.0);
        basis.steady_modal_into(core_power.as_slice(), 1, &mut buffers.steady)?;
        relax(&decay.m, z.as_slice(), &buffers.steady, &mut buffers.modal);
        let ambient = model.config().ambient;
        let certified = Arc::ptr_eq(&state.basis, basis)
            && state.anchor.as_ref().is_some_and(|anchor| {
                anchor.certifies(
                    basis.non_junction_weights(),
                    &buffers.modal,
                    envelope_celsius(ambient),
                )
            });
        // The GEMM accumulates every entry in ascending `k` from 0.0, so
        // `z·V_Jᵀ` is the junction part of `z·Vᵀ` bit for bit.
        let readout = if certified {
            basis.v_junction_t()
        } else {
            basis.v_t()
        };
        buffers.readout.resize(readout.cols(), 0.0);
        Matrix::gemm_into(&buffers.modal, 1, readout, &mut buffers.readout)?;
        if ledger.guard(ambient, buffers.readout.iter().copied()) {
            return Ok(false);
        }
        if certified {
            state.step_certified(&buffers.modal, &buffers.readout);
        } else {
            state.step_read_out(basis, &buffers.modal, &buffers.readout);
        }
        Ok(true)
    }

    /// Advances the node state by `dt` seconds under a constant per-core
    /// power map: [`initial_state`](TransientSolver::initial_state)'s
    /// projection, then the modal update of
    /// [`advance`](TransientSolver::advance) with a full readout. An
    /// interval simulator that steps the same state repeatedly should
    /// carry it in a [`ThermalState`] and call `advance` instead, which
    /// skips the per-step projection, reads out only the junctions when
    /// it can, and takes no lock. `step` holds the runtime's lock for its
    /// whole update.
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
        Self::check_dt(dt)?;
        Self::check_finite(node_temps, "input node temperatures")?;
        self.check_power(core_power)?;
        self.check_nodes(node_temps.len())?;
        let mut state = self.project(node_temps)?;
        let mut ledger = self.runtime.lock();
        Self::update(
            self.runtime.shared_basis(),
            &mut ledger,
            model,
            &mut state,
            core_power,
            dt,
        )?;
        // A state without an anchor always reads out in full.
        Ok(state.nodes().clone())
    }

    /// The state [`advance`](TransientSolver::advance) starts from: the
    /// node temperatures `node_temps` (°C) with their eigen coordinates,
    /// projected through the same GEMM as [`step`](TransientSolver::step)
    /// — so the first `advance` from it equals `step` bit for bit. On a
    /// [`degraded`](TransientSolver::degraded) solver the state carries
    /// no eigen coordinates and is stepped in node space. The state has
    /// no anchor (`node_temps` is not a readout of its `z`), so its first
    /// `advance` reads out every node.
    ///
    /// # Errors
    ///
    /// [`ThermalError::Linalg`] for a wrong-length or non-finite
    /// `node_temps`.
    pub fn initial_state(&self, node_temps: &Vector) -> Result<ThermalState> {
        Self::check_finite(node_temps, "input node temperatures")?;
        self.check_nodes(node_temps.len())?;
        self.project(node_temps)
    }

    /// `node_temps` with its eigen coordinates `z = V⁻¹·T` (one GEMM row),
    /// or without them on a degraded solver.
    fn project(&self, node_temps: &Vector) -> Result<ThermalState> {
        let modal = if self.degraded() {
            None
        } else {
            let mut z = Vector::zeros(node_temps.len());
            let v_inv_t = self.runtime.basis().v_inv_t();
            Matrix::gemm_into(node_temps.as_slice(), 1, v_inv_t, z.as_mut_slice())?;
            Some(z)
        };
        Ok(ThermalState::known(
            Arc::clone(self.runtime.shared_basis()),
            node_temps.clone(),
            modal,
        ))
    }

    /// Rebuilds a [`ThermalState`] from its parts — the checkpoint-resume
    /// path. `modal` must be exactly the eigen coordinates the captured
    /// state carried (`None` for a state stepped in node space); the
    /// resumed run then continues bit-identically. Like
    /// [`initial_state`](TransientSolver::initial_state)'s, the state has
    /// no anchor, so its first `advance` reads out every node.
    ///
    /// # Errors
    ///
    /// [`ThermalError::Linalg`] if either vector has the wrong length or
    /// a non-finite entry.
    pub fn restore_state(&self, nodes: Vector, modal: Option<Vector>) -> Result<ThermalState> {
        Self::check_finite(&nodes, "restored node temperatures")?;
        self.check_nodes(nodes.len())?;
        if let Some(z) = &modal {
            Self::check_finite(z, "restored modal coordinates")?;
            self.check_nodes(z.len())?;
        }
        Ok(ThermalState::known(
            Arc::clone(self.runtime.shared_basis()),
            nodes,
            modal,
        ))
    }

    /// Advances a carried [`ThermalState`] by `dt` seconds under a
    /// constant per-core power map — the interval engine's step, and
    /// the same modal update as [`step`](TransientSolver::step) without
    /// its projection. An interval the state's anchor certifies reads out
    /// only the junctions (see the [readout
    /// certificate](TransientSolver#readout-certificate)); the junctions,
    /// `z`, the guard's verdict and every tally are those of a full
    /// readout.
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
    /// Same as [`step`](TransientSolver::step), plus
    /// [`ThermalError::Linalg`] for a state of another node count.
    pub fn advance(
        &mut self,
        model: &RcThermalModel,
        state: &mut ThermalState,
        core_power: &Vector,
        dt: f64,
    ) -> Result<()> {
        Self::check_dt(dt)?;
        self.check_power(core_power)?;
        self.check_nodes(state.basis.node_count())?;
        let (basis, ledger) = self.runtime.get_mut();
        Self::update(basis, ledger, model, state, core_power, dt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ModalDecay, NumericsStats, SolverStats, ThermalConfig};
    use hp_floorplan::GridFloorplan;
    use proptest::collection;
    use proptest::prelude::*;

    /// One backward-Euler step of the dense fallback, built afresh.
    fn dense_step(model: &RcThermalModel, t: &Vector, p: &Vector, dt: f64) -> Vector {
        let stepper = DenseStepper::new(model, dt).unwrap();
        stepper.step(t, &model.forcing(p).unwrap()).unwrap()
    }

    /// `v` as a single-row matrix, the shape every GEMM row takes.
    fn row_matrix(v: &Vector) -> Matrix {
        Matrix::from_fn(1, v.len(), |_, k| v[k])
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

    /// Whether the last `advance` of `state` was certified: only a
    /// certified interval leaves the node vector unread.
    fn was_certified(state: &ThermalState) -> bool {
        state.nodes.get().is_none()
    }

    /// Power map `k` of a run that changes it every few intervals.
    fn varying_power(k: usize) -> Vector {
        Vector::from_fn(16, |c| 0.4 + ((c * 7 + (k / 3) * 5) % 11) as f64 * 0.65)
    }

    #[test]
    fn a_carried_run_takes_both_the_certified_and_the_full_readout() {
        let (model, mut solver) = setup();
        let mut state = solver.initial_state(&model.ambient_state()).unwrap();
        let mut certified = Vec::new();
        for k in 0..600 {
            solver
                .advance(&model, &mut state, &varying_power(k), 1e-4)
                .unwrap();
            certified.push(was_certified(&state));
        }
        assert!(!certified[0], "no anchor before the first full readout");
        let count = certified.iter().filter(|&&c| c).count();
        assert!(count > 300, "{count} of 600 intervals certified");
        assert!(count < 599, "every interval after the first certified");
        let n = solver.runtime().numerics();
        assert_eq!(n, NumericsStats::default());
    }

    #[test]
    fn a_certified_state_reads_its_nodes_out_through_the_full_readout() {
        let (model, mut solver) = setup();
        let mut state = solver.initial_state(&model.ambient_state()).unwrap();
        for k in 0..2 {
            solver
                .advance(&model, &mut state, &varying_power(k), 1e-4)
                .unwrap();
        }
        assert!(was_certified(&state));
        let z = state.modal().unwrap().clone();
        let full = row_matrix(&z).mul_matrix(solver.basis().v_t()).unwrap();
        for (i, &t) in full.row(0).iter().enumerate() {
            assert_eq!(state.nodes()[i].to_bits(), t.to_bits(), "node {i}");
        }
        for (c, &t) in state.junctions().iter().enumerate() {
            assert_eq!(t.to_bits(), full.row(0)[c].to_bits(), "junction {c}");
        }
        // Equality ignores the anchor and whether `T` was read out: the
        // restored copy has neither.
        let restored = solver
            .restore_state(state.nodes().clone(), Some(z))
            .unwrap();
        assert!(restored.anchor.is_none() && state.anchor.is_some());
        assert_eq!(restored, state);
        let mut lazy = state.clone();
        lazy.nodes = OnceLock::new();
        assert_eq!(lazy, state);
    }

    #[test]
    fn a_certified_interval_still_trips_the_guard_on_its_junctions() {
        // A chip held just under the guard's ceiling: its junctions sit
        // 995 °C above ambient, its spreader and sink rows at most 335 °C.
        // Doubling the power lifts the junctions ~20 °C, past the
        // ceiling, within one interval, while the bound on the other
        // rows stays far inside their margin: the interval is certified
        // and the junction-only guard must trip.
        let (model, mut solver) = setup();
        let ambient = model.config().ambient;
        let per_watt = model.steady_state(&Vector::constant(16, 1.0)).unwrap();
        let rise = model.core_temperatures(&per_watt).max() - ambient;
        let hot = Vector::constant(16, 995.0 / rise);
        let t0 = model.steady_state(&hot).unwrap();
        let mut state = solver.initial_state(&t0).unwrap();
        solver.advance(&model, &mut state, &hot, 1e-4).unwrap();
        let before = state.nodes().clone();
        let step = hot.scaled(2.0);
        let basis = Arc::clone(solver.runtime.shared_basis());
        let y = basis.steady_modal(&row_matrix(&step)).unwrap();
        let decay = ModalDecay::new(basis.eigen().eigenvalues(), 1e-4);
        let mut z = vec![0.0; 48];
        relax(
            &decay.m,
            state.modal().unwrap().as_slice(),
            y.row(0),
            &mut z,
        );
        let anchor = state.anchor.as_ref().unwrap();
        let envelope = envelope_celsius(ambient);
        assert!(anchor.certifies(basis.non_junction_weights(), &z, envelope));
        solver.advance(&model, &mut state, &step, 1e-4).unwrap();
        assert!(solver.degraded());
        assert_eq!(solver.runtime().numerics().guard_trips, 1);
        assert!(state.modal().is_none());
        assert_eq!(state.nodes(), &dense_step(&model, &before, &step, 1e-4));
    }

    #[test]
    fn the_certificate_clears_an_unchanged_state_and_refuses_poison() {
        let (model, mut solver) = setup();
        let mut state = solver.initial_state(&model.ambient_state()).unwrap();
        solver
            .advance(&model, &mut state, &varying_power(0), 1e-4)
            .unwrap();
        let anchor = state.anchor.clone().unwrap();
        let weights = solver.basis().non_junction_weights().clone();
        let envelope = envelope_celsius(model.config().ambient);
        let z = anchor.modal.as_slice().to_vec();
        assert!(anchor.certifies(&weights, &z, envelope));
        // No margin at all: even an unchanged `z` is refused.
        let flush = (anchor.coolest, anchor.hottest);
        assert!(!anchor.certifies(&weights, &z, flush));
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut poisoned = z.clone();
            poisoned[5] = bad;
            assert!(!anchor.certifies(&weights, &poisoned, envelope), "{bad}");
        }
        // Weights are magnitudes: NaN or +∞ refuses every `z`.
        for bad in [f64::NAN, f64::INFINITY] {
            let mut w = weights.clone();
            w[5] = bad;
            assert!(!anchor.certifies(&w, &z, envelope), "{bad}");
        }
        // A NaN entry of `V` in a sink row makes its mode's weight +∞.
        let mut v = solver.eigen().v().clone();
        v[(40, 3)] = f64::NAN;
        let w = crate::modal::non_junction_weights(&v, 16);
        assert_eq!(w[3], f64::INFINITY);
        assert!(!anchor.certifies(&w, &z, envelope));
        // A length that is not the anchor's is refused.
        assert!(!anchor.certifies(&weights, &z[1..], envelope));
    }

    /// SplitMix64: a deterministic stream of perturbations.
    struct Stream(u64);

    impl Stream {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform in `[lo, hi)`.
        fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
            lo + (hi - lo) * (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// The guard's verdict on the rows the certificate answers for:
    /// every spreader and sink row of the full readout `z·Vᵀ` is finite
    /// and inside `[lo, hi]`.
    fn non_junction_rows_pass(basis: &ModalBasis, z: &[f64], (lo, hi): (f64, f64)) -> bool {
        let t = Matrix::from_fn(1, z.len(), |_, k| z[k])
            .mul_matrix(basis.v_t())
            .unwrap();
        t.row(0)[basis.core_count()..]
            .iter()
            .all(|&v| v.is_finite() && v >= lo && v <= hi)
    }

    // The default config: 256 cases, or `PROPTEST_CASES` (CI runs 1024
    // in release).
    proptest! {
        /// Soundness: a `z` the certificate clears has spreader and sink
        /// rows the full guard passes. Real anchors (the last full
        /// readout of a carried run on a random chip) meet three kinds
        /// of `z`: the real next interval under a fresh power map, up to
        /// 1000× the chip's watts, over 10 µs to 0.5 s; a perturbation of
        /// `z_a` or of the carried `z` from 1e-12 to 1e3 °C, in every
        /// mode or in one; and a step aimed straight down the anchor's
        /// coolest row, sized to land within ±50 % of the floor margin.
        /// Each `z` meets the guard's own envelope and a tight one,
        /// 1e-13 to 10 °C below the anchor's coolest row and 1e-9 to
        /// 1000 °C above its hottest; NaN and ±∞ coordinates and NaN
        /// weights are mixed in.
        #[test]
        fn the_certificate_never_clears_a_row_the_guard_would_trip(
            chip in (2usize..=4, 2usize..=4, 0.02..6.0f64, 0.25..3.0f64, 30.0..60.0f64),
            history in (collection::vec(0.0..8.0f64, 16), 1usize..40, 0u64..u64::MAX),
            jump in (-12.0..3.0f64, 0usize..3, -5.0..-0.3f64, 0.5..1.5f64),
            margins in (-13.0..1.0f64, -9.0..3.0f64),
            poison in 0usize..12,
        ) {
            let (w, h, sink, conv, ambient) = chip;
            let d = ThermalConfig::default();
            let cfg = ThermalConfig {
                ambient,
                c_sink: d.c_sink * sink,
                g_sink_ambient: d.g_sink_ambient * conv,
                ..d
            };
            let model = RcThermalModel::new(&GridFloorplan::new(w, h).unwrap(), &cfg).unwrap();
            let mut solver = TransientSolver::new(&model).unwrap();
            let basis = Arc::clone(solver.runtime.shared_basis());
            let (n, cores) = (model.node_count(), model.core_count());
            let (watts, intervals, seed) = history;
            let mut stream = Stream(seed);
            let mut state = solver.initial_state(&model.ambient_state()).unwrap();
            for k in 0..intervals {
                let p = Vector::from_fn(cores, |c| watts[(c + k) % 16]);
                solver.advance(&model, &mut state, &p, 1e-4).unwrap();
            }
            let anchor = state.anchor.clone().expect("a healthy carried state is anchored");
            let z_now = state.modal.clone().unwrap();
            let floor_margin = 10f64.powf(margins.0);
            let tight = (
                anchor.coolest - floor_margin,
                anchor.hottest + 10f64.powf(margins.1),
            );
            let (scale_exp, shape, dt_exp, aim) = jump;
            let scale = 10f64.powf(scale_exp);
            let one = (stream.next() % n as u64) as usize;
            // The real next interval.
            let powers = Matrix::from_fn(1, cores, |_, _| stream.uniform(0.0, 8.0) * (1.0 + scale));
            let y = basis.steady_modal(&powers).unwrap();
            let decay = ModalDecay::new(basis.eigen().eigenvalues(), 10f64.powf(dt_exp));
            let mut relaxed = vec![0.0; n];
            relax(&decay.m, z_now.as_slice(), y.row(0), &mut relaxed);
            // A perturbation of every mode or of one, from the anchor or
            // from the carried state.
            let base = if shape == 2 { &z_now } else { &anchor.modal };
            let perturbed: Vec<f64> = (0..n)
                .map(|k| {
                    if shape == 1 && k != one {
                        base[k]
                    } else {
                        base[k] + stream.uniform(-scale, scale)
                    }
                })
                .collect();
            // A step that lowers the anchor's coolest row `i` by
            // `s·Σ_k |V_ik|`, with `s·Σ_k w_k = aim × floor margin`.
            let weights_clean = basis.non_junction_weights();
            let t_a = row_matrix(&anchor.modal).mul_matrix(basis.v_t()).unwrap();
            let coolest_row = (cores..n)
                .min_by(|&a, &b| t_a.row(0)[a].total_cmp(&t_a.row(0)[b]))
                .unwrap();
            let s = aim * floor_margin / weights_clean.iter().sum::<f64>();
            let v = basis.eigen().v();
            let aimed: Vec<f64> = (0..n)
                .map(|k| anchor.modal[k] - s * v[(coolest_row, k)].signum())
                .collect();
            let mut weights = weights_clean.clone();
            let mut candidates = [relaxed, perturbed, aimed];
            match poison {
                1 => candidates[1][one] = f64::NAN,
                2 => candidates[1][one] = f64::INFINITY,
                3 => candidates[0][one] = f64::NEG_INFINITY,
                4 => weights[one] = f64::NAN,
                _ => {}
            }
            let envelopes = [tight, envelope_celsius(ambient)];
            for (z, envelope) in candidates.iter().flat_map(|z| envelopes.map(|e| (z, e))) {
                if anchor.certifies(&weights, z, envelope) {
                    prop_assert!(poison != 4, "a NaN weight was accepted");
                    prop_assert!(
                        non_junction_rows_pass(&basis, z, envelope),
                        "cleared a z whose full readout trips the guard"
                    );
                }
            }
            // A NaN entry of `V` in a spreader or sink row: its weight is
            // +∞, and no `z` is cleared.
            if poison == 5 {
                let mut v = v.clone();
                v[(cores + one % (n - cores), one)] = f64::NAN;
                let poisoned = crate::modal::non_junction_weights(&v, cores);
                for (z, envelope) in candidates.iter().flat_map(|z| envelopes.map(|e| (z, e))) {
                    prop_assert!(!anchor.certifies(&poisoned, z, envelope));
                }
            }
        }
    }
}
